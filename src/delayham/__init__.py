"""Hamiltonian structure, symmetries, and first integrals for delay ODEs."""

from types import ModuleType as _ModuleType

from .expr import (
    Expr,
    JetPoint,
    ZeroCheck,
    evaluate,
    is_zero,
    parse,
    partial,
    random_jet,
    shift,
    substitute,
    to_source,
    total_derivative,
)
from .model import (
    DelayHamiltonian,
    Generator,
    QuadraticHamiltonian,
    QuadraticLagrangian,
    action_density,
    elsgolts_residual,
    local_extremal_residual,
    prolong,
    variational_residuals,
    xi_admissible,
)
from .legendre import (
    ExtendedLagrangian,
    LegendreResult,
    alphas_alternative,
    legendre_extended,
    legendre_forward,
    legendre_reverse,
)
from .classical import (
    ClassicalHamiltonian,
    classical_first_integral,
    classical_invariance,
    classical_residuals,
)
from .noether import (
    Classification,
    InvarianceResidual,
    NoetherQuantities,
    analyze_generator,
    analyze_generators,
    classify_invariance,
    difference_integral,
    differential_integral,
    drift,
    invariance_residual,
    noether_parts,
    variational_derivative_identities,
    verify_hamiltonian_identity,
)
from .solver import History, Trajectory, residual_report, step_elsgolts, step_hamiltonian
from .recursion import (
    SumFormRelation,
    compare,
    recover_constants,
    recurse,
    relation_from_constants,
    relation_from_history,
)

__version__ = "0.1.0"

# every public function and class; the submodules stay out of `import *`
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)]
