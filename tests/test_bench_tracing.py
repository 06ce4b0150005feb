"""`bench/tracing.py` reaches into the library by name; a library rename must
fail here rather than break a traced benchmark run (`bench/run.py --trace 1`)."""

import importlib
import importlib.util
import pathlib

import delayham.cli  # noqa: F401  (imports every module the tracer wraps)
from delayham import expr as E

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("delayham_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_and_caches_resolve_in_the_library():
    tracing = _load_tracing()
    for module, attr, *_ in tracing.TARGETS:
        fn = getattr(importlib.import_module(f"delayham.{module}"), attr, None)
        assert callable(fn), f"delayham.{module}.{attr}"
    tracer = tracing.Tracer()  # builds its patches without installing them
    caches = {
        "intern": "_INTERN",
        "partial": "_PARTIAL_CACHE",
        "total": "_TOTAL_CACHE",
        "compile": "_COMPILE_CACHE",
        "symbols": "_SYMBOLS_CACHE",
    }
    assert set(tracer.caches) == set(caches)
    for name, attr in caches.items():
        assert tracer.caches[name] is getattr(E, attr), attr
    # a traced `compiled` call counts as a miss when this key is absent
    e = E.parse("q*qm + sin(t)")
    E.compiled(e, with_magnitude=True)
    assert (id(e), True) in E._COMPILE_CACHE
