"""Library code that only tests call belongs in the tests, not in `src/`.

A module-level function or class, or a method that is neither a dunder nor a
property, must be named somewhere in `src/delayham` outside its own
definition (a method as `.name`).  A module-level definition may instead be
exported by `delayham.__all__` or be a `bench/tracing.py` target; a method
of the same name as one is not exempt.  Reference helpers the tests need live in
`tests/conftest.py` or in the one test module that uses them.
"""

import ast
import pathlib
import re
import types

import delayham

from test_bench_tracing import _load_tracing

SRC = pathlib.Path(delayham.__file__).resolve().parent


def _is_property(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def _definitions(tree: ast.Module):
    """(node, search pattern) for every definition the rule covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, rf"\b{node.name}\b"
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if (
                    isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (method.name.startswith("__") and method.name.endswith("__"))
                    and not _is_property(method)
                ):
                    yield method, rf"\.{method.name}\b"


def test_every_library_definition_has_a_caller_outside_the_tests():
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    kept = set(delayham.__all__) | {attr for _, attr, *_ in _load_tracing().TARGETS}
    unused = []
    for path, text in sources.items():
        lines = text.splitlines()
        tree = ast.parse(text)
        for node, pattern in _definitions(tree):
            if node in tree.body and node.name in kept:
                continue
            outside = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
            others = [t for p, t in sources.items() if p != path] + [outside]
            if not any(re.search(pattern, t) for t in others):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "defined in src/ but called only by tests: " + ", ".join(unused)


def test_the_package_exports_functions_and_classes_but_no_module():
    exported = [getattr(delayham, name) for name in delayham.__all__]
    assert not [x for x in exported if isinstance(x, types.ModuleType)]
    assert all(callable(x) for x in exported)
    assert {"parse", "partial", "step_hamiltonian", "DelayHamiltonian", "Expr"} <= set(delayham.__all__)
