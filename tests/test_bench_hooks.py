"""The benchmark tracer's hooks resolve on the package.

bench/tracing.py wraps each (module, function) pair of its TRACED tuple,
looked up by name on the loaded lieweights modules; a pair that no longer
resolves makes `bench/run.py --trace 1` fail.  This catches that here.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_pairs() -> tuple[tuple[str, str], ...]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED tuple")


def test_traced_functions_resolve():
    pairs = _traced_pairs()
    assert pairs
    missing = [
        f"{module}.{name}"
        for module, name in pairs
        if not callable(getattr(importlib.import_module(f"lieweights.{module}"), name, None))
    ]
    assert not missing, f"traced functions missing from lieweights: {missing}"
