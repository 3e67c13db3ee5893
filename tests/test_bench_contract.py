"""The names the benchmark's tracer wraps must exist where it looks for them.

bench/bench_trace.py lists padicdist functions, which it finds with getattr
on their module, and methods, which it takes from their class's own
__dict__: a method that moves to a base class, or a function that is
renamed, would break the traced benchmark run.  The tracer's source is only
read here, never imported from or written to.
"""

import importlib
from pathlib import Path

import pytest

TRACE_SOURCE = Path(__file__).resolve().parents[1] / "bench" / "bench_trace.py"


def _trace_tables():
    namespace = {"__name__": "bench_trace"}
    code = compile(TRACE_SOURCE.read_text(encoding="utf-8"), str(TRACE_SOURCE), "exec")
    exec(code, namespace)
    return namespace["FUNCTIONS"], namespace["METHODS"]


FUNCTIONS, METHODS = _trace_tables()


@pytest.mark.parametrize("module, attr", [f[:2] for f in FUNCTIONS], ids=[f[1] for f in FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "module, cls, meth", [m[:3] for m in METHODS], ids=[f"{m[1]}.{m[2]}" for m in METHODS]
)
def test_traced_method_is_defined_on_its_own_class(module, cls, meth):
    assert meth in vars(getattr(importlib.import_module(module), cls))
