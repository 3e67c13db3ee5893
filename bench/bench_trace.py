"""Spans and counts for the benchmark's traced run, taken from outside padicdist.

`Tracer.install` replaces each traced public function at every module
binding that refers to it: `padicdist.distributions.evaluate` (so its own
recursive calls are seen), the copy imported as `padicdist.verify.evaluate`,
the package-level re-export, and so on.  Methods are wrapped on their class
(`Ball.__post_init__`, the report renderers), and `Fraction.__new__` is
wrapped to count rational values created (`arith.fraction_new`).

Every wrapped call is a span with a name, a start, an end and the id of its
parent span.  A span's self time is its duration minus the time its child
spans cover; it is computed on the call stack as each span closes, so the
per-name totals need no span log.  A scalar check makes millions of nested
calls, so only the spans within `KEEP_DEPTH` levels of the root stay in
memory whole; the benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from fractions import Fraction

perf = time.perf_counter

RENDER = "cli.render"
# Spans this close to the root are kept whole (a job and the layer calls
# under it); deeper ones only add to the per-name totals.
KEEP_DEPTH = 3
KEEP_MAX = 100_000

# (module, attribute, span name, name spans by the type of the first argument)
FUNCTIONS = (
    ("padicdist.core", "require_prime", "core.require_prime", False),
    ("padicdist.core", "ball_make", "core.ball_make", False),
    ("padicdist.core", "point_to_path", "core.point_to_path", False),
    ("padicdist.core", "norm", "core.norm", False),
    ("padicdist.distributions", "evaluate", "distributions.evaluate", True),
    ("padicdist.distributions", "bernoulli_polynomial", "distributions.bernoulli_polynomial", False),
    ("padicdist.verify", "check_relation", "verify.check_relation", False),
    ("padicdist.verify", "norm_scan", "verify.norm_scan", False),
    ("padicdist.verify", "check_graft_precondition", "verify.check_graft_precondition", False),
    ("padicdist.verify", "check_branch_hypothesis", "verify.check_branch_hypothesis", False),
    ("padicdist.verify", "distinctness_witness", "verify.distinctness_witness", False),
    ("padicdist.integrate", "riemann_sum", "integrate.riemann_sum", False),
    ("padicdist.serialize", "load_document", "serialize.load_document", False),
    ("padicdist.serialize", "expr_to_json", "serialize.expr_to_json", False),
    ("padicdist.cli", "main", "cli.main", False),
    ("padicdist.cli", "_emit_json", RENDER, False),
)

# (module, class, method, span name)
METHODS = (
    ("padicdist.core", "Ball", "__post_init__", "core.Ball"),
    ("padicdist.verify", "RelationReport", "to_text", RENDER),
    ("padicdist.verify", "RelationReport", "to_json_dict", RENDER),
    ("padicdist.verify", "GraftPreconditionReport", "to_text", RENDER),
    ("padicdist.verify", "GraftPreconditionReport", "to_json_dict", RENDER),
    ("padicdist.verify", "NormScanReport", "to_text", RENDER),
    ("padicdist.verify", "NormScanReport", "to_json_dict", RENDER),
    ("padicdist.verify", "NormScanReport", "to_csv", RENDER),
    ("padicdist.verify", "BoundednessVerdict", "to_json_dict", RENDER),
    ("padicdist.verify", "BranchWitness", "to_json_dict", RENDER),
    ("padicdist.integrate", "IntegrationReport", "to_text", RENDER),
    ("padicdist.integrate", "IntegrationReport", "to_json_dict", RENDER),
)


class Tracer:
    """Per-name call counts and self times, plus the shallow spans."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._undo: list = []

    # ---- spans ----------------------------------------------------------

    def _wrap(self, fn, name, per_type):
        calls, self_s, stack, spans, ids = self.calls, self.self_s, self._stack, self.spans, self._ids
        typed: dict[type, str] = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name
            if per_type:
                cls = type(args[0])
                key = typed.get(cls)
                if key is None:
                    key = typed[cls] = f"{name}.{cls.__name__}"
            calls[key] += 1
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self_s[key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(stack) < KEEP_DEPTH and len(spans) < KEEP_MAX:
                    spans.append((frame[0], key, t0, t1, parent))

        return wrapper

    def run_in_span(self, name, fn, *args):
        """Call fn(*args) inside a span opened by the benchmark, e.g. one job."""
        return self._wrap(fn, name, False)(*args)

    # ---- installation ---------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every padicdist module binding of `original` at `replacement`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "padicdist" or modname.startswith("padicdist.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        for modname, attr, name, per_type in FUNCTIONS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            original = getattr(module, attr)
            self._rebind(original, self._wrap(original, name, per_type))
        for modname, clsname, meth, name in METHODS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            cls = getattr(module, clsname)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(original, name, False))
            self._undo.append((cls, meth, original))
        self._count_fractions()

    def _count_fractions(self) -> None:
        original = Fraction.__dict__["__new__"]
        new = original.__func__
        calls = self.calls

        def counting_new(cls, *args, **kwargs):
            calls["arith.fraction_new"] += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        self._undo.append((Fraction, "__new__", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s)}
