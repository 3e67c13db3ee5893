"""Riemann sums of test functions against distributions, with exact records.

The depth-N Riemann sum samples each depth-N ball at its canonical
representative:

    S_N = sum over 0 <= a < p^N of f(a) * mu(a + (p^N)).

`integrate` records S_1..S_max_depth together with the p-adic norms of the
successive differences and classifies the tail behaviour.  Everything is an
exact Fraction; the verdict is a pure function of the recorded norms and the
test function's class.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .core import (
    Record,
    as_rational,
    format_rational,
    is_int,
    norm,
    parse_rational,
    require_depth,
    require_prime,
    table_from_json,
)
from .distributions import DistExpr, evaluate_shared
from .verify import DEFAULT_BALL_BUDGET, report_text, require_budget


# =====================================================================
# Test functions
# =====================================================================

class Polynomial(Record):
    """Dense rational polynomial, coefficients from degree 0 upward."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(as_rational(c) for c in self.coeffs))

    @classmethod
    def from_terms(cls, terms: Mapping[int, Fraction]) -> "Polynomial":
        """The polynomial with coefficient terms[j] on x^j, 0 where absent."""
        return cls(tuple(terms.get(j, 0) for j in range(max(terms) + 1)))

    def value_at(self, x: Fraction | int) -> Fraction:
        t = as_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


class StepFn(Record):
    """Locally constant function determined by the first `depth` digits.

    `values[r]` is the value on the cell r + (p^depth); the table must be
    total, i.e. have length p^depth (checked where the prime is known).  A
    dict with keys exactly 0..len-1 is accepted and normalized.
    """

    depth: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not is_int(self.depth) or self.depth < 0:
            raise ValueError(f"step depth must be an integer >= 0, got {self.depth!r}")
        table = self.values
        if isinstance(table, Mapping):
            if sorted(table) != list(range(len(table))):
                raise ValueError("step values keys must be exactly 0..len-1")
            table = tuple(table[i] for i in range(len(table)))
        object.__setattr__(self, "values", tuple(as_rational(v) for v in table))
        if not self.values:
            raise ValueError("step table must be nonempty")

    def value_at(self, x: Fraction | int) -> Fraction:
        t = as_rational(x)
        if t.denominator != 1:
            raise ValueError("step functions are sampled at integer representatives")
        return self.values[t.numerator % len(self.values)]


TestFn = Union[Polynomial, StepFn]


# =====================================================================
# Sums, reports, verdicts
# =====================================================================

def riemann_sum(
    expr: DistExpr,
    fn: TestFn,
    prime: int,
    depth: int,
    *,
    ball_budget: int = DEFAULT_BALL_BUDGET,
) -> Fraction:
    """S_depth = sum of f(a) * mu(a + (p^depth)) over canonical reps a.

    The level is evaluated once as numerators over one denominator.  A
    polynomial sum is sum_j c_j * (sum_a a^j * num_a), one pass per
    coefficient, so the budget counts (degree + 1) * p^depth; a step
    function of period L = len(values) sums to sum_r v_r * (sum of num_a,
    a = r mod L).  The denominator is divided out once at the end.
    """
    return _riemann_sums(expr, fn, prime, [require_depth(depth)], ball_budget)[0]


def _riemann_sums(
    expr: DistExpr, fn: TestFn, prime: int, depths: Sequence[int], ball_budget: int
) -> list[Fraction]:
    # `riemann_sum` at each depth.
    require_prime(prime)
    if isinstance(fn, StepFn) and len(fn.values) != prime**fn.depth:
        raise ValueError(f"step table has {len(fn.values)} entries, needs {prime}^{fn.depth}")
    passes = len(fn.coeffs) if isinstance(fn, Polynomial) else 1
    sums = []
    for depth in depths:
        require_budget(prime, depth, ball_budget, passes)
        nums, den = evaluate_shared((expr,), prime, depth, range(prime**depth))[0]
        total = Fraction(0)
        if isinstance(fn, StepFn):
            period = len(fn.values)
            for r, v in enumerate(fn.values):
                total += v * sum(nums[r::period])
        else:
            weighted = nums
            for j, c in enumerate(fn.coeffs):
                if j:
                    weighted = [w * a for a, w in enumerate(weighted)]
                total += c * sum(weighted)
        sums.append(total / den)
    return sums


class ConvergenceVerdict(Enum):
    CONVERGED_EXACTLY = "converged-exactly"
    NORM_DECREASING = "norm-decreasing"
    DIVERGING = "diverging"
    INCONCLUSIVE = "inconclusive"


def classify_tail(fn: TestFn, diff_norms: list[Fraction]) -> ConvergenceVerdict:
    """Classify the recorded |S_(m+1) - S_m|_p sequence.

    converged-exactly: the differences vanish from depth m on and the test
    function is a step function constant at that depth (f.depth <= m), so
    every later sum is literally the same rational.
    norm-decreasing: the norms never increase and strictly drop overall.
    diverging: the norms grow strictly across the final three recorded steps.
    inconclusive: anything else.
    """
    if isinstance(fn, StepFn) and fn.depth <= len(diff_norms):
        start = max(fn.depth - 1, 0)
        if all(d == 0 for d in diff_norms[start:]):
            return ConvergenceVerdict.CONVERGED_EXACTLY
    if (
        len(diff_norms) >= 2
        and all(b <= a for a, b in zip(diff_norms, diff_norms[1:]))
        and diff_norms[-1] < diff_norms[0]
    ):
        return ConvergenceVerdict.NORM_DECREASING
    if len(diff_norms) >= 3 and diff_norms[-3] < diff_norms[-2] < diff_norms[-1]:
        return ConvergenceVerdict.DIVERGING
    return ConvergenceVerdict.INCONCLUSIVE


class IntegrationReport(Record):
    """Partial sums S_1..S_max_depth, successive-difference norms, verdict."""

    prime: int
    max_depth: int
    partial_sums: tuple[Fraction, ...]
    diff_norms: tuple[Fraction, ...]
    verdict: ConvergenceVerdict

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "max_depth": self.max_depth,
            "partial_sums": [format_rational(s) for s in self.partial_sums],
            "diff_norms": [format_rational(d) for d in self.diff_norms],
            "verdict": self.verdict.value,
        }

    def to_text(self) -> str:
        sums = [f"S_{i} = {format_rational(s)}" for i, s in enumerate(self.partial_sums, start=1)]
        # From S_2 on, a sum is followed by the norm of its difference from the last.
        for i, d in enumerate(self.diff_norms, start=1):
            sums[i] += f"  |diff|_p = {format_rational(d)}"
        return report_text(
            "riemann sums",
            {"prime": self.prime, "max_depth": self.max_depth},
            *sums,
            f"verdict: {self.verdict.value}",
        )


def integrate(
    expr: DistExpr,
    fn: TestFn,
    prime: int,
    max_depth: int,
    *,
    ball_budget: int = DEFAULT_BALL_BUDGET,
) -> IntegrationReport:
    """Record S_1..S_max_depth and classify the difference-norm tail."""
    require_depth(max_depth, "max_depth", 2)
    sums = _riemann_sums(expr, fn, prime, range(1, max_depth + 1), ball_budget)
    diffs = [norm(b - a, prime) for a, b in zip(sums, sums[1:])]
    return IntegrationReport(
        prime, max_depth, tuple(sums), tuple(diffs), classify_tail(fn, diffs)
    )


# =====================================================================
# Plain-text / JSON forms for the CLI
# =====================================================================

# ASCII digits only (\d also takes other scripts' digits); no zero denominator.
_TERM_RE = re.compile(
    r"^(?P<coef>[0-9]+(?:/[1-9][0-9]*)?)?(?P<star>\*)?(?P<var>x(?:\^(?P<power>[0-9]+))?)?$"
)


def parse_polynomial(text: str) -> Polynomial:
    """Parse "c0 + c1*x + c2*x^2" style syntax with rational coefficients."""
    return Polynomial.from_terms(parse_polynomial_terms(text))


def parse_polynomial_terms(text: str) -> dict[int, Fraction]:
    """The coefficients of parse_polynomial's input by power, without the
    dense tuple: its degree can be checked against a budget first."""
    squeezed = text.replace(" ", "")
    if not squeezed or squeezed[-1] in "+-":
        raise ValueError(f"not a polynomial: {text!r}")
    coeffs: dict[int, Fraction] = {}
    for term in re.findall(r"[+-]?[^+-]+", squeezed):
        sign = 1
        if term[0] in "+-":
            sign = -1 if term[0] == "-" else 1
            term = term[1:]
        match = _TERM_RE.match(term)
        if not match or (not match.group("coef") and not match.group("var")):
            raise ValueError(f"bad polynomial term {term!r}")
        if match.group("star") and not (match.group("coef") and match.group("var")):
            raise ValueError(f"bad polynomial term {term!r}")
        coef = sign * Fraction(match.group("coef") or 1)
        power = 0
        if match.group("var"):
            power = int(match.group("power") or 1)
        coeffs[power] = coeffs.get(power, Fraction(0)) + coef
    return coeffs


def step_fn_from_json(obj: dict) -> StepFn:
    """Decode {"depth": d, "values": {"0": "1/2", ...}} into a StepFn."""
    if not isinstance(obj, dict) or set(obj) != {"depth", "values"}:
        raise ValueError("a step function needs exactly 'depth' and 'values'")
    entries = table_from_json(obj["values"], "step values")
    try:
        values = tuple(parse_rational(v) for v in entries)
    except ValueError as exc:
        raise ValueError(f"bad step table: {exc}") from None
    return StepFn(obj["depth"], values)
