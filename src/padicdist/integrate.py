"""Riemann sums of test functions against distributions, with exact records.

The depth-N Riemann sum samples each depth-N ball at its canonical
representative:

    S_N = sum over 0 <= a < p^N of f(a) * mu(a + (p^N)).

`integrate` records S_1..S_max_depth together with the p-adic norms of the
successive differences and classifies the tail behaviour.  Everything is an
exact Fraction; the verdict is a pure function of the recorded norms and the
test function's class.

On the family S (Haar, Mazur, Bernoulli(k) and Dirac, closed under
LinearComb and under Regularize over a form of degree 1) a level is a few
pieces, ranges of reps with an integer polynomial numerator (one for each
node's one polynomial form P(a, p^N) / (S p^N)), plus point masses
(`padicdist.distributions.level_pieces`), and S_N is summed in
closed form: Faulhaber's sums of powers for a polynomial, and whole periods
plus prefix tables for a step function, with no ball enumerated
(Washington, GTM 83, Ch. 12; Robert, GTM 198, Ch. 5).  Any other
expression is evaluated level by level.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, lcm
from operator import mul, sub
from typing import Mapping, Sequence, Union

from .core import (
    Record,
    as_rational,
    format_rational,
    int_keyed_table,
    is_int,
    norm,
    parse_rational,
    require_depth,
    require_prime,
    table_from_json,
)
from .distributions import (
    DistExpr,
    Pieces,
    _faulhaber,
    evaluate_shared,
    level_pieces,
    polynomial_values,
)
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
        table = int_keyed_table(self.values, "step values")
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

    f is put on one integer denominator, a step function of period
    L = len(values) only as far as its first min(L, p^depth) entries.  On
    the family S the level's pieces are summed in closed form, in
    O(pieces * degree^2) integer steps whatever p^depth is; any other
    expression's level is evaluated once as numerators over one
    denominator, and the sum is a dot product of ints: a polynomial's
    values come from `polynomial_values`, and a step function sums to
    sum_r v_r * (sum of num_a, a = r mod L).  Either way the budget counts
    (degree + 1) * p^depth for a polynomial, at least p^depth, and p^depth
    for a step function.
    """
    return _riemann_sums(expr, fn, prime, [require_depth(depth)], ball_budget)[0]


def _riemann_sums(
    expr: DistExpr, fn: TestFn, prime: int, depths: Sequence[int], ball_budget: int
) -> list[Fraction]:
    # `riemann_sum` at each depth; a polynomial's values grow with the depth,
    # and the moment tables of `_moments` with the degree of the pieces.
    require_prime(prime)
    step = isinstance(fn, StepFn)
    if step and len(fn.values) != prime**fn.depth:
        raise ValueError(f"step table has {len(fn.values)} entries, needs {prime}^{fn.depth}")
    terms = fn.values if step else fn.coeffs[::-1]
    passes = 1 if step else max(len(terms), 1)
    period = len(fn.values) if step else None
    sums, values, tables = [], [], []
    for depth in depths:
        require_budget(prime, depth, ball_budget, passes)
        if not sums:  # once the budget admits as many terms
            if step:  # no sum reads an entry past p^depths[-1], depths ascending
                terms = terms[: prime ** min(fn.depth, depths[-1])]
            scale = lcm(*(t.denominator for t in terms))
            ints = [t.numerator * (scale // t.denominator) for t in terms]
        form = level_pieces(expr, prime, depth)
        if form is not None:
            pieces, masses, den = form
            total = _piece_sum(pieces, masses, ints, period, tables)
        else:
            nums, den = evaluate_shared((expr,), prime, depth, range(prime**depth))[0]
            if step:
                total = sum(v * sum(nums[r::period]) for r, v in enumerate(ints[: len(nums)]))
            else:
                values += polynomial_values(ints, range(len(values), len(nums)))
                total = sum(map(mul, values, nums))
        sums.append(Fraction(total, scale * den))
    return sums


def _piece_sum(
    pieces: Pieces, masses: dict[int, int], ints: list[int], period: int | None, tables: list
) -> int:
    # The sum over the level of w(a) times the numerator, from its piece
    # form: w(a) is ints[a mod period] for a step function, and for a
    # polynomial (period None) the value of ints, leading term first.  A
    # piece sum_k c_k a^k on start..stop-1 adds sum_k c_k (M_k(stop) -
    # M_k(start)), M_k(N) = sum over 0 <= a < N of w(a) a^k, each end's M_k
    # found once.
    reps = list(masses)
    weights = polynomial_values(ints, reps) if period is None else [ints[r % period] for r in reps]
    total = sum(map(mul, masses.values(), weights))
    count = max(map(len, pieces.values()), default=0)
    at = {0: [0] * count}
    for run, coeffs in pieces.items():
        for end in run.start, run.stop:
            if end not in at:
                at[end] = _moments(ints, period, tables, end, count)
        total += sum(map(mul, coeffs, map(sub, at[run.stop], at[run.start])))
    return total


def _moments(ints: list[int], period: int | None, tables: list, stop: int, count: int) -> list[int]:
    # M_k(stop) for k < count, tables growing to count entries (D, c, R):
    # q times the polynomial c (leading term first) at q, over D, is the
    # sum of w(a) a^k over the first q whole periods of L reps, and R, for
    # a step function, holds the prefix sums of ints[c] c^k.  A polynomial
    # w counts as one period of 1 rep, so that q = stop.  With
    # stop = q L + r and a = t L + c, the whole periods sum
    # g_k(t) = sum_i C(k, i) L^i W_(k-i) t^i over t < q, W_j the total of
    # ints[c] c^j, and the last r reps add sum_j C(k, j) (q L)^(k-j) R_j(r).
    while len(tables) < count:
        k = len(tables)
        if period is None:
            tables.append((*_polynomial_moment(ints, k), None))
            continue
        prefix = list(accumulate(map(mul, ints, map(pow, range(len(ints)), repeat(k))), initial=0))
        totals = [t[2][-1] for t in tables] + [prefix[-1]]
        g = [comb(k, i) * period**i * totals[k - i] for i in range(k, -1, -1)]
        tables.append((*_polynomial_moment(g, 0), prefix))
    q, r = divmod(stop, period) if period else (stop, 0)
    moments = []
    for k, (d, c, prefix) in enumerate(tables[:count]):
        x = polynomial_values(c, [q])[0] * q // d
        if r:
            x += prefix[r]
            for j in range(k):
                x += comb(k, j) * (stop - r) ** (k - j) * tables[j][2][r]
        moments.append(x)
    return moments


def _polynomial_moment(ints: list[int], k: int) -> tuple[int, list[int]]:
    # (D, c): the sum over 0 <= a < N of w(a) a^k is N times the polynomial
    # c at N, over D, for w the polynomial ints; both leading term first.
    size = len(ints) + k
    d = lcm(*(_faulhaber(i + k)[0] for i in range(len(ints))))
    coeffs = [0] * size
    for i, x in enumerate(reversed(ints)):
        e, sums = _faulhaber(i + k)
        for t, y in enumerate(sums, size - len(sums)):
            coeffs[t] += x * (d // e) * y
    return d, coeffs


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
