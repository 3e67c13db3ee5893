"""Finite-depth verification of distribution laws, with exact reports.

Every checker enumerates balls in a fixed order (depth ascending, then
representative ascending) and compares exact rationals, so a report is a
pure function of its inputs: byte-identical across runs.  All of them
evaluate with `evaluate_level`, as integer numerators over one denominator,
and compare by cross-multiplying; a Fraction is built only for what a
report shows.  The checkers that cover whole levels (`check_relation`,
`norm_scan`) evaluate each depth once; `check_relation` compares a whole
level with one list comparison and goes ball by ball only through a level
that holds a violation.  The witness searches, which stop at the first
witness, scan each depth in consecutive rep ranges that double in length,
so the work before a witness stays within a small multiple of the balls up
to it.  Where a request raises, the searches request its balls again one at
a time, so they return the same witness or raise the same error as a
ball-by-ball search.

Enumeration size is guarded: a checker refuses to start when p^depth exceeds
its ball budget (default 10^6) and raises BallBudgetError instead of
thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add
from typing import Sequence

from .core import (
    Ball,
    Path,
    ball_to_json,
    format_rational,
    norm,
    path_to_json,
    require_prime,
)
from .distributions import (
    Branch,
    BoundednessFlag,
    DistExpr,
    boundedness_flag,
    evaluate_level,
)

DEFAULT_BALL_BUDGET = 10**6


class BallBudgetError(RuntimeError):
    """The requested depth would enumerate more balls than the budget allows."""


def require_budget(prime: int, depth: int, ball_budget: int) -> None:
    """Raise BallBudgetError when a depth-`depth` level exceeds the budget."""
    if prime**depth > ball_budget:
        raise BallBudgetError(
            f"refusing to enumerate {prime}^{depth} balls "
            f"(budget {ball_budget}); raise the ball budget to proceed"
        )


def _rows_to_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


# =====================================================================
# Additivity relation
# =====================================================================

@dataclass(frozen=True)
class RelationViolation:
    ball: Ball
    lhs: Fraction
    rhs_sum: Fraction


@dataclass(frozen=True)
class RelationReport:
    """Result of checking mu(B) = sum of mu over B's children, ball by ball.

    `checked_count` counts the parent balls examined: all balls of depth
    0..max_depth-1, compared against their depth+1 children.  Violations are
    listed in (depth, rep) order.
    """

    prime: int
    max_depth: int
    checked_count: int
    violations: tuple[RelationViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def _shown(
        self, max_violations: int | None
    ) -> tuple[tuple[RelationViolation, ...], bool]:
        # The violations to render, and whether some were left out.
        if max_violations is not None and max_violations < 0:
            raise ValueError(f"max_violations must be >= 0, got {max_violations}")
        if max_violations is None or len(self.violations) <= max_violations:
            return self.violations, False
        return self.violations[:max_violations], True

    def to_json_dict(self, max_violations: int | None = None) -> dict:
        shown, truncated = self._shown(max_violations)
        return {
            "prime": self.prime,
            "max_depth": self.max_depth,
            "checked_count": self.checked_count,
            "passed": self.passed,
            "total_violations": len(self.violations),
            "truncated": truncated,
            "violations": [
                {
                    "ball": ball_to_json(v.ball),
                    "lhs": format_rational(v.lhs),
                    "children_sum": format_rational(v.rhs_sum),
                }
                for v in shown
            ],
        }

    def to_text(self, max_violations: int | None = None) -> str:
        lines = [
            "additivity relation check",
            f"prime={self.prime} max_depth={self.max_depth} "
            f"balls_checked={self.checked_count} violations={len(self.violations)}",
        ]
        shown, truncated = self._shown(max_violations)
        if shown:
            rows = [
                [str(v.ball.depth), str(v.ball.rep), format_rational(v.lhs),
                 format_rational(v.rhs_sum)]
                for v in shown
            ]
            lines.append(_rows_to_text(("depth", "rep", "value", "children_sum"), rows))
        if truncated:
            lines.append(
                f"(truncated: showing {max_violations} of {len(self.violations)} violations)"
            )
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def check_relation(
    expr: DistExpr,
    prime: int,
    max_depth: int,
    *,
    ball_budget: int = DEFAULT_BALL_BUDGET,
) -> RelationReport:
    """Verify the additivity relation on every ball of depth < max_depth.

    Each level is evaluated once, serving first as the children of the
    level above and then as parents.  The children of a + (p^n) are
    a + b p^n + (p^(n+1)), b < p: entry a of the child level's p
    consecutive blocks of length p^n, which are added block to block.  A
    level is checked with one comparison of whole lists, parent numerators
    and children's sums brought to one denominator; only a level where the
    lists differ is gone through ball by ball to list its violations.
    """
    require_prime(prime)
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    require_budget(prime, max_depth, ball_budget)

    violations: list[RelationViolation] = []
    checked = 0
    nums, den = evaluate_level(expr, prime, 0)
    for n in range(max_depth):
        m = prime**n
        child_nums, child_den = evaluate_level(expr, prime, n + 1)
        sums = child_nums[:m]
        for b in range(1, prime):
            sums = list(map(add, sums, child_nums[b * m : (b + 1) * m]))
        if child_den % den == 0:
            f = child_den // den
            agree = [x * f for x in nums] == sums
        else:
            agree = [x * child_den for x in nums] == [y * den for y in sums]
        if not agree:
            for a, (lhs, rhs) in enumerate(zip(nums, sums)):
                if lhs * child_den != rhs * den:
                    violations.append(
                        RelationViolation(
                            Ball(prime, n, a), Fraction(lhs, den), Fraction(rhs, child_den)
                        )
                    )
        checked += m
        nums, den = child_nums, child_den
    return RelationReport(prime, max_depth, checked, tuple(violations))


# =====================================================================
# Graft precondition
# =====================================================================

@dataclass(frozen=True)
class OnPathFailure:
    level: int
    left_value: Fraction
    right_value: Fraction


@dataclass(frozen=True)
class TailSumFailure:
    level: int
    left_sum: Fraction
    right_sum: Fraction


@dataclass(frozen=True)
class GraftPreconditionReport:
    """Agreement checks that make a graft along a path additive.

    For each level n = 0..depth_checked, with P_n the ball spanned by the
    path's first n digits and i_n the path's next digit:

    * on-path agreement: left(P_n) = right(P_n); failures are recorded with
      both values;
    * tail sums: over the children of P_n, the sum of left - right taken
      over digits below i_n and over digits above i_n must each vanish;
      failures record both sums.

    Both lists empty means the graft of (left, right) along the path
    satisfies the additivity relation on every ball of depth <= depth_checked
    (off-path balls inherit it from whichever side they carry).  The two
    checks are independent: a pair can agree on the path and still fail a
    tail sum, and that failure is exactly an additivity violation at P_n.
    """

    prime: int
    path: Path
    depth_checked: int
    on_path_agreement: tuple[OnPathFailure, ...]
    tail_sum_failures: tuple[TailSumFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.on_path_agreement and not self.tail_sum_failures

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "path": path_to_json(self.path),
            "depth_checked": self.depth_checked,
            "passed": self.passed,
            "on_path_agreement": [
                {
                    "level": f.level,
                    "left": format_rational(f.left_value),
                    "right": format_rational(f.right_value),
                }
                for f in self.on_path_agreement
            ],
            "tail_sum_failures": [
                {
                    "level": f.level,
                    "left_sum": format_rational(f.left_sum),
                    "right_sum": format_rational(f.right_sum),
                }
                for f in self.tail_sum_failures
            ],
        }

    def to_text(self) -> str:
        lines = [
            "graft precondition check",
            f"prime={self.prime} depth_checked={self.depth_checked}",
            f"on-path agreement failures: {len(self.on_path_agreement)}",
        ]
        if self.on_path_agreement:
            rows = [
                [str(f.level), format_rational(f.left_value), format_rational(f.right_value)]
                for f in self.on_path_agreement
            ]
            lines.append(_rows_to_text(("level", "left", "right"), rows))
        lines.append(f"tail-sum failures: {len(self.tail_sum_failures)}")
        if self.tail_sum_failures:
            rows = [
                [str(f.level), format_rational(f.left_sum), format_rational(f.right_sum)]
                for f in self.tail_sum_failures
            ]
            lines.append(_rows_to_text(("level", "left_sum", "right_sum"), rows))
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def check_graft_precondition(
    left: DistExpr, right: DistExpr, path: Path, max_depth: int
) -> GraftPreconditionReport:
    """Check on-path agreement and tail sums at levels 0..max_depth.

    Balls are requested in the order a ball-by-ball check reads them: P_0,
    then at each level n the off-path children of P_n in digit order, and
    last, when n < max_depth, the on-path child P_(n+1), whose values the
    next level compares.  Each request is one `evaluate_level` call per
    side, as integer numerators over one denominator; see `_both` for how a
    faulty request is narrowed to the ball that fails.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    p = path.prime
    on_path: list[OnPathFailure] = []
    tails: list[TailSumFailure] = []
    rep = 0
    (lnums, ld), (rnums, rd) = _both(left, right, p, 0, [rep])
    for n in range(max_depth + 1):
        # The last ball of the previous request is P_n.
        lv, rv = lnums[-1], rnums[-1]
        if lv * rd != rv * ld:
            on_path.append(OnPathFailure(n, Fraction(lv, ld), Fraction(rv, rd)))
        i_n = path.digit(n)
        q = p**n
        balls = [rep + b * q for b in range(p) if b != i_n]
        rep += i_n * q
        if n < max_depth:
            balls.append(rep)
        (lnums, ld), (rnums, rd) = _both(left, right, p, n + 1, balls)
        diffs = [x * rd - y * ld for x, y in zip(lnums[: p - 1], rnums)]
        below, above = sum(diffs[:i_n]), sum(diffs[i_n:])
        if below or above:
            den = ld * rd
            tails.append(TailSumFailure(n, Fraction(below, den), Fraction(above, den)))
    return GraftPreconditionReport(p, path, max_depth, tuple(on_path), tuple(tails))


def _both(
    first: DistExpr, second: DistExpr, p: int, n: int, reps: Sequence[int]
) -> tuple[tuple[list[int], int], tuple[list[int], int]]:
    """Values of both sides on the balls r + (p^n), r in reps, in order.

    One `evaluate_level` call per side, first side before second.  If that
    raises, the balls are requested again one at a time, first side before
    second, so the error raised is the one a ball-by-ball check meets first.
    """
    try:
        return evaluate_level(first, p, n, reps), evaluate_level(second, p, n, reps)
    except (ValueError, TypeError):
        for r in reps:
            evaluate_level(first, p, n, [r])
            evaluate_level(second, p, n, [r])
        raise


# =====================================================================
# Branch hypothesis and distinctness witnesses
# =====================================================================

@dataclass(frozen=True)
class BranchWitness:
    t: int
    s: int
    ball: Ball

    def to_json_dict(self) -> dict:
        return {"t": self.t, "s": self.s, "ball": ball_to_json(self.ball)}


def check_branch_hypothesis(
    children: Sequence[DistExpr] | Branch,
    prime: int,
    k: int,
    search_depth: int,
    *,
    ball_budget: int = DEFAULT_BALL_BUDGET,
) -> BranchWitness | None:
    """Search for a ball of depth >= k separating two branch children.

    Returns the lexicographically first witness (t, s, ball) with t < s,
    balls ordered by depth then representative, or None when no two children
    differ on any ball of depth k..search_depth.  A None result means "no
    witness up to search_depth", never that the children coincide.

    The first witness always has t = 0: if children t and s differ on a
    ball, child 0 differs there from at least one of them.  So only child 0
    is compared, against s = 1, 2, ... in turn, skipping children
    structurally equal to it (they evaluate identically), and the work is
    linear in the number of children.
    """
    require_prime(prime)
    if isinstance(children, Branch):
        k = children.k
        children = children.children
    if k < 1:
        raise ValueError("k must be >= 1")
    if search_depth < k:
        raise ValueError("search_depth must be >= k")
    table = tuple(children)
    if len(table) != prime**k:
        raise ValueError(f"need {prime**k} children for p={prime}, k={k}, got {len(table)}")
    require_budget(prime, search_depth, ball_budget)
    for s in range(1, len(table)):
        if table[0] == table[s]:
            continue
        ball = _first_difference(table[0], table[s], prime, k, search_depth)
        if ball is not None:
            return BranchWitness(0, s, ball)
    return None


def distinctness_witness(
    first: DistExpr,
    second: DistExpr,
    prime: int,
    max_depth: int,
    *,
    ball_budget: int = DEFAULT_BALL_BUDGET,
) -> Ball | None:
    """First ball (by depth, then rep) where the two evaluations differ.

    None means no differing ball up to max_depth, not that the distributions
    are equal.
    """
    require_prime(prime)
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    require_budget(prime, max_depth, ball_budget)
    return _first_difference(first, second, prime, 0, max_depth)


def _first_difference(
    first: DistExpr, second: DistExpr, p: int, lo: int, hi: int
) -> Ball | None:
    """First ball of depth lo..hi, by depth then rep, where the two differ.

    Depth n is scanned in consecutive rep ranges: the first holds p^(n-1)
    reps, each later one as many as the level has scanned so far.  The
    range holding the first differing rep r is no longer than
    max(r, p^(n-1)), so from lo = 0 the search evaluates fewer than twice
    the balls a ball-by-ball search visits, whatever p is.  A range that
    raises is scanned again one rep at a time, which returns a witness
    before its first faulty ball or raises what that ball raises.
    """
    for n in range(lo, hi + 1):
        m = p**n
        start, stop = 0, max(1, m // p)
        while start < m:
            reps = range(start, stop)
            try:
                r = _first_differing(first, second, p, n, reps)
            except (ValueError, TypeError):
                alone = (r for r in reps if _first_differing(first, second, p, n, [r]) is not None)
                r = next(alone, None)
            if r is not None:
                return Ball(p, n, r)
            start, stop = stop, min(2 * stop, m)
    return None


def _first_differing(
    first: DistExpr, second: DistExpr, p: int, n: int, reps: Sequence[int]
) -> int | None:
    # The first rep in reps where the two differ; the first side is evaluated first.
    (xs, dx), (ys, dy) = evaluate_level(first, p, n, reps), evaluate_level(second, p, n, reps)
    return next((r for r, x, y in zip(reps, xs, ys) if x * dy != y * dx), None)


# =====================================================================
# Norm scans and boundedness
# =====================================================================

@dataclass(frozen=True)
class NormScanEntry:
    depth: int
    max_norm: Fraction
    argmax: Ball


@dataclass(frozen=True)
class NormScanReport:
    """Per-depth maxima of |value|_p with the first ball attaining each."""

    prime: int
    max_depth: int
    entries: tuple[NormScanEntry, ...]

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "max_depth": self.max_depth,
            "entries": [
                {
                    "depth": e.depth,
                    "max_norm": format_rational(e.max_norm),
                    "argmax": ball_to_json(e.argmax),
                }
                for e in self.entries
            ],
        }

    def to_csv(self) -> str:
        lines = ["depth,max_norm,argmax_a"]
        for e in self.entries:
            lines.append(f"{e.depth},{format_rational(e.max_norm)},{e.argmax.rep}")
        return "\n".join(lines)

    def to_text(self) -> str:
        rows = [
            [str(e.depth), format_rational(e.max_norm), str(e.argmax.rep)]
            for e in self.entries
        ]
        return "\n".join(
            [
                "norm scan",
                f"prime={self.prime} max_depth={self.max_depth}",
                _rows_to_text(("depth", "max_norm", "argmax_a"), rows),
            ]
        )


def norm_scan(
    expr: DistExpr,
    prime: int,
    max_depth: int,
    *,
    ball_budget: int = DEFAULT_BALL_BUDGET,
) -> NormScanReport:
    """Exact per-depth maxima of |value|_p over all balls of depth 0..max_depth.

    Over one common denominator the largest norm belongs to the numerator of
    least p-adic valuation, which is the valuation of their gcd; the first
    rep attaining it is the argmax (rep 0 when the whole level is zero).
    """
    require_prime(prime)
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    require_budget(prime, max_depth, ball_budget)
    entries: list[NormScanEntry] = []
    for n in range(max_depth + 1):
        nums, den = evaluate_level(expr, prime, n)
        best_rep = 0
        common = gcd(*nums)
        if common:
            step = prime
            while common % step == 0:
                step *= prime
            best_rep = next(r for r, x in enumerate(nums) if x % step)
        value = Fraction(nums[best_rep], den)
        entries.append(NormScanEntry(n, norm(value, prime), Ball(prime, n, best_rep)))
    return NormScanReport(prime, max_depth, tuple(entries))


@dataclass(frozen=True)
class BoundednessVerdict:
    """A syntactic flag next to an empirical scan, with any discrepancy noted.

    The note never overrides the flag; it flags a flag/scan disagreement for
    a human: a bounded flag with maxima growing across the last three depths,
    or an unbounded flag with maxima constant across the whole scan.
    """

    flag: BoundednessFlag
    scan: NormScanReport
    note: str | None

    def to_json_dict(self) -> dict:
        return {
            "flag": self.flag.value,
            "scan": self.scan.to_json_dict(),
            "note": self.note,
        }


def boundedness_verdict(
    expr: DistExpr,
    prime: int,
    max_depth: int,
    *,
    ball_budget: int = DEFAULT_BALL_BUDGET,
) -> BoundednessVerdict:
    """Pair boundedness_flag(expr) with a norm scan to max_depth."""
    flag = boundedness_flag(expr)
    scan = norm_scan(expr, prime, max_depth, ball_budget=ball_budget)
    maxima = [e.max_norm for e in scan.entries]
    note = None
    if (
        flag is BoundednessFlag.BOUNDED
        and len(maxima) >= 3
        and maxima[-3] < maxima[-2] < maxima[-1]
    ):
        note = "flag says bounded but per-depth maxima grow across the last three depths"
    elif flag is BoundednessFlag.UNBOUNDED and len(set(maxima)) == 1:
        note = "flag says unbounded but per-depth maxima are constant over the scanned depths"
    return BoundednessVerdict(flag, scan, note)
