"""Finite-depth verification of distribution laws, with exact reports.

Every checker reads balls in a fixed order (depth ascending, then
representative ascending) and compares exact rationals, so a report is a
pure function of its inputs: byte-identical across runs.  `check_relation`
proves the pairs of levels that the constructions' lemmas make additive,
and `norm_scan` reads a level of the family S from its pieces, visiting no
ball; otherwise a checker requests values with `evaluate_shared`,
as integer numerators over one denominator; it evaluates a sub-expression
held in several places (equal ones are one object) once per request, so a
request costs the distinct sub-expressions times its balls, however often
a spec's defs are used.  Values are compared by cross-multiplying, and a
Fraction is built only for what a report shows.
The checkers that cover whole levels (`check_relation`, `norm_scan`)
request each depth once; `check_relation` lists no level of a proved
expression, and compares a listed level whole, going ball by ball only
through one that holds a violation.  The searches that
stop at the first witness scan each depth in consecutive step-1 rep
ranges that double in length, which the kernels serve by residue classes
and slices as they do a whole level, so the work before a witness stays
within a small multiple of the balls up to it.  A request that raises
raises the error of its first failing ball; a search then scans that range
one ball at a time, so it returns the same witness or raises the same
error as a ball-by-ball search.

Enumeration size is guarded: a checker refuses to start when p^depth exceeds
its ball budget (default 10^6), on S too, and raises BallBudgetError instead
of thrashing.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add
from typing import Iterator, Sequence

from .core import (
    Ball,
    Path,
    Record,
    ball_to_json,
    format_rational,
    norm,
    path_to_json,
    path_to_point,
    require_depth,
    require_prime,
    valuation,
)
from .distributions import (
    Branch,
    BoundednessFlag,
    Dirac,
    DistExpr,
    LinearComb,
    Regularize,
    Restrict,
    _add_form,
    _at,
    _branch_table_size,
    _dirac_rep,
    _faulhaber,
    _parts,
    _piecewise,
    _regularize_factors,
    _scaled,
    _walk,
    boundedness_flag,
    count_held,
    disjoint_runs,
    evaluate_shared,
    level_pieces,
    polynomial_values,
)

DEFAULT_BALL_BUDGET = 10**6
_RAISE = "raise the ball budget to proceed"


class BallBudgetError(RuntimeError):
    """The requested depth would enumerate more balls than the budget allows."""


def require_budget(prime: int, depth: int, ball_budget: int, per_ball: int = 1) -> None:
    """Raise BallBudgetError when per_ball * p^depth exceeds the budget.

    per_ball >= 1 counts the passes a caller makes over each ball of the
    level, such as the degree + 1 terms of a polynomial Riemann sum.  A
    depth of at least the budget's bit length is refused before p^depth
    >= 2^depth is raised, so the refusal is immediate at any depth.
    """
    if depth >= ball_budget.bit_length() or per_ball * prime**depth > ball_budget:
        work = f"{prime}^{depth} balls"
        if per_ball != 1:
            work = f"{per_ball} terms on each of {work}"
        raise BallBudgetError(f"refusing to enumerate {work} (budget {ball_budget}); {_RAISE}")


def report_text(title: str, fields: dict, *body: str | tuple | None) -> str:
    """The text of every report: its title, its fields as one line of
    key=value pairs, then its body in order, which ends with the report's
    result: or verdict: line when it has one.

    A str in the body is a line, and a (header, rows) pair is a table of
    left-aligned headings over right-aligned cells, each cell printed as
    str() prints it.  A None, and a table with no rows, are left out.
    """
    lines = [title, " ".join(f"{key}={value}" for key, value in fields.items())]
    for part in body:
        if isinstance(part, str):
            lines.append(part)
        elif part and part[1]:
            header, rows = part[0], [list(map(str, row)) for row in part[1]]
            widths = [max(map(len, column)) for column in zip(header, *rows)]
            lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
            lines.extend("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows)
    return "\n".join(lines)


# =====================================================================
# Additivity relation
# =====================================================================

class RelationViolation(Record):
    ball: Ball
    lhs: Fraction
    rhs_sum: Fraction


class RelationReport(Record):
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
        shown = self.violations[:max_violations]
        return shown, len(shown) < len(self.violations)

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
        shown, truncated = self._shown(max_violations)
        rows = [
            [v.ball.depth, v.ball.rep, format_rational(v.lhs), format_rational(v.rhs_sum)]
            for v in shown
        ]
        total = len(self.violations)
        return report_text(
            "additivity relation check",
            {"prime": self.prime, "max_depth": self.max_depth,
             "balls_checked": self.checked_count, "violations": total},
            (("depth", "rep", "value", "children_sum"), rows),
            f"(truncated: showing {max_violations} of {total} violations)" if truncated else None,
            "result: " + ("PASS" if self.passed else "FAIL"),
        )


def check_relation(
    expr: DistExpr,
    prime: int,
    max_depth: int,
    *,
    ball_budget: int = DEFAULT_BALL_BUDGET,
) -> RelationReport:
    """Verify the additivity relation on every ball of depth < max_depth.

    Each construction but a Graft is additive by a lemma, so `_proved`
    checks each distinct node once, on its own: a form its polynomial
    identity, which covers the terms folded into it, and any other node
    its own condition.  When all pass, no level is listed; else every pair
    is, each level once: the children of a + (p^n) are entry a of the
    child level's p blocks of length p^n, added block to block, and
    compared with the parents as whole levels over one denominator; only
    a level where they differ is gone through ball by ball.  Every error
    the predicate raises is the same at every depth, and listing depth 0
    meets it, so the report and any error raised do not depend on whether
    the expression is proved.
    """
    require_prime(prime)
    require_depth(max_depth, "max_depth", 1)
    require_budget(prime, max_depth, ball_budget)

    violations: list[RelationViolation] = []
    level = None  # the parent level, read as the child level of the pair above
    for n in range(0 if _proved(expr, prime, max_depth) else max_depth):
        m = prime**n
        nums, den = level or evaluate_shared((expr,), prime, n, range(m))[0]
        level = evaluate_shared((expr,), prime, n + 1, range(m * prime))[0]
        sums = _block_sums(level[0], m, prime)
        for a in _differing(nums, den, sums, level[1]):
            violations.append(
                RelationViolation(
                    Ball(prime, n, a), Fraction(nums[a], den), Fraction(sums[a], level[1])
                )
            )
    checked = (prime**max_depth - 1) // (prime - 1)
    return RelationReport(prime, max_depth, checked, tuple(violations))


def _block_sums(nums: Sequence[int], m: int, p: int) -> list[int]:
    # The sum of the p blocks of length m of nums, entry by entry.
    sums = nums[:m]
    for b in range(1, p):
        sums = list(map(add, sums, nums[b * m : (b + 1) * m]))
    return sums


def _proved(expr: DistExpr, p: int, max_depth: int) -> bool:
    # Whether every pair of levels of expr is additive, each distinct node
    # by its construction's lemma (`_holds`), once; a check that raises fails.
    try:
        return all(_holds(e, p, max_depth) for e in _walk([expr]))
    except (ValueError, TypeError):
        return False


def _holds(e: DistExpr, p: int, max_depth: int) -> bool:
    # Whether e keeps additivity from its parts.  A form (S, P) of degree d
    # holds at m = p^n iff the sum over b < p of P(a + b m, p m) is p P(a, m)
    # in Z[a]; each coefficient in a is of degree <= d in m, so d + 1 depths
    # prove every depth.  A unit maps the children of a ball onto those of
    # its image.  Below its cell's depth a Restrict's one child that meets
    # the cell carries its value, and below its level a Branch is defined
    # as sums.  A Graft, a Restrict over another prime and a node whose
    # fields hold a non-node, which `_kids` leaves out, answer no.  Each
    # check that raises is one that evaluating any level makes.
    t, form = type(e), getattr(e, "_form", None)
    if form is not None:
        poly = form[1]
        return all(
            _block_sum(_at(poly, p ** (n + 1)), p**n, p) == [p * c for c in _at(poly, p**n)]
            for n in range(min(len(poly), max_depth))
        )
    if t is Dirac:
        _dirac_rep(e, p, 1)
        return True
    if t is Regularize:
        _regularize_factors(e, p, 1)
    elif t is Branch:
        _branch_table_size(e, p)
    elif t is not LinearComb and not (t is Restrict and e.cell.prime == p):
        return False
    return len(e._kids) == len(_parts(e)[1])


def _block_sum(coeffs: list[int], m: int, p: int) -> list[int]:
    # sum over b < p of coeffs at a + b m, lowest degree first: c_i
    # (a + b m)^i adds c_i C(i, j) m^(i-j) b^(i-j) to a^j, summed by Faulhaber.
    def power_sum(e: int) -> int:  # b^e over 0 <= b < p
        d, c = _faulhaber(e)
        return polynomial_values(c, [p])[0] * p // d

    d = len(coeffs)
    sums = [m**e * power_sum(e) for e in range(d)]
    return [sum(comb(i, j) * coeffs[i] * sums[i - j] for i in range(j, d)) for j in range(d)]


# =====================================================================
# Graft precondition
# =====================================================================

class OnPathFailure(Record):
    level: int
    left_value: Fraction
    right_value: Fraction


class TailSumFailure(Record):
    level: int
    left_sum: Fraction
    right_sum: Fraction


class GraftPreconditionReport(Record):
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

    def _tables(self) -> tuple[tuple, tuple]:
        # The two failure lists as (header, rows); the headings are the
        # JSON keys too.
        on_path = [
            [f.level, format_rational(f.left_value), format_rational(f.right_value)]
            for f in self.on_path_agreement
        ]
        tails = [
            [f.level, format_rational(f.left_sum), format_rational(f.right_sum)]
            for f in self.tail_sum_failures
        ]
        return (("level", "left", "right"), on_path), (("level", "left_sum", "right_sum"), tails)

    def to_json_dict(self) -> dict:
        on_path, tails = ([dict(zip(head, row)) for row in rows] for head, rows in self._tables())
        return {
            "prime": self.prime,
            "path": path_to_json(self.path),
            "depth_checked": self.depth_checked,
            "passed": self.passed,
            "on_path_agreement": on_path,
            "tail_sum_failures": tails,
        }

    def to_text(self) -> str:
        on_path, tails = self._tables()
        return report_text(
            "graft precondition check",
            {"prime": self.prime, "depth_checked": self.depth_checked},
            f"on-path agreement failures: {len(self.on_path_agreement)}",
            on_path,
            f"tail-sum failures: {len(self.tail_sum_failures)}",
            tails,
            "result: " + ("PASS" if self.passed else "FAIL"),
        )


def check_graft_precondition(
    left: DistExpr, right: DistExpr, path: Path, max_depth: int, *,
    ball_budget: int = DEFAULT_BALL_BUDGET,
) -> GraftPreconditionReport:
    """Check on-path agreement and tail sums at levels 0..max_depth.

    A ball of level n has an n-digit rep: the check refuses to start when
    p (max_depth + 1)(max_depth + 2) / 2 exceeds the ball budget.
    Balls are requested in the order a ball-by-ball check reads them: P_0,
    then at each level n the off-path children of P_n in digit order, and
    last, when n < max_depth, the on-path child P_(n+1), whose values the
    next level compares.  Each request evaluates both sides as integer
    numerators over one denominator, a sub-expression held in several
    places once (`evaluate_shared`); a faulty request raises the error of
    its first failing ball, left side before right.
    When left - right is point masses only, the levels where they cannot
    fail are skipped (`_graft_levels`) and P_n is then requested alone;
    such sides raise on every ball or none, and level 0 is never skipped.
    """
    require_depth(max_depth, "max_depth")
    p = path.prime
    weighted = p * (max_depth + 1) * (max_depth + 2) // 2
    if weighted > ball_budget:
        raise BallBudgetError(f"refusing to enumerate {p} balls on each of levels 0..{max_depth}, "
                              f"{weighted} weighted by depth (budget {ball_budget}); {_RAISE}")
    on_path: list[OnPathFailure] = []
    tails: list[TailSumFailure] = []
    count_held((left, right))
    rep, q, lnums = 0, 1, None
    masses = _mass_difference(left, right)
    levels = range(max_depth + 1) if masses is None else _graft_levels(masses, path, max_depth)
    for n, i_n in enumerate(path.digits(max_depth + 1)):
        if n not in levels:
            rep, q, lnums = rep + i_n * q, q * p, None
            continue
        if lnums is None:
            (lnums, ld), (rnums, rd) = evaluate_shared((left, right), p, n, [rep])
        # P_n is the last ball of the previous request; q is p^n.
        lv, rv = lnums[-1], rnums[-1]
        if lv * rd != rv * ld:
            on_path.append(OnPathFailure(n, Fraction(lv, ld), Fraction(rv, rd)))
        balls = [rep + b * q for b in range(p) if b != i_n]
        rep += i_n * q
        q *= p
        if n < max_depth:
            balls.append(rep)
        (lnums, ld), (rnums, rd) = evaluate_shared((left, right), p, n + 1, balls)
        diffs = [x * rd - y * ld for x, y in zip(lnums[: p - 1], rnums)]
        below, above = sum(diffs[:i_n]), sum(diffs[i_n:])
        if below or above:
            den = ld * rd
            tails.append(TailSumFailure(n, Fraction(below, den), Fraction(above, den)))
    return GraftPreconditionReport(p, path, max_depth, tuple(on_path), tuple(tails))


def _graft_levels(masses: dict, path: Path, max_depth: int) -> set[int]:
    # The levels where sum c_y delta_y can fail: 0, each d(y) = v_p(y - x)
    # <= max_depth where y leaves the path of x (tail sums), and each n
    # where the sum over d(y) >= n is not 0 (on-path values).
    x, p, leave = path_to_point(path), path.prime, Counter()
    for y, c in masses.items():
        leave[min(valuation(y - x, p), max_depth + 1)] += c
    levels, on, n = {0}, sum(leave.values()), 0
    for d in sorted(leave):
        levels.update(range(n if on else d, min(d, max_depth) + 1))
        on, n = on - leave[d], d + 1
    return levels


def _mass_difference(left: DistExpr, right: DistExpr) -> dict | None:
    # left - right as its nonzero point masses {point: c}, the c times one
    # factor > 0, or None unless both are `_plain` and the rest cancels:
    # LinearCombs with no form are flattened (one met twice gives None, so
    # the walk is linear), the forms must sum to 0 and any other node, one
    # object however built, weigh 0.  It builds no node (that bumps `_uses`).
    terms, seen, stack = [], set(), [(1, 1, left), (-1, 1, right)]
    while stack:
        n, d, e = stack.pop()
        if not getattr(e, "_plain", False):
            return None
        if type(e) is not LinearComb or e._form is not None:
            terms.append((n, d, e if e._form is None else e._form))
        elif id(e) in seen:
            return None
        else:
            seen.add(id(e))
            form, rest = e._ints
            if form is not None:
                terms.append((n, d, form))
            stack += ((n * cn, d * cd, x) for cn, cd, x in rest)
    den, sums = lcm(*(d for _, d, _ in terms)), Counter()
    for n, d, key in terms:
        sums[key] += n * (den // d)
    form, masses = None, {}
    for key, c in sums.items():
        if not c:
            continue
        if type(key) is tuple:
            form = _add_form(form, c, key)
        elif type(key) is Dirac:
            masses[key.point] = c
        else:
            return None
    return None if form is not None and any(map(any, form[1])) else masses


# =====================================================================
# Branch hypothesis and distinctness witnesses
# =====================================================================

class BranchWitness(Record):
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
    is compared, against s = 1, 2, ... in turn, skipping children equal to
    it, which are child 0 itself, and the work, the table's nodes listed
    once, is linear in the number of children.  Each request evaluates the
    two together, a sub-expression held in several places once.
    """
    require_prime(prime)
    if isinstance(children, Branch):
        k = children.k
        children = children.children
    require_depth(k, "k", 1)
    require_depth(search_depth, "search_depth", k)
    table = tuple(children)
    if len(table) != prime**k:
        raise ValueError(f"need {prime**k} children for p={prime}, k={k}, got {len(table)}")
    require_budget(prime, search_depth, ball_budget)
    count_held(table)
    for s in range(1, len(table)):
        if table[s] is table[0]:
            continue
        ball = _first_difference((table[0], table[s]), prime, k, search_depth)
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
    are equal.  Depths where the two differ by point masses that cancel
    on every class are skipped.
    """
    require_prime(prime)
    require_depth(max_depth, "max_depth")
    require_budget(prime, max_depth, ball_budget)
    count_held((first, second))
    return _first_difference((first, second), prime, 0, max_depth)


def _first_difference(sides: Sequence[DistExpr], p: int, lo: int, hi: int) -> Ball | None:
    """First ball of depth lo..hi, by depth then rep, where the two differ.

    Depth n is scanned in consecutive rep ranges: the first holds p^(n-1)
    reps, each later one as many as the level has scanned so far.  The
    range holding the first differing rep r is no longer than
    max(r, p^(n-1)), so from lo = 0 the search evaluates fewer than twice
    the balls a ball-by-ball search visits, whatever p is.  Each range is
    one request for both sides, so it costs the distinct sub-expressions
    of the two times its balls.  A range that raises is scanned again one
    rep at a time, which returns a witness before its first faulty ball or
    raises what that ball raises.
    After the first range, sides that differ by point masses only skip
    the depths where those cancel (`_first_live`); such sides raise on
    every ball or on none.
    """
    floor = None  # the first depth that can differ, once read
    for n in range(lo, hi + 1):
        m = p**n
        start, stop = 0, max(1, m // p)
        while start < m and (floor is None or n >= floor):
            reps = range(start, stop)
            try:
                r = _first_differing(sides, p, n, reps)
            except (ValueError, TypeError):
                alone = (r for r in reps if _first_differing(sides, p, n, [r]) is not None)
                r = next(alone, None)
            if r is not None:
                return Ball(p, n, r)
            if floor is None:
                floor = _first_live(sides, p, n, hi)
            start, stop = stop, min(2 * stop, m)
    return None


def _first_live(sides: Sequence[DistExpr], p: int, lo: int, hi: int) -> int:
    # The first depth of lo..hi where the point masses of the sides'
    # difference do not cancel on some class y mod p^n, nor then deeper:
    # hi + 1 if none, lo if they differ by more than point masses.
    masses = _mass_difference(*sides)
    if masses is None:
        return lo
    for n in range(lo, hi + 1):
        m, classes = p**n, Counter()
        for y, c in masses.items():
            classes[y.numerator * pow(y.denominator, -1, m) % m] += c
        if any(classes.values()):
            return n
    return hi + 1


def _first_differing(sides: Sequence[DistExpr], p: int, n: int, reps: Sequence[int]) -> int | None:
    # The first rep in reps where the two sides differ; the first side is
    # evaluated first.
    (xs, dx), (ys, dy) = evaluate_shared(sides, p, n, reps)
    i = next(_differing(xs, dx, ys, dy), None)
    return None if i is None else reps[i]


def _differing(xs: Sequence[int], dx: int, ys: Sequence[int], dy: int) -> Iterator[int]:
    # The indices where xs / dx and ys / dy differ.  The whole sequences
    # are compared first; only ones that differ are walked ball by ball.
    g = gcd(dx, dy)
    if _same(_scaled(xs, dy // g), _scaled(ys, dx // g)):
        return
    for i, (x, y) in enumerate(zip(xs, ys)):
        if x * dy != y * dx:
            yield i


def _same(xs: Sequence[int], ys: Sequence[int]) -> bool:
    # xs == ys entry by entry: a range and a list compare as lists, the
    # list not copied.
    if type(xs) is not type(ys):
        xs, ys = (list(xs), ys) if type(xs) is range else (xs, list(ys))
    return xs == ys


# =====================================================================
# Norm scans and boundedness
# =====================================================================

class NormScanEntry(Record):
    depth: int
    max_norm: Fraction
    argmax: Ball


class NormScanReport(Record):
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

    def _table(self) -> tuple[tuple[str, ...], list[list]]:
        # The one table of the text and csv forms.
        rows = [[e.depth, format_rational(e.max_norm), e.argmax.rep] for e in self.entries]
        return ("depth", "max_norm", "argmax_a"), rows

    def to_csv(self) -> str:
        header, rows = self._table()
        return "\n".join(",".join(map(str, line)) for line in [header, *rows])

    def to_text(self) -> str:
        fields = {"prime": self.prime, "max_depth": self.max_depth}
        return report_text("norm scan", fields, self._table())


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
    A level of S, less its forms of degree 1, is read from its disjoint
    runs, each from its first degree + 1 values (`_head`), and a level of
    degree 1 is one range x0 + i * step, a run of degree 1.
    """
    require_prime(prime)
    require_depth(max_depth, "max_depth")
    require_budget(prime, max_depth, ball_budget)
    entries: list[NormScanEntry] = []
    forms = _piecewise(expr)
    for n in range(max_depth + 1):
        form = level_pieces(expr, prime, n) if forms else None
        if form is None:
            nums, den = evaluate_shared((expr,), prime, n, range(prime**n))[0]
            reps = range(len(nums))
        else:
            reps, nums = zip(*(x for run in disjoint_runs(*form[:2], prime**n) for x in _head(run)))
            den = form[2]
        best = 0
        stepped = type(nums) is range and len(nums) > 1
        common = gcd(nums[0], nums.step) if stepped else gcd(*nums)
        if common:
            step = prime
            while common % step == 0:
                step *= prime
            best = next(i for i, x in enumerate(nums) if x % step)
        value = Fraction(nums[best], den)
        entries.append(NormScanEntry(n, norm(value, prime), Ball(prime, n, reps[best])))
    return NormScanReport(prime, max_depth, tuple(entries))


def _head(run: tuple[int, int, list[int]]) -> list[tuple[int, int]]:
    # (rep, numerator) on the first degree + 1 reps of a run, which hold, by
    # forward differences, its gcd and its first numerator of least valuation.
    start, stop, coeffs = run
    reps = range(start, min(stop, start + (len(coeffs) or 1)))
    return list(zip(reps, polynomial_values(coeffs[::-1], reps)))


class BoundednessVerdict(Record):
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
