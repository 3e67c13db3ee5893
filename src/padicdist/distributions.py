"""Finitely additive Q-valued distributions on Z_p, as expression trees.

A distribution assigns an exact rational to every ball of Z_p subject to the
additivity law

    mu(B) = sum of mu(C) over the p children C of B,

checked at any finite depth by `padicdist.verify.check_relation`.  This
module defines the expression language and its exact evaluator:
`evaluate_level` gives the values on many balls of one depth at once, as
integer numerators over one denominator, and `evaluate` is its one-ball
request.

base families
    Dirac(point)      indicator of the point: 1 on balls containing it
    Haar(scale)       scale / p^n on every depth-n ball
    Mazur             rep/p^n - 1/2
    Bernoulli(k)      p^(n(k-1)) * B_k(rep / p^n), B_k the k-th Bernoulli
                      polynomial (B_1 = Mazur)

combinators
    LinearComb        rational linear combination
    Restrict          zero outside a fixed cell
    Regularize        mu(B) - alpha^(-k) * mu(alpha * B) for a unit alpha
    Graft             splice two distributions along a digit path
    Branch            dispatch on the first k digits among p^k distributions

Values are exact Fractions; no node ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, lcm
from typing import Iterable, Mapping, Sequence, Union

from .core import (
    Ball,
    Path,
    PrimeMismatchError,
    as_rational,
    is_int,
    require_padic_integer,
    require_prime,
    valuation,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# =====================================================================
# Bernoulli numbers and polynomials
# =====================================================================

@lru_cache(maxsize=None)
def _bernoulli_number(j: int) -> Fraction:
    # First convention (B_1 = -1/2), via sum_{i<=j} C(j+1, i) B_i = 0.
    if j == 0:
        return _ONE
    acc = sum(comb(j + 1, i) * _bernoulli_number(i) for i in range(j))
    return Fraction(-acc, j + 1)


def bernoulli_polynomial(k: int, x: Fraction | int) -> Fraction:
    """B_k(x) = sum_j C(k, j) B_j x^(k-j), exactly (first convention).

    B_0(x) = 1, B_1(x) = x - 1/2, B_2(x) = x^2 - x + 1/6, ...
    """
    if not is_int(k) or k < 0:
        raise ValueError(f"polynomial index must be an integer >= 0, got {k!r}")
    t = as_rational(x)
    return sum(
        (comb(k, j) * _bernoulli_number(j) * t ** (k - j) for j in range(k + 1)),
        _ZERO,
    )


# =====================================================================
# Expression nodes
# =====================================================================

@dataclass(frozen=True)
class Dirac:
    """Point mass: value 1 on balls containing the point, else 0."""

    point: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", as_rational(self.point))


@dataclass(frozen=True)
class Haar:
    """Translation-invariant distribution: scale / p^n on each depth-n ball."""

    scale: Fraction = field(default_factory=lambda: _ONE)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", as_rational(self.scale))


@dataclass(frozen=True)
class Mazur:
    """rep/p^n - 1/2 on the ball rep + (p^n); equals Bernoulli(1)."""


@dataclass(frozen=True)
class Bernoulli:
    """p^(n(k-1)) * B_k(rep / p^n) on the ball rep + (p^n), k >= 1."""

    k: int

    def __post_init__(self) -> None:
        if not is_int(self.k) or self.k < 1:
            raise ValueError(f"Bernoulli index must be an integer >= 1, got {self.k!r}")


@dataclass(frozen=True)
class LinearComb:
    """sum of coef * expr over the given (coef, expr) terms."""

    terms: tuple[tuple[Fraction, "DistExpr"], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "terms", tuple((as_rational(c), e) for c, e in self.terms)
        )


@dataclass(frozen=True)
class Restrict:
    """The inner distribution confined to a cell: value mu(B meet cell)."""

    cell: Ball
    expr: "DistExpr"


@dataclass(frozen=True)
class Regularize:
    """mu(B) - alpha^(-k) * mu(alpha * B), alpha a unit of Z_p, alpha != 1.

    alpha * B is the depth-n ball with representative alpha * rep mod p^n.
    The unit condition is checked against the ball's prime at evaluation.
    """

    k: int
    alpha: Fraction
    expr: "DistExpr"

    def __post_init__(self) -> None:
        if not is_int(self.k) or self.k < 1:
            raise ValueError(f"regularization weight must be an integer >= 1, got {self.k!r}")
        object.__setattr__(self, "alpha", as_rational(self.alpha))
        if self.alpha == 1:
            raise ValueError("alpha must differ from 1")


@dataclass(frozen=True)
class Graft:
    """Splice `left` and `right` along a digit path.

    On a ball whose digits all follow the path, the value is left's.  On any
    other ball the first digit that leaves the path decides: smaller than the
    path's digit -> left, larger -> right.  Each off-path subtree therefore
    carries exactly one of the two inputs.
    """

    path: Path
    left: "DistExpr"
    right: "DistExpr"


@dataclass(frozen=True)
class Branch:
    """Dispatch on the integer formed by the first k digits.

    children[t] governs the depth-k subtree of cells whose representative is
    t mod p^k; on balls shallower than k the value is the sum over child
    cells, making the additivity law hold by construction.  The children are
    a total table indexed 0..p^k-1 (a dict with exactly those keys is
    accepted and normalized).
    """

    k: int
    children: tuple["DistExpr", ...]

    def __post_init__(self) -> None:
        if not is_int(self.k) or self.k < 1:
            raise ValueError(f"branch level must be an integer >= 1, got {self.k!r}")
        ch = self.children
        if isinstance(ch, Mapping):
            if sorted(ch) != list(range(len(ch))):
                raise ValueError("branch children keys must be exactly 0..len-1")
            ch = tuple(ch[i] for i in range(len(ch)))
        else:
            ch = tuple(ch)
        if not ch:
            raise ValueError("branch needs at least one child")
        object.__setattr__(self, "children", ch)


DistExpr = Union[
    Dirac, Haar, Mazur, Bernoulli, LinearComb, Restrict, Regularize, Graft, Branch
]


# =====================================================================
# Evaluation
# =====================================================================

def _branch_table_size(expr: Branch, p: int) -> int:
    size = p**expr.k
    if len(expr.children) != size:
        raise ValueError(
            f"branch at level {expr.k} needs {size} children for p={p}, "
            f"got {len(expr.children)}"
        )
    return size


def evaluate(expr: DistExpr, ball: Ball) -> Fraction:
    """Exact value of the distribution on the ball: a one-ball level request.

    Prime consistency between the expression and the ball is enforced here:
    an embedded path or cell over a different prime raises
    PrimeMismatchError, a Dirac point outside Z_p raises
    NotPAdicIntegerError, and a Regularize alpha that is not a unit for the
    ball's prime, or a Branch table of the wrong size, raises ValueError.
    Where several sub-expressions are at fault, the error raised is the one
    met first in scalar order, walking the definitions on this one ball:
    LinearComb terms left to right, Regularize on B before alpha * B, and a
    Branch below its level through the children of B in digit order, depth
    first down to level k.
    """
    (num,), den = _level(expr, ball.prime, ball.depth, [ball.rep])
    return Fraction(num, den)


# =====================================================================
# Level-wise evaluation
# =====================================================================

@lru_cache(maxsize=None)
def _bernoulli_coefficients(k: int) -> tuple[int, tuple[int, ...]]:
    # (L, (L * C(k, j) * B_j for j = 0..k)), L the lcm of the denominators.
    terms = [comb(k, j) * _bernoulli_number(j) for j in range(k + 1)]
    scale = lcm(*(t.denominator for t in terms))
    return scale, tuple(int(t * scale) for t in terms)


def evaluate_level(
    expr: DistExpr, p: int, n: int, reps: Sequence[int] | None = None
) -> tuple[list[int], int]:
    """Exact values on many balls of depth n at once: (nums, den).

    The value on the ball reps[i] + (p^n) is nums[i] / den, with every
    entry and den a Python int and den > 0; reps=None means the whole level
    0..p^n-1 in order.  Each node is evaluated once over all the requested
    balls, so a full level costs O(p^n) integer operations and memory per
    node (O(p^k) for a Branch at level k > n); nested Regularize nodes cost
    one inner level each.  On input that `evaluate` rejects it raises
    exactly what `evaluate` raises on the first requested ball that fails.
    """
    require_prime(p)
    if not is_int(n) or n < 0:
        raise ValueError(f"depth must be an integer >= 0, got {n!r}")
    if reps is not None:
        m = p**n
        # A range holds ints between its two ends: when both are valid, so
        # is every entry, and the per-rep check can be skipped.
        ends = (reps[0], reps[-1]) if isinstance(reps, range) and reps else ()
        if not ends or not all(0 <= r < m for r in ends):
            for r in reps:
                if not is_int(r) or not 0 <= r < m:
                    raise ValueError(f"rep must satisfy 0 <= rep < {p}^{n}, got {r!r}")
    try:
        return _level(expr, p, n, reps)
    except (ValueError, TypeError):
        # A node meets its sub-expressions for all the balls at once, so the
        # first error met can belong to a later ball.  Replay the balls one
        # by one to raise the first failing ball's error.
        for r in range(p**n) if reps is None else reps:
            _level(expr, p, n, [r])
        raise


def _level(
    expr: DistExpr, p: int, n: int, reps: Sequence[int] | None
) -> tuple[list[int], int]:
    # reps=None stands for range(p^n) without building it.  An empty request
    # evaluates nothing, so, like `evaluate` on no balls, it raises nothing.
    if reps is not None and not reps:
        return [], 1
    m = p**n
    rs = range(m) if reps is None else reps

    if isinstance(expr, Dirac):
        t = require_padic_integer(expr.point, p)
        at = t.numerator * pow(t.denominator, -1, m) % m
        if isinstance(rs, range):
            nums = [0] * len(rs)
            if at in rs:
                nums[rs.index(at)] = 1
            return nums, 1
        return [int(r == at) for r in rs], 1

    if isinstance(expr, Haar):
        return [expr.scale.numerator] * len(rs), expr.scale.denominator * m

    if isinstance(expr, Mazur):
        if isinstance(rs, range):
            return list(range(2 * rs.start - m, 2 * rs.stop - m, 2 * rs.step)), 2 * m
        return [2 * a - m for a in rs], 2 * m

    if isinstance(expr, Bernoulli):
        # p^(n(k-1)) B_k(a/m) = sum_j C(k,j) B_j a^(k-j) m^j / m, by Horner in a.
        scale, coeffs = _bernoulli_coefficients(expr.k)
        nums = [coeffs[0]] * len(rs)
        for j in range(1, expr.k + 1):
            c = coeffs[j] * m**j
            nums = [x * a + c for x, a in zip(nums, rs)]
        return nums, scale * m

    if isinstance(expr, LinearComb):
        # Terms are folded in one at a time over the running lcm; every term
        # is evaluated, zero coefficients included, as `evaluate` does.
        nums, den = [0] * len(rs), 1
        for c, e in expr.terms:
            tn, td = _level(e, p, n, reps)
            new_den = lcm(den, c.denominator * td)
            if new_den != den:
                up = new_den // den
                nums = [x * up for x in nums]
                den = new_den
            f = c.numerator * (den // (c.denominator * td))
            if f:
                nums = [x + f * y for x, y in zip(nums, tn)]
        return nums, den

    if isinstance(expr, Restrict):
        return _level_restrict(expr, p, n, reps)

    if isinstance(expr, Regularize):
        return _level_regularize(expr, p, n, reps)

    if isinstance(expr, Graft):
        return _level_graft(expr, p, n, reps)

    if isinstance(expr, Branch):
        return _level_branch(expr, p, n, reps)

    raise TypeError(f"not a distribution expression: {type(expr).__name__}")


def _level_restrict(
    expr: Restrict, p: int, n: int, reps: Sequence[int] | None
) -> tuple[list[int], int]:
    cell = expr.cell
    if cell.prime != p:
        raise PrimeMismatchError("balls over different primes")
    m = p**n
    rs = range(m) if reps is None else reps
    nums = [0] * len(rs)
    if n < cell.depth:
        # The one ball containing the cell carries the inner value on the cell.
        at = cell.rep % m
        hits = [i for i, r in enumerate(rs) if r == at]
        if not hits:
            return nums, 1
        (value,), den = _level(expr.expr, p, cell.depth, [cell.rep])
        for i in hits:
            nums[i] = value
        return nums, den
    q = p**cell.depth
    if reps is None:
        inner, den = _level(expr.expr, p, n, range(cell.rep, m, q))
        nums[cell.rep :: q] = inner
        return nums, den
    keep = [i for i, r in enumerate(rs) if r % q == cell.rep]
    inner, den = _level(expr.expr, p, n, [rs[i] for i in keep])
    for i, value in zip(keep, inner):
        nums[i] = value
    return nums, den


def _level_regularize(
    expr: Regularize, p: int, n: int, reps: Sequence[int] | None
) -> tuple[list[int], int]:
    alpha = expr.alpha
    if valuation(alpha, p) != 0:
        raise ValueError(f"alpha={alpha} is not a unit of Z_p for p={p}")
    m = p**n
    scale = alpha.numerator * pow(alpha.denominator, -1, m) % m
    # mu(B) - alpha^(-k) mu(alpha B) = (u mu(B) - v mu(alpha B)) with
    # alpha^k = u/v, over u * den; the signs keep the denominator positive.
    u, v = alpha.numerator**expr.k, alpha.denominator**expr.k
    if u < 0:
        u, v = -u, -v
    if reps is None:
        # a -> scale * a mod m permutes the level: one inner level suffices.
        inner, den = _level(expr.expr, p, n, None)
        return [u * x - v * inner[scale * a % m] for a, x in enumerate(inner)], u * den
    scaled = [scale * r % m for r in reps]
    union = sorted(set(reps).union(scaled))
    try:
        inner, den = _level(expr.expr, p, n, union)
    except (ValueError, TypeError):
        if len(reps) == 1 < len(union):
            # One ball meets the errors on B before those on alpha * B.
            # Where alpha * B = B the union was the one-ball request itself;
            # replaying it would double the work per nesting level.
            _level(expr.expr, p, n, reps)
            _level(expr.expr, p, n, scaled)
        raise
    at = dict(zip(union, inner))
    return [u * at[r] - v * at[s] for r, s in zip(reps, scaled)], u * den


def _level_graft(
    expr: Graft, p: int, n: int, reps: Sequence[int] | None
) -> tuple[list[int], int]:
    path = expr.path
    if path.prime != p:
        raise PrimeMismatchError(f"graft path over p={path.prime} evaluated at p={p}")
    digits = path.digits(n)
    if reps is None:
        return _level_graft_classes(expr, p, n, digits)
    m = p**n
    on_path = sum(d * p**j for j, d in enumerate(digits))

    def goes_right(r: int) -> bool:
        # The first digit leaving the path sits at the p-adic valuation of
        # r - on_path; a larger digit there sends the ball right.
        gap = (r - on_path) % m
        if gap == 0:
            return False
        j, q = 0, 1
        while gap % p == 0:
            gap //= p
            j += 1
            q *= p
        return r // q % p > digits[j]

    right = [goes_right(r) for r in reps]
    left_nums, left_den = _level(
        expr.left, p, n, [r for r, s in zip(reps, right) if not s]
    )
    right_nums, right_den = _level(
        expr.right, p, n, [r for r, s in zip(reps, right) if s]
    )
    den = lcm(left_den, right_den)
    fl, fr = den // left_den, den // right_den
    li, ri = iter(left_nums), iter(right_nums)
    return [fr * next(ri) if s else fl * next(li) for s in right], den


def _level_graft_classes(
    expr: Graft, p: int, n: int, digits: Sequence[int]
) -> tuple[list[int], int]:
    # The whole level, side by side.  The balls that first leave the path at
    # digit j with digit d form the residue class range(P_j + d p^j, m,
    # p^(j+1)), P_j the path's first j digits: left if d < digits[j], right
    # if larger.  The on-path ball goes left.  Each side is evaluated once,
    # on its classes one after another, and the values are put back class by
    # class with slice assignment.
    m = p**n
    classes: tuple[list[range], list[range]] = ([], [])
    head, q = 0, 1
    for dj in digits:
        for d in range(p):
            if d != dj:
                classes[d > dj].append(range(head + d * q, m, q * p))
        head += dj * q
        q *= p
    classes[0].append(range(head, m, m))
    sides = [
        (_level(side, p, n, list(chain.from_iterable(own))), own)
        for side, own in zip((expr.left, expr.right), classes)
    ]
    den = lcm(*(d for (_, d), _ in sides))
    nums = [0] * m
    for (values, d), own in sides:
        if d != den:
            f = den // d
            values = [f * x for x in values]
        i = 0
        for c in own:
            nums[c.start :: c.step] = values[i : i + len(c)]
            i += len(c)
    return nums, den


def _level_branch(
    expr: Branch, p: int, n: int, reps: Sequence[int] | None
) -> tuple[list[int], int]:
    size = _branch_table_size(expr, p)
    m = p**n
    if n < expr.k:
        # Sum over the depth-k descendants r + t * m, t < p^(k-n).
        if reps is None:
            deep, den = _level(expr, p, expr.k, None)
            return [sum(deep[a::m]) for a in range(m)], den
        # t in the order a walk down the children in digit order meets them:
        # the first digit of t, of weight 1, varies slowest.
        ts = [0]
        for j in reversed(range(expr.k - n)):
            ts = [d * p**j + t for d in range(p) for t in ts]
        q = len(ts)
        deep, den = _level(expr, p, expr.k, [r + t * m for r in reps for t in ts])
        return [sum(deep[i : i + q]) for i in range(0, len(deep), q)], den
    if reps is None:
        parts = {t: range(t, m, size) for t in range(size)}
    else:
        parts = {}
        for i, r in enumerate(reps):
            parts.setdefault(r % size, []).append(i)
    # Children in the order their balls are first requested, which for one
    # ball below the level is the order the scalar walk meets them in.
    values = {}
    for t in parts:
        own = parts[t] if reps is None else [reps[i] for i in parts[t]]
        values[t] = _level(expr.children[t], p, n, own)
    den = lcm(*(d for _, d in values.values()))
    nums = [0] * (m if reps is None else len(reps))
    for t, (tn, td) in values.items():
        f = den // td
        if f != 1:
            tn = [f * x for x in tn]
        if reps is None:
            nums[t::size] = tn
        else:
            for i, x in zip(parts[t], tn):
                nums[i] = x
    return nums, den


# =====================================================================
# Boundedness bookkeeping
# =====================================================================

class BoundednessFlag(Enum):
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"
    UNKNOWN = "unknown"


def boundedness_flag(expr: DistExpr) -> BoundednessFlag:
    """Syntactic boundedness of sup over balls of |value|_p.

    The flag is propagated structurally and never consults ball values:
    point masses are bounded; the Haar/Mazur/Bernoulli families are
    unbounded; a graft is bounded iff both sides are and unbounded if either
    side is; a branch is bounded iff all children are and unbounded if any
    child is; a linear combination is bounded if all terms are, unbounded if
    exactly one unbounded term survives with a nonzero coefficient, and
    unknown otherwise (cancellation can hide either outcome); restriction
    keeps the inner flag; regularization is always unknown here, its point
    being to cancel growth.  `padicdist.verify.boundedness_verdict` compares
    this flag with an empirical norm scan.
    """
    if isinstance(expr, Dirac):
        return BoundednessFlag.BOUNDED
    if isinstance(expr, (Haar, Mazur, Bernoulli)):
        return BoundednessFlag.UNBOUNDED
    if isinstance(expr, LinearComb):
        flags = [(c, boundedness_flag(e)) for c, e in expr.terms]
        if all(f is BoundednessFlag.BOUNDED for _, f in flags):
            return BoundednessFlag.BOUNDED
        live = [i for i, (c, f) in enumerate(flags) if f is BoundednessFlag.UNBOUNDED and c != 0]
        if len(live) == 1 and all(
            f is BoundednessFlag.BOUNDED for i, (_, f) in enumerate(flags) if i != live[0]
        ):
            return BoundednessFlag.UNBOUNDED
        return BoundednessFlag.UNKNOWN
    if isinstance(expr, Restrict):
        return boundedness_flag(expr.expr)
    if isinstance(expr, Regularize):
        return BoundednessFlag.UNKNOWN
    if isinstance(expr, Graft):
        return _join_flags(map(boundedness_flag, (expr.left, expr.right)))
    if isinstance(expr, Branch):
        return _join_flags(map(boundedness_flag, expr.children))
    raise TypeError(f"not a distribution expression: {type(expr).__name__}")


def _join_flags(parts: Iterable[BoundednessFlag]) -> BoundednessFlag:
    # Pieces that each carry a part of the balls: bounded iff all are,
    # unbounded if any is.
    flags = set(parts)
    if flags == {BoundednessFlag.BOUNDED}:
        return BoundednessFlag.BOUNDED
    if BoundednessFlag.UNBOUNDED in flags:
        return BoundednessFlag.UNBOUNDED
    return BoundednessFlag.UNKNOWN


# =====================================================================
# Derived constructions
# =====================================================================

def remark_pair(nu0: DistExpr, nu1: DistExpr, path: Path) -> tuple[DistExpr, DistExpr]:
    """A candidate pair for grafting along `path` built from two inputs.

    Returns (mu1, mu2) with mu1 = nu0 and mu2 the level-1 branch placing nu0
    on the subtree the path enters first and nu1 on every other subtree.
    The pair comes with no agreement guarantee; run
    `padicdist.verify.check_graft_precondition` before relying on it.
    """
    i0 = path.digit(0)
    children = tuple(nu0 if t == i0 else nu1 for t in range(path.prime))
    return nu0, Branch(1, children)
