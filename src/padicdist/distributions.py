"""Finitely additive Q-valued distributions on Z_p, as expression trees.

A distribution assigns an exact rational to every ball of Z_p subject to the
additivity law

    mu(B) = sum of mu(C) over the p children C of B,

checked at any finite depth by `padicdist.verify.check_relation`.  This
module defines the expression language and its exact evaluator:
`evaluate_level` gives the values on many balls of one depth at once, as
integer numerators over one denominator, and `evaluate` is its one-ball
request.  Nodes are interned: building a node equal to a live one returns
that node, so equal nodes are one object, compared and hashed by identity.
Each node also counts the parents built over it, and a request evaluates a
node with two or more of them once: an expression built with shared parts
costs its distinct nodes, not the tree it stands for.

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

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, lcm
from typing import Iterable, Mapping, Sequence, Union
from weakref import WeakValueDictionary

from .core import (
    Ball,
    Path,
    PrimeMismatchError,
    Record,
    as_rational,
    bind_fields,
    digits_to_int,
    is_int,
    require_depth,
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

# What each field holds, by name: `_parts` reads a node's fields by kind,
# and `padicdist.serialize` keys its JSON codecs by kind.
FIELD_KINDS = {
    "k": "int", "cell": "ball", "path": "path",
    "point": "rational", "scale": "rational", "alpha": "rational",
    "expr": "expr", "left": "expr", "right": "expr", "terms": "terms", "children": "children",
}
# The live nodes by class, plain fields and sub-expression ids, held weakly.
_INTERNED: WeakValueDictionary = WeakValueDictionary()
_set = object.__setattr__


class _Node(Record):
    """An expression node: a record whose field kinds are FIELD_KINDS's,
    built once per value.

    Building a node equal to a live one returns that one, so nodes compare
    and hash by identity.  A sub-expression keys by its id, which the node
    keeps from reuse while it lives; a plain field (k, cell, path) must be
    hashable.  Copies and unpickled nodes are built by the constructor, so
    they are interned.

    A node the constructor keeps starts a count of the parents built over
    it at 0 and adds 1 to each sub-expression that is a node, once per
    place that holds it; `_level` evaluates a node counted 2 or more once
    per request.  The count `_uses` is no field, so `==`, `repr`, pickling
    and the codecs never see it.  A parent freed since still counts, so the
    count can only be too high, which costs an unneeded memo entry per
    request and never a wrong value.
    """

    _kinds = FIELD_KINDS
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, *args, **kwargs):
        # Record.__init__, inlined, and skipped for Mazur(), which has no
        # field: calling it would cost Mazur() a sixth.
        node = object.__new__(cls)
        fields = cls._fields
        if fields or args or kwargs:
            if kwargs or len(args) != len(fields):
                args = bind_fields(cls, args, kwargs)
            for (name, _, _), value in zip(fields, args):
                _set(node, name, value)
        node.__post_init__()
        plain, kids = _parts(node)
        kept = _INTERNED.setdefault((cls, *plain, *map(id, kids)), node)
        if kept is node:
            _set(node, "_uses", 0)
            for kid in kids:
                if isinstance(kid, _Node):
                    _set(kid, "_uses", kid._uses + 1)
        return kept

    # `type.__call__` initializes what `__new__` returns, which is built
    # already: object's own `__init__` does nothing, in C.
    __init__ = object.__init__


def _parts(e: _Node) -> tuple[list, list]:
    # e's plain fields (a rational as its two ints: hashing a Fraction costs
    # more) and its sub-expressions, in field order.
    plain, kids = [], []
    for name, holds, _ in e._fields:
        value = getattr(e, name)
        if holds == "rational":
            plain += value.numerator, value.denominator
        elif holds == "expr":
            kids.append(value)
        elif holds == "terms":
            plain += ((c.numerator, c.denominator) for c, _ in value)
            kids += (x for _, x in value)
        elif holds == "children":
            kids += value
        else:
            plain.append(value)
    return plain, kids


class Dirac(_Node):
    """Point mass: value 1 on balls containing the point, else 0."""

    point: Fraction

    def __post_init__(self) -> None:
        _set(self, "point", as_rational(self.point))


class Haar(_Node):
    """Translation-invariant distribution: scale / p^n on each depth-n ball."""

    scale: Fraction = _ONE

    def __post_init__(self) -> None:
        _set(self, "scale", as_rational(self.scale))


class Mazur(_Node):
    """rep/p^n - 1/2 on the ball rep + (p^n); equals Bernoulli(1)."""


class Bernoulli(_Node):
    """p^(n(k-1)) * B_k(rep / p^n) on the ball rep + (p^n), k >= 1."""

    k: int

    def __post_init__(self) -> None:
        if not is_int(self.k) or self.k < 1:
            raise ValueError(f"Bernoulli index must be an integer >= 1, got {self.k!r}")


class LinearComb(_Node):
    """sum of coef * expr over the given (coef, expr) terms."""

    terms: tuple[tuple[Fraction, "DistExpr"], ...]

    def __post_init__(self) -> None:
        _set(self, "terms", tuple((as_rational(c), e) for c, e in self.terms))


class Restrict(_Node):
    """The inner distribution confined to a cell: value mu(B meet cell)."""

    cell: Ball
    expr: "DistExpr"


class Regularize(_Node):
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
        _set(self, "alpha", as_rational(self.alpha))
        if self.alpha == 1:
            raise ValueError("alpha must differ from 1")


class Graft(_Node):
    """Splice `left` and `right` along a digit path.

    On a ball whose digits all follow the path, the value is left's.  On any
    other ball the first digit that leaves the path decides: smaller than the
    path's digit -> left, larger -> right.  Each off-path subtree therefore
    carries exactly one of the two inputs.
    """

    path: Path
    left: "DistExpr"
    right: "DistExpr"


class Branch(_Node):
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
        _set(self, "children", ch)


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
    first down to level k.  A node held in several places is evaluated
    once, so an expression built with shared parts costs its distinct nodes.
    """
    (num,), den = _level(expr, ball.prime, ball.depth, [ball.rep], {})
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
    0..p^n-1 in order.  Each node is evaluated over all the balls at once,
    and one held in several places once, in O(balls) integer operations
    and memory (O(p^k) for a Branch at level k > n), and nested Regularize
    nodes cost one inner request each.
    A Graft also finds each ball's side: n steps per ball on a rep list, and
    on a step-1 range a walk over the residue classes the range meets, at
    most n * min(p, balls) + 1 of them.
    On input that `evaluate` rejects it raises exactly what `evaluate`
    raises on the first requested ball that fails.
    """
    require_prime(p)
    m = p ** require_depth(n)
    if reps is None:
        reps = range(m)
    # A range holds ints between its two ends: when both are valid, so is
    # every entry, and the per-rep check can be skipped.
    ends = (reps[0], reps[-1]) if isinstance(reps, range) and reps else ()
    if not ends or not all(0 <= r < m for r in ends):
        for r in reps:
            if not is_int(r) or not 0 <= r < m:
                raise ValueError(f"rep must satisfy 0 <= rep < {p}^{n}, got {r!r}")
    return evaluate_shared((expr,), p, n, reps)[0]


def evaluate_shared(
    exprs: Sequence[DistExpr], p: int, n: int, reps: Sequence[int]
) -> list[tuple[list[int], int]]:
    """`evaluate_level` of each expression, first to last, on one request.

    p is prime and reps a list or a range of valid reps, as the callers
    check.  A node that two or more parents hold is evaluated once per
    depth and rep set, through a memo that lives for one request: a request
    costs its distinct sub-expressions times its balls.  An expression
    that another expression of the request holds once is evaluated there
    and again on its own, unless the request runs inside `counted(exprs)`,
    as the searches of `padicdist.verify` do.
    A node meets its sub-expressions for all the balls at once, so a
    raising request is replayed one ball at a time, the expressions in
    order on each, to raise the first failing ball's error.
    """

    def request(balls: Sequence[int]) -> list[tuple[list[int], int]]:
        memo: dict = {}
        return [_level(e, p, n, balls, memo) for e in exprs]

    try:
        return request(reps)
    except (ValueError, TypeError):
        for r in reps:
            request([r])
        raise


class counted:
    """Count each of exprs that another of them holds, or repeats, as one
    more parent of itself while the `with` block runs.

    The requests of `evaluate_shared` made in the block then evaluate such
    an expression once, not once inside its holder and again on its own.
    The count changes once for the block, not once per request: a search
    makes many requests of the same expressions, and most hold no other.
    Only an expression with fewer than two parents needs counting.  A
    count left off by one, as by two threads counting one node at once,
    costs a memo entry or a second evaluation, never a wrong value.
    """

    def __init__(self, exprs: Sequence[DistExpr]) -> None:
        self.held = []
        for i, e in enumerate(exprs):
            if getattr(e, "_uses", 2) < 2:
                for j, x in enumerate(exprs):
                    if j != i and _within(e, x):
                        self.held.append(e)
                        break

    def __enter__(self) -> None:
        for e in self.held:
            _set(e, "_uses", e._uses + 1)

    def __exit__(self, *exc_info) -> None:
        for e in self.held:
            _set(e, "_uses", e._uses - 1)


def _within(e: _Node, root: DistExpr) -> bool:
    # Whether e is root or one of its sub-expressions.  A node with no
    # parent can only be root, and a leaf holds nothing.
    if e._uses == 0 or e is root or type(root) not in _KERNELS:
        return e is root
    seen, stack = set(), [root]
    while stack:
        x = stack.pop()
        if x is e:
            return True
        if isinstance(x, _Node) and id(x) not in seen:
            seen.add(id(x))
            stack += _parts(x)[1]
    return False


# =====================================================================
# Level kernels
# =====================================================================

def _level(
    expr: DistExpr, p: int, n: int, reps: Sequence[int], memo: dict
) -> tuple[list[int], int]:
    # reps is a list or a range of valid reps; a whole level is range(p^n).
    # An empty request evaluates nothing, so, like `evaluate` on no balls,
    # it raises nothing.  memo holds the values of the nodes with two or
    # more parents so far in one request, by (id, depth, reps).
    if not reps:
        return [], 1
    m = p**n

    if isinstance(expr, Dirac):
        t = require_padic_integer(expr.point, p)
        nums = [0] * len(reps)
        for i in _positions(reps, t.numerator * pow(t.denominator, -1, m) % m):
            nums[i] = 1
        return nums, 1

    if isinstance(expr, Haar):
        return [expr.scale.numerator] * len(reps), expr.scale.denominator * m

    if isinstance(expr, Mazur):
        if type(reps) is range:
            return list(range(2 * reps.start - m, 2 * reps.stop - m, 2 * reps.step)), 2 * m
        return [2 * a - m for a in reps], 2 * m

    if isinstance(expr, Bernoulli):
        # p^(n(k-1)) B_k(a/m) = sum_j C(k,j) B_j a^(k-j) m^j / m, by Horner in a.
        scale, coeffs = _bernoulli_coefficients(expr.k)
        nums = [coeffs[0]] * len(reps)
        for j in range(1, expr.k + 1):
            c = coeffs[j] * m**j
            nums = [x * a + c for x, a in zip(nums, reps)]
        return nums, scale * m

    kernel = _KERNELS.get(type(expr))
    if kernel is None:
        raise TypeError(f"not a distribution expression: {type(expr).__name__}")
    if expr._uses < 2:
        return kernel(expr, p, n, reps, memo)
    key = id(expr), n, reps if type(reps) is range else tuple(reps)
    if key not in memo:
        memo[key] = kernel(expr, p, n, reps, memo)
    return memo[key]


def _level_linear_comb(
    expr: LinearComb, p: int, n: int, reps: Sequence[int], memo: dict
) -> tuple[list[int], int]:
    # Terms fold in over the running lcm, starting from the first term's
    # values; every term is evaluated, zero coefficients included.
    nums, den = [0] * len(reps), 1
    for i, (c, e) in enumerate(expr.terms):
        tn, td = _level(e, p, n, reps, memo)
        new_den = lcm(den, c.denominator * td)
        up, f = new_den // den, c.numerator * (new_den // (c.denominator * td))
        if i == 0:
            nums = tn if f == 1 else [f * y for y in tn]
        elif up != 1:
            nums = [x * up + f * y for x, y in zip(nums, tn)]
        elif f:
            nums = [x + f * y for x, y in zip(nums, tn)]
        den = new_den
    return nums, den


def _positions(reps: Sequence[int], at: int) -> list[int]:
    # The indices of `at` in reps, found at C speed.
    if type(reps) is range:
        return [reps.index(at)] if at in reps else []
    found, i = [], -1
    for _ in range(reps.count(at)):
        i = reps.index(at, i + 1)
        found.append(i)
    return found


def _slices(reps: Sequence[int]) -> bool:
    # Whether reps is a step-1 range, which the kernels serve by residue
    # classes clipped to it and slice assignment.
    return type(reps) is range and reps.step == 1


def _clip(start: int, step: int, reps: range) -> range:
    # The class start + step Z (0 <= start < step) within the step-1 range reps.
    return range(reps.start + (start - reps.start) % step, reps.stop, step)


def _level_restrict(
    expr: Restrict, p: int, n: int, reps: Sequence[int], memo: dict
) -> tuple[list[int], int]:
    cell = expr.cell
    if cell.prime != p:
        raise PrimeMismatchError("balls over different primes")
    if n < cell.depth:
        # The one ball containing the cell carries the inner value on the cell.
        nums = [0] * len(reps)
        hits = _positions(reps, cell.rep % p**n)
        if not hits:
            return nums, 1
        (value,), den = _level(expr.expr, p, cell.depth, [cell.rep], memo)
        for i in hits:
            nums[i] = value
        return nums, den
    q = p**cell.depth
    if _slices(reps):
        own = [_clip(cell.rep, q, reps)]
    else:
        own = [i for i, r in enumerate(reps) if r % q == cell.rep]
    return _gather(p, n, reps, [(expr.expr, own)], memo)


def _level_regularize(
    expr: Regularize, p: int, n: int, reps: Sequence[int], memo: dict
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
    if len(reps) == m and _slices(reps):
        # a -> scale * a mod m permutes the level: one inner level suffices.
        inner, den = _level(expr.expr, p, n, reps, memo)
        return [u * x - v * inner[scale * a % m] for a, x in enumerate(inner)], u * den
    scaled = [scale * r % m for r in reps]
    union = list(dict.fromkeys(chain(reps, scaled)))
    try:
        inner, den = _level(expr.expr, p, n, union, memo)
    except (ValueError, TypeError):
        if len(reps) == 1 < len(union):
            # One ball meets the errors on B before those on alpha * B.
            # Where alpha * B = B the union was the one-ball request itself;
            # replaying it would double the work per nesting level.
            _level(expr.expr, p, n, reps, memo)
            _level(expr.expr, p, n, scaled, memo)
        raise
    at = dict(zip(union, inner))
    return [u * at[r] - v * at[s] for r, s in zip(reps, scaled)], u * den


def _level_graft(
    expr: Graft, p: int, n: int, reps: Sequence[int], memo: dict
) -> tuple[list[int], int]:
    path = expr.path
    if path.prime != p:
        raise PrimeMismatchError(f"graft path over p={path.prime} evaluated at p={p}")
    digits = path.digits(n)
    m = p**n
    own: tuple[list, list] = ([], [])
    if _slices(reps):
        # The balls that first leave the path at digit j with digit d form
        # the residue class P_j + d p^j + p^(j+1) Z, P_j the path's first j
        # digits: left if d < digits[j], right if larger.  The reps of
        # P_j + p^j Z within p^(j+1) of the first one start one class each,
        # so only the classes that meet reps are listed.  The on-path ball
        # goes left.
        head, q = 0, 1
        for dj in digits:
            first = reps.start + (head - reps.start) % q
            for r in range(first, min(reps.stop, first + q * p), q):
                d = r // q % p
                if d != dj:
                    own[d > dj].append(range(r, reps.stop, q * p))
            head += dj * q
            q *= p
        own[0].append(_clip(head, m, reps))
    else:
        on_path = digits_to_int(digits, p)
        for i, r in enumerate(reps):
            # The first digit leaving the path sits at the p-adic valuation
            # of r - on_path; a larger digit there sends the ball right.
            gap, j, q = (r - on_path) % m, 0, 1
            if gap:
                while gap % p == 0:
                    gap //= p
                    j += 1
                    q *= p
            own[bool(gap) and r // q % p > digits[j]].append(i)
    return _gather(p, n, reps, [(expr.left, own[0]), (expr.right, own[1])], memo)


def _level_branch(
    expr: Branch, p: int, n: int, reps: Sequence[int], memo: dict
) -> tuple[list[int], int]:
    size = _branch_table_size(expr, p)
    m = p**n
    if n < expr.k:
        # Sum over the depth-k descendants r + t * m, t < p^(k-n), in the
        # order a walk down the children in digit order meets them: the
        # first digit of t, of weight 1, varies slowest.
        ts = [0]
        for j in reversed(range(expr.k - n)):
            ts = [d * p**j + t for d in range(p) for t in ts]
        q = len(ts)
        deep, den = _level(expr, p, expr.k, [r + t * m for r in reps for t in ts], memo)
        return [sum(deep[i : i + q]) for i in range(0, len(deep), q)], den
    # Children in the order their balls are first requested, which for one
    # ball below the level is the order the scalar walk meets them in.  On
    # a step-1 range child t owns every size-th rep: one class.
    if _slices(reps):
        parts = [
            (expr.children[(reps.start + i) % size], [reps[i::size]])
            for i in range(min(size, len(reps)))
        ]
    else:
        groups: dict[int, list[int]] = {}
        for i, r in enumerate(reps):
            groups.setdefault(r % size, []).append(i)
        parts = [(expr.children[t], own) for t, own in groups.items()]
    return _gather(p, n, reps, parts, memo)


def _gather(
    p: int, n: int, reps: Sequence[int], parts: Sequence[tuple[DistExpr, list]], memo: dict
) -> tuple[list[int], int]:
    # The values on reps put together from parts (expr, own), each expr
    # owning some of the balls: on a step-1 range, `own` lists residue
    # classes within it, else positions in reps.  Each part is one request,
    # in order, a lone class as itself and several as one list.  The values
    # are brought to the lcm of the parts' denominators and put back by
    # slice or by index; a ball no part owns gets 0.
    slices = _slices(reps)
    values, den = [], 1
    for e, own in parts:
        if not slices:
            balls = [reps[i] for i in own]
        elif len(own) == 1:
            balls = own[0]
        else:
            balls = list(chain.from_iterable(own))
        got, d = _level(e, p, n, balls, memo)
        values.append((got, d, own))
        den = lcm(den, d)
    nums = [0] * len(reps)
    for got, d, own in values:
        if d != den:
            f = den // d
            got = [f * x for x in got]
        if not slices:
            for i, x in zip(own, got):
                nums[i] = x
        elif len(own) == 1:
            nums[own[0].start - reps.start :: own[0].step] = got
        else:
            i = 0
            for c in own:
                nums[c.start - reps.start :: c.step] = got[i : i + len(c)]
                i += len(c)
    return nums, den


_KERNELS = {
    LinearComb: _level_linear_comb,
    Restrict: _level_restrict,
    Regularize: _level_regularize,
    Graft: _level_graft,
    Branch: _level_branch,
}


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
    child is, each child judged on its own cell t + (p^k) only; a linear
    combination is bounded if all terms are, unbounded if exactly one
    unbounded term survives with a nonzero coefficient, and unknown
    otherwise (cancellation can hide either outcome); restriction keeps the
    inner flag on its cell, and nested cells meet, so a part whose cells are
    disjoint is identically 0 and bounded; regularization is always unknown
    here, its point being to cancel growth.
    `padicdist.verify.boundedness_verdict` compares this flag with an
    empirical norm scan.
    """
    return _flag_on(expr, (1, 0), {})


def _flag_on(expr: DistExpr, cell: tuple[int, int], memo: dict) -> BoundednessFlag:
    # The flag of expr on the points x = r mod m of cell = (m, r), m a power
    # of p: (1, 0) is all of Z_p.  A branch has no prime of its own, so cells
    # are kept as congruences rather than balls; memo keys by (id, cell).
    key = id(expr), cell
    if key not in memo:
        memo[key] = _flag(expr, cell, memo)
    return memo[key]


def _flag(expr: DistExpr, cell: tuple[int, int], memo: dict) -> BoundednessFlag:
    # `_flag_on` past its memo, which holds the flags found so far in one call.
    if isinstance(expr, Dirac):
        return BoundednessFlag.BOUNDED
    if isinstance(expr, (Haar, Mazur, Bernoulli)):
        return BoundednessFlag.UNBOUNDED
    if isinstance(expr, LinearComb):
        flags = [(c, _flag_on(e, cell, memo)) for c, e in expr.terms]
        if all(f is BoundednessFlag.BOUNDED for _, f in flags):
            return BoundednessFlag.BOUNDED
        live = [i for i, (c, f) in enumerate(flags) if f is BoundednessFlag.UNBOUNDED and c != 0]
        if len(live) == 1 and all(
            f is BoundednessFlag.BOUNDED for i, (_, f) in enumerate(flags) if i != live[0]
        ):
            return BoundednessFlag.UNBOUNDED
        return BoundednessFlag.UNKNOWN
    if isinstance(expr, Restrict):
        cell_of = (expr.cell.prime**expr.cell.depth, expr.cell.rep)
        return _flag_on_meet(expr.expr, cell, cell_of, memo)
    if isinstance(expr, Regularize):
        return BoundednessFlag.UNKNOWN
    if isinstance(expr, Graft):
        return _join_flags(_flag_on(side, cell, memo) for side in (expr.left, expr.right))
    if isinstance(expr, Branch):
        size = len(expr.children)
        return _join_flags(
            _flag_on_meet(child, cell, (size, t), memo) for t, child in enumerate(expr.children)
        )
    raise TypeError(f"not a distribution expression: {type(expr).__name__}")


def _flag_on_meet(
    expr: DistExpr, cell: tuple[int, int], other: tuple[int, int], memo: dict
) -> BoundednessFlag:
    # The flag of expr on the meet of two cells; one modulus divides the
    # other, and on an empty meet expr counts as 0.
    (m, r), (n, s) = sorted((cell, other))
    if s % m != r:
        return BoundednessFlag.BOUNDED
    return _flag_on(expr, (n, s), memo)


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
