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

from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat, zip_longest
from math import comb, lcm
from typing import Iterable, Iterator, Sequence, Union
from weakref import WeakValueDictionary

from .core import (
    Ball,
    NotPAdicIntegerError,
    Path,
    PrimeMismatchError,
    Record,
    as_rational,
    bind_fields,
    digits_to_int,
    int_keyed_table,
    is_int,
    require_depth,
    require_prime,
)

_ONE = Fraction(1)
_ZERO_FORM = (1, ((0, 0), (0,)))
MAX_BERNOULLI_K = 200  # B_k's coefficients cost about k^3 Fraction steps


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
    k is at most MAX_BERNOULLI_K, as for the Bernoulli node.
    """
    if not is_int(k) or k < 0:
        raise ValueError(f"polynomial index must be an integer >= 0, got {k!r}")
    if k > MAX_BERNOULLI_K:
        raise ValueError(f"polynomial index must be at most {MAX_BERNOULLI_K}, got {k}")
    t, (scale, poly) = as_rational(x), _bernoulli_form(k)
    return sum(c[-1] * t**i for i, c in enumerate(poly)) / scale


@lru_cache(maxsize=None)
def _bernoulli_form(k: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    # Bernoulli(k)'s form (S, P): P(a, m) = sum_j S C(k, j) B_j a^(k-j) m^j,
    # S the lcm of the denominators of C(k, j) B_j.
    terms = [comb(k, j) * _bernoulli_number(j) for j in range(k + 1)]
    scale = lcm(*(t.denominator for t in terms))
    return scale, tuple((0,) * (k - i) + (int(terms[k - i] * scale),) for i in range(k + 1))


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
    it at 0, keeps its sub-expressions that are nodes as `_kids`, once per
    place that holds them, and adds 1 to the count of each; `_level`
    evaluates a node counted 2 or more once per request.  `_plain` says
    whether the node holds no Restrict, Graft or Branch, itself included:
    such a node's value on a ball, and any error it raises, do not depend
    on the other balls of a request.  `_uses`, `_kids` and `_plain` are no
    fields, so `==`, `repr`, pickling and the codecs never see them.  A
    parent freed since still counts, and so does one that `count_held`
    adds for a search, so the count can only be too high, which costs an
    unneeded memo entry per request and never a wrong value.

    A Haar, a Mazur, a Bernoulli(k) and a LinearComb of them take the value
    P(a, m) / (S m) on the ball a + (m), m = p^n; `_form` is (S, P), else
    None.  P, of degree d = len(P) - 1 >= 1, is its coefficients in a,
    lowest degree first: that of a^i an int polynomial in m of d + 1 - i
    coefficients, lowest first, so ((B, C), (A,)) is A a + B + C m.
    """

    _kinds = FIELD_KINDS
    _form = None
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
            kids = tuple(kid for kid in kids if isinstance(kid, _Node))
            _set(node, "_uses", 0)
            _set(node, "_kids", kids)
            _set(node, "_plain", cls not in _SPLITTERS and all(kid._plain for kid in kids))
            for kid in kids:
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
    """Point mass: value 1 on balls containing the point, else 0.

    `_ints` keeps the point's numerator and denominator for the level
    kernels, read once here; like `_uses`, it is no field.
    """

    point: Fraction

    def __post_init__(self) -> None:
        _set(self, "point", as_rational(self.point))
        _set(self, "_ints", (self.point.numerator, self.point.denominator))


class Haar(_Node):
    """Translation-invariant distribution: scale / p^n on each depth-n ball;
    its form `_form` is (S, P) = (v, u) for scale = u/v (no field)."""

    scale: Fraction = _ONE

    def __post_init__(self) -> None:
        _set(self, "scale", as_rational(self.scale))
        _set(self, "_form", (self.scale.denominator, ((self.scale.numerator, 0), (0,))))


class Mazur(_Node):
    """rep/p^n - 1/2 on the ball rep + (p^n); equals Bernoulli(1), whose
    form `_form` it takes: (2 rep - p^n) / (2 p^n)."""

    _form = _bernoulli_form(1)


class Bernoulli(_Node):
    """p^(n(k-1)) * B_k(rep / p^n) on the ball rep + (p^n), 1 <= k <= MAX_BERNOULLI_K."""

    k: int

    def __post_init__(self) -> None:
        if not is_int(self.k) or self.k < 1:
            raise ValueError(f"Bernoulli index must be an integer >= 1, got {self.k!r}")
        if self.k > MAX_BERNOULLI_K:
            raise ValueError(f"Bernoulli index must be at most {MAX_BERNOULLI_K}, got {self.k}")
        _set(self, "_form", _bernoulli_form(self.k))


class LinearComb(_Node):
    """sum of coef * expr over the given (coef, expr) terms.

    Its terms with a form (Haar, Mazur, Bernoulli and sums of them) are
    summed into one form over the lcm of their denominators: that is
    `_form` if every term has one.  Otherwise `_ints` keeps (that form or
    None, the other terms in order as (numerator, denominator, expr)); it
    is None on a node with a form (no fields).
    """

    terms: tuple[tuple[Fraction, "DistExpr"], ...]

    def __post_init__(self) -> None:
        terms = tuple((as_rational(c), e) for c, e in self.terms)
        _set(self, "terms", terms)
        form, rest = None, []
        for c, e in terms:
            other = getattr(e, "_form", None)
            if other is None:
                rest.append((c.numerator, c.denominator, e))
            else:
                form = _add_form(form, c, other)
        _set(self, "_form", None if rest else form or _ZERO_FORM)
        _set(self, "_ints", (form, tuple(rest)) if rest else None)


def _add_form(form: tuple | None, c: Fraction, other: tuple) -> tuple:
    # form (None for 0) + c other over the lcm of their denominators, laid
    # out as a form of the larger degree.
    (s, poly), (t, more) = form or _ZERO_FORM, other
    d = lcm(s, t * c.denominator)
    f, g = d // s, c.numerator * (d // (t * c.denominator))
    return d, tuple(
        tuple(f * x + g * y for x, y in zip_longest(a, b, fillvalue=0))
        for a, b in zip_longest(poly, more, fillvalue=())
    )


class Restrict(_Node):
    """The inner distribution confined to a cell: value mu(B meet cell)."""

    cell: Ball
    expr: "DistExpr"


class Regularize(_Node):
    """mu(B) - alpha^(-k) * mu(alpha * B), alpha a unit of Z_p, alpha != 1.

    alpha * B is the depth-n ball with representative alpha * rep mod p^n.
    The unit condition is checked against the ball's prime at evaluation.
    `_ints` keeps alpha as (numerator, denominator), read once here, then
    alpha^k as (u, v), signed so that u > 0, raised once by the level
    kernel on the first evaluation that passes the unit check, so a large
    k costs nothing until then, then the inner's `_form` or None; like
    `_uses`, it is no field.  Over a form of degree 1 the value is affine
    in the rep on each run of reps that alpha * rep mod p^n does not wrap
    round p^n, so E_(1,alpha) = Regularize(1, alpha, Mazur()) takes at most
    |alpha| + 1 values on a level for an integer alpha, and one over a Haar
    takes one value on a level, whatever alpha is.
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
        form = getattr(self.expr, "_form", None)
        _set(self, "_ints", (self.alpha.numerator, self.alpha.denominator, None, None, form))


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
        ch = int_keyed_table(self.children, "branch children")
        if not ch:
            raise ValueError("branch needs at least one child")
        _set(self, "children", ch)


DistExpr = Union[
    Dirac, Haar, Mazur, Bernoulli, LinearComb, Restrict, Regularize, Graft, Branch
]
# The nodes that sort a request's balls into parts, one per sub-expression.
_SPLITTERS = (Restrict, Graft, Branch)


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
    (num,), den = _level(expr, ball.prime, ball.depth, ball.prime**ball.depth, [ball.rep], {})
    return Fraction(num, den)


# =====================================================================
# Level-wise evaluation
# =====================================================================

@lru_cache(maxsize=None)
def _faulhaber(k: int) -> tuple[int, tuple[int, ...]]:
    # (D, c): the sum over 0 <= a < N of a^k is N times the polynomial c at
    # N, over D, from (B_(k+1)(N) - B_(k+1)) / (k + 1), first convention.
    scale, poly = _bernoulli_form(k + 1)
    return scale * (k + 1), tuple(c[-1] for c in poly[:0:-1])


def evaluate_level(
    expr: DistExpr, p: int, n: int, reps: Sequence[int] | None = None
) -> tuple[list[int], int]:
    """Exact values on many balls of depth n at once: (nums, den).

    The value on the ball reps[i] + (p^n) is nums[i] / den, with every
    entry and den a Python int and den > 0; reps=None means the whole level
    0..p^n-1 in order.  Each node is evaluated over all the balls at once,
    and one held in several places once, in O(balls) integer operations
    and memory (O(p^k) for a Branch at level k > n), and nested Regularize
    nodes cost one inner request each (two plain ones over a form).
    Haar, Mazur, Bernoulli and their sums, nested to any depth, are one
    form, one leaf request.  A Regularize over a form of degree 1 makes no
    inner request on a step-1 range (a whole level included) whose images
    wrap round p^n seldom: it writes one progression per run of reps
    between wraps, and over a Haar one value on any request.
    A Graft also finds each ball's side: n steps per ball on a rep list, and
    on a step-1 range a walk over the residue classes the range meets, at
    most n * min(p, balls) + 1 of them.
    On input that `evaluate` rejects it raises exactly what `evaluate`
    raises on the first requested ball that fails.  nums is always a list,
    whatever the request and the node.
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
    nums, den = evaluate_shared((expr,), p, n, reps)[0]
    return (nums if type(nums) is list else list(nums)), den


def evaluate_shared(
    exprs: Sequence[DistExpr], p: int, n: int, reps: Sequence[int]
) -> list[tuple[Sequence[int], int]]:
    """`evaluate_level` of each expression, first to last, on one request,
    but nums is a list or a range: a form of degree 1 (a Mazur, a sum with
    Haar terms) on a range of reps stays the one range it gives.

    p is prime and reps a list or a range of valid reps, as the callers
    check.  A node that two or more parents hold is evaluated once per
    depth and rep set, through a memo that lives for one request: a request
    costs its distinct sub-expressions times its balls.  An expression
    that another expression of the request holds once is evaluated there
    and again on its own, unless `count_held(exprs)` has counted it, as
    the searches of `padicdist.verify` do.
    A node meets its sub-expressions for all the balls at once, so a
    raising request is replayed one ball at a time, the expressions in
    order on each, to raise the first failing ball's error.
    """

    m, memo = p**n, {}
    try:
        return [_level(e, p, n, m, reps, memo) for e in exprs]
    except (ValueError, TypeError):
        for r in reps:
            memo = {}
            for e in exprs:
                _level(e, p, n, m, [r], memo)
        raise


def count_held(exprs: Sequence[DistExpr]) -> None:
    """Count each of exprs that another of them holds, or repeats, as one
    more parent of itself, for good, so that the requests of
    `evaluate_shared` on exprs evaluate it once, not inside its holder and
    again on its own.  A search calls this once.  Only an expression with
    one parent is counted: one with none is held by no node, and one with
    more is evaluated once already, so counting again changes nothing.  A
    count never lowered, or lost by two threads counting at once, costs at
    most a memo entry or a second evaluation, never a wrong value.
    """
    single = {id(e): e for e in exprs if getattr(e, "_uses", 0) == 1}
    if single:
        # Once per place among exprs, and once more if below one of them.
        held = Counter(map(id, exprs))
        held.update(id(x) for x in _walk(x for e in exprs for x in getattr(e, "_kids", ())))
        for key, e in single.items():
            if held[key] > 1:
                _set(e, "_uses", e._uses + 1)


def _walk(roots: Iterable[DistExpr]) -> Iterator[_Node]:
    # Each distinct node among roots and below them, once, but no form's terms.
    seen, stack = set(), list(roots)
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            yield x
            if x._form is None:
                stack += x._kids


# =====================================================================
# Level kernels
# =====================================================================

def _level(
    expr: DistExpr, p: int, n: int, m: int, reps: Sequence[int], memo: dict
) -> tuple[Sequence[int], int]:
    # reps is a list or a range of valid reps of depth n, m = p^n, worked
    # out once per request and depth; a whole level is range(m).
    # An empty request evaluates nothing, so, like `evaluate` on no balls,
    # it raises nothing.  memo holds the values of the nodes with two or
    # more parents so far in one request, by (id, depth, reps).
    if not reps:
        return [], 1
    form = getattr(expr, "_form", None)
    if form is not None:
        return _level_form(form, m, reps)
    if type(expr) is Dirac:
        return _level_dirac(expr, p, m, reps)
    kernel = _KERNELS.get(type(expr))
    if kernel is None:
        raise TypeError(f"not a distribution expression: {type(expr).__name__}")
    if expr._uses < 2:
        return kernel(expr, p, n, m, reps, memo)
    key = id(expr), n, reps if type(reps) is range else tuple(reps)
    if key not in memo:
        memo[key] = kernel(expr, p, n, m, reps, memo)
    return memo[key]


# The leaves, a form and a Dirac, on reps of depth n, m = p^n: they hold
# no node, so `_level` calls them past its memo.

def _dirac_rep(expr: Dirac, p: int, m: int) -> int:
    # The rep of the ball of size m that holds the point.
    u, v = expr._ints
    if v % p == 0:
        raise NotPAdicIntegerError(f"{expr.point} is not a p-adic integer for p={p}")
    return u % m if v == 1 else u * pow(v, -1, m) % m


def _level_dirac(expr: Dirac, p: int, m: int, reps: Sequence[int]) -> tuple[list[int], int]:
    nums = [0] * len(reps)
    for i in _positions(reps, _dirac_rep(expr, p, m)):
        nums[i] = 1
    return nums, 1


def _level_form(form: tuple, m: int, reps: Sequence[int]) -> tuple[Sequence, int]:
    # P(a, m) / (S m) on each ball a + (m), (S, P) = form.  Of degree 1,
    # A a + B + C m is one range of numerators on a range of reps, never
    # listed; of a higher degree, P's values at m.
    s, poly = form
    if len(poly) == 2:
        (b, c), (a,) = poly
        b += c * m
        if not a:
            return [b] * len(reps), s * m
        if type(reps) is range:
            return range(a * reps.start + b, a * reps.stop + b, a * reps.step), s * m
        return [a * r + b for r in reps], s * m
    return polynomial_values(_at(poly, m)[::-1], reps), s * m


def _at(poly: tuple, m: int) -> list[int]:
    # The form polynomial poly's coefficients in a at this m, lowest degree
    # first, each by Horner's rule.
    at = []
    for cs in poly:
        x = 0
        for c in reversed(cs):
            x = x * m + c
        at.append(x)
    return at


def polynomial_values(coeffs: Sequence[int], reps: Sequence[int]) -> list[int]:
    """The values at reps of the integer polynomial coeffs, leading term first.

    On a range longer than degree + 1, by forward differences: the values at
    its first degree + 1 entries, then one `accumulate` pass per degree.  On
    a list or a shorter range, by Horner's rule, one step per coefficient.
    """
    if coeffs and type(reps) is range and len(reps) > len(coeffs):
        # The differences of each order at reps[0]; the last order is constant.
        head, starts = polynomial_values(coeffs, reps[: len(coeffs)]), []
        while head:
            starts.append(head[0])
            head = [b - a for a, b in zip(head, head[1:])]
        values = repeat(starts.pop(), len(reps) - len(starts))
        for x in reversed(starts):
            values = accumulate(values, initial=x)
        return list(values)
    nums = []
    for a in reps:
        x = 0
        for c in coeffs:
            x = x * a + c
        nums.append(x)
    return nums


def _level_linear_comb(
    expr: LinearComb, p: int, n: int, m: int, reps: Sequence[int], memo: dict
) -> tuple[list[int], int]:
    # The terms with a form are one form, evaluated first; every other
    # term is evaluated in order, zero coefficients included: a combinator
    # through `_level`, a point mass as its ball's rep.  den is the running
    # lcm of the terms' denominators, so dense terms fold in at their final
    # scale, one pass each, and a point mass adds its scaled coefficient
    # where it hits.  A memo entry or a range as first dense term is copied
    # into a list before a mass adds in.
    form, terms = expr._ints
    den = 1
    dense, masses = [], []
    if form is not None:
        tn, den = _level_form(form, m, reps)
        dense.append((1, den, tn))
    for cn, cd, e in terms:
        if type(e) is Dirac:
            masses.append((cn, cd, _dirac_rep(e, p, m)))
        else:
            tn, td = _level(e, p, n, m, reps, memo)
            cd *= td
            dense.append((cn, cd, tn))
        den = lcm(den, cd)
    nums = [] if dense else [0] * len(reps)
    for i, (cn, cd, tn) in enumerate(dense):
        f = cn * (den // cd)
        if i == 0:
            copy = masses and (form is None or type(tn) is range)
            nums = (list(tn) if copy else tn) if f == 1 else [f * y for y in tn]
        elif f:
            nums = [x + f * y for x, y in zip(nums, tn)]
    for cn, cd, at in masses:
        for i in _positions(reps, at):
            nums[i] += cn * (den // cd)
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
    expr: Restrict, p: int, n: int, m: int, reps: Sequence[int], memo: dict
) -> tuple[list[int], int]:
    cell = expr.cell
    if cell.prime != p:
        raise PrimeMismatchError("balls over different primes")
    q = p**cell.depth
    if n < cell.depth:
        # The one ball containing the cell carries the inner value on the cell.
        nums = [0] * len(reps)
        hits = _positions(reps, cell.rep % m)
        if not hits:
            return nums, 1
        (value,), den = _level(expr.expr, p, cell.depth, q, [cell.rep], memo)
        for i in hits:
            nums[i] = value
        return nums, den
    if _slices(reps):
        own = [_clip(cell.rep, q, reps)]
    else:
        own = [i for i, r in enumerate(reps) if r % q == cell.rep]
    return _gather(p, n, m, reps, [(expr.expr, own)], memo)


def _level_regularize(
    expr: Regularize, p: int, n: int, m: int, reps: Sequence[int], memo: dict
) -> tuple[list[int], int]:
    u, v, scale, form = _regularize_factors(expr, p, m)
    # mu(B) - alpha^(-k) mu(alpha B) = (u mu(B) - v mu(alpha B)) with
    # alpha^k = u/v, over u * den; u > 0 keeps the denominator positive.
    if form is not None and len(form[1]) == 2 and (
        not form[1][1][0]
        or type(reps) is range and reps.step == 1 and len(reps) >= _BALLS_PER_RUN
    ):
        # A constant inner is one value on any request; a shorter range
        # cannot hold one run: it pays no call.
        runs = _regularize_runs(form, u, v, scale, m, reps, _BALLS_PER_RUN)
        if runs is not None:
            nums = []
            for run, (y, slope) in runs:
                if slope:
                    nums += range(slope * run.start + y, slope * run.stop + y, slope)
                else:
                    nums += [y] * len(run)
            return nums, u * form[0] * m
    scaled = [scale * r % m for r in reps]
    if form is not None:
        # A form's denominator depends on n alone, and it raises nothing:
        # the balls and their images are two plain requests, reps kept a
        # range where it is one.
        inner, den = _level_form(form, m, reps)
        image, _ = _level_form(form, m, scaled)
        return [u * x - v * y for x, y in zip(inner, image)], u * den
    union = list(dict.fromkeys(chain(reps, scaled)))
    try:
        inner, den = _level(expr.expr, p, n, m, union, memo)
    except (ValueError, TypeError):
        if len(reps) == 1 < len(union):
            # One ball meets the errors on B before those on alpha * B.
            # Where alpha * B = B the union was the one-ball request itself;
            # replaying it would double the work per nesting level.
            _level(expr.expr, p, n, m, reps, memo)
            _level(expr.expr, p, n, m, scaled, memo)
        raise
    at = dict(zip(union, inner))
    return [u * at[r] - v * at[s] for r, s in zip(reps, scaled)], u * den


def _regularize_factors(expr: Regularize, p: int, m: int) -> tuple[int, int, int, tuple | None]:
    # (u, v, scale, form): alpha^k = u/v with u > 0, alpha's residue mod m
    # and the inner's form or None, once alpha passes the unit check.
    a, b, u, v, form = expr._ints
    if a % p == 0 or b % p == 0:
        raise ValueError(f"alpha={expr.alpha} is not a unit of Z_p for p={p}")
    if u is None:
        u, v = abs(a) ** expr.k, (-b if a < 0 else b) ** expr.k
        _set(expr, "_ints", (a, b, u, v, form))
    return u, v, a % m if b == 1 else a * pow(b, -1, m) % m, form


# `_regularize_runs` serves a range holding at least this many balls per
# run.  At 4 it took 0.4-1.0 times the general path's time (p = 3, 5, 7,
# k = 1 and 2, whole levels and a third of one); at 2, up to 2.6 times
# with k = 2, whose runs are progressions of larger ints.
_BALLS_PER_RUN = 4


def _regularize_runs(
    form: tuple, u: int, v: int, scale: int, m: int, reps: Sequence[int], per_run: int
) -> list[tuple[Sequence[int], tuple[int, int]]] | None:
    # The numerators over u S m of a Regularize over the form of degree 1
    # (S, ((B, C), (A,))) as (run, (y, slope)), the numerator slope * r + y
    # on each rep r of run, or None if the step-1 range reps has fewer than
    # per_run balls per run.  With s = scale taken in (-m/2, m/2] and
    # j = floor(s r / m), the image rep is s r - j m, so the numerator is
    # A (u - v s) r + (u - v)(B + C m) + v A m j: one progression on each
    # run of reps with one j.  A constant inner (A = 0) is one run of one
    # value, whatever reps is.
    (b, c), (a,) = form[1]
    base = (u - v) * (b + c * m)
    if not a:
        return [(reps, (base, 0))]
    first, stop = reps.start, reps.stop
    s = scale - m if 2 * scale > m else scale
    j, last = s * first // m, s * (stop - 1) // m
    if (abs(last - j) + 1) * per_run > stop - first:  # j moves by 0 or 1 a rep
        return None
    slope, lift = a * (u - v * s), v * a * m
    runs, r = [], first
    while j != last:
        if s > 0:
            end = -(-(j + 1) * m // s)  # the first r with s r >= (j + 1) m
        else:
            end = j * m // s + 1  # the first r with s r < j m
        runs.append((range(r, end), (base + lift * j, slope)))
        r, j = end, j + (1 if s > 0 else -1)
    runs.append((range(r, stop), (base + lift * last, slope)))
    return runs


def _level_graft(
    expr: Graft, p: int, n: int, m: int, reps: Sequence[int], memo: dict
) -> tuple[list[int], int]:
    path = expr.path
    if path.prime != p:
        raise PrimeMismatchError(f"graft path over p={path.prime} evaluated at p={p}")
    digits = path.digits(n)
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
    return _gather(p, n, m, reps, [(expr.left, own[0]), (expr.right, own[1])], memo)


def _level_branch(
    expr: Branch, p: int, n: int, m: int, reps: Sequence[int], memo: dict
) -> tuple[list[int], int]:
    size = _branch_table_size(expr, p)
    if n < expr.k:
        # Sum over the depth-k descendants r + t * m, t < p^(k-n), in the
        # order a walk down the children in digit order meets them: the
        # first digit of t, of weight 1, varies slowest.
        ts = [0]
        for j in reversed(range(expr.k - n)):
            ts = [d * p**j + t for d in range(p) for t in ts]
        q = len(ts)
        deep, den = _level(expr, p, expr.k, size, [r + t * m for r in reps for t in ts], memo)
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
    return _gather(p, n, m, reps, parts, memo)


def _gather(
    p: int, n: int, m: int, reps: Sequence[int], parts: Sequence[tuple[DistExpr, list]],
    memo: dict,
) -> tuple[list[int], int]:
    # The values on reps put together from parts (expr, own), each expr
    # owning some of the balls: on a step-1 range, `own` lists residue
    # classes within it, else positions in reps.  Each part is one request,
    # in order: a lone class as itself, several classes of a `_plain` part
    # as the whole range, sliced, since the other balls change neither its
    # values, its den nor its errors (a form of degree 1 stays one range),
    # and several of any other part as one list.  A part that owns no ball
    # is not evaluated.  The values are brought to the lcm of the parts'
    # denominators and put back by slice or by index; a ball no part owns
    # gets 0.
    slices = _slices(reps)
    values, den = [], 1
    for e, own in parts:
        if not slices:
            balls = [reps[i] for i in own]
        elif len(own) == 1:
            balls = own[0]
        elif len(own) > 1 and getattr(e, "_plain", False):
            balls = reps
        else:
            balls = list(chain.from_iterable(own))
        got, d = _level(e, p, n, m, balls, memo)
        values.append((got, d, own, balls is reps))
        den = lcm(den, d)
    nums = [0] * len(reps)
    for got, d, own, whole in values:
        if d != den:
            got = _scaled(got, den // d)
        if not slices:
            for i, x in zip(own, got):
                nums[i] = x
        elif len(own) == 1:
            nums[own[0].start - reps.start :: own[0].step] = got
        else:
            i = 0
            for c in own:
                at = c.start - reps.start
                nums[at :: c.step] = got[at :: c.step] if whole else got[i : i + len(c)]
                i += len(c)
    return nums, den


def _scaled(xs: Sequence[int], f: int) -> Sequence[int]:
    # f times each of xs, a list or a range: a range stays a range unless
    # f is 0, and f = 1 returns xs itself.
    if f == 1:
        return xs
    if type(xs) is range and f:
        return range(f * xs.start, f * xs.stop, f * xs.step)
    return [f * x for x in xs]


_KERNELS = {
    LinearComb: _level_linear_comb,
    Restrict: _level_restrict,
    Regularize: _level_regularize,
    Graft: _level_graft,
    Branch: _level_branch,
}


# =====================================================================
# Piece form
# =====================================================================

# A whole level given as pieces: a step-1 range of reps with the integer
# coefficients, lowest degree first, of the numerator polynomial on it.
Pieces = dict[range, list[int]]

# `level_pieces` takes a Regularize's runs where they hold at least this
# many balls each.  Over 18 integrations of Regularize(1, alpha, Mazur())
# (p = 3, 5 and 7 to depths 7, 5 and 4; alpha the units among -3, -2, 2,
# 3, 4, 7 and 11), the closed sums of a depth-2 step function took 0.97
# times the enumerating path's time at 4 balls a run, 0.92 at 32 and 0.93
# at 64; of a quadratic, 0.32, 0.32 and 0.35 times.
_PIECE_BALLS_PER_RUN = 32


def level_pieces(
    expr: DistExpr, p: int, n: int
) -> tuple[Pieces, dict[int, int], int] | None:
    """The whole depth-n level of expr as (pieces, masses, den), or None.

    The value on the ball a + (p^n) is (P(a) + masses.get(a, 0)) / den,
    where P is the sum of the polynomials of the pieces whose range holds
    a; den > 0.  The form exists on the family Haar, Mazur, Bernoulli(k)
    and Dirac, closed under LinearComb and under Regularize over a form of
    degree 1 (a Haar, a Mazur or a sum of them) whose images wrap round p^n
    seldom enough: a node with a `_form` is one piece, a point mass a mass
    and a Regularize one piece per run.  For any other expression it is
    None.  It raises what `evaluate_level` raises on the whole level.  p
    is prime and n a depth, as the callers check; p^n may be far past any
    ball budget, and a piece is a `range`, so its length is stop - start,
    never len().
    """
    return _pieces(expr, p, p**n, {})


def _piecewise(expr: DistExpr) -> bool:
    # Whether `verify.norm_scan` asks `level_pieces` for expr's levels: a
    # `_plain` node, which may be in S, but not a form of degree 1, which
    # is one range on a level and cheaper read as one.
    form = getattr(expr, "_form", None)
    return len(form[1]) > 2 if form is not None else getattr(expr, "_plain", False)


def _pieces(expr, p: int, m: int, memo: dict) -> tuple[Pieces, dict[int, int], int] | None:
    # The piece form of expr on the level of size m, or None.  Errors come
    # in scalar order: a Regularize's unit check before its inner, and
    # LinearComb terms left to right up to the first without a piece form,
    # whose enumeration then meets its errors first.  A node held in
    # several places is built once, and a LinearComb adds up the pieces of
    # one range and the masses at one rep, so a chain of shared sums stays
    # one piece per range.
    form = getattr(expr, "_form", None)
    if form is not None:
        return _form_pieces(form, m)
    t = type(expr)
    if t is Dirac:
        return {}, {_dirac_rep(expr, p, m): 1}, 1
    if id(expr) in memo:
        return memo[id(expr)]
    found = None
    if t is Regularize:
        u, v, scale, form = _regularize_factors(expr, p, m)
        runs = form is not None and len(form[1]) == 2 and _regularize_runs(
            form, u, v, scale, m, range(m), _PIECE_BALLS_PER_RUN
        )
        if runs:
            # The first run's progression on the whole level, and on each
            # later run the constant that its wrap count adds.
            (_, (y, slope)), *later = runs
            pieces = {range(m): [y, slope] if slope else [y]}
            pieces.update((run, [x - y]) for run, (x, _) in later)
            found = pieces, {}, u * form[0] * m
    elif t is LinearComb:
        form, terms = expr._ints
        parts = [(1, 1, _form_pieces(form, m))] if form is not None else []
        for cn, cd, e in terms:
            part = _pieces(e, p, m, memo)
            if part is None:
                break
            parts.append((cn, cd, part))
        else:
            den = lcm(*(cd * part[2] for _, cd, part in parts))
            pieces, masses = {}, {}
            for cn, cd, (ps, ms, d) in parts:
                f = cn * (den // (cd * d))
                if f:
                    for run, coeffs in ps.items():
                        _add_into(pieces.setdefault(run, []), coeffs, f)
                    for rep, c in ms.items():
                        masses[rep] = masses.get(rep, 0) + f * c
            found = pieces, masses, den
    else:
        return None
    if expr._uses > 1:
        memo[id(expr)] = found
    return found


def _form_pieces(form: tuple, m: int) -> tuple[Pieces, dict[int, int], int]:
    # The form (S, P) on the level of size m: one piece, P(., m) / (S m).
    return {range(m): _at(form[1], m)}, {}, form[0] * m


def _add_into(have: list[int], coeffs: Sequence[int], f: int = 1) -> None:
    # have += f * coeffs, in place, two polynomials lowest degree first.
    have += [0] * (len(coeffs) - len(have))
    for i, c in enumerate(coeffs):
        have[i] += f * c


def disjoint_runs(
    pieces: Pieces, masses: dict[int, int], m: int
) -> list[tuple[int, int, list[int]]]:
    """The level 0..m-1 of the piece form (pieces, masses) as disjoint runs
    (start, stop, coeffs) in rep order, the numerator on start <= a < stop
    the polynomial coeffs (lowest degree first) at a; a point mass is a
    run of one ball, its one coefficient the numerator there."""
    steps: dict[int, list[int]] = {0: [], m: []}
    for run, coeffs in pieces.items():
        _add_into(steps.setdefault(run.start, []), coeffs)
        _add_into(steps.setdefault(run.stop, []), coeffs, -1)
    steps.update((e, steps.get(e, [])) for r in masses for e in (r, r + 1))
    ends = sorted(steps)
    runs, now = [], []
    for start, stop in zip(ends, ends[1:]):
        if any(steps[start]):
            now = now.copy()
            _add_into(now, steps[start])
        at = [polynomial_values(now[::-1], [start])[0] + masses[start]] if start in masses else now
        runs.append((start, stop, at))
    return runs


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
    point masses and Haar(0) are bounded; any other Haar, Mazur and
    Bernoulli are unbounded; a graft is bounded iff both sides are and
    unbounded if either side is, or its left side's flag when every digit
    of its path is p - 1, as the right side then owns no ball; when every
    digit is 0 the left side owns only the on-path balls, and counts as
    bounded if it is and unknown otherwise; a branch is
    bounded iff all children are and unbounded if any child is, each child
    judged on its own cell t + (p^k) only; a linear combination is bounded
    if all terms are, unbounded if exactly one unbounded term survives with
    a nonzero coefficient, and unknown otherwise (cancellation can hide
    either outcome); restriction keeps the inner flag on its cell, and
    nested cells meet, so a part whose cells are disjoint is identically 0
    and bounded; regularization is always unknown here, its point being to
    cancel growth.
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
    if isinstance(expr, Dirac) or isinstance(expr, Haar) and not expr.scale:
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
        # No ball leaves a path of digits p - 1 by a larger digit, nor one
        # of digits 0 by a smaller: then the left side owns only the
        # on-path balls, where an unbounded side may well be bounded.
        digits = set(expr.path.preperiod + expr.path.period)
        flags = [_flag_on(expr.left, cell, memo)]
        if digits == {0} and flags[0] is not BoundednessFlag.BOUNDED:
            flags = [BoundednessFlag.UNKNOWN]
        if digits != {expr.path.prime - 1}:
            flags.append(_flag_on(expr.right, cell, memo))
        return _join_flags(flags)
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
