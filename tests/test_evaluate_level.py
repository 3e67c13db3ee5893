"""The level-wise evaluator against the scalar one, on random expressions.

The scalar `evaluate` of `scalar_oracle` is the oracle: `evaluate_level` must
give the same exact value on every requested ball, and where the oracle
raises on some requested ball, `evaluate_level` must raise what it raises on
the first such ball.  Requests are whole levels, rep lists and rep ranges;
a one-ball request is what `padicdist.evaluate` makes.  `check_relation` must
report the violations a ball-by-ball check with the oracle finds, in order.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_oracle import evaluate

from padicdist import (
    Ball,
    Bernoulli,
    Branch,
    Dirac,
    Graft,
    Haar,
    LinearComb,
    Mazur,
    Path,
    Regularize,
    Restrict,
    check_relation,
    evaluate_level,
    expr_from_json,
    expr_to_json,
)

PRIMES = (2, 3, 5, 7)
MAX_DEPTH = 4
# Kept small: nested Regularize costs the scalar oracle 2^nesting per ball.
MAX_LEAVES = 6
SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _other_prime(p):
    return 3 if p == 2 else 2


def coefficients():
    return st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def points(p):
    dens = [d for d in range(1, 10) if d % p]
    return st.builds(F, st.integers(-40, 40), st.sampled_from(dens))


def units(p):
    return st.builds(
        F,
        st.integers(-12, 12).filter(lambda u: u % p),
        st.sampled_from([d for d in range(1, 6) if d % p]),
    ).filter(lambda a: a != 1)


def cells(p, prime=None):
    # Depths up to 6 put some cells deeper than any level evaluated here.
    return st.integers(0, 6).flatmap(
        lambda n: st.builds(Ball, st.just(prime or p), st.just(n), st.integers(0, p**n - 1))
    )


def paths(p, prime=None):
    digits = st.lists(st.integers(0, p - 1), max_size=3)
    return st.builds(
        lambda pre, per: Path(prime or p, tuple(pre), tuple(per)),
        digits,
        digits.filter(bool),
    )


def branch_levels(p):
    # k ranges past the deepest level checked where the table stays small.
    return st.integers(1, max(k for k in range(1, 7) if p**k <= 64))


def branches(p, inner, misfit=False):
    def build(k, pool, extra):
        size = p**k + extra
        return Branch(k, tuple(pool[t % len(pool)] for t in range(size)))

    extra = st.sampled_from([-1, 1]) if misfit else st.just(0)
    return st.builds(build, branch_levels(p), st.lists(inner, min_size=1, max_size=3), extra)


def faulty_leaves(p):
    """Nodes that raise on every ball they are evaluated on."""
    q = _other_prime(p)
    return st.one_of(
        st.builds(lambda u: Dirac(F(u, p)), st.integers(1, 9).filter(lambda u: u % p)),
        st.builds(Regularize, st.integers(1, 2), st.sampled_from([F(p), F(1, p), F(0)]),
                  st.just(Mazur())),
        st.builds(Restrict, cells(q, prime=q), st.just(Mazur())),
        st.builds(Graft, paths(q, prime=q), st.just(Mazur()), st.just(Haar())),
        branches(p, st.just(Mazur()), misfit=True),
    )


@lru_cache(maxsize=None)
def expressions(p, grafts=True, faults=False):
    leaves = st.one_of(
        points(p).map(Dirac),
        coefficients().map(Haar),
        st.just(Mazur()),
        st.integers(1, 4).map(Bernoulli),
    )
    if faults:
        leaves = st.one_of(leaves, faulty_leaves(p))

    def regularized(inner):
        return st.builds(Regularize, st.integers(1, 3), units(p), inner)

    def extend(inner):
        options = [
            st.lists(st.tuples(coefficients(), inner), max_size=3).map(
                lambda terms: LinearComb(tuple(terms))
            ),
            st.builds(Restrict, cells(p), inner),
            regularized(inner),
            regularized(regularized(inner)),
            branches(p, inner),
        ]
        if grafts:
            options.append(st.builds(Graft, paths(p), inner, inner))
        return st.one_of(options)

    return st.recursive(leaves, extend, max_leaves=MAX_LEAVES)


def rep_ranges(m):
    """Short ranges of reps below m: step 1 or more, empty, or ending at m."""

    def build(step, length, to_end, start):
        if to_end:
            return range(max(0, m - length * step), m, step)
        return range(start, min(m, start + length * step), step)

    return st.builds(
        build, st.integers(1, 3), st.integers(0, 12), st.booleans(), st.integers(0, m)
    )


@st.composite
def cases(draw, faults=False):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(0, MAX_DEPTH))
    expr = draw(expressions(p, faults=faults))
    m = p**n
    kinds = ["list", "range"] + (["whole"] if m <= 125 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "whole":
        reps = None
    elif kind == "range":
        reps = draw(rep_ranges(m))
    else:
        reps = draw(st.lists(st.integers(0, m - 1), max_size=12))
    return expr, p, n, reps


def _scalar(expr, p, n, reps):
    """Per-ball values from `evaluate`, or the first error it raises."""
    values = []
    for r in range(p**n) if reps is None else reps:
        try:
            values.append(evaluate(expr, Ball(p, n, r)))
        except (ValueError, TypeError) as exc:
            return None, exc
    return values, None


def _assert_agrees(expr, p, n, reps):
    values, error = _scalar(expr, p, n, reps)
    if error is not None:
        with pytest.raises((ValueError, TypeError)) as info:
            evaluate_level(expr, p, n, reps)
        assert type(info.value) is type(error)
        assert str(info.value) == str(error)
        return
    nums, den = evaluate_level(expr, p, n, reps)
    assert isinstance(den, int) and den > 0
    assert all(isinstance(x, int) for x in nums)
    assert [F(x, den) for x in nums] == values


@SETTINGS
@given(cases())
def test_level_agrees_with_scalar_evaluate(case):
    _assert_agrees(*case)


@SETTINGS
@given(cases(faults=True))
def test_level_raises_what_scalar_evaluate_raises(case):
    _assert_agrees(*case)


@SETTINGS
@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), expressions(p, grafts=False), st.integers(1, 3))
))
def test_graft_free_expressions_are_additive(case):
    p, expr, depth = case
    report = check_relation(expr, p, depth)
    assert report.passed, report.violations[:1]
    assert expr_from_json(expr_to_json(expr), p) == expr


def _nested_regularize(depth):
    expr = Mazur()
    for i in range(depth):
        expr = Regularize(1 + i % 2, F(2) if i % 3 else F(-3, 2), expr)
    return expr


@pytest.mark.parametrize(
    "expr, p, n, reps",
    [
        # 2^10 scalar calls per ball; one inner level per node on the level path
        (_nested_regularize(10), 5, 3, [0, 7, 124]),
        # the one ball containing a deeper cell carries the value on the cell
        (Restrict(Ball(3, 3, 14), Mazur()), 3, 1, None),
        # a branch below the level sums its depth-k subtrees
        (Branch(2, tuple(Dirac(t) if t % 2 else Haar(t) for t in range(9))), 3, 0, None),
        # `evaluate` meets table entry 2 (digits 0, 1) before entry 1 on Z_2,
        # the level path meets entry 1 first: the error is still entry 2's
        (Branch(2, (Haar(), Regularize(1, F(2), Mazur()), Dirac(F(1, 2)), Haar())), 2, 0, None),
        # every path digit is p - 1, so no ball goes right: the faulty right
        # side is never evaluated, on a whole level or on a range
        (Graft(Path(5, (), (4,)), Mazur(), Dirac(F(1, 5))), 5, 3, None),
        (Graft(Path(5, (), (4,)), Mazur(), Dirac(F(1, 5))), 5, 3, range(4, 125, 5)),
        # Regularize asks its inner expression for B = 1 and alpha * B = 3
        # in one request, where the first term sends ball 3 to a faulty
        # Dirac; on ball 1 alone, the error is the second term's alpha=5
        (
            Regularize(1, 3, LinearComb((
                (1, Graft(Path(5, (), (2,)), Mazur(), Dirac(F(1, 5)))),
                (1, Graft(Path(5, (), (2,)), Regularize(1, 5, Mazur()), Mazur())),
            ))),
            5, 1, [1],
        ),
        # one ball of depth 0 meets the depth-3 cells in the order t = 0, 4,
        # 2, 6, ...: t = 6 (digits 0, 1, 1) raises before t = 1 does
        (
            Branch(3, tuple(
                Haar() if t == 0 else Regularize(1, 2, Mazur()) if t % 3 == 0
                else Dirac(F(t, 2)) for t in range(8)
            )),
            2, 0, [0],
        ),
    ],
)
def test_named_cases(expr, p, n, reps):
    _assert_agrees(expr, p, n, reps)


def _scalar_violations(expr, p, depth):
    """(ball, value, children's sum) where additivity fails, ball by ball."""
    found = []
    for n in range(depth):
        q = p**n
        for a in range(q):
            lhs = evaluate(expr, Ball(p, n, a))
            rhs = sum((evaluate(expr, Ball(p, n + 1, a + b * q)) for b in range(p)), F(0))
            if lhs != rhs:
                found.append((Ball(p, n, a), lhs, rhs))
    return found


def _assert_violations_match(expr, p, depth):
    report = check_relation(expr, p, depth)
    got = [(v.ball, v.lhs, v.rhs_sum) for v in report.violations]
    assert got == _scalar_violations(expr, p, depth)


@SETTINGS
@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(
        expressions(p), st.just(p), st.integers(1, max(d for d in (1, 2, 3) if p**d <= 125))
    )
))
def test_relation_violations_match_scalar_oracle(case):
    # Grafts of arbitrary sides are often not additive: the violations, their
    # order and their values must be those of a ball-by-ball check.
    _assert_violations_match(*case)


@pytest.mark.parametrize(
    "expr, p, depth",
    [
        # the deep cell leaves the left side at level 1, so the level-1
        # denominator (1) is no multiple of the level-0 one (250); the
        # numerators agree (-123 both) while the values do not
        (
            Graft(
                Path(5, (), (0,)),
                Restrict(Ball(5, 3, 1), Mazur()),
                LinearComb(((F(-123), Dirac(2)),)),
            ),
            5,
            2,
        ),
        # violations on two on-path balls only, at depths 0 and 2
        (Graft(Path(3, (1,), (2, 0)), Haar(), Mazur()), 3, 4),
    ],
)
def test_relation_violations_named_cases(expr, p, depth):
    _assert_violations_match(expr, p, depth)


@pytest.mark.parametrize(
    "p, n, reps",
    [(4, 1, None), (5, -1, None), (5, True, None), (5, 1, [5]), (5, 1, [-1]), (5, 1, [True])],
)
def test_level_rejects_bad_requests(p, n, reps):
    with pytest.raises(ValueError):
        evaluate_level(Mazur(), p, n, reps)


def test_level_rejects_non_expressions():
    with pytest.raises(TypeError):
        evaluate_level("mazur", 5, 1)


def test_empty_request_evaluates_nothing():
    assert evaluate_level(Dirac(F(1, 5)), 5, 2, []) == ([], 1)
