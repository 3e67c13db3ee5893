"""The level-wise evaluator against the scalar one, on random expressions.

The scalar `evaluate` of `scalar_oracle` is the oracle: `evaluate_level` must
give the same exact value on every requested ball, and where the oracle
raises on some requested ball, `evaluate_level` must raise what it raises on
the first such ball.  Requests are whole levels, rep lists and rep ranges;
a one-ball request is what `padicdist.evaluate` makes.  `check_relation` must
report the violations a ball-by-ball check with the oracle finds, in order.
The random expressions hold some sub-expressions in two places as one
object, so the memo of shared nodes is checked against the oracle too.
"""

import time
from fractions import Fraction as F
from functools import lru_cache
from math import lcm

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
    NotPAdicIntegerError,
    Path,
    Regularize,
    Restrict,
    check_relation,
    distributions,
    evaluate_level,
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

    def twice(x):
        # One object in two slots: `evaluate_level` evaluates it once per
        # request, from its memo of shared nodes.
        options = [
            st.builds(lambda a, b: LinearComb(((a, x), (b, x))), coefficients(), coefficients())
        ]
        if grafts:
            options.append(paths(p).map(lambda path: Graft(path, x, x)))
        return st.one_of(options)

    def extend(inner):
        options = [
            st.lists(st.tuples(coefficients(), inner), max_size=3).map(
                lambda terms: LinearComb(tuple(terms))
            ),
            st.builds(Restrict, cells(p), inner),
            regularized(inner),
            regularized(regularized(inner)),
            branches(p, inner),
            inner.flatmap(twice),
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


NODE_TYPES = (
    "dirac", "haar", "mazur", "bernoulli", "lincomb", "restrict", "regularize", "graft", "branch"
)


def rooted(p, kind, faults=False):
    """Expressions whose root is of the given node type."""
    inner = expressions(p, faults=faults)
    return {
        "dirac": points(p).map(Dirac),
        "haar": coefficients().map(Haar),
        "mazur": st.just(Mazur()),
        "bernoulli": st.integers(1, 4).map(Bernoulli),
        "lincomb": st.lists(st.tuples(coefficients(), inner), min_size=1, max_size=3).map(
            lambda terms: LinearComb(tuple(terms))
        ),
        "restrict": st.builds(Restrict, cells(p), inner),
        "regularize": st.builds(Regularize, st.integers(1, 3), units(p), inner),
        "graft": st.builds(Graft, paths(p), inner, inner),
        "branch": branches(p, inner),
    }[kind]


def step_one_ranges(m):
    """Step-1 ranges below m of up to 24 reps: empty, one ball, or cutting
    the residue classes of the Restrict, Graft and Branch kernels at both
    ends, since they start and stop anywhere."""
    return st.tuples(st.integers(0, m), st.integers(0, 24)).map(
        lambda s: range(s[0], min(m, s[0] + s[1]))
    )


def _outcome(*args):
    try:
        return "returned", evaluate_level(*args)
    except (ValueError, TypeError) as exc:
        return "raised", type(exc), str(exc)


@settings(SETTINGS, max_examples=60)
@pytest.mark.parametrize("kind", NODE_TYPES)
@given(data=st.data())
def test_range_request_equals_list_request(kind, data):
    # A step-1 range takes the slice kernels, the same reps as a list take
    # the per-ball ones; both must match the scalar oracle ball by ball.
    p = data.draw(st.sampled_from(PRIMES))
    n = data.draw(st.integers(0, MAX_DEPTH))
    expr = data.draw(rooted(p, kind, faults=data.draw(st.booleans())))
    reps = data.draw(step_one_ranges(p**n))
    _assert_range_equals_list(expr, p, n, reps)


def _assert_range_equals_list(expr, p, n, reps):
    assert _outcome(expr, p, n, reps) == _outcome(expr, p, n, list(reps))
    _assert_agrees(expr, p, n, reps)


BIG = 10007
_GRAFT_2 = Graft(Path(BIG, (), (1, 2)), Mazur(), Haar(F(1, 3)))
_GRAFT_3 = Graft(
    Path(BIG, (5,), (BIG - 1, 0, 3)), LinearComb(((F(1, 2), Mazur()),)), Haar(F(2, 7))
)
_ON_2 = 5 + (BIG - 1) * BIG  # the on-path ball of _GRAFT_3 at depth 2


@pytest.mark.parametrize(
    "expr, n, reps",
    [
        (_GRAFT_2, 1, range(0, 5)),
        (_GRAFT_2, 1, range(BIG - 3, BIG)),
        # Ranges that cut the classes of digits 0 and 1 at both ends.
        (_GRAFT_2, 2, range(BIG - 3, BIG + 3)),
        (_GRAFT_2, 2, range(BIG * BIG - 4, BIG * BIG)),
        # Every class of digit 0 and a few of digit 1.
        (_GRAFT_2, 2, range(0, 2 * BIG + 5)),
        # One ball on the path, one that leaves it at digit 2.
        (_GRAFT_2, 3, range(1 + 2 * BIG + BIG**2, 2 + 2 * BIG + BIG**2)),
        (_GRAFT_2, 3, range(1 + 2 * BIG + 5 * BIG**2, 2 + 2 * BIG + 5 * BIG**2)),
        (_GRAFT_3, 2, range(_ON_2 - 3, _ON_2 + 3)),
        (_GRAFT_3, 3, range(_ON_2 - 2, _ON_2 + 2)),
        (_GRAFT_3, 3, range(_ON_2 + 3 * BIG**2, _ON_2 + 3 * BIG**2 + 1)),
    ],
)
def test_range_request_equals_list_request_for_grafts_at_a_large_prime(expr, n, reps):
    _assert_range_equals_list(expr, BIG, n, reps)


def test_graft_range_requests_at_a_large_prime_cost_their_balls():
    # A graft's range request lists only the residue classes it meets: a
    # one-ball range costs n steps, not n * (p - 1) + 1 classes.
    p = 999983
    g = Graft(Path(p, (), (1,)), Mazur(), Haar())
    elapsed = 0.0
    for n in (1, 2, 3):
        on_path = (p**n - 1) // (p - 1)
        for r in sorted({0, 2, on_path, on_path + 1, p + 1, p**n - 1}):
            if r < p**n:
                start = time.perf_counter()
                nums, den = evaluate_level(g, p, n, range(r, r + 1))
                elapsed += time.perf_counter() - start
                assert elapsed < 0.5, (n, r)
                assert [F(x, den) for x in nums] == [evaluate(g, Ball(p, n, r))]


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


# Each expression below that holds _SHARED holds it twice, so a request
# memoizes it.
_SHARED = Regularize(1, 2, Mazur())
_NOT_A_UNIT = Regularize(1, 5, Mazur())


@pytest.mark.parametrize(
    "expr",
    [
        # the shared node is the first dense term, with factor 1 (the point
        # masses' coefficients are integers), and is read again afterwards:
        # a point mass added into its memo entry would show in the second read
        LinearComb((
            (1, LinearComb(((1, _SHARED), (1, Dirac(2)), (-1, Dirac(7))))),
            (2, _SHARED),
        )),
        # the same with a point mass before the dense term, and one that
        # the step-1 range and the rep list miss
        LinearComb((
            (1, LinearComb(((3, Dirac(F(1, 3))), (1, _SHARED), (-3, Dirac(24))))),
            (-1, _SHARED),
        )),
        # point masses only: two on one point, one with a zero coefficient
        LinearComb((
            (F(2, 3), Dirac(F(1, 2))), (F(-1, 4), Dirac(3)),
            (F(5, 6), Dirac(F(1, 2))), (0, Dirac(7)),
        )),
        # a zero coefficient still evaluates its term: a point outside Z_p raises
        LinearComb(((1, Mazur()), (0, Dirac(F(1, 5))))),
        # a faulty point mass and a faulty dense term: the first one raises
        LinearComb(((1, Dirac(F(1, 5))), (1, _NOT_A_UNIT))),
        LinearComb(((1, _NOT_A_UNIT), (1, Dirac(F(1, 5))))),
        LinearComb(((1, Mazur()), (F(1, 2), _NOT_A_UNIT), (F(1, 3), Dirac(F(2, 5))))),
        LinearComb(((1, Haar(3)), (F(1, 3), Dirac(F(2, 5))), (F(1, 2), _NOT_A_UNIT))),
    ],
    ids=["shared-first", "shared-after-mass", "masses-only", "zero-outside",
         "mass-then-dense", "dense-then-mass", "dense-fault-first", "mass-fault-first"],
)
@pytest.mark.parametrize(
    "reps", [None, range(3, 20), range(24, 0, -3), [7, 2, 7, 0, 2, 13, 13]],
    ids=["level", "range", "stepped-range", "duplicates"],
)
def test_linear_comb_named_cases(expr, reps):
    _assert_agrees(expr, 5, 2, reps)


def affine_trees():
    """Haar and Mazur terms and linear combinations affine throughout, nested
    a few deep, zero and negative coefficients included."""
    return st.recursive(
        st.one_of(coefficients().map(Haar), st.just(Mazur())),
        lambda inner: st.lists(st.tuples(coefficients(), inner), min_size=1, max_size=3).map(
            lambda terms: LinearComb(tuple(terms))
        ),
        max_leaves=8,
    )


@st.composite
def affine_requests(draw):
    """(p, n, reps), reps never empty: a whole level, a step-1 range, a
    range stepped by p^j as a Graft or a Branch passes its residue classes
    down, or a list with repeats."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(["whole", "step-1", "stepped", "repeats"]))
    if kind == "whole":
        n = draw(st.integers(0, max(d for d in range(MAX_DEPTH + 1) if p**d <= 125)))
        return p, n, None
    n = draw(st.integers(1 if kind == "stepped" else 0, MAX_DEPTH))
    m = p**n
    if kind == "repeats":
        reps = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=8))
        return p, n, reps + draw(st.lists(st.sampled_from(reps), min_size=1, max_size=4))
    step = p ** draw(st.integers(1, n)) if kind == "stepped" else 1
    start = draw(st.integers(0, m - 1))
    return p, n, range(start, draw(st.integers(start + 1, min(m, start + 30 * step))), step)


@SETTINGS
@given(data=st.data())
def test_linear_comb_with_affine_terms_agrees_with_scalar_evaluate(data):
    # The affine terms of a linear combination are summed into one form when
    # it is built, and evaluated as one dense term; the point masses and the
    # other terms are evaluated as before, so the values, the denominator
    # and the first failing ball's error are those of term-by-term evaluation.
    p, n, reps = data.draw(affine_requests())
    others = st.one_of(points(p).map(Dirac), st.integers(1, 3).map(Bernoulli), expressions(p))
    affine = data.draw(st.lists(st.tuples(coefficients(), affine_trees()), min_size=1, max_size=4))
    mixed = data.draw(
        st.lists(st.tuples(coefficients(), st.one_of(affine_trees(), others)), max_size=4)
    )
    for terms in (affine, affine + mixed, mixed + affine):
        expr = LinearComb(tuple(terms))
        _assert_agrees(expr, p, n, reps)
        dens = (c.denominator * evaluate_level(e, p, n, reps)[1] for c, e in expr.terms)
        assert evaluate_level(expr, p, n, reps)[1] == lcm(*dens)
    fault = (data.draw(coefficients()), data.draw(faulty_leaves(p)))
    _assert_agrees(LinearComb(tuple(affine + [fault] + mixed)), p, n, reps)


# A Regularize over a leaf asks the leaf for the balls and their images as
# two requests, the first kept a range where it is one.
LEAVES = {
    "mazur": Mazur(),
    "haar": Haar(F(2, 3)),
    "bernoulli": Bernoulli(2),
    "dirac-inside": Dirac(F(7, 3)),
    "dirac-outside": Dirac(F(1, 5)),
}


@pytest.mark.parametrize("leaf", LEAVES.values(), ids=LEAVES)
@pytest.mark.parametrize(
    "k, alpha", [(1, F(2)), (2, F(-3, 2)), (3, F(-3, 2)), (1, F(5)), (2, F(1, 5))],
    ids=["2", "-3/2-even", "-3/2-odd", "not-a-unit", "not-a-unit-inverse"],
)
@pytest.mark.parametrize(
    "reps", [range(10, 20), range(24, 0, -3), [7, 2, 7, 0, 2, 13, 13], [3]],
    ids=["wrapping-range", "stepped-range", "duplicates", "one-ball"],
)
def test_regularize_over_a_leaf(leaf, k, alpha, reps):
    # Under alpha = 2 the range 10..19 maps onto 20..24 and 0..13: its
    # images wrap round the level, out of order.
    _assert_agrees(Regularize(k, alpha, leaf), 5, 2, reps)


@pytest.mark.parametrize(
    "expr, error, message",
    [
        (Regularize(1, 5, Mazur()), ValueError, "alpha=5 is not a unit of Z_p for p=5"),
        (Regularize(2, F(1, 5), Haar()), ValueError, "alpha=1/5 is not a unit of Z_p for p=5"),
        (Regularize(1, 2, Dirac(F(1, 5))), NotPAdicIntegerError,
         "1/5 is not a p-adic integer for p=5"),
        (Regularize(1, 2, Dirac(F(-7, 10))), NotPAdicIntegerError,
         "-7/10 is not a p-adic integer for p=5"),
    ],
)
@pytest.mark.parametrize("reps", [None, range(10, 20), range(24, 0, -3), [7, 2, 7], [3]])
def test_regularize_over_a_leaf_raises_its_one_error(expr, error, message, reps):
    with pytest.raises(error) as info:
        evaluate_level(expr, 5, 2, reps)
    assert type(info.value) is error and str(info.value) == message


def regularize_alphas(p, n):
    """Units alpha != 1: small integers, whose images wrap round p^n a few
    times on a level, integers near p^n / 2, and fractions, which wrap
    round so often that the general path serves the range instead."""
    half = p**n // 2
    return st.one_of(
        st.integers(-6, 6),
        st.integers(half - 3, half + 3),
        st.builds(F, st.integers(-12, 12), st.integers(2, 9)),
    ).map(F).filter(lambda a: a != 1 and a.numerator % p and a.denominator % p)


@st.composite
def regularize_runs_cases(draw):
    """(expr, p, n, reps): a Regularize over an affine inner, on a whole
    level, a step-1 sub-range or a one-ball range."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(0, max(d for d in range(7) if p**d <= 729)))
    inner = draw(st.one_of(st.just(Haar(0)), affine_trees()))
    expr = Regularize(draw(st.integers(1, 3)), draw(regularize_alphas(p, n)), inner)
    m = p**n
    kind = draw(st.sampled_from(["whole", "step-1", "one-ball"]))
    if kind == "whole":
        return expr, p, n, None
    start = draw(st.integers(0, m - 1))
    stop = start + 1 if kind == "one-ball" else draw(st.integers(start + 1, m))
    return expr, p, n, range(start, stop)


@SETTINGS
@given(regularize_runs_cases())
def test_regularize_runs_agree_with_the_general_path_and_scalar_evaluate(case):
    # A Regularize over an affine inner serves a step-1 range as one
    # progression per run of reps whose images do not wrap round p^n, where
    # the runs hold enough balls: the same numerators and denominator as
    # the general path, which a prohibitive cut forces, and as the oracle.
    expr, p, n, reps = case
    _assert_agrees(expr, p, n, reps)
    runs = evaluate_level(expr, p, n, reps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributions, "_BALLS_PER_RUN", float("inf"))
        assert evaluate_level(expr, p, n, reps) == runs


def _count_calls(patch, kernel, names=()):
    # Wrap kernel in distributions under each of names; the list of the
    # first arguments it was called with.
    calls = []

    def counting(e, *args):
        calls.append(e)
        return kernel(e, *args)

    for name in names:
        patch.setattr(distributions, name, counting)
    return calls


def test_regularize_over_mazur_on_a_whole_level_calls_no_leaf_kernel(monkeypatch):
    # E_(1,2) at p = 5, depth 6: alpha * rep wraps round 5^6 once on the
    # level, so the level is two runs of one value each.
    expr, p, n = Regularize(1, 2, Mazur()), 5, 6
    expected = evaluate_level(expr, p, n, list(range(p**n)))  # a list takes no runs
    calls = _count_calls(monkeypatch, distributions._level_form, ["_level_form"])
    nums, den = evaluate_level(expr, p, n)
    assert calls == []
    monkeypatch.undo()
    assert (nums, den) == expected and len(set(nums)) == 2
    for r in (0, 1, 7812, 7813, 15624):
        assert F(nums[r], den) == evaluate(expr, Ball(p, n, r))


def test_regularize_over_an_affine_linear_comb_on_a_list_makes_no_inner_request(monkeypatch):
    # A linear combination affine throughout is one affine form, asked for
    # the balls and their images as two plain requests: no union request.
    inner = LinearComb(((2, Mazur()), (-1, Haar(3))))
    expr, p, n, reps = Regularize(1, 2, inner), 7, 3, [10, 20, 30, 40, 50]
    calls = _count_calls(monkeypatch, distributions._level, ["_level"])
    nums, den = evaluate_level(expr, p, n, reps)
    assert calls == [expr]  # the Regularize's own request, none for its inner
    monkeypatch.undo()
    assert [F(x, den) for x in nums] == [evaluate(expr, Ball(p, n, r)) for r in reps]


# Haar, Mazur and Bernoulli(3) terms, summed into one cubic form when built.
FOLDED = LinearComb(((F(2, 3), Haar(5)), (-3, Mazur()), (F(1, 7), Bernoulli(3))))


@pytest.mark.parametrize(
    "reps", [None, range(7, 90), [3, 3, 124, 0]], ids=["whole", "range", "list"]
)
def test_a_linear_comb_of_forms_makes_one_form_call_per_request(reps, monkeypatch):
    p, n = 5, 3
    calls = _count_calls(monkeypatch, distributions._level_form, ["_level_form"])
    nums, den = evaluate_level(FOLDED, p, n, reps)
    assert calls == [FOLDED._form]  # one call with the summed form, none per term
    monkeypatch.undo()
    balls = range(p**n) if reps is None else reps
    assert [F(x, den) for x in nums] == [evaluate(FOLDED, Ball(p, n, r)) for r in balls]


def test_regularize_over_a_folded_linear_comb_on_a_list_makes_two_leaf_requests(monkeypatch):
    # The balls and their images are two plain requests of the one form:
    # no union request through `_level`.
    expr, p, n, reps = Regularize(2, 3, FOLDED), 7, 3, [10, 20, 30, 40, 50]
    requests = _count_calls(monkeypatch, distributions._level, ["_level"])
    leaves = _count_calls(monkeypatch, distributions._level_form, ["_level_form"])
    nums, den = evaluate_level(expr, p, n, reps)
    assert requests == [expr] and leaves == [FOLDED._form] * 2
    monkeypatch.undo()
    assert [F(x, den) for x in nums] == [evaluate(expr, Ball(p, n, r)) for r in reps]


@pytest.mark.parametrize(
    "reps", [None, range(3, 40), [7, 7, 15000, 2]], ids=["whole", "range", "list"]
)
def test_regularize_over_haar_is_one_value_on_any_request_for_any_alpha(reps, monkeypatch):
    # With alpha = 1/3 the images wrap round 5^6 on almost every ball, yet a
    # Haar takes one value on the whole level: every ball's numerator is
    # (u - v)(B + C m), with no inner request and no general path.
    expr, p, n = Regularize(1, F(1, 3), Haar()), 5, 6
    requests = _count_calls(monkeypatch, distributions._level, ["_level"])
    leaves = _count_calls(monkeypatch, distributions._level_form, ["_level_form"])
    nums, den = evaluate_level(expr, p, n, reps)
    assert requests == [expr] and leaves == []  # the Regularize's own request only
    monkeypatch.undo()
    assert len(set(nums)) == 1 and len(nums) == (p**n if reps is None else len(reps))
    assert F(nums[0], den) == evaluate(expr, Ball(p, n, 7))


def _best_time(expr, p, n, reps, runs=3):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        evaluate_level(expr, p, n, reps)
        best = min(best, time.perf_counter() - start)
    return best


def _same_alpha_chain(depth):
    expr = Mazur()
    for _ in range(depth):
        expr = Regularize(1, 2, expr)
    return expr


@pytest.mark.parametrize(
    "expr", [_same_alpha_chain(20), _nested_regularize(20)], ids=["same-alpha", "mixed-alpha"]
)
def test_nested_regularize_chains_stay_linear(expr, monkeypatch):
    # Each Regularize above another asks it for the balls and their images
    # in one request, so a 20-deep chain costs one request per node, of at
    # most a level each.  Splitting those requests too would cost i + 1
    # requests at nesting depth i, several times this time bound.
    p, n, reps = 5, 6, range(100, 2100)
    assert _best_time(expr, p, n, reps) < 0.5
    requests = []
    level = distributions._level

    def counting(e, *args):
        requests.append(e)
        return level(e, *args)

    monkeypatch.setattr(distributions, "_level", counting)
    nums, den = evaluate_level(expr, p, n, reps)
    assert len(requests) <= 21
    monkeypatch.undo()
    for i in (0, 777, 1999):
        assert evaluate_level(expr, p, n, [reps[i]]) == ([nums[i]], den)


def _doubling_chain(links):
    # a_i = a_(i-1) + a_(i-1) over a_0 = Mazur: 2^links * Mazur.
    expr = Mazur()
    for _ in range(links):
        expr = LinearComb(((1, expr), (1, expr)))
    return expr


_MIXED = LinearComb(((F(2, 3), Mazur()), (F(-1), Haar(F(5, 7))), (F(3), Dirac(F(1, 3)))))


@pytest.mark.parametrize(
    "expr, n, reps",
    [(_MIXED, 2, range(25)), (_MIXED, 2, [3, 17, 3]), (_doubling_chain(40), 6, range(5**6))],
    ids=["range", "list", "chain-40"],
)
def test_linear_comb_calls_its_leaf_terms_kernels_directly(expr, n, reps, monkeypatch):
    # A linear combination of base families is one request, its own: its
    # affine terms are one form, and a point mass goes to the rep it hits.
    # A linear combination affine throughout, nested however deep, is one
    # form: the 40-link chain is one request of one pass, not 2^40 leaves.
    p = 5
    expected = evaluate_level(expr, p, n, reps)
    requests = []
    level = distributions._level

    def counting(e, *args):
        requests.append(e)
        return level(e, *args)

    monkeypatch.setattr(distributions, "_level", counting)
    assert evaluate_level(expr, p, n, reps) == expected
    assert requests == [expr]
    monkeypatch.undo()
    if expr is _MIXED:
        for i, r in enumerate(reps):
            assert evaluate(expr, Ball(p, n, r)) == F(expected[0][i], expected[1])
    else:
        # The scalar oracle would walk the chain's 2^40 leaves.
        nums, den = evaluate_level(Mazur(), p, n, reps)
        assert expected == ([2**40 * x for x in nums], den)


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
