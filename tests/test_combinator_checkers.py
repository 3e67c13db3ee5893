"""Restrict, Branch and Graft in the checkers and in the gather step.

`check_relation` proves a Restrict or a Branch additive from its own
condition and its parts' (`verify._proved`), and lists a Graft's levels.
The oracle is the same call with the predicate patched to prove nothing,
so that every pair is listed:
the report, its checked count, its violations, their order and values, and
any error raised must be the same.  The trees are drawn up to two
combinators deep, over members of S and over other leaves, with grafts
that fail their tail sum, paths of the digit p - 1 only, on which the
right side owns no ball, cells and paths over another prime, and faulty
parts that only some balls reach.

The gather step requests a part that holds no Restrict, Graft or Branch
once on a whole step-1 range when it owns several residue classes of it.
Its values and den must be the scalar oracle's and those of the gather
that requests the classes as one list.
"""

import importlib
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_evaluate_level import (
    SETTINGS,
    _assert_agrees,
    _other_prime,
    coefficients,
    points,
    units,
)
from test_piece_checkers import _requests
from test_searches import outcome

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
    distributions,
    evaluate_level,
)

VERIFY = importlib.import_module("padicdist.verify")
DEPTHS = {2: 6, 3: 4, 5: 3, 7: 2}
M = Mazur()


@contextmanager
def listing_every_pair():
    """`check_relation` with a predicate that proves nothing."""
    saved, VERIFY._proved = VERIFY._proved, lambda *args: False
    try:
        yield
    finally:
        VERIFY._proved = saved


@contextmanager
def class_gather(expr):
    """`evaluate_level` with no part plain, so that the gather requests a
    part's residue classes as one list."""
    nodes = list(distributions._walk([expr]))
    saved = [node._plain for node in nodes]
    for node in nodes:
        object.__setattr__(node, "_plain", False)
    try:
        yield
    finally:
        for node, plain in zip(nodes, saved):
            object.__setattr__(node, "_plain", plain)


def _assert_same_report(expr, p, depth):
    got = outcome(check_relation, expr, p, depth)
    with listing_every_pair():
        listed = outcome(check_relation, expr, p, depth)
    assert got == listed
    if got[0] == "returned":
        assert got[1].to_text() == listed[1].to_text()


# ----------------------------------------------------------------- generators

def faulty(p):
    """Leaves that raise on every ball they are evaluated on."""
    return st.one_of(
        st.builds(lambda u: Dirac(F(u, p)), st.integers(1, 9).filter(lambda u: u % p)),
        st.builds(Regularize, st.integers(1, 2), st.sampled_from([F(p), F(1, p)]), st.just(M)),
    )


def others(p):
    """Leaves outside S, or whose pieces are often missing: a Regularize
    over a point mass sum, a sum holding a Restrict, a Regularize over a
    Graft."""
    return st.one_of(
        st.builds(lambda a, x: Regularize(1, a, LinearComb(((1, M), (2, Dirac(x))))),
                  units(p), points(p)),
        st.builds(lambda c, r: LinearComb(((c, M), (1, Restrict(Ball(p, 1, r), Haar(2))))),
                  coefficients(), st.integers(0, p - 1)),
        st.builds(lambda a, d: Regularize(1, a, Graft(Path(p, (), (d,)), M, Haar(3))),
                  units(p), st.integers(0, p - 1)),
    )


def members(p):
    """Small members of S: the base families, Regularize over Mazur, whose
    pieces exist only where its runs are long, and sums of two."""
    base = st.one_of(
        points(p).map(Dirac),
        coefficients().map(Haar),
        st.just(M),
        st.integers(2, 4).map(Bernoulli),
        st.builds(Regularize, st.integers(1, 2), units(p), st.just(M)),
    )
    sums = st.builds(lambda a, x, b, y: LinearComb(((a, x), (b, y))),
                     coefficients(), base, coefficients(), base)
    return st.one_of(base, sums)


def leaves(p):
    return st.one_of(members(p), others(p), faulty(p))


def cells(p):
    q = _other_prime(p)
    own = st.integers(0, 3).flatmap(
        lambda n: st.builds(Ball, st.just(p), st.just(n), st.integers(0, p**n - 1))
    )
    return st.one_of(own, st.sampled_from([Ball(q, 0, 0), Ball(q, 1, 1)]))


def paths(p):
    """Paths of any digits, of the digit p - 1 only, of p - 1 first and
    then a smaller digit (the right side owns balls from there on), and
    one over another prime."""
    digits = st.integers(0, p - 1)
    top = p - 1
    return st.one_of(
        st.builds(lambda pre, per: Path(p, tuple(pre), tuple(per)),
                  st.lists(digits, max_size=2), st.lists(digits, min_size=1, max_size=2)),
        st.just(Path(p, (), (top,))),
        st.builds(lambda k, d: Path(p, (top,) * k, (d,)), st.integers(1, 3), st.integers(0, top)),
        st.just(Path(_other_prime(p), (), (1,))),
    )


def perturbed_grafts(p):
    """Graft(path, e + c (delta_x - delta_y), e), x and y leaving the path
    at digit j: additive when they leave it into one child, and a tail sum
    failure at P_j when x leaves it by a larger digit and y by a smaller."""
    def build(path, j, same, c, e):
        if path.prime != p:
            return Graft(path, e, e)
        return _graft(p, path, same, j, c, e)

    return st.builds(
        build, paths(p), st.integers(0, 2), st.booleans(), coefficients().filter(bool),
        st.sampled_from([M, Bernoulli(2), Haar(F(1, 3))]),
    )


def _graft(p, path, same, j=1, c=F(3, 2), e=M):
    # The digits that leave the path at j, the smallest first; x leaves by
    # the largest of them unless same, y by the smallest.
    head = sum(d * p**i for i, d in enumerate(path.digits(j)))
    off = [d for d in range(p) if d != path.digit(j)]
    x = head + off[0 if same else -1] * p**j + p ** (j + 1)
    y = head + off[0] * p**j + 2 * p ** (j + 1)
    return Graft(path, LinearComb(((1, e), (c, Dirac(x)), (-c, Dirac(y)))), e)


def _failing(p):
    # A graft that fails its tail sum at every P_n inside the ball 1 + (p),
    # and whose tail sums within the classes of digit 0 hold.
    return Graft(Path(p, (1 % p,), (0,)), M, Haar(2))


def combinators(p, inner):
    def branch(k, pool, extra):
        return Branch(k, tuple(pool[t % len(pool)] for t in range(p**k + extra)))

    return st.one_of(
        st.builds(Restrict, cells(p), inner),
        st.builds(branch, st.integers(1, 2), st.lists(inner, min_size=1, max_size=3),
                  st.sampled_from([0, 0, 0, 1])),
        st.builds(Graft, paths(p), inner, inner),
        perturbed_grafts(p),
    )


def trees(p):
    """A Restrict, a Branch or a Graft, up to two deep, over leaves."""
    return combinators(p, st.one_of(leaves(p), combinators(p, leaves(p))))


@st.composite
def checks(draw):
    p = draw(st.sampled_from(sorted(DEPTHS)))
    return draw(trees(p)), p, draw(st.integers(1, DEPTHS[p]))


# ---------------------------------------------------------------------- tests

@settings(SETTINGS, max_examples=300)
@given(case=checks())
def test_proving_pairs_part_by_part_keeps_the_report_and_the_error(case):
    _assert_same_report(*case)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize(
    "build",
    [
        lambda p: _graft(p, Path(p, (1,), (0,)), True),
        lambda p: _graft(p, Path(p, (0,), (1,)), False),
        lambda p: Graft(Path(p, (), (p - 1,)), M, Dirac(F(1, p))),
        lambda p: Graft(Path(p, (p - 1, p - 1), (0,)), Bernoulli(2), Regularize(1, p, M)),
        lambda p: Graft(Path(p, (0,), (1 % p,)), M, Haar(2)),
        lambda p: Restrict(Ball(p, 1, p - 1), Graft(Path(p, (p - 1,), (0,)), M, Dirac(F(1, p)))),
        lambda p: Restrict(Ball(_other_prime(p), 1, 1), M),
        lambda p: Restrict(Ball(_other_prime(p), 0, 0), M),
        lambda p: Branch(1, tuple(Dirac(F(1, p)) if t else M for t in range(p))),
        lambda p: Branch(1, (M,) * (p + 1)),
        lambda p: Branch(1, tuple(Restrict(Ball(p, 2, t), Bernoulli(3)) for t in range(p))),
        lambda p: Graft(Path(p, (), (0,)), M, _failing(p)),
        lambda p: Restrict(Ball(p, 1, 1), _failing(p)),
        lambda p: Branch(1, tuple(_failing(p) if t == 1 else M for t in range(p))),
    ],
    ids=["tail-sum-holds", "tail-sum-fails", "right-never-read", "right-read-late",
         "graft-of-two-forms", "faulty-side-outside-the-cell", "cell-over-another-prime",
         "root-cell-over-another-prime",
         "faulty-child", "misfit-table", "restricted-children", "failing-right-side",
         "failing-inner", "failing-child"],
)
def test_reports_on_chosen_combinators(p, build):
    _assert_same_report(build(p), p, DEPTHS[p])


@pytest.mark.parametrize("p, expr, fails", [
    (3, _graft(3, Path(3, (1,), (0,)), True), False),
    (3, _graft(3, Path(3, (0,), (1,)), False), True),
    (5, Graft(Path(5, (), (4,)), M, Dirac(F(1, 5))), False),
])
def test_graft_reports_find_their_tail_sum_failures(p, expr, fails):
    # The oracle's verdict, not only its agreement: a graft that fails its
    # tail sum at P_1 fails there and nowhere else.
    report = check_relation(expr, p, 4)
    assert report.passed is not fails
    assert [(v.ball.depth, v.ball.rep) for v in report.violations] == (
        [(1, expr.path.digit(0))] if fails else []
    )


_LEAVES_OF_S = (M, Haar(2), Dirac(F(1, 2)), Bernoulli(2), LinearComb(((1, M), (3, Dirac(4)))))


# No form: a Regularize over a form of degree 3 plus a point mass, proved
# from its construction at every depth.
_E = LinearComb(((1, Regularize(1, 2, Bernoulli(3))), (F(3, 2), Dirac(F(1, 2)))))


# Each case with the depth below which its root is additive by its own
# construction, whatever its parts: a Restrict's cell depth, a Branch's
# level, None for neither.
@pytest.mark.parametrize(
    "expr, below",
    [
        (Restrict(Ball(3, 2, 5), Bernoulli(3)), 2),
        (Restrict(Ball(3, 1, 1), LinearComb(((F(1, 2), Haar(1)), (2, Dirac(F(1, 2)))))), 1),
        (Branch(2, tuple(_LEAVES_OF_S[t % 5] for t in range(9))), 2),
        (Branch(1, (M, Haar(2), Dirac(F(1, 2)))), 1),
        (_E, None),
        (Restrict(Ball(3, 2, 5), _E), 2),
        (Branch(1, (_E, Haar(2), _E)), 1),
    ],
)
def test_a_deep_check_requests_only_the_pairs_below_its_depth(monkeypatch, expr, below):
    # To depth 40 at p = 3 a listed pair would hold 10^19 balls: the parts
    # below a combinator are proved from their constructions, and so are
    # the pairs below a cell or a level, so no pair is requested, not even
    # in a check that stops below the cell or the level.
    calls = _requests(monkeypatch)
    report = check_relation(expr, 3, 40, ball_budget=10**30)
    assert report.passed and report.checked_count == (3**40 - 1) // 2
    if below is not None:
        assert check_relation(expr, 3, below).passed
    assert calls == []


def test_a_restrict_to_a_deep_cell_of_a_proved_measure_requests_no_level(monkeypatch):
    # The 12 pairs above the cell carry Mazur's value on it or 0.
    calls = _requests(monkeypatch)
    report = check_relation(Restrict(Ball(3, 12, 5), Mazur()), 3, 13, ball_budget=10**7)
    assert report.passed and calls == []


# ------------------------------------------------------------ the gather step

def gathers(p):
    """Grafts, some below a Restrict or a Branch, whose plain sides own
    several residue classes of a range, with faulty sides, sides of
    different denominators, and sides that own no ball of a request."""
    plain = st.one_of(members(p), others(p).filter(lambda e: e._plain), faulty(p))
    graft = st.builds(Graft, paths(p), plain, plain)
    return st.one_of(graft, combinators(p, st.one_of(plain, graft)))


@st.composite
def requests(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 4 if p < 5 else 3))
    m = p**n
    kind = draw(st.sampled_from(["whole", "range", "list"]))
    if kind == "whole":
        reps = None
    elif kind == "range":
        start = draw(st.integers(0, m))
        reps = range(start, min(m, start + draw(st.integers(0, 30))))
    else:
        reps = draw(st.lists(st.integers(0, m - 1), max_size=12))
    return draw(gathers(p)), p, n, reps


def _outcome(*args):
    try:
        return "returned", evaluate_level(*args)
    except (ValueError, TypeError) as exc:
        return "raised", type(exc), str(exc)


def _assert_gathers_agree(expr, p, n, reps):
    # The values against the scalar oracle; the values, den and error
    # against the class gather and against the same reps as a list, which
    # the kernels serve ball by ball.
    _assert_agrees(expr, p, n, reps)
    got = _outcome(expr, p, n, reps)
    with class_gather(expr):
        assert _outcome(expr, p, n, reps) == got
    assert _outcome(expr, p, n, list(range(p**n) if reps is None else reps)) == got


@settings(SETTINGS, max_examples=300)
@given(case=requests())
def test_whole_range_requests_of_plain_parts_agree_with_the_oracles(case):
    _assert_gathers_agree(*case)


BIG = 10007


@pytest.mark.parametrize(
    "expr, p, n, reps",
    [
        # The right side owns no ball: its faulty point and its
        # denominator must not reach the result.
        (Graft(Path(5, (), (4,)), M, Dirac(F(1, 5))), 5, 3, None),
        (Graft(Path(5, (), (4,)), Bernoulli(2), Haar(F(1, 7))), 5, 3, range(20, 90)),
        # A range inside the right side's classes: the left owns no ball.
        (Graft(Path(BIG, (), (1,)), LinearComb(((F(1, 3), M),)), Haar(F(2, 7))), BIG, 2,
         range(2 * BIG + 2, 2 * BIG + 40)),
        # A range inside the left side's classes, cut at both ends.
        (Graft(Path(BIG, (), (BIG - 2,)), Haar(F(1, 3)), LinearComb(((F(1, 11), M),))), BIG, 2,
         range(BIG + 3, 3 * BIG - 3)),
        # Both sides own several classes, and one side is a point mass.
        (Graft(Path(3, (1,), (0, 2)), LinearComb(((1, M), (2, Dirac(7)))), Bernoulli(3)), 3, 4,
         range(5, 70)),
        (Restrict(Ball(3, 1, 2), Graft(Path(3, (2,), (1,)), Regularize(1, 2, M), M)), 3, 4, None),
        # A left side that is no plain part owns several classes, and only
        # the right side's balls reach its cell: neither the cell's
        # denominator nor its faulty point may reach the result.
        (Graft(Path(3, (), (1,)), Restrict(Ball(3, 3, 2), Haar(F(1, 7))), M), 3, 2, None),
        (Graft(Path(3, (), (1,)), Restrict(Ball(3, 1, 2), Dirac(F(1, 3))), M), 3, 2, None),
    ],
)
def test_grafts_whose_sides_own_few_or_no_balls(expr, p, n, reps):
    _assert_gathers_agree(expr, p, n, reps)
