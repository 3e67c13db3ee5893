"""The level-wise witness searches against the ball-by-ball ones they replace.

`distinctness_witness`, `check_branch_hypothesis` and
`check_graft_precondition` evaluate with `evaluate_shared`, which evaluates
a node held in several places once per request.  The scalar loops they
replaced are kept here as oracles: on random expressions, faulty nodes
included, each search must return what its oracle returns or raise the
exception its oracle raises, with the same type and message.  Inputs that
hold one object in several places must give what the same search gives
without that memo.
"""

import gc
import weakref
from fractions import Fraction as F
from typing import get_args
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import evaluate
from test_evaluate_level import (
    PRIMES,
    SETTINGS,
    branches,
    cells,
    coefficients,
    expressions,
    paths,
    points,
    units,
)

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
    check_branch_hypothesis,
    check_graft_precondition,
    distinctness_witness,
)
from padicdist import distributions, verify
from padicdist.distributions import DistExpr
from padicdist.verify import (
    BranchWitness,
    GraftPreconditionReport,
    OnPathFailure,
    TailSumFailure,
)

MAX_DEPTH = 3
# The all-pairs oracle costs the square of the table size per ball.
BRANCH_SETTINGS = settings(SETTINGS, max_examples=100)


# ---------------------------------------------------------------- oracles

def scalar_distinctness_witness(first, second, p, max_depth):
    for n in range(max_depth + 1):
        for rep in range(p**n):
            ball = Ball(p, n, rep)
            if evaluate(first, ball) != evaluate(second, ball):
                return ball
    return None


def scalar_branch_hypothesis(table, p, k, search_depth):
    # Every pair t < s, as the search did before it compared child 0 only.
    for t in range(len(table)):
        for s in range(t + 1, len(table)):
            if table[t] == table[s]:
                continue
            for n in range(k, search_depth + 1):
                for rep in range(p**n):
                    ball = Ball(p, n, rep)
                    if evaluate(table[t], ball) != evaluate(table[s], ball):
                        return BranchWitness(t, s, ball)
    return None


def scalar_graft_precondition(left, right, path, max_depth):
    p = path.prime
    on_path, tails = [], []
    rep = 0
    for n in range(max_depth + 1):
        here = Ball(p, n, rep)
        lv, rv = evaluate(left, here), evaluate(right, here)
        if lv != rv:
            on_path.append(OnPathFailure(n, lv, rv))
        i_n = path.digit(n)
        q = p**n
        below = above = F(0)
        for b in range(p):
            if b == i_n:
                continue
            child = Ball(p, n + 1, rep + b * q)
            diff = evaluate(left, child) - evaluate(right, child)
            if b < i_n:
                below += diff
            else:
                above += diff
        if below != 0 or above != 0:
            tails.append(TailSumFailure(n, below, above))
        rep += i_n * q
    return GraftPreconditionReport(p, path, max_depth, tuple(on_path), tuple(tails))


def outcome(search, *args):
    """What a search returns, or the type and message of what it raises."""
    try:
        return "returned", search(*args)
    except (ValueError, TypeError) as exc:
        return "raised", type(exc), str(exc)


# ------------------------------------------------------------- generators

def perturbed(p, e):
    """e + c (delta_x - delta_y), y = x + p^j u: differs from e from depth j+1 on."""
    return st.builds(
        lambda c, x, j, u: LinearComb(((F(1), e), (c, Dirac(x)), (-c, Dirac(x + p**j * u)))),
        st.integers(1, 3), points(p), st.integers(0, MAX_DEPTH), st.integers(1, p - 1),
    )


def equal_variant(e):
    """Equal to e in value on every ball, different in structure."""
    return LinearComb(((F(1, 3), e), (F(2, 3), e)))


def relatives(p, e, faults):
    # A second expression: unrelated, or one that differs from e only deep
    # down, or one equal to e in value, so witnesses sit at every depth.
    return st.one_of(
        expressions(p, faults=faults),
        perturbed(p, e),
        st.just(equal_variant(e)),
    )


@st.composite
def pairs(draw, faults=False):
    p = draw(st.sampled_from(PRIMES))
    first = draw(expressions(p, faults=faults))
    second = draw(relatives(p, first, faults))
    if draw(st.booleans()):
        first, second = second, first
    return p, first, second, draw(st.integers(0, MAX_DEPTH))


@st.composite
def tables(draw, faults=False):
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(1, 2 if p <= 3 else 1))
    base = draw(expressions(p, faults=faults))
    # Children are child 0 itself (structurally equal), variants equal to
    # it in value, or relatives that may differ: so the differing pairs often
    # leave child 0 out, and several children may first differ at one ball.
    kinds = st.sampled_from(["same", "variant", "relative"])
    table = [base]
    for _ in range(1, p**k):
        kind = draw(kinds)
        if kind == "same":
            table.append(base)
        elif kind == "variant":
            table.append(equal_variant(base))
        else:
            table.append(draw(relatives(p, base, faults)))
    return tuple(table), p, k, draw(st.integers(k, k + 1))


@st.composite
def graft_cases(draw, faults=False):
    p = draw(st.sampled_from(PRIMES))
    left = draw(expressions(p, faults=faults))
    right = draw(relatives(p, left, faults))
    return left, right, draw(paths(p)), draw(st.integers(0, MAX_DEPTH + 2))


# ------------------------------------------------------------ distinctness

@SETTINGS
@given(pairs())
def test_distinctness_matches_scalar_search(case):
    p, first, second, depth = case
    assert distinctness_witness(first, second, p, depth) == scalar_distinctness_witness(
        first, second, p, depth
    )


@SETTINGS
@given(pairs(faults=True))
def test_distinctness_raises_what_scalar_search_raises(case):
    p, first, second, depth = case
    assert outcome(distinctness_witness, first, second, p, depth) == outcome(
        scalar_distinctness_witness, first, second, p, depth
    )


def _requested_balls(search, *args):
    # Balls the search requests; one request evaluates both expressions.
    requested = []
    real = verify.evaluate_shared

    def counting(exprs, p, n, reps):
        requested.append(len(reps))
        return real(exprs, p, n, reps)

    with mock.patch.object(verify, "evaluate_shared", counting):
        result = search(*args)
    return result, sum(requested)


@SETTINGS
@given(pairs())
def test_distinctness_work_stays_within_twice_the_scalar_search(case):
    p, first, second, depth = case
    witness, requested = _requested_balls(distinctness_witness, first, second, p, depth)
    if witness is None:
        visited = sum(p**n for n in range(depth + 1))
    else:
        visited = sum(p**n for n in range(witness.depth)) + witness.rep + 1
    assert requested <= 2 * visited


def test_shallow_witness_at_a_large_prime_reads_two_balls():
    p = 1000003
    witness, requested = _requested_balls(
        lambda: distinctness_witness(Dirac(0), Dirac(1), p, 1, ball_budget=p)
    )
    assert witness == Ball(p, 1, 0)
    assert requested == 2


# Faulty on balls 5 and 8 of depth 2 only: those are the balls whose digit 0
# follows the path and whose digit 1 leaves it upwards.
RIGHT_FAULT_3 = Graft(Path(3, (2,), (0,)), Haar(), Dirac(F(1, 3)))


@pytest.mark.parametrize(
    "x, y, expected",
    [
        # the witness (rep 3) and the fault (rep 5) share a range of depth 2
        (3, 6, ("returned", Ball(3, 2, 3))),
        # the fault comes first
        (6, 15, ("raised", NotPAdicIntegerError, "1/3 is not a p-adic integer for p=3")),
    ],
)
def test_fault_and_witness_in_one_range(x, y, expected):
    other = LinearComb(((F(1), Haar()), (F(1), Dirac(x)), (F(-1), Dirac(y))))
    got = outcome(distinctness_witness, RIGHT_FAULT_3, other, 3, 3)
    assert got == outcome(scalar_distinctness_witness, RIGHT_FAULT_3, other, 3, 3)
    assert got == expected


# ------------------------------------------------------- branch hypothesis

@BRANCH_SETTINGS
@given(tables())
def test_branch_search_matches_all_pairs_search(case):
    table, p, k, depth = case
    witness = check_branch_hypothesis(table, p, k, depth)
    assert witness == scalar_branch_hypothesis(table, p, k, depth)
    assert witness is None or witness.t == 0


@BRANCH_SETTINGS
@given(tables(faults=True))
def test_branch_search_raises_what_all_pairs_search_raises(case):
    table, p, k, depth = case
    assert outcome(check_branch_hypothesis, table, p, k, depth) == outcome(
        scalar_branch_hypothesis, table, p, k, depth
    )


def test_branch_witness_when_the_differing_children_exclude_child_zero():
    # Children 0 and 1 agree in value, so 1 and 2 differ wherever 0 and 2 do:
    # the first witness is still (0, 2).
    table = (Mazur(), equal_variant(Mazur()), LinearComb(((F(1), Mazur()), (F(1), Dirac(4)))))
    witness = check_branch_hypothesis(table, 3, 1, 3)
    assert witness == scalar_branch_hypothesis(table, 3, 1, 3)
    assert (witness.t, witness.s) == (0, 2)


def test_branch_of_many_equal_valued_children_is_linear():
    # 125 children, each different in structure, all equal to Mazur in value:
    # the all-pairs search compared 7,750 pairs over every ball to depth 5.
    table = (Mazur(),) + tuple(
        LinearComb(((F(j, j + 1), Mazur()), (F(1, j + 1), Mazur()))) for j in range(1, 125)
    )
    assert len(set(table)) == 125
    assert check_branch_hypothesis(Branch(3, table), 5, 3, 5) is None


# -------------------------------------------------------- graft precondition

@SETTINGS
@given(graft_cases())
def test_graft_precondition_matches_scalar_check(case):
    left, right, path, depth = case
    assert check_graft_precondition(left, right, path, depth) == scalar_graft_precondition(
        left, right, path, depth
    )


@SETTINGS
@given(graft_cases(faults=True))
def test_graft_precondition_raises_what_scalar_check_raises(case):
    left, right, path, depth = case
    assert outcome(check_graft_precondition, left, right, path, depth) == outcome(
        scalar_graft_precondition, left, right, path, depth
    )


# Along the path 2, 0, 0, ... this left side is faulty on P_1 = 2 + (3) and
# on no other ball the check reads: Branch(2) sums entry 8 on P_1 only,
# because the inner graft sends 8 + (9) to Haar.  Level 0 meets P_1 as a
# child, a ball-by-ball check first reads it at level 1.
PI_200 = Path(3, (2,), (0,))
FAULT_ON_P1 = Graft(
    Path(3, (1,), (0,)),
    Haar(),
    Graft(
        PI_200,
        Branch(2, tuple(Dirac(F(1, 3)) if t == 8 else Haar() for t in range(9))),
        Haar(),
    ),
)


@pytest.mark.parametrize("depth", [0, 1])
def test_graft_fault_on_the_next_on_path_ball_only(depth):
    got = outcome(check_graft_precondition, FAULT_ON_P1, Mazur(), PI_200, depth)
    assert got == outcome(scalar_graft_precondition, FAULT_ON_P1, Mazur(), PI_200, depth)
    assert got[0] == ("returned" if depth == 0 else "raised")


# Along the path 2, 0, 0, ... the children of P_0 read by the check are
# 0 + (3), 1 + (3) off the path and 2 + (3) = P_1 on it.  This left side
# sends both 1 + (3) and 2 + (3) into faulty Branch children with different
# errors: a ball-by-ball check reads the off-path child first, so the check
# must request P_1 after it.
FAULTS_ON_P1_AND_ITS_SIBLING = Graft(
    Path(3, (), (0,)),
    Haar(),
    Branch(1, (Haar(), Regularize(1, F(3), Mazur()), Dirac(F(1, 3)))),
)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_graft_reads_the_off_path_child_before_the_next_on_path_ball(depth):
    args = FAULTS_ON_P1_AND_ITS_SIBLING, Mazur(), PI_200, depth
    got = outcome(check_graft_precondition, *args)
    assert got == outcome(scalar_graft_precondition, *args)
    assert got == ("raised", ValueError, "alpha=3 is not a unit of Z_p for p=3")


def _fault_at(t, fault):
    # Faulty on t + (9) only, of the balls the check reads along PI_200:
    # the graft sends only 5 + (9) and 8 + (9) to its Branch.
    return Graft(PI_200, Haar(), Branch(2, tuple(fault if s == t else Haar() for s in range(9))))


def test_graft_reads_the_right_side_before_the_next_ball():
    # Level 1 reads the off-path children 5 + (9), then 8 + (9), each on
    # the left and then the right: the right side's fault on 5 + (9) comes
    # first, though the left side alone would raise at 8 + (9).
    left = _fault_at(8, Regularize(1, F(3), Mazur()))
    right = _fault_at(5, Dirac(F(1, 3)))
    got = outcome(check_graft_precondition, left, right, PI_200, 1)
    assert got == outcome(scalar_graft_precondition, left, right, PI_200, 1)
    assert got == ("raised", NotPAdicIntegerError, "1/3 is not a p-adic integer for p=3")


# ------------------------------------------------- shared sub-expressions

def test_shared_request_leaves_no_garbage_cycle():
    # A request's memo of shared nodes goes when the request returns.  Left
    # in a cycle, every request's memo would wait for the cyclic collector
    # and make it run every few dozen requests.
    inner = Restrict(Ball(5, 1, 2), Mazur())
    twice = LinearComb(((F(1), inner), (F(2), inner)))
    gc.collect()
    distinctness_witness(twice, Mazur(), 5, 2)
    assert gc.collect() == 0


def test_a_root_that_the_other_root_holds_is_evaluated_once():
    # e's one parent is the second root, so e counts two uses per request.
    e = Regularize(1, 2, LinearComb(((1, Mazur()), (2, Bernoulli(3)))))
    other = LinearComb(((1, e), (F(1, 3), Dirac(1)), (F(-1, 3), Dirac(6))))
    balls = []
    kernel = distributions._KERNELS[Regularize]

    def counting(expr, p, n, reps, memo):
        balls.append(len(reps))
        return kernel(expr, p, n, reps, memo)

    with mock.patch.dict(distributions._KERNELS, {Regularize: counting}):
        witness = distinctness_witness(e, other, 5, 4)
    assert witness == scalar_distinctness_witness(e, other, 5, 4)
    assert sum(balls) == 11


def test_intern_table_holds_no_node_alive():
    # A node built and dropped is freed at once: the intern table holds it
    # weakly, and its sub-expressions live on only where something holds them.
    inner = Regularize(3, F(-11, 13), Bernoulli(9))
    gone = weakref.ref(Graft(Path(5, (1,), (2, 3)), inner, Restrict(Ball(5, 2, 7), inner)))
    assert gone() is None
    dropped = weakref.ref(inner)
    del inner
    assert dropped() is None


NODE_TYPES = get_args(DistExpr)


def unmemoized(search, *args):
    """`outcome` of the search with no sub-expression evaluated once per
    request: the parent count of every node in its arguments is 0 while it
    runs, so only a request's own expressions go through its memo."""
    nodes, stack = {}, list(args)
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack += x
        elif type(x) in NODE_TYPES and id(x) not in nodes:
            nodes[id(x)] = x
            stack += (getattr(x, name) for name, _, _ in x._fields)
    counts = [(x, x._uses) for x in nodes.values()]
    try:
        for x, _ in counts:
            object.__setattr__(x, "_uses", 0)
        return outcome(search, *args)
    finally:
        for x, uses in counts:
            object.__setattr__(x, "_uses", uses)


def holding(p, e, faults=False):
    """Expressions that hold the object e, often in more than one place."""
    inner = st.one_of(st.just(e), expressions(p, faults=faults))
    return st.one_of(
        st.just(e),
        st.builds(
            lambda c, d, x: LinearComb(((c, e), (d, x))), coefficients(), coefficients(), inner
        ),
        st.builds(Restrict, cells(p), st.just(e)),
        st.builds(Regularize, st.integers(1, 2), units(p), st.just(e)),
        st.builds(Graft, paths(p), inner, st.just(e)),
        branches(p, inner),
    )


@st.composite
def shared_inputs(draw, search):
    # The search's arguments built around one shared object e.
    p = draw(st.sampled_from(PRIMES))
    faults = draw(st.booleans())
    e = draw(expressions(p, faults=faults))
    side = holding(p, e, faults)
    if search == "distinct":
        return distinctness_witness, scalar_distinctness_witness, (
            draw(side), draw(side), p, draw(st.integers(0, MAX_DEPTH))
        )
    if search == "branch":
        k = draw(st.integers(1, 2 if p <= 3 else 1))
        table = tuple(draw(side) for _ in range(p**k))
        return check_branch_hypothesis, scalar_branch_hypothesis, (
            table, p, k, draw(st.integers(k, k + 1))
        )
    return check_graft_precondition, scalar_graft_precondition, (
        draw(side), draw(side), draw(paths(p)), draw(st.integers(0, MAX_DEPTH + 2))
    )


@settings(BRANCH_SETTINGS, max_examples=60)
@pytest.mark.parametrize("search", ["distinct", "branch", "graft"])
@given(data=st.data())
def test_shared_inputs_search_like_an_unshared_copy(search, data):
    # A shared node is evaluated once per request: the witness, or the
    # error, must be what the search without that memo and the scalar
    # search give.
    found, oracle, args = data.draw(shared_inputs(search))
    got = outcome(found, *args)
    assert got == unmemoized(found, *args)
    assert got == outcome(oracle, *args)


# Not a unit at p = 5: every ball that reaches it raises.
NON_UNIT = Regularize(1, F(5), Mazur())
PATH_1 = Path(5, (), (1,))
# Reaches NON_UNIT on balls whose first digit leaving 1, 1, ... is larger.
RIGHT_FAULT_5 = Graft(PATH_1, Mazur(), NON_UNIT)
SHARED_FAULT_CASES = [
    # both sides hold the faulty node on every ball: the error of 0/0
    (LinearComb(((F(1), Mazur()), (F(1), NON_UNIT))), Restrict(Ball(5, 1, 3), NON_UNIT),
     ("raised", ValueError, "alpha=5 is not a unit of Z_p for p=5")),
    # both sides meet it from depth 1 on, the sides differ on 0/0 already
    (RIGHT_FAULT_5, LinearComb(((F(1), RIGHT_FAULT_5), (F(1), Dirac(0)))),
     ("returned", Ball(5, 0, 0))),
    # equal in value: 0/1 and 1/1 go left, then 2/1 meets the fault
    (RIGHT_FAULT_5, LinearComb(((F(1, 2), RIGHT_FAULT_5), (F(1, 2), RIGHT_FAULT_5))),
     ("raised", ValueError, "alpha=5 is not a unit of Z_p for p=5")),
]


@pytest.mark.parametrize("first, second, expected", SHARED_FAULT_CASES)
def test_faulty_shared_node_met_by_both_sides(first, second, expected):
    args = first, second, 5, 2
    got = outcome(distinctness_witness, *args)
    assert got == expected
    assert got == unmemoized(distinctness_witness, *args)
    assert got == outcome(scalar_distinctness_witness, *args)
    table = (first,) + (second,) * 4
    got = outcome(check_branch_hypothesis, table, 5, 1, 2)
    assert got == unmemoized(check_branch_hypothesis, table, 5, 1, 2)
    assert got == outcome(scalar_branch_hypothesis, table, 5, 1, 2)
    got = outcome(check_graft_precondition, first, second, PATH_1, 2)
    assert got == unmemoized(check_graft_precondition, first, second, PATH_1, 2)
    assert got == outcome(scalar_graft_precondition, first, second, PATH_1, 2)
