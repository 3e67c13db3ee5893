"""Distribution families, combinators, and the exact evaluator."""

import copy
import pickle
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_evaluate_level import PRIMES, SETTINGS, expressions

from padicdist import (
    Ball,
    Bernoulli,
    BoundednessFlag,
    Branch,
    Dirac,
    Graft,
    Haar,
    LinearComb,
    Mazur,
    NotPAdicIntegerError,
    Path,
    PrimeMismatchError,
    Regularize,
    Restrict,
    ball_children,
    bernoulli_polynomial,
    boundedness_flag,
    evaluate,
    evaluate_level,
    expr_from_json,
    expr_to_json,
    remark_pair,
)
from padicdist.distributions import MAX_BERNOULLI_K, _walk

HALF = F(1, 2)


def all_balls(p, depth):
    for n in range(depth + 1):
        for rep in range(p**n):
            yield Ball(p, n, rep)


def children_sum(expr, ball):
    return sum(evaluate(expr, c) for c in ball_children(ball))


# ----------------------------------------------------- bernoulli machinery

# Closed forms written out by hand, independent of the recurrence.
EXPLICIT_BERNOULLI_POLYS = {
    1: lambda x: x - HALF,
    2: lambda x: x * x - x + F(1, 6),
    3: lambda x: x**3 - F(3, 2) * x**2 + HALF * x,
    4: lambda x: x**4 - 2 * x**3 + x**2 - F(1, 30),
}

KNOWN_BERNOULLI_NUMBERS = {
    0: F(1),
    1: F(-1, 2),
    2: F(1, 6),
    3: F(0),
    4: F(-1, 30),
    5: F(0),
    6: F(1, 42),
    8: F(-1, 30),
    10: F(5, 66),
    12: F(-691, 2730),
}


def test_bernoulli_numbers_match_table():
    for j, value in KNOWN_BERNOULLI_NUMBERS.items():
        assert bernoulli_polynomial(j, 0) == value


def test_bernoulli_polynomials_match_explicit_forms():
    samples = [F(0), F(1), F(1, 2), F(-3, 7), F(22, 5)]
    for k, poly in EXPLICIT_BERNOULLI_POLYS.items():
        for x in samples:
            assert bernoulli_polynomial(k, x) == poly(x)


def test_bernoulli_multiplication_identity():
    # B_k(m*x) = m^(k-1) * sum_j B_k(x + j/m); this is what makes the
    # Bernoulli family additive across ball subdivisions.
    for k in (1, 2, 3):
        for m in (2, 3, 5):
            for x in (F(0), F(1, 7), F(-2, 9)):
                lhs = bernoulli_polynomial(k, m * x)
                rhs = m ** (k - 1) * sum(
                    bernoulli_polynomial(k, x + F(j, m)) for j in range(m)
                )
                assert lhs == rhs


def test_bernoulli_polynomial_rejects_negative_index():
    with pytest.raises(ValueError):
        bernoulli_polynomial(-1, 0)
    with pytest.raises(ValueError):
        bernoulli_polynomial(True, 0)


def test_bernoulli_polynomial_refuses_an_index_past_the_cap_at_once():
    # Its coefficients cost about k^3 Fraction steps: k = 600 took seconds.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"at most {MAX_BERNOULLI_K}, got 100000"):
        bernoulli_polynomial(10**5, F(1, 3))
    assert time.perf_counter() - start < 0.1
    assert bernoulli_polynomial(MAX_BERNOULLI_K, 0) == bernoulli_polynomial(MAX_BERNOULLI_K, 1)


# ----------------------------------------------------------- base families

def test_dirac_is_indicator():
    d = Dirac(F(-7, 8))
    assert evaluate(d, Ball(3, 0, 0)) == 1
    assert evaluate(d, Ball(3, 2, 7)) == 1  # -7/8 = 1 + 2*3 + ... in Z_3
    assert evaluate(d, Ball(3, 2, 4)) == 0


def test_dirac_point_must_lie_in_zp():
    with pytest.raises(NotPAdicIntegerError):
        evaluate(Dirac(F(1, 3)), Ball(3, 1, 0))
    # Same point is fine at another prime: 1/3 = 2 mod 5.
    assert evaluate(Dirac(F(1, 3)), Ball(5, 1, 2)) == 1


def test_haar_closed_form():
    assert evaluate(Haar(), Ball(3, 2, 4)) == F(1, 9)
    assert evaluate(Haar(F(3, 7)), Ball(5, 1, 2)) == F(3, 35)
    assert evaluate(Haar(), Ball(5, 0, 0)) == 1


def test_mazur_closed_form():
    assert evaluate(Mazur(), Ball(5, 1, 3)) == F(1, 10)
    assert evaluate(Mazur(), Ball(5, 0, 0)) == -HALF
    for ball in all_balls(5, 2):
        assert evaluate(Mazur(), ball) == F(ball.rep, 5**ball.depth) - HALF


def test_bernoulli_one_equals_mazur():
    for p in (3, 5):
        for ball in all_balls(p, 3):
            assert evaluate(Bernoulli(1), ball) == evaluate(Mazur(), ball)


def test_bernoulli_closed_form():
    # depth-n value is p^(n(k-1)) * B_k(a / p^n)
    b2 = EXPLICIT_BERNOULLI_POLYS[2]
    assert evaluate(Bernoulli(2), Ball(5, 1, 3)) == 5 * b2(F(3, 5))
    b3 = EXPLICIT_BERNOULLI_POLYS[3]
    assert evaluate(Bernoulli(3), Ball(3, 2, 7)) == 3**4 * b3(F(7, 9))


def test_bernoulli_index_validation():
    with pytest.raises(ValueError):
        Bernoulli(0)
    with pytest.raises(ValueError):
        Bernoulli("2")
    with pytest.raises(ValueError):
        Bernoulli(True)
    assert Bernoulli(MAX_BERNOULLI_K).k == MAX_BERNOULLI_K
    with pytest.raises(ValueError, match=f"at most {MAX_BERNOULLI_K}, got {MAX_BERNOULLI_K + 1}"):
        Bernoulli(MAX_BERNOULLI_K + 1)


def test_base_families_are_additive():
    exprs = [Dirac(2), Haar(F(1, 3)), Mazur(), Bernoulli(2), Bernoulli(3)]
    for p in (2, 3, 5):
        for expr in exprs:
            for ball in all_balls(p, 2):
                assert evaluate(expr, ball) == children_sum(expr, ball)


# ------------------------------------------------------------- combinators

def test_lincomb_is_linear():
    combo = LinearComb(((F(2), Haar()), (F(-3), Mazur()), (HALF, Dirac(1))))
    for ball in all_balls(5, 2):
        expected = (
            2 * evaluate(Haar(), ball)
            - 3 * evaluate(Mazur(), ball)
            + HALF * evaluate(Dirac(1), ball)
        )
        assert evaluate(combo, ball) == expected


def test_lincomb_single_term_and_empty():
    single = LinearComb(((F(1), Mazur()),))
    for ball in all_balls(5, 2):
        assert evaluate(single, ball) == evaluate(Mazur(), ball)
    assert evaluate(LinearComb(()), Ball(5, 1, 0)) == 0


def test_restrict_fixture():
    r = Restrict(Ball(5, 1, 2), Mazur())
    # ball inside the cell: inner value
    assert evaluate(r, Ball(5, 2, 7)) == evaluate(Mazur(), Ball(5, 2, 7))
    # ball containing the cell: inner value at the cell
    assert evaluate(r, Ball(5, 0, 0)) == evaluate(Mazur(), Ball(5, 1, 2))
    # disjoint ball: zero
    assert evaluate(r, Ball(5, 1, 3)) == 0
    assert evaluate(r, Ball(5, 2, 8)) == 0


def test_restrict_to_whole_space_is_identity():
    r = Restrict(Ball(5, 0, 0), Mazur())
    for ball in all_balls(5, 2):
        assert evaluate(r, ball) == evaluate(Mazur(), ball)


def test_restrict_is_additive():
    r = Restrict(Ball(3, 1, 1), Haar())
    for ball in all_balls(3, 3):
        assert evaluate(r, ball) == children_sum(r, ball)


def test_regularize_fixture():
    r = Regularize(1, F(3), Mazur())
    # value = mazur(B) - (1/3) * mazur(3 * B); on 1+(5), 3*B is 3+(5)
    expected = (F(1, 5) - HALF) - F(1, 3) * (F(3, 5) - HALF)
    assert evaluate(r, Ball(5, 1, 1)) == expected == F(-1, 3)
    for ball in all_balls(5, 2):
        scaled = Ball(5, ball.depth, 3 * ball.rep % 5**ball.depth)
        want = evaluate(Mazur(), ball) - F(1, 3) * evaluate(Mazur(), scaled)
        assert evaluate(r, ball) == want


def test_regularize_keeps_additivity():
    r = Regularize(2, F(2), Bernoulli(2))
    for ball in all_balls(5, 2):
        assert evaluate(r, ball) == children_sum(r, ball)


def test_regularize_validation():
    with pytest.raises(ValueError):
        Regularize(0, F(3), Mazur())
    with pytest.raises(ValueError):
        Regularize(1, F(1), Mazur())
    with pytest.raises(ValueError):
        Regularize(True, F(2), Mazur())
    # alpha must be a unit for the prime in play: |3|_3 < 1
    with pytest.raises(ValueError):
        evaluate(Regularize(1, F(3), Mazur()), Ball(3, 1, 0))
    # and |1/5|_5 > 1 is just as bad
    with pytest.raises(ValueError):
        evaluate(Regularize(1, F(1, 5), Mazur()), Ball(5, 1, 0))
    # the same alpha is fine where it is a unit
    evaluate(Regularize(1, F(3), Mazur()), Ball(5, 1, 0))


def test_graft_routing():
    pi = Path(5, (), (2,))
    g = Graft(pi, Haar(), Dirac(0))
    # on-path balls take the left side
    assert evaluate(g, Ball(5, 0, 0)) == 1
    assert evaluate(g, Ball(5, 1, 2)) == F(1, 5)
    assert evaluate(g, Ball(5, 2, 12)) == F(1, 25)
    # first digit below the path: left
    assert evaluate(g, Ball(5, 1, 0)) == F(1, 5)
    assert evaluate(g, Ball(5, 2, 7)) == F(1, 25)  # digits (2, 1)
    # first digit above the path: right
    assert evaluate(g, Ball(5, 1, 3)) == 0
    assert evaluate(g, Ball(5, 2, 17)) == 0  # digits (2, 3)


def test_graft_of_equal_sides_is_identity():
    pi = Path(3, (1,), (2, 0))
    g = Graft(pi, Mazur(), Mazur())
    for ball in all_balls(3, 3):
        assert evaluate(g, ball) == evaluate(Mazur(), ball)


def test_graft_prime_mismatch():
    g = Graft(Path(3, (), (1,)), Haar(), Haar())
    with pytest.raises(PrimeMismatchError):
        evaluate(g, Ball(5, 1, 0))


def test_branch_dispatch_level_one():
    br = Branch(1, (Haar(), Dirac(0), Mazur()))
    assert evaluate(br, Ball(3, 1, 0)) == F(1, 3)
    assert evaluate(br, Ball(3, 1, 1)) == 0
    assert evaluate(br, Ball(3, 1, 2)) == F(1, 6)
    # the root sums its children, so additivity holds by construction
    assert evaluate(br, Ball(3, 0, 0)) == F(1, 2)
    # deeper balls dispatch on rep mod 3
    assert evaluate(br, Ball(3, 2, 3)) == evaluate(Haar(), Ball(3, 2, 3))
    assert evaluate(br, Ball(3, 2, 5)) == evaluate(Mazur(), Ball(3, 2, 5))


def test_branch_dispatch_level_two():
    br = Branch(2, tuple(Dirac(t) for t in range(9)))
    for rep in range(9):
        assert evaluate(br, Ball(3, 2, rep)) == 1
    assert evaluate(br, Ball(3, 1, 1)) == 3
    assert evaluate(br, Ball(3, 0, 0)) == 9
    assert evaluate(br, Ball(3, 3, 9)) == 0  # delta_0 does not meet 9+(27)
    assert evaluate(br, Ball(3, 3, 0)) == 1


def test_branch_accepts_dict_children():
    as_dict = Branch(1, {0: Haar(), 1: Dirac(0), 2: Mazur()})
    as_tuple = Branch(1, (Haar(), Dirac(0), Mazur()))
    assert as_dict == as_tuple


def test_branch_of_identical_children_is_identity():
    br = Branch(1, (Mazur(), Mazur(), Mazur()))
    for ball in all_balls(3, 3):
        assert evaluate(br, ball) == evaluate(Mazur(), ball)


def test_branch_validation():
    with pytest.raises(ValueError):
        Branch(0, (Mazur(),))
    with pytest.raises(ValueError):
        Branch(1, ())
    with pytest.raises(ValueError, match=r"^branch children keys must be exactly 0\.\.len-1$"):
        Branch(1, {0: Mazur(), 2: Haar()})
    with pytest.raises(ValueError):
        Branch(True, (Mazur(), Haar()))
    # table size is checked against the prime at evaluation time
    with pytest.raises(ValueError):
        evaluate(Branch(2, tuple(Dirac(t) for t in range(8))), Ball(3, 2, 0))
    with pytest.raises(ValueError):
        evaluate(Branch(1, (Mazur(), Mazur(), Mazur())), Ball(5, 1, 0))


# Objects that are no expression, alone and inside a node (which builds,
# and fails where the object is evaluated), with the type name reported.
FOREIGN = [
    ("mazur", "str"),
    (LinearComb(((1, "x"),)), "str"),
    (Restrict(Ball(5, 1, 4), 5), "int"),
    (Graft(Path(5, (), (1,)), Mazur(), None), "NoneType"),
    (Branch(1, (Mazur(),) * 4 + ([],)), "list"),
]


def test_evaluate_rejects_foreign_objects():
    with pytest.raises(TypeError, match="^not a distribution expression: str$"):
        evaluate("mazur", Ball(3, 1, 0))
    for node, kind in FOREIGN:
        with pytest.raises(TypeError, match=f"^not a distribution expression: {kind}$"):
            evaluate(node, Ball(5, 1, 4))


# --------------------------------------------------------------- interning

# One node of each type, built from parts made afresh on every call.
BUILDERS = {
    "Dirac": lambda: Dirac(F(-7, 8)),
    "Haar": lambda: Haar(F(2, 3)),
    "Mazur": Mazur,
    "Bernoulli": lambda: Bernoulli(3),
    "LinearComb": lambda: LinearComb(((F(1, 2), Mazur()), (-1, Dirac(0)))),
    "Restrict": lambda: Restrict(Ball(5, 2, 7), Haar()),
    "Regularize": lambda: Regularize(1, "3", Mazur()),
    "Graft": lambda: Graft(Path(5, (1,), (2,)), Mazur(), Haar()),
    "Branch": lambda: Branch(1, {t: Dirac(t) for t in range(3)}),
}


def chain(links):
    """a_i = a_(i-1) + a_(i-1) over Mazur: a DAG of links + 1 nodes that
    stands for a tree of 2^links leaves."""
    a = Mazur()
    for _ in range(links):
        a = LinearComb(((F(1), a), (F(1), a)))
    return a


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_equal_nodes_are_one_object(build):
    node = build()
    assert build() is node
    assert node == build() and hash(node) == hash(build())


def test_nodes_are_one_object_only_when_equal():
    # A default field and the same value given are equal.
    assert Haar() is Haar(1)
    assert Dirac(1) is not Dirac(2)
    assert Bernoulli(1) is not Mazur()
    # Two splits of one digit stream are different paths, so different grafts.
    assert Graft(Path(3, (), (1,)), Mazur(), Haar()) is not Graft(
        Path(3, (1,), (1,)), Mazur(), Haar()
    )
    assert LinearComb(((F(1), Mazur()), (F(2), Haar()))) is not LinearComb(
        ((F(2), Mazur()), (F(1), Haar()))
    )


def test_unhashable_plain_field_is_refused_at_construction():
    with pytest.raises(TypeError):
        Restrict([5, 2, 7], Mazur())


# Dirac, Regularize and LinearComb keep ints read from their fields for the
# level kernels, and every node its sub-expressions that are nodes as
# `_kids`, once per place; they are no field, so nothing a caller sees of a
# node shows them.
STORED = [
    (lambda: Dirac(F(-7, 8)), "Dirac(point=Fraction(-7, 8))",
     {"type": "dirac", "point": "-7/8"}, ()),
    (lambda: Regularize(3, "-3/2", Mazur()),
     "Regularize(k=3, alpha=Fraction(-3, 2), expr=Mazur())",
     {"type": "regularize", "k": 3, "alpha": "-3/2", "expr": {"type": "mazur"}}, (Mazur(),)),
    (lambda: LinearComb(((2, Mazur()), (F(1, 3), Mazur()))),
     "LinearComb(terms=((Fraction(2, 1), Mazur()), (Fraction(1, 3), Mazur())))",
     {"type": "lincomb", "terms": [["2", {"type": "mazur"}], ["1/3", {"type": "mazur"}]]},
     (Mazur(), Mazur())),
]


@pytest.mark.parametrize(
    "build, text, data, kids", STORED, ids=["Dirac", "Regularize", "LinearComb"]
)
def test_stored_ints_are_no_field(build, text, data, kids):
    node = build()
    assert hasattr(node, "_ints") and node._kids == kids
    assert not {"_ints", "_kids"} & {name for name, _, _ in type(node)._fields}
    assert build() is node and repr(node) == text
    for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert twin is node
    assert expr_to_json(node) == data
    assert expr_from_json(data, 5) is node


def test_regularize_with_a_huge_k_builds_and_is_refused_at_once():
    # alpha^k is raised on the first evaluation that passes the unit check,
    # so a non-unit alpha with k = 10^7 costs nothing to build or refuse.
    start = time.perf_counter()
    node = Regularize(10**7, 3, Mazur())
    assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^alpha=3 is not a unit of Z_p for p=3$"):
        evaluate_level(node, 3, 2)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("inner", [Mazur(), LinearComb(((2, Mazur()),))], ids=["leaf", "node"])
@pytest.mark.parametrize("reps", [None, range(3, 17), [4, 1]], ids=["level", "range", "list"])
def test_negative_alpha_keeps_the_denominator_positive(k, inner, reps):
    # alpha^k = (-3)^k / 2^k is negative for odd k: the kernel signs it.
    r = Regularize(k, F(-3, 2), inner)
    nums, den = evaluate_level(r, 5, 2, reps)
    assert den > 0
    balls = range(25) if reps is None else reps
    # alpha * a mod 25 is -3 * 13 * a: 13 is 1/2 mod 25.
    want = [
        evaluate(inner, Ball(5, 2, a)) - F(-2, 3) ** k * evaluate(inner, Ball(5, 2, -39 * a % 25))
        for a in balls
    ]
    assert [F(x, den) for x in nums] == want


@SETTINGS
@given(st.tuples(st.sampled_from(PRIMES), st.booleans()).flatmap(
    lambda pf: expressions(pf[0], faults=pf[1])
))
def test_copies_and_unpickled_nodes_are_the_original(expr):
    # The strategy builds all 9 node types, faulty ones included.
    assert pickle.loads(pickle.dumps(expr)) is expr
    assert copy.copy(expr) is expr
    assert copy.deepcopy(expr) is expr


# ------------------------------------------------------------- boundedness

def test_boundedness_base_families():
    assert boundedness_flag(Dirac(4)) is BoundednessFlag.BOUNDED
    assert boundedness_flag(Haar()) is BoundednessFlag.UNBOUNDED
    # Every value of Haar(0) is 0, and so of what is built from it alone.
    for zero in (Haar(0), LinearComb(((2, Haar(0)),)), Restrict(Ball(3, 1, 2), Haar(0))):
        assert boundedness_flag(zero) is BoundednessFlag.BOUNDED
    assert boundedness_flag(Mazur()) is BoundednessFlag.UNBOUNDED
    assert boundedness_flag(Bernoulli(3)) is BoundednessFlag.UNBOUNDED
    assert boundedness_flag(Regularize(1, F(3), Mazur())) is BoundednessFlag.UNKNOWN


def test_boundedness_lincomb_rules():
    flag = boundedness_flag
    assert flag(LinearComb(((F(2), Dirac(0)), (F(3), Dirac(1))))) is BoundednessFlag.BOUNDED
    # one unbounded term with a nonzero coefficient dominates
    assert flag(LinearComb(((F(2), Haar()), (F(1), Dirac(0))))) is BoundednessFlag.UNBOUNDED
    # two unbounded terms may cancel; no structural verdict
    assert flag(LinearComb(((F(1), Haar()), (F(1), Mazur())))) is BoundednessFlag.UNKNOWN
    # a zero coefficient silences its term but leaves the verdict open
    assert flag(LinearComb(((F(0), Haar()), (F(1), Dirac(0))))) is BoundednessFlag.UNKNOWN
    assert flag(LinearComb(())) is BoundednessFlag.BOUNDED


def test_boundedness_restrict_and_graft_and_branch():
    pi = Path(5, (), (2,))
    assert boundedness_flag(Restrict(Ball(5, 1, 1), Haar())) is BoundednessFlag.UNBOUNDED
    assert boundedness_flag(Graft(pi, Dirac(0), Dirac(1))) is BoundednessFlag.BOUNDED
    assert boundedness_flag(Graft(pi, Haar(), Dirac(1))) is BoundednessFlag.UNBOUNDED
    unknown = Regularize(1, F(3), Mazur())
    assert boundedness_flag(Graft(pi, unknown, Dirac(1))) is BoundednessFlag.UNKNOWN
    assert boundedness_flag(Graft(pi, unknown, Haar())) is BoundednessFlag.UNBOUNDED
    assert boundedness_flag(Branch(1, (Dirac(0),) * 5)) is BoundednessFlag.BOUNDED
    assert boundedness_flag(Branch(1, (Haar(), Dirac(0), Mazur()))) is BoundednessFlag.UNBOUNDED
    assert boundedness_flag(Branch(1, (unknown, Dirac(0), Dirac(1)))) is BoundednessFlag.UNKNOWN


def test_boundedness_walks_a_dag_once():
    # Walked as a tree, 40 links would take 2^40 steps.
    start = time.perf_counter()
    assert boundedness_flag(chain(40)) is BoundednessFlag.UNKNOWN
    assert time.perf_counter() - start < 1


def test_evaluate_walks_a_dag_once():
    # Walked as a tree, 40 links would take 2^40 steps.
    top, ball = chain(40), Ball(5, 3, 7)
    start = time.perf_counter()
    value = evaluate(top, ball)
    middle = time.perf_counter()
    (num,), den = evaluate_level(top, 5, 3, [7])
    assert middle - start < 1 and time.perf_counter() - middle < 1
    assert value == F(num, den) == 2**40 * evaluate(Mazur(), ball)


def test_walk_does_not_enter_a_form():
    # A form is evaluated, and proved, as one node: the walk lists none of
    # the terms folded into it, so the 41 nodes of the chain are one.
    top = chain(40)
    assert list(_walk([top])) == [top]
    outer = Regularize(1, 2, LinearComb(((1, top), (1, Dirac(0)))))
    assert len(list(_walk([outer]))) == 4


# -------------------------------------------------------------- remark_pair

def test_remark_pair_shape():
    pi = Path(3, (), (1, 2))
    mu1, mu2 = remark_pair(Haar(), Mazur(), pi)
    assert mu1 == Haar()
    assert mu2 == Branch(1, (Mazur(), Haar(), Mazur()))


def test_remark_pair_degenerate_inputs_agree():
    # With nu0 = nu1 = mu additive, the branch reproduces mu everywhere.
    pi = Path(3, (), (2,))
    mu1, mu2 = remark_pair(Haar(), Haar(), pi)
    for ball in all_balls(3, 3):
        assert evaluate(mu1, ball) == evaluate(mu2, ball)
