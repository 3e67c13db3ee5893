"""Riemann sums against distributions and tail classification."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import evaluate
from test_evaluate_level import (
    PRIMES,
    SETTINGS,
    _count_calls,
    affine_trees,
    coefficients,
    expressions,
    points,
    units,
)
from test_searches import outcome

from padicdist import (
    Ball,
    BallBudgetError,
    Bernoulli,
    ConvergenceVerdict,
    Dirac,
    Graft,
    Haar,
    LinearComb,
    Mazur,
    Path,
    Polynomial,
    Regularize,
    StepFn,
    classify_tail,
    distributions,
    evaluate_level,
    integrate,
    parse_polynomial,
    riemann_sum,
    step_fn_from_json,
)
from padicdist.distributions import polynomial_values
from padicdist.integrate import _moments

X = Polynomial((F(0), F(1)))
HALF = F(1, 2)


def brute_force_sum(expr, fn, p, depth):
    return sum(
        fn.value_at(a) * evaluate(expr, Ball(p, depth, a)) for a in range(p**depth)
    )


# ------------------------------------------------------------ test functions

def test_polynomial_horner():
    poly = Polynomial((HALF, F(-1), F(0), F(1)))  # x^3 - x + 1/2
    assert poly.value_at(2) == F(13, 2)
    assert poly.value_at(F(1, 3)) == F(1, 27) - F(1, 3) + HALF
    assert Polynomial((F(7),)).value_at(100) == 7


def test_step_fn_lookup():
    sf = StepFn(1, (F(1), F(2), F(3), F(4), F(5)))
    assert sf.value_at(7) == F(3)
    assert sf.value_at(0) == F(1)
    with pytest.raises(ValueError):
        sf.value_at(F(1, 2))


def test_step_fn_accepts_dict_table():
    assert StepFn(1, {0: F(1), 1: F(2)}) == StepFn(1, (F(1), F(2)))
    with pytest.raises(ValueError, match=r"^step values keys must be exactly 0\.\.len-1$"):
        StepFn(1, {0: F(1), 2: F(2)})
    with pytest.raises(ValueError):
        StepFn(-1, (F(1),))
    with pytest.raises(ValueError):
        StepFn(1, ())


# -------------------------------------------------------------- riemann sums

def test_riemann_sum_mazur_linear_fixture():
    # brute force: sum over a < 5 of a * (a/5 - 1/2)
    expected = sum(a * (F(a, 5) - HALF) for a in range(5))
    assert expected == 1
    assert riemann_sum(Mazur(), X, 5, 1) == 1


def test_riemann_sum_constant_one_recovers_total_mass():
    exprs = [Dirac(3), Haar(F(2, 7)), Mazur(), LinearComb(((F(2), Haar()), (F(1), Dirac(0))))]
    one = Polynomial((F(1),))
    for expr in exprs:
        total = evaluate(expr, Ball(5, 0, 0))
        for depth in range(4):
            assert riemann_sum(expr, one, 5, depth) == total


def test_riemann_sum_matches_brute_force():
    fn = parse_polynomial("1/2 + 3*x - x^2")
    for depth in (0, 1, 2, 3):
        assert riemann_sum(Mazur(), fn, 5, depth) == brute_force_sum(Mazur(), fn, 5, depth)


def test_riemann_sum_validation():
    with pytest.raises(ValueError):
        riemann_sum(Mazur(), X, 5, -1)
    with pytest.raises(ValueError):
        riemann_sum(Mazur(), StepFn(1, (F(1), F(2), F(3))), 5, 2)
    with pytest.raises(BallBudgetError):
        riemann_sum(Mazur(), X, 5, 2, ball_budget=5)


class _Unread:
    # A step table entry that no sum may read: any attribute fails.
    def __getattr__(self, name):
        raise AssertionError(f"a sum read the entry's {name}")


def test_a_step_table_deeper_than_the_sums_is_read_only_as_deep_as_they_go():
    values = [F(a - 3, a + 1) for a in range(7)]
    fn = StepFn(8, tuple(values[a % 7] for a in range(5**8)))
    want = [brute_force_sum(Mazur(), fn, 5, n) for n in (1, 2)]
    object.__setattr__(fn, "values", fn.values[:25] + (_Unread(),) * (5**8 - 25))
    report = integrate(Mazur(), fn, 5, 2, ball_budget=100)
    assert list(report.partial_sums) == want


def test_the_zero_polynomial_counts_one_pass_against_the_budget():
    zero = Polynomial(())
    with pytest.raises(BallBudgetError, match="enumerate 5\\^8 balls"):
        riemann_sum(Mazur(), zero, 5, 8, ball_budget=100)
    with pytest.raises(BallBudgetError, match="enumerate 5\\^8 balls"):
        integrate(Mazur(), zero, 5, 8, ball_budget=5**7)
    assert riemann_sum(Mazur(), zero, 5, 2, ball_budget=25) == 0


# ------------------------------------------------ polynomial values on reps

def expanded(coeffs, a):
    # sum_j c_j a^(d-j), leading coefficient first, one power per term.
    d = len(coeffs) - 1
    return sum(c * a ** (d - j) for j, c in enumerate(coeffs))


INT_COEFFS = st.lists(st.integers(-(10**6), 10**6), max_size=6)


@SETTINGS
@given(INT_COEFFS, st.integers(-50, 50), st.integers(-4, 4).filter(bool), st.integers(0, 12))
def test_polynomial_values_on_ranges(coeffs, start, step, length):
    # Lengths up to and past degree + 1, so both Horner and the differences.
    reps = range(start, start + step * length, step)
    assert polynomial_values(coeffs, reps) == [expanded(coeffs, a) for a in reps]


@SETTINGS
@given(INT_COEFFS, st.lists(st.integers(-100, 100), max_size=12))
def test_polynomial_values_on_lists(coeffs, reps):
    assert polynomial_values(coeffs, reps) == [expanded(coeffs, a) for a in reps]


def test_polynomial_values_of_constants_and_of_no_coefficients():
    assert polynomial_values((), range(5)) == [0] * 5
    assert polynomial_values((), [3, 1]) == [0, 0]
    assert polynomial_values((7,), range(3, 30, 4)) == [7] * 7
    assert polynomial_values((-2,), [9]) == [-2]
    assert polynomial_values((1, 0), range(0)) == []


# ------------------------------------------- sums against the brute force

def polynomials():
    # The zero polynomial and constants included.
    return st.lists(coefficients(), max_size=4).map(lambda cs: Polynomial(tuple(cs)))


def step_fns(p, depth):
    return st.builds(
        lambda values: StepFn(depth, tuple(values)),
        st.lists(coefficients(), min_size=p**depth, max_size=p**depth),
    )


@st.composite
def sum_cases(draw, faults=False):
    p = draw(st.sampled_from(PRIMES))
    deepest = 3 if p <= 3 else 2
    # Step tables up to one level deeper than the deepest sum.
    step_depth = st.integers(0, deepest + (p <= 3))
    fn = draw(st.one_of(polynomials(), step_depth.flatmap(lambda d: step_fns(p, d))))
    return p, draw(expressions(p, faults=faults)), fn, draw(st.integers(0, deepest))


@settings(SETTINGS, max_examples=100)
@given(sum_cases())
def test_riemann_sum_matches_brute_force_on_random_inputs(case):
    p, expr, fn, depth = case
    assert riemann_sum(expr, fn, p, depth) == brute_force_sum(expr, fn, p, depth)


@settings(SETTINGS, max_examples=100)
@given(sum_cases(faults=True))
def test_integrate_matches_brute_force_on_random_inputs(case):
    # Where some ball is faulty, the first one's error, depth by depth.
    p, expr, fn, depth = case
    depth = max(depth, 2)

    def brute_force_sums():
        return tuple(brute_force_sum(expr, fn, p, n) for n in range(1, depth + 1))

    got = outcome(lambda: integrate(expr, fn, p, depth).partial_sums)
    assert got == outcome(brute_force_sums)


# ------------------------------------- closed sums on the family S

def family(p, faults=False):
    """The family S: Haar, Mazur, Bernoulli(k <= 5) and point masses with
    denominators, closed under LinearComb (zero and negative coefficients
    included) and Regularize with positive, negative and non-integer
    alpha, over affine trees, whose runs take the closed sums, and over any
    member, which takes the enumerating path.  faults adds points outside
    Z_p and non-unit alphas, anywhere in a sum, a later term included."""
    leaves = [points(p).map(Dirac), coefficients().map(Haar), st.just(Mazur()),
              st.integers(1, 5).map(Bernoulli)]
    alphas = units(p)
    if faults:
        leaves.append(st.integers(1, 9).filter(lambda u: u % p).map(lambda u: Dirac(F(u, p))))
        alphas = st.one_of(alphas, st.sampled_from([F(p), F(1, p), F(-2 * p)]))

    def extend(inner):
        return st.one_of(
            st.lists(st.tuples(coefficients(), inner), max_size=3).map(
                lambda terms: LinearComb(tuple(terms))
            ),
            st.builds(Regularize, st.integers(1, 3), alphas, st.one_of(affine_trees(), inner)),
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=5)


@st.composite
def family_cases(draw, faults=False):
    # Depths 2..6 while p^depth <= 729, so S_1..S_6 all occur; step tables
    # of depth 0..3, shallower than, as deep as and deeper than the sums.
    p = draw(st.sampled_from(PRIMES))
    depth = draw(st.integers(2, max(n for n in range(2, 7) if p**n <= 729)))
    fn = draw(st.one_of(polynomials(), st.integers(0, 3).flatmap(lambda d: step_fns(p, d))))
    return p, draw(family(p, faults)), fn, depth


def dotted_sums(expr, fn, p, depth):
    """S_1..S_depth as `evaluate_level`'s values dotted with fn.value_at."""
    sums = []
    for n in range(1, depth + 1):
        nums, den = evaluate_level(expr, p, n)
        sums.append(sum((fn.value_at(a) * x for a, x in enumerate(nums)), F(0)) / den)
    return tuple(sums)


@settings(SETTINGS, max_examples=150)
@given(family_cases())
def test_closed_sums_on_the_family_match_the_enumerated_level(case):
    # Then again with every Regularize over an affine tree in runs, however
    # short, so that run pieces of every alpha are summed.
    p, expr, fn, depth = case
    want = dotted_sums(expr, fn, p, depth)
    assert integrate(expr, fn, p, depth).partial_sums == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributions, "_BALLS_PER_RUN", 1)
        assert integrate(expr, fn, p, depth).partial_sums == want


@settings(SETTINGS, max_examples=150)
@given(family_cases(faults=True))
def test_closed_sums_raise_what_the_enumerated_level_raises(case):
    p, expr, fn, depth = case
    got = outcome(lambda: integrate(expr, fn, p, depth).partial_sums)
    assert got == outcome(dotted_sums, expr, fn, p, depth)


@st.composite
def step_tables(draw):
    p, d = draw(st.sampled_from(PRIMES)), draw(st.integers(0, 3))
    return draw(st.lists(st.integers(-9, 9), min_size=p**d, max_size=p**d))


@SETTINGS
@given(
    step_tables(), st.lists(st.integers(-9, 9), max_size=4), st.integers(0, 400), st.integers(0, 5)
)
def test_moments_are_the_weighted_power_sums(step, poly, stop, count):
    # M_k(N) = sum over a < N of w(a) a^k, for a step table w of period
    # p^d, N below, at and past whole periods, and for a polynomial w.
    want = [sum(step[a % len(step)] * a**k for a in range(stop)) for k in range(count)]
    assert _moments(step, len(step), [], stop, count) == want
    want = [sum(expanded(poly, a) * a**k for a in range(stop)) for k in range(count)]
    assert _moments(poly, None, [], stop, count) == want


def test_integrate_on_the_family_makes_no_level_request(monkeypatch):
    # Bernoulli, Mazur, Haar, a point mass, a Regularize over Haar (one
    # value per level) and E_(1,2), whose two runs are long from depth 3
    # on at p = 5: every sum comes from the piece form.
    members = LinearComb((
        (F(1, 2), Bernoulli(3)), (F(-2), Mazur()), (F(3), Dirac(F(1, 2))),
        (F(2, 3), Haar(F(5))), (F(1), Regularize(2, F(1, 3), Haar())),
    ))
    step = StepFn(2, tuple(F(r % 7 - 3, 2) for r in range(25)))
    want = [dotted_sums(members, fn, 5, 5) for fn in (X, step)]
    want.append(tuple(brute_force_sum(Regularize(1, 2, Mazur()), X, 5, n) for n in (3, 4)))
    calls = _count_calls(monkeypatch, distributions._level, ["_level"])
    got = [integrate(members, fn, 5, 5).partial_sums for fn in (X, step)]
    got.append(tuple(riemann_sum(Regularize(1, 2, Mazur()), X, 5, n) for n in (3, 4)))
    assert calls == []
    assert got == want
    graft = Graft(Path(5, (), (1,)), Mazur(), Haar())
    assert integrate(graft, X, 5, 3).partial_sums == dotted_sums(graft, X, 5, 3)
    assert graft in calls


# ------------------------------------------------------------ classification

def test_classify_tail_rules():
    poly = X
    step2 = StepFn(2, tuple(F(r) for r in range(4)))
    step1 = StepFn(1, (F(1), F(2)))
    assert classify_tail(step2, [F(1, 5), F(0), F(0)]) is ConvergenceVerdict.CONVERGED_EXACTLY
    assert classify_tail(step1, [F(0)]) is ConvergenceVerdict.CONVERGED_EXACTLY
    # too few differences to see past the step depth
    assert classify_tail(step2, [F(0)]) is ConvergenceVerdict.INCONCLUSIVE
    # polynomials never earn "converged-exactly", even with zero differences
    assert classify_tail(poly, [F(0), F(0), F(0)]) is ConvergenceVerdict.INCONCLUSIVE
    assert classify_tail(poly, [F(1), F(1, 5), F(1, 25)]) is ConvergenceVerdict.NORM_DECREASING
    assert classify_tail(poly, [F(1), F(1), F(1, 5)]) is ConvergenceVerdict.NORM_DECREASING
    assert classify_tail(poly, [F(1, 5), F(1), F(5)]) is ConvergenceVerdict.DIVERGING
    assert classify_tail(poly, [F(5), F(1, 5), F(1), F(5)]) is ConvergenceVerdict.DIVERGING
    assert classify_tail(poly, [F(1, 5), F(1, 25), F(1, 5)]) is ConvergenceVerdict.INCONCLUSIVE
    assert classify_tail(poly, []) is ConvergenceVerdict.INCONCLUSIVE


# ----------------------------------------------------------------- integrate

def test_integrate_haar_linear_is_norm_decreasing():
    report = integrate(Haar(), X, 5, 4)
    # S_N = (5^N - 1) / 2 by the arithmetic series formula
    assert report.partial_sums == (F(2), F(12), F(62), F(312))
    assert report.diff_norms == (F(1, 5), F(1, 25), F(1, 125))
    assert report.verdict is ConvergenceVerdict.NORM_DECREASING


def test_integrate_haar_square_is_norm_decreasing():
    report = integrate(Haar(), parse_polynomial("x^2"), 3, 5)
    for depth, got in enumerate(report.partial_sums, start=1):
        q = 3**depth
        assert got == F((q - 1) * (2 * q - 1), 6)
    assert report.verdict is ConvergenceVerdict.NORM_DECREASING


def test_integrate_regularized_mazur_is_inconclusive():
    reg = Regularize(1, F(3), Mazur())
    report = integrate(reg, X, 5, 6)
    # independent check of the first two sums from the defining formula
    def reg_value(a, depth):
        q = 5**depth
        mazur = lambda r: F(r, q) - HALF
        return mazur(a) - F(1, 3) * mazur(3 * a % q)

    for depth in (1, 2):
        expected = sum(a * reg_value(a, depth) for a in range(5**depth))
        assert report.partial_sums[depth - 1] == expected
    assert report.partial_sums[:4] == (F(1), F(128, 3), F(3403, 3), F(86528, 3))
    assert report.diff_norms == (F(1, 125), F(1, 25), F(1, 625), F(1, 625), F(1, 15625))
    assert report.verdict is ConvergenceVerdict.INCONCLUSIVE


def test_integrate_step_function_is_exact():
    sf = StepFn(2, tuple(F(r % 7, 3) for r in range(25)))
    report = integrate(Mazur(), sf, 5, 4)
    assert report.partial_sums[1] == report.partial_sums[2] == report.partial_sums[3]
    assert report.partial_sums[1] == brute_force_sum(Mazur(), sf, 5, 2)
    assert report.diff_norms[1:] == (F(0), F(0))
    assert report.verdict is ConvergenceVerdict.CONVERGED_EXACTLY


def test_integrate_validation_and_budget():
    with pytest.raises(ValueError):
        integrate(Mazur(), X, 5, 1)
    with pytest.raises(BallBudgetError):
        integrate(Mazur(), X, 5, 3, ball_budget=20)


def test_polynomial_sums_count_each_coefficient_against_the_budget():
    # x^3 makes 4 passes over the 25 balls of depth 2.
    cube = parse_polynomial("x^3")
    assert riemann_sum(Mazur(), cube, 5, 2, ball_budget=100) == brute_force_sum(
        Mazur(), cube, 5, 2
    )
    with pytest.raises(BallBudgetError, match="4 terms on each of 5\\^2 balls"):
        riemann_sum(Mazur(), cube, 5, 2, ball_budget=99)


def test_integration_report_text_fixture():
    text = integrate(Haar(), X, 5, 3).to_text()
    assert text.splitlines() == [
        "riemann sums",
        "prime=5 max_depth=3",
        "S_1 = 2",
        "S_2 = 12  |diff|_p = 1/5",
        "S_3 = 62  |diff|_p = 1/25",
        "verdict: norm-decreasing",
    ]


def test_integration_report_json_shape():
    payload = integrate(Haar(), X, 5, 3).to_json_dict()
    assert payload == {
        "prime": 5,
        "max_depth": 3,
        "partial_sums": ["2", "12", "62"],
        "diff_norms": ["1/5", "1/25"],
        "verdict": "norm-decreasing",
    }


# ------------------------------------------------------------------- parsing

@pytest.mark.parametrize(
    "text, coeffs",
    [
        ("x", (0, 1)),
        ("-x", (0, -1)),
        ("2", (2,)),
        ("0", (0,)),
        ("x^3", (0, 0, 0, 1)),
        ("3*x^2", (0, 0, 3)),
        ("1/2 + 3*x - x^2", (F(1, 2), 3, -1)),
        ("5/3x", (0, F(5, 3))),
        ("x + x", (0, 2)),
        ("2 - 3", (-1,)),
        (" x ^ 2 ", (0, 0, 1)),  # whitespace is insignificant
    ],
)
def test_parse_polynomial(text, coeffs):
    assert parse_polynomial(text) == Polynomial(tuple(F(c) for c in coeffs))


@pytest.mark.parametrize(
    "bad",
    ["", "x +", "- x -", "2**x", "x^", "*x", "3*", "y", "x^-2", "1.5*x", "1/0*x", "1/0"],
)
def test_parse_polynomial_rejects(bad):
    with pytest.raises(ValueError):
        parse_polynomial(bad)


def test_step_fn_rejects_bool_depth():
    with pytest.raises(ValueError):
        StepFn(True, (F(1), F(2)))
    with pytest.raises(ValueError):
        step_fn_from_json({"depth": True, "values": {"0": "1", "1": "2"}})


@pytest.mark.parametrize(
    "values",
    [
        {"0": "1", "1": "2", "+1": "5"},  # "+1" would replace "1"
        {"0": "1", "1": "2", "01": "5"},
        {"0": "1", " 1": "2"},
        {**{str(t): "0" for t in range(10)}, "1_0": "1"},  # int("1_0") == 10
    ],
)
def test_step_table_keys_must_be_canonical(values):
    with pytest.raises(ValueError, match="keys must be exactly"):
        step_fn_from_json({"depth": 1, "values": values})


def test_parse_polynomial_evaluates_like_written():
    poly = parse_polynomial("1/2+3*x-x^2")
    for x in (F(0), F(2), F(-1, 3)):
        assert poly.value_at(x) == F(1, 2) + 3 * x - x * x


def test_step_fn_from_json():
    sf = step_fn_from_json({"depth": 1, "values": {"0": "1/2", "1": "0", "2": "-3"}})
    assert sf == StepFn(1, (F(1, 2), F(0), F(-3)))
    with pytest.raises(ValueError):
        step_fn_from_json({"depth": 1})
    with pytest.raises(ValueError):
        step_fn_from_json({"depth": 1, "values": ["1", "2"]})
    with pytest.raises(ValueError):
        step_fn_from_json({"depth": 1, "values": {"a": "1"}})
    with pytest.raises(ValueError):
        step_fn_from_json({"depth": 1, "values": {"0": "sqrt2"}})
    with pytest.raises(ValueError):
        step_fn_from_json({"depth": 1, "values": {"0": "1"}, "extra": 1})
