"""Riemann sums against distributions and tail classification."""

from fractions import Fraction as F

import pytest
from scalar_oracle import evaluate

from padicdist import (
    Ball,
    BallBudgetError,
    ConvergenceVerdict,
    Dirac,
    Haar,
    LinearComb,
    Mazur,
    Polynomial,
    Regularize,
    StepFn,
    classify_tail,
    integrate,
    parse_polynomial,
    riemann_sum,
    step_fn_from_json,
)

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
    with pytest.raises(ValueError):
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
    ["", "x +", "- x -", "2**x", "x^", "*x", "3*", "y", "x^-2", "1.5*x"],
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
