"""`check_relation`, `norm_scan` and `boundedness_verdict` on the family S,
read from the piece forms, against the same calls enumerating every ball.

On S (Haar, Mazur, Bernoulli(k) and Dirac, closed under LinearComb and
under Regularize over an affine inner) `padicdist.distributions.level_pieces`
gives a level as ranges of reps with an integer polynomial numerator plus
point masses, and `norm_scan` takes a level from that form;
`check_relation` proves S additive from its forms' polynomial identities
(`verify._proved`).  The oracle is the same call with `level_pieces`
patched to give no form and `_proved` to prove nothing, so that every
level is evaluated ball by ball: every report must be the same, and on a
faulty expression the same exception, type and message.  Every form in S
must pass its identity, since every member of S is additive, and a failing
identity may cost an enumeration but can never change an additivity
report.
"""

import importlib
from contextlib import contextmanager
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_evaluate_level import SETTINGS, affine_trees, coefficients, points, units
from test_searches import outcome

from padicdist import (
    Ball,
    Bernoulli,
    Dirac,
    Graft,
    Haar,
    LinearComb,
    Mazur,
    Path,
    Regularize,
    Restrict,
    boundedness_verdict,
    check_relation,
    distributions,
    evaluate,
    evaluate_level,
    norm,
    norm_scan,
)
from padicdist.distributions import disjoint_runs, level_pieces

VERIFY = importlib.import_module("padicdist.verify")
# The deepest level checked at each prime: deep enough that a Regularize
# over Mazur with alpha = +-2 has no form at the shallow levels and one at
# the deep ones.  p = 1009 has one level past depth 0 within the budget.
DEPTHS = {2: 7, 3: 5, 5: 3, 7: 3, 1009: 1}


@contextmanager
def enumerating():
    """The checkers with no piece form and no pair proved, so that they
    enumerate every level."""
    saved = VERIFY.level_pieces, VERIFY._proved
    VERIFY.level_pieces, VERIFY._proved = (lambda *args: None), (lambda *args: False)
    try:
        yield
    finally:
        VERIFY.level_pieces, VERIFY._proved = saved


def level_runs(expr, p, n):
    """The disjoint runs of expr's depth-n piece form and its den, or None."""
    form = level_pieces(expr, p, n)
    return None if form is None else (disjoint_runs(form[0], form[1], p**n), form[2])


def _reports(expr, p, depth):
    return (
        outcome(check_relation, expr, p, max(depth, 1)),
        outcome(norm_scan, expr, p, depth),
        outcome(boundedness_verdict, expr, p, depth),
    )


def _requests(patch):
    """The (node, depth) of every `_level` call from now on."""
    calls, real = [], distributions._level

    def counting(e, p, n, *args):
        calls.append((e, n))
        return real(e, p, n, *args)

    patch.setattr(distributions, "_level", counting)
    return calls


# ----------------------------------------------------------------- generators

def alphas(p):
    """Units of Z_p: small integers, whose Regularize runs grow long with
    the depth, and fractions, whose runs stay short."""
    whole = st.sampled_from([a for a in (-3, -2, 2, 3, 4) if a % p]).map(F)
    return st.one_of(whole, units(p))


def faults(p):
    """Members of S that raise on every ball: a point outside Z_p, a
    non-unit alpha."""
    return st.one_of(
        st.builds(lambda u: Dirac(F(u, p)), st.integers(1, 9).filter(lambda u: u % p)),
        st.builds(Regularize, st.integers(1, 2), st.sampled_from([F(p), F(1, p), F(0)]),
                  affine_trees()),
    )


def family(p, faulty=False):
    """Members of S: Bernoulli(k <= 5), point masses with denominators,
    Haar, Mazur, Regularize over affine terms, and sums of them with zero
    and negative coefficients."""
    leaves = st.one_of(
        points(p).map(Dirac),
        coefficients().map(Haar),
        st.just(Mazur()),
        st.integers(1, 5).map(Bernoulli),
        st.builds(Regularize, st.integers(1, 3), alphas(p), affine_trees()),
    )
    if faulty:
        leaves = st.one_of(leaves, faults(p))
    return st.recursive(
        leaves,
        lambda inner: st.lists(st.tuples(coefficients(), inner), min_size=1, max_size=3).map(
            lambda terms: LinearComb(tuple(terms))
        ),
        max_leaves=6,
    )


@st.composite
def cases(draw, faulty=False):
    p = draw(st.sampled_from(sorted(DEPTHS)))
    expr = draw(family(p, faulty))
    return expr, p, draw(st.integers(0, DEPTHS[p]))


# ---------------------------------------------------------------------- tests

@settings(SETTINGS, max_examples=150)
@given(case=cases())
def test_the_checkers_on_the_family_give_the_enumerated_reports(case):
    expr, p, depth = case
    got = _reports(expr, p, depth)
    with enumerating():
        assert got == _reports(expr, p, depth)
    # The largest norm of each level and the first ball with it, ball by ball.
    rows = []
    for n in range(depth + 1):
        nums, den = evaluate_level(expr, p, n)
        norms = [norm(F(x, den), p) for x in nums]
        rows.append((n, max(norms), norms.index(max(norms))))
    scan = got[1][1]
    assert [(e.depth, e.max_norm, e.argmax.rep) for e in scan.entries] == rows


@settings(SETTINGS, max_examples=60)
@given(case=cases(faulty=True))
def test_faulty_members_raise_what_the_enumerating_checkers_raise(case):
    expr, p, depth = case
    got = _reports(expr, p, depth)
    with enumerating():
        assert got == _reports(expr, p, depth)


@settings(SETTINGS, max_examples=100)
@given(case=cases())
def test_the_forms_prove_every_pair_of_levels_that_has_them(case):
    # Every member of S is additive: each form in it passes its identity,
    # so the whole member is proved.  A form that failed would cost an
    # enumeration without changing any report.
    expr, p, depth = case
    for node in distributions._walk([expr]):
        if node._form is not None:
            assert VERIFY._holds(node, p, depth + 1), node
    assert VERIFY._proved(expr, p, depth + 1)


def test_the_identity_fails_for_bernoulli_3_with_one_coefficient_changed():
    # Adding 1 to the coefficient of a^i m^j breaks the identity unless
    # i = j = 0, which adds a Haar measure, itself additive.
    scale, poly = Bernoulli(3)._form
    for i, coeffs in enumerate(poly):
        for j in range(len(coeffs)):
            changed = list(map(list, poly))
            changed[i][j] += 1
            form = SimpleNamespace(_form=(scale, tuple(map(tuple, changed))))
            assert VERIFY._holds(form, 3, 8) == ((i, j) == (0, 0)), (i, j)


@settings(SETTINGS, max_examples=100)
@given(case=cases())
def test_disjoint_runs_tile_the_level_with_its_values(case):
    expr, p, depth = case
    for n in range(min(depth, 3 if p < 1009 else 1) + 1):
        form = level_runs(expr, p, n)
        if form is not None:
            runs, den = form
            assert [start for start, _, _ in runs] == [0] + [stop for _, stop, _ in runs[:-1]]
            assert runs[-1][1] == p**n and all(start < stop for start, stop, _ in runs)
            values = [
                F(sum(c * a**i for i, c in enumerate(coeffs)), den)
                for start, stop, coeffs in runs
                for a in range(start, stop)
            ]
            nums, level_den = evaluate_level(expr, p, n)
            assert values == [F(x, level_den) for x in nums]


MASS_CASES = {
    # Regularize(1, 2, Mazur()) at p = 3 starts a run at rep 41 of depth 4.
    "a mass on a run boundary": (
        LinearComb(((F(1), Regularize(1, 2, Mazur())), (F(5, 2), Dirac(41)))), 3, 5
    ),
    "masses on the first and the last ball": (
        LinearComb(((F(2), Bernoulli(3)), (F(-1), Dirac(0)), (F(3, 4), Dirac(-1)))), 5, 3
    ),
    # Mazur is -1/2 on the ball 0 + (p^n) at every depth.
    "a mass that cancels the polynomial at its rep": (
        LinearComb(((F(1), Mazur()), (F(1, 2), Dirac(0)))), 3, 4
    ),
    "an all-zero affine level": (Haar(0), 5, 3),
    "an all-zero level of pieces": (
        LinearComb(((F(0), Bernoulli(3)), (F(1), Dirac(F(1, 2))), (F(-1), Dirac(F(1, 2))))), 3, 4
    ),
    # The numerator 6a^2 - 6(p^n + 1) a + p^2n + 3 p^n: at p = 3 and n >= 2
    # its differences at 0, p^2n + 3 p^n, -6 p^n and 12, have valuations
    # n + 1, n + 1 and 1, so the first rep of least valuation on the one
    # run 0..p^n-1 is 0 + degree = 2.
    "a run whose first rep of least valuation is its start + degree": (
        LinearComb(((F(1), Bernoulli(2)), (F(-1), Mazur()))), 3, 4
    ),
}


@pytest.mark.parametrize("case", MASS_CASES.values(), ids=MASS_CASES)
def test_named_levels_give_the_enumerated_reports(case):
    expr, p, depth = case
    got = _reports(expr, p, depth)
    with enumerating():
        assert got == _reports(expr, p, depth)


def test_the_named_levels_are_what_their_names_say():
    runs = level_pieces(Regularize(1, 2, Mazur()), 3, 4)[0]
    assert 41 in {run.start for run in runs}
    # E_(1,2) at p = 5, depth 2: 2a wraps round 25 from a = 13 on, so the
    # level is two disjoint runs, of 13 and 12 balls, with its values.
    expr = Regularize(1, 2, Mazur())
    assert set(level_pieces(expr, 5, 2)[0]) == {range(0, 13), range(13, 25)}
    runs, den = level_runs(expr, 5, 2)
    assert [(start, stop) for start, stop, _ in runs] == [(0, 13), (13, 25)]
    values = [
        F(sum(c * a**i for i, c in enumerate(coeffs)), den)
        for start, stop, coeffs in runs
        for a in range(start, stop)
    ]
    nums, level_den = evaluate_level(expr, 5, 2)
    assert values == [F(x, level_den) for x in nums]
    assert all(evaluate(MASS_CASES["a mass that cancels the polynomial at its rep"][0],
                        Ball(3, n, 0)) == 0 for n in range(5))
    zero = norm_scan(MASS_CASES["an all-zero level of pieces"][0], 3, 4)
    assert {(e.max_norm, e.argmax.rep) for e in zero.entries} == {(0, 0)}
    expr = MASS_CASES["a run whose first rep of least valuation is its start + degree"][0]
    for n in range(2, 5):
        (run,), _ = level_runs(expr, 3, n)
        assert run[0] == 0 and len(run[2]) == 3
        assert norm_scan(expr, 3, n).entries[n].argmax.rep == 2


def test_the_checkers_make_no_level_request_on_the_family(monkeypatch):
    # Bernoulli, Mazur, Haar, a point mass and a Regularize over Haar (one
    # value per level) have a form at every depth, so no level is listed.
    # A Graft has none: each of its levels is one request.
    members = LinearComb((
        (F(1, 2), Bernoulli(3)), (F(-2), Mazur()), (F(3), Dirac(F(1, 2))),
        (F(2, 3), Haar(F(5))), (F(1), Regularize(2, F(1, 3), Haar())),
    ))
    graft = Graft(Path(5, (), (1,)), Mazur(), Haar(2))
    with enumerating():
        want = [_reports(e, 5, 5) for e in (members, Dirac(F(-7, 3)), Bernoulli(5))]
    calls = _requests(monkeypatch)
    assert [_reports(e, 5, 5) for e in (members, Dirac(F(-7, 3)), Bernoulli(5))] == want
    assert calls == []
    check_relation(graft, 5, 4)
    norm_scan(graft, 5, 4)
    assert [n for e, n in calls if e is graft] == [0, 1, 2, 3, 4] * 2


@pytest.mark.parametrize("expr", [
    Bernoulli(3),
    Restrict(Ball(3, 1, 1), LinearComb(((F(1), Dirac(F(1, 4))), (F(-2), Bernoulli(2))))),
    LinearComb((
        (F(3, 2), Bernoulli(2)), (F(-1), Dirac(5)), (F(2), Regularize(1, F(1, 2), Haar())),
    )),
])
def test_a_wrong_form_costs_an_enumeration_never_a_wrong_report(monkeypatch, expr):
    # The identity check is one off at depth 2: no pair is proved, so all
    # are listed, and the report is the true one.
    real = VERIFY._block_sum

    def wrong(coeffs, m, p):
        sums = real(coeffs, m, p)
        return [sums[0] + (m == 9), *sums[1:]]

    with enumerating():
        want = check_relation(expr, 3, 4)
    monkeypatch.setattr(VERIFY, "_block_sum", wrong)
    calls = _requests(monkeypatch)
    assert check_relation(expr, 3, 4) == want and want.passed
    assert sorted({n for e, n in calls if e is expr}) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("k, depth, checked", [(200, 8, 8), (3, 40, 4), (1, 1, 1)])
def test_a_form_of_degree_d_checks_its_identity_at_min_d_plus_1_and_depth_pairs(
    monkeypatch, k, depth, checked
):
    real, pairs = VERIFY._block_sum, []

    def counting(coeffs, m, p):
        pairs.append(m)
        return real(coeffs, m, p)

    monkeypatch.setattr(VERIFY, "_block_sum", counting)
    calls = _requests(monkeypatch)
    report = check_relation(Bernoulli(k), 3, depth, ball_budget=10**30)
    assert report.passed and calls == []
    assert pairs == [3**n for n in range(checked)]
