"""The searches on two sides that differ by point masses only.

When left - right is a sum of point masses c_y delta_y over one cancelled
base, `check_graft_precondition` runs its per-level body only at the
levels where such a difference can fail, and `distinctness_witness` and
`check_branch_hypothesis` skip the depths where every class y mod p^n sums
to 0.  Each call must give what the same call gives with
`verify._mass_difference` patched to None, which lists every level:
reports and witnesses equal, errors of the same type and message.
"""

from fractions import Fraction as F
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from test_evaluate_level import PRIMES, SETTINGS, cells, coefficients, paths, points, units
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
    check_branch_hypothesis,
    check_graft_precondition,
    distinctness_witness,
)
from padicdist import verify
from padicdist.core import path_to_point

MASS_SETTINGS = settings(SETTINGS, max_examples=300)


def _listing(search, *args):
    with mock.patch.object(verify, "_mass_difference", lambda left, right: None):
        return outcome(search, *args)


def assert_as_listed(search, *args):
    assert outcome(search, *args) == _listing(search, *args)


# ------------------------------------------------------------- generators

def forms(p):
    return st.one_of(
        st.just(Mazur()),
        st.integers(1, 4).map(Bernoulli),
        coefficients().map(Haar),
        st.builds(lambda a, b: LinearComb(((a, Mazur()), (b, Haar(3)))), coefficients(),
                  coefficients()),
    )


def bases(p, faults):
    """A form, a Regularize over a form, or a LinearComb with no form;
    with faults, a Regularize whose alpha is no unit."""
    regularized = st.builds(Regularize, st.integers(1, 2), units(p), forms(p))
    options = [
        forms(p),
        regularized,
        st.builds(lambda c, r, f: LinearComb(((c, r), (1, f))), coefficients(), regularized,
                  forms(p)),
    ]
    if faults:
        options.append(st.builds(Regularize, st.just(1), st.sampled_from([F(p), F(1, p)]),
                                 forms(p)))
    return st.one_of(options)


def near(p, x, depth):
    """Points that leave the path of x at digit j, some past depth, some
    at x itself, and pairs of opposite coefficients that leave it at one
    digit: into one child, where they cancel, or into two."""
    unit = st.builds(F, st.integers(-20, 20).filter(lambda u: u % p),
                     st.sampled_from([d for d in range(1, 8) if d % p]))
    j = st.integers(0, depth + 3)
    one = st.tuples(coefficients(), st.builds(lambda j, u: x + p**j * u, j, unit))
    pair = st.builds(
        lambda c, j, u, v: [(c, x + p**j * u), (-c, x + p**j * v)],
        coefficients().filter(bool), j, unit,
        st.one_of(unit, st.builds(lambda u, w: u + p * w, unit, st.integers(1, 5))),
    )
    return st.one_of(
        one.map(lambda m: [m]),
        st.tuples(coefficients(), st.just(x)).map(lambda m: [m]),
        pair,
        st.tuples(coefficients(), points(p)).map(lambda m: [m]),
    )


def faulty_points(p):
    return st.tuples(coefficients(), st.builds(F, st.integers(1, 9).filter(lambda u: u % p),
                                               st.just(p))).map(lambda m: [m])


def splitters(p, e):
    """e under a Restrict, a Graft or a Branch, or beside one."""
    return st.one_of(
        st.builds(Restrict, cells(p), st.just(e)),
        st.builds(Graft, paths(p), st.just(e), st.just(Mazur())),
        st.just(Branch(1, (e,) * p)),
        st.builds(lambda cell: LinearComb(((1, e), (0, Restrict(cell, Mazur())))), cells(p)),
    )


@st.composite
def sides(draw, p, x, depth, faults=False):
    """left and right over a shared base, or now and then two bases,
    with random signed point masses spread over the two."""
    base = draw(bases(p, faults))
    other = base if draw(st.integers(0, 4)) else draw(bases(p, faults))
    masses = st.one_of(near(p, x, depth), faulty_points(p)) if faults else near(p, x, depth)
    terms = [m for group in draw(st.lists(masses, max_size=4)) for m in group]
    left, right = [(F(1), base)], [(F(1), other)]
    for c, y in terms:
        if draw(st.booleans()):
            left.append((c, Dirac(y)))
        else:
            right.append((-c, Dirac(y)))
    left = LinearComb(tuple(left)) if len(left) > 1 or draw(st.booleans()) else base
    right = LinearComb(tuple(right)) if len(right) > 1 else other
    if draw(st.integers(0, 5)) == 0:
        if draw(st.booleans()):
            left = draw(splitters(p, left))
        else:
            right = draw(splitters(p, right))
    if draw(st.booleans()):
        left, right = right, left
    return left, right


@st.composite
def graft_cases(draw, faults=False):
    p = draw(st.sampled_from(PRIMES))
    path = draw(paths(p))
    depth = draw(st.integers(0, 10))
    left, right = draw(sides(p, path_to_point(path), depth, faults))
    return left, right, path, depth


@st.composite
def search_cases(draw, faults=False):
    p = draw(st.sampled_from(PRIMES))
    depth = draw(st.integers(0, 4 if p < 5 else 3))
    left, right = draw(sides(p, draw(points(p)), depth, faults))
    return left, right, p, depth


# ------------------------------------------------------------------ oracles

@MASS_SETTINGS
@given(graft_cases())
def test_graft_check_of_point_masses_reports_what_the_listing_reports(case):
    assert_as_listed(check_graft_precondition, *case)


@MASS_SETTINGS
@given(graft_cases(faults=True))
def test_graft_check_of_faulty_point_masses_raises_what_the_listing_raises(case):
    assert_as_listed(check_graft_precondition, *case)


@MASS_SETTINGS
@given(st.one_of(search_cases(), search_cases(faults=True)))
def test_distinctness_of_point_masses_finds_what_the_listing_finds(case):
    assert_as_listed(distinctness_witness, *case)


@MASS_SETTINGS
@given(search_cases(), st.data())
def test_branch_check_of_point_masses_finds_what_the_listing_finds(case, data):
    left, right, p, depth = case
    table = (left, *data.draw(st.lists(st.sampled_from([left, right]), min_size=p - 1,
                                       max_size=p - 1)))
    assert_as_listed(check_branch_hypothesis, table, p, 1, max(1, depth))


# -------------------------------------------------------------------- cases

def test_masses_the_listing_would_need_to_see():
    p, path, depth = 3, Path(3, (1,), (2, 0)), 8
    x = path_to_point(path)
    b = Regularize(1, 2, Mazur())
    cases = [
        # the path's own point: on-path failures at every level
        (LinearComb(((1, b), (2, Dirac(x)))), b),
        # two masses into one child, which cancel there
        (LinearComb(((1, b), (1, Dirac(x + 9)), (-1, Dirac(x + 9 + 27)))), b),
        # a mass that follows the path past the depth checked
        (LinearComb(((1, Mazur()), (F(1, 2), Dirac(x + 3**10)))), Mazur()),
        # a Dirac outside Z_p and an alpha that is no unit, both cancelled
        (LinearComb(((1, b), (1, Dirac(F(1, 3))))),
         LinearComb(((1, b), (1, Dirac(F(1, 3))), (0, Mazur())))),
        (LinearComb(((1, Regularize(1, 3, Mazur())), (1, Dirac(1)))), Regularize(1, 3, Mazur())),
    ]
    assert verify._mass_difference(*cases[3]) == {}
    for left, right in cases:
        assert_as_listed(check_graft_precondition, left, right, path, depth)
        assert_as_listed(distinctness_witness, left, right, p, 4)
    report = check_graft_precondition(*cases[0], path, depth)
    assert [f.level for f in report.on_path_agreement] == list(range(depth + 1))
    assert check_graft_precondition(*cases[1], path, depth).passed
    past = check_graft_precondition(*cases[2], path, depth)
    assert len(past.on_path_agreement) == depth + 1 and not past.tail_sum_failures


def test_a_form_part_of_the_difference_is_no_point_mass_sum():
    # Mazur - Haar(1) is no sum of point masses, and a Regularize held on
    # one side only does not cancel: both take the listing.  The masses
    # come times one common factor, here the weights' denominator 3.
    b = Regularize(1, 2, Mazur())
    assert verify._mass_difference(LinearComb(((1, Mazur()), (1, Dirac(1)))), Haar(1)) is None
    assert verify._mass_difference(LinearComb(((2, b), (1, Dirac(1)))), b) is None
    assert verify._mass_difference(
        LinearComb(((F(1, 3), b), (F(2, 3), b), (1, Dirac(1)))), b
    ) == {F(1): 3}
    assert verify._mass_difference(Restrict(Ball(3, 1, 0), b), b) is None


def test_a_point_mass_difference_at_depth_100_requests_levels_0_and_d_only(monkeypatch):
    # The path's digit 37 is 2: x + 5^37 leaves it above, x - 5^37 below.
    p, path, depth, d = 5, Path(5, (1,), (2, 3)), 100, 37
    x = path_to_point(path)
    left = LinearComb(((1, Mazur()), (F(3, 2), Dirac(x + p**d)), (F(-3, 2), Dirac(x - p**d))))
    depths, real = [], verify.evaluate_shared

    def counting(exprs, p, n, reps):
        depths.append(n)
        return real(exprs, p, n, reps)

    monkeypatch.setattr(verify, "evaluate_shared", counting)
    report = check_graft_precondition(left, Mazur(), path, depth)
    # Level 0 reads P_0 and its children, level d reads P_d and its children.
    assert depths == [0, 1, d, d + 1]
    assert [f.level for f in report.tail_sum_failures] == [d]
    assert not report.on_path_agreement
    assert report == _listing(check_graft_precondition, left, Mazur(), path, depth)[1]
