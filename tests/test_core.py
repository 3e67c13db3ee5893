"""Exact arithmetic primitives: valuations, digit streams, balls, paths."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdist import (
    Ball,
    Divergence,
    DivergenceKind,
    NotPAdicIntegerError,
    Order,
    Path,
    PrimeMismatchError,
    as_rational,
    ball_children,
    ball_contains,
    ball_digits,
    ball_make,
    ball_meet,
    ball_nests_in,
    digit_expand,
    divergence_index,
    format_rational,
    norm,
    parse_rational,
    path_compare,
    path_to_point,
    point_to_path,
    require_padic_integer,
    require_prime,
    valuation,
)
from padicdist.core import digits_to_int, int_to_digits, path_walk_bound

import digit_oracle as oracle


def expand_by_single_inverse(t, p, count):
    """Independent digit oracle: reduce t mod p**count in one shot, then
    peel base-p digits off the residue."""
    t = Fraction(t)
    rep = (t.numerator * pow(t.denominator, -1, p**count)) % p**count
    digits = []
    for _ in range(count):
        digits.append(rep % p)
        rep //= p
    return digits


# ---------------------------------------------------------------- primes

def test_require_prime_accepts_primes():
    for p in (2, 3, 5, 7, 11, 13, 97, 10**18 + 3):
        require_prime(p)


@pytest.mark.parametrize(
    "bad",
    [0, 1, 4, 6, 9, -3, -7, 15, 100,
     1000000016000000063,  # (10^9 + 7)(10^9 + 9)
     3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
     561],  # Carmichael number
)
def test_require_prime_rejects_composites(bad):
    with pytest.raises(ValueError):
        require_prime(bad)


def test_require_prime_agrees_with_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    for n in range(-2, 20000):
        try:
            got = require_prime(n) == n
        except ValueError:
            got = False
        assert got == by_trial(n)


# psi_1 .. psi_12: the least strong pseudoprimes to the first j prime bases
# (several j share one), each caught only by a later base.
@pytest.mark.parametrize(
    "n",
    [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
     341550071728321, 3825123056546413051, 318665857834031151167461],
)
def test_require_prime_rejects_strong_pseudoprimes(n):
    with pytest.raises(ValueError, match="must be a prime integer"):
        require_prime(n)


def test_require_prime_refuses_primes_beyond_the_proven_range():
    # 2^89 - 1 is prime, but above 3.3 * 10^24 the test is not proven exact.
    with pytest.raises(ValueError, match="must be below"):
        require_prime(2**89 - 1)


def test_require_prime_rejects_bool():
    with pytest.raises(ValueError):
        require_prime(True)


# ------------------------------------------------------------- rationals

def test_as_rational_accepts_int_fraction_str():
    assert as_rational(7) == Fraction(7)
    assert as_rational(Fraction(3, 4)) == Fraction(3, 4)
    assert as_rational("-7/8") == Fraction(-7, 8)
    assert as_rational("+5") == Fraction(5)


def test_as_rational_rejects_float_and_bool():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)


@pytest.mark.parametrize("bad", ["", "abc", "0.5", "1/0", "1//2", "1 /2", "٣", "1/٣", "1_0"])
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_parse_round_trip():
    for q in (Fraction(0), Fraction(7), Fraction(-7, 8), Fraction(22, 7)):
        assert parse_rational(format_rational(q)) == q


def test_format_rational_integers_have_no_slash():
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(-7, 8)) == "-7/8"


# ------------------------------------------------------------ valuations

def test_valuation_of_zero_is_infinite():
    assert valuation(0, 5) == math.inf
    assert norm(0, 5) == 0


@pytest.mark.parametrize(
    "t, p, v",
    [
        (45, 3, 2),
        (45, 5, 1),
        (8, 2, 3),
        (1, 7, 0),
        (Fraction(5, 3), 5, 1),
        (Fraction(3, 5), 5, -1),
        (Fraction(7, 8), 2, -3),
        (Fraction(-7, 8), 3, 0),
    ],
)
def test_valuation_fixtures(t, p, v):
    assert valuation(t, p) == v
    expected_norm = Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))
    assert norm(t, p) == expected_norm


def test_norm_fixtures():
    assert norm(45, 3) == Fraction(1, 9)
    assert norm(Fraction(3, 5), 5) == 5
    assert norm(Fraction(7, 8), 2) == 8


def test_valuation_requires_prime():
    with pytest.raises(ValueError):
        valuation(45, 6)


# ---------------------------------------------------------------- digits

def test_digit_expand_fixture():
    assert digit_expand(Fraction(-7, 8), 3, 6) == [1, 2, 1, 2, 1, 2]
    assert digit_expand(7, 3, 4) == [1, 2, 0, 0]
    assert digit_expand(0, 5, 3) == [0, 0, 0]


def test_digit_expand_matches_single_inverse_oracle():
    cases = [
        (Fraction(-7, 8), 3, 8),
        (Fraction(1, 10), 3, 8),
        (Fraction(22, 7), 5, 6),
        (Fraction(-1, 3), 2, 10),
        (45, 3, 5),
    ]
    for t, p, count in cases:
        assert digit_expand(t, p, count) == expand_by_single_inverse(t, p, count)


def test_digit_expand_rejects_non_integral_points():
    with pytest.raises(NotPAdicIntegerError):
        digit_expand(Fraction(1, 3), 3, 4)
    with pytest.raises(NotPAdicIntegerError):
        require_padic_integer(Fraction(1, 10), 5)


def test_digit_expand_rejects_negative_count():
    # Bools and floats are not counts: True would read as 1, 2.0 would die in range.
    for count in (-1, True, 2.0):
        with pytest.raises(ValueError, match="digit count must be an integer >= 0"):
            digit_expand(Fraction(1, 3), 5, count)


# ----------------------------------------------------------------- paths

def test_path_validation():
    with pytest.raises(ValueError):
        Path(3, (), ())  # period must be nonempty
    with pytest.raises(ValueError):
        Path(3, (3,), (0,))  # digit out of range
    with pytest.raises(ValueError):
        Path(4, (), (1,))  # not a prime


def test_path_digit_indexing():
    pi = Path(3, (1,), (2, 0))
    assert pi.digits(6) == [1, 2, 0, 2, 0, 2]
    assert pi.digit(0) == 1
    assert pi.digit(5) == 2
    assert pi.digits(0) == []
    for count in (-1, True, 2.0):
        with pytest.raises(ValueError, match="digit count must be an integer >= 0"):
            pi.digits(count)


def test_point_to_path_fixtures():
    assert point_to_path(Fraction(-7, 8), 3) == Path(3, (), (1, 2))
    assert point_to_path(7, 3) == Path(3, (1, 2), (0,))
    assert point_to_path(0, 5) == Path(5, (), (0,))


def test_path_to_point_fixtures():
    assert path_to_point(Path(3, (), (1, 2))) == Fraction(-7, 8)
    assert path_to_point(Path(3, (1, 2), (0,))) == 7
    assert path_to_point(Path(5, (), (4,))) == -1


def test_point_to_path_rejects_non_integral():
    with pytest.raises(NotPAdicIntegerError):
        point_to_path(Fraction(1, 3), 3)


def test_path_compare_fixtures():
    a = point_to_path(Fraction(-7, 8), 3)
    b = point_to_path(7, 3)
    assert path_compare(a, b) == Order.GREATER
    assert path_compare(b, a) == Order.LESS
    assert path_compare(a, a) == Order.EQUAL
    # Same value written with redundant unrolling still compares equal.
    unrolled = Path(3, (1, 2), (1, 2))
    assert path_compare(a, unrolled) == Order.EQUAL


def test_path_compare_requires_same_prime():
    with pytest.raises(PrimeMismatchError):
        path_compare(Path(3, (), (1,)), Path(5, (), (1,)))


# ----------------------------------------------------------------- balls

def test_ball_validation():
    with pytest.raises(ValueError):
        Ball(3, -1, 0)
    with pytest.raises(ValueError):
        Ball(3, 1, 3)  # rep must be < p**depth
    with pytest.raises(ValueError):
        Ball(6, 1, 0)
    # bools are not depths or reps, though True == 1
    with pytest.raises(ValueError):
        Ball(5, True, 3)
    with pytest.raises(ValueError):
        Ball(5, 1, True)


def test_ball_make_canonicalizes():
    assert ball_make(5, 2, -3) == Ball(5, 2, 22)
    assert ball_make(5, 2, 26) == Ball(5, 2, 1)
    assert ball_make(3, 2, Fraction(-7, 8)) == Ball(3, 2, 7)
    assert ball_make(3, 0, 12345) == Ball(3, 0, 0)


def test_ball_make_rejects_non_integral():
    with pytest.raises(NotPAdicIntegerError):
        ball_make(5, 1, Fraction(1, 10))


def test_ball_digits():
    assert ball_digits(Ball(3, 2, 7)) == [1, 2]
    assert ball_digits(Ball(3, 0, 0)) == []


def test_ball_children_partition():
    parent = Ball(3, 1, 2)
    kids = ball_children(parent)
    assert [c.rep for c in kids] == [2, 5, 8]
    assert all(c.depth == 2 for c in kids)
    assert all(ball_nests_in(c, parent) for c in kids)


def test_ball_contains():
    ball = Ball(3, 2, 7)
    assert ball_contains(ball, Fraction(-7, 8))
    assert ball_contains(ball, 7)
    assert not ball_contains(ball, 1)
    assert ball_contains(Ball(3, 0, 0), 12)


def test_ball_contains_rejects_non_integral():
    with pytest.raises(NotPAdicIntegerError):
        ball_contains(Ball(3, 1, 0), Fraction(1, 3))


def test_ball_meet_nested_and_disjoint():
    outer = Ball(3, 1, 1)
    inner = Ball(3, 2, 7)
    assert ball_meet(outer, inner) == inner
    assert ball_meet(inner, outer) == inner
    assert ball_meet(Ball(3, 1, 0), Ball(3, 1, 2)) is None
    assert ball_meet(Ball(3, 2, 4), Ball(3, 2, 7)) is None


def test_ball_meet_requires_same_prime():
    with pytest.raises(PrimeMismatchError):
        ball_meet(Ball(3, 1, 0), Ball(5, 1, 0))


# ------------------------------------------------------------ divergence

def test_divergence_point_cases():
    pi = Path(3, (), (1, 2))
    assert divergence_index(7, pi) == Divergence.splits_after(1)
    assert divergence_index(2, pi) == Divergence.first_digit()
    never = divergence_index(Fraction(-7, 8), pi)
    assert never.kind == DivergenceKind.NEVER
    assert never.index == 2  # digits inspected over the decision horizon


def test_divergence_ball_cases():
    pi = Path(3, (), (1, 2))
    # digits (1, 1): agreement stops right after index 0
    assert divergence_index(Ball(3, 2, 4), pi) == Divergence.splits_after(0)
    assert divergence_index(Ball(3, 1, 2), pi) == Divergence.first_digit()
    stays = divergence_index(Ball(3, 2, 7), pi)
    assert stays.kind == DivergenceKind.NEVER
    assert stays.index == 2
    # Depth-0 ball has no digits to disagree on.
    root = divergence_index(Ball(3, 0, 0), pi)
    assert root.kind == DivergenceKind.NEVER
    assert root.index == 0


def test_divergence_requires_matching_prime():
    with pytest.raises(PrimeMismatchError):
        divergence_index(Ball(5, 1, 0), Path(3, (), (1,)))


# ------------------------------------------------- property-based checks

rational_points = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**6
)


@st.composite
def prime_and_path(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    pre = tuple(draw(st.lists(st.integers(0, p - 1), max_size=5)))
    per = tuple(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5)))
    return Path(p, pre, per)


@settings(max_examples=150)
@given(prime_and_path())
def test_path_round_trip_property(pi):
    value = path_to_point(pi)
    assert value.denominator % pi.prime != 0
    again = point_to_path(value, pi.prime)
    assert path_compare(pi, again) == Order.EQUAL
    assert pi.digits(12) == again.digits(12)


@settings(max_examples=150)
@given(prime_and_path(), st.integers(1, 12))
def test_path_digits_match_expansion(pi, count):
    value = path_to_point(pi)
    assert digit_expand(value, pi.prime, count) == pi.digits(count)


@settings(max_examples=200)
@given(rational_points, rational_points, st.sampled_from([2, 3, 5, 7]))
def test_strong_triangle_property(x, y, p):
    lhs = norm(x + y, p)
    bound = max(norm(x, p), norm(y, p))
    assert lhs <= bound
    if norm(x, p) != norm(y, p):
        assert lhs == bound


@settings(max_examples=200)
@given(rational_points, rational_points, st.sampled_from([2, 3, 5, 7]))
def test_valuation_is_additive(x, y, p):
    if x == 0 or y == 0:
        assert valuation(x * y, p) == math.inf
    else:
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


@settings(max_examples=150)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 4),
    st.integers(-10**9, 10**9),
)
def test_children_partition_property(p, depth, a):
    parent = ball_make(p, depth, a)
    kids = ball_children(parent)
    assert len(kids) == p
    assert len({c.rep for c in kids}) == p
    for child in kids:
        assert child.depth == depth + 1
        assert child.rep % p**depth == parent.rep
        assert ball_nests_in(child, parent)
    # The original point lands in exactly one child.
    hits = [c for c in kids if ball_contains(c, a)]
    assert len(hits) == 1


@settings(max_examples=150)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 5), rational_points)
def test_ball_digit_consistency_property(p, depth, t):
    if t.denominator % p == 0:
        with pytest.raises(NotPAdicIntegerError):
            ball_make(p, depth, t)
        return
    ball = ball_make(p, depth, t)
    assert ball_contains(ball, t)
    assert list(ball_digits(ball)) == digit_expand(t, p, depth)


@settings(max_examples=100)
@given(prime_and_path(), prime_and_path())
def test_path_compare_antisymmetry(a, b):
    if a.prime != b.prime:
        return
    forward = path_compare(a, b)
    backward = path_compare(b, a)
    flipped = {
        Order.LESS: Order.GREATER,
        Order.GREATER: Order.LESS,
        Order.EQUAL: Order.EQUAL,
    }
    assert backward == flipped[forward]
    assert (forward == Order.EQUAL) == (path_to_point(a) == path_to_point(b))


# ------------------------------------- the int digit layer against the oracle

ORACLE_PRIMES = [2, 3, 5, 7, 1000003]


@st.composite
def prime_and_point(draw):
    """A prime and a point of Z_p: negative numerators, integers and 0 included."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    u = draw(st.one_of(st.just(0), st.integers(-10**12, 10**12)))
    v = draw(st.one_of(st.just(1), st.integers(1, 2000)))
    if v % p == 0:
        v += 1
    return p, Fraction(u, v)


@settings(max_examples=300)
@given(prime_and_point())
def test_point_to_path_matches_the_fraction_walk(case):
    p, x = case
    path = point_to_path(x, p)
    assert path == oracle.point_to_path(x, p)
    assert len(path.preperiod) + len(path.period) <= path_walk_bound(x, p)


@settings(max_examples=200)
@given(prime_and_point())
def test_path_to_point_inverts_point_to_path(case):
    p, x = case
    path = point_to_path(x, p)
    assert path_to_point(path) == x == oracle.path_to_point(path)


@st.composite
def prime_and_long_path(draw):
    # Periods and preperiods past 64 digits take the halving split.
    p = draw(st.sampled_from(ORACLE_PRIMES))
    digit = st.integers(0, p - 1)
    pre = draw(st.lists(digit, max_size=150))
    per = draw(st.lists(digit, min_size=1, max_size=150))
    return Path(p, pre, per)


@settings(max_examples=150)
@given(prime_and_long_path())
def test_path_to_point_matches_the_power_sum(path):
    assert path_to_point(path) == oracle.path_to_point(path)
    assert digits_to_int(path.period, path.prime) == sum(
        d * path.prime**i for i, d in enumerate(path.period)
    )


@settings(max_examples=200)
@given(st.sampled_from(ORACLE_PRIMES), st.integers(0, 200), st.data())
def test_ball_digits_match_the_divmod_loop(p, depth, data):
    rep = data.draw(st.integers(0, p**depth - 1))
    expected = oracle.int_to_digits(rep, p, depth)
    assert ball_digits(Ball(p, depth, rep)) == expected == int_to_digits(rep, p, depth)
    assert digits_to_int(expected, p) == rep


@settings(max_examples=150)
@given(prime_and_long_path(), st.integers(0, 20), st.data())
def test_path_digits_match_digit_by_digit(path, past, data):
    # Counts below, at and past the end of the preperiod.
    pre = len(path.preperiod)
    below = data.draw(st.integers(0, pre))
    for count in (below, pre, pre + past, pre + 3 * len(path.period) + past):
        assert path.digits(count) == [path.digit(i) for i in range(count)]


@settings(max_examples=200)
@given(prime_and_point(), st.data())
def test_compare_and_divergence_match_digit_by_digit(case, data):
    p, x = case
    digit = st.integers(0, p - 1)
    ref = Path(p, data.draw(st.lists(digit, max_size=4)),
               data.draw(st.lists(digit, min_size=1, max_size=4)))
    own = point_to_path(x, p)
    assert path_compare(own, ref) == oracle.path_compare(own, ref)
    assert divergence_index(x, ref) == oracle.divergence_of_point(x, ref)
    # A point always agrees with its own path, out to the horizon.
    assert divergence_index(x, own).kind is DivergenceKind.NEVER


# ---------------------------------------------- bounded time on long periods

def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def test_long_period_conversions_finish_in_bounded_time():
    # 1/100019 at p = 1000003 has a period of 100,018 digits.  A Fraction per
    # digit took 1.85 s for the path and p**i per digit did not bring it back
    # within minutes.
    path, took = _timed(point_to_path, Fraction(1, 100019), 1000003)
    assert took < 1
    assert (len(path.preperiod), len(path.period)) == (1, 100018)
    value, took = _timed(path_to_point, path)
    assert took < 5
    assert value == Fraction(1, 100019)


def test_long_digit_expansion_finishes_in_bounded_time():
    # One divmod per digit is quadratic in the count: 0.59 s here.
    digits, took = _timed(digit_expand, Fraction(-7, 8), 3, 50000)
    assert took < 0.25
    assert digits == [1, 2] * 25000
