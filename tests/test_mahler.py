"""Riemann sums of the binomial polynomials against closed-form Mahler moments.

The j-th Mahler moment of a distribution mu on Z_p is m_j = int C(x, j) dmu,
and its generating series A(T) = sum m_j T^j is mu's Amice transform.  For
the families below it has a closed form, computed here from power series
alone, sharing no code with the evaluators:

    Haar             m_j = (-1)^j / (j + 1)        (Volkenborn)
    Dirac(a)         m_j = C(a, j)
    E_(1,c)          A(T) = 1/T - c / ((1+T)^c - 1)
    E_(2,c)          2 (1+T) A'(T), A that of E_(1,c)

where E_(1,c) = Regularize(1, 1/c, Mazur()) and E_(2,c) =
Regularize(2, 1/c, Bernoulli(2)); multiplying a measure by x acts on its
transform as (1+T) d/dT.  See Washington, GTM 83, Ch. 12, and Colmez,
"Fonctions d'une variable p-adique", Asterisque 330 (2010).

The depth-n Riemann sum S_n of C(x, j) approaches m_j p-adically: for a sum
of c_i times these families, v_p(S_n - m_j) >= n - v_p(j!) + min_i v_p(c_i).
"""

from fractions import Fraction as F
from math import inf, prod

import pytest

from padicdist import (
    Bernoulli,
    Dirac,
    Haar,
    LinearComb,
    Mazur,
    Polynomial,
    Regularize,
    bernoulli_polynomial,
    integrate,
    riemann_sum,
)

MAX_J = 4
# Depth 7 at p = 7 would need 5 * 7^7 balls, past the default budget.
DEPTHS = {3: 7, 5: 7, 7: 6}


def v(x, p):
    """The p-adic valuation of the rational x; inf for 0."""
    x = F(x)
    if x == 0:
        return inf
    count, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, count = num // p, count + 1
    while den % p == 0:
        den, count = den // p, count - 1
    return count


def binomial(x, j):
    """C(x, j) = x (x - 1) ... (x - j + 1) / j! for a rational x."""
    return prod((F(x) - i for i in range(j)), start=F(1)) / prod(range(1, j + 1))


def binomial_polynomial(j):
    """C(x, j) as a Polynomial, coefficients from degree 0 upward."""
    coeffs = [F(1)]
    for i in range(j):
        # Multiply by (x - i) / (i + 1).
        coeffs = [
            (lower - i * here) / (i + 1)
            for lower, here in zip([F(0)] + coeffs, coeffs + [F(0)])
        ]
    return Polynomial(tuple(coeffs))


def series_inverse(g, count):
    """The first count coefficients of 1/g, g a power series with g[0] != 0."""
    h = [1 / F(g[0])]
    for k in range(1, count):
        h.append(-sum(g[i] * h[k - i] for i in range(1, min(k, len(g) - 1) + 1)) / g[0])
    return h


def haar_moments(count):
    return [F((-1) ** j, j + 1) for j in range(count)]


def dirac_moments(a, count):
    return [binomial(a, j) for j in range(count)]


def e1_moments(c, count):
    # (1+T)^c - 1 = c T g(T), g(0) = 1, so A(T) = (1 - 1/g(T)) / T.
    g = [F(binomial(c, k + 1), c) for k in range(count + 1)]
    h = series_inverse(g, count + 1)
    return [-h[j + 1] for j in range(count)]


def e2_moments(c, count):
    # 2 (1+T) A'(T): the T^j coefficient is 2 ((j+1) m_(j+1) + j m_j).
    m = e1_moments(c, count + 1)
    return [2 * ((j + 1) * m[j + 1] + j * m[j]) for j in range(count)]


def e1(c):
    return Regularize(1, F(1, c), Mazur())


def e2(c):
    return Regularize(2, F(1, c), Bernoulli(2))


def cases(p):
    """(id, expr, moments m_0..m_MAX_J, min valuation of its coefficients)."""
    count = MAX_J + 1
    a = F(-1, 2)
    found = [
        ("haar", Haar(), haar_moments(count), 0),
        ("dirac", Dirac(a), dirac_moments(a, count), 0),
    ]
    for c in (2, 3):
        if c % p:
            found.append((f"e1-c{c}", e1(c), e1_moments(c, count), 0))
            found.append((f"e2-c{c}", e2(c), e2_moments(c, count), 0))
    terms = [(F(1, p), Haar()), (F(2), Dirac(a)), (F(p), e1(2)), (F(-1), e2(2))]
    moments = [
        sum(c * m for c, m in zip((t[0] for t in terms), ms))
        for ms in zip(haar_moments(count), dirac_moments(a, count),
                      e1_moments(2, count), e2_moments(2, count))
    ]
    found.append(("lincomb", LinearComb(tuple(terms)), moments, min(v(c, p) for c, _ in terms)))
    return found


CASES = [(p, *case) for p in DEPTHS for case in cases(p)]


@pytest.mark.parametrize(
    "p, name, expr, moments, shift", CASES, ids=[f"p{c[0]}-{c[1]}" for c in CASES]
)
def test_riemann_sums_approach_the_mahler_moments(p, name, expr, moments, shift):
    depth = DEPTHS[p]
    for j, m in enumerate(moments):
        sums = integrate(expr, binomial_polynomial(j), p, depth).partial_sums
        floor = v(prod(range(1, j + 1)), p) - shift
        for n, s in enumerate(sums, 1):
            assert v(s - m, p) >= n - floor, (j, n, s, m)


def test_closed_forms_of_small_cases():
    # The series against hand-computed values.
    assert e1_moments(2, 4) == [F(1, 2), F(-1, 4), F(1, 8), F(-1, 16)]
    assert haar_moments(3) == [1, F(-1, 2), F(1, 3)]
    assert dirac_moments(5, 4) == [1, 5, 10, 10]
    assert [binomial_polynomial(2).value_at(x) for x in range(5)] == [0, 0, 1, 3, 6]


@pytest.mark.parametrize("p", [3, 5])
def test_e1_2_is_bounded_in_j_and_haar_is_not(p):
    # E_(1,2) is a measure: every moment m_j = (-1)^j / 2^(j+1) is a p-adic
    # unit.  Haar is none: m_(p-1) = 1/p has norm p.  The deepest Riemann
    # sums show the same norms.
    depth = DEPTHS[p]
    for j, m in enumerate(e1_moments(2, MAX_J + 1)):
        assert v(m, p) == 0
        assert v(integrate(e1(2), binomial_polynomial(j), p, depth).partial_sums[-1], p) == 0
    m = haar_moments(p)[p - 1]
    assert v(m, p) == -1
    assert v(integrate(Haar(), binomial_polynomial(p - 1), p, depth).partial_sums[-1], p) == -1


# S_D of x^j, j <= 3, at depths whose p^D balls no enumeration could visit:
# the budget (j + 1) p^D admits them, and the sums come from the closed
# form.  Against Haar the limit is the Volkenborn integral B_j; against
# E_(1,2) = Regularize(1, 2, Mazur()), whose value on B is
# mu(B) - mu(2B) / 2 for Mazur's mu, it is (1 - 2^(-j-1)) B_(j+1) / (j+1).
DEEP = [(3, 40), (5, 25)]


@pytest.mark.parametrize("p, depth", DEEP, ids=[f"p{p}-D{d}" for p, d in DEEP])
@pytest.mark.parametrize("j", range(4))
def test_deep_riemann_sums_reach_the_bernoulli_limits(p, depth, j):
    x_j = Polynomial((F(0),) * j + (F(1),))
    budget = (j + 1) * p**depth
    haar = riemann_sum(Haar(), x_j, p, depth, ball_budget=budget)
    assert v(haar - bernoulli_polynomial(j, 0), p) >= depth - 1
    e12 = riemann_sum(Regularize(1, 2, Mazur()), x_j, p, depth, ball_budget=budget)
    limit = (1 - F(1, 2 ** (j + 1))) * bernoulli_polynomial(j + 1, 0) / (j + 1)
    assert v(e12 - limit, p) >= depth - 1
