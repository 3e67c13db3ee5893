"""The digit layer on Fractions, one digit at a time, straight from the definitions.

`padicdist.core` converts between points, paths and digits on plain ints:
`point_to_path` walks only the numerator, and the int <-> digits conversions
split the digits in halves.  These are the readings the tests compare them
against: the Fraction walk t -> (t - d)/p with a dict of every tail seen,
the sum of d * p**i, one divmod per digit, and digit-by-digit comparison of
two streams.  Each costs a Fraction operation or a big power per digit, so
the tests keep their periods and depths small.
"""

from fractions import Fraction
from math import lcm

from padicdist.core import Divergence, Order, Path


def point_to_path(x, p):
    """The digits before the first repeated tail, then the cycle from it."""
    t = Fraction(x)
    seen = {}
    digits = []
    while t not in seen:
        seen[t] = len(digits)
        d = (t.numerator * pow(t.denominator, -1, p)) % p
        digits.append(d)
        t = (t - d) / p
    start = seen[t]
    return Path(p, tuple(digits[:start]), tuple(digits[start:]))


def path_to_point(path):
    """sum d_i p^i over the preperiod, plus the period's geometric series."""
    p = path.prime
    head = sum(d * p**i for i, d in enumerate(path.preperiod))
    per = sum(d * p**j for j, d in enumerate(path.period))
    return head + Fraction(per * p ** len(path.preperiod), 1 - p ** len(path.period))


def int_to_digits(a, p, count):
    """The `count` base-p digits of a, least significant first, by divmod."""
    out = []
    for _ in range(count):
        a, d = divmod(a, p)
        out.append(d)
    return out


def _horizon(a, b):
    return max(len(a.preperiod), len(b.preperiod)) + lcm(len(a.period), len(b.period))


def path_compare(a, b):
    for i in range(_horizon(a, b)):
        da, db = a.digit(i), b.digit(i)
        if da != db:
            return Order.LESS if da < db else Order.GREATER
    return Order.EQUAL


def divergence_of_point(x, path):
    """Where the digits of the point x leave `path`, read index by index."""
    own = point_to_path(x, path.prime)
    horizon = _horizon(own, path)
    for i in range(horizon):
        if own.digit(i) != path.digit(i):
            return Divergence.first_digit() if i == 0 else Divergence.splits_after(i - 1)
    return Divergence.never(horizon)
