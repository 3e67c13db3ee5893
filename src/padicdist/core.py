"""Exact arithmetic on the p-adic integers Z_p.

Points of Z_p are represented by rationals u/v with v coprime to p
(`fractions.Fraction` throughout; nothing is ever rounded).  Such a point
is identified with its digit series t = sum_{i>=0} d_i p^i, 0 <= d_i < p.
On top of the digit picture this module provides:

* valuations and absolute values (`valuation`, `norm`),
* digit expansions and their inverses (`digit_expand`, `point_to_path`,
  `path_to_point`), on plain ints (`int_to_digits`, `digits_to_int`),
* the ball algebra of Z_p: the compact-open cells a + (p^n) in canonical
  form (`Ball`, `ball_make`, `ball_children`, `ball_contains`),
* eventually periodic digit paths with lexicographic comparison and
  divergence bookkeeping (`Path`, `path_compare`, `divergence_index`).

Rationals, balls, paths and tables also carry their plain-text and JSON forms
here ("num/den" strings, {"a": ..., "n": ...}, {"preperiod": ..., "period":
...}, {"0": ..., "1": ...}), so every other module serializes through this one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import inf, lcm
from typing import Sequence


class NotPAdicIntegerError(ValueError):
    """A rational whose denominator is divisible by p is not in Z_p."""


class PrimeMismatchError(ValueError):
    """Two objects built over different primes were combined."""


# =====================================================================
# Rationals
# =====================================================================

# ASCII digits only: \d would also accept the digits of other scripts.
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")


def is_int(x: object) -> bool:
    """True for an int that is not a bool (True and False pass as 1 and 0)."""
    return isinstance(x, int) and not isinstance(x, bool)


def require_depth(n: object, name: str = "depth", least: int = 0) -> int:
    """Return n, or raise ValueError unless it is an int >= least (not a bool)."""
    if not is_int(n) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
    return n


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below 3317044064679887385961981, the least strong pseudoprime to all of
# them (Sorenson and Webster, arXiv:1509.00864).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=256)
def _is_prime(n: int) -> bool:
    if n >= _MR_LIMIT:
        raise ValueError(f"p must be below {_MR_LIMIT}, got {n}")
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def require_prime(p: int) -> int:
    """Return p, or raise ValueError if p is not a prime integer below 3.3 * 10^24."""
    if not isinstance(p, int) or isinstance(p, bool) or not _is_prime(p):
        raise ValueError(f"p must be a prime integer, got {p!r}")
    return p


def as_rational(x: Fraction | int | str) -> Fraction:
    """Coerce to an exact Fraction; floats are rejected to keep exactness."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("expected an exact rational, got a bool")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def require_padic_integer(x: Fraction | int | str, p: int) -> Fraction:
    """Coerce x to a Fraction and check it lies in Z_p."""
    t = as_rational(x)
    if t.denominator % p == 0:
        raise NotPAdicIntegerError(f"{t} is not a p-adic integer for p={p}")
    return t


def format_rational(x: Fraction | int) -> str:
    """Render as "num/den", or just "num" for integers."""
    t = as_rational(x)
    if t.denominator == 1:
        return str(t.numerator)
    return f"{t.numerator}/{t.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "num" or "num/den" with integer parts; anything else is an error."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text.strip())


# =====================================================================
# Valuation and norm
# =====================================================================

def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x: Fraction | int, p: int) -> int | float:
    """The p-adic valuation of x: the exponent of p in x.

    Returns math.inf for x = 0.  For x = u/v in lowest terms the result is
    valuation(u) - valuation(v), which is negative when p divides v.
    """
    require_prime(p)
    t = as_rational(x)
    if t == 0:
        return inf
    return _int_valuation(abs(t.numerator), p) - _int_valuation(t.denominator, p)


def norm(x: Fraction | int, p: int) -> Fraction:
    """The p-adic absolute value |x|_p = p^(-valuation), exactly; |0|_p = 0."""
    v = valuation(x, p)
    if v == inf:
        return Fraction(0)
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


# =====================================================================
# Digits
# =====================================================================

def digit_expand(x: Fraction | int, p: int, count: int) -> list[int]:
    """First `count` digits of x = sum d_i p^i.

    They are the base-p digits of the residue of x mod p^count, u * v^(-1)
    mod p^count for x = u/v: one modular inverse for all the digits.
    """
    require_prime(p)
    t = require_padic_integer(x, p)
    return ball_digits(ball_make(p, require_depth(count, "digit count"), t))


# Below this many digits the conversions run the plain per-digit loop: a
# split costs a power of p and a big-int divmod or product, which only pays
# once the numbers span many machine words.
_SPLIT_DIGITS = 64


def int_to_digits(a: int, p: int, count: int) -> list[int]:
    """The `count` base-p digits of 0 <= a < p^count, least significant first.

    Divide and conquer: split a at p^(count//2) with one divmod and convert
    both halves, so the big-int work is a few divisions of shrinking size
    instead of one division of the whole number per digit.  Past about 10^5
    digits it is quadratic, as Python's big-int division is (seconds for
    100,018 digits at p = 1000003).
    """
    if count <= _SPLIT_DIGITS:
        out = []
        for _ in range(count):
            a, d = divmod(a, p)
            out.append(d)
        return out
    half = count // 2
    high, low = divmod(a, p**half)
    return int_to_digits(low, p, half) + int_to_digits(high, p, count - half)


def digits_to_int(digits: Sequence[int], p: int) -> int:
    """The integer sum d_i p^i of base-p digits, least significant first.

    Divide and conquer: low half + high half * p^(len//2), so the products
    are few and balanced (where big-int multiplication is fast) instead of
    one per digit; short lists run Horner's loop.  Past about 10^5 digits
    Python's Karatsuba products make it near quadratic (most of a second for
    100,018 digits at p = 1000003).
    """
    if len(digits) <= _SPLIT_DIGITS:
        a = 0
        for d in reversed(digits):
            a = a * p + d
        return a
    half = len(digits) // 2
    return digits_to_int(digits[:half], p) + digits_to_int(digits[half:], p) * p**half


# =====================================================================
# Paths
# =====================================================================

@dataclass(frozen=True)
class Path:
    """An eventually periodic digit stream: preperiod then repeating period.

    The stream is preperiod[0], ..., preperiod[-1], period[0], ...,
    period[-1], period[0], ...  The period must be nonempty; all digits lie
    in [0, prime).  Two structurally different (preperiod, period) splits can
    denote the same stream; `path_compare` decides stream equality.
    """

    prime: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        require_prime(self.prime)
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ValueError("period must be nonempty")
        for d in self.preperiod + self.period:
            if not is_int(d) or not 0 <= d < self.prime:
                raise ValueError(f"digit {d!r} out of range for p={self.prime}")

    def digit(self, i: int) -> int:
        """Digit at index i of the infinite stream."""
        if i < 0:
            raise ValueError("digit index must be >= 0")
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def digits(self, count: int) -> list[int]:
        """The first `count` digits of the stream: the preperiod, then copies
        of the period, cut at `count`."""
        pre, per = self.preperiod, self.period
        count = require_depth(count, "digit count")
        if count <= len(pre):
            return list(pre[:count])
        copies, extra = divmod(count - len(pre), len(per))
        return [*pre, *(per * copies), *per[:extra]]


def point_to_path(x: Fraction | int, p: int) -> Path:
    """The digit path of a rational point of Z_p.

    Digit extraction t -> (t - d)/p keeps the denominator of x = u/v, so
    only the numerator is walked, on ints: d = u * v^(-1) mod p with one
    inverse mod p, then u -> (u - d v)/p, exact.  From u > 0 or u < -v the
    walk reaches [-v, 0] within as many steps as |u| has base-p digits, and
    it never leaves that range.  On the range the step is one-to-one, so
    the first tail inside it is the one that comes back: the digits before
    it form the preperiod and the cycle through it the period, which is at
    most v + 1 long.  `path_walk_bound` gives the whole walk's bound.
    """
    require_prime(p)
    t = require_padic_integer(x, p)
    u, v = t.numerator, t.denominator
    w = pow(v, -1, p)
    digits: list[int] = []
    while not -v <= u <= 0:
        d = u * w % p
        digits.append(d)
        u = (u - d * v) // p
    start, first = len(digits), u
    while True:
        d = u * w % p
        digits.append(d)
        u = (u - d * v) // p
        if u == first:
            return Path(p, tuple(digits[:start]), tuple(digits[start:]))


def path_walk_bound(x: Fraction | int, p: int) -> int:
    """An upper bound on the digits `point_to_path(x, p)` walks, found
    without walking: v + 1 tails in [-v, 0] for x = u/v, plus at most one
    step per binary digit of u to get there."""
    require_prime(p)
    t = require_padic_integer(x, p)
    return t.denominator + 1 + abs(t.numerator).bit_length()


def path_to_point(path: Path) -> Fraction:
    """Exact rational value sum d_i p^i of an eventually periodic path.

    The period contributes a geometric series: P * p^L / (1 - p^T) where P is
    the period read as a base-p integer, L the preperiod length, T the period
    length.  The preperiod and P are read with `digits_to_int`, which splits
    the digits in halves rather than building p^i for every digit.
    """
    p = path.prime
    head = digits_to_int(path.preperiod, p)
    per = digits_to_int(path.period, p)
    den = 1 - p ** len(path.period)
    return Fraction(head * den + per * p ** len(path.preperiod), den)


class Order(Enum):
    """Lexicographic comparison of digit streams, from digit 0 up."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


def decision_horizon(a: Path, b: Path) -> int:
    """How many digits decide whether two streams are equal.

    Beyond this index both streams are periodic with a common period, so
    inspecting this many digits decides equality of the full streams.
    """
    return max(len(a.preperiod), len(b.preperiod)) + lcm(len(a.period), len(b.period))


def path_compare(a: Path, b: Path) -> Order:
    """Lexicographic order of two digit streams; Equal iff identical streams."""
    if a.prime != b.prime:
        raise PrimeMismatchError(f"cannot compare paths over p={a.prime} and p={b.prime}")
    horizon = decision_horizon(a, b)
    for da, db in zip(a.digits(horizon), b.digits(horizon)):
        if da != db:
            return Order.LESS if da < db else Order.GREATER
    return Order.EQUAL


# =====================================================================
# Balls
# =====================================================================

@dataclass(frozen=True)
class Ball:
    """The cell rep + (p^depth) of Z_p in canonical form: 0 <= rep < p^depth.

    depth 0 is all of Z_p (rep forced to 0).  Balls over one prime nest or
    are disjoint; the p children of a ball partition it.
    """

    prime: int
    depth: int
    rep: int

    def __post_init__(self) -> None:
        require_prime(self.prime)
        # Inline bool checks: callers that go ball by ball build one Ball per ball.
        if not isinstance(self.depth, int) or isinstance(self.depth, bool) or self.depth < 0:
            raise ValueError(f"depth must be an integer >= 0, got {self.depth!r}")
        if (
            not isinstance(self.rep, int)
            or isinstance(self.rep, bool)
            or not 0 <= self.rep < self.prime**self.depth
        ):
            raise ValueError(
                f"rep must satisfy 0 <= rep < {self.prime}^{self.depth}, got {self.rep!r}"
            )


def ball_make(p: int, n: int, a: Fraction | int) -> Ball:
    """Canonical depth-n ball around a.

    Integers reduce mod p^n; a rational u/v in Z_p maps to the unique residue
    fixed by its first n digits, u * v^(-1) mod p^n.
    """
    require_prime(p)
    if n < 0:
        raise ValueError("depth must be >= 0")
    m = p**n
    if is_int(a):
        return Ball(p, n, a % m)
    t = require_padic_integer(a, p)
    return Ball(p, n, (t.numerator * pow(t.denominator, -1, m)) % m)


def ball_children(ball: Ball) -> list[Ball]:
    """The p depth-(n+1) cells partitioning the ball, in digit order b=0..p-1."""
    q = ball.prime**ball.depth
    return [Ball(ball.prime, ball.depth + 1, ball.rep + b * q) for b in range(ball.prime)]


def ball_contains(ball: Ball, x: Fraction | int) -> bool:
    """True iff the point x lies in the ball, i.e. x = rep mod p^depth."""
    t = require_padic_integer(x, ball.prime)
    return valuation(t - ball.rep, ball.prime) >= ball.depth


def ball_digits(ball: Ball) -> list[int]:
    """Base-p digits d_0..d_{n-1} of the representative.

    Converted by `int_to_digits`, halving the digit count at each split, so
    a deep ball costs a few big divisions rather than one per digit.
    """
    return int_to_digits(ball.rep, ball.prime, ball.depth)


def ball_nests_in(inner: Ball, outer: Ball) -> bool:
    """True iff inner is contained in outer (same prime required)."""
    if inner.prime != outer.prime:
        raise PrimeMismatchError("balls over different primes")
    if inner.depth < outer.depth:
        return False
    return inner.rep % outer.prime**outer.depth == outer.rep


def ball_meet(a: Ball, b: Ball) -> Ball | None:
    """Intersection of two balls: the deeper one when they nest, else None.

    The ultrametric leaves no third case; partially overlapping balls do not
    exist.
    """
    if a.prime != b.prime:
        raise PrimeMismatchError("balls over different primes")
    lo, hi = (a, b) if a.depth <= b.depth else (b, a)
    return hi if ball_nests_in(hi, lo) else None


# =====================================================================
# Divergence of a point or ball from a path
# =====================================================================

class DivergenceKind(Enum):
    SPLITS_AFTER = "splits-after"
    FIRST_DIGIT_DIFFERS = "first-digit-differs"
    NEVER = "never"


@dataclass(frozen=True)
class Divergence:
    """Where a digit stream departs from a reference path.

    kind SPLITS_AFTER: digits 0..index agree, digit index+1 differs.
    kind FIRST_DIGIT_DIFFERS: already digit 0 differs (index is None).
    kind NEVER: all `index` inspected digits agree; for a point argument the
    inspection horizon proves the streams identical forever.
    """

    kind: DivergenceKind
    index: int | None = None

    @classmethod
    def splits_after(cls, m: int) -> "Divergence":
        return cls(DivergenceKind.SPLITS_AFTER, m)

    @classmethod
    def first_digit(cls) -> "Divergence":
        return cls(DivergenceKind.FIRST_DIGIT_DIFFERS)

    @classmethod
    def never(cls, inspected: int) -> "Divergence":
        return cls(DivergenceKind.NEVER, inspected)


def divergence_index(a: Ball | Fraction | int, path: Path) -> Divergence:
    """Compare the digits of a point or ball against a path.

    A Ball exposes exactly its depth-many digits; a point is expanded out to
    the periodicity horizon of the two streams, which decides agreement of
    the full infinite streams.
    """
    if not isinstance(a, Ball):
        own = point_to_path(require_padic_integer(a, path.prime), path.prime)
        return path_divergence(own, path)
    if a.prime != path.prime:
        raise PrimeMismatchError("ball and path over different primes")
    return _first_split(ball_digits(a), path)


def path_divergence(own: Path, path: Path) -> Divergence:
    """`divergence_index` of a point whose path has already been walked."""
    if own.prime != path.prime:
        raise PrimeMismatchError("paths over different primes")
    return _first_split(own.digits(decision_horizon(own, path)), path)


def _first_split(digits: list[int], path: Path) -> Divergence:
    for i, (d, e) in enumerate(zip(digits, path.digits(len(digits)))):
        if d != e:
            return Divergence.first_digit() if i == 0 else Divergence.splits_after(i - 1)
    return Divergence.never(len(digits))


# =====================================================================
# JSON forms
# =====================================================================

def ball_to_json(ball: Ball) -> dict:
    return {"a": ball.rep, "n": ball.depth}


def ball_from_json(obj: dict, prime: int) -> Ball:
    if not isinstance(obj, dict) or set(obj) != {"a", "n"}:
        raise ValueError(f"a ball must be an object with keys 'a' and 'n', got {obj!r}")
    if not is_int(obj["n"]):
        raise ValueError(f"a ball's depth 'n' must be an integer, got {obj['n']!r}")
    return ball_make(prime, obj["n"], obj["a"])


def path_to_json(path: Path) -> dict:
    return {"preperiod": list(path.preperiod), "period": list(path.period)}


def path_from_json(obj: dict, prime: int) -> Path:
    if not isinstance(obj, dict) or set(obj) != {"preperiod", "period"}:
        raise ValueError(
            f"a path must be an object with keys 'preperiod' and 'period', got {obj!r}"
        )
    return Path(prime, tuple(obj["preperiod"]), tuple(obj["period"]))


def table_from_json(table: object, what: str) -> list:
    """The entries of a JSON object keyed "0", "1", ..., in key order.

    Only the keys str(t) are accepted: under int(), "01", "+1" or " 1" would
    name entry 1 too, and one of them would silently replace the other.
    """
    if not isinstance(table, dict):
        raise ValueError(f"{what} must be an object keyed by '0', '1', ...")
    keys = [str(t) for t in range(len(table))]
    if set(table) != set(keys):
        raise ValueError(
            f"{what} keys must be exactly '0', '1', ..., '{len(table) - 1}', "
            "with no sign, space or leading zero"
        )
    return [table[key] for key in keys]
