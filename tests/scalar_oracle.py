"""The scalar evaluator: one ball at a time, straight from the definitions.

`padicdist.evaluate` and `padicdist.evaluate_level` share one implementation
of each node's semantics.  This independent ladder recurses ball by ball
through `ball_children`, `ball_meet` and the digit walk, and the tests compare
both against it: the same exact value on every ball, and on input it rejects,
the same exception, with the same type and message, for the first ball that
fails.  It costs 2^k calls per ball under k nested Regularize nodes, so the
tests keep their expressions small.
"""

from fractions import Fraction

from padicdist.core import (
    Ball,
    PrimeMismatchError,
    ball_children,
    ball_contains,
    ball_digits,
    ball_make,
    ball_meet,
    valuation,
)
from padicdist.distributions import (
    Bernoulli,
    Branch,
    Dirac,
    DistExpr,
    Graft,
    Haar,
    LinearComb,
    Mazur,
    Regularize,
    Restrict,
    _branch_table_size,
    bernoulli_polynomial,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def evaluate(expr: DistExpr, ball: Ball) -> Fraction:
    """Exact value of the distribution on the ball.

    Prime consistency between the expression and the ball is enforced here:
    an embedded path or cell over a different prime raises
    PrimeMismatchError, a Dirac point outside Z_p raises
    NotPAdicIntegerError, and a Regularize alpha that is not a unit for the
    ball's prime raises ValueError.
    """
    p, n, a = ball.prime, ball.depth, ball.rep

    if isinstance(expr, Dirac):
        return _ONE if ball_contains(ball, expr.point) else _ZERO

    if isinstance(expr, Haar):
        return expr.scale / p**n

    if isinstance(expr, Mazur):
        return Fraction(a, p**n) - Fraction(1, 2)

    if isinstance(expr, Bernoulli):
        return p ** (n * (expr.k - 1)) * bernoulli_polynomial(expr.k, Fraction(a, p**n))

    if isinstance(expr, LinearComb):
        return sum((c * evaluate(e, ball) for c, e in expr.terms), _ZERO)

    if isinstance(expr, Restrict):
        meet = ball_meet(ball, expr.cell)
        return evaluate(expr.expr, meet) if meet is not None else _ZERO

    if isinstance(expr, Regularize):
        if valuation(expr.alpha, p) != 0:
            raise ValueError(f"alpha={expr.alpha} is not a unit of Z_p for p={p}")
        scaled = ball_make(p, n, expr.alpha * a)
        return evaluate(expr.expr, ball) - expr.alpha ** (-expr.k) * evaluate(
            expr.expr, scaled
        )

    if isinstance(expr, Graft):
        if expr.path.prime != p:
            raise PrimeMismatchError(
                f"graft path over p={expr.path.prime} evaluated at p={p}"
            )
        for j, d in enumerate(ball_digits(ball)):
            pd = expr.path.digit(j)
            if d != pd:
                return evaluate(expr.left if d < pd else expr.right, ball)
        return evaluate(expr.left, ball)

    if isinstance(expr, Branch):
        size = _branch_table_size(expr, p)
        if n >= expr.k:
            return evaluate(expr.children[a % size], ball)
        return sum((evaluate(expr, c) for c in ball_children(ball)), _ZERO)

    raise TypeError(f"not a distribution expression: {type(expr).__name__}")
