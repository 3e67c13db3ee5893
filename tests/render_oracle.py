"""dump's text on Fractions, one ball at a time, straight from the definitions.

`padicdist dump` formats each level from its integer numerators (one gcd
per ball, the norm text once per valuation) and writes a block of lines at
a time.  This is the reading the tests compare its bytes against: a
`Fraction` for every ball, its `norm`, and `format_rational` of both, one
line per ball.  It costs a Fraction and a primality test per ball.
"""

from fractions import Fraction

from padicdist import evaluate_level, format_rational, norm


def dump(expr, p, depth, fmt="csv"):
    """The whole text `padicdist dump --format fmt` prints for expr."""
    levels = [evaluate_level(expr, p, n) for n in range(depth + 1)]
    if fmt == "dot":
        lines = ["digraph balls {"]
        for n, (nums, den) in enumerate(levels):
            for rep, num in enumerate(nums):
                lines.append(
                    f'  "{rep}/{n}" [label="{rep}+({p}^{n})\\n'
                    f'{format_rational(Fraction(num, den))}"];'
                )
        for n in range(depth):
            q = p**n
            for rep in range(q):
                for b in range(p):
                    lines.append(f'  "{rep}/{n}" -> "{rep + b * q}/{n + 1}";')
        lines.append("}")
    else:
        lines = ["depth,rep,value,norm"]
        for n, (nums, den) in enumerate(levels):
            for rep, num in enumerate(nums):
                value = Fraction(num, den)
                lines.append(
                    f"{n},{rep},{format_rational(value)},{format_rational(norm(value, p))}"
                )
    return "\n".join(lines) + "\n"
