"""Command line interface.

Subcommands: eval, verify, graft-check, branch-check, distinct, norms,
integrate, dump, path.  Balls are written a/n (representative slash depth),
rationals as num/den.  Every command but dump prints its answer through
`_emit`, in the --format it was given: a report draws that one format
itself, and a command without a report hands over its JSON payload and its
text lines.  dump streams its csv or dot lines a block at a time.  Exit
codes: 0 success, 1 verification failure or no witness found, 2 usage or
input error, 3 ball budget exceeded or a number too long to write.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import chain, islice
from math import gcd
from typing import Iterable, Iterator, Sequence

from .core import (
    ball_make,
    ball_to_json,
    decision_horizon,
    format_rational,
    norm,
    parse_rational,
    path_compare,
    path_divergence,
    path_to_json,
    path_to_point,
    path_walk_bound,
    point_to_path,
    require_depth,
    valuation,
    Path,
    Ball,
)
from .distributions import Branch, Graft, evaluate, evaluate_shared
from .integrate import Polynomial, integrate, parse_polynomial_terms, step_fn_from_json
from .serialize import load_document_file, load_json_file
from .verify import (
    BallBudgetError,
    DEFAULT_BALL_BUDGET,
    check_branch_hypothesis,
    check_graft_precondition,
    check_relation,
    distinctness_witness,
    norm_scan,
    require_budget,
)


def _fail(message: str, code: int) -> int:
    line = " ".join(str(message).split()) or "unknown error"
    print(f"error: {line}", file=sys.stderr)
    return code


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit(args: argparse.Namespace, answer: object, *lines: str, **options: object) -> None:
    """Print a command's answer in args.format: every command but dump
    prints through here.  A report draws only the chosen format, with its
    to_json_dict, to_text or to_csv and the options; a dict is a JSON
    payload, whose text is the lines that follow it."""
    as_json = args.format == "json"
    if not isinstance(answer, dict):
        answer = getattr(answer, "to_json_dict" if as_json else f"to_{args.format}")(**options)
        lines = (answer,)
    if as_json:
        _emit_json(answer)
    else:
        print(*lines, sep="\n")


def integer(text: str) -> int:
    """A decimal integer in ASCII digits: int() also takes "1_0" and "٣"."""
    if "/" in text:
        raise ValueError(f"not an integer: {text!r}")
    return int(parse_rational(text))


def _parse_ball(text: str, prime: int) -> Ball:
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"a ball is written a/n (rep slash depth), got {text!r}")
    try:
        rep, depth = (integer(part) for part in parts)
    except ValueError:
        raise ValueError(f"a ball is written a/n with integer parts, got {text!r}") from None
    return ball_make(prime, depth, rep)


def _load(args: argparse.Namespace):
    return load_document_file(args.spec, args.prime)


# =====================================================================
# Commands
# =====================================================================

def cmd_eval(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    ball = _parse_ball(args.ball, prime)
    value = evaluate(expr, ball)
    payload = {
        "prime": prime,
        "ball": ball_to_json(ball),
        "value": format_rational(value),
        "norm": format_rational(norm(value, prime)),
    }
    _emit(args, payload, f"{payload['value']} norm={payload['norm']}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    report = check_relation(expr, prime, args.depth, ball_budget=args.budget)
    _emit(args, report, max_violations=args.max_violations)
    return 0 if report.passed else 1


def cmd_graft_check(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    if not isinstance(expr, Graft):
        raise ValueError("graft-check needs a spec whose root expression is a graft")
    sides = expr.left, expr.right, expr.path
    report = check_graft_precondition(*sides, args.depth, ball_budget=args.budget)
    _emit(args, report)
    return 0 if report.passed else 1


def cmd_branch_check(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    if not isinstance(expr, Branch):
        raise ValueError("branch-check needs a spec whose root expression is a branch")
    witness = check_branch_hypothesis(
        expr, prime, expr.k, args.depth, ball_budget=args.budget
    )
    payload = {"prime": prime, "search_depth": args.depth, "found": witness is not None}
    if witness is None:
        text = payload["note"] = f"no witness up to depth {args.depth}"
    else:
        payload.update(witness.to_json_dict())
        text = f"witness: t={witness.t} s={witness.s} ball={witness.ball.rep}/{witness.ball.depth}"
    _emit(args, payload, text)
    return 0 if witness is not None else 1


def cmd_distinct(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    other_prime, other = load_document_file(args.other, args.prime)
    if other_prime != prime:
        raise ValueError(f"prime mismatch between specs: {prime} vs {other_prime}")
    witness = distinctness_witness(expr, other, prime, args.depth, ball_budget=args.budget)
    payload = {"prime": prime, "max_depth": args.depth, "found": witness is not None}
    if witness is None:
        text = payload["note"] = f"no differing ball up to depth {args.depth}"
    else:
        values = [format_rational(evaluate(e, witness)) for e in (expr, other)]
        payload.update(ball=ball_to_json(witness), values=values)
        text = f"distinct on ball {witness.rep}/{witness.depth}: {values[0]} vs {values[1]}"
    _emit(args, payload, text)
    return 0 if witness is not None else 1


def cmd_norms(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    _emit(args, norm_scan(expr, prime, args.depth, ball_budget=args.budget))
    return 0


def cmd_integrate(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    if (args.fn is None) == (args.step_fn is None):
        raise ValueError("pass exactly one of --fn or --step-fn")
    if args.fn is not None:
        terms = parse_polynomial_terms(args.fn)
        # Refuse a degree past the budget before its coefficients are built.
        require_budget(prime, args.depth, args.budget, max(terms) + 1)
        fn = Polynomial.from_terms(terms)
    else:
        fn = step_fn_from_json(load_json_file(args.step_fn))
    _emit(args, integrate(expr, fn, prime, args.depth, ball_budget=args.budget))
    return 0


# dump writes this many lines at a time: one write per block, not per ball.
_BLOCK_LINES = 4096


def _write_lines(lines: Iterable[str]) -> None:
    lines = iter(lines)
    while block := list(islice(lines, _BLOCK_LINES)):
        sys.stdout.write("\n".join(block) + "\n")


def _level_texts(nums: list[int], den: int, p: int) -> Iterator[tuple[str, str]]:
    """The value and norm text of each ball of a level, from its integer
    numerators over den > 0: one gcd per ball, and the norm text once per
    valuation, as `format_rational` prints the value and its `norm`."""
    den_v = valuation(den, p)
    norms: dict[int, str] = {}
    for num in nums:
        if not num:
            yield "0", "0"
            continue
        g = gcd(num, den)
        value = str(num // g) if g == den else f"{num // g}/{den // g}"
        v = -den_v
        while not num % p:
            num //= p
            v += 1
        text = norms.get(v)
        if text is None:
            text = norms[v] = str(p**-v) if v <= 0 else f"1/{p**v}"
        yield value, text


def cmd_dump(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    require_depth(args.depth)
    require_budget(prime, args.depth, args.budget)
    # Every level is evaluated, and its values checked against the digit
    # limit, before the first line is written, so a level that raises
    # leaves stdout empty.  A level of degree 1 stays one range.
    levels = [
        evaluate_shared((expr,), prime, n, range(prime**n))[0]
        for n in range(args.depth + 1)
    ]
    for nums, den in levels:
        _require_writable(nums, den, prime)
    if args.format == "dot":
        texts = [_level_texts(nums, den, prime) for nums, den in levels]
        labels = (
            f'  "{rep}/{n}" [label="{rep}+({prime}^{n})\\n{value}"];'
            for n, level in enumerate(texts)
            for rep, (value, _) in enumerate(level)
        )
        edges = (
            f'  "{rep}/{n}" -> "{rep + b * q}/{n + 1}";'
            for n in range(args.depth)
            for q in (prime**n,)
            for rep in range(q)
            for b in range(prime)
        )
        _write_lines(chain(["digraph balls {"], labels, edges, ["}"]))
    else:
        _write_lines(["depth,rep,value,norm"])
        for n, (nums, den) in enumerate(levels):
            _write_lines(
                f"{n},{rep},{value},{text}"
                for rep, (value, text) in enumerate(_level_texts(nums, den, prime))
            )
    return 0


def _require_writable(nums: Sequence[int], den: int, p: int) -> None:
    # Raise what writing the level would raise: Python's refusal to write
    # an int of more digits than its limit.  The value and norm texts are
    # no longer than the level's largest numerator or den, so only a level
    # with one past the limit is formatted here to find out.  Python
    # before 3.10.7 has no limit.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    ends = (nums[0], nums[-1]) if type(nums) is range and nums else nums
    if limit and max(den, max(map(abs, ends), default=0)) >= 10**limit:
        for _ in _level_texts(nums, den, p):
            pass


def _require_digits(count: int, work: str, budget: int) -> None:
    # work reads "print {} digits" and the like.
    if count > budget:
        raise BallBudgetError(
            f"refusing to {work.format(count)} (budget {budget}); raise the budget to proceed"
        )


def _point_path(text: str, prime: int, flag: str, budget: int) -> tuple[Fraction, Path]:
    # The walk's bound is known before walking it: refuse it up front.
    point = parse_rational(text)
    walk = f"walk up to {{}} digits of the {flag} path"
    _require_digits(path_walk_bound(point, prime), walk, budget)
    return point, point_to_path(point, prime)


def cmd_path(args: argparse.Namespace) -> int:
    if args.prime is None:
        raise ValueError("path needs --prime")
    if (args.point is None) == (args.period is None):
        raise ValueError("pass exactly one of --point or --preperiod/--period")
    _require_digits(require_depth(args.digits, "digit count"), "print {} digits", args.budget)
    if args.point is not None:
        if args.preperiod is not None:
            raise ValueError("pass exactly one of --point or --preperiod/--period")
        # The path's value is the point itself, exactly.
        value, path = _point_path(args.point, args.prime, "--point", args.budget)
    else:
        pre = _parse_digit_list(args.preperiod) if args.preperiod else ()
        path = Path(args.prime, pre, _parse_digit_list(args.period))
        value = path_to_point(path)
    if args.compare is not None:
        _, other_path = _point_path(args.compare, args.prime, "--compare", args.budget)
        _require_digits(
            decision_horizon(path, other_path), "compare {} digits of the two paths", args.budget
        )
    digits = path.digits(args.digits)
    joiner = "" if args.prime <= 10 else ","
    payload: dict = {
        "prime": args.prime,
        "digits": joiner.join(str(d) for d in digits),
        **path_to_json(path),
        "value": format_rational(value),
    }
    lines = [f"{key}: {payload[key]}" for key in ("digits", "preperiod", "period", "value")]
    if args.compare is not None:
        order = path_compare(path, other_path).value
        away = path_divergence(other_path, path)
        payload["compare"] = order
        payload["divergence"] = {"kind": away.kind.value, "index": away.index}
        index = "" if away.index is None else f" {away.index}"
        lines += [f"compare: {order}", f"divergence: {away.kind.value}{index}"]
    _emit(args, payload, *lines)
    return 0


def _parse_digit_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(integer(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ValueError(f"digit lists are comma-separated integers, got {text!r}") from None


# =====================================================================
# Parser
# =====================================================================

def _add_common(sub: argparse.ArgumentParser, *, spec: bool = True) -> None:
    if spec:
        sub.add_argument("--spec", required=True, help="spec document (JSON file)")
    sub.add_argument("--prime", type=integer, default=None, help="prime p (or from the spec)")


def _add_budget(
    sub: argparse.ArgumentParser, what: str = "largest p^depth the command may enumerate"
) -> None:
    sub.add_argument("--budget", type=integer, default=DEFAULT_BALL_BUDGET, help=what)


def _add_format(sub: argparse.ArgumentParser, choices: tuple[str, ...], default: str) -> None:
    sub.add_argument("--format", choices=list(choices), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicdist",
        description="exact distributions on the p-adic integers",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("eval", help="value and norm of one ball")
    _add_common(sub)
    sub.add_argument("--ball", required=True, help="ball as a/n (rep slash depth)")
    _add_format(sub, ("text", "json"), "text")
    sub.set_defaults(func=cmd_eval)

    sub = commands.add_parser("verify", help="check the additivity relation")
    _add_common(sub)
    sub.add_argument("--depth", type=integer, required=True)
    sub.add_argument("--max-violations", type=integer, default=20)
    _add_budget(sub)
    _add_format(sub, ("text", "json"), "text")
    sub.set_defaults(func=cmd_verify)

    sub = commands.add_parser("graft-check", help="check the graft precondition")
    _add_common(sub)
    sub.add_argument("--depth", type=integer, required=True)
    _add_budget(sub, "largest p (depth + 1)(depth + 2) / 2 the check may enumerate")
    _add_format(sub, ("text", "json"), "text")
    sub.set_defaults(func=cmd_graft_check)

    sub = commands.add_parser("branch-check", help="search for a separating ball")
    _add_common(sub)
    sub.add_argument("--depth", type=integer, required=True)
    _add_budget(sub)
    _add_format(sub, ("text", "json"), "text")
    sub.set_defaults(func=cmd_branch_check)

    sub = commands.add_parser("distinct", help="first ball where two specs differ")
    _add_common(sub)
    sub.add_argument("--other", required=True, help="second spec document")
    sub.add_argument("--depth", type=integer, required=True)
    _add_budget(sub)
    _add_format(sub, ("text", "json"), "text")
    sub.set_defaults(func=cmd_distinct)

    sub = commands.add_parser("norms", help="per-depth maxima of |value|_p")
    _add_common(sub)
    sub.add_argument("--depth", type=integer, required=True)
    _add_budget(sub)
    _add_format(sub, ("csv", "json", "text"), "csv")
    sub.set_defaults(func=cmd_norms)

    sub = commands.add_parser("integrate", help="riemann sums against a test function")
    _add_common(sub)
    sub.add_argument("--depth", type=integer, required=True)
    sub.add_argument("--fn", default=None, help='polynomial, e.g. "1/2 + 3*x - x^2"')
    sub.add_argument("--step-fn", default=None, help="step function (JSON file)")
    _add_budget(sub)
    _add_format(sub, ("text", "json"), "text")
    sub.set_defaults(func=cmd_integrate)

    sub = commands.add_parser("dump", help="all ball values to a depth")
    _add_common(sub)
    sub.add_argument("--depth", type=integer, required=True)
    _add_budget(sub)
    _add_format(sub, ("csv", "dot"), "csv")
    sub.set_defaults(func=cmd_dump)

    sub = commands.add_parser("path", help="digit expansion of a point")
    _add_common(sub, spec=False)
    sub.add_argument("--point", default=None, help="rational point of Z_p")
    sub.add_argument("--preperiod", default=None, help="comma-separated digits")
    sub.add_argument("--period", default=None, help="comma-separated digits")
    sub.add_argument("--digits", type=integer, default=12)
    sub.add_argument("--compare", default=None, help="second point to compare against")
    _add_budget(sub, "most digits the command may walk, print or compare")
    _add_format(sub, ("text", "json"), "text")
    sub.set_defaults(func=cmd_path)

    return parser


def _merge_rational_flags(argv: list[str]) -> list[str]:
    # argparse reads "--point -7/8" as two flags; fold the value into
    # "--point=-7/8" so negative rationals work unquoted.
    merged: list[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--point", "--compare") and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    return merged


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_rational_flags(list(argv)))
    try:
        return args.func(args)
    except BallBudgetError as exc:
        return _fail(str(exc), 3)
    except (ValueError, TypeError, OSError) as exc:
        if str(exc).startswith("Exceeds the limit ("):
            # Python's refusal to write or read an int of more digits as
            # text, where str() takes quadratic time: an exact value too long.
            limit = sys.get_int_max_str_digits()
            return _fail(f"refusing to write or read a number of more than {limit} digits", 3)
        return _fail(str(exc), 2)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
