"""Command line interface.

Subcommands: eval, verify, graft-check, branch-check, distinct, norms,
integrate, dump, path.  Balls are written a/n (representative slash depth),
rationals as num/den.  Exit codes: 0 success, 1 verification failure or no
witness found, 2 usage or input error, 3 ball budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .core import (
    ball_make,
    ball_to_json,
    divergence_index,
    format_rational,
    norm,
    parse_rational,
    path_compare,
    path_to_json,
    path_to_point,
    point_to_path,
    Path,
    Ball,
)
from .distributions import Branch, Graft, evaluate, evaluate_level
from .integrate import integrate, parse_polynomial, step_fn_from_json
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


def _parse_ball(text: str, prime: int) -> Ball:
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"a ball is written a/n (rep slash depth), got {text!r}")
    try:
        # parse_rational, not int(): int() also takes "1_0" and non-ASCII digits.
        rep, depth = (int(parse_rational(part)) for part in parts)
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
    value_norm = norm(value, prime)
    if args.format == "json":
        _emit_json(
            {
                "prime": prime,
                "ball": ball_to_json(ball),
                "value": format_rational(value),
                "norm": format_rational(value_norm),
            }
        )
    else:
        print(f"{format_rational(value)} norm={format_rational(value_norm)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    report = check_relation(expr, prime, args.depth, ball_budget=args.budget)
    if args.format == "json":
        _emit_json(report.to_json_dict(max_violations=args.max_violations))
    else:
        print(report.to_text(max_violations=args.max_violations))
    return 0 if report.passed else 1


def cmd_graft_check(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    if not isinstance(expr, Graft):
        raise ValueError("graft-check needs a spec whose root expression is a graft")
    report = check_graft_precondition(expr.left, expr.right, expr.path, args.depth)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def cmd_branch_check(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    if not isinstance(expr, Branch):
        raise ValueError("branch-check needs a spec whose root expression is a branch")
    witness = check_branch_hypothesis(
        expr, prime, expr.k, args.depth, ball_budget=args.budget
    )
    if args.format == "json":
        payload = {"prime": prime, "search_depth": args.depth, "found": witness is not None}
        if witness is not None:
            payload.update(witness.to_json_dict())
        else:
            payload["note"] = f"no witness up to depth {args.depth}"
        _emit_json(payload)
    elif witness is not None:
        print(
            f"witness: t={witness.t} s={witness.s} "
            f"ball={witness.ball.rep}/{witness.ball.depth}"
        )
    else:
        print(f"no witness up to depth {args.depth}")
    return 0 if witness is not None else 1


def cmd_distinct(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    other_prime, other = load_document_file(args.other, args.prime)
    if other_prime != prime:
        raise ValueError(f"prime mismatch between specs: {prime} vs {other_prime}")
    witness = distinctness_witness(expr, other, prime, args.depth, ball_budget=args.budget)
    if witness is not None:
        values = [format_rational(evaluate(e, witness)) for e in (expr, other)]
    if args.format == "json":
        payload = {"prime": prime, "max_depth": args.depth, "found": witness is not None}
        if witness is not None:
            payload["ball"] = ball_to_json(witness)
            payload["values"] = values
        else:
            payload["note"] = f"no differing ball up to depth {args.depth}"
        _emit_json(payload)
    elif witness is not None:
        print(f"distinct on ball {witness.rep}/{witness.depth}: {values[0]} vs {values[1]}")
    else:
        print(f"no differing ball up to depth {args.depth}")
    return 0 if witness is not None else 1


def cmd_norms(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    report = norm_scan(expr, prime, args.depth, ball_budget=args.budget)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    elif args.format == "text":
        print(report.to_text())
    else:
        print(report.to_csv())
    return 0


def cmd_integrate(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    if (args.fn is None) == (args.step_fn is None):
        raise ValueError("pass exactly one of --fn or --step-fn")
    if args.fn is not None:
        fn = parse_polynomial(args.fn)
    else:
        fn = step_fn_from_json(load_json_file(args.step_fn))
    report = integrate(expr, fn, prime, args.depth, ball_budget=args.budget)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        print(report.to_text())
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    prime, expr = _load(args)
    if args.depth < 0:
        raise ValueError("depth must be >= 0")
    require_budget(prime, args.depth, args.budget)
    if args.format == "dot":
        lines = ["digraph balls {"]
        for n in range(args.depth + 1):
            nums, den = evaluate_level(expr, prime, n)
            for rep, num in enumerate(nums):
                lines.append(
                    f'  "{rep}/{n}" [label="{rep}+({prime}^{n})\\n'
                    f'{format_rational(Fraction(num, den))}"];'
                )
        for n in range(args.depth):
            q = prime**n
            for rep in range(q):
                for b in range(prime):
                    lines.append(f'  "{rep}/{n}" -> "{rep + b * q}/{n + 1}";')
        lines.append("}")
        print("\n".join(lines))
    else:
        print("depth,rep,value,norm")
        for n in range(args.depth + 1):
            nums, den = evaluate_level(expr, prime, n)
            for rep, num in enumerate(nums):
                value = Fraction(num, den)
                print(
                    f"{n},{rep},{format_rational(value)},"
                    f"{format_rational(norm(value, prime))}"
                )
    return 0


def cmd_path(args: argparse.Namespace) -> int:
    if args.prime is None:
        raise ValueError("path needs --prime")
    if (args.point is None) == (args.period is None):
        raise ValueError("pass exactly one of --point or --preperiod/--period")
    if args.point is not None:
        if args.preperiod is not None:
            raise ValueError("pass exactly one of --point or --preperiod/--period")
        path = point_to_path(parse_rational(args.point), args.prime)
    else:
        pre = _parse_digit_list(args.preperiod) if args.preperiod else ()
        path = Path(args.prime, pre, _parse_digit_list(args.period))
    value = path_to_point(path)
    digits = path.digits(args.digits)
    joiner = "" if args.prime <= 10 else ","
    payload: dict = {
        "prime": args.prime,
        "digits": joiner.join(str(d) for d in digits),
        **path_to_json(path),
        "value": format_rational(value),
    }
    if args.compare is not None:
        other = parse_rational(args.compare)
        order = path_compare(path, point_to_path(other, args.prime))
        away = divergence_index(other, path)
        payload["compare"] = order.value
        payload["divergence"] = {"kind": away.kind.value, "index": away.index}
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"digits: {payload['digits']}")
        print(f"preperiod: {list(path.preperiod)}")
        print(f"period: {list(path.period)}")
        print(f"value: {payload['value']}")
        if args.compare is not None:
            print(f"compare: {payload['compare']}")
            kind, index = payload["divergence"]["kind"], payload["divergence"]["index"]
            print(f"divergence: {kind}" + (f" {index}" if index is not None else ""))
    return 0


def _parse_digit_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ValueError(f"digit lists are comma-separated integers, got {text!r}") from None


# =====================================================================
# Parser
# =====================================================================

def _add_common(sub: argparse.ArgumentParser, *, spec: bool = True) -> None:
    if spec:
        sub.add_argument("--spec", required=True, help="spec document (JSON file)")
    sub.add_argument("--prime", type=int, default=None, help="prime p (or from the spec)")


def _add_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--budget", type=int, default=DEFAULT_BALL_BUDGET,
        help="largest p^depth the command may enumerate",
    )


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
    sub.add_argument("--depth", type=int, required=True)
    sub.add_argument("--max-violations", type=int, default=20)
    _add_budget(sub)
    _add_format(sub, ("text", "json"), "text")
    sub.set_defaults(func=cmd_verify)

    sub = commands.add_parser("graft-check", help="check the graft precondition")
    _add_common(sub)
    sub.add_argument("--depth", type=int, required=True)
    _add_format(sub, ("text", "json"), "text")
    sub.set_defaults(func=cmd_graft_check)

    sub = commands.add_parser("branch-check", help="search for a separating ball")
    _add_common(sub)
    sub.add_argument("--depth", type=int, required=True)
    _add_budget(sub)
    _add_format(sub, ("text", "json"), "text")
    sub.set_defaults(func=cmd_branch_check)

    sub = commands.add_parser("distinct", help="first ball where two specs differ")
    _add_common(sub)
    sub.add_argument("--other", required=True, help="second spec document")
    sub.add_argument("--depth", type=int, required=True)
    _add_budget(sub)
    _add_format(sub, ("text", "json"), "text")
    sub.set_defaults(func=cmd_distinct)

    sub = commands.add_parser("norms", help="per-depth maxima of |value|_p")
    _add_common(sub)
    sub.add_argument("--depth", type=int, required=True)
    _add_budget(sub)
    _add_format(sub, ("csv", "json", "text"), "csv")
    sub.set_defaults(func=cmd_norms)

    sub = commands.add_parser("integrate", help="riemann sums against a test function")
    _add_common(sub)
    sub.add_argument("--depth", type=int, required=True)
    sub.add_argument("--fn", default=None, help='polynomial, e.g. "1/2 + 3*x - x^2"')
    sub.add_argument("--step-fn", default=None, help="step function (JSON file)")
    _add_budget(sub)
    _add_format(sub, ("text", "json"), "text")
    sub.set_defaults(func=cmd_integrate)

    sub = commands.add_parser("dump", help="all ball values to a depth")
    _add_common(sub)
    sub.add_argument("--depth", type=int, required=True)
    _add_budget(sub)
    _add_format(sub, ("csv", "dot"), "csv")
    sub.set_defaults(func=cmd_dump)

    sub = commands.add_parser("path", help="digit expansion of a point")
    _add_common(sub, spec=False)
    sub.add_argument("--point", default=None, help="rational point of Z_p")
    sub.add_argument("--preperiod", default=None, help="comma-separated digits")
    sub.add_argument("--period", default=None, help="comma-separated digits")
    sub.add_argument("--digits", type=int, default=12)
    sub.add_argument("--compare", default=None, help="second point to compare against")
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
        return _fail(str(exc), 2)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
