"""Byte-for-byte answers of every subcommand in every format it accepts.

Each case runs main() in process and compares its stdout, stderr and exit
code with the ones committed in cli_golden.json.  After a deliberate change
of the output, re-record them and review the diff of that file:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from padicdist.cli import build_parser, main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _dirac(point):
    return {"type": "dirac", "point": point}


def _graft(period, left, right):
    return {"type": "graft", "path": {"preperiod": [], "period": period}, "left": left, "right": right}


# Spec documents by name; an argument "@name" is the path of that document.
SPECS = {
    "mazur5": {"prime": 5, "expr": {"type": "mazur"}},
    "haar3": {"prime": 3, "expr": {"type": "haar"}},
    "mazur3": {"prime": 3, "expr": {"type": "mazur"}},
    # Additive: the two sides agree on the path and in every tail sum.
    "good_graft": {
        "prime": 5,
        "expr": _graft(
            [2],
            {"type": "lincomb", "terms": [["1", _dirac("1")], ["1", _dirac("3")]]},
            {"type": "lincomb", "terms": [["1", _dirac("0")], ["1", _dirac("4")]]},
        ),
    },
    "mu1": {"prime": 5, "expr": {"type": "lincomb", "terms": [["1", _dirac("1")], ["1", _dirac("3")]]}},
    # Agrees on the path, fails one tail sum.
    "bad_graft": {"prime": 5, "expr": _graft([2], _dirac("1"), _dirac("4"))},
    # Fails on the path and in the tail sums, at every level.
    "leaky_graft": {"prime": 5, "expr": _graft([2], {"type": "mazur"}, {"type": "haar"})},
    "branch3": {
        "prime": 3,
        "expr": {
            "type": "branch",
            "k": 1,
            "children": {"0": {"type": "haar"}, "1": _dirac("0"), "2": {"type": "mazur"}},
        },
    },
    "same_branch": {
        "prime": 3,
        "expr": {"type": "branch", "k": 1, "children": {str(t): {"type": "mazur"} for t in range(3)}},
    },
    # All 9 node types and a ref.
    "codec": {
        "prime": 3,
        "defs": {"m": {"type": "mazur"}},
        "expr": {
            "type": "lincomb",
            "terms": [
                ["1", _dirac("-1/2")],
                ["2/3", {"type": "haar"}],
                ["1", {"type": "bernoulli", "k": 2}],
                ["-1", {"type": "restrict", "cell": {"a": 1, "n": 1}, "expr": {"type": "ref", "name": "m"}}],
                ["1", {"type": "regularize", "k": 1, "alpha": "2", "expr": {"type": "ref", "name": "m"}}],
                ["1", _graft([2], {"type": "haar", "scale": "3"}, _dirac("0"))],
                ["1", {"type": "branch", "k": 1, "children": {"0": {"type": "mazur"}, "1": {"type": "haar"}, "2": _dirac("2")}}],
            ],
        },
    },
    "step": {"depth": 1, "values": {"0": "1", "1": "-1/2", "2": "0", "3": "0", "4": "3"}},
}

FORMATS = {
    "eval": ("text", "json"),
    "verify": ("text", "json"),
    "graft-check": ("text", "json"),
    "branch-check": ("text", "json"),
    "distinct": ("text", "json"),
    "norms": ("csv", "json", "text"),
    "integrate": ("text", "json"),
    "dump": ("csv", "dot"),
    "path": ("text", "json"),
}

# (case name, argv without --format): each runs once per format its command takes.
COMMANDS = [
    ("eval", ["eval", "--spec", "@mazur5", "--ball", "7/2"]),
    ("eval-codec", ["eval", "--spec", "@codec", "--ball", "4/2"]),
    ("verify-pass", ["verify", "--spec", "@mazur5", "--depth", "3"]),
    ("verify-fail", ["verify", "--spec", "@leaky_graft", "--depth", "4"]),
    ("verify-fail-truncated", ["verify", "--spec", "@leaky_graft", "--depth", "4", "--max-violations", "1"]),
    ("verify-fail-none-shown", ["verify", "--spec", "@leaky_graft", "--depth", "4", "--max-violations", "0"]),
    ("verify-negative-count", ["verify", "--spec", "@leaky_graft", "--depth", "4", "--max-violations", "-1"]),
    ("verify-over-budget", ["verify", "--spec", "@mazur5", "--depth", "3", "--budget", "10"]),
    ("graft-pass", ["graft-check", "--spec", "@good_graft", "--depth", "4"]),
    ("graft-tail-fail", ["graft-check", "--spec", "@bad_graft", "--depth", "3"]),
    ("graft-both-fail", ["graft-check", "--spec", "@leaky_graft", "--depth", "3"]),
    ("graft-not-a-graft", ["graft-check", "--spec", "@mazur5", "--depth", "2"]),
    ("branch-witness", ["branch-check", "--spec", "@branch3", "--depth", "3"]),
    ("branch-no-witness", ["branch-check", "--spec", "@same_branch", "--depth", "3"]),
    ("branch-not-a-branch", ["branch-check", "--spec", "@mazur5", "--depth", "2"]),
    ("distinct-witness", ["distinct", "--spec", "@good_graft", "--other", "@mu1", "--depth", "3"]),
    ("distinct-no-witness", ["distinct", "--spec", "@mazur5", "--other", "@mazur5", "--depth", "3"]),
    ("distinct-prime-mismatch", ["distinct", "--spec", "@mazur5", "--other", "@mazur3", "--depth", "2"]),
    ("norms-mazur", ["norms", "--spec", "@mazur5", "--depth", "3"]),
    ("norms-codec", ["norms", "--spec", "@codec", "--depth", "3"]),
    ("norms-depth-0", ["norms", "--spec", "@haar3", "--depth", "0"]),
    ("integrate-fn", ["integrate", "--spec", "@mazur5", "--depth", "3", "--fn", "1/2 + 3*x - x^2"]),
    ("integrate-step-fn", ["integrate", "--spec", "@mazur5", "--depth", "3", "--step-fn", "@step"]),
    ("integrate-no-fn", ["integrate", "--spec", "@mazur5", "--depth", "3"]),
    ("dump", ["dump", "--spec", "@codec", "--depth", "2"]),
    ("dump-mazur", ["dump", "--spec", "@mazur5", "--depth", "1"]),
    ("path-compare-greater", ["path", "--prime", "3", "--point", "-7/8", "--digits", "6", "--compare", "7"]),
    ("path-compare-less", ["path", "--prime", "5", "--point", "1/3", "--compare", "-1/3"]),
    ("path-compare-never", ["path", "--prime", "3", "--point", "1/2", "--digits", "5", "--compare", "1/2"]),
    ("path-digits", ["path", "--prime", "3", "--preperiod", "1", "--period", "2,0", "--digits", "6"]),
    ("path-digits-compare", ["path", "--prime", "3", "--period", "2", "--digits", "4", "--compare", "-1"]),
    ("path-large-prime", ["path", "--prime", "11", "--point", "12", "--digits", "3"]),
    ("path-no-prime", ["path", "--point", "1"]),
]

CASES = [(f"{name}/{fmt}", [*argv, "--format", fmt]) for name, argv in COMMANDS for fmt in FORMATS[argv[0]]]


def run_case(argv, folder):
    """(exit code, stdout, stderr) of main(argv), with "@name" arguments
    replaced by the path of spec document `name` written into folder."""
    args = []
    for arg in argv:
        if arg.startswith("@"):
            target = Path(folder) / f"{arg[1:]}.json"
            target.write_text(json.dumps(SPECS[arg[1:]]), encoding="utf-8")
            arg = str(target)
        args.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue().replace(str(folder), "<dir>")}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_bytes(golden, tmp_path, name, argv):
    assert run_case(argv, tmp_path) == golden[name]


def test_cases_cover_every_command_and_format():
    # FORMATS is what the parser accepts, and every pair of it has a case.
    commands = build_parser()._subparsers._group_actions[0].choices
    accepted = {
        name: sorted(next(a.choices for a in sub._actions if a.dest == "format"))
        for name, sub in commands.items()
    }
    assert accepted == {name: sorted(fmts) for name, fmts in FORMATS.items()}
    covered = {(argv[0], argv[-1]) for _, argv in CASES}
    assert covered == {(cmd, fmt) for cmd, fmts in FORMATS.items() for fmt in fmts}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        record = {name: run_case(argv, folder) for name, argv in CASES}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
