"""End-to-end command tests driving main() in process, and the benchmark's
bad-input probes in a fresh interpreter, as the benchmark runs them."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import padicdist
from padicdist import evaluate_level, format_rational, norm
from padicdist.cli import main
from padicdist.distributions import MAX_BERNOULLI_K
from padicdist.serialize import MAX_NESTING, load_document

MAZUR5 = {"prime": 5, "expr": {"type": "mazur"}}
HAAR_NO_PRIME = {"expr": {"type": "haar"}}

MU1 = {
    "type": "lincomb",
    "terms": [
        ["1", {"type": "dirac", "point": "1"}],
        ["1", {"type": "dirac", "point": "3"}],
    ],
}
MU2 = {
    "type": "lincomb",
    "terms": [
        ["1", {"type": "dirac", "point": "0"}],
        ["1", {"type": "dirac", "point": "4"}],
    ],
}
GOOD_GRAFT = {
    "prime": 5,
    "defs": {"mu1": MU1, "mu2": MU2},
    "expr": {
        "type": "graft",
        "path": {"preperiod": [], "period": [2]},
        "left": {"type": "ref", "name": "mu1"},
        "right": {"type": "ref", "name": "mu2"},
    },
}
BAD_GRAFT = {
    "prime": 5,
    "expr": {
        "type": "graft",
        "path": {"preperiod": [], "period": [2]},
        "left": {"type": "dirac", "point": "1"},
        "right": {"type": "dirac", "point": "4"},
    },
}
BRANCH3 = {
    "prime": 3,
    "expr": {
        "type": "branch",
        "k": 1,
        "children": {
            "0": {"type": "haar"},
            "1": {"type": "dirac", "point": "0"},
            "2": {"type": "mazur"},
        },
    },
}
SAME_BRANCH = {
    "prime": 3,
    "expr": {
        "type": "branch",
        "k": 1,
        "children": {"0": {"type": "mazur"}, "1": {"type": "mazur"}, "2": {"type": "mazur"}},
    },
}


@pytest.fixture
def doc(tmp_path):
    def write(obj, name="spec.json"):
        target = tmp_path / name
        target.write_text(json.dumps(obj), encoding="utf-8")
        return str(target)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------- eval

def test_eval_text(doc, capsys):
    code, out, err = run(capsys, "eval", "--spec", doc(MAZUR5), "--ball", "3/1")
    assert (code, err) == (0, "")
    assert out == "1/10 norm=5\n"


def test_eval_json(doc, capsys):
    code, out, _ = run(
        capsys, "eval", "--spec", doc(MAZUR5), "--ball", "3/1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "prime": 5,
        "ball": {"a": 3, "n": 1},
        "value": "1/10",
        "norm": "5",
    }


def test_eval_canonicalizes_representative(doc, capsys):
    code, out, _ = run(capsys, "eval", "--spec", doc(MAZUR5), "--ball", "7/2")
    assert code == 0
    assert out == "-11/50 norm=25\n"


def test_eval_resolves_refs(doc, capsys):
    document = {
        "prime": 5,
        "defs": {"m": {"type": "mazur"}},
        "expr": {"type": "ref", "name": "m"},
    }
    code, out, _ = run(capsys, "eval", "--spec", doc(document), "--ball", "3/1")
    assert (code, out) == (0, "1/10 norm=5\n")


def test_eval_prime_flag_supplies_missing_prime(doc, capsys):
    spec = doc(HAAR_NO_PRIME)
    code, out, _ = run(capsys, "eval", "--spec", spec, "--ball", "4/2", "--prime", "3")
    assert (code, out) == (0, "1/9 norm=9\n")
    # without the flag there is no prime to work with
    code, _, err = run(capsys, "eval", "--spec", spec, "--ball", "4/2")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("ball", ["abc", "1/2/3", "x/1", "3", "1_0/2", "٣/1"])
def test_eval_rejects_bad_ball_syntax(doc, capsys, ball):
    code, _, err = run(capsys, "eval", "--spec", doc(MAZUR5), "--ball", ball)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_eval_input_errors(doc, capsys, tmp_path):
    # prime disagreement between document and flag
    code, _, err = run(
        capsys, "eval", "--spec", doc(MAZUR5), "--ball", "0/1", "--prime", "3"
    )
    assert code == 2 and "mismatch" in err
    # missing file
    code, _, err = run(capsys, "eval", "--spec", str(tmp_path / "nope.json"), "--ball", "0/1")
    assert code == 2
    # invalid JSON
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--spec", str(broken), "--ball", "0/1")
    assert code == 2 and "invalid JSON" in err
    # composite prime
    code, _, err = run(
        capsys, "eval", "--spec", doc(HAAR_NO_PRIME), "--ball", "0/1", "--prime", "6"
    )
    assert code == 2
    # a rational written with a non-ASCII digit
    dirac = {"prime": 5, "expr": {"type": "dirac", "point": "٣"}}
    code, out, err = run(capsys, "eval", "--spec", doc(dirac), "--ball", "0/1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "expr",
    [
        {"type": "bernoulli", "k": True},
        {"type": "regularize", "k": False, "alpha": "2", "expr": {"type": "mazur"}},
        {"type": "branch", "k": True, "children": {str(t): {"type": "mazur"} for t in range(5)}},
        {"type": "restrict", "cell": {"a": 1, "n": True}, "expr": {"type": "mazur"}},
        {"type": "lincomb", "terms": {}},
    ],
)
def test_eval_rejects_bools_and_non_list_terms(doc, capsys, expr):
    code, out, err = run(capsys, "eval", "--spec", doc({"prime": 5, "expr": expr}), "--ball", "1/1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_error_messages_are_single_line(doc, capsys):
    code, _, err = run(capsys, "eval", "--spec", doc(MAZUR5), "--ball", "9/9/9")
    assert code == 2
    assert err.endswith("\n") and err.count("\n") == 1


# --------------------------------------------------------------------- verify

def test_verify_pass(doc, capsys):
    code, out, _ = run(capsys, "verify", "--spec", doc(MAZUR5), "--depth", "3")
    assert code == 0
    assert out.rstrip().endswith("result: PASS")
    assert "balls_checked=31" in out


def test_verify_fail_lists_violation(doc, capsys):
    code, out, _ = run(capsys, "verify", "--spec", doc(BAD_GRAFT), "--depth", "3")
    assert code == 1
    assert "result: FAIL" in out
    assert "violations=1" in out


def test_verify_json(doc, capsys):
    code, out, _ = run(
        capsys, "verify", "--spec", doc(BAD_GRAFT), "--depth", "3", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["violations"] == [
        {"ball": {"a": 0, "n": 0}, "lhs": "1", "children_sum": "2"}
    ]


def test_verify_budget_exceeded(doc, capsys):
    code, _, err = run(capsys, "verify", "--spec", doc(MAZUR5), "--depth", "9")
    assert code == 3
    assert "budget" in err
    code, _, err = run(
        capsys, "verify", "--spec", doc(MAZUR5), "--depth", "2", "--budget", "10"
    )
    assert code == 3


STEP5 = {"depth": 1, "values": {str(r): str(r) for r in range(5)}}


@pytest.mark.parametrize(
    "argv, work",
    [
        (["verify"], "5^D balls"),
        (["norms"], "5^D balls"),
        (["dump"], "5^D balls"),
        (["integrate", "--fn", "x^2"], "3 terms on each of 5^D balls"),
        # A step function's sums go depth by depth, to the first one past the budget.
        (["integrate", "--step-fn", "STEP5"], "5^9 balls"),
        (["distinct", "--other", "MAZUR5"], "5^D balls"),
        (["branch-check", "--spec", "SAME_BRANCH"], "3^D balls"),
    ],
)
def test_a_huge_depth_is_refused_at_once(doc, capsys, argv, work):
    # p^(10^15) is never raised: the depth alone passes the budget.
    files = {"MAZUR5": (MAZUR5, "mazur.json"), "SAME_BRANCH": (SAME_BRANCH, "branch.json"),
             "STEP5": (STEP5, "step.json")}
    argv = [doc(*files[a]) if a in files else a for a in argv]
    if "--spec" not in argv:
        argv += ["--spec", doc(MAZUR5, "mazur.json")]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--depth", str(10**15))
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == (
        f"error: refusing to enumerate {work.replace('D', str(10**15))} (budget 1000000); "
        "raise the ball budget to proceed\n"
    )


def test_a_huge_graft_check_depth_is_refused_at_once(doc, capsys):
    # The path's digits are never listed: the depth-weighted count refuses first.
    spec = doc({"prime": 5, "expr": {"type": "graft", "path": {"preperiod": [], "period": [2]},
                                     "left": {"type": "mazur"}, "right": {"type": "mazur"}}})
    start = time.perf_counter()
    code, out, err = run(capsys, "graft-check", "--spec", spec, "--depth", str(10**15))
    assert time.perf_counter() - start < 1
    weighted = 5 * (10**15 + 1) * (10**15 + 2) // 2
    assert code == 3 and out == ""
    assert err == (
        f"error: refusing to enumerate 5 balls on each of levels 0..{10**15}, {weighted} "
        "weighted by depth (budget 1000000); raise the ball budget to proceed\n"
    )
    code, _, _ = run(capsys, "graft-check", "--spec", spec, "--depth", "4", "--budget", "74")
    assert code == 3
    code, out, _ = run(capsys, "graft-check", "--spec", spec, "--depth", "4", "--budget", "75")
    assert code == 0 and out.rstrip().endswith("result: PASS")


def _regularized_mazur(k):
    mazur = {"type": "mazur"}
    return {"prime": 3, "expr": {"type": "regularize", "k": k, "alpha": "2", "expr": mazur}}


@pytest.mark.parametrize(
    "argv", [["eval", "--ball", "1/1"], ["eval", "--ball", "1/1", "--format", "json"],
             ["dump", "--depth", "1"]],
)
def test_a_value_too_long_to_write_exits_3(doc, capsys, argv):
    # Regularize(15000, 2, Mazur) at p = 3 has values of about 4,500 digits,
    # past the interpreter's limit for str(int), which stays in place.
    code, _, err = run(capsys, *argv, "--spec", doc(_regularized_mazur(15000)))
    limit = sys.get_int_max_str_digits()
    assert code == 3
    assert err == f"error: refusing to write or read a number of more than {limit} digits\n"
    code, out, err = run(capsys, *argv, "--spec", doc(_regularized_mazur(14000)))
    assert code == 0 and err == "" and len(out) > 8000


@pytest.mark.parametrize("fmt", ["csv", "dot"])
def test_a_dump_past_the_digit_limit_writes_nothing(doc, capsys, fmt):
    # Every level is checked against the digit limit before the first
    # line, the csv header included, is written.
    argv = ["dump", "--depth", "1", "--format", fmt, "--spec", doc(_regularized_mazur(15000))]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("error: refusing to write")


# ---------------------------------------------------------------- graft-check

def test_graft_check_pass(doc, capsys):
    code, out, _ = run(capsys, "graft-check", "--spec", doc(GOOD_GRAFT), "--depth", "6")
    assert code == 0
    assert out.rstrip().endswith("result: PASS")


def test_graft_check_fail_shows_tail_sums(doc, capsys):
    code, out, _ = run(capsys, "graft-check", "--spec", doc(BAD_GRAFT), "--depth", "4")
    assert code == 1
    assert "tail-sum failures: 1" in out
    assert "result: FAIL" in out


def test_graft_check_json(doc, capsys):
    code, out, _ = run(
        capsys, "graft-check", "--spec", doc(BAD_GRAFT), "--depth", "2",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["tail_sum_failures"] == [
        {"level": 0, "left_sum": "1", "right_sum": "-1"}
    ]


def test_graft_check_requires_graft_root(doc, capsys):
    code, _, err = run(capsys, "graft-check", "--spec", doc(MAZUR5), "--depth", "2")
    assert code == 2 and "graft" in err


# --------------------------------------------------------------- branch-check

def test_branch_check_witness(doc, capsys):
    code, out, _ = run(capsys, "branch-check", "--spec", doc(BRANCH3), "--depth", "3")
    assert code == 0
    assert out == "witness: t=0 s=1 ball=0/1\n"


def test_branch_check_no_witness(doc, capsys):
    code, out, _ = run(capsys, "branch-check", "--spec", doc(SAME_BRANCH), "--depth", "3")
    assert code == 1
    assert out == "no witness up to depth 3\n"


def test_branch_check_json(doc, capsys):
    code, out, _ = run(
        capsys, "branch-check", "--spec", doc(BRANCH3), "--depth", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert (payload["t"], payload["s"], payload["ball"]) == (0, 1, {"a": 0, "n": 1})


def test_branch_check_requires_branch_root(doc, capsys):
    code, _, err = run(capsys, "branch-check", "--spec", doc(MAZUR5), "--depth", "2")
    assert code == 2 and "branch" in err


# ------------------------------------------------------------------- distinct

def test_distinct_finds_separating_ball(doc, capsys):
    graft = doc(GOOD_GRAFT, "graft.json")
    mu1 = doc({"prime": 5, "expr": MU1}, "mu1.json")
    code, out, _ = run(capsys, "distinct", "--spec", graft, "--other", mu1, "--depth", "3")
    assert code == 0
    assert out == "distinct on ball 3/1: 0 vs 1\n"


def test_distinct_no_witness(doc, capsys):
    a = doc(MAZUR5, "a.json")
    b = doc(MAZUR5, "b.json")
    code, out, _ = run(capsys, "distinct", "--spec", a, "--other", b, "--depth", "3")
    assert code == 1
    assert out == "no differing ball up to depth 3\n"


def test_distinct_rejects_mixed_primes(doc, capsys):
    a = doc(MAZUR5, "a.json")
    b = doc({"prime": 3, "expr": {"type": "mazur"}}, "b.json")
    code, _, err = run(capsys, "distinct", "--spec", a, "--other", b, "--depth", "2")
    assert code == 2 and "mismatch" in err


# ---------------------------------------------------------------------- norms

def test_norms_csv_default(doc, capsys):
    spec = doc({"prime": 3, "expr": {"type": "haar"}})
    code, out, _ = run(capsys, "norms", "--spec", spec, "--depth", "2")
    assert code == 0
    assert out == "depth,max_norm,argmax_a\n0,1,0\n1,3,0\n2,9,0\n"


def test_norms_json_and_text(doc, capsys):
    spec = doc(MAZUR5)
    code, out, _ = run(
        capsys, "norms", "--spec", spec, "--depth", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [e["max_norm"] for e in payload["entries"]] == ["1", "5", "25"]
    code, out, _ = run(
        capsys, "norms", "--spec", spec, "--depth", "2", "--format", "text"
    )
    assert code == 0
    assert out.startswith("norm scan\n")


# ------------------------------------------------------------------ integrate

def test_integrate_polynomial(doc, capsys):
    spec = doc({"prime": 5, "expr": {"type": "haar"}})
    code, out, _ = run(
        capsys, "integrate", "--spec", spec, "--depth", "3", "--fn", "x"
    )
    assert code == 0
    assert "S_1 = 2" in out
    assert out.rstrip().endswith("verdict: norm-decreasing")


def test_integrate_step_fn(doc, capsys, tmp_path):
    step = tmp_path / "step.json"
    step.write_text(
        json.dumps({"depth": 1, "values": {str(t): "1" if t == 0 else "0" for t in range(5)}}),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "integrate", "--spec", doc(MAZUR5), "--depth", "3",
        "--step-fn", str(step),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "S_1 = -1/2"
    assert lines[-1] == "verdict: converged-exactly"


def test_integrate_requires_exactly_one_function(doc, capsys, tmp_path):
    spec = doc(MAZUR5)
    code, _, err = run(capsys, "integrate", "--spec", spec, "--depth", "3")
    assert code == 2 and "exactly one" in err
    step = tmp_path / "step.json"
    step.write_text(json.dumps({"depth": 0, "values": {"0": "1"}}), encoding="utf-8")
    code, _, err = run(
        capsys, "integrate", "--spec", spec, "--depth", "3",
        "--fn", "x", "--step-fn", str(step),
    )
    assert code == 2 and "exactly one" in err


def test_integrate_rejects_bad_polynomial(doc, capsys):
    code, _, err = run(
        capsys, "integrate", "--spec", doc(MAZUR5), "--depth", "3", "--fn", "2**x"
    )
    assert code == 2


@pytest.mark.parametrize("fn", ["x^99999999", "1 + x^39999"])
def test_integrate_refuses_a_degree_past_the_budget(doc, capsys, fn):
    # Refused before the dense coefficients (10^8 of them for the first) are
    # built; (39999 + 1) * 5^2 is one past the budget.
    start = time.perf_counter()
    got, out, err = run(
        capsys, "integrate", "--spec", doc(MAZUR5), "--depth", "2", "--fn", fn,
        "--budget", "999999",
    )
    assert (got, out) == (3, "")
    assert err.startswith("error: refusing") and err.count("\n") == 1
    assert time.perf_counter() - start < 1


# ----------------------------------------------------------------------- dump

def test_dump_csv(doc, capsys):
    code, out, _ = run(capsys, "dump", "--spec", doc(MAZUR5), "--depth", "1")
    assert code == 0
    assert out.splitlines() == [
        "depth,rep,value,norm",
        "0,0,-1/2,1",
        "1,0,-1/2,1",
        "1,1,-3/10,5",
        "1,2,-1/10,5",
        "1,3,1/10,5",
        "1,4,3/10,5",
    ]


def test_dump_dot(doc, capsys):
    code, out, _ = run(
        capsys, "dump", "--spec", doc(MAZUR5), "--depth", "1", "--format", "dot"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph balls {"
    assert lines[-1] == "}"
    assert '  "0/0" [label="0+(5^0)\\n-1/2"];' in lines
    assert '  "0/0" -> "3/1";' in lines


@pytest.mark.parametrize(
    "argv",
    [
        ("norms", "--depth", "-1"),
        ("dump", "--depth", "-1"),
        ("dump", "--depth", "-1", "--format", "dot"),
        ("verify", "--depth", "2", "--max-violations", "-1"),
        ("verify", "--depth", "2", "--max-violations", "-1", "--format", "json"),
    ],
    ids=["norms", "dump-csv", "dump-dot", "verify-text", "verify-json"],
)
@pytest.mark.parametrize("spec", [MAZUR5, BAD_GRAFT], ids=["passing", "failing"])
def test_negative_counts_exit_2(doc, capsys, argv, spec):
    code, out, err = run(capsys, argv[0], "--spec", doc(spec), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_dump_budget(doc, capsys):
    code, _, err = run(
        capsys, "dump", "--spec", doc(MAZUR5), "--depth", "3", "--budget", "100"
    )
    assert code == 3 and "budget" in err


# ----------------------------------------------------------------------- path

def test_path_from_point_with_compare(capsys):
    code, out, _ = run(
        capsys, "path", "--prime", "3", "--point", "-7/8", "--digits", "6",
        "--compare", "7",
    )
    assert code == 0
    assert out.splitlines() == [
        "digits: 121212",
        "preperiod: []",
        "period: [1, 2]",
        "value: -7/8",
        "compare: greater",
        "divergence: splits-after 1",
    ]


def test_path_from_period(capsys):
    code, out, _ = run(
        capsys, "path", "--prime", "3", "--preperiod", "1", "--period", "2,0",
        "--digits", "6",
    )
    assert code == 0
    assert "digits: 120202" in out
    assert "value: 1/4" in out


def test_path_json(capsys):
    code, out, _ = run(
        capsys, "path", "--prime", "5", "--point", "-1", "--digits", "4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "prime": 5,
        "digits": "4444",
        "preperiod": [],
        "period": [4],
        "value": "-1",
    }


def test_path_digit_separator_for_large_primes(capsys):
    code, out, _ = run(capsys, "path", "--prime", "11", "--point", "12", "--digits", "3")
    assert code == 0
    assert "digits: 1,1,0" in out


def test_path_usage_errors(capsys):
    code, _, err = run(capsys, "path", "--point", "1")
    assert code == 2 and "--prime" in err
    code, _, err = run(capsys, "path", "--prime", "3")
    assert code == 2 and "exactly one" in err
    code, _, err = run(
        capsys, "path", "--prime", "3", "--point", "1", "--period", "1"
    )
    assert code == 2 and "exactly one" in err
    # the point must lie in Z_p
    code, _, err = run(capsys, "path", "--prime", "3", "--point", "1/3")
    assert code == 2
    code, out, err = run(capsys, "path", "--prime", "3", "--point", "1", "--digits", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # More digits to print than the budget.
        ["--point", "1/2", "--digits", "2000000"],
        ["--period", "1", "--digits", "1001", "--budget", "1000"],
        # The order of 3 mod 10^9 + 7 is 500,000,003: the walk is bounded
        # by 10^9 + 8 tails, refused before it starts.
        ["--point", "1/1000000007"],
        ["--point", "1/2", "--compare", "1/1000000007"],
        # Both walks fit, but periods of 299 and 606 digits make a horizon
        # of 181,195.
        ["--point", "1/599", "--compare", "1/607", "--budget", "2000"],
    ],
)
def test_path_refuses_work_past_the_budget(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "path", "--prime", "3", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: refusing") and err.count("\n") == 1
    assert time.perf_counter() - start < 1


def test_path_budget_admits_work_up_to_it(capsys):
    code, out, _ = run(
        capsys, "path", "--prime", "3", "--point", "1/2", "--digits", "1000",
        "--budget", "1000",
    )
    assert code == 0 and "digits: " + "2" + "1" * 999 in out
    # Walk bounds of 599 + 1 + 1 and a horizon of 1 + 299.
    code, out, _ = run(
        capsys, "path", "--prime", "3", "--point", "1/599", "--compare", "-1/599",
        "--budget", "601",
    )
    assert code == 0 and "divergence: first-digit-differs" in out


def test_path_long_period_at_a_large_prime(capsys):
    # A period of 100,018 digits, in well under the 3 minutes that a power
    # of p per digit took to read the value back.
    start = time.perf_counter()
    code, out, _ = run(capsys, "path", "--prime", "1000003", "--point", "1/100019")
    assert code == 0 and "value: 1/100019" in out
    assert time.perf_counter() - start < 5


def test_path_at_a_large_prime(capsys):
    # Primality of p ~ 10^18 is decided at once, prime or not.
    code, out, _ = run(capsys, "path", "--prime", "1000000000000000003", "--point", "1/3")
    assert code == 0 and out.startswith("digits: ")
    code, out, err = run(capsys, "path", "--prime", "1000000016000000063", "--point", "1/3")
    assert (code, out) == (2, "")
    assert "prime" in err and err.count("\n") == 1


# -------------------------------------------------------------------- parsing

def test_unknown_command_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ball", "0/1"])
    assert exc.value.code == 2


# int() takes "1_0" and the digits of other scripts; the CLI takes ASCII only.
# A flag's type is checked by argparse (SystemExit), the rest by the command.
@pytest.mark.parametrize(
    "argv",
    [
        ("norms", "--depth", "٣"),
        ("verify", "--depth", "2", "--budget", "1_000"),
        ("verify", "--depth", "2", "--max-violations", "٣"),
        ("dump", "--depth", "1", "--prime", "٥"),
        ("dump", "--depth", "1", "--prime", "5/1"),
        ("integrate", "--depth", "2", "--fn", "١*x"),
        ("integrate", "--depth", "2", "--fn", "x^٢"),
        ("path", "--prime", "5", "--point", "1", "--digits", "1_0"),
        ("path", "--prime", "5", "--preperiod", "١", "--period", "2"),
        ("path", "--prime", "5", "--period", "0_1"),
    ],
)
def test_integers_take_ascii_digits_only(doc, capsys, argv):
    if argv[0] != "path":
        argv = (argv[0], "--spec", doc(MAZUR5), *argv[1:])
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


# ------------------------------------------------------------- deep nesting

def _nest(depth, refs):
    # An expression `depth` levels deep, equal in value to Mazur; with refs,
    # every other level is a ref to a def holding the level below.
    defs, node = {}, {"type": "mazur"}
    for level in range(2, depth + 1):
        if refs and level % 2:
            defs[f"d{level}"] = node
            node = {"type": "ref", "name": f"d{level}"}
        else:
            node = {"type": "lincomb", "terms": [["1", node]]}
    return node, defs


def _deep_doc(depth, refs, root):
    inner, defs = _nest(depth - 1, refs)
    mazur = {"type": "mazur"}
    expr = {
        "lincomb": {"type": "lincomb", "terms": [["1", inner]]},
        "graft": {"type": "graft", "path": {"preperiod": [], "period": [2]},
                  "left": inner, "right": mazur},
        "branch": {"type": "branch", "k": 1,
                   "children": {str(t): inner if t == 0 else mazur for t in range(5)}},
    }[root]
    return {"prime": 5, "defs": defs, "expr": expr}


DEEP_COMMANDS = [
    ("lincomb", ["eval", "--ball", "3/1"], 0),
    ("lincomb", ["verify", "--depth", "2"], 0),
    ("graft", ["graft-check", "--depth", "2"], 0),
    ("branch", ["branch-check", "--depth", "2"], 1),
    ("lincomb", ["distinct", "--other", "{other}", "--depth", "2"], 1),
    ("lincomb", ["norms", "--depth", "2"], 0),
    ("lincomb", ["integrate", "--fn", "x", "--depth", "2"], 0),
    ("lincomb", ["dump", "--depth", "1"], 0),
]


@pytest.mark.parametrize("refs", [False, True], ids=["literal", "defs-chain"])
@pytest.mark.parametrize("root, argv, code", DEEP_COMMANDS, ids=[c[1][0] for c in DEEP_COMMANDS])
def test_nesting_cap(doc, capsys, refs, root, argv, code):
    argv = [a.replace("{other}", doc(MAZUR5, "other.json")) for a in argv]
    spec = doc(_deep_doc(MAX_NESTING, refs, root))
    got, out, err = run(capsys, argv[0], "--spec", spec, *argv[1:])
    assert (got, err) == (code, "")
    assert out
    spec = doc(_deep_doc(MAX_NESTING + 1, refs, root))
    got, out, err = run(capsys, argv[0], "--spec", spec, *argv[1:])
    assert (got, out) == (2, "")
    assert err == f"error: expression nests deeper than {MAX_NESTING} levels\n"


def _regularize_chain(leaf):
    # At the nesting cap: MAX_NESTING - 1 Regularize nodes, each with its own
    # unit, over the leaf.  A scalar walk of one ball would make 2^99 calls.
    units = [a for a in range(2, 5 * MAX_NESTING) if a % 5][: MAX_NESTING - 1]
    node = leaf
    for i, alpha in enumerate(units):
        node = {"type": "regularize", "k": 1 + i % 3, "alpha": str(alpha), "expr": node}
    return {"prime": 5, "expr": node}


# On the ball 0/0 every alpha maps the ball to itself.
@pytest.mark.parametrize("ball", ["3/3", "0/0"])
def test_nesting_cap_regularize_chain(doc, capsys, ball):
    document = _regularize_chain({"type": "mazur"})
    code, out, err = run(capsys, "eval", "--spec", doc(document), "--ball", ball)
    assert (code, err) == (0, "")
    # the whole level goes through each node by a permutation, not by unions
    rep, depth = map(int, ball.split("/"))
    nums, den = evaluate_level(load_document(document)[1], 5, depth)
    value = F(nums[rep], den)
    assert out == f"{format_rational(value)} norm={format_rational(norm(value, 5))}\n"
    document = _regularize_chain({"type": "dirac", "point": "1/5"})
    code, out, err = run(capsys, "eval", "--spec", doc(document), "--ball", ball)
    assert (code, out) == (2, "")
    assert err == "error: 1/5 is not a p-adic integer for p=5\n"


@pytest.mark.parametrize("argv", [["eval", "--ball", "1/1"], ["dump", "--depth", "1"]])
def test_bernoulli_index_cap(doc, capsys, argv):
    # B_k's coefficients cost about k^3 Fraction steps (k = 1200 took 15 s):
    # a larger k than the cap is refused as the spec is decoded, with exit 2
    # and one line, and the largest one accepted answers in well under a
    # second.
    start = time.perf_counter()
    spec = doc({"prime": 5, "expr": {"type": "bernoulli", "k": 10**5}})
    code, out, err = run(capsys, argv[0], "--spec", spec, *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: Bernoulli index must be at most {MAX_BERNOULLI_K}, got 100000\n"
    assert time.perf_counter() - start < 1
    spec = doc({"prime": 5, "expr": {"type": "bernoulli", "k": MAX_BERNOULLI_K}})
    code, out, err = run(capsys, argv[0], "--spec", spec, *argv[1:])
    assert (code, err) == (0, "") and out
    assert time.perf_counter() - start < 3


def _ref_chain(n):
    # a_i = lincomb(1 a_(i-1), 1 a_(i-1)) over a_0 = mazur: n + 1 defs, a
    # tree of 2^n leaves.
    defs = {"a0": {"type": "mazur"}}
    for i in range(1, n + 1):
        ref = {"type": "ref", "name": f"a{i - 1}"}
        defs[f"a{i}"] = {"type": "lincomb", "terms": [["1", ref], ["1", ref]]}
    return {"type": "ref", "name": f"a{n}"}, defs


def _inlined(node, defs):
    if isinstance(node, dict):
        if node.get("type") == "ref":
            return _inlined(defs[node["name"]], defs)
        return {key: _inlined(value, defs) for key, value in node.items()}
    if isinstance(node, list):
        return [_inlined(value, defs) for value in node]
    return node


CHAIN_COMMANDS = [
    ("lincomb", ["eval", "--ball", "3/2"]),
    ("lincomb", ["verify", "--depth", "2"]),
    ("graft", ["graft-check", "--depth", "2"]),
    ("branch", ["branch-check", "--depth", "2"]),
    ("lincomb", ["distinct", "--other", "{other}", "--depth", "2"]),
    ("lincomb", ["norms", "--depth", "2"]),
    ("lincomb", ["integrate", "--fn", "x", "--depth", "2"]),
    ("lincomb", ["dump", "--depth", "2"]),
]


def _chain_rooted(root, chain):
    # The chain as the root, as the left side of a graft, or as three of
    # the five children of a branch.
    mazur = {"type": "mazur"}
    return {
        "lincomb": chain,
        "graft": {"type": "graft", "path": {"preperiod": [1], "period": [2]},
                  "left": chain, "right": mazur},
        "branch": {"type": "branch", "k": 1,
                   "children": {str(t): chain if t < 3 else mazur for t in range(5)}},
    }[root]


def test_ref_chain_decodes_and_searches_in_linear_time(doc, capsys):
    # 4,738 bytes that stand for a tree of 2^40 leaves: each def is decoded
    # once, and every command evaluates each distinct node once per request.
    root, defs = _ref_chain(40)
    document = {"prime": 5, "defs": defs, "expr": root}
    spec = doc(document)
    assert len(json.dumps(document)) == 4738
    start = time.perf_counter()
    load_document(document)
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    code, out, err = run(capsys, "distinct", "--spec", spec, "--other", spec, "--depth", "2")
    assert (code, out, err) == (1, "no differing ball up to depth 2\n", "")
    assert time.perf_counter() - start < 5
    # Every command, against the exit code of the same command on a small
    # tree; `distinct` compares with mazur, which differs at depth 0, so
    # both values are computed and printed.
    other = doc(MAZUR5, "other.json")
    small, small_defs = _ref_chain(3)
    for shape, argv in CHAIN_COMMANDS:
        argv = [a.replace("{other}", other) for a in argv]
        tree = doc({"prime": 5, "expr": _inlined(_chain_rooted(shape, small), small_defs)},
                   "tree.json")
        want, _, _ = run(capsys, argv[0], "--spec", tree, *argv[1:])
        spec = doc({"prime": 5, "defs": defs, "expr": _chain_rooted(shape, root)}, "chain.json")
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], "--spec", spec, *argv[1:])
        assert (code, err) == (want, ""), argv[0]
        assert out
        assert time.perf_counter() - start < 5, argv[0]


@pytest.mark.parametrize("root, argv", CHAIN_COMMANDS, ids=[c[1][0] for c in CHAIN_COMMANDS])
def test_ref_chain_prints_what_its_tree_prints(doc, capsys, root, argv):
    chain, defs = _ref_chain(12)
    mazur = {"type": "mazur"}
    expr = {
        "lincomb": chain,
        "graft": {"type": "graft", "path": {"preperiod": [1], "period": [2]},
                  "left": chain, "right": mazur},
        "branch": {"type": "branch", "k": 1,
                   "children": {str(t): chain if t < 3 else mazur for t in range(5)}},
    }[root]
    argv = [a.replace("{other}", doc(MAZUR5, "other.json")) for a in argv]
    shared = run(capsys, argv[0], "--spec", doc({"prime": 5, "defs": defs, "expr": expr}),
                 *argv[1:])
    tree = run(capsys, argv[0], "--spec", doc({"prime": 5, "expr": _inlined(expr, defs)}),
               *argv[1:])
    assert shared == tree
    assert shared[1] and not shared[2]


def test_json_too_deep_to_parse_exits_2(tmp_path, capsys):
    # Nested far past the interpreter's recursion limit, so the JSON parser
    # itself gives up before the expression decoder sees the document.
    depth = 5000
    spec = tmp_path / "deep.json"
    spec.write_text(
        '{"prime": 5, "expr": ' + '{"type": "lincomb", "terms": [["1", ' * depth
        + '{"type": "mazur"}' + "]]}" * depth + "}",
        encoding="utf-8",
    )
    step = tmp_path / "step.json"
    step.write_text("[" * depth + "]" * depth, encoding="utf-8")
    mazur = tmp_path / "mazur.json"
    mazur.write_text(json.dumps(MAZUR5), encoding="utf-8")
    for argv in (
        ["eval", "--spec", str(spec), "--ball", "1/1"],
        ["integrate", "--spec", str(mazur), "--step-fn", str(step), "--depth", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: JSON in ") and err.count("\n") == 1


# ------------------------------------------- the benchmark's bad-input probes

def _cli_process(*argv):
    # A fresh interpreter, as the benchmark runs each job: the recursion
    # limit and the exit code are the process's own.
    src = str(Path(padicdist.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    entry = "from padicdist.cli import entry_point; entry_point()"
    return subprocess.run(
        [sys.executable, "-c", entry, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def test_probe_nested_lincomb_950_exits_2_with_one_line(tmp_path):
    depth = 950
    spec = tmp_path / "nested.json"
    spec.write_text(
        '{"prime": 5, "expr": ' + '{"type": "lincomb", "terms": [["1", ' * depth
        + '{"type": "mazur"}' + "]]}" * depth + "}",
        encoding="utf-8",
    )
    proc = _cli_process("eval", "--spec", str(spec), "--ball", "1/1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_probe_prime_near_10_to_the_18_is_accepted():
    # 10^18 + 3 is prime, inside the range the primality test proves.
    proc = _cli_process("path", "--prime", "1000000000000000003", "--point", "1/3")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("digits: ")
