"""End-to-end command tests driving main() in process."""

import json
from fractions import Fraction as F

import pytest

from padicdist import evaluate_level, format_rational, norm
from padicdist.cli import main
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
