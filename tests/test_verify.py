"""Relation checks, graft/branch witnesses, norm scans, determinism."""

from fractions import Fraction as F

import pytest

from padicdist import (
    Ball,
    BallBudgetError,
    BoundednessFlag,
    Branch,
    Dirac,
    Graft,
    Haar,
    LinearComb,
    Mazur,
    Path,
    Regularize,
    boundedness_verdict,
    check_branch_hypothesis,
    check_graft_precondition,
    check_relation,
    distinctness_witness,
    norm_scan,
    remark_pair,
)
from padicdist.verify import (
    NormScanEntry,
    OnPathFailure,
    RelationViolation,
    TailSumFailure,
)

PI5 = Path(5, (), (2,))
MU1 = LinearComb(((F(1), Dirac(1)), (F(1), Dirac(3))))
MU2 = LinearComb(((F(1), Dirac(0)), (F(1), Dirac(4))))
GOOD_GRAFT = Graft(PI5, MU1, MU2)
BAD_GRAFT = Graft(PI5, Dirac(1), Dirac(4))
LEAKY_GRAFT = Graft(PI5, Haar(), Dirac(0))


# ------------------------------------------------------------ check_relation

def test_relation_pass_counts_parents():
    report = check_relation(Mazur(), 3, 4)
    assert report.passed
    assert report.checked_count == 1 + 3 + 9 + 27
    assert report.violations == ()
    assert report.max_depth == 4


def test_relation_single_root_violation():
    report = check_relation(BAD_GRAFT, 5, 5)
    assert not report.passed
    assert report.checked_count == 781
    assert report.violations == (
        RelationViolation(Ball(5, 0, 0), F(1), F(2)),
    )


def test_relation_violations_in_depth_order():
    # Haar grafted against a point mass leaks mass at every on-path ball.
    report = check_relation(LEAKY_GRAFT, 5, 4)
    assert [v.ball for v in report.violations] == [
        Ball(5, 0, 0),
        Ball(5, 1, 2),
        Ball(5, 2, 12),
        Ball(5, 3, 62),
    ]
    for n, violation in enumerate(report.violations):
        assert violation.lhs == F(1, 5**n)
        assert violation.rhs_sum == F(3, 5 ** (n + 1))


def test_relation_report_truncation():
    report = check_relation(LEAKY_GRAFT, 5, 4)
    payload = report.to_json_dict(max_violations=2)
    assert payload["passed"] is False
    assert payload["total_violations"] == 4
    assert payload["truncated"] is True
    assert len(payload["violations"]) == 2
    assert payload["violations"][0] == {
        "ball": {"a": 0, "n": 0},
        "lhs": "1",
        "children_sum": "3/5",
    }
    text = report.to_text(max_violations=2)
    assert "(truncated: showing 2 of 4 violations)" in text
    assert text.endswith("result: FAIL")
    passing = check_relation(Mazur(), 3, 2)
    assert passing.to_text().endswith("result: PASS")
    # A negative count is refused, failing report or passing.
    for shown in (report, passing):
        with pytest.raises(ValueError):
            shown.to_json_dict(max_violations=-1)
        with pytest.raises(ValueError):
            shown.to_text(max_violations=-1)


def test_relation_validation():
    with pytest.raises(ValueError):
        check_relation(Mazur(), 3, 0)
    with pytest.raises(ValueError):
        check_relation(Mazur(), 4, 2)


def test_relation_budget():
    with pytest.raises(BallBudgetError):
        check_relation(Mazur(), 5, 9)  # 5^9 > default budget
    with pytest.raises(BallBudgetError):
        check_relation(Mazur(), 5, 2, ball_budget=10)
    check_relation(Mazur(), 5, 2, ball_budget=25)


# --------------------------------------------------------- graft precondition

def test_graft_precondition_pass_fixture():
    report = check_graft_precondition(MU1, MU2, PI5, 6)
    assert report.passed
    assert report.depth_checked == 6
    assert report.on_path_agreement == ()
    assert report.tail_sum_failures == ()
    assert report.to_text().endswith("result: PASS")


def test_graft_precondition_tail_failure_fixture():
    # delta_1 vs delta_4: the pair agrees on the path but the tails differ.
    report = check_graft_precondition(Dirac(1), Dirac(4), PI5, 4)
    assert not report.passed
    assert report.on_path_agreement == ()
    assert report.tail_sum_failures == (TailSumFailure(0, F(1), F(-1)),)
    # and that tail failure is exactly an additivity violation at P_0
    relation = check_relation(BAD_GRAFT, 5, 3)
    assert relation.violations[0].ball == Ball(5, 0, 0)


def test_graft_precondition_checks_are_independent():
    # remark_pair gives no agreement guarantee: here both checks fail at
    # level 0 and nowhere else.
    pi = Path(3, (), (1, 2))
    mu1, mu2 = remark_pair(Haar(), Mazur(), pi)
    report = check_graft_precondition(mu1, mu2, pi, 5)
    assert report.on_path_agreement == (OnPathFailure(0, F(1), F(0)),)
    assert report.tail_sum_failures == (TailSumFailure(0, F(5, 6), F(1, 6)),)


def test_graft_precondition_soundness():
    # precondition to depth N  =>  the graft is additive on parents 0..N
    cases = [
        (MU1, MU2, PI5),
        (Haar(), Haar(), PI5),
        (Mazur(), Mazur(), Path(3, (1,), (2, 0))),
    ]
    for left, right, pi in cases:
        assert check_graft_precondition(left, right, pi, 3).passed
        relation = check_relation(Graft(pi, left, right), pi.prime, 4)
        assert relation.passed


def test_graft_precondition_json_shape():
    payload = check_graft_precondition(Dirac(1), Dirac(4), PI5, 2).to_json_dict()
    assert payload["passed"] is False
    assert payload["path"] == {"preperiod": [], "period": [2]}
    assert payload["tail_sum_failures"] == [
        {"level": 0, "left_sum": "1", "right_sum": "-1"}
    ]
    assert payload["on_path_agreement"] == []


def test_graft_precondition_validation():
    with pytest.raises(ValueError):
        check_graft_precondition(Haar(), Haar(), PI5, -1)


# ----------------------------------------------------------- branch witnesses

def test_branch_witness_fixture():
    witness = check_branch_hypothesis((Haar(), Dirac(0), Mazur()), 3, 1, 3)
    assert witness is not None
    assert (witness.t, witness.s, witness.ball) == (0, 1, Ball(3, 1, 0))
    assert witness.to_json_dict() == {"t": 0, "s": 1, "ball": {"a": 0, "n": 1}}


def test_branch_witness_takes_k_from_branch_node():
    br = Branch(1, (Haar(), Dirac(0), Mazur()))
    assert check_branch_hypothesis(br, 3, 99, 3) == check_branch_hypothesis(
        br.children, 3, 1, 3
    )


def test_branch_witness_skips_structurally_equal_children():
    assert check_branch_hypothesis((Mazur(), Mazur(), Mazur()), 3, 1, 4) is None


def test_branch_witness_found_only_at_depth_three():
    # delta_0 and delta_4 agree on every 2-adic ball of depth < 3.
    table = (Dirac(0), Dirac(4))
    assert check_branch_hypothesis(table, 2, 1, 2) is None
    witness = check_branch_hypothesis(table, 2, 1, 3)
    assert witness is not None
    assert (witness.t, witness.s, witness.ball) == (0, 1, Ball(2, 3, 0))


def test_branch_witness_picks_first_differing_pair():
    witness = check_branch_hypothesis((Mazur(), Mazur(), Haar()), 3, 1, 2)
    assert (witness.t, witness.s, witness.ball) == (0, 2, Ball(3, 1, 0))


def test_branch_witness_validation():
    with pytest.raises(ValueError):
        check_branch_hypothesis((Mazur(), Mazur(), Mazur()), 3, 1, 0)  # depth < k
    with pytest.raises(ValueError):
        check_branch_hypothesis((Mazur(), Mazur()), 3, 1, 2)  # wrong table size
    with pytest.raises(BallBudgetError):
        check_branch_hypothesis((Mazur(), Haar(), Mazur()), 3, 1, 3, ball_budget=9)


# ------------------------------------------------------------- distinctness

def test_distinctness_finds_first_ball():
    assert distinctness_witness(Mazur(), Haar(), 5, 3) == Ball(5, 0, 0)
    assert distinctness_witness(GOOD_GRAFT, MU1, 5, 3) == Ball(5, 1, 3)
    assert distinctness_witness(GOOD_GRAFT, MU2, 5, 3) == Ball(5, 1, 0)


def test_distinctness_none_means_no_witness_up_to_depth():
    assert distinctness_witness(Mazur(), Mazur(), 5, 3) is None
    # delta_0 vs delta_4 at p=2 differ only from depth 3 on
    assert distinctness_witness(Dirac(0), Dirac(4), 2, 2) is None
    assert distinctness_witness(Dirac(0), Dirac(4), 2, 3) == Ball(2, 3, 0)


def test_distinctness_budget():
    with pytest.raises(BallBudgetError):
        distinctness_witness(Mazur(), Haar(), 5, 2, ball_budget=5)


# ---------------------------------------------------------------- norm scans

def test_norm_scan_haar_grows_by_p():
    report = norm_scan(Haar(), 3, 5)
    assert [e.max_norm for e in report.entries] == [1, 3, 9, 27, 81, 243]
    assert all(e.argmax == Ball(3, e.depth, 0) for e in report.entries)


def test_norm_scan_mazur_fixture():
    report = norm_scan(Mazur(), 5, 4)
    assert [e.max_norm for e in report.entries] == [1, 5, 25, 125, 625]
    # first representative attaining the maximum: 0 at the root, then 1
    assert [e.argmax.rep for e in report.entries] == [0, 1, 1, 1, 1]


def test_norm_scan_dirac_is_constant():
    report = norm_scan(Dirac(0), 5, 4)
    assert [e.max_norm for e in report.entries] == [1, 1, 1, 1, 1]
    assert [e.argmax.rep for e in report.entries] == [0, 0, 0, 0, 0]


def test_norm_scan_csv_fixture():
    assert norm_scan(Haar(), 3, 2).to_csv() == (
        "depth,max_norm,argmax_a\n0,1,0\n1,3,0\n2,9,0"
    )


def test_norm_scan_budget_and_validation():
    with pytest.raises(BallBudgetError):
        norm_scan(Mazur(), 5, 2, ball_budget=5)
    with pytest.raises(ValueError):
        norm_scan(Mazur(), 5, -1)


# --------------------------------------------------------------- boundedness

def test_boundedness_verdict_agreement_leaves_no_note():
    assert boundedness_verdict(Haar(), 3, 4).note is None
    assert boundedness_verdict(Dirac(0), 3, 4).note is None
    assert boundedness_verdict(GOOD_GRAFT, 5, 3).note is None


def test_boundedness_verdict_flags_constant_scan_of_unbounded_flag():
    # Haar(0) is structurally "unbounded" but evaluates to zero everywhere;
    # the verdict keeps the flag and notes the disagreement.
    verdict = boundedness_verdict(Haar(0), 3, 4)
    assert verdict.flag is BoundednessFlag.UNBOUNDED
    assert verdict.note is not None and "constant" in verdict.note
    assert [e.max_norm for e in verdict.scan.entries] == [0, 0, 0, 0, 0]


def test_boundedness_verdict_json_shape():
    payload = boundedness_verdict(Dirac(0), 3, 2).to_json_dict()
    assert payload["flag"] == "bounded"
    assert payload["note"] is None
    assert payload["scan"]["entries"][0] == {
        "depth": 0,
        "max_norm": "1",
        "argmax": {"a": 0, "n": 0},
    }


# --------------------------------------------------------------- determinism

def test_scan_of_depth_zero():
    report = norm_scan(Mazur(), 5, 0)
    assert report.entries == (NormScanEntry(0, F(1), Ball(5, 0, 0)),)


def test_repeated_runs_are_identical():
    first = check_relation(GOOD_GRAFT, 5, 4)
    second = check_relation(GOOD_GRAFT, 5, 4)
    assert first == second
    assert first.to_text() == second.to_text()
