"""What callers see of the package's frozen records and expression nodes.

Every record class compares and hashes by its fields, in order; every node
class is interned, so it compares and hashes by identity.  Both refuse
assignment, show their fields in their repr, survive copy, deepcopy and
pickle, and have a constructor signature that names their fields.  Importing
the command line pulls in no code generation: neither `dataclasses` nor
`inspect`.
"""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path as FsPath
from typing import get_args

import pytest

import padicdist
from padicdist import (
    Ball,
    Bernoulli,
    BoundednessFlag,
    Branch,
    ConvergenceVerdict,
    Dirac,
    DistExpr,
    Divergence,
    DivergenceKind,
    Graft,
    Haar,
    LinearComb,
    Mazur,
    Path,
    Polynomial,
    Regularize,
    Restrict,
    StepFn,
)
from padicdist.integrate import IntegrationReport
from padicdist.verify import (
    BoundednessVerdict,
    BranchWitness,
    GraftPreconditionReport,
    NormScanEntry,
    NormScanReport,
    OnPathFailure,
    RelationReport,
    RelationViolation,
    TailSumFailure,
)

BALL = Ball(5, 2, 1)
PATH = Path(3, (1,), (2, 0))
ENTRY = NormScanEntry(1, F(5), Ball(5, 1, 0))
SCAN = NormScanReport(5, 1, (ENTRY,))

# (build, another with one field changed, repr, field names) per record class.
RECORDS = [
    (lambda: Ball(5, 2, 1), lambda: Ball(5, 2, 6), "Ball(prime=5, depth=2, rep=1)",
     ["prime", "depth", "rep"]),
    (lambda: Path(3, (1,), (2, 0)), lambda: Path(3, (), (1, 2, 0)),
     "Path(prime=3, preperiod=(1,), period=(2, 0))", ["prime", "preperiod", "period"]),
    (lambda: Divergence(DivergenceKind.SPLITS_AFTER, 4), lambda: Divergence.splits_after(5),
     "Divergence(kind=<DivergenceKind.SPLITS_AFTER: 'splits-after'>, index=4)",
     ["kind", "index"]),
    (lambda: Polynomial((1, F(1, 2))), lambda: Polynomial((1,)),
     "Polynomial(coeffs=(Fraction(1, 1), Fraction(1, 2)))", ["coeffs"]),
    (lambda: StepFn(1, {0: 1, 1: 0, 2: 2}), lambda: StepFn(1, (1, 0, 3)),
     "StepFn(depth=1, values=(Fraction(1, 1), Fraction(0, 1), Fraction(2, 1)))",
     ["depth", "values"]),
    (lambda: IntegrationReport(3, 2, (F(1), F(2)), (F(3),), ConvergenceVerdict.INCONCLUSIVE),
     lambda: IntegrationReport(3, 2, (F(1), F(2)), (F(1),), ConvergenceVerdict.INCONCLUSIVE),
     "IntegrationReport(prime=3, max_depth=2, partial_sums=(Fraction(1, 1), Fraction(2, 1)), "
     "diff_norms=(Fraction(3, 1),), verdict=<ConvergenceVerdict.INCONCLUSIVE: 'inconclusive'>)",
     ["prime", "max_depth", "partial_sums", "diff_norms", "verdict"]),
    (lambda: RelationViolation(BALL, F(1, 2), F(0)), lambda: RelationViolation(BALL, F(1), F(0)),
     "RelationViolation(ball=Ball(prime=5, depth=2, rep=1), lhs=Fraction(1, 2), "
     "rhs_sum=Fraction(0, 1))", ["ball", "lhs", "rhs_sum"]),
    (lambda: RelationReport(5, 2, 6, ()), lambda: RelationReport(5, 2, 7, ()),
     "RelationReport(prime=5, max_depth=2, checked_count=6, violations=())",
     ["prime", "max_depth", "checked_count", "violations"]),
    (lambda: OnPathFailure(0, F(1), F(2)), lambda: OnPathFailure(1, F(1), F(2)),
     "OnPathFailure(level=0, left_value=Fraction(1, 1), right_value=Fraction(2, 1))",
     ["level", "left_value", "right_value"]),
    (lambda: TailSumFailure(2, F(-1), F(1)), lambda: TailSumFailure(2, F(-1), F(0)),
     "TailSumFailure(level=2, left_sum=Fraction(-1, 1), right_sum=Fraction(1, 1))",
     ["level", "left_sum", "right_sum"]),
    (lambda: GraftPreconditionReport(3, PATH, 1, (), ()),
     lambda: GraftPreconditionReport(3, PATH, 2, (), ()),
     "GraftPreconditionReport(prime=3, path=Path(prime=3, preperiod=(1,), period=(2, 0)), "
     "depth_checked=1, on_path_agreement=(), tail_sum_failures=())",
     ["prime", "path", "depth_checked", "on_path_agreement", "tail_sum_failures"]),
    (lambda: BranchWitness(0, 2, BALL), lambda: BranchWitness(0, 1, BALL),
     "BranchWitness(t=0, s=2, ball=Ball(prime=5, depth=2, rep=1))", ["t", "s", "ball"]),
    (lambda: NormScanEntry(1, F(5), Ball(5, 1, 0)), lambda: NormScanEntry(1, F(1), Ball(5, 1, 0)),
     "NormScanEntry(depth=1, max_norm=Fraction(5, 1), argmax=Ball(prime=5, depth=1, rep=0))",
     ["depth", "max_norm", "argmax"]),
    (lambda: NormScanReport(5, 1, (ENTRY,)), lambda: NormScanReport(5, 1, ()),
     "NormScanReport(prime=5, max_depth=1, entries=(NormScanEntry(depth=1, "
     "max_norm=Fraction(5, 1), argmax=Ball(prime=5, depth=1, rep=0)),))",
     ["prime", "max_depth", "entries"]),
    (lambda: BoundednessVerdict(BoundednessFlag.UNKNOWN, SCAN, None),
     lambda: BoundednessVerdict(BoundednessFlag.UNKNOWN, SCAN, "note"),
     "BoundednessVerdict(flag=<BoundednessFlag.UNKNOWN: 'unknown'>, scan=NormScanReport("
     "prime=5, max_depth=1, entries=(NormScanEntry(depth=1, max_norm=Fraction(5, 1), "
     "argmax=Ball(prime=5, depth=1, rep=0)),)), note=None)", ["flag", "scan", "note"]),
]

# (build, another node, repr, field names) per node class.
NODES = [
    (lambda: Dirac(F(-7, 8)), lambda: Dirac(1), "Dirac(point=Fraction(-7, 8))", ["point"]),
    (lambda: Haar(), lambda: Haar(2), "Haar(scale=Fraction(1, 1))", ["scale"]),
    (lambda: Mazur(), lambda: Haar(), "Mazur()", []),
    (lambda: Bernoulli(3), lambda: Bernoulli(2), "Bernoulli(k=3)", ["k"]),
    (lambda: LinearComb(((2, Mazur()),)), lambda: LinearComb(((3, Mazur()),)),
     "LinearComb(terms=((Fraction(2, 1), Mazur()),))", ["terms"]),
    (lambda: Restrict(Ball(3, 1, 2), Mazur()), lambda: Restrict(Ball(3, 1, 1), Mazur()),
     "Restrict(cell=Ball(prime=3, depth=1, rep=2), expr=Mazur())", ["cell", "expr"]),
    (lambda: Regularize(1, 2, Mazur()), lambda: Regularize(1, 3, Mazur()),
     "Regularize(k=1, alpha=Fraction(2, 1), expr=Mazur())", ["k", "alpha", "expr"]),
    (lambda: Graft(Path(3, (), (1,)), Mazur(), Haar()),
     lambda: Graft(Path(3, (), (1,)), Haar(), Mazur()),
     "Graft(path=Path(prime=3, preperiod=(), period=(1,)), left=Mazur(), "
     "right=Haar(scale=Fraction(1, 1)))", ["path", "left", "right"]),
    (lambda: Branch(1, {0: Mazur(), 1: Haar()}), lambda: Branch(1, (Haar(), Mazur())),
     "Branch(k=1, children=(Mazur(), Haar(scale=Fraction(1, 1))))", ["k", "children"]),
]

ALL = RECORDS + NODES
IDS = [repr(row[0]()).partition("(")[0] for row in ALL]


@pytest.mark.parametrize("build, other, text, names", RECORDS, ids=IDS[: len(RECORDS)])
def test_records_compare_and_hash_by_their_fields(build, other, text, names):
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other() and not a == other()
    assert a != tuple(getattr(a, name) for name in names)


@pytest.mark.parametrize("build, other, text, names", NODES, ids=IDS[len(RECORDS) :])
def test_nodes_are_interned_and_compare_by_identity(build, other, text, names):
    a = build()
    assert build() is a
    assert a == a and hash(a) == object.__hash__(a)
    assert a != other()


@pytest.mark.parametrize("build, other, text, names", ALL, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(build, other, text, names):
    a = build()
    for name in [*names, "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(a, name)


@pytest.mark.parametrize("build, other, text, names", ALL, ids=IDS)
def test_repr_names_every_field_in_order(build, other, text, names):
    assert repr(build()) == text


@pytest.mark.parametrize("build, other, text, names", ALL, ids=IDS)
def test_copies_and_pickles_equal_the_original(build, other, text, names):
    a = build()
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a and repr(twin) == text
        if isinstance(a, get_args(DistExpr)):
            assert twin is a


@pytest.mark.parametrize("build, other, text, names", ALL, ids=IDS)
def test_signature_names_the_fields(build, other, text, names):
    assert list(inspect.signature(type(build())).parameters) == names


def test_importing_the_cli_imports_no_code_generation():
    # A fresh interpreter: only what importing padicdist.cli adds counts, as
    # site hooks may have loaded either module already.
    src = str(FsPath(padicdist.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import padicdist.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")
