"""Affine levels kept as ranges, against the same levels as lists.

On a range of reps, `_level_form` gives the numerators of a form of
degree 1 (a Haar, a Mazur or a sum of them) as one `range`, and the
checkers add, scale, compare and take the gcd of such a level as a
progression.  The oracle is the same call with the kernel made to list
every entry, one per rep, as it did before: every report, witness and dump
byte must be the same on both paths, and so must what a wrong progression
at one depth makes them report.
`evaluate_level`, the public request, returns a list whatever the path.
"""

import importlib
import io
import json
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import evaluate
from test_combinator_checkers import listing_every_pair
from test_evaluate_level import (
    NODE_TYPES,
    PRIMES,
    SETTINGS,
    affine_trees,
    coefficients,
    expressions,
    points,
    rooted,
)
from test_searches import outcome

from padicdist import (
    Ball,
    Bernoulli,
    Branch,
    Dirac,
    Haar,
    LinearComb,
    Mazur,
    Polynomial,
    StepFn,
    boundedness_verdict,
    check_branch_hypothesis,
    check_relation,
    distinctness_witness,
    distributions,
    dump_document,
    evaluate_level,
    integrate,
    norm_scan,
)
from padicdist.cli import main
from padicdist.distributions import _at, evaluate_shared, polynomial_values
from padicdist.verify import _added, _differing, _same, _scaled

INTEGRATE = importlib.import_module("padicdist.integrate")
MAX_DEPTH = 3


# ------------------------------------------------------- the kernels swapped

def _listed_form(form, m, reps):
    # The form kernel with every level of degree 1 a list, an entry
    # computed per rep.
    s, poly = form
    if len(poly) > 2:
        return polynomial_values(_at(poly, m)[::-1], reps), s * m
    (b, c), (a,) = poly
    b += c * m
    return [a * r + b for r in reps], s * m


def _wrong_ranges(form, m, reps):
    # The form kernel of degree 1 one off on every ball of depth 2 (m = 4,
    # 9, 25 or 49 at the primes drawn), each level still a range where the
    # request is one.
    s, ((b, c), (a,)) = form
    b += c * m + (m in (4, 9, 25, 49))
    if not a:
        return [b] * len(reps), s * m
    if type(reps) is range:
        return range(a * reps.start + b, a * reps.stop + b, a * reps.step), s * m
    return [a * r + b for r in reps], s * m


def _wrong_lists(form, m, reps):
    # The same mutant with every level a list.
    s, ((b, c), (a,)) = form
    b += c * m + (m in (4, 9, 25, 49))
    return [a * r + b for r in reps], s * m


@contextmanager
def form_kernel(kernel):
    """Run kernel's code wherever `_level_form` is called: from `_level`,
    from a LinearComb and from a Regularize."""
    real = distributions._level_form
    saved, real.__code__ = real.__code__, kernel.__code__
    try:
        yield
    finally:
        real.__code__ = saved


@contextmanager
def enumerating_integrate():
    """`integrate` with no piece form, so that it evaluates every level."""
    saved, INTEGRATE.level_pieces = INTEGRATE.level_pieces, lambda *args: None
    try:
        yield
    finally:
        INTEGRATE.level_pieces = saved


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    target = tmp_path_factory.mktemp("ranges") / "spec.json"

    def write(p, expr):
        target.write_text(json.dumps(dump_document(p, expr)), encoding="utf-8")
        return str(target)

    return write


def _dump(spec, depth, fmt):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["dump", "--spec", spec, "--depth", str(depth), "--format", fmt])
    return code, out.getvalue()


def _reports(expr, other, p, depth, spec):
    """Every checker's outcome on expr, each a value or the error raised."""
    table = Branch(1, tuple(other if t == p - 1 else expr for t in range(p)))
    fns = (Polynomial((F(1, 2), F(-3), F(2, 5))), StepFn(1, tuple(F(t - 1, 3) for t in range(p))))
    with enumerating_integrate():
        sums = [outcome(integrate, expr, fn, p, max(depth, 2)) for fn in fns]
    return {
        "relation": outcome(check_relation, expr, p, max(depth, 1)),
        "norms": outcome(norm_scan, expr, p, depth),
        "verdict": outcome(boundedness_verdict, expr, p, depth),
        "distinct": outcome(distinctness_witness, expr, other, p, depth),
        "branch": outcome(check_branch_hypothesis, table, p, 1, max(depth, 1)),
        "integrate": sums,
        "dump": [_dump(spec, depth, fmt) for fmt in ("csv", "dot")],
    }


# ----------------------------------------------------------------- generators

def masses_after(p, first):
    """first, then one to three point masses: a range first term that the
    masses must not mutate."""
    return st.builds(
        lambda head, tail: LinearComb((head, *tail)),
        st.tuples(coefficients(), first),
        st.lists(st.tuples(coefficients(), points(p).map(Dirac)), min_size=1, max_size=3),
    )


@st.composite
def cases(draw):
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(["affine", "masses", "any", *NODE_TYPES]))
    own = {
        "affine": affine_trees(), "masses": masses_after(p, affine_trees()), "any": expressions(p)
    }
    expr = draw(own[kind] if kind in own else rooted(p, kind))
    other = draw(st.one_of(affine_trees(), masses_after(p, st.just(expr)), expressions(p)))
    depth = draw(st.integers(0, MAX_DEPTH if p < 7 else 2))
    return expr, other, p, depth


# ---------------------------------------------------------------------- tests

@settings(SETTINGS, max_examples=120)
@given(case=cases())
def test_every_report_is_the_same_on_ranges_and_on_lists(spec_file, case):
    # Over all 9 node types, negative and zero coefficients and depth 0
    # included: relation, norms, verdict, both searches, enumerating
    # integrate and the bytes of dump.
    expr, other, p, depth = case
    spec = spec_file(p, expr)
    ranged = _reports(expr, other, p, depth, spec)
    with form_kernel(_listed_form):
        listed = _reports(expr, other, p, depth, spec)
    assert ranged == listed


@settings(SETTINGS, max_examples=60)
@given(expr=affine_trees(), p=st.sampled_from(PRIMES))
def test_a_wrong_progression_at_one_depth_is_reported_alike_on_both_paths(expr, p):
    depth = 4 if p < 7 else 3
    # The identity proves affine trees without a level: list every pair.
    with listing_every_pair(), form_kernel(_wrong_ranges):
        ranged = check_relation(expr, p, depth), norm_scan(expr, p, depth)
    with listing_every_pair(), form_kernel(_wrong_lists):
        listed = check_relation(expr, p, depth), norm_scan(expr, p, depth)
    assert ranged == listed
    # One off on every ball of depth 2 breaks the relation at depths 1 and 2.
    assert {v.ball.depth for v in ranged[0].violations} == {1, 2}


def test_an_affine_level_on_a_range_is_one_range_and_a_constant_one_a_list():
    for expr in (Mazur(), LinearComb(((F(-2), Mazur()), (F(1, 3), Haar()))), Haar(F(-3, 2))):
        (nums, den), = evaluate_shared((expr,), 5, 3, range(125))
        assert type(nums) is (list if expr is Haar(F(-3, 2)) else range)
        assert list(nums) == evaluate_level(expr, 5, 3, list(range(125)))[0]


@pytest.mark.parametrize("coef", [F(1), F(-1), F(2, 3)])
def test_point_masses_add_into_a_copy_of_a_range_first_term(coef):
    # A first term that is a range, as a leaf's form or as a combinator's
    # value through `_level`; with a coefficient of 1 the sum starts from
    # the first term itself.
    inner = LinearComb(((F(1), Mazur()), (F(0), Bernoulli(1))))
    assert type(evaluate_shared((inner,), 3, 2, range(9))[0][0]) is range
    for first in (Mazur(), inner, LinearComb(((F(2), Mazur()), (F(-1), Haar())))):
        expr = LinearComb(((coef, first), (F(1), Dirac(4)), (F(-5, 2), Dirac(F(1, 2)))))
        for n, reps in ((2, range(9)), (3, range(2, 27, 3)), (3, range(26, 0, -5))):
            (nums, den), = evaluate_shared((expr,), 3, n, reps)
            assert [F(x, den) for x in nums] == [evaluate(expr, Ball(3, n, r)) for r in reps]
        (alone, _), = evaluate_shared((first,), 3, 2, range(9))
        assert list(alone) == evaluate_level(first, 3, 2)[0]


def test_added_keeps_ranges_and_falls_back_to_a_list_where_steps_cancel():
    assert _added(range(1, 11, 3), range(5, 1, -1)) == range(6, 14, 2)
    cancel = _added(range(0, 12, 3), range(7, -5, -3))
    assert type(cancel) is list and cancel == [7, 7, 7, 7]
    assert _added(range(2, 3), range(-4, 4, 9)) == range(-2, -1)
    assert _added([1, 2, 3], range(0, -3, -1)) == [1, 1, 1]
    assert _added(range(0), range(5, 5)) == range(0)


def test_scaled_and_same_on_ranges_and_lists():
    assert _scaled(range(1, 7, 2), -3) == range(-3, -21, -6)
    assert list(_scaled(range(4), 2)) == [0, 2, 4, 6]
    assert _scaled(range(1, 7, 2), 0) == [0, 0, 0]
    assert _scaled([1, 2], 4) == [4, 8]
    xs = range(3, 0, -1)
    assert _scaled(xs, 1) is xs
    assert _same(range(3), [0, 1, 2]) and _same([0, 1, 2], range(3))
    assert not _same(range(3), [0, 1, 3]) and not _same(range(1, 4), [0, 1, 2])
    assert _same(range(2, 3), range(2, 3, 5))
    assert list(_differing(range(0, 6, 2), 2, [0, 2, 5], 2)) == [2]
    assert list(_differing(range(0, 6, 2), 4, [0, 1, 2], 2)) == []


def test_norm_scan_of_a_one_entry_level_is_that_entry():
    # Depth 0 is the one-entry range(18, 20, 2) over 2: gcd(x0, step) would
    # take the unused step 2 and miss the 3-adic valuation 2 of 18.
    expr = LinearComb(((F(1), Mazur()), (F(1), Haar(F(19, 2)))))
    assert evaluate_shared((expr,), 3, 0, range(1))[0] == (range(18, 20, 2), 2)
    assert norm_scan(expr, 3, 0).entries[0].max_norm == F(1, 9)
    assert norm_scan(expr, 3, 2).entries[0].max_norm == F(1, 9)


# ---------------------------------------------------------- the API contract

@pytest.mark.parametrize("kind", NODE_TYPES)
@settings(SETTINGS, max_examples=40)
@given(data=st.data())
def test_evaluate_level_returns_a_list_on_every_request(kind, data):
    p = data.draw(st.sampled_from(PRIMES))
    n = data.draw(st.integers(1, MAX_DEPTH))
    m = p**n
    expr = data.draw(rooted(p, kind))
    r = data.draw(st.integers(0, m - 1))
    requests = (
        None, range(m), range(r, m), range(r, m, p), range(m - 1, r - 1, -1),
        range(m - 1, -1, -p), [r, 0, r], [r], range(r, r + 1),
    )
    for reps in requests:
        nums, den = evaluate_level(expr, p, n, reps)
        assert type(nums) is list
        assert nums == evaluate_level(expr, p, n, list(range(m) if reps is None else reps))[0]
