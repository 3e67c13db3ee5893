"""`dump` prints exactly the render oracle's bytes, a block of lines per write."""

import io
import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from render_oracle import dump
from test_evaluate_level import PRIMES, coefficients, expressions

from padicdist import Ball, Dirac, Haar, LinearComb, Mazur, Restrict, dump_document
from padicdist.cli import _BLOCK_LINES, main

SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
FORMATS = ("csv", "dot")


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    target = tmp_path_factory.mktemp("dump") / "spec.json"

    def write(p, expr):
        target.write_text(json.dumps(dump_document(p, expr)), encoding="utf-8")
        return str(target)

    return write


class CountingStream(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def run_dump(spec, depth, fmt, *extra):
    stream = CountingStream()
    saved, sys.stdout = sys.stdout, stream
    try:
        code = main(["dump", "--spec", spec, "--depth", str(depth), "--format", fmt, *extra])
    finally:
        sys.stdout = saved
    assert code == 0
    return stream.getvalue(), stream.writes


def assert_oracle_bytes(spec_file, p, expr, depth, *extra):
    spec = spec_file(p, expr)
    for fmt in FORMATS:
        out, _ = run_dump(spec, depth, fmt, *extra)
        assert out == dump(expr, p, depth, fmt)


@SETTINGS
@given(st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(st.just(p), expressions(p))),
       st.integers(0, 3))
def test_dump_prints_the_oracle_bytes(spec_file, case, depth):
    p, expr = case
    assert_oracle_bytes(spec_file, p, expr, depth)


@SETTINGS
@given(st.sampled_from(PRIMES), st.integers(-9, 9).filter(bool), st.integers(1, 3),
       st.integers(0, 4))
def test_dump_haar_with_p_in_the_scale_denominator(spec_file, p, u, k, depth):
    # Negative valuations: the norm is a positive power of p.
    assert_oracle_bytes(spec_file, p, Haar(F(u, p**k)), depth)


@SETTINGS
@given(st.sampled_from(PRIMES), coefficients(), st.integers(0, 3))
def test_dump_negative_values(spec_file, p, c, depth):
    expr = LinearComb(((-abs(c) - 1, Mazur()), (c, Dirac(F(-1)))))
    assert_oracle_bytes(spec_file, p, expr, depth)


@pytest.mark.parametrize("p", PRIMES)
def test_dump_levels_that_are_all_zero(spec_file, p):
    disjoint = Restrict(Ball(p, 1, 0), Restrict(Ball(p, 1, 1), Mazur()))
    for expr in (LinearComb(()), LinearComb(((0, Mazur()),)), disjoint):
        out, _ = run_dump(spec_file(p, expr), 2, "csv")
        assert all(line.endswith(",0,0") for line in out.splitlines()[1:])
        assert_oracle_bytes(spec_file, p, expr, 2)


def test_dump_at_a_large_prime(spec_file):
    # A million balls, so only the csv form, where the norms are: the dot
    # labels are the same value texts.
    p = 1000003
    expr = LinearComb(((1, Mazur()), (F(1, 3), Haar(F(1, p)))))
    out, _ = run_dump(spec_file(p, expr), 1, "csv", "--budget", str(p + 1))
    assert out == dump(expr, p, 1, "csv")


def test_dump_writes_a_block_of_lines_at_a_time(spec_file):
    # Mazur at p=5, depth 6: 19,531 balls.  A write per line would be
    # tens of thousands of writes.
    p, depth = 5, 6
    balls = sum(p**n for n in range(depth + 1))
    spec = spec_file(p, Mazur())
    csv, csv_writes = run_dump(spec, depth, "csv")
    assert csv.count("\n") == balls + 1
    assert csv_writes <= depth + 2 + balls // _BLOCK_LINES
    dot, dot_writes = run_dump(spec, depth, "dot")
    # A header, a label per ball, an edge per ball but the root, and "}".
    assert dot.count("\n") == 2 * balls + 1
    assert dot_writes <= 1 + (2 * balls + 1) // _BLOCK_LINES

