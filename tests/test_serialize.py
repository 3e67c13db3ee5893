"""JSON round-trips for expressions and spec documents."""

import json
from fractions import Fraction as F

import pytest

from padicdist import (
    Ball,
    Bernoulli,
    Branch,
    Dirac,
    Graft,
    Haar,
    LinearComb,
    Mazur,
    Path,
    Regularize,
    Restrict,
    dump_document,
    expr_from_json,
    expr_to_json,
    load_document,
)
from padicdist.serialize import MAX_NESTING

SAMPLES = [
    Dirac(F(-7, 8)),
    Haar(),
    Haar(F(3, 7)),
    Mazur(),
    Bernoulli(2),
    LinearComb(((F(2), Haar()), (F(-1, 3), Mazur()))),
    LinearComb(()),
    Restrict(Ball(5, 2, 7), Mazur()),
    Regularize(1, F(3), Mazur()),
    Graft(Path(5, (1,), (2, 0)), Haar(), Dirac(0)),
    Branch(1, (Haar(), Dirac(0), Mazur(), Dirac(1), Bernoulli(3))),
    Graft(
        Path(5, (), (2,)),
        LinearComb(((F(1), Dirac(1)), (F(1), Dirac(3)))),
        LinearComb(((F(1), Dirac(0)), (F(1), Dirac(4)))),
    ),
]


@pytest.mark.parametrize("expr", SAMPLES, ids=lambda e: type(e).__name__)
def test_round_trip_through_json_text(expr):
    text = json.dumps(expr_to_json(expr))
    assert expr_from_json(json.loads(text), 5) == expr


def test_round_trip_wide_branch():
    # 2-adic level-4 branch: 16 children, keys "0".."15"
    wide = Branch(4, tuple(Dirac(t) for t in range(16)))
    obj = expr_to_json(wide)
    assert set(obj["children"]) == {str(t) for t in range(16)}
    assert expr_from_json(json.loads(json.dumps(obj)), 2) == wide


def test_haar_scale_is_optional():
    assert expr_from_json({"type": "haar"}, 5) == Haar()
    assert expr_from_json({"type": "haar", "scale": "3/7"}, 5) == Haar(F(3, 7))


def test_refs_resolve_through_defs():
    defs = {
        "m": {"type": "mazur"},
        "reg": {"type": "regularize", "k": 1, "alpha": "3",
                "expr": {"type": "ref", "name": "m"}},
    }
    expr = expr_from_json({"type": "ref", "name": "reg"}, 5, defs)
    assert expr == Regularize(1, F(3), Mazur())


def test_undefined_ref_is_an_error():
    with pytest.raises(ValueError, match="undefined"):
        expr_from_json({"type": "ref", "name": "ghost"}, 5)


def test_cyclic_refs_are_an_error():
    loop = {
        "a": {"type": "ref", "name": "b"},
        "b": {"type": "ref", "name": "a"},
    }
    with pytest.raises(ValueError, match="cyclic"):
        expr_from_json({"type": "ref", "name": "a"}, 5, loop)
    with pytest.raises(ValueError, match="cyclic"):
        expr_from_json({"type": "ref", "name": "s"}, 5, {"s": {"type": "ref", "name": "s"}})


def test_ref_chains_count_toward_the_nesting_cap():
    # A chain of plain aliases decodes to one node, but each ref resolved is
    # a level: without the cap a long chain exhausts the interpreter's stack.
    defs = {"r0": {"type": "mazur"}}
    for i in range(1, 5000):
        defs[f"r{i}"] = {"type": "ref", "name": f"r{i - 1}"}
    chain = {"type": "ref", "name": f"r{MAX_NESTING - 2}"}
    assert expr_from_json(chain, 5, defs) == Mazur()
    with pytest.raises(ValueError, match="nests deeper"):
        expr_from_json({"type": "ref", "name": f"r{MAX_NESTING - 1}"}, 5, defs)
    with pytest.raises(ValueError, match="nests deeper"):
        expr_from_json({"type": "ref", "name": "r4999"}, 5, defs)


@pytest.mark.parametrize(
    "obj",
    [
        {"type": "dirac"},  # missing field
        {"type": "dirac", "point": "1", "extra": 0},  # unexpected field
        {"type": "mazur", "scale": "1"},
        {"type": "nonesuch"},
        {"point": "1"},  # no type
        "mazur",  # not an object
        {"type": "lincomb", "terms": [["1"]]},  # term is not a pair
        {"type": "branch", "k": 1, "children": [{"type": "mazur"}]},  # list, not object
        {"type": "branch", "k": 1, "children": {"0": {"type": "mazur"}, "2": {"type": "mazur"}}},
        {"type": "branch", "k": 1, "children": {"zero": {"type": "mazur"}}},
        {"type": "restrict", "cell": {"a": 1}, "expr": {"type": "mazur"}},  # bad ball
        {"type": "graft", "path": {"period": [1]}, "left": {"type": "mazur"},
         "right": {"type": "mazur"}},  # bad path
        # JSON booleans are not integers
        {"type": "bernoulli", "k": True},
        {"type": "regularize", "k": True, "alpha": "2", "expr": {"type": "mazur"}},
        {"type": "branch", "k": True, "children": {str(t): {"type": "mazur"} for t in range(5)}},
        {"type": "restrict", "cell": {"a": 0, "n": True}, "expr": {"type": "mazur"}},
        {"type": "lincomb", "terms": {}},  # terms not a list
        {"type": "lincomb", "terms": "ab"},
        # Branch keys other than str(t): under int() they collide or alias
        {"type": "branch", "k": 1,
         "children": {**{str(t): {"type": "haar"} for t in range(5)},
                      "01": {"type": "dirac", "point": "0"}}},
        {"type": "branch", "k": 1,
         "children": {("+1" if t == 1 else str(t)): {"type": "mazur"} for t in range(5)}},
        {"type": "branch", "k": 1,
         "children": {(" 1" if t == 1 else str(t)): {"type": "mazur"} for t in range(5)}},
        {"type": "branch", "k": 2,
         "children": {("1_0" if t == 10 else str(t)): {"type": "mazur"} for t in range(25)}},
    ],
)
def test_malformed_nodes_are_rejected(obj):
    with pytest.raises(ValueError):
        expr_from_json(obj, 5)


def test_rationals_serialize_as_strings():
    obj = expr_to_json(LinearComb(((F(-1, 3), Haar(F(2))),)))
    assert obj["terms"][0][0] == "-1/3"
    assert obj["terms"][0][1] == {"type": "haar", "scale": "2"}


# --------------------------------------------------------------- documents

def test_document_round_trip():
    expr = Restrict(Ball(5, 1, 2), LinearComb(((F(2), Haar()), (F(1), Dirac(3)))))
    doc = dump_document(5, expr)
    assert doc["prime"] == 5
    prime, back = load_document(json.loads(json.dumps(doc)))
    assert (prime, back) == (5, expr)


def test_document_prime_rules():
    doc = {"prime": 5, "expr": {"type": "mazur"}}
    assert load_document(doc) == (5, Mazur())
    assert load_document(doc, 5) == (5, Mazur())
    with pytest.raises(ValueError, match="mismatch"):
        load_document(doc, 3)
    # prime can come from the flag alone, but must come from somewhere
    assert load_document({"expr": {"type": "mazur"}}, 7) == (7, Mazur())
    with pytest.raises(ValueError, match="prime"):
        load_document({"expr": {"type": "mazur"}})
    with pytest.raises(ValueError):
        load_document({"prime": 6, "expr": {"type": "mazur"}})


def test_document_shape_rules():
    with pytest.raises(ValueError):
        load_document({"prime": 5})  # no expr
    with pytest.raises(ValueError):
        load_document({"prime": 5, "expr": {"type": "mazur"}, "junk": 1})
    with pytest.raises(ValueError):
        load_document({"prime": 5, "expr": {"type": "mazur"}, "defs": []})
    with pytest.raises(ValueError):
        load_document([1, 2, 3])


def test_document_defs_are_available_to_expr():
    doc = {
        "prime": 5,
        "defs": {"h": {"type": "haar", "scale": "2"}},
        "expr": {"type": "lincomb", "terms": [["1/2", {"type": "ref", "name": "h"}]]},
    }
    assert load_document(doc) == (5, LinearComb(((F(1, 2), Haar(F(2))),)))
