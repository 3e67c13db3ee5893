"""JSON encoding of distribution expressions and spec documents.

An expression is a typed JSON object, e.g.

    {"type": "dirac", "point": "-7/8"}
    {"type": "lincomb", "terms": [["1", {...}], ["-2/3", {...}]]}
    {"type": "branch", "k": 1, "children": {"0": {...}, "1": {...}, "2": {...}}}

Rationals are "num/den" strings ("num" when the denominator is 1), balls are
{"a": ..., "n": ...}, paths are {"preperiod": [...], "period": [...]}.

A spec document wraps one expression with its prime and optional named
sub-expressions:

    {"prime": 5, "defs": {"m": {"type": "mazur"}},
     "expr": {"type": "regularize", "k": 1, "alpha": "3",
              "expr": {"type": "ref", "name": "m"}}}

`{"type": "ref", "name": ...}` nodes are resolved against "defs" at load
time; unknown or cyclic references are errors.

Expressions nest at most MAX_NESTING levels: the root is at level 1, and
each node, `ref` nodes included, is one level below its parent, so a chain
of references counts as deep as the tree it stands for.  Deeper input, and
JSON nested too deeply for the parser, is refused with ValueError before
any evaluator recurses into it.
"""

from __future__ import annotations

import json
from typing import Any

from .core import (
    ball_from_json,
    ball_to_json,
    format_rational,
    is_int,
    parse_rational,
    path_from_json,
    path_to_json,
    require_prime,
    table_from_json,
)
from .distributions import (
    Bernoulli,
    Branch,
    Dirac,
    DistExpr,
    Graft,
    Haar,
    LinearComb,
    Mazur,
    Regularize,
    Restrict,
)

MAX_NESTING = 100


def expr_to_json(expr: DistExpr) -> dict:
    """The JSON object form of an expression tree."""
    if isinstance(expr, Dirac):
        return {"type": "dirac", "point": format_rational(expr.point)}
    if isinstance(expr, Haar):
        return {"type": "haar", "scale": format_rational(expr.scale)}
    if isinstance(expr, Mazur):
        return {"type": "mazur"}
    if isinstance(expr, Bernoulli):
        return {"type": "bernoulli", "k": expr.k}
    if isinstance(expr, LinearComb):
        return {
            "type": "lincomb",
            "terms": [[format_rational(c), expr_to_json(e)] for c, e in expr.terms],
        }
    if isinstance(expr, Restrict):
        return {
            "type": "restrict",
            "cell": ball_to_json(expr.cell),
            "expr": expr_to_json(expr.expr),
        }
    if isinstance(expr, Regularize):
        return {
            "type": "regularize",
            "k": expr.k,
            "alpha": format_rational(expr.alpha),
            "expr": expr_to_json(expr.expr),
        }
    if isinstance(expr, Graft):
        return {
            "type": "graft",
            "path": path_to_json(expr.path),
            "left": expr_to_json(expr.left),
            "right": expr_to_json(expr.right),
        }
    if isinstance(expr, Branch):
        return {
            "type": "branch",
            "k": expr.k,
            "children": {str(t): expr_to_json(c) for t, c in enumerate(expr.children)},
        }
    raise TypeError(f"not a distribution expression: {type(expr).__name__}")


def _require_keys(obj: dict, kind: str, required: set[str]) -> None:
    missing = required - set(obj)
    extra = set(obj) - required - {"type"}
    if missing or extra:
        raise ValueError(
            f"malformed {kind!r} node: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )


def _int_field(obj: dict, key: str) -> int:
    value = obj[key]
    if not is_int(value):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def expr_from_json(obj: Any, prime: int, defs: dict | None = None) -> DistExpr:
    """Decode an expression object; `defs` supplies named sub-expressions."""
    require_prime(prime)
    return _decode(obj, prime, defs or {}, frozenset(), 1)


def _decode(
    obj: Any, prime: int, defs: dict, resolving: frozenset, level: int
) -> DistExpr:
    if level > MAX_NESTING:
        raise ValueError(f"expression nests deeper than {MAX_NESTING} levels")
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError(f"an expression must be an object with a 'type' field, got {obj!r}")

    def inner(child: Any) -> DistExpr:
        return _decode(child, prime, defs, resolving, level + 1)

    kind = obj["type"]
    if kind == "ref":
        _require_keys(obj, kind, {"name"})
        name = obj["name"]
        if name not in defs:
            raise ValueError(f"reference to undefined name {name!r}")
        if name in resolving:
            raise ValueError(f"cyclic reference through {name!r}")
        return _decode(defs[name], prime, defs, resolving | {name}, level + 1)
    if kind == "dirac":
        _require_keys(obj, kind, {"point"})
        return Dirac(parse_rational(obj["point"]))
    if kind == "haar":
        if set(obj) - {"type", "scale"}:
            _require_keys(obj, kind, {"scale"})
        scale = parse_rational(obj["scale"]) if "scale" in obj else 1
        return Haar(scale)
    if kind == "mazur":
        _require_keys(obj, kind, set())
        return Mazur()
    if kind == "bernoulli":
        _require_keys(obj, kind, {"k"})
        return Bernoulli(_int_field(obj, "k"))
    if kind == "lincomb":
        _require_keys(obj, kind, {"terms"})
        if not isinstance(obj["terms"], list):
            raise ValueError(f"lincomb terms must be a list, got {obj['terms']!r}")
        terms = []
        for item in obj["terms"]:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValueError(f"a lincomb term must be a [coef, expr] pair, got {item!r}")
            terms.append((parse_rational(item[0]), inner(item[1])))
        return LinearComb(tuple(terms))
    if kind == "restrict":
        _require_keys(obj, kind, {"cell", "expr"})
        return Restrict(ball_from_json(obj["cell"], prime), inner(obj["expr"]))
    if kind == "regularize":
        _require_keys(obj, kind, {"k", "alpha", "expr"})
        return Regularize(
            _int_field(obj, "k"), parse_rational(obj["alpha"]), inner(obj["expr"])
        )
    if kind == "graft":
        _require_keys(obj, kind, {"path", "left", "right"})
        return Graft(path_from_json(obj["path"], prime), inner(obj["left"]), inner(obj["right"]))
    if kind == "branch":
        _require_keys(obj, kind, {"k", "children"})
        children = tuple(inner(c) for c in table_from_json(obj["children"], "branch children"))
        return Branch(_int_field(obj, "k"), children)
    raise ValueError(f"unknown expression type {kind!r}")


# =====================================================================
# Spec documents
# =====================================================================

def load_document(obj: dict, cli_prime: int | None = None) -> tuple[int, DistExpr]:
    """Decode {"prime": ..., "expr": ..., "defs": {...}} into (prime, expr).

    The prime must be supplied by the document or by `cli_prime`; when both
    are present they must agree.  It is never inferred from the expression.
    """
    if not isinstance(obj, dict):
        raise ValueError("a spec document must be a JSON object")
    extra = set(obj) - {"prime", "expr", "defs"}
    if extra or "expr" not in obj:
        raise ValueError(
            f"a spec document needs 'expr' plus optional 'prime'/'defs'; got keys {sorted(obj)}"
        )
    doc_prime = obj.get("prime")
    if doc_prime is None and cli_prime is None:
        raise ValueError("no prime given: pass --prime or add a 'prime' field")
    if doc_prime is not None and cli_prime is not None and doc_prime != cli_prime:
        raise ValueError(f"prime mismatch: document says {doc_prime}, flag says {cli_prime}")
    prime = require_prime(doc_prime if doc_prime is not None else cli_prime)
    defs = obj.get("defs", {})
    if not isinstance(defs, dict):
        raise ValueError("'defs' must be an object of named expressions")
    return prime, expr_from_json(obj["expr"], prime, defs)


def load_json_file(path: str) -> Any:
    """Parse a JSON file; malformed or too deeply nested JSON is a ValueError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from None
        except RecursionError:
            raise ValueError(
                f"JSON in {path} nests too deeply to parse "
                f"(expressions nest at most {MAX_NESTING} levels)"
            ) from None


def load_document_file(path: str, cli_prime: int | None = None) -> tuple[int, DistExpr]:
    return load_document(load_json_file(path), cli_prime)


def dump_document(prime: int, expr: DistExpr) -> dict:
    require_prime(prime)
    return {"prime": prime, "expr": expr_to_json(expr)}
