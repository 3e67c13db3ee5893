"""JSON encoding of distribution expressions and spec documents.

An expression is a JSON object whose "type" names the node and whose other
keys are the node constructor's field names, in field order, e.g.

    {"type": "dirac", "point": "-7/8"}
    {"type": "branch", "k": 1, "children": {"0": {...}, "1": {...}, "2": {...}}}

Each kind of field has one JSON form, whichever node carries it (`_CODECS`,
keyed by the kinds of each node class's field table `_fields`): rationals (point, scale,
alpha) are "num/den" strings, "num" when the denominator is 1; k is an
integer; a cell is {"a": ..., "n": ...}; a path is {"preperiod": [...],
"period": [...]}; a sub-expression (expr, left, right) is an expression
object; terms are [coef, expr] pairs; children are an object keyed "0",
"1", ....  A field with a default (Haar's scale) may be left out.  A new
node type whose fields reuse these kinds needs only an entry in `_TYPES`.

A spec document wraps one expression with its prime and optional named
sub-expressions:

    {"prime": 5, "defs": {"m": {"type": "mazur"}},
     "expr": {"type": "regularize", "k": 1, "alpha": "3",
              "expr": {"type": "ref", "name": "m"}}}

`{"type": "ref", "name": ...}` nodes are resolved against "defs" at load
time; unknown or cyclic references are errors.  Each def is decoded once,
and every `ref` to it is the same object, so a spec that names a
sub-expression and uses it many times decodes in time linear in its size.

Expressions nest at most MAX_NESTING levels: the root is at level 1, and
each node, `ref` nodes included, is one level below its parent, so a chain
of references counts as deep as the tree it stands for: a `ref` at level L
to a def of height h reaches level L + h.  Deeper input, and JSON nested
too deeply for the parser, is refused with ValueError before any evaluator
recurses into it.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from .core import (
    NO_DEFAULT,
    ball_from_json,
    ball_to_json,
    format_rational,
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

_TYPES = {
    "dirac": Dirac,
    "haar": Haar,
    "mazur": Mazur,
    "bernoulli": Bernoulli,
    "lincomb": LinearComb,
    "restrict": Restrict,
    "regularize": Regularize,
    "graft": Graft,
    "branch": Branch,
}


def _terms_from_json(terms: Any, prime: int, inner: Callable) -> tuple:
    if not isinstance(terms, list):
        raise ValueError(f"lincomb terms must be a list, got {terms!r}")
    decoded = []
    for item in terms:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"a lincomb term must be a [coef, expr] pair, got {item!r}")
        decoded.append((parse_rational(item[0]), inner(item[1])))
    return tuple(decoded)


# Field kind -> (encode(value), decode(obj, prime, inner)), inner decoding a
# sub-expression one level down.  k is checked by the node constructors.
_CODECS = {
    "rational": (format_rational, lambda obj, prime, inner: parse_rational(obj)),
    "int": (lambda k: k, lambda obj, prime, inner: obj),
    "ball": (ball_to_json, lambda obj, prime, inner: ball_from_json(obj, prime)),
    "path": (path_to_json, lambda obj, prime, inner: path_from_json(obj, prime)),
    "expr": (lambda e: expr_to_json(e), lambda obj, prime, inner: inner(obj)),
    "terms": (
        lambda terms: [[format_rational(c), expr_to_json(e)] for c, e in terms],
        _terms_from_json,
    ),
    "children": (
        lambda children: {str(t): expr_to_json(c) for t, c in enumerate(children)},
        lambda obj, prime, inner: tuple(map(inner, table_from_json(obj, "branch children"))),
    ),
}

# Class -> (JSON name, its fields' (name, encode, decode) in field order,
# the keys its object may have, the keys it must have: "type" and every
# field without a default), precomputed once.
_SCHEMA = {
    cls: (
        name,
        tuple((key, *_CODECS[kind]) for key, kind, _ in cls._fields),
        {"type"}.union(key for key, _, _ in cls._fields),
        {"type"}.union(key for key, _, default in cls._fields if default is NO_DEFAULT),
    )
    for name, cls in _TYPES.items()
}


def expr_to_json(expr: DistExpr) -> dict:
    """The JSON object form of an expression tree."""
    schema = _SCHEMA.get(type(expr))
    if schema is None:
        raise TypeError(f"not a distribution expression: {type(expr).__name__}")
    name, codecs, _, _ = schema
    obj = {"type": name}
    for key, encode, _ in codecs:
        obj[key] = encode(getattr(expr, key))
    return obj


def expr_from_json(obj: Any, prime: int, defs: dict | None = None) -> DistExpr:
    """Decode an expression object; `defs` supplies named sub-expressions."""
    require_prime(prime)
    return _decode(obj, prime, defs or {}, {}, frozenset(), 1, [1])


def _decode(
    obj: Any,
    prime: int,
    defs: dict,
    decoded: dict,
    resolving: frozenset,
    level: int,
    deepest: list[int],
) -> DistExpr:
    # `decoded` maps each def decoded so far to (expression, height),
    # `resolving` holds the defs being decoded, and deepest[0] is the
    # deepest level reached so far, which gives a def its height.
    if level > MAX_NESTING:
        raise ValueError(f"expression nests deeper than {MAX_NESTING} levels")
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError(f"an expression must be an object with a 'type' field, got {obj!r}")
    if level > deepest[0]:
        deepest[0] = level

    def inner(child: Any) -> DistExpr:
        return _decode(child, prime, defs, decoded, resolving, level + 1, deepest)

    kind = obj["type"]
    if kind == "ref":
        if obj.keys() != {"type", "name"}:
            raise ValueError(f"malformed 'ref' node: needs exactly 'name', got {sorted(obj)}")
        name = obj["name"]
        if not isinstance(name, str) or name not in defs:
            raise ValueError(f"reference to undefined name {name!r}")
        if name not in decoded:
            if name in resolving:
                raise ValueError(f"cyclic reference through {name!r}")
            # Decoded where it is first met, so the cap still bounds the
            # recursion; a later ref checks the def's height instead.
            outer, deepest[0] = deepest[0], level
            expr = _decode(
                defs[name], prime, defs, decoded, resolving | {name}, level + 1, deepest
            )
            decoded[name] = expr, deepest[0] - level
            deepest[0] = max(outer, deepest[0])
        expr, height = decoded[name]
        if level + height > MAX_NESTING:
            raise ValueError(f"expression nests deeper than {MAX_NESTING} levels")
        deepest[0] = max(deepest[0], level + height)
        return expr
    # A non-string type is unknown, not unhashable.
    cls = _TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown expression type {kind!r}")
    _, codecs, allowed, required = _SCHEMA[cls]
    if not required <= obj.keys() <= allowed:
        missing, extra = required - obj.keys(), obj.keys() - allowed
        raise ValueError(
            f"malformed {kind!r} node: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    # Fields decode in declaration order, so the error reported for a node
    # with several bad fields does not depend on set iteration order.
    return cls(**{key: decode(obj[key], prime, inner) for key, _, decode in codecs if key in obj})


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
