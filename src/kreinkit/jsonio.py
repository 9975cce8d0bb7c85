"""JSON file formats for matrices and relations.

Matrix files: ``{"rows": n, "cols": m, "data": [[...], ...]}`` with
row-major nested lists.  Relation files: ``{"dim": n, "generators":
[{"f": [...], "fp": [...]}, ...]}``.  ``-`` reads stdin.  Floats are
emitted with Python's shortest round-trip representation, so every dumped
document re-parses to the exact in-memory values.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import InvalidInput
from .relations import LinearRelation
from .spectral import as_matrix
from .tolerances import ToleranceProfile

__all__ = [
    "load_json",
    "load_matrix",
    "load_relation",
    "matrix_document",
    "relation_document",
    "parse_matrix",
    "parse_relation",
]


def load_json(path: str):
    """Read a JSON document from a file path or stdin (``-``)."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc


def parse_matrix(doc) -> np.ndarray:
    if not isinstance(doc, dict) or not {"rows", "cols", "data"} <= set(doc):
        raise InvalidInput("matrix document needs 'rows', 'cols', and 'data'")
    rows, cols = doc["rows"], doc["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows >= 0 and cols >= 0):
        raise InvalidInput("matrix dimensions must be nonnegative integers")
    data = doc["data"]
    if len(data) != rows or any(len(row) != cols for row in data):
        raise InvalidInput(
            f"matrix data has wrong shape for a {rows} x {cols} matrix"
        )
    try:
        arr = np.array(data, dtype=float).reshape(rows, cols)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"matrix data is not numeric: {exc}") from exc
    return as_matrix(arr)


def load_matrix(path: str) -> np.ndarray:
    return parse_matrix(load_json(path))


def parse_relation(doc, tol: ToleranceProfile | None = None) -> LinearRelation:
    """The relation spanned by a document's generators, their rank cut under ``tol``."""
    if not isinstance(doc, dict) or not {"dim", "generators"} <= set(doc):
        raise InvalidInput("relation document needs 'dim' and 'generators'")
    dim = doc["dim"]
    if not (isinstance(dim, int) and dim >= 0):
        raise InvalidInput("relation dimension must be a nonnegative integer")
    gens = doc["generators"]
    if not isinstance(gens, list):
        raise InvalidInput("'generators' must be a list")
    f_cols = []
    fp_cols = []
    for item in gens:
        if not isinstance(item, dict) or not {"f", "fp"} <= set(item):
            raise InvalidInput("each generator needs 'f' and 'fp' vectors")
        if len(item["f"]) != dim or len(item["fp"]) != dim:
            raise InvalidInput(f"generator vectors must have length {dim}")
        f_cols.append(item["f"])
        fp_cols.append(item["fp"])
    try:
        f = np.array(f_cols, dtype=float).T.reshape(dim, len(gens))
        fp = np.array(fp_cols, dtype=float).T.reshape(dim, len(gens))
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"generator data is not numeric: {exc}") from exc
    if f.size and not (np.all(np.isfinite(f)) and np.all(np.isfinite(fp))):
        raise InvalidInput("generator vectors have non-finite entries")
    return LinearRelation.from_generators(f, fp, tol)


def load_relation(path: str, tol: ToleranceProfile | None = None) -> LinearRelation:
    return parse_relation(load_json(path), tol)


def matrix_document(m) -> dict:
    arr = as_matrix(m)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": [[float(x) for x in row] for row in arr],
    }


def relation_document(rel: LinearRelation) -> dict:
    generators = []
    for i in range(rel.graph_dim):
        generators.append({
            "f": [float(x) for x in rel.first[:, i]],
            "fp": [float(x) for x in rel.second[:, i]],
        })
    return {"dim": int(rel.space_dim), "generators": generators}
