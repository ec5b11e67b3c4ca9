"""File formats for the command line: flat documents and point-cloud CSV.

A flat document is a single-line JSON object

    {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1.0], "orthogonal": true}

where ``A`` holds the basis vectors as rows (k rows of n entries) and ``b``
the displacement.  ``orthogonal`` marks coordinates already in canonical
orthogonal affine form; without it the document is canonicalized through
``make_flat``.  All floats are printed with 17 significant digits so that
documents round-trip bit-exactly.

A cloud document is a CSV file with one point per row and an optional
header; for labeled data the final column holds the labels.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .coords import AffineFlat, make_flat
from .errors import DimensionError
from .invariants import _check_int

__all__ = [
    "fmt_float",
    "dumps_document",
    "flat_to_document",
    "flat_from_document",
    "matrix_document",
    "load_cloud_csv",
]


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trips exactly)."""
    return format(float(x), ".17g")


def dumps_document(obj) -> str:
    """Serialize a document as single-line JSON with 17-digit floats."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(key)}: {dumps_document(value)}" for key, value in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps_document(value) for value in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def flat_to_document(flat: AffineFlat) -> dict:
    """Flat document for a flat; basis vectors become rows."""
    return {
        "n": flat.n,
        "k": flat.k,
        "A": [[float(x) for x in row] for row in flat.A.T],
        "b": [float(x) for x in flat.b0],
        "orthogonal": True,
    }


def flat_from_document(doc) -> AffineFlat:
    """Parse a flat document (a dict or a JSON string) into a flat."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("flat document must be a JSON object")
    try:
        n = _check_int(doc["n"], "n")
        k = _check_int(doc["k"], "k")
        rows = doc["A"]
        b = np.asarray(doc["b"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"flat document is missing or malforms field: {exc}") from exc
    A = np.asarray(rows, dtype=float)
    if A.size == 0:  # a point's A is written []
        A = A.reshape(0, n)
    if A.shape != (k, n):
        raise DimensionError(f"A must be {k} rows of {n} entries, got shape {A.shape}")
    if b.shape != (n,):
        raise DimensionError(f"b must have length {n}, got {b.shape}")
    if doc.get("orthogonal"):
        return AffineFlat(A.T, b)
    return make_flat(A.T, b)


def matrix_document(M: np.ndarray) -> dict:
    """Document wrapping a dense matrix, row-major."""
    M = np.asarray(M, dtype=float)
    return {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "data": [[float(x) for x in row] for row in M],
    }


def load_cloud_csv(path) -> np.ndarray:
    """Read a rectangular numeric CSV, skipping one header row if present."""
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{path}: empty cloud file")
    start = 0
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        start = 1
    if start == len(rows):
        raise ValueError(f"{path}: no data rows")
    width = len(rows[start])
    data = []
    for index, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise ValueError(f"{path}: row {index} has {len(row)} fields, expected {width}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValueError(f"{path}: row {index}: {exc}") from None
    return np.asarray(data, dtype=float)
