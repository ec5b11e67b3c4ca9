"""File formats for the command line: flat documents and point-cloud CSV.

A flat document is a single-line JSON object

    {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1.0], "orthogonal": true}

where ``A`` holds the basis vectors as rows (k rows of n entries) and ``b``
the displacement.  ``orthogonal`` marks coordinates already in canonical
orthogonal affine form; without it the document is canonicalized through
``make_flat``.  All floats are printed with 17 significant digits so that
documents round-trip bit-exactly.  ``dumps_document`` takes numpy arrays and
scalars as they are; ``dumps_flats`` writes the same bytes for many flats of
one shape at once.

A cloud document is a CSV file with one point per row and an optional
header; for labeled data the final column holds the labels.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

from ._plain import fmt_float
from .coords import AffineFlat, make_flat
from .errors import DimensionError, _check_int

__all__ = [
    "fmt_float",
    "dumps_document",
    "flat_to_document",
    "dumps_flats",
    "flat_from_document",
    "matrix_document",
    "load_cloud_csv",
]


def dumps_document(obj) -> str:
    """One JSON line, numpy values written as their ``tolist()`` (nan, ±inf: ValueError)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"{obj} is not a JSON number")
        return fmt_float(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(key)}: {dumps_document(value)}" for key, value in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_document(value) for value in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def flat_to_document(flat: AffineFlat) -> dict:
    """Flat document for a flat; basis vectors become rows."""
    return {"n": flat.n, "k": flat.k, "A": flat.A.T.tolist(), "b": flat.b0.tolist(),
            "orthogonal": True}


def dumps_flats(flats) -> str:
    """The documents of flats of one (k, n), each ``dumps_document(flat_to_document(f))``
    and a newline.

    The line template, fmt_float's ``%.17g`` in each place of a number, is built
    once and filled with all the values at once; nan and +-inf raise the
    ``ValueError`` that ``dumps_document`` raises for the first of them.
    """
    if not flats:
        return ""
    n, k = flats[0].n, flats[0].k
    values = np.concatenate([np.stack([f.A.T for f in flats]).reshape(len(flats), k * n),
                             np.stack([f.b0 for f in flats])], axis=1)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{float(values[~finite][0])} is not a JSON number")
    row = "[" + ", ".join(["%.17g"] * n) + "]"
    template = (f'{{"n": {n}, "k": {k}, "A": [{", ".join([row] * k)}], "b": {row}, '
                '"orthogonal": true}\n')
    return (template * len(flats)) % tuple(values.ravel().tolist())


def flat_from_document(doc) -> AffineFlat:
    """Parse a flat document (a dict or a JSON string) into a flat."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("flat document must be a JSON object")
    try:
        n = _check_int(doc["n"], "n", 1)
        k = _check_int(doc["k"], "k", 0)
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
    return {"rows": M.shape[0], "cols": M.shape[1], "data": M.tolist()}


def load_cloud_csv(path) -> np.ndarray:
    """Read a rectangular numeric CSV, skipping one header row if present.

    The first row that is not blank is the header unless every cell of it is a
    number, and the first data row sets the width.  The data rows are read by
    one ``np.loadtxt``; input it refuses, such as blank rows among the data,
    quoted cells, ``1_0`` or a ragged row, is read row by row from the rest of
    the same csv reader, which accepts what ``float`` accepts and numbers the
    rows in its messages.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        lines = handle.readlines()
    reader = csv.reader(lines)
    rows = _rows(path, reader)
    first = next(rows, None)
    if first is None:
        raise ValueError(f"{path}: empty cloud file")
    try:
        [float(cell) for cell in first]
        data, rows, start = lines, itertools.chain([first], rows), 1
    except ValueError:  # the header
        data, start = lines[reader.line_num:], 2
    if not any(line.strip() for line in data):  # np.loadtxt warns on empty input
        raise ValueError(f"{path}: no data rows")
    try:
        return np.loadtxt(data, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return _read_rows(path, rows, start)


def _rows(path, reader):
    """The rows of ``reader`` that are not blank; ``csv.Error`` (a long field) as ValueError."""
    try:
        yield from (row for row in reader if any(cell.strip() for cell in row))
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_rows(path, rows, start: int) -> np.ndarray:
    """``load_cloud_csv`` one row at a time, through ``float``: ``rows`` are the data rows that
    are not blank, numbered from ``start``; the first of them sets the width."""
    data = []
    for index, row in enumerate(rows, start=start):
        if data and len(row) != len(data[0]):
            raise ValueError(f"{path}: row {index} has {len(row)} fields, expected {len(data[0])}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValueError(f"{path}: row {index}: {exc}") from None
    if not data:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(data, dtype=float)
