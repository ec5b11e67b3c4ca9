"""The CLI's bulk document paths against their one-at-a-time references."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graff import AffineFlat, io, make_flat, random_stream, sample_uniform
from graff.coords import _trusted
from graff.io import dumps_document, dumps_flats, flat_to_document, load_cloud_csv


def _one_at_a_time(flats) -> str:
    return "".join(dumps_document(flat_to_document(flat)) + "\n" for flat in flats)


class TestDumpsFlats:
    @pytest.mark.parametrize("k, n", [(0, 3), (1, 2), (2, 5), (4, 12)])
    def test_random_flats(self, k, n):
        rng = random_stream(k + 10 * n)
        flats = [sample_uniform(k, n, rng) for _ in range(300)]
        assert dumps_flats(flats) == _one_at_a_time(flats)

    @pytest.mark.parametrize("flats", [
        [AffineFlat(np.zeros((3, 0)), [0.0, -0.0, 5e-324]),
         AffineFlat(np.zeros((3, 0)), [1e300, -2.0, 0.5])],
        [make_flat([[1.0], [1.0], [0.0]], [3e300, -1e300, 1e300])],
        [AffineFlat([[1.0], [-0.0], [0.0]], [-0.0, 2.2250738585072014e-308, -5e-324])],
        [AffineFlat([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [0.0, 0.0, -1e300])],
    ], ids=["points", "b0-1e300", "negative-zero-and-subnormal", "plane"])
    def test_edge_values(self, flats):
        assert dumps_flats(flats) == _one_at_a_time(flats)

    def test_no_flats(self):
        assert dumps_flats([]) == ""

    @pytest.mark.parametrize("A, b0", [
        ([[1.0], [0.0]], [0.0, math.nan]),
        ([[1.0], [0.0]], [math.inf, 0.0]),
        ([[-math.inf], [0.0]], [0.0, math.nan]),
        (np.zeros((2, 0)), [-math.inf, math.nan]),
    ], ids=["nan", "inf", "A-before-b", "point"])
    def test_non_finite_entries_raise_as_dumps_document_does(self, A, b0):
        good = AffineFlat([[1.0], [0.0]], [0.0, 1.0]) if len(A[0]) else AffineFlat(A, [1.0, 2.0])
        bad = _trusted(AffineFlat, A=np.array(A, dtype=float), b0=np.array(b0))
        with pytest.raises(ValueError) as expected:
            dumps_document(flat_to_document(bad))
        with pytest.raises(ValueError) as info:
            dumps_flats([good, bad])
        assert str(info.value) == str(expected.value)


def _row_by_row(path):
    """The cloud reader before the bulk parse, one csv row and one float at a time."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = [row for row in csv.reader(handle) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{path}: empty cloud file")
    data = []
    for index, row in enumerate(rows, start=1):
        if data and len(row) != len(data[0]):
            raise ValueError(f"{path}: row {index} has {len(row)} fields, expected {len(data[0])}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            if index > 1:
                raise ValueError(f"{path}: row {index}: {exc}") from None
    if not data:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(data, dtype=float)


def _outcome(read, path):
    try:
        data = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return data.shape, data.dtype, data.tobytes(), data.flags.c_contiguous


# (text, bulk): bulk marks the files np.loadtxt reads whole; the others fall back
# to the row-by-row loop, or are refused before either.
CLOUDS = {
    "header": ("x,y,z\n1,2,3\n4,5,6.5\n", True),
    "no-header": ("1,2,3\n4,5,6.5\n", True),
    "byte-order-mark": ("\ufeff1,2\n3,4\n", True),
    "byte-order-mark-header": ("\ufeffx,y\n1,2\n3,4\n", True),
    "crlf": ("x,y\r\n1,2\r\n3,4\r\n", True),
    "cr": ("1,2\r3,4\r", True),
    "blank-rows": ("\n1,2\n\n3,4\n\n", True),
    "whitespace-rows": ("1,2\n   \n3,4\n\t\n", False),
    "blank-cells-row": ("x,y\n1,2\n , \n3,4\n", False),
    "hash-row": ("1,2\n#3,4\n", False),
    "hash-header": ("#x,y\n1,2\n", True),
    "quoted-cells": ('"1","2"\n3,"4"\n', False),
    "underscore": ("1_0,2\n3,4\n", False),
    "nan": ("nan,1\n2,NaN\n", True),
    "minus-infinity": ("-Infinity,1\n2,inf\n", True),
    "past-the-floats": ("1e500,1\n2,-1e500\n", True),
    "one-column": ("1\n2\n3\n", True),
    "one-row": ("x,y\n1,2\n", True),
    "header-only": ("x,y\n", False),
    "header-and-blank-rows": ("x,y\n\n  \n", False),
    "empty": ("", False),
    "blank-file": ("\n , \n", False),
    "ragged": ("1,2\n3\n", False),
    "ragged-after-header": ("x,y\n1,2\n\n3,4,5\n", False),
    "trailing-comma": ("1,2,\n3,4,\n", False),
    "word-in-data": ("x,y\n1,2\n3,abc\n", False),
    "not-utf-8": (b"1,2\n\xff,3\n", False),
}


@pytest.mark.parametrize("name", list(CLOUDS))
def test_cloud_reader_matches_the_row_by_row_loop(tmp_path, monkeypatch, name):
    text, bulk = CLOUDS[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    expected = _outcome(_row_by_row, path)
    if bulk:
        monkeypatch.setattr(io, "_read_rows", lambda *args: pytest.fail("read row by row"))
    assert _outcome(load_cloud_csv, path) == expected


def test_row_numbers_count_the_rows_that_are_not_blank(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("x,y\n1,2\n\n3,4,5\n")
    with pytest.raises(ValueError, match=r"row 3 has 3 fields, expected 2$"):
        load_cloud_csv(path)


_CELLS = ["1", "-2.5", " 3 ", "1e500", "-Infinity", "nan", "1_0", '"4"', "#5", "", " ", "x",
          "\t6", "7\x0c", "\xa08", "١", "0x1", "+.5", "5e-324", "-0", "inf", "nan(1)", '"1,2"']


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.lists(st.lists(st.one_of(st.sampled_from(_CELLS), st.floats().map(repr)),
                              max_size=4), max_size=6),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=6, max_size=6),
       mark=st.booleans())
def test_fuzzed_clouds_read_as_the_row_by_row_loop(tmp_path_factory, rows, ends, mark):
    path = tmp_path_factory.mktemp("clouds") / "cloud.csv"
    text = "".join(",".join(row) + end for row, end in zip(rows, ends))
    path.write_bytes((("\ufeff" if mark else "") + text).encode())
    assert _outcome(load_cloud_csv, path) == _outcome(_row_by_row, path)
