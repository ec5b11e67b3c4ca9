import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graff
from graff import _lapack, cli
from graff.cli import main
from graff.io import flat_from_document, fmt_float

from conftest import CountingStream, horizontal_line, x_axis

X_AXIS_DOC = {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 0.0]}
LINE_Y1_DOC = {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1.0]}
LINE_Y2_DOC = {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 2.0]}
POINT_DOC = {"n": 2, "k": 0, "A": [], "b": [0.0, 1.0]}
Y_AXIS_DOC = {"n": 2, "k": 1, "A": [[0.0, 1.0]], "b": [0.0, 0.0]}
# The thread counts the process entries pin where unset, as perfbench/run.py does.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


@pytest.fixture
def write_doc(tmp_path):
    counter = iter(range(1000))

    def _write(doc) -> str:
        path = tmp_path / f"flat{next(counter)}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


class _WriteLog:
    """A stdout that keeps each write as ``(when(), text)``, ``when`` read at the write."""

    def __init__(self, when=lambda: None):
        self.when, self.writes = when, []

    def write(self, text):
        self.writes.append((self.when(), text))


def run_cli(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    def test_stiefel_golden(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "convert", write_doc(X_AXIS_DOC), "--to", "stiefel")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == 3 and doc["cols"] == 2
        np.testing.assert_allclose(doc["data"], [[1, 0], [0, 0], [0, 1]], atol=1e-15)

    def test_projection_round_trips(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "convert", write_doc(LINE_Y1_DOC), "--to", "projection")
        assert code == 0
        P = np.asarray(json.loads(out)["data"])
        rebuilt = graff.flat_from_projection(P)
        assert graff.equal_flats(rebuilt, horizontal_line(1.0), 1e-10)

    def test_projection_affine_shape(self, capsys, write_doc):
        code, out, _ = run_cli(
            capsys, "convert", write_doc(POINT_DOC), "--to", "projection-affine"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == 2 and doc["cols"] == 3
        np.testing.assert_allclose(doc["data"], [[0, 0, 0], [0, 0, 1]], atol=1e-15)

    @pytest.mark.parametrize("doc", [
        {"n": 2, "k": 1, "A": [[1], [0]], "b": [0.0, 0.0]},  # the basis as a column
        {"n": 2, "k": 1, "A": [1, 0], "b": [0.0, 0.0]},  # a flat list
        {"n": 2, "k": 0, "A": [[5, 5]], "b": [0.0, 0.0]},  # a point with a basis row
    ])
    def test_misshapen_basis_exits_2(self, capsys, write_doc, doc):
        with pytest.raises(graff.DimensionError):
            flat_from_document(doc)
        code, out, err = run_cli(capsys, "convert", write_doc(doc), "--to", "stiefel")
        assert (code, out) == (2, "")
        assert err.startswith("DimensionError: A must be")

    def test_non_integer_dimension_exits_2(self, capsys, write_doc):
        doc = {"n": 2.9, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1.0]}
        with pytest.raises(graff.DimensionError, match="integer"):
            flat_from_document(doc)
        code, out, err = run_cli(capsys, "convert", write_doc(doc), "--to", "stiefel")
        assert (code, out) == (2, "")
        assert err == "DimensionError: n must be an integer >= 1, got 2.9\n"

    def test_infinite_dimension_exits_2(self, capsys, write_doc):
        doc = {"n": math.inf, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1.0]}
        path = write_doc(doc)
        assert '"n": Infinity' in open(path).read()
        with pytest.raises(graff.DimensionError, match="integer"):
            flat_from_document(doc)
        code, out, err = run_cli(capsys, "convert", path, "--to", "stiefel")
        assert (code, out) == (2, "")
        assert err == "DimensionError: n must be an integer >= 1, got inf\n"

    def test_huge_displacement_projection_affine_is_quiet(self, capsys, write_doc):
        doc = {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1e200], "orthogonal": True}
        code, out, err = run_cli(capsys, "convert", write_doc(doc), "--to", "projection-affine")
        assert (code, err) == (0, "")
        assert json.loads(out)["data"] == [[1.0, 0.0, 0.0], [0.0, 0.0, 1e200]]

    def test_far_flat_projection_exits_2_blaming_the_distance(self, capsys, write_doc):
        """Past |b0| ~ 1e162 the corner 1/(1 + |b0|^2) is 0: the flat is valid but too far."""
        message = ("corner entry 1/(1 + |b0|^2) underflows: the flat is too far from the "
                   "origin (|b0| beyond about 1e154) for projection coordinates")
        with pytest.raises(ValueError) as refused:
            graff.projection_coords(graff.make_flat([1.0, 0.0], [0.0, 1e200]))
        assert str(refused.value) == message
        far = write_doc({"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1e200]})
        assert run_cli(capsys, "convert", far, "--to", "projection") == (
            2, "", f"ValueError: {message}\n")

    def test_degenerate_basis_exits_2(self, capsys, write_doc):
        bad = {"n": 3, "k": 2, "A": [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "b": [0.0, 0.0, 0.0]}
        code, _, err = run_cli(capsys, "convert", write_doc(bad), "--to", "stiefel")
        assert code == 2
        assert "RankDeficient" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "convert", str(tmp_path / "nope.json"), "--to", "stiefel")
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "ValueError: flat document must be a JSON object"),
        ('{"n": 2, "k": 1, "A": [[1.0, 0.0]]}',
         "ValueError: flat document is missing or malforms field: 'b'"),
        ('{"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0, 0, 0]}',
         "DimensionError: b must have length 2, got (3,)"),
        ('{"n": 3, "k": -1, "A": [], "b": [0, 1, 0]}',
         "DimensionError: k must be an integer >= 0, got -1"),
        ('{"n": -2, "k": 0, "A": [], "b": []}',
         "DimensionError: n must be an integer >= 1, got -2"),
        ('{"n": true, "k": false, "A": [], "b": [0]}',
         "DimensionError: n must be an integer >= 1, got True"),
        ('{"n": 2, "k": true, "A": [[1.0, 0.0]], "b": [0, 1]}',
         "DimensionError: k must be an integer >= 0, got True"),
    ])
    def test_malformed_document_exits_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "flat.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "convert", str(path), "--to", "stiefel")
        assert (code, out, err) == (2, "", message + "\n")


class TestDistance:
    def test_golden_grassmann(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "distance", write_doc(X_AXIS_DOC), write_doc(LINE_Y1_DOC))
        assert code == 0
        assert out.strip() == "0.78539816339744839"
        assert float(out) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_kind_choices_are_the_distance_kinds_in_order(self, capsys):
        code, _, err = run_cli(capsys, "distance", "a.json", "b.json", "--kind", "bogus")
        assert code == 2
        listed = err[err.index("choose from"):]
        positions = [listed.index(kind.value) for kind in graff.DistanceKind]
        assert positions == sorted(positions)

    def test_mixed_dimensions_use_delta(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "distance", write_doc(POINT_DOC), write_doc(X_AXIS_DOC))
        assert code == 0
        assert float(out) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_martin_divergence_prints_inf(self, capsys, write_doc):
        code, out, _ = run_cli(
            capsys, "distance", write_doc(X_AXIS_DOC), write_doc(Y_AXIS_DOC), "--kind", "martin"
        )
        assert code == 0
        assert out.strip() == "inf"

    def test_verbose_prints_angles(self, capsys, write_doc):
        code, out, _ = run_cli(
            capsys, "distance", write_doc(X_AXIS_DOC), write_doc(LINE_Y1_DOC), "--verbose"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        angles = json.loads(lines[0])["angles"]
        np.testing.assert_allclose(angles, [0.0, math.pi / 4], atol=1e-12)

    def test_huge_displacement_exits_cleanly(self, write_doc):
        huge = write_doc({"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1e200]})
        result = subprocess.run(
            [sys.executable, "-m", "graff", "distance", huge, write_doc(LINE_Y1_DOC), "--verbose"],
            capture_output=True, text=True, check=False,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines()[-1] == "0.78539816339744839"

    def test_infinite_flag(self, capsys, write_doc):
        code, out, _ = run_cli(
            capsys, "distance", write_doc(POINT_DOC), write_doc(X_AXIS_DOC), "--infinite"
        )
        assert code == 0
        assert float(out) == pytest.approx(math.pi / 4 * math.sqrt(5), abs=1e-12)


class TestGeodesic:
    def test_endpoints_reproduce_inputs(self, capsys, write_doc):
        code, out, _ = run_cli(
            capsys, "geodesic", write_doc(X_AXIS_DOC), write_doc(LINE_Y1_DOC),
            "--t", "0", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert graff.equal_flats(flat_from_document(lines[0]), x_axis(), 1e-8)
        assert graff.equal_flats(flat_from_document(lines[1]), horizontal_line(1.0), 1e-8)

    def test_midpoint_height(self, capsys, write_doc):
        code, out, _ = run_cli(
            capsys, "geodesic", write_doc(X_AXIS_DOC), write_doc(LINE_Y1_DOC), "--t", "0.5"
        )
        assert code == 0
        flat = flat_from_document(out)
        assert flat.b0[1] == pytest.approx(math.tan(math.pi / 8), abs=1e-10)

    @pytest.mark.parametrize("t", [["inf"], ["0", "inf"]])
    def test_infinite_parameter_exits_2_with_one_line(self, capsys, write_doc, t):
        """The points before the failing t are printed."""
        code, out, err = run_cli(
            capsys, "geodesic", write_doc(X_AXIS_DOC), write_doc(LINE_Y1_DOC), "--t", *t
        )
        assert (code, len(out.splitlines())) == (2, len(t) - 1)
        assert all(graff.equal_flats(flat_from_document(line), x_axis(), 1e-8)
                   for line in out.splitlines())
        assert err == "ValueError: geodesic parameter t=inf gives a non-finite angle\n"

    @pytest.mark.parametrize("bad", [None, 4500])
    def test_points_are_written_in_blocks_of_4096(self, monkeypatch, write_doc, bad):
        # 5000 points of a line pair: one write of 4096 and one of 904.  A non-finite t at
        # index 4500 writes the 4500 points before it, 4096 and 404, then one stderr line.
        t = [repr(i / 4999) for i in range(5000)]
        argv = ["geodesic", write_doc(X_AXIS_DOC), write_doc(LINE_Y1_DOC), "--t"]
        out = _WriteLog()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv + t) == 0
        full = [text for _, text in out.writes]
        assert [text.count("\n") for text in full] == [4096, 904]
        if bad is None:
            return
        t[bad], out.writes = "inf", []
        monkeypatch.setattr(sys, "stderr", out)
        code = main(argv + t)
        monkeypatch.undo()
        texts = [text for _, text in out.writes]
        assert code == 2
        assert [text.count("\n") for text in texts[:2]] == [4096, 404]
        assert "".join(texts[:2]) == "".join("".join(full).splitlines(keepends=True)[:bad])
        assert "".join(texts[2:]) == ("ValueError: geodesic parameter t=inf gives a non-finite"
                                      " angle\n")

    def test_singular_pair_exits_3(self, capsys, write_doc):
        vertical = {"n": 2, "k": 1, "A": [[0.0, 1.0]], "b": [5.0, 0.0]}
        code, _, err = run_cli(
            capsys, "geodesic", write_doc(X_AXIS_DOC), write_doc(vertical), "--t", "0.5"
        )
        assert code == 3
        assert "SingularPair" in err


class TestInvariant:
    @pytest.mark.parametrize(
        "args,expected",
        [
            (("dim", "1", "3"), "4"),
            (("dim", "0", "7"), "7"),
            (("schubert-dim", "2"), "2"),
            (("betti", "2", "4"), "3"),
            (("homotopy", "1", "2", "1"), "Z"),
            (("homotopy", "1", "4", "1"), "Z2"),
            (("homotopy", "3", "inf", "4"), "Z"),
            (("homotopy", "2", "5", "4"), "unknown"),
            (("homotopy", str(2**59), str(2**60 + 1), "1"), "Z2"),
            (("homotopy", "1", str(10**400), "3"), "trivial"),
        ],
    )
    def test_integer_and_tag_outputs(self, capsys, args, expected):
        code, out, _ = run_cli(capsys, "invariant", "--what", *args)
        assert code == 0
        assert out.strip() == expected

    def test_volume_gr(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--what", "volume", "gr", "1", "2")
        assert code == 0
        assert float(out) == pytest.approx(math.pi, abs=1e-12)
        assert out.strip() == fmt_float(graff.volume_gr(1, 2))

    def test_volume_of_a_huge_grassmannian_sums_min_k_terms(self, capsys, monkeypatch):
        calls = []
        log_w = graff.invariants._log_unit_ball_volume
        monkeypatch.setattr(graff.invariants, "_log_unit_ball_volume",
                            lambda m: calls.append(m) or log_w(m))
        code, out, _ = run_cli(capsys, "invariant", "--what", "volume", "gr", "3", str(10**21))
        assert (code, out.strip()) == (0, fmt_float(0.0))
        assert len(calls) == 2 * 3

    @pytest.mark.parametrize("what, sizes", [
        ("volume", ("gr", str(5 * 10**20), str(10**21))),
        ("relative-volume", (str(5 * 10**20), str(10**21), str(10**21))),
    ])
    def test_more_than_a_million_terms_exit_2_before_summing(self, capsys, monkeypatch,
                                                             what, sizes):
        calls = []
        log_w = graff.invariants._log_unit_ball_volume
        monkeypatch.setattr(graff.invariants, "_log_unit_ball_volume",
                            lambda m: calls.append(m) or log_w(m))
        code, out, err = run_cli(capsys, "invariant", "--what", what, *sizes)
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("DimensionError: ") and "over 10**6" in err

    def test_volume_graff(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--what", "volume", "graff", "0", "1")
        assert code == 0
        assert float(out) == pytest.approx(math.pi, abs=1e-12)

    def test_relative_volume_of_huge_equal_sizes_sums_no_terms(self, capsys, monkeypatch):
        calls = []
        log_w = graff.invariants._log_unit_ball_volume
        monkeypatch.setattr(graff.invariants, "_log_unit_ball_volume",
                            lambda m: calls.append(m) or log_w(m))
        size = str(10**21)
        code, out, _ = run_cli(capsys, "invariant", "--what", "relative-volume", size, size, size)
        assert (code, out.strip(), calls) == (0, "1", [])

    def test_relative_volume(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--what", "relative-volume", "1", "2", "3")
        assert code == 0
        assert float(out) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_overflow_exits_2_with_one_line(self, capsys):
        args = ("invariant", "--what", "relative-volume", "200", "200", "300")
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert err == ("DimensionError: relative_volume(200, 200, 300) is past the floats; "
                       "log=True gives its log, 30596.769741924\n")

    @pytest.mark.parametrize("args, message", [
        (("relative-volume", "31", "31", "62"), "relative_volume(31, 31, 62) is past the floats; "
                                                "log=True gives its log, 732.6483811275582"),
        (("volume", "gr", "1", str(10**306)),
         f"volume_gr(1, {10**306}) is past the floats, and so is its log"),
        (("volume", "graff", "0", str(10**400)),
         f"volume_graff(0, {10**400}) is past the floats, and so is its log"),
    ], ids=["relative-log-fits", "gr-1e306", "graff-1e400"])
    def test_values_past_the_floats_exit_2_with_one_line(self, capsys, args, message):
        code, out, err = run_cli(capsys, "invariant", "--what", *args)
        assert (code, out, err) == (2, "", f"DimensionError: {message}\n")

    def test_help_names_every_invariant_with_its_arguments(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--help")
        help_text = " ".join(out.split())
        assert code == 0
        for what, names in [("dim", "K N"), ("schubert-dim", "K [K ...]"),
                            ("volume", "gr|graff K N"), ("relative-volume", "K L N"),
                            ("betti", "K I"), ("homotopy", "K N|inf R")]:
            assert f"{what} {names}" in help_text

    def test_bad_arguments_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "invariant", "--what", "dim", "3", "3")
        assert code == 2
        assert "DimensionError" in err

    @pytest.mark.parametrize("args, names", [
        (("dim", "1"), "K N; got 1"),
        (("dim", "1", "3", "5"), "K N; got 3"),
        (("volume", "gr", "1"), "gr|graff K N; got 2"),
        (("volume", "gr", "1", "2", "3"), "gr|graff K N; got 4"),
        (("relative-volume", "1", "2"), "K L N; got 2"),
        (("relative-volume", "1", "2", "3", "4"), "K L N; got 4"),
        (("betti", "2"), "K I; got 1"),
        (("betti", "2", "4", "1"), "K I; got 3"),
        (("homotopy", "1", "2"), "K N|inf R; got 2"),
        (("homotopy", "1", "3", "1", "9"), "K N|inf R; got 4"),
    ])
    def test_wrong_argument_count_names_the_arguments(self, capsys, args, names):
        code, out, err = run_cli(capsys, "invariant", "--what", *args)
        assert (code, out) == (2, "")
        assert err == f"ValueError: --what {args[0]} takes the arguments {names}\n"

    def test_unknown_volume_space_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "invariant", "--what", "volume", "sphere", "1", "2")
        assert (code, out) == (2, "")
        assert err == "ValueError: volume expects 'gr' or 'graff', got 'sphere'\n"


class TestSample:
    def test_uniform_seed_reproducibility(self, capsys):
        args = ("sample", "--dist", "uniform", "--k", "1", "--n", "3",
                "--seed", "42", "--count", "5")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        flats = [flat_from_document(line) for line in out1.splitlines()]
        assert len(flats) == 5
        assert all(f.k == 1 and f.n == 3 for f in flats)

    def test_uniform_count_gives_the_scalar_draws_documents(self, capsys):
        # 5000 points in R^31 span two stacked draws of 4096 frames and two writes.
        from graff.io import dumps_document, flat_to_document
        from graff.probability import random_stream, sample_uniform

        code, out, _ = run_cli(capsys, "sample", "--dist", "uniform", "--k", "0", "--n", "31",
                               "--seed", "3", "--count", "5000")
        rng = random_stream(3)
        assert (code, out) == (0, "".join(dumps_document(flat_to_document(
            sample_uniform(0, 31, rng))) + "\n" for _ in range(5000)))

    def test_uniform_writes_before_the_last_blocks_are_drawn(self, monkeypatch):
        # At (8, 32) a block of draws is 441 frames, and so is a write (4096 flats would hold
        # more than 2**17 Stiefel entries): each block is written before the next is drawn.
        stream = CountingStream(4)
        out = _WriteLog(lambda: stream.calls)
        monkeypatch.setattr(cli, "random_stream", lambda seed: stream)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["sample", "--dist", "uniform", "--k", "8", "--n", "32", "--seed", "4",
                     "--count", "5000"]) == 0
        assert [(calls, text.count("\n")) for calls, text in out.writes] == [
            *((calls, 441) for calls in range(1, 12)), (12, 149)]

    def test_uniform_makes_one_draw_per_write(self, monkeypatch):
        # At (1, 3) a block of draws is a write's 4096 flats: 10,000 flats are three draws,
        # each written before the next is drawn.
        stream = CountingStream(4)
        out = _WriteLog(lambda: stream.calls)
        monkeypatch.setattr(cli, "random_stream", lambda seed: stream)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["sample", "--dist", "uniform", "--k", "1", "--n", "3", "--seed", "4",
                     "--count", "10000"]) == 0
        assert [(calls, text.count("\n")) for calls, text in out.writes] == [
            (1, 4096), (2, 4096), (3, 1808)]

    def test_an_error_in_a_redraw_writes_the_flats_made_before_it(self, monkeypatch, capsys):
        # Frame 100 of the second block spans no flat (a zero last row), and its redraw raises:
        # the 4096 flats of the first block and the 100 before it are written, then the error.
        class Stream:
            def __init__(self):
                self.rng, self.calls = np.random.default_rng(4), 0

            def standard_normal(self, shape):
                self.calls += 1
                if self.calls > 2:
                    raise ValueError("planted")
                G = self.rng.standard_normal(shape)
                if self.calls == 2:
                    G[100, -1] = 0.0
                return G

        argv = ["sample", "--dist", "uniform", "--k", "1", "--n", "3", "--seed", "4", "--count"]
        assert main(argv + ["4196"]) == 0
        expected = capsys.readouterr().out
        stream = Stream()
        out = _WriteLog(lambda: stream.calls)
        monkeypatch.setattr(cli, "random_stream", lambda seed: stream)
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", out)
        code = main(argv + ["5000"])
        monkeypatch.undo()
        assert code == 2
        assert [(calls, text.count("\n")) for calls, text in out.writes[:2]] == [(1, 4096),
                                                                               (3, 100)]
        assert "".join(text for _, text in out.writes[:2]) == expected
        assert "".join(text for _, text in out.writes[2:]) == "ValueError: planted\n"

    @staticmethod
    def _chain_run(monkeypatch, tmp_path, dist, count, planted_at=None):
        """``sample --dist dist --count count --burn-in 0 --thin 1`` at (1, 3), seed 1: (exit
        code, writes to stdout and stderr as (QR calls so far, text)).  The first QR call
        factors the chain's start, each step makes one more, and call ``planted_at`` raises."""
        params = tmp_path / "params.json"
        S = np.diag([1.0, 0.5, 0.0, -0.5] if dist == "langevin" else [1.0, 0.5, 0.0])
        params.write_text(json.dumps({"k": 1, "n": 3, "sigma2": 0.5, "S": S.tolist()}))
        calls, qr_in_place = [], _lapack.qr_in_place

        def counted(a):
            calls.append(None)
            if len(calls) == planted_at:
                raise ValueError("planted")
            return qr_in_place(a)

        out = _WriteLog(lambda: len(calls))
        monkeypatch.setattr(_lapack, "qr_in_place", counted)
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", out)
        code = main(["sample", "--dist", dist, "--params", str(params), "--seed", "1",
                     "--count", str(count), "--burn-in", "0", "--thin", "1"])
        monkeypatch.undo()
        return code, out.writes

    @pytest.mark.parametrize("dist", ["langevin", "langevin-gaussian"])
    def test_a_chain_writes_before_its_last_step(self, monkeypatch, tmp_path, dist):
        # 4097 steps after the start: the first 4096 flats are written at the 4097th QR,
        # the last step's QR is the 4098th.
        code, writes = self._chain_run(monkeypatch, tmp_path, dist, 4097)
        assert code == 0
        assert [(calls, text.count("\n")) for calls, text in writes] == [(4097, 4096), (4098, 1)]

    @pytest.mark.parametrize("dist", ["langevin", "langevin-gaussian"])
    def test_a_chain_that_raises_writes_its_flats_first(self, monkeypatch, tmp_path, dist):
        # The QR of the step after the 4097th kept flat raises: the 4097 flats are written,
        # in one write of 4096 and one of 1, before the error line.
        _, full = self._chain_run(monkeypatch, tmp_path, dist, 4097)
        code, writes = self._chain_run(monkeypatch, tmp_path, dist, 4098, planted_at=4099)
        texts = [text for _, text in writes]
        assert code == 2
        assert [text.count("\n") for text in texts[:2]] == [4096, 1]
        assert texts[:2] == [text for _, text in full]
        assert "".join(texts[2:]) == "ValueError: planted\n"

    def test_a_wide_chain_writes_and_reflects_at_most_2_17_entries_at_once(self, monkeypatch,
                                                                            tmp_path):
        # At (10, 40) a flat has 41 x 11 Stiefel entries: 290 flats a write and a stack, where
        # the command line's sizes, (1, 3) and (2, 5), keep 4096.
        from graff import _plain, probability

        assert [_plain.flat_block(k, n) for k, n in [(1, 3), (2, 5), (10, 40)]] == [4096, 4096, 290]
        S = np.random.default_rng(5).standard_normal((41, 41))
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"k": 10, "n": 40, "S": (S + S.T).tolist()}))
        stacks, reflect = [], probability._flats_from_frames
        monkeypatch.setattr(probability, "_flats_from_frames",
                            lambda frames: stacks.append(len(frames)) or reflect(frames))
        out = _WriteLog()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["sample", "--dist", "langevin", "--params", str(params), "--seed", "1",
                     "--count", "600", "--burn-in", "0", "--thin", "1"]) == 0
        assert stacks == [290, 290, 20]
        assert [text.count("\n") for _, text in out.writes] == [290, 290, 20]

    def test_uniform_requires_dimensions(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--dist", "uniform", "--seed", "1")
        assert code == 2

    def test_langevin_missing_params_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--dist", "langevin", "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("seed", ["-1", "-18446744073709551616"])
    @pytest.mark.parametrize("dist", ["uniform", "langevin"])
    def test_negative_seed_exits_2_naming_the_seed(self, capsys, tmp_path, dist, seed):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"k": 1, "n": 3, "S": np.zeros((4, 4)).tolist()}))
        code, out, err = run_cli(capsys, "sample", "--dist", dist, "--k", "1", "--n", "3",
                                 "--params", str(params), "--seed", seed)
        assert (code, out) == (2, "")
        assert err == f"DimensionError: seed must be an integer >= 0, got {seed}\n"

    @pytest.mark.parametrize("dist, doc, lacks", [
        ("langevin", {"k": 1, "n": 3}, "S"),
        ("langevin", {"S": np.zeros((4, 4)).tolist(), "n": 3}, "k"),
        ("langevin", {"S": np.zeros((4, 4)).tolist(), "k": 1}, "n"),
        ("langevin-gaussian", {"S": np.zeros((3, 3)).tolist(), "k": 1, "n": 3}, "sigma2"),
        ("langevin-gaussian", {"sigma2": 0.5}, "S, k, n"),
        ("langevin", [1, 2], "S, k, n"),
        ("langevin-gaussian", [], "S, k, n, sigma2"),
        ("langevin", "S k n", "S, k, n"),
    ], ids=["no S", "no k", "no n", "no sigma2", "only sigma2", "array", "empty array",
            "string"])
    def test_params_document_lacking_a_field_exits_2_naming_it(self, capsys, tmp_path, dist,
                                                               doc, lacks):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sample", "--dist", dist, "--params", str(params),
                                 "--seed", "1")
        fields = "S, k, n" + (", sigma2" if dist == "langevin-gaussian" else "")
        assert (code, out) == (2, "")
        assert err == (f"ValueError: params document {params} must be a JSON object with the"
                       f" fields {fields}; it lacks {lacks}\n")

    @pytest.mark.parametrize("field, value, message", [
        ("k", True, "k must be an integer >= 0, got True"),
        ("n", False, "n must be an integer >= 2, got False"),
        ("sigma2", True, "sigma2 must be a number in (0, 1e+300], got True"),
    ])
    def test_params_document_refuses_a_boolean_naming_the_field(self, capsys, tmp_path, field,
                                                                value, message):
        """JSON ``true`` and ``false`` are no numbers, though Python's ``True == 1``."""
        doc = {"S": np.zeros((3, 3)).tolist(), "sigma2": 0.5, "k": 1, "n": 3, field: value}
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        assert run_cli(capsys, "sample", "--dist", "langevin-gaussian", "--params", str(params),
                       "--seed", "1") == (2, "", f"DimensionError: {message}\n")

    def test_langevin_with_params(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"k": 1, "n": 3, "S": np.diag([2.0, 0, 0, 0]).tolist()}))
        args = ("sample", "--dist", "langevin", "--params", str(params), "--seed", "9",
                "--count", "3", "--burn-in", "50", "--thin", "2")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 3

    def test_overflowing_step_size_exits_2(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"k": 1, "n": 3, "S": np.diag([2.0, 0, 0, 0]).tolist()}))
        result = subprocess.run(
            [sys.executable, "-m", "graff", "sample", "--dist", "langevin", "--params",
             str(params), "--seed", "1", "--step-size", "1.7e308"],
            capture_output=True, text=True, check=False,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("DimensionError: step_size")
        assert "RuntimeWarning" not in result.stderr

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize("dist", ["uniform", "langevin", "langevin-gaussian"])
    def test_count_below_one_exits_2_before_sampling(self, capsys, tmp_path, monkeypatch,
                                                     dist, count):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"k": 1, "n": 3, "sigma2": 0.5,
                                      "S": np.zeros((4, 4) if dist == "langevin" else (3, 3))
                                      .tolist()}))
        for name in ("_uniform_flats", "_kept_chain", "sample_uniform", "langevin_mh_run",
                     "langevin_gaussian_run"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("sampled"))
        code, out, err = run_cli(capsys, "sample", "--dist", dist, "--k", "1", "--n", "3",
                                 "--params", str(params), "--seed", "1", "--count", count,
                                 "--burn-in", "0", "--thin", "1")
        assert (code, out) == (2, "")
        assert err == f"DimensionError: count must be an integer >= 1, got {count}\n"

    @pytest.mark.parametrize("sigma2", ["1e301", "1e400", str(10**400)])
    def test_unrepresentable_sigma2_exits_2(self, capsys, tmp_path, sigma2):
        params = tmp_path / "params.json"
        params.write_text('{"k": 1, "n": 3, "S": [[0, 0, 0], [0, 0, 0], [0, 0, 0]], "sigma2": %s}'
                          % sigma2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sample", "--dist", "langevin-gaussian",
                                     "--params", str(params), "--seed", "1")
        assert (code, out) == (2, "")
        assert err.startswith("DimensionError: sigma2 must be a number in (0, 1e+300], got ")

    def test_langevin_gaussian_with_params(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(
            json.dumps({"k": 1, "n": 3, "sigma2": 0.5, "S": np.zeros((3, 3)).tolist()})
        )
        code, out, _ = run_cli(
            capsys, "sample", "--dist", "langevin-gaussian", "--params", str(params),
            "--seed", "5", "--count", "4", "--burn-in", "20",
        )
        assert code == 0
        flats = [flat_from_document(line) for line in out.splitlines()]
        assert len(flats) == 4
        for flat in flats:
            assert np.abs(flat.A.T @ flat.b0).max() < 1e-12


class TestFit:
    def test_collinear_cloud_gives_exact_line(self, capsys, tmp_path):
        csv = tmp_path / "cloud.csv"
        csv.write_text("x,y\n0,1\n1,1\n2,1\n")
        code, out, _ = run_cli(capsys, "fit", "--method", "flat", "--k", "1", str(csv))
        assert code == 0
        assert graff.equal_flats(flat_from_document(out), horizontal_line(1.0), 1e-10)

    def test_byte_order_mark_keeps_the_first_point(self, capsys, tmp_path):
        # Spreadsheets' "CSV UTF-8" starts the file with U+FEFF.
        text = "1,2,3\n4,5,6.5\n7,8,9\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        fits = [run_cli(capsys, "fit", "--method", "flat", "--k", "1", str(path))
                for path in (plain, marked)]
        assert fits[0] == fits[1] and fits[0][0] == 0
        assert graff.io.load_cloud_csv(marked).shape == (3, 3)

    def test_header_width_is_ignored(self, tmp_path):
        csv = tmp_path / "cloud.csv"
        csv.write_text("x,y,z\n1,2\n3,4\n")
        np.testing.assert_array_equal(graff.io.load_cloud_csv(csv), [[1.0, 2.0], [3.0, 4.0]])

    def test_eiv_method_is_a_usage_error(self, capsys, tmp_path):
        # Errors-in-variables regression is --method flat --k 1.
        csv = tmp_path / "cloud.csv"
        csv.write_text("0,0\n1,1\n")
        code, _, _ = run_cli(capsys, "fit", "--method", "eiv", str(csv))
        assert code == 2

    def test_regression_hand_example(self, capsys, tmp_path):
        csv = tmp_path / "cloud.csv"
        csv.write_text("0,0\n1,1\n2,1\n")
        code, out, _ = run_cli(capsys, "fit", "--method", "regression", str(csv))
        assert code == 0
        flat_line, beta_line = out.splitlines()
        beta = json.loads(beta_line)["beta"]
        np.testing.assert_allclose(beta, [0.5, 1.0 / 6.0], atol=1e-12)
        assert flat_from_document(flat_line).n == 2

    def test_svm_two_points(self, capsys, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("0,0,-1\n2,0,1\n")
        code, out, _ = run_cli(capsys, "fit", "--method", "svm", str(csv))
        assert code == 0
        flat_line, coeff_line = out.splitlines()
        coeffs = json.loads(coeff_line)
        np.testing.assert_allclose(coeffs["w"], [1.0, 0.0], atol=1e-8)
        assert coeffs["beta"] == pytest.approx(1.0, abs=1e-8)

    def test_not_separable_exits_3(self, capsys, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("0,1\n1,-1\n2,1\n")
        code, _, err = run_cli(capsys, "fit", "--method", "svm", str(csv))
        assert code == 3
        assert "NotSeparable" in err

    def test_malformed_csv_exits_2(self, capsys, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("1,2\n3\n")
        code, _, err = run_cli(capsys, "fit", "--method", "flat", "--k", "1", str(csv))
        assert code == 2

    @pytest.mark.parametrize("method, text, message", [
        ("flat", "0,0\n1,1\n", "ValueError: --method flat requires --k"),
        ("regression", "1\n2\n", "ValueError: regression needs at least one column before the last"),
        ("svm", "1\n2\n", "ValueError: svm needs at least one column before the last"),
    ])
    def test_missing_k_or_columns_exit_2(self, capsys, tmp_path, method, text, message):
        csv = tmp_path / "data.csv"
        csv.write_text(text)
        code, out, err = run_cli(capsys, "fit", "--method", method, str(csv))
        assert (code, out, err) == (2, "", message + "\n")

    @pytest.mark.parametrize("text, message", [
        ("", "empty cloud file"),
        ("\n ,  \n", "empty cloud file"),
        ("x,y\n", "no data rows"),
        ("x,y\n,\n , \n", "no data rows"),  # refused by np.loadtxt, then no row is data
        ("x,y\n1,2\n3,abc\n", "row 3: could not convert string to float: 'abc'"),
    ])
    def test_unreadable_cloud_exits_2(self, capsys, tmp_path, text, message):
        csv = tmp_path / "data.csv"
        csv.write_text(text)
        code, out, err = run_cli(capsys, "fit", "--method", "flat", "--k", "1", str(csv))
        assert (code, out, err) == (2, "", f"ValueError: {csv}: {message}\n")

    # A field past the csv module's limit: the first, or one in a quoted row that np.loadtxt
    # refuses, so that the row-by-row reader meets it.
    @pytest.mark.parametrize("head, tail, line", [("", ",1\n", 1), ('x,y\n1,2\n"', '1",3\n', 3)],
                             ids=["first row", "later row"])
    def test_overlong_field_exits_2(self, capsys, tmp_path, head, tail, line):
        csv = tmp_path / "data.csv"
        csv.write_text(head + "0" * 140_000 + tail)
        code, out, err = run_cli(capsys, "fit", "--method", "flat", "--k", "1", str(csv))
        assert (code, out, err) == (
            2, "", f"ValueError: {csv}: line {line}: field larger than field limit (131072)\n")


_NEARLY_DOC = {"n": 3, "k": 2, "A": [[1.0, 0.0, 0.0], [1.0, 1e-5, 0.0]], "b": [0.0, 0.0, 0.0]}


class TestFixedTolerance:
    def test_rank_decision_uses_the_fixed_tolerance(self, capsys, write_doc):
        # A pivot ratio of 1e-5 is above the fixed 1e-10; 1e-11 is below it.
        code, _, err = run_cli(capsys, "convert", write_doc(_NEARLY_DOC), "--to", "stiefel")
        assert (code, err) == (0, "")
        below = dict(_NEARLY_DOC, A=[[1.0, 0.0, 0.0], [1.0, 1e-11, 0.0]])
        code, out, err = run_cli(capsys, "convert", write_doc(below), "--to", "stiefel")
        assert (code, out) == (2, "")
        assert err.startswith("RankDeficient")

    @pytest.mark.parametrize("value", ["0", "nan", "-1", "1e-3", "2", "1"])
    def test_tolerance_variable_is_ignored(self, capsys, write_doc, monkeypatch, value):
        path = write_doc(_NEARLY_DOC)
        expected = run_cli(capsys, "convert", path, "--to", "stiefel")
        monkeypatch.setenv("GRAFF_TOL", value)
        assert run_cli(capsys, "convert", path, "--to", "stiefel") == expected
        assert expected[0] == 0

    def test_own_samples_read_back_unchanged(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sample", "--dist", "uniform", "--k", "2", "--n", "5",
                                 "--count", "2", "--seed", "1")
        assert (code, err) == (0, "")
        for i, line in enumerate(out.splitlines()):
            path = tmp_path / f"sample{i}.json"
            path.write_text(line)
            code, stiefel, err = run_cli(capsys, "convert", str(path), "--to", "stiefel")
            assert (code, err) == (0, "")
            flat = flat_from_document(line)
            np.testing.assert_array_equal(json.loads(stiefel)["data"], graff.stiefel_coords(flat).Y)

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_every_own_sample_passes_the_orthogonality_check(self, capsys, seed):
        # Printed bases carry "orthogonal": true, so reading them back runs the fixed
        # orthogonality check on every one of them.
        code, out, err = run_cli(capsys, "sample", "--dist", "uniform", "--k", "2", "--n", "5",
                                 "--count", "2000", "--seed", seed)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 2000
        assert all(flat_from_document(line).k == 2 for line in lines)


@pytest.mark.parametrize("argv", [
    ["distance"],
    ["--tol", "1e-3", "convert", "X_AXIS", "--to", "stiefel"],  # no tolerance flag any more
])
def test_bad_usage_exits_2(capsys, write_doc, argv):
    argv = [write_doc(X_AXIS_DOC) if arg == "X_AXIS" else arg for arg in argv]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (2, "")


def test_flat_documents_round_trip_bit_exactly():
    # A document produced by the tool, parsed and re-serialized, is the
    # identical byte string: 17 significant digits round-trip doubles.
    from graff.io import dumps_document, flat_to_document
    from graff.probability import random_stream, sample_uniform

    rng = random_stream(99)
    for _ in range(25):
        flat = sample_uniform(2, 4, rng)
        line = dumps_document(flat_to_document(flat))
        reparsed = flat_from_document(line)
        assert dumps_document(flat_to_document(reparsed)) == line
        np.testing.assert_array_equal(reparsed.A, flat.A)
        np.testing.assert_array_equal(reparsed.b0, flat.b0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                   np.float64("-inf"), np.array([1.0, np.nan]),
                                   np.float32("inf")])
def test_dumps_document_refuses_non_finite_floats(value):
    from graff.io import dumps_document

    with pytest.raises(ValueError, match="is not a JSON number"):
        dumps_document({"data": [[1.0, value]]})


def test_dumps_document_writes_numpy_values_as_their_tolist():
    from graff.io import dumps_document

    values = [np.array([[0.1, -0.0], [1e300, 2.0]]), np.float32(0.1), np.int64(-7), np.bool_(True)]
    assert dumps_document(values) == dumps_document([v.tolist() for v in values]) == (
        "[[[0.10000000000000001, -0], [1.0000000000000001e+300, 2]], "
        "0.10000000149011612, -7, true]")
    with pytest.raises(TypeError, match="cannot serialize set"):
        dumps_document({"data": {1.0}})


def test_dumps_document_writes_strings_as_json():
    from graff.io import dumps_document

    assert dumps_document({"kind": "grassmann", "note": 'a "b"'}) == (
        '{"kind": "grassmann", "note": "a \\"b\\""}')


def test_fmt_float_keeps_the_bare_inf():
    assert (fmt_float(math.inf), fmt_float(-math.inf), fmt_float(np.float64("inf"))) == (
        "inf", "-inf", "inf")


def test_a_non_finite_document_exits_2_with_nothing_printed(capsys, write_doc, monkeypatch):
    monkeypatch.setattr(cli, "matrix_document", lambda M: {"data": [[math.nan]]})
    code, out, err = run_cli(capsys, "convert", write_doc(X_AXIS_DOC), "--to", "stiefel")
    assert (code, out, err) == (2, "", "ValueError: nan is not a JSON number\n")


@pytest.mark.parametrize("error, code", [
    (graff.GraffError("x"), 2), (graff.DimensionError("x"), 2), (graff.RankDeficient("x"), 2),
    (graff.UnsupportedKind("x"), 2), (graff.InvalidFlag("x"), 2), (graff.InternalError("x"), 2),
    (ValueError("x"), 2), (TypeError("x"), 2), (KeyError("x"), 2), (IndexError("x"), 2),
    (OSError("x"), 2), (FileNotFoundError("x"), 2), (ArithmeticError("x"), 2),
    (OverflowError("x"), 2), (ZeroDivisionError("x"), 2), (MemoryError("x"), 2),
    (RecursionError("x"), 2),
    (graff.NotSeparable("x"), 3), (graff.SingularPair("x"), 3), (graff.NotAFlat("x"), 3),
])
def test_exit_code_contract(capsys, monkeypatch, error, code):
    """Each exception class a subcommand raises maps to its documented exit code,
    with one line on stderr and nothing on stdout."""
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_invariant", fail)
    assert run_cli(capsys, "invariant", "--what", "dim", "1", "3") == (
        code, "", f"{type(error).__name__}: {error}\n")


def _graff(*args) -> subprocess.CompletedProcess:
    """``python -m graff`` with every RuntimeWarning an error, as in process."""
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "graff", *args],
                          capture_output=True, text=True, check=False, timeout=60)


@pytest.mark.parametrize("where", ["flat", "params"])
def test_deeply_nested_json_exits_2(tmp_path, write_doc, where):
    """json.load raises RecursionError on 100,000 nested brackets."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    args = (("distance", str(deep), write_doc(X_AXIS_DOC)) if where == "flat" else
            ("sample", "--dist", "langevin", "--params", str(deep), "--seed", "1"))
    result = _graff(*args)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("RecursionError: ") and result.stderr.count("\n") == 1


def test_an_unallocatable_sample_exits_2():
    """n = 1e15 asks for 7 PiB, beyond any 64-bit user address space, so the
    allocation fails at once whatever the overcommit setting."""
    result = _graff("sample", "--dist", "uniform", "--k", "0", "--n", "1000000000000000",
                    "--seed", "1")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("MemoryError: ") and result.stderr.count("\n") == 1


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "graff", "invariant", "--what", "dim", "1", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "4"


def test_console_script_target_exits_with_mains_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["graff", "invariant", "--what", "dim", "1", "3"])
    for name in BLAS_THREADS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    with pytest.raises(SystemExit) as exit_:
        cli.entry_point()
    assert exit_.value.code == 0
    assert capsys.readouterr().out == "4\n"
    # One BLAS thread unless the environment sets a count: a user's own setting wins.
    assert [os.environ[name] for name in BLAS_THREADS] == ["1", "3", "1", "1"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_distance_prints_the_same_bytes_on_any_core_count(tmp_path):
    """A (100, 400) pair's distance follows the BLAS thread count, which OpenBLAS takes from
    the CPUs it may use; the process entries pin one thread, so the bytes are those of
    OPENBLAS_NUM_THREADS=1 on every CPU of the machine and on one."""
    rng = np.random.default_rng(0)
    paths = []
    for name in ("a", "b"):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"n": 400, "k": 100, "A": rng.standard_normal(
            (100, 400)).tolist(), "b": rng.standard_normal(400).tolist()}))
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREADS}
    one_cpu = {min(os.sched_getaffinity(0))}

    def stdout(threads=None, cpus=None):
        result = subprocess.run(
            [sys.executable, "-m", "graff", "distance", *map(str, paths), "--verbose"],
            env={**env, "OPENBLAS_NUM_THREADS": threads} if threads else env,
            preexec_fn=cpus and (lambda: os.sched_setaffinity(0, cpus)),
            capture_output=True, check=True, timeout=120)
        return result.stdout

    assert stdout() == stdout(cpus=one_cpu) == stdout(threads="1")


def _imported(*args) -> tuple[subprocess.CompletedProcess, set]:
    """``python -X importtime ARGS`` and the names of the modules it imported."""
    result = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                            text=True, check=False, timeout=60)
    modules = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
               if line.startswith("import time:")}
    assert "graff" in modules, result.stderr[-500:]
    return result, modules


def test_import_graff_leaves_numpy_unloaded():
    result, modules = _imported("-c", "import graff")
    assert result.returncode == 0 and "numpy" not in modules


@pytest.mark.parametrize("how", ["module", "console script"])
def test_invariant_runs_without_numpy(how):
    """``graff invariant`` needs only math; the console script runs ``cli.entry_point``."""
    argv = ["invariant", "--what", "volume", "graff", "2", "5"]
    args = (["-m", "graff", *argv] if how == "module" else
            ["-c", f"import sys; sys.argv = {['graff', *argv]!r}; "
                   "from graff.cli import entry_point; entry_point()"])
    result, modules = _imported(*args)
    assert (result.returncode, result.stdout) == (0, fmt_float(graff.volume_graff(2, 5)) + "\n")
    assert {"graff.cli", "graff.invariants"} <= modules and "numpy" not in modules


def test_distance_leaves_numpy_random_unloaded(write_doc):
    result, modules = _imported("-m", "graff", "distance", write_doc(X_AXIS_DOC),
                                write_doc(LINE_Y1_DOC))
    expected = fmt_float(graff.distance(x_axis(), horizontal_line(1.0)))
    assert (result.returncode, result.stdout) == (0, expected + "\n")
    assert "numpy" in modules and "numpy.random" not in modules


@pytest.mark.parametrize("argv, runs", [
    (["convert", "X", "--to", "stiefel"], {"graff.coords", "graff.io"}),
    (["distance", "X", "Y"], {"graff.io", "graff.metric"}),
    (["geodesic", "X", "Y", "--t", "0.5"], {"graff.io", "graff.metric"}),
    (["sample", "--dist", "uniform", "--k", "1", "--n", "3", "--seed", "1"],
     {"graff.io", "graff.probability"}),
    (["fit", "--method", "flat", "--k", "1", "CLOUD"], {"graff.io", "graff.fitting"}),
], ids=["convert", "distance", "geodesic", "sample", "fit"])
def test_a_subcommand_loads_only_the_modules_it_runs(write_doc, tmp_path, argv, runs):
    files = {"X": write_doc(X_AXIS_DOC), "Y": write_doc(LINE_Y1_DOC),
             "CLOUD": _write_cloud(tmp_path, [[float(i), 2.0 * i] for i in range(5)])}
    result, modules = _imported("-m", "graff", *(files.get(arg, arg) for arg in argv))
    assert (result.returncode, result.stderr.count("Error")) == (0, 0)
    unloaded = {"graff.metric", "graff.probability", "graff.fitting", "graff.invariants"} - runs
    assert runs <= modules and not modules & unloaded, sorted(modules & unloaded)


def test_a_name_read_after_a_command_is_bound_from_its_module(write_doc):
    """After ``main`` bound only what ``distance`` runs, reading ``cli.fit_flat`` (perfbench's
    traced run reads each name it wraps) loads fitting and returns its function."""
    code = ("import sys, graff.cli as cli; "
            f"assert cli.main(['distance', {write_doc(X_AXIS_DOC)!r}, "
            f"{write_doc(LINE_Y1_DOC)!r}]) == 0; "
            "assert 'graff.fitting' not in sys.modules; fit_flat = cli.fit_flat; "
            "import graff.fitting; assert fit_flat is graff.fitting.fit_flat")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=False, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")


def test_star_import_brings_every_public_name():
    namespace = {}
    exec("from graff import *", namespace)
    for module in (graff.coords, graff.errors, graff.fitting, graff.invariants, graff.metric,
                   graff.probability):
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name


@pytest.mark.parametrize("name", ["no_such_name", "__wrapped__", "_lapack_", "io_"])
def test_unknown_package_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(graff, name)
    assert not hasattr(cli, name)


@pytest.mark.parametrize("read", ["", "assert 'distance' not in vars(cli); "
                                  "assert cli.distance is graff.metric.distance; "],
                         ids=["set unread", "set after a read"])
def test_a_name_set_on_cli_before_main_is_the_one_main_calls(write_doc, read):
    """The numerics bind on ``main``'s first call, or on the first read of a name, which
    ``cli.__getattr__`` answers (perfbench reads each name it wraps), and keep a name a
    caller set before ``main``."""
    code = ("import sys, graff.metric, graff.cli as cli; " + read +
            "cli.distance = lambda *args: 0.25; "
            f"sys.exit(cli.main(['distance', {write_doc(X_AXIS_DOC)!r}, "
            f"{write_doc(LINE_Y1_DOC)!r}]))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=False, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "0.25\n", "")


def test_a_leaked_warning_prints_one_line_without_its_location(tmp_path):
    """A tie of singular values on a cloud of points on a line: stderr is one fixed line."""
    cloud = _write_cloud(tmp_path, [[0.5 * i, 1.0 + i, -2.0 * i] for i in range(30)])
    result = _graff("fit", "--method", "flat", "--k", "2", cloud)
    assert (result.returncode, result.stdout.count("\n")) == (0, 1)
    assert result.stderr.encode() == (b"DegenerateSpectrum: singular values 2 and 3 are tied; "
                                      b"fitted flat is not unique\n")
    assert warnings.formatwarning is not cli._format_warning  # main restores the format


# Fuzzing cli.main in process: numeric flags and parameter fields take ints,
# floats, +-inf, nan, 1e400 and 10**400.  --count, --burn-in and --thin get no
# huge positive values, which are valid requests for unboundedly long runs.
_HUGE = str(10**400)
_FLAG = st.one_of(st.integers(-3, 6).map(str), st.floats(0.01, 2.0).map(repr), st.floats().map(repr),
                  st.sampled_from(["inf", "-inf", "nan", "1e400", _HUGE, "-" + _HUGE]))
_WORK = st.one_of(st.integers(-3, 6).map(str), st.floats().map(repr),
                  st.sampled_from(["inf", "nan", "1e400", "-" + _HUGE]))
_FIELD = st.one_of(st.integers(-3, 6).map(str), st.floats().map(json.dumps),
                   st.sampled_from(["1e400", "-1e400", _HUGE, "0.5"]))
_FUZZ = settings(deadline=None, derandomize=True, max_examples=150)


def _fuzz_main(argv, allowed=()):
    """Run main; ``allowed`` names the warning classes a command may issue by design."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    caught = [w for w in caught if not issubclass(w.category, allowed)]
    assert not caught, [str(w.message) for w in caught]


@_FUZZ
@given(dist=st.sampled_from(["uniform", "langevin", "langevin-gaussian"]),
       flags=st.fixed_dictionaries({}, optional={
           "--count": _WORK, "--k": _FLAG, "--n": _FLAG,
           "--burn-in": _WORK, "--thin": _WORK, "--step-size": _FLAG}),
       k=st.one_of(st.just("1"), _FIELD), n=st.one_of(st.just("3"), _FIELD),
       sigma2=st.one_of(st.just("0.5"), _FIELD), scale=st.sampled_from([1.0, 1e300, 1.7e308]))
@example(dist="langevin", flags={}, k="1", n="3", sigma2="0.5", scale=1e300)
@example(dist="langevin", flags={}, k="1", n="3", sigma2="0.5", scale=1.7e308)
@example(dist="langevin-gaussian", flags={}, k="1", n="3", sigma2="0.5", scale=1e300)
@example(dist="langevin-gaussian", flags={}, k="1", n="3", sigma2="0.5", scale=1.7e308)
def test_fuzzed_sample_exits_cleanly(dist, flags, k, n, sigma2, scale):
    """S is the identity times 1, 1e300 (the largest entry allowed) or 1.7e308 (refused)."""
    size = 4 if dist == "langevin" else 3
    flags = {"--k": "1", "--n": "3", "--burn-in": "5", "--thin": "2", **flags}
    with tempfile.TemporaryDirectory() as tmp:
        params = Path(tmp) / "params.json"
        params.write_text('{"k": %s, "n": %s, "sigma2": %s, "S": %s}'
                          % (k, n, sigma2, json.dumps((scale * np.eye(size)).tolist())))
        argv = ["sample", "--dist", dist, "--seed", "0", "--params", str(params)]
        _fuzz_main(argv + [token for pair in flags.items() for token in pair])


@_FUZZ
@given(t=st.lists(_FLAG, min_size=1, max_size=3))
def test_fuzzed_geodesic_exits_cleanly(t):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("a", X_AXIS_DOC), ("b", LINE_Y1_DOC)):
            paths.append(str(Path(tmp) / f"{name}.json"))
            Path(paths[-1]).write_text(json.dumps(doc))
        _fuzz_main(["geodesic", *paths, "--t", *t])


# invariant arguments: small, negative and 10**21-scale integers, floats, nan, inf and
# 1e400; each --what gets its own count of them, one fewer or one more, and volume a space.
_INVARIANT_ARG = st.one_of(st.integers(-3, 8).map(str),
                           st.integers(-9, 9).map(lambda d: str(10**21 + d)),
                           st.integers(1, 9).map(lambda d: str(-10**21 * d)), st.floats().map(repr),
                           st.sampled_from(["nan", "inf", "-inf", "1e400"]))
_INVARIANT_ARITY = {"dim": 2, "schubert-dim": 3, "volume": 2, "relative-volume": 3, "betti": 2,
                    "homotopy": 3}


@_FUZZ
@given(what=st.sampled_from(sorted(_INVARIANT_ARITY)), space=st.sampled_from(["gr", "graff"]),
       args=st.lists(_INVARIANT_ARG, min_size=4, max_size=4), extra=st.integers(-1, 1))
@example(what="betti", space="gr", args=[str(10**21), "3", "0", "0"], extra=0)  # huge k, small i
def test_fuzzed_invariant_exits_cleanly(what, space, args, extra):
    args = args[: _INVARIANT_ARITY[what] + extra]
    _fuzz_main(["invariant", "--what", what, *([space] if what == "volume" else []), *args])


# Flat documents in R^n: an axis basis (its entries 1 or fuzzed) with b orthogonal to
# it, or fuzzed rows, the orthogonal flag on or off, and entries from 5e-324 to
# 1.7e308, nan, 1e400 and 10**400.
_DOC_ENTRY = st.one_of(st.integers(-3, 3).map(str), st.floats(-4.0, 4.0).map(repr),
                       st.sampled_from(["NaN", "1e400", _HUGE, "5e-324", "1.7e308", "-1.7e308"]))


@st.composite
def _flat_document(draw, n):
    k = draw(st.integers(0, n))
    if draw(st.booleans()):
        unit = draw(st.one_of(st.just("1"), _DOC_ENTRY))
        rows = [[unit if i == j else "0" for i in range(n)] for j in range(k)]
        b = ["0"] * k + draw(st.lists(_DOC_ENTRY, min_size=n - k, max_size=n - k))
    else:
        rows = draw(st.lists(st.lists(_DOC_ENTRY, min_size=n, max_size=n), min_size=k,
                             max_size=k))
        b = draw(st.lists(_DOC_ENTRY, min_size=n, max_size=n))
    return '{"n": %d, "k": %d, "A": [%s], "b": [%s], "orthogonal": %s}' % (
        n, k, ", ".join("[%s]" % ", ".join(row) for row in rows), ", ".join(b),
        json.dumps(draw(st.booleans())))


_DOC_COMMAND = st.one_of(
    st.sampled_from(["stiefel", "projection", "projection-affine"]).map(
        lambda to: ["convert", "FLAT1", "--to", to]),
    st.tuples(st.sampled_from([kind.value for kind in graff.DistanceKind]),
              st.sets(st.sampled_from(["--verbose", "--infinite"]))).map(
        lambda kind_flags: ["distance", "FLAT1", "FLAT2", "--kind", kind_flags[0],
                            *sorted(kind_flags[1])]),
    st.lists(_FLAG, min_size=1, max_size=2).map(lambda t: ["geodesic", "FLAT1", "FLAT2", "--t", *t]))


@_FUZZ
@given(command=_DOC_COMMAND, n=st.integers(1, 4), data=st.data())
def test_fuzzed_flat_documents_exit_cleanly(command, n, data):
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("FLAT1", "FLAT2"):
            (Path(tmp) / name).write_text(data.draw(_flat_document(n)))
        _fuzz_main([str(Path(tmp) / arg) if arg.startswith("FLAT") else arg for arg in command])


# CSV clouds for fit --method svm: small integers and floats times a scale from
# 2**-1074 to 4e307, with the largest floats and subnormals, duplicated rows and
# conflicting labels.
_SVM_ENTRY = st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0),
                       st.sampled_from([5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]))


_SCALE = st.sampled_from([1.0, 2.0**-1074, 1e-300, 1e-160, 1e150, 1e300, 4e307])


def _write_cloud(tmp, rows) -> str:
    path = Path(tmp) / "cloud.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    return str(path)


@_FUZZ
@given(d=st.integers(1, 3), scale=_SCALE, data=st.data())
def test_fuzzed_svm_fit_exits_cleanly(d, scale, data):
    points = data.draw(st.lists(st.lists(_SVM_ENTRY, min_size=d, max_size=d), min_size=2,
                                max_size=8))
    labels = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(points),
                                max_size=len(points)))
    repeats = data.draw(st.integers(0, 2))  # rows repeated with the same or the other label
    flip = data.draw(st.sampled_from([1, -1]))
    rows = [[x * scale for x in p] + [y] for p, y in zip(points, labels)]
    rows += [row[:-1] + [flip * row[-1]] for row in rows[:repeats]]
    with tempfile.TemporaryDirectory() as tmp:
        _fuzz_main(["fit", "--method", "svm", _write_cloud(tmp, rows)])


@_FUZZ
@given(method=st.sampled_from(["flat", "regression"]), d=st.integers(1, 4), k=st.integers(0, 3),
       scale=_SCALE, data=st.data())
def test_fuzzed_flat_and_regression_fit_exit_cleanly(method, d, k, scale, data):
    points = data.draw(st.lists(st.lists(_SVM_ENTRY, min_size=d, max_size=d), min_size=1,
                                max_size=8))
    points += points[:data.draw(st.integers(0, 2))]  # repeated rows
    rows = [[x * scale for x in p] for p in points]
    with tempfile.TemporaryDirectory() as tmp:
        flags = ["--k", str(k)] if method == "flat" else []
        _fuzz_main(["fit", "--method", method, *flags, _write_cloud(tmp, rows)],
                   allowed=graff.DegenerateSpectrum)  # a tie of singular values is reported
