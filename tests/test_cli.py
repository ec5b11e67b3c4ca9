import contextlib
import io
import json
import math
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
from graff import cli
from graff.cli import main
from graff.io import flat_from_document, fmt_float

from conftest import horizontal_line, x_axis

X_AXIS_DOC = {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 0.0]}
LINE_Y1_DOC = {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1.0]}
LINE_Y2_DOC = {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 2.0]}
POINT_DOC = {"n": 2, "k": 0, "A": [], "b": [0.0, 1.0]}
Y_AXIS_DOC = {"n": 2, "k": 1, "A": [[0.0, 1.0]], "b": [0.0, 0.0]}


@pytest.fixture
def write_doc(tmp_path):
    counter = iter(range(1000))

    def _write(doc) -> str:
        path = tmp_path / f"flat{next(counter)}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


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
        assert err == "DimensionError: n must be an integer, got 2.9\n"

    def test_infinite_dimension_exits_2(self, capsys, write_doc):
        doc = {"n": math.inf, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1.0]}
        path = write_doc(doc)
        assert '"n": Infinity' in open(path).read()
        with pytest.raises(graff.DimensionError, match="integer"):
            flat_from_document(doc)
        code, out, err = run_cli(capsys, "convert", path, "--to", "stiefel")
        assert (code, out) == (2, "")
        assert err == "DimensionError: n must be an integer, got inf\n"

    def test_huge_displacement_projection_affine_is_quiet(self, capsys, write_doc):
        doc = {"n": 2, "k": 1, "A": [[1.0, 0.0]], "b": [0.0, 1e200], "orthogonal": True}
        code, out, err = run_cli(capsys, "convert", write_doc(doc), "--to", "projection-affine")
        assert (code, err) == (0, "")
        assert json.loads(out)["data"] == [[1.0, 0.0, 0.0], [0.0, 0.0, 1e200]]

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

    def test_infinite_parameter_exits_2_with_one_line(self, capsys, write_doc):
        code, out, err = run_cli(
            capsys, "geodesic", write_doc(X_AXIS_DOC), write_doc(LINE_Y1_DOC), "--t", "inf"
        )
        assert (code, out) == (2, "")
        assert err == "ValueError: geodesic parameter t=inf gives a non-finite angle\n"

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
        assert err == "OverflowError: math range error\n"

    def test_bad_arguments_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "invariant", "--what", "dim", "3", "3")
        assert code == 2
        assert "DimensionError" in err

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

    def test_uniform_requires_dimensions(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--dist", "uniform", "--seed", "1")
        assert code == 2

    def test_langevin_missing_params_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--dist", "langevin", "--seed", "1")
        assert code == 2

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
        for name in ("sample_uniform", "langevin_mh_run", "langevin_gaussian_run"):
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
        ("x,y\n1,2\n3,abc\n", "row 3: could not convert string to float: 'abc'"),
    ])
    def test_unreadable_cloud_exits_2(self, capsys, tmp_path, text, message):
        csv = tmp_path / "data.csv"
        csv.write_text(text)
        code, out, err = run_cli(capsys, "fit", "--method", "flat", "--k", "1", str(csv))
        assert (code, out, err) == (2, "", f"ValueError: {csv}: {message}\n")


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
                                   np.float64("-inf")])
def test_dumps_document_refuses_non_finite_floats(value):
    from graff.io import dumps_document

    with pytest.raises(ValueError, match="is not a JSON number"):
        dumps_document({"data": [[1.0, value]]})


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
    with pytest.raises(SystemExit) as exit_:
        cli.entry_point()
    assert exit_.value.code == 0
    assert capsys.readouterr().out == "4\n"


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
