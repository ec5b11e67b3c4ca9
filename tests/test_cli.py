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
from hypothesis import given, settings
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

    @pytest.mark.parametrize("sigma2", ["1e400", str(10**400)])
    def test_unrepresentable_sigma2_exits_2(self, capsys, tmp_path, sigma2):
        params = tmp_path / "params.json"
        params.write_text('{"k": 1, "n": 3, "S": [[0, 0, 0], [0, 0, 0], [0, 0, 0]], "sigma2": %s}'
                          % sigma2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sample", "--dist", "langevin-gaussian",
                                     "--params", str(params), "--seed", "1")
        assert (code, out) == (2, "")
        assert err.startswith("DimensionError: sigma2 must be a number in (0, 1.8e+308], got ")

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


class TestToleranceControls:
    def test_tol_flag_changes_rank_decision(self, capsys, write_doc):
        nearly = {
            "n": 3,
            "k": 2,
            "A": [[1.0, 0.0, 0.0], [1.0, 1e-5, 0.0]],
            "b": [0.0, 0.0, 0.0],
        }
        path = write_doc(nearly)
        code, _, _ = run_cli(capsys, "convert", path, "--to", "stiefel")
        assert code == 0
        code, _, err = run_cli(capsys, "--tol", "1e-3", "convert", path, "--to", "stiefel")
        assert code == 2
        assert "RankDeficient" in err

    def test_env_variable_used_when_flag_absent(self, capsys, write_doc, monkeypatch):
        nearly = {
            "n": 3,
            "k": 2,
            "A": [[1.0, 0.0, 0.0], [1.0, 1e-5, 0.0]],
            "b": [0.0, 0.0, 0.0],
        }
        path = write_doc(nearly)
        monkeypatch.setenv("GRAFF_TOL", "1e-3")
        code, _, err = run_cli(capsys, "convert", path, "--to", "stiefel")
        assert code == 2
        assert "RankDeficient" in err

    def test_tight_tol_accepts_own_samples(self, capsys):
        # graff does not re-check the orthonormality of bases its QR built.
        args = ("sample", "--dist", "uniform", "--k", "2", "--n", "5", "--count", "2",
                "--seed", "1")
        code, expected, _ = run_cli(capsys, *args)
        tight_code, out, err = run_cli(capsys, "--tol", "1e-20", *args)
        assert code == tight_code == 0, err
        assert out == expected

    def test_tight_tol_accepts_own_projection_affine_and_svm(self, capsys, write_doc, tmp_path):
        # [A A^T, b0] and the SVM hyperplane are built by graff, so --tol does not
        # re-check them; RAW is a non-orthogonal 2-flat document in R^5.
        raw = write_doc({"n": 5, "k": 2, "A": [[1.0, 2.0, 0.5, -1.0, 0.3],
                                               [0.2, -1.0, 3.0, 0.7, 1.1]],
                         "b": [1.0, -2.0, 0.5, 3.0, 0.1]})
        csv = tmp_path / "data.csv"
        csv.write_text("0.8,-1.4,-1\n-2.8,-2.9,-1\n5.9,6.5,1\n4.6,5.4,1\n")
        for args in (("convert", raw, "--to", "projection-affine"),
                     ("fit", "--method", "svm", str(csv))):
            code, expected, _ = run_cli(capsys, *args)
            tight_code, out, err = run_cli(capsys, "--tol", "1e-20", *args)
            assert code == tight_code == 0, err
            assert out == expected

    def test_tol_flag_lasts_for_one_call(self, capsys, write_doc):
        nearly = {"n": 3, "k": 2, "A": [[1.0, 0.0, 0.0], [1.0, 1e-5, 0.0]], "b": [0.0, 0.0, 0.0]}
        path = write_doc(nearly)
        code, _, _ = run_cli(capsys, "--tol", "1e-3", "convert", path, "--to", "stiefel")
        assert code == 2
        assert graff.get_default_tol() == 1e-10
        code, _, err = run_cli(capsys, "convert", path, "--to", "stiefel")
        assert code == 0, err

    @pytest.mark.parametrize("flag, env, shown", [
        ("0", None, "0.0"), ("nan", None, "nan"), (None, "-1", "-1.0"), ("inf", "1e-3", "inf"),
    ])
    def test_invalid_tolerance_exits_2_and_keeps_the_default(self, capsys, monkeypatch,
                                                             flag, env, shown):
        if env is not None:
            monkeypatch.setenv("GRAFF_TOL", env)
        args = ("invariant", "--what", "dim", "1", "3")
        code, out, err = run_cli(capsys, *(("--tol", flag) if flag else ()), *args)
        assert (code, out) == (2, "")
        assert err == f"DimensionError: tol must be a number in (0, 1.8e+308], got {shown}\n"
        assert graff.get_default_tol() == 1e-10

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_loose_tol_does_not_reach_own_samples(self, capsys, seed):
        # graff's own Gaussian frames take no rank test: --tol checks outside input only.
        args = ("sample", "--dist", "uniform", "--k", "2", "--n", "5", "--count", "2000",
                "--seed", seed)
        code, expected, _ = run_cli(capsys, *args)
        loose_code, out, err = run_cli(capsys, "--tol", "0.1", *args)
        assert code == loose_code == 0, err
        assert out == expected

    def test_bad_usage_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "distance")
        assert code == 2


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


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "graff", "invariant", "--what", "dim", "1", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "4"


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


def _fuzz_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]


@_FUZZ
@given(dist=st.sampled_from(["uniform", "langevin", "langevin-gaussian"]),
       flags=st.fixed_dictionaries({}, optional={
           "--tol": _FLAG, "--count": _WORK, "--k": _FLAG, "--n": _FLAG,
           "--burn-in": _WORK, "--thin": _WORK, "--step-size": _FLAG}),
       k=st.one_of(st.just("1"), _FIELD), n=st.one_of(st.just("3"), _FIELD),
       sigma2=st.one_of(st.just("0.5"), _FIELD))
def test_fuzzed_sample_exits_cleanly(dist, flags, k, n, sigma2):
    size = 4 if dist == "langevin" else 3
    flags = {"--k": "1", "--n": "3", "--burn-in": "5", "--thin": "2", **flags}
    with tempfile.TemporaryDirectory() as tmp:
        params = Path(tmp) / "params.json"
        params.write_text('{"k": %s, "n": %s, "sigma2": %s, "S": %s}'
                          % (k, n, sigma2, json.dumps(np.eye(size).tolist())))
        argv = [] if "--tol" not in flags else ["--tol", flags.pop("--tol")]
        argv += ["sample", "--dist", dist, "--seed", "0", "--params", str(params)]
        _fuzz_main(argv + [token for pair in flags.items() for token in pair])


@_FUZZ
@given(tol=st.one_of(st.none(), _FLAG), t=st.lists(_FLAG, min_size=1, max_size=3))
def test_fuzzed_geodesic_exits_cleanly(tol, t):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("a", X_AXIS_DOC), ("b", LINE_Y1_DOC)):
            paths.append(str(Path(tmp) / f"{name}.json"))
            Path(paths[-1]).write_text(json.dumps(doc))
        _fuzz_main(([] if tol is None else ["--tol", tol]) + ["geodesic", *paths, "--t", *t])
