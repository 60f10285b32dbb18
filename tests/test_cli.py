import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gaussmap
from gaussmap import GaussianMap, dilatation, partial_transpose_example, q_exchange_example
from gaussmap.cli import main
from gaussmap.io import load_map, save_map, save_state
from helpers import count_eigensolves, random_symplectic, seeded_map


@pytest.fixture
def fixtures(tmp_path):
    """Write the standard set of map and state files once per test."""
    rng = np.random.default_rng(3)
    paths = {}

    def state(name, mean, cov):
        p = tmp_path / name
        save_state(p, np.asarray(mean, dtype=float), np.asarray(cov, dtype=float))
        paths[name] = str(p)

    def gmap(name, m):
        p = tmp_path / name
        save_map(p, m)
        paths[name] = str(p)

    state("vacuum.json", np.zeros(2), np.eye(2))
    state("subvacuum.json", np.zeros(2), np.diag([0.5, 0.5]))
    state("vac2.json", np.zeros(4), np.eye(4))
    gmap("dil2.json", dilatation(2.0, 1))
    gmap("dil05.json", dilatation(0.5, 1))
    gmap("identity.json", GaussianMap(K=np.eye(2), alpha=np.zeros((2, 2)), y0=np.zeros(2)))
    gmap("b2.json", GaussianMap(K=np.diag([3.0, -1.0]), alpha=np.zeros((2, 2)), y0=np.zeros(2)))
    gmap("pt1.json", partial_transpose_example(1.0))
    gmap("qx1.json", q_exchange_example(1.0))
    s0 = random_symplectic(2, rng)
    gmap("twomode3s.json", GaussianMap(K=3.0 * s0, alpha=np.zeros((4, 4)), y0=np.zeros(4)))
    gmap(
        "nonprop.json",
        GaussianMap(K=np.diag([2.0, 2.0, 1.0, 1.0]), alpha=np.zeros((4, 4)), y0=np.zeros(4)),
    )
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    paths["broken.json"] = str(broken)
    paths["dir"] = str(tmp_path)
    return paths


def test_validate_vacuum_ok(fixtures, capsys):
    assert main(["validate", fixtures["vacuum.json"]]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_subvacuum_rejected(fixtures, capsys):
    assert main(["validate", fixtures["subvacuum.json"]]) == 2
    out = capsys.readouterr().out
    assert "invalid" in out


def test_validate_broken_file_is_schema_error(fixtures, capsys):
    assert main(["validate", fixtures["broken.json"]]) == 1
    assert capsys.readouterr().err != ""


def test_validate_missing_file(fixtures):
    assert main(["validate", fixtures["dir"] + "/nope.json"]) == 1


def test_classify_dilatation_ok(fixtures, capsys):
    assert main(["classify", fixtures["dil2.json"]]) == 0
    out = capsys.readouterr().out
    assert "gaussian-to-gaussian: true" in out
    assert "completely positive: false" in out


def test_classify_contraction_fails_with_witness(fixtures, capsys, tmp_path):
    r = tmp_path / "contraction.json"
    assert main(["classify", fixtures["dil05.json"], "--report", str(r)]) == 2
    out = capsys.readouterr().out
    assert "gaussian-to-gaussian: false" in out
    doc = json.loads(r.read_text())
    assert doc["witness"] is not None
    assert doc["witness"]["objective"] < 0
    assert len(doc["witness"]["direction"]) == 4


def test_classify_counterexamples_succeed(fixtures):
    assert main(["classify", fixtures["pt1.json"]]) == 0
    assert main(["classify", fixtures["qx1.json"]]) == 0


def test_classify_budget_flag_parsed(fixtures, capsys, tmp_path):
    """The G2G-not-CP verdict needs no search settings, and comes with its certificate."""
    r = tmp_path / "qx1-report.json"
    assert main(["classify", fixtures["qx1.json"], "--report", str(r)]) == 0
    out = capsys.readouterr().out
    assert "gaussian-to-gaussian: true" in out
    assert "completely positive: false" in out
    assert "c*: " in out
    assert "h_upper: " in out and "interval: [" in out and "eigensolves: " in out
    doc = json.loads(r.read_text())
    assert doc["method"] == "concave_h_maximum"
    cert = doc["certificate"]
    assert cert["h_max"] >= -1e-9
    assert -1.0 <= cert["c_star"] <= 1.0
    assert cert["h_max"] <= cert["h_upper"] <= cert["h_max"] + 1e-12
    c_lo, c_hi = cert["interval"]
    assert -1.0 <= c_lo <= cert["c_star"] <= c_hi <= 1.0
    assert isinstance(cert["eigensolves"], int) and cert["eigensolves"] >= 2
    assert "seed" not in doc and "budget" not in doc


def test_classify_certificate_null_where_unsolved(fixtures, capsys, tmp_path):
    """A one-mode map carries the certificate of its solve; a map that is not
    G2G has an upper bound below zero and no interval."""
    r = tmp_path / "dil2-report.json"
    assert main(["classify", fixtures["dil2.json"], "--report", str(r)]) == 0
    assert "interval: [" in capsys.readouterr().out
    cert = json.loads(r.read_text())["certificate"]
    # D_K = 4 D and alpha = 0: h(c) = -|1 - 4c|, whose maximum is 0 at c = 0.25.
    assert cert["h_max"] == pytest.approx(0.0, abs=1e-12)
    assert cert["c_star"] == pytest.approx(0.25, abs=1e-12)
    c_lo, c_hi = cert["interval"]
    assert c_lo <= cert["c_star"] <= c_hi
    r = tmp_path / "nonprop-report.json"
    assert main(["classify", fixtures["nonprop.json"], "--report", str(r)]) == 2
    out = capsys.readouterr().out
    assert "h_upper: " in out and "interval" not in out
    doc = json.loads(r.read_text())
    cert = doc["certificate"]
    # D_K = diag(4 D, D): h(c) = -max(|1 - 4c|, |1 - c|), whose maximum is -0.6 at c = 0.4.
    assert cert["h_max"] == pytest.approx(-0.6, abs=1e-12)
    assert cert["c_star"] == pytest.approx(0.4, abs=1e-12)
    assert cert["h_max"] <= cert["h_upper"] < 0.0
    assert cert["interval"] is None
    assert cert["eigensolves"] >= 3
    assert doc["witness"]["objective"] == pytest.approx(-0.6, abs=1e-9)


def test_decompose_and_classify_solve_h_once(tmp_path, monkeypatch):
    """decompose reads its verdict and its factoring off one solve of h, and
    decides a one-mode map with the eigensolves of exactly one classify."""
    p = tmp_path / "trial17.json"
    save_map(p, seeded_map(3, 17))
    count = count_eigensolves(monkeypatch)
    assert main(["decompose", str(p)]) == 0
    assert count[0] <= 50
    count[0] = 0
    assert main(["classify", str(p)]) == 0
    assert count[0] <= 45
    p1 = tmp_path / "one-mode.json"
    save_map(p1, GaussianMap(K=np.diag([3.0, -1.0]), alpha=0.5 * np.eye(2)))
    count[0] = 0
    assert main(["decompose", str(p1)]) == 0
    decompose_solves = count[0]
    count[0] = 0
    assert main(["classify", str(p1)]) == 0
    assert decompose_solves == count[0] >= 3


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported only where williamson needs it, so the CLI starts without it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gaussmap.__file__)))
    code = "import sys, gaussmap.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_classify_bad_budget_flag(fixtures):
    """The search settings are gone: argparse rejects them."""
    for flag in ("--budget", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["classify", fixtures["qx1.json"], flag, "1"])
        assert exc.value.code == 2


def test_classify_report_deterministic_modulo_timestamp(fixtures, tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["classify", fixtures["pt1.json"], "--report", str(r1)]) == 0
    assert main(["classify", fixtures["pt1.json"], "--report", str(r2)]) == 0

    def stripped(p):
        return [line for line in p.read_text().splitlines() if '"timestamp"' not in line]

    assert stripped(r1) == stripped(r2)
    doc = json.loads(r1.read_text())
    assert doc["verdicts"]["is_g2g"] is True
    assert doc["verdicts"]["is_cp"] is False


def test_decompose_one_mode_normal_form(fixtures, capsys):
    assert main(["decompose", fixtures["b2.json"]]) == 0
    out = capsys.readouterr().out
    assert "dilatation_transpose_then_cp" in out
    assert "1.7320508" in out


def test_decompose_rejects_non_g2g_one_mode(fixtures):
    assert main(["decompose", fixtures["dil05.json"]]) == 2


def test_decompose_noiseless_two_mode(fixtures, capsys):
    assert main(["decompose", fixtures["twomode3s.json"]]) == 0
    out = capsys.readouterr().out
    assert "kind: homogeneous" in out
    scale_line = [line for line in out.splitlines() if line.startswith("scale:")][0]
    assert float(scale_line.split()[1]) == pytest.approx(3.0, rel=1e-9)


def test_decompose_noiseless_non_proportional(fixtures):
    assert main(["decompose", fixtures["nonprop.json"]]) == 2


def test_decompose_counterexamples_have_no_factoring(fixtures, capsys):
    assert main(["decompose", fixtures["pt1.json"]]) == 4
    out = capsys.readouterr().out
    assert "does not factor" in out
    assert main(["decompose", fixtures["qx1.json"]]) == 4


def test_decompose_report_payload(fixtures, tmp_path):
    r = tmp_path / "nf.json"
    assert main(["decompose", fixtures["b2.json"], "--report", str(r)]) == 0
    doc = json.loads(r.read_text())
    nf = doc["normal_form"]
    assert nf["kind"] == "dilatation_transpose_then_cp"
    assert nf["lam"] == pytest.approx(np.sqrt(3.0))
    assert nf["transposed"] is True
    assert doc["recomposition_residual"] <= 1e-12


def test_apply_dilatation_to_vacuum(fixtures, capsys):
    assert main(["apply", fixtures["dil2.json"], fixtures["vacuum.json"]]) == 0
    out = capsys.readouterr().out
    assert "valid" in out
    assert "4" in out


def test_apply_contraction_yields_invalid_output(fixtures, capsys):
    assert main(["apply", fixtures["dil05.json"], fixtures["vacuum.json"]]) == 2
    assert "invalid output covariance" in capsys.readouterr().out


def test_apply_dimension_mismatch(fixtures):
    assert main(["apply", fixtures["dil2.json"], fixtures["vac2.json"]]) == 1


def test_apply_accepts_invalid_input_state(fixtures):
    # Input validity is not required; the dilatation repairs the subvacuum state.
    assert main(["apply", fixtures["dil2.json"], fixtures["subvacuum.json"]]) == 0


def test_apply_report_moments(fixtures, tmp_path):
    r = tmp_path / "apply.json"
    assert main(["apply", fixtures["dil2.json"], fixtures["vacuum.json"], "--report", str(r)]) == 0
    doc = json.loads(r.read_text())
    assert np.allclose(doc["output_cov"], 4.0 * np.eye(2))
    assert np.allclose(doc["output_mean"], np.zeros(2))


def test_probe_pure_fock_state(capsys):
    assert main(["probe", "--weights", "0,0,0,1", "--lambda", "2"]) == 0
    out = capsys.readouterr().out
    assert "certified_not_in_convex_hull" in out


def test_probe_vacuum(capsys):
    assert main(["probe", "--weights", "1", "--lambda", "2"]) == 0
    assert "no_negativity_found" in capsys.readouterr().out


def test_probe_bad_weights(capsys):
    assert main(["probe", "--weights", "0.5,0.2", "--lambda", "2"]) == 1


def test_probe_csv_output(tmp_path):
    csv = tmp_path / "row.csv"
    assert main(["probe", "--weights", "0,1", "--lambda", "2", "--csv", str(csv)]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "n"
    first = lines[1].split(",")
    assert first[0] == "0"
    # Values are written with full float precision and round-trip exactly.
    assert float(first[1]) == -0.24


def test_limit_check_curve(capsys):
    assert main(["limit-check", "--lambda", "2", "--k", "1", "--m-list", "100,1000"]) == 0
    out = capsys.readouterr().out
    assert "0.134807" in out
    assert "0.061882" in out


def test_limit_check_csv(tmp_path):
    csv = tmp_path / "curve.csv"
    code = main(
        ["limit-check", "--lambda", "2", "--k", "0.5", "--m-list", "100,1000,10000", "--csv", str(csv)]
    )
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 4
    errs = [float(line.split(",")[1]) for line in lines[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_limit_check_bad_m_list():
    assert main(["limit-check", "--lambda", "2", "--k", "1", "--m-list", "10,x"]) == 1


def test_map_files_round_trip(tmp_path):
    gmap = q_exchange_example(2.0)
    p = tmp_path / "map.json"
    save_map(p, gmap)
    back = load_map(p)
    assert np.array_equal(back.K, gmap.K)
    assert np.array_equal(back.alpha, gmap.alpha)
    assert np.array_equal(back.y0, gmap.y0)


def test_map_file_y0_optional(tmp_path):
    doc = {
        "format_version": 1,
        "n": 1,
        "K": [[1.0, 0.0], [0.0, 1.0]],
        "alpha": [[0.0, 0.0], [0.0, 0.0]],
    }
    p = tmp_path / "noy0.json"
    p.write_text(json.dumps(doc))
    gmap = load_map(p)
    assert np.array_equal(gmap.y0, np.zeros(2))


def test_map_file_bad_version_rejected(tmp_path):
    doc = {"format_version": 99, "n": 1, "K": [[1, 0], [0, 1]], "alpha": [[0, 0], [0, 0]]}
    p = tmp_path / "badv.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_map(p)


def test_map_file_shape_mismatch_rejected(tmp_path):
    doc = {"format_version": 1, "n": 2, "K": [[1, 0], [0, 1]], "alpha": [[0, 0], [0, 0]]}
    p = tmp_path / "badshape.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_map(p)


def _write_non_finite(path, field, index, token):
    """Set one entry of a JSON file to the literal NaN, Infinity or -Infinity."""
    doc = json.loads(path.read_text())
    target = doc[field]
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = float(token.replace("Infinity", "inf"))
    path.write_text(json.dumps(doc))
    assert token in path.read_text()


NON_FINITE_MAPS = [
    ("alpha", 2, (1, 1), "NaN"),
    ("K", 1, (0, 0), "NaN"),
    ("K", 1, (1, 0), "Infinity"),
    ("y0", 1, (0,), "-Infinity"),
]


@pytest.mark.parametrize("field, n, index, token", NON_FINITE_MAPS)
@pytest.mark.parametrize("command", ["classify", "decompose"])
def test_map_file_non_finite_is_schema_error(tmp_path, capsys, field, n, index, token, command):
    """NaN and Infinity, which Python's json accepts, are rejected with exit 1."""
    p = tmp_path / "bad-map.json"
    save_map(p, dilatation(2.0, n))
    _write_non_finite(p, field, index, token)
    assert main([command, str(p)]) == 1
    captured = capsys.readouterr()
    assert f"field '{field}' has a NaN or infinite entry" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field, index, token", [("cov", (0, 1), "NaN"), ("mean", (1,), "Infinity")])
def test_state_file_non_finite_is_schema_error(fixtures, tmp_path, capsys, field, index, token):
    p = tmp_path / "bad-state.json"
    save_state(p, np.zeros(2), np.eye(2))
    _write_non_finite(p, field, index, token)
    assert main(["validate", str(p)]) == 1
    assert main(["apply", fixtures["dil2.json"], str(p)]) == 1
    assert capsys.readouterr().err.count(f"field '{field}' has a NaN or infinite entry") == 2
