import argparse
import ast
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gaussmap
from gaussmap import (
    GaussianMap,
    GaussianState,
    apply_map,
    classify,
    decompose,
    dilatation,
    partial_transpose_example,
    q_exchange_example,
    transposition_matrix,
)
from gaussmap.cli import COMMANDS, _parser, build_parser, main
from gaussmap.io import load_map, load_state_arrays, save_map, save_state, write_report
from helpers import count_eigensolves, random_symplectic, random_valid_cov, seeded_map


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
    # K D K.T overflows double precision: no verdict can be given.
    gmap("huge1.json", GaussianMap(K=1e154 * np.eye(2), alpha=np.zeros((2, 2))))
    gmap("huge2.json", GaussianMap(K=1e154 * np.eye(4), alpha=np.zeros((4, 4))))
    # A dilatation whose solve of h rejects it, with a witness of objective +1e300.
    gmap("huge150.json", GaussianMap(K=1e150 * np.eye(4), alpha=np.zeros((4, 4))))
    # K sigma K.T overflows double precision on any state.
    gmap("huger2.json", GaussianMap(K=1e155 * np.eye(4), alpha=np.zeros((4, 4))))
    # Noise near the largest double, whose symmetric part must not overflow.
    gmap("bigalpha.json", GaussianMap(K=np.eye(2), alpha=1.7e308 * np.eye(2)))
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
    """The runtime depends on numpy only, so the CLI starts without scipy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gaussmap.__file__)))
    code = "import sys, gaussmap.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_runtime_imports_only_numpy_and_the_standard_library():
    """Every import in the package is the standard library, numpy or gaussmap itself."""
    src = os.path.dirname(os.path.abspath(gaussmap.__file__))
    allowed = set(sys.stdlib_module_names) | {"numpy", "gaussmap"}
    foreign = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in allowed]
    assert foreign == []


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


def test_decompose_noiseless_non_proportional(fixtures, capsys):
    assert main(["decompose", fixtures["nonprop.json"]]) == 2
    assert "not proportional" in capsys.readouterr().out


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


def test_decompose_cli_matches_library(tmp_path):
    """The CLI prints and reports what decompose returns, with exit 0 for a
    normal form, 2 for a map that is not G2G and 4 for no factoring."""
    rng = np.random.default_rng(19)
    t1, t2 = transposition_matrix(1), transposition_matrix(2)
    maps = [
        GaussianMap(K=0.5 * random_symplectic(1, rng), alpha=np.eye(2)),
        GaussianMap(K=2.0 * random_symplectic(1, rng), alpha=0.3 * np.eye(2)),
        GaussianMap(K=random_symplectic(1, rng) @ t1, alpha=np.eye(2)),
        GaussianMap(K=3.0 * random_symplectic(1, rng) @ t1, alpha=np.zeros((2, 2))),
        dilatation(0.5, 1),
        GaussianMap(K=3.0 * random_symplectic(2, rng) @ t2, alpha=np.zeros((4, 4))),
        GaussianMap(K=np.diag([2.0, 2.0, 1.0, 1.0]), alpha=np.zeros((4, 4))),
        dilatation(0.5, 2),
        GaussianMap(K=0.6 * random_symplectic(2, rng, scale=0.3), alpha=np.eye(4)),
        GaussianMap(K=2.0 * random_symplectic(2, rng, scale=0.3) @ t2, alpha=4.0 * np.eye(4)),
        partial_transpose_example(2.0),
        q_exchange_example(0.5),
        seeded_map(2, 153),
        seeded_map(3, 17),
    ]
    outcomes = set()
    for i, gmap in enumerate(maps):
        p, r = tmp_path / f"m{i}.json", tmp_path / f"r{i}.json"
        save_map(p, gmap)
        code = main(["decompose", str(p), "--report", str(r)])
        nf = json.loads(r.read_text())["normal_form"]
        try:
            expected = decompose(load_map(p))
        except ValueError:
            assert (code, nf) == (2, None)
            outcomes.add("not_g2g")
            continue
        if expected is None:
            assert (code, nf) == (4, None)
            outcomes.add("no_factoring")
            continue
        assert code == 0
        got = (nf["kind"], nf["lam"], nf["transposed"])
        assert got == (expected.kind, expected.lam, expected.transposed)
        assert np.array_equal(nf["S"], expected.S)
        outcomes.add(expected.kind)
    assert outcomes == {
        "cp_only", "dilatation_then_cp", "transpose_then_cp", "dilatation_transpose_then_cp",
        "homogeneous", "homogeneous_factoring", "not_g2g", "no_factoring",
    }


def test_apply_dilatation_to_vacuum(fixtures, capsys):
    assert main(["apply", fixtures["dil2.json"], fixtures["vacuum.json"]]) == 0
    out = capsys.readouterr().out
    assert "valid" in out
    assert "4" in out


def test_apply_contraction_yields_invalid_output(fixtures, capsys):
    assert main(["apply", fixtures["dil05.json"], fixtures["vacuum.json"]]) == 2
    assert "invalid output covariance" in capsys.readouterr().out


def test_apply_dimension_mismatch(fixtures, capsys):
    assert main(["apply", fixtures["dil2.json"], fixtures["vac2.json"]]) == 1
    assert capsys.readouterr().err == "apply: dimension mismatch (map has n = 1, state has n = 2)\n"


def test_apply_accepts_invalid_input_state(fixtures):
    # Input validity is not required; the dilatation repairs the subvacuum state.
    assert main(["apply", fixtures["dil2.json"], fixtures["subvacuum.json"]]) == 0


def test_apply_report_moments(fixtures, tmp_path):
    r = tmp_path / "apply.json"
    assert main(["apply", fixtures["dil2.json"], fixtures["vacuum.json"], "--report", str(r)]) == 0
    doc = json.loads(r.read_text())
    assert np.allclose(doc["output_cov"], 4.0 * np.eye(2))
    assert np.allclose(doc["output_mean"], np.zeros(2))


def test_apply_report_matches_apply_map_bit_for_bit(tmp_path):
    rng = np.random.default_rng(5)
    r = rng.standard_normal((4, 4))
    gmap = GaussianMap(K=random_symplectic(2, rng), alpha=r @ r.T, y0=rng.standard_normal(4))
    cov = random_valid_cov(2, rng)
    state = GaussianState(mean=rng.standard_normal(4), cov=0.5 * (cov + cov.T))
    save_map(tmp_path / "map.json", gmap)
    save_state(tmp_path / "state.json", state.mean, state.cov)
    report = tmp_path / "apply.json"
    args = ["apply", str(tmp_path / "map.json"), str(tmp_path / "state.json")]
    assert main(args + ["--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    mean, cov_out = apply_map(gmap, state)
    assert doc["output_mean"] == mean.tolist()
    assert doc["output_cov"] == cov_out.tolist()


def test_apply_zero_tol_on_rounded_asymmetric_product(tmp_path, capsys):
    """K sigma K^T + alpha comes out of float64 off symmetric in the last
    bits here; apply --tol 0 still decides validity and prints its normal
    output, with nothing on stderr."""
    save_map(tmp_path / "map.json",
             GaussianMap(K=[[0.1, 0.1], [0.1, 0.3]], alpha=np.eye(2), y0=np.zeros(2)))
    save_state(tmp_path / "state.json", np.zeros(2), np.array([[1.3, 0.1], [0.1, 0.9]]))
    report = tmp_path / "apply.json"
    args = ["apply", str(tmp_path / "map.json"), str(tmp_path / "state.json"), "--tol", "0"]
    assert main(args + ["--report", str(report)]) in (0, 2)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] in ("valid", "invalid output covariance")
    cov = np.array(json.loads(report.read_text())["output_cov"])
    assert np.array_equal(cov, cov.T)


def test_validate_decides_from_one_spectrum(tmp_path, monkeypatch, capsys):
    """validate reads the verdict off the spectrum it prints: one eigh of
    cov and one eigvalsh of the Hermitian matrix, and an indefinite cov
    stops after the first."""
    cases = {
        "valid": (np.diag([2.0, 0.6, 1.0, 1.0]), 0, "valid"),
        "lowdet": (np.array([[0.7, 0.1], [0.1, 0.9]]), 2,
                   "invalid: smallest symplectic eigenvalue below 1"),
        "indefinite": (np.diag([1.0, -1.0]), 2,
                       "invalid: matrix has a negative-definite direction (eigenvalue -1.000e+00)"),
    }
    for name, (cov, code, last) in cases.items():
        path = tmp_path / f"{name}.json"
        save_state(path, np.zeros(cov.shape[0]), cov)
        count = count_eigensolves(monkeypatch)
        got = main(["validate", str(path)])
        monkeypatch.undo()
        assert (got, capsys.readouterr().out.splitlines()[-1]) == (code, last), name
        assert count[0] == (1 if name == "indefinite" else 2), name


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


def test_limit_check_bad_m_list(capsys):
    """A list that int() cannot parse names --m-list and the text given."""
    for text in ("10,x", "10,abc", "1e3"):
        assert main(["limit-check", "--lambda", "2", "--k", "1", "--m-list", text]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"limit-check: --m-list must be a comma-separated list of integers, got {text!r}\n"
        )


@pytest.mark.parametrize(
    "argv, name",
    [
        (["probe", "--weights", "0.5,nan", "--lambda", "2"], "weights"),
        (["probe", "--weights=inf,0.5", "--lambda", "2"], "weights"),
        (["probe", "--weights", "0.5,0.5", "--lambda", "nan"], "lam"),
        (["probe", "--weights", "0.5,0.5", "--lambda", "inf"], "lam"),
        (["probe", "--weights", "0.5,0.5", "--lambda", "2", "--epsilon", "nan"], "eps"),
        (["probe", "--weights", "0.5,0.5", "--lambda", "2", "--epsilon", "inf"], "eps"),
        (["limit-check", "--lambda", "2", "--k", "nan", "--m-list", "10"], "k"),
        (["limit-check", "--lambda", "2", "--k=-inf", "--m-list", "10"], "k"),
        (["limit-check", "--lambda", "nan", "--k", "1", "--m-list", "10"], "lam"),
        (["limit-check", "--lambda", "inf", "--k", "1", "--m-list", "10"], "lam"),
    ],
)
def test_nonfinite_arguments_fail_with_one_line(capsys, argv, name):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"{argv[0]}: {name} must be finite")


_FILE_ARGS = {
    "validate": ["state.json"],
    "classify": ["map.json"],
    "decompose": ["map.json"],
    "apply": ["map.json", "state.json"],
}


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", ["validate", "classify", "decompose", "apply"])
def test_tol_that_is_not_finite_and_nonnegative_fails_with_one_line(tmp_path, capsys, command, tol):
    """The files do not exist: --tol is rejected before any of them is read."""
    files = [str(tmp_path / name) for name in _FILE_ARGS[command]]
    assert main([command, *files, f"--tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"{command}: --tol must be a finite number >= 0, got ")


_HEADERS = {
    "validate": (["vacuum.json"], {"input": "vacuum.json"}),
    "classify": (["dil2.json"], {"input": "dil2.json"}),
    "decompose": (["dil2.json"], {"input": "dil2.json"}),
    "apply": (["dil2.json", "vacuum.json"], {"input_map": "dil2.json", "input_state": "vacuum.json"}),
}


@pytest.mark.parametrize("command", ["validate", "classify", "decompose", "apply"])
def test_file_command_report_header(fixtures, tmp_path, command):
    """Every file command's report starts with the same header: the command,
    the input file or files, the version and the tolerance."""
    names, inputs = _HEADERS[command]
    r = tmp_path / "r.json"
    assert main([command, *(fixtures[n] for n in names), "--tol", "1e-7", "--report", str(r)]) == 0
    doc = json.loads(r.read_text())
    assert doc["command"] == command
    assert {key: doc[key] for key in inputs} == {key: fixtures[n] for key, n in inputs.items()}
    assert (doc["version"], doc["tol"]) == (gaussmap.__version__, 1e-7)
    other = {"input", "input_map", "input_state"} - set(inputs)
    assert not other & set(doc)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "vacuum.json", "--tol", "-1"],
        ["classify", "dil2.json", "--tol", "nan"],
        ["decompose", "missing.json"],
        ["validate", "missing.json"],
        ["classify", "broken.json"],
        ["apply", "dil2.json", "broken.json"],
        ["apply", "dil2.json", "vac2.json"],
        ["apply", "missing.json", "vacuum.json"],
        ["decompose", "dil2.json", "--tol", "inf"],
        ["apply", "dil2.json", "vacuum.json", "--tol", "-1"],
        ["classify", "huge1.json"],
        ["classify", "huge2.json"],
        ["decompose", "huge1.json"],
        ["decompose", "huge2.json"],
        ["probe", "--weights", "0.5,nan", "--lambda", "2"],
        ["probe", "--weights", "0,a", "--lambda", "2"],
        ["probe", "--weights", "0,1", "--lambda", "nan"],
        ["limit-check", "--lambda", "nan", "--k", "1", "--m-list", "10"],
        ["limit-check", "--lambda", "2", "--k", "1", "--m-list", ","],
        ["apply", "huger2.json", "vac2.json"],
        ["classify", "huge150.json"],
        ["decompose", "huge150.json"],
        ["probe", "--weights", "1e308,1e308", "--lambda", "2"],
        ["limit-check", "--lambda", "2", "--k", "1e300", "--m-list", "10"],
        ["limit-check", "--lambda", "2", "--k", "1", "--m-list", "99999999999999999999"],
        ["limit-check", "--lambda", "2", "--k", "1", "--m-list", "1" + "0" * 400],
    ],
)
def test_exit_1_writes_no_report(fixtures, tmp_path, capsys, argv):
    """A run that ends with exit 1 (bad --tol, missing or malformed file,
    dimension mismatch, a map that cannot be decided in double precision,
    a refused probe or limit-check argument, weights whose sum or a k or m
    whose limit error overflows) prints one line to stderr, with no warning,
    and writes no report, nor the CSV of probe and limit-check."""
    argv = [fixtures.get(a, os.path.join(fixtures["dir"], a)) if a.endswith(".json") else a for a in argv]
    r = tmp_path / "r.json"
    flag = "--csv" if argv[0] in ("probe", "limit-check") else "--report"
    assert main([*argv, flag, str(r)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"{argv[0]}: ")
    assert not r.exists()


def test_zero_tol_is_allowed(fixtures, capsys):
    """--tol 0 reaches the decision (classify may then say not G2G on rounding)."""
    assert main(["validate", fixtures["vacuum.json"], "--tol", "0"]) == 0
    assert main(["classify", fixtures["dil2.json"], "--tol", "0"]) in (0, 2)
    assert main(["decompose", fixtures["dil2.json"], "--tol", "0"]) in (0, 2)
    assert main(["apply", fixtures["dil2.json"], fixtures["vacuum.json"], "--tol", "0"]) == 0
    assert capsys.readouterr().err == ""


def test_limit_check_lam_beyond_double_precision_fails(capsys):
    """lam = 1e200 overflows lam * lam, so tau is NaN: one line naming lam, exit 1."""
    assert main(["limit-check", "--lambda", "1e200", "--k", "1", "--m-list", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("limit-check: lam = 1e+200 gives tau")


def test_probe_lam_beyond_the_tail_cutoff_limit_fails(capsys):
    """At lam = 1e7 tau is still below 1, but row 1 needs more than 10^7
    coefficients: one line naming lam and the limit, exit 1."""
    assert main(["probe", "--weights", "0,1", "--lambda", "1e7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("probe: |lam| = 1e+07 (tau = ")
    assert "more than 10^7 coefficients" in captured.err


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


_ONE_MODE_MAP = {"n": 1, "K": [[2.0, 0.0], [0.0, 2.0]], "alpha": [[0.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 1, "K": [[1, 0], [0, 1]]}, "missing field 'alpha'"),
        ({**_ONE_MODE_MAP, "K": [["a", 0], [0, 1]]}, "field 'K' is not a numeric array"),
        ({**_ONE_MODE_MAP, "y0": [[1, 2], [3]]}, "field 'y0' is not a numeric array"),
        ([1, 2], "top level must be a JSON object"),
        ({**_ONE_MODE_MAP, "n": 0}, "field 'n' must be a positive integer"),
        ({**_ONE_MODE_MAP, "n": True}, "field 'n' must be a positive integer"),
        ({**_ONE_MODE_MAP, "n": "1"}, "field 'n' must be a positive integer"),
        ({**_ONE_MODE_MAP, "n": 2}, "field 'K' has shape (2, 2), expected (4, 4)"),
        ({**_ONE_MODE_MAP, "alpha": [[1.0, 0.5], [0.0, 1.0]]}, "alpha must be symmetric within tolerance 1e-09"),
        ({**_ONE_MODE_MAP, "format_version": 2}, "unsupported format_version 2"),
        ({**_ONE_MODE_MAP, "format_version": True}, "unsupported format_version True"),
        ({**_ONE_MODE_MAP, "format_version": 1.0}, "unsupported format_version 1.0"),
    ],
)
@pytest.mark.parametrize("command", ["classify", "decompose"])
def test_malformed_map_file_fails_with_one_line(tmp_path, capsys, doc, message, command):
    """Each schema error of a map file is exit 1 and one stderr line that
    names the file; an asymmetric alpha is reported by GaussianMap itself."""
    p = tmp_path / "map.json"
    p.write_text(json.dumps(doc))
    assert main([command, str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command}: {p}: {message}\n"


_ONE_MODE_STATE = {"n": 1, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 1, "mean": [0.0, 0.0]}, "missing field 'cov'"),
        ([1, 2], "top level must be a JSON object"),
        ({**_ONE_MODE_STATE, "n": True}, "field 'n' must be a positive integer"),
        ({**_ONE_MODE_STATE, "cov": [[1.0, 0.5], [0.0, 1.0]]}, "cov must be symmetric within tolerance 1e-09"),
        ({**_ONE_MODE_STATE, "format_version": 2}, "unsupported format_version 2"),
        ({**_ONE_MODE_STATE, "format_version": True}, "unsupported format_version True"),
        ({**_ONE_MODE_STATE, "format_version": 1.0}, "unsupported format_version 1.0"),
    ],
)
def test_malformed_state_file_fails_with_one_line(fixtures, tmp_path, capsys, doc, message):
    """State files go through the map files' opener: each schema error is
    exit 1 and one stderr line that names the file, for validate and apply."""
    p = tmp_path / "state.json"
    p.write_text(json.dumps(doc))
    for argv in (["validate", str(p)], ["apply", fixtures["dil2.json"], str(p)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{argv[0]}: {p}: {message}\n"


def test_apply_output_near_the_largest_double(fixtures, capsys):
    """The output covariance's symmetric part is halved before it is summed:
    K = 1e154 I on the two-mode vacuum gives the finite 1e308 I and noise of
    1.7e308 I prints no inf, each with exit 0 and nothing on stderr. K = 1e155 I
    overflows, and its one line names max |K|."""
    for name, state in (("huge2.json", "vac2.json"), ("bigalpha.json", "vacuum.json")):
        assert main(["apply", fixtures[name], fixtures[state]]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "inf" not in captured.out
        assert captured.out.endswith("\nvalid\n")
    assert main(["apply", fixtures["huger2.json"], fixtures["vac2.json"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "apply: output moments are not finite in double precision (max |K| = 1.000e+155)\n"


def test_noise_near_the_largest_double_gets_a_verdict(fixtures, capsys):
    """alpha = 1.7e308 I is stored finite, so classify decides the map
    (completely positive) where it once failed on an infinite alpha."""
    assert np.isfinite(load_map(fixtures["bigalpha.json"]).alpha).all()
    assert main(["classify", fixtures["bigalpha.json"]]) == 0
    captured = capsys.readouterr()
    assert "method: cp_implies_g2g\n" in captured.out and captured.err == ""


def test_reports_write_complex_arrays_interleaved(fixtures, tmp_path):
    """The writer turns a complex array into [re w_1, im w_1, ...]: a classify
    report's witness direction is the library's witness, interleaved."""
    p = tmp_path / "report.json"
    write_report(p, {"w": np.array([1 + 2j, complex(-0.0, 3.0)]), "rows": np.array([[1j, 2], [3, 4j]])[:, 0]})
    doc = json.loads(p.read_text())
    assert doc["w"] == [1.0, 2.0, -0.0, 3.0] and str(doc["w"][2]) == "-0.0"
    assert doc["rows"] == [0.0, 1.0, 3.0, 0.0]
    assert main(["classify", fixtures["dil05.json"], "--report", str(p)]) == 2
    w = classify(dilatation(0.5, 1)).witness.w
    assert json.loads(p.read_text())["witness"]["direction"] == [x for z in w for x in (z.real, z.imag)]


@pytest.mark.parametrize("eps", ["0", "-1"])
def test_probe_nonpositive_epsilon_fails_with_one_line(capsys, eps):
    assert main(["probe", "--weights", "0,1", "--lambda", "2", "--epsilon", eps]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"probe: precision must be positive, got {float(eps)}\n"


def test_limit_check_empty_m_list_fails_with_one_line(capsys):
    assert main(["limit-check", "--lambda", "2", "--k", "1", "--m-list", ","]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "limit-check: --m-list must contain at least one index\n"


def _json_layout(doc):
    """The report and file layout: sorted keys, 2-space indent, trailing newline."""
    buf = io.StringIO()
    json.dump(doc, buf, indent=2, sort_keys=True)
    buf.write("\n")
    return buf.getvalue()


def test_save_state_round_trips_through_the_loader(tmp_path):
    """What save_state writes, load_state_arrays reads back unchanged, a
    subvacuum cov and a column mean included."""
    rng = np.random.default_rng(5)
    cases = [(rng.normal(size=(2 * n, 1)), random_valid_cov(n, rng)) for n in (1, 2, 3)]
    cases.append((np.zeros(2), 0.5 * np.eye(2)))
    for mean, cov in cases:
        p = tmp_path / "state.json"
        save_state(p, mean, cov)
        loaded_mean, loaded_cov = load_state_arrays(p)
        assert np.array_equal(loaded_mean, np.ravel(mean))
        assert np.array_equal(loaded_cov, 0.5 * (cov + cov.T))


@pytest.mark.parametrize(
    "mean, cov, message",
    [
        (np.zeros(3), np.eye(2), "mean has shape (3,), expected (2,)"),
        (np.zeros(2), np.eye(4), "mean has shape (2,), expected (4,)"),
        (np.zeros(3), np.eye(3), "cov has shape (3, 3), expected a square matrix"),
        (np.zeros(2), [[1.0, 0.5], [0.0, 1.0]], "cov must be symmetric within tolerance 1e-09"),
        (np.zeros(2), [[1.0, float("nan")], [0.0, 1.0]], "cov has a NaN or infinite entry"),
        ([0.0, float("nan")], np.eye(2), "mean has a NaN or infinite entry"),
    ],
)
def test_save_state_refuses_what_the_loader_refuses(tmp_path, mean, cov, message):
    """The loader's rules are checked before the file is opened, so no file is left."""
    p = tmp_path / "state.json"
    with pytest.raises(ValueError) as raised:
        save_state(p, mean, cov)
    assert str(raised.value).startswith(message)
    assert not p.exists()


def test_json_files_keep_their_layout(tmp_path):
    """Maps, states and reports are written byte for byte in one layout."""
    p = tmp_path / "state.json"
    save_state(p, [0.0, 0.5], np.diag([1.0, 2.0]))
    assert p.read_bytes() == (
        b'{\n  "cov": [\n    [\n      1.0,\n      0.0\n    ],\n    [\n      0.0,\n'
        b'      2.0\n    ]\n  ],\n  "format_version": 1,\n  "mean": [\n    0.0,\n'
        b'    0.5\n  ],\n  "n": 1\n}\n'
    )
    gmap = q_exchange_example(2.0)
    p = tmp_path / "map.json"
    save_map(p, gmap)
    doc = {"format_version": 1, "n": 2, "K": gmap.K.tolist(), "alpha": gmap.alpha.tolist(),
           "y0": gmap.y0.tolist()}
    assert p.read_text(encoding="utf-8") == _json_layout(doc)
    p = tmp_path / "report.json"
    write_report(p, {"command": "x", "values": np.arange(3.0), "flag": np.bool_(True), "n": np.int64(2)})
    text = p.read_text(encoding="utf-8")
    doc = {"command": "x", "values": [0.0, 1.0, 2.0], "flag": True, "n": 2,
           "timestamp": json.loads(text)["timestamp"]}
    assert text == _json_layout(doc)


def _command_argvs(paths):
    return [
        ["validate", paths["vacuum.json"]],
        ["classify", paths["dil2.json"]],
        ["decompose", paths["dil2.json"]],
        ["apply", paths["dil2.json"], paths["vacuum.json"]],
        ["probe", "--weights", "0,1", "--lambda", "2"],
        ["limit-check", "--lambda", "2", "--k", "0.5", "--m-list", "10"],
    ]


def test_command_call_builds_one_parser(fixtures, monkeypatch, capsys):
    """The first call of a command in a process builds that command's parser
    and no other, and a repeat builds none (the full parser is seven: the
    top level and six subparsers)."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _parser.cache_clear()
    for argv in _command_argvs(fixtures):
        built.clear()
        assert main(argv) in (0, 2)
        assert built == [f"gaussmap {argv[0]}"]
        built.clear()
        assert main(argv) in (0, 2)
        assert built == []
    built.clear()
    build_parser()
    assert len(built) == 7


def test_reused_parser_carries_nothing_between_calls(fixtures, tmp_path, monkeypatch, capsys):
    """classify's parser, reused by four calls in one process, gives each the
    exit code and output of the same call in a fresh interpreter: --tol and
    --report of one call do not reach the next, nor does a usage error."""
    monkeypatch.setenv("COLUMNS", "80")
    m, r1, r2 = fixtures["dil2.json"], tmp_path / "r1.json", tmp_path / "r2.json"
    calls = [
        ["classify", m, "--tol", "1e-6", "--report", str(r1)],
        ["classify", m, "--report", str(r2)],
        ["classify", m, "--tol", "abc"],
        ["classify", m],
    ]

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    _parser.cache_clear()
    seen = [in_process(argv) for argv in calls[:3]]
    assert [code for code, _, _ in seen] == [0, 0, 2]
    assert json.loads(r1.read_text(encoding="utf-8"))["tol"] == 1e-6
    assert json.loads(r2.read_text(encoding="utf-8"))["tol"] == 1e-9
    r1.unlink()
    r2.unlink()
    before = sorted(os.listdir(tmp_path))
    seen.append(in_process(calls[3]))
    assert seen[3][0] == 0 and sorted(os.listdir(tmp_path)) == before

    src = os.path.dirname(os.path.dirname(os.path.abspath(gaussmap.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, got in zip(calls, seen):
        fresh = subprocess.run([sys.executable, "-m", "gaussmap.cli", *argv],
                               env=env, capture_output=True, text=True)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def _valid_argvs(paths):
    m, s, r = paths["dil2.json"], paths["vacuum.json"], os.path.join(paths["dir"], "r.json")
    return _command_argvs(paths) + [
        ["validate", s, "--tol", "1e-6", "--report", r],
        ["validate", "--tol=0.5", s],
        ["classify", m, "--tol", "1e-8", "--report", r],
        ["classify", "--rep", r, m],
        ["classify", "--", m],
        ["decompose", m, "--report", r, "--tol", "2e-9"],
        ["apply", m, s, "--tol", "1e-7", "--report", r],
        ["apply", "--tol", "1e-7", m, s],
        ["probe", "--weights", "0.5,0.5", "--lambda", "-1.5", "--epsilon", "1e-6", "--csv", r],
        ["probe", "--lambda=3", "--weights=1"],
        ["limit-check", "--m-list", "1,2", "--k", "-0.5", "--lambda", "2", "--csv", r],
    ]


def test_one_parser_namespace_matches_full_parser(fixtures, monkeypatch):
    """main hands each command's handler the namespace of build_parser's
    subparser, without its command entry."""
    for argv in _valid_argvs(fixtures):
        expected = vars(build_parser().parse_args(argv))
        assert expected.pop("command") == argv[0]
        seen = []
        help_text, add_arguments, _ = COMMANDS[argv[0]]
        monkeypatch.setitem(COMMANDS, argv[0], (help_text, add_arguments, lambda a: seen.append(a)))
        main(argv)
        assert len(seen) == 1 and vars(seen[0]) == expected, argv


def _exit(call, capsys):
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify"],
        ["apply", "MAP"],
        ["classify", "MAP", "--budget", "1"],
        ["validate", "STATE", "--seed"],
        ["classify", "MAP", "--version"],
        ["decompose", "MAP", "extra"],
        ["classify", "MAP", "--tol", "abc"],
        ["classify", "MAP", "--tol"],
        ["probe", "--weights", "1"],
        ["probe", "--weights", "1", "--lambda", "2", "--bogus"],
        ["limit-check", "--lambda", "x", "--k", "1", "--m-list", "1"],
    ],
)
def test_bad_arguments_fail_as_full_parser(fixtures, capsys, argv):
    """Usage errors keep the full parser's exit code and standard error,
    including the top-level usage for an unrecognized argument."""
    argv = [{"MAP": fixtures["dil2.json"], "STATE": fixtures["vacuum.json"]}.get(a, a) for a in argv]
    code, out, err = _exit(lambda: main(argv), capsys)
    assert (code, out, err) == _exit(lambda: build_parser().parse_args(argv), capsys)
    assert code == 2 and "error: " in err


def test_help_version_and_missing_command(capsys):
    code, out, _ = _exit(lambda: main(["--help"]), capsys)
    assert code == 0
    for name in ("validate", "classify", "decompose", "apply", "probe", "limit-check"):
        assert f"    {name} " in out and COMMANDS[name][0] in out
    assert _exit(lambda: main(["--version"]), capsys)[:2] == (0, f"gaussmap {gaussmap.__version__}\n")
    code, out, _ = _exit(lambda: main(["classify", "--help"]), capsys)
    assert code == 0 and out.startswith("usage: gaussmap classify [-h] [--tol TOL] [--report REPORT] map")
    assert _exit(lambda: main([]), capsys)[0] == 2
    code, _, err = _exit(lambda: main(["bogus"]), capsys)
    assert code == 2 and "invalid choice: 'bogus'" in err
