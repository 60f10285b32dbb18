"""Seeded inputs, operations and output checks for the four workloads.

A workload is one round of operations, built once from the seed and then
repeated unchanged. Each operation is one call into gaussmap: a
`gaussmap.cli.main` invocation for the map workloads, one `fockprobe`
function for the Fock workloads. Each carries a check that compares the
output with the independent computations in `oracles.py` and returns a
reason string when the output is wrong.

Input sizes and class counts are fixed per workload; the seed draws the
values (matrices, symplectic conjugations, weights, small offsets of
the Fock indices), so every seed costs about the same and every class
keeps its share.
"""

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

import oracles as O

EPS64 = np.finfo(float).eps
# Relative slack for identities checked in float64 (recomposition, apply).
REL_TOL = 1e-9
# The program's default truncation precision for Fock rows and probes.
FOCK_EPS = 1e-12


@dataclass
class Op:
    """One operation of a round.

    label names the input class (used to place the latency median);
    run performs the call and returns its output; check returns None if
    the output is right and a reason otherwise. A fault operation is one
    of the named inputs on which the program is known to be wrong: its
    failed check is expected and counted, not treated as a regression.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    fault: bool = False
    cache_check: bool = False


# ---------------------------------------------------------------- inputs


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _sl2(rng, squeeze=(0.5, 2.0)):
    """Random 2x2 matrix of determinant one: rotation, squeeze, rotation."""
    s = rng.uniform(*squeeze)
    return _rot(rng.uniform(0, 2 * math.pi)) @ np.diag([s, 1.0 / s]) @ _rot(
        rng.uniform(0, 2 * math.pi)
    )


def _symplectic(n, rng, scale=0.3):
    """exp(Delta H) with H symmetric is symplectic."""
    h = rng.standard_normal((2 * n, 2 * n)) * scale
    return expm(O.omega(n) @ (h + h.T))


def _psd(d, rng, scale=0.3):
    r = rng.standard_normal((d, d)) * scale
    return r @ r.T


def _cp_channel(n, rng, margin=0.1):
    """Random CP channel: alpha - i(Delta_K - Delta) >= margin."""
    d = 2 * n
    K = rng.standard_normal((d, d)) * 0.5
    top = np.linalg.eigvalsh(1j * (K @ O.omega(n) @ K.T - O.omega(n)))[-1]
    return K, _psd(d, rng) + (top + margin) * np.eye(d)


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _map_doc(K, alpha, y0):
    doc = {"format_version": 1, "n": K.shape[0] // 2, "K": K.tolist(), "alpha": alpha.tolist()}
    if y0 is not None:
        doc["y0"] = y0.tolist()
    return doc


def _read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b, scale=1.0):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= REL_TOL * max(
        1.0, scale, float(np.max(np.abs(b)))
    )


class CliRunner:
    """Calls gaussmap.cli.main in-process with stdout and stderr captured.

    The module attribute is looked up on every call, so a traced run sees
    the patched function.
    """

    def __init__(self):
        self.cli = importlib.import_module("gaussmap.cli")
        self.sink = io.StringIO()

    def __call__(self, argv):
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            return self.cli.main(argv)


def _cli_op(runner, label, argv, report, check, fault=False):
    def run():
        return runner(argv + ["--report", report])

    def checked(code):
        # The report is removed once read, so a call that writes none
        # cannot be checked against an earlier call's report.
        try:
            doc = _read_report(report)
            os.remove(report)
        except (OSError, ValueError) as exc:
            return f"{label}: exit {code}, no readable report ({exc})"
        return check(code, doc)

    return Op(label=label, run=run, check=checked, fault=fault)


# ---------------------------------------------------------- onemode-files

DET_RANGES = {
    "cp_only": (0.2, 0.8),
    "dilatation_then_cp": (1.3, 3.0),
    "transpose_then_cp": (-0.8, -0.5),
    "dilatation_transpose_then_cp": (-3.0, -1.3),
}

# (det K range, verdict class, maps per round): 8 CP, 8 G2G but not CP and
# 8 not G2G. For 0 <= det K <= 1 the G2G and CP thresholds coincide, so that
# range has no G2G-but-not-CP maps.
ONEMODE_MIX = [
    ("cp_only", "cp", 2),
    ("cp_only", "not_g2g", 3),
    ("dilatation_then_cp", "cp", 2),
    ("dilatation_then_cp", "g2g", 3),
    ("dilatation_then_cp", "not_g2g", 1),
    ("transpose_then_cp", "cp", 2),
    ("transpose_then_cp", "g2g", 3),
    ("transpose_then_cp", "not_g2g", 3),
    ("dilatation_transpose_then_cp", "cp", 2),
    ("dilatation_transpose_then_cp", "g2g", 2),
    ("dilatation_transpose_then_cp", "not_g2g", 1),
]


def _one_mode_alpha(rng, det_k, verdict):
    """alpha whose sqrt(det) sits well inside the wanted verdict class."""
    g = max(0.0, 1.0 - abs(det_k))
    c = abs(1.0 - det_k)
    q = _rot(rng.uniform(0, 2 * math.pi))
    if verdict == "not_g2g" and g == 0.0:
        eig = [rng.uniform(0.3, 1.5), -rng.uniform(0.2, 1.0)]
        return q @ np.diag(eig) @ q.T
    if verdict == "cp":
        root = c * rng.uniform(1.3, 2.0)
    elif verdict == "g2g":
        root = rng.uniform(max(1.3 * g, 0.2 * c), 0.7 * c)
    else:
        root = g * rng.uniform(0.2, 0.7)
    s = rng.uniform(1.0, 2.0)
    return q @ np.diag([root * s, root / s]) @ q.T


def _one_mode_map(rng, kind, verdict):
    det_k = rng.uniform(*DET_RANGES[kind])
    K = math.sqrt(abs(det_k)) * _sl2(rng)
    if det_k < 0:
        K = K @ O.transpose_matrix(1)
    alpha = _one_mode_alpha(rng, det_k, verdict)
    g2g, cp, _, _ = O.one_mode_class(K, alpha)
    if (g2g, cp) != {"cp": (True, True), "g2g": (True, False), "not_g2g": (False, False)}[verdict]:
        raise RuntimeError(f"generator drew a {kind}/{verdict} map of the wrong class")
    return K, alpha


def _one_mode_cov(rng, valid):
    """One-mode covariance: valid (det >= 1.2), PSD with det < 0.8, or indefinite."""
    q = _sl2(rng)
    if valid == "valid":
        nu = rng.uniform(1.1, 2.5)
        return q @ (nu * np.eye(2)) @ q.T
    if valid == "low_det":
        nu = rng.uniform(0.45, 0.85)
        return q @ (nu * np.eye(2)) @ q.T
    r = _rot(rng.uniform(0, 2 * math.pi))
    return r @ np.diag([rng.uniform(0.5, 2.0), -rng.uniform(0.1, 1.0)]) @ r.T


def _away_from_validity_edge(cov):
    w = np.linalg.eigvalsh(cov)
    return abs(w[0]) > 0.05 and abs(math.sqrt(abs(np.linalg.det(cov))) - 1.0) > 0.05


def _check_witness(doc, K, alpha):
    witness = doc.get("witness")
    if witness is None:
        return None
    v = np.asarray(witness["direction"], dtype=float)
    w = v[0::2] + 1j * v[1::2]
    value = O.direction_objective(K, alpha, w / np.linalg.norm(w))
    if not value < 0.0:
        return f"witness objective {value:.3e} is not negative"
    return None


def _onemode_classify_check(K, alpha, label):
    g2g, cp, psd, _ = O.one_mode_class(K, alpha)

    def check(code, doc):
        v = doc.get("verdicts", {})
        want = (g2g, cp, psd, 0 if g2g else 2)
        got = (v.get("is_g2g"), v.get("is_cp"), v.get("is_classical_g2g"), code)
        if got != want:
            return f"{label}: (g2g, cp, classical, exit) {got}, expected {want}"
        if not g2g:
            if doc.get("witness") is None:
                return f"{label}: no witness for a map that is not G2G"
            return _check_witness(doc, K, alpha)
        return None

    return check


def _onemode_decompose_check(K, alpha, y0, kind, label):
    g2g = O.one_mode_class(K, alpha)[0]
    T = O.transpose_matrix(1)

    def check(code, doc):
        nf = doc.get("normal_form")
        if not g2g:
            if code != 2 or nf is not None:
                return f"{label}: exit {code} with a normal form for a map that is not G2G"
            return None
        if code != 0 or nf is None:
            return f"{label}: exit {code} without a normal form"
        if nf["kind"] != kind:
            return f"{label}: kind {nf['kind']}, expected {kind}"
        S = np.asarray(nf["S"])
        recomposed = nf["lam"] * S @ (T if nf["transposed"] else np.eye(2))
        if not _close(recomposed, K):
            return f"{label}: lam S T^b does not recompose K"
        if not O.one_mode_class(S, np.asarray(nf["alpha"]))[1]:
            return f"{label}: residual map is not CP"
        if not _close(nf["y0"], y0):
            return f"{label}: residual y0 differs from the map's"
        return None

    return check


def _onemode_apply_check(K, alpha, y0, mean, cov, label):
    out_mean = K @ mean + y0
    out_cov = K @ cov @ K.T + alpha
    valid = O.one_mode_state_valid(out_cov)

    def check(code, doc):
        if code != (0 if valid else 2) or doc.get("valid") != valid:
            return f"{label}: exit {code}, valid {doc.get('valid')}, expected {valid}"
        if not _close(doc["output_mean"], out_mean) or not _close(doc["output_cov"], out_cov):
            return f"{label}: output moments differ from K x + y0, K cov K^T + alpha"
        return None

    return check


def _onemode_validate_check(cov, label):
    valid = O.one_mode_state_valid(cov)
    psd = float(np.linalg.eigvalsh(cov)[0]) >= 0.0

    def check(code, doc):
        if code != (0 if valid else 2) or doc.get("valid") != valid:
            return f"{label}: exit {code}, valid {doc.get('valid')}, expected {valid}"
        nu = doc.get("symplectic_eigenvalues")
        if psd:
            if nu is None or not _close(nu, [math.sqrt(np.linalg.det(cov))]):
                return f"{label}: symplectic eigenvalue {nu}, expected sqrt(det cov)"
        elif nu is not None:
            return f"{label}: symplectic eigenvalues reported for an indefinite matrix"
        return None

    return check


def build_onemode(rng, workdir, smoke):
    runner = CliRunner()
    ops = []
    mix = [(k, v, 1) for k, v, _ in ONEMODE_MIX] if smoke else ONEMODE_MIX
    index = 0
    for kind, verdict, count in mix:
        for _ in range(count):
            K, alpha = _one_mode_map(rng, kind, verdict)
            # A quarter of the files leave y0 out, which means zero displacement.
            y0 = None if rng.random() < 0.25 else rng.uniform(-1, 1, 2)
            y0v = np.zeros(2) if y0 is None else y0
            while True:
                mean, cov = rng.uniform(-1, 1, 2), _one_mode_cov(rng, "valid")
                if _away_from_validity_edge(K @ cov @ K.T + alpha):
                    break
            mpath = os.path.join(workdir, f"map{index}.json")
            spath = os.path.join(workdir, f"state{index}.json")
            rpath = os.path.join(workdir, f"report{index}.json")
            _write_json(mpath, _map_doc(K, alpha, y0))
            _write_json(spath, {"format_version": 1, "n": 1, "mean": mean.tolist(), "cov": cov.tolist()})
            tag = f"{kind}/{verdict}"
            ops.append(_cli_op(runner, f"classify/{tag}", ["classify", mpath], rpath,
                               _onemode_classify_check(K, alpha, f"classify/{tag}")))
            ops.append(_cli_op(runner, f"decompose/{tag}", ["decompose", mpath], rpath,
                               _onemode_decompose_check(K, alpha, y0v, kind, f"decompose/{tag}")))
            ops.append(_cli_op(runner, f"apply/{tag}", ["apply", mpath, spath], rpath,
                               _onemode_apply_check(K, alpha, y0v, mean, cov, f"apply/{tag}")))
            index += 1
    states = ["valid", "low_det", "indefinite"] * (1 if smoke else 4)
    for state_class in states:
        while True:
            cov = _one_mode_cov(rng, state_class)
            if _away_from_validity_edge(cov):
                break
        spath = os.path.join(workdir, f"state{index}.json")
        rpath = os.path.join(workdir, f"report{index}.json")
        _write_json(spath, {"format_version": 1, "n": 1, "mean": rng.uniform(-1, 1, 2).tolist(),
                            "cov": cov.tolist()})
        label = f"validate/{state_class}"
        ops.append(_cli_op(runner, label, ["validate", spath], rpath,
                           _onemode_validate_check(cov, label)))
        index += 1
    return ops


# --------------------------------------------------------- multimode-maps


def fault_maps():
    """The three maps on which the multistart search is known to be wrong.

    They come from default_rng(7) drawing, for n in (2, 3) and 300 trials
    each, K = U(-1.5, 1.5)^{2n x 2n} * U(0.2, 1.5) and
    R = U(-1, 1)^{2n x 2n} * U(0.1, 1.5), alpha = R R^T. They do not
    depend on the benchmark seed.
    """
    rng = np.random.default_rng(7)
    keep = {(2, 153): "n2-trial153", (3, 155): "n3-trial155", (3, 17): "n3-trial17"}
    out = []
    for n in (2, 3):
        for trial in range(300):
            K = rng.uniform(-1.5, 1.5, (2 * n, 2 * n)) * rng.uniform(0.2, 1.5)
            R = rng.uniform(-1, 1, (2 * n, 2 * n)) * rng.uniform(0.1, 1.5)
            if (n, trial) in keep:
                out.append((keep[(n, trial)], K, R @ R.T))
    return out


def _noisy_contraction(n, rng):
    """mu S1 S2 with alpha = S1 A S1^T: a contraction with too little noise.

    Delta_K = mu^2 Delta, so h(c) = lambda_min(alpha + i(1 - c mu^2) Delta)
    and the map is not G2G once A is small against 1 - mu^2. The class is
    confirmed by the h(c) oracle with a margin of 0.1.
    """
    while True:
        mu = rng.uniform(0.5, 0.8)
        s1, s2 = _symplectic(n, rng), _symplectic(n, rng)
        alpha = s1 @ (_psd(2 * n, rng, 0.15) + 0.05 * np.eye(2 * n)) @ s1.T
        K = mu * s1 @ s2
        if O.h_max(K, alpha)[0] < -0.1:
            return K, alpha


def _factorable(n, rng):
    """CP o T^b o lam with lam in [1.5, 2.5], redrawn until the map is not CP."""
    while True:
        Kc, alpha = _cp_channel(n, rng)
        lam = rng.uniform(1.5, 2.5)
        b = bool(rng.integers(2))
        K = lam * Kc @ (O.transpose_matrix(n) if b else np.eye(2 * n))
        if O.cp_margin(K, alpha) < -0.05:
            return K, alpha, lam


def _passive_symplectic(n, rng):
    """Orthogonal symplectic matrix of a random n x n unitary (a passive network)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, r = np.linalg.qr(z)
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2], out[0::2, 1::2] = u.real, -u.imag
    out[1::2, 0::2], out[1::2, 1::2] = u.imag, u.real
    return out


def _counterexample(rng, kind):
    """partial_transpose_example / q_exchange_example, conjugated by passive symplectics."""
    nu = rng.uniform(0.5, 2.0)
    if kind == "partial_transpose":
        K = math.sqrt(nu) * np.diag([1.0, 1.0, 1.0, -1.0])
    else:
        K = math.sqrt(nu) * np.array(
            [[0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=float
        )
    s1, s2 = _passive_symplectic(2, rng), _passive_symplectic(2, rng)
    return s1 @ K @ s2, s1 @ s1.T


def _noiseless(n, rng):
    kappa = rng.uniform(1.2, 2.0)
    b = bool(rng.integers(2))
    K = kappa * _symplectic(n, rng) @ (O.transpose_matrix(n) if b else np.eye(2 * n))
    return K, np.zeros((2 * n, 2 * n)), kappa


# (class, n, maps per round). Maps that are G2G but not CP are drawn only
# at n = 2: at n = 4 and 8 the search returns "inconclusive" on a share of
# them that depends on the draw (see the benchmark README).
#
# The latency median sits inside the cheapest cluster: classify on every
# CP and noiseless map plus decompose on noiseless maps at n = 2 and 4,
# 59 calls of about the same cost. The 31 dearer calls (decompose on CP
# maps and at n = 8 noiseless, and every call that runs the search) stay
# below half of the round, so the median is 14 calls from the cluster's
# top and never on the step up to the search.
MULTIMODE_MIX = [
    ("cp", 2, 3), ("cp", 4, 3), ("cp", 8, 3),
    ("noiseless", 2, 12), ("noiseless", 4, 12), ("noiseless", 8, 2),
    ("factorable", 2, 2),
    ("partial_transpose", 2, 1), ("q_exchange", 2, 1),
    ("not_g2g", 2, 1), ("not_g2g", 4, 1), ("not_g2g", 8, 1),
]
SMOKE_MIX = [("cp", 2, 1), ("noiseless", 2, 1), ("factorable", 2, 1),
             ("partial_transpose", 2, 1), ("not_g2g", 2, 1)]


@dataclass
class Expect:
    """What the program must answer for one map, fixed by construction or oracle."""

    g2g: bool
    cp: bool
    factors: bool = False  # decompose must return a normal form (else exit 4)
    lam_max: float = 1.0  # the largest lam a normal form may report


def _multimode_expect(cls, K, alpha, lam):
    if cls == "cp":
        return Expect(True, True, True, 1.0)
    if cls in ("factorable", "noiseless"):
        return Expect(True, False, True, lam)
    if cls in ("partial_transpose", "q_exchange"):
        return Expect(True, False, False)
    if cls == "not_g2g":
        return Expect(False, False)
    # Fault maps: the class comes from the h(c) oracle.
    g2g = O.h_max(K, alpha)[0] >= 0.0
    return Expect(g2g, O.cp_margin(K, alpha) >= 0.0, g2g and O.has_factoring(K, alpha), math.inf)


def _multimode_classify_check(K, alpha, exp, label):
    def check(code, doc):
        v = doc.get("verdicts", {})
        want = (exp.g2g, exp.cp, 0 if exp.g2g else 2)
        got = (v.get("is_g2g"), v.get("is_cp"), code)
        if got != want:
            return f"{label}: (g2g, cp, exit) {got}, expected {want}"
        if not exp.g2g and doc.get("witness") is None:
            return f"{label}: no witness for a map that is not G2G"
        return _check_witness(doc, K, alpha)

    return check


def _multimode_decompose_check(K, alpha, exp, label):
    n = K.shape[0] // 2
    scale = max(1.0, float(np.max(np.abs(alpha))), float(np.max(np.abs(K @ O.omega(n) @ K.T))))

    def check(code, doc):
        nf = doc.get("normal_form")
        if not exp.g2g:
            return None if code == 2 and nf is None else f"{label}: exit {code}, expected 2"
        if not exp.factors:
            return None if code == 4 and nf is None else f"{label}: exit {code}, expected 4"
        if code != 0 or nf is None:
            return f"{label}: exit {code} without a normal form, expected a factoring"
        S = np.asarray(nf["S"])
        T = O.transpose_matrix(n) if nf["transposed"] else np.eye(2 * n)
        if not _close(nf["lam"] * S @ T, K):
            return f"{label}: lam S T^b does not recompose K"
        margin = O.cp_margin(S, np.asarray(nf["alpha"]))
        if margin < -1e-9 * scale:
            return f"{label}: residual fails alpha + i(Delta - S Delta S^T) >= 0 ({margin:.3e})"
        if nf["lam"] > exp.lam_max * (1.0 + 1e-9):
            return f"{label}: lam {nf['lam']} exceeds the {exp.lam_max} the map was built with"
        return None

    return check


def build_multimode(rng, workdir, smoke):
    runner = CliRunner()
    maps = []
    for cls, n, count in SMOKE_MIX if smoke else MULTIMODE_MIX:
        for _ in range(count):
            lam = 1.0
            if cls == "cp":
                K, alpha = _cp_channel(n, rng)
            elif cls == "noiseless":
                K, alpha, lam = _noiseless(n, rng)
            elif cls == "factorable":
                K, alpha, lam = _factorable(n, rng)
            elif cls in ("partial_transpose", "q_exchange"):
                K, alpha = _counterexample(rng, cls)
            else:
                K, alpha = _noisy_contraction(n, rng)
            maps.append((f"{cls}/n{n}", K, alpha, _multimode_expect(cls, K, alpha, lam), False))
    for name, K, alpha in fault_maps():
        maps.append((f"fault/{name}", K, alpha, _multimode_expect("fault", K, alpha, None), True))
    ops = []
    for index, (tag, K, alpha, exp, fault) in enumerate(maps):
        n = K.shape[0] // 2
        mpath = os.path.join(workdir, f"map{index}.json")
        rpath = os.path.join(workdir, f"report{index}.json")
        _write_json(mpath, _map_doc(K, alpha, rng.uniform(-1, 1, 2 * n)))
        ops.append(_cli_op(runner, f"classify/{tag}", ["classify", mpath], rpath,
                           _multimode_classify_check(K, alpha, exp, f"classify/{tag}"), fault))
        ops.append(_cli_op(runner, f"decompose/{tag}", ["decompose", mpath], rpath,
                           _multimode_decompose_check(K, alpha, exp, f"decompose/{tag}"), fault))
    return ops


# ------------------------------------------------------------ Fock rows


def _fft_allowance(m, length):
    """Float64 rounding of the oracle: the g_m recursion and the transform."""
    return 4.0 * EPS64 * (m + math.log2(length) + 1.0)


def _row_error(m, lam, coeffs, tail_bound, ref, length, label):
    """A returned row against its FFT oracle row and the two sum identities."""
    tol = tail_bound + _fft_allowance(m, length)
    err = float(np.max(np.abs(coeffs - ref[: coeffs.size])))
    if not err <= tol:
        return f"{label}: row {m} differs from the FFT oracle by {err:.3e} > {tol:.3e}"
    rounding = coeffs.size * EPS64
    total = float(np.sum(coeffs))
    if not abs(total - 1.0) <= tail_bound + rounding:
        return f"{label}: row {m}: sum p_n - 1 = {total - 1.0:.3e} exceeds the tail bound"
    hs = float(np.sum(coeffs * coeffs))
    if not abs(hs - 1.0 / lam**2) <= tail_bound + rounding:
        return f"{label}: row {m}: sum p_n^2 - 1/lam^2 = {hs - 1.0 / lam**2:.3e} exceeds the tail bound"
    return None


def _oracle_length(lam, m_top, size=1):
    """FFT length free of aliasing that also covers every returned coefficient."""
    return max(O.fft_length(lam, m_top), 1 << int(math.ceil(math.log2(size))))


def _oracle_row(lam, m, size=1):
    """(coefficients of g_m by the FFT oracle, transform length)."""
    length = _oracle_length(lam, m, size)
    return next(O.fock_rows_fft(lam, length, [m]))[1], length


def _digest(arr):
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).digest()


def _row_op(fp, m, lam, label):
    def run():
        return fp.dilated_fock_coefficients(m, lam)

    def check(res):
        if res.m != m or res.truncation_N + 1 != res.coeffs.size:
            return f"{label}: m {res.m}, N {res.truncation_N}, {res.coeffs.size} coefficients"
        ref, length = _oracle_row(lam, m, res.coeffs.size)
        return _row_error(m, lam, res.coeffs, res.tail_bound, ref, length, label)

    return Op(label, run, check, cache_check=True)


def _trace_norm_op(fp, m, lam, label):
    def run():
        return fp.trace_norm_sum(m, lam)

    def check(value):
        ref, length = _oracle_row(lam, m)
        expected = float(np.sum(np.abs(ref)))
        tol = FOCK_EPS + length * _fft_allowance(m, length)
        if not abs(value - expected) <= tol:
            return f"{label}: {value!r} differs from the oracle's {expected!r} by more than {tol:.2e}"
        return None

    return Op(label, run, check)


def _hs_norm_op(fp, m, lam, label):
    def run():
        return fp.hs_norm_check(m, lam)

    def check(value):
        ref, length = _oracle_row(lam, m)
        tol = FOCK_EPS + length * EPS64
        for expected in (1.0 / lam**2, float(np.sum(ref * ref))):
            if not abs(value - expected) <= tol:
                return f"{label}: {value!r} differs from {expected!r} by more than {tol:.2e}"
        return None

    return Op(label, run, check)


def _probe_expectation(weights, lam):
    """Whether the oracle certifies negativity, or None when too near the edge.

    Certified inputs reach below -1e-8; uncertified ones stay above -1e-13.
    Both are far from the program's tail bounds of about 1e-12.
    """
    ref = O.fock_mixture_fft(weights, lam, O.fft_length(lam, len(weights) - 1))
    low = float(np.min(ref))
    if low < -1e-8:
        return True
    if low >= -1e-13:
        return False
    return None


def _probe_op(fp, weights, certified, lam, label):
    m_top = len(weights) - 1
    want = "certified_not_in_convex_hull" if certified else "no_negativity_found"

    def run():
        return fp.probe_fock_mixture(weights, lam)

    def check(res):
        if res.verdict != want:
            return f"{label}: verdict {res.verdict}, the oracle's minimum says {want}"
        q = np.asarray(res.coefficients)
        length = _oracle_length(lam, m_top, q.size)
        ref = O.fock_mixture_fft(weights, lam, length)[: q.size]
        tol = res.tail_bound + _fft_allowance(m_top, length)
        err = float(np.max(np.abs(q - ref)))
        if not err <= tol:
            return f"{label}: mixture differs from the FFT oracle by {err:.3e} > {tol:.3e}"
        if any(ref[n] >= 0.0 for n in res.negative_indices):
            return f"{label}: an index reported negative is not negative in the oracle"
        return None

    return Op(label, run, check, cache_check=True)


def _sparse_weights(rng, m_top, k):
    """Weights on k Fock indices up to m_top (always including m_top)."""
    idx = np.concatenate([rng.choice(m_top, size=k - 1, replace=False), [m_top]])
    w = np.zeros(m_top + 1)
    w[idx] = rng.dirichlet(np.ones(k))
    return w / math.fsum(w)


def _dense_weights(rng, m_top, kind):
    """All-nonzero weights: a truncated thermal law or a random one."""
    if kind == "thermal":
        w = rng.uniform(0.3, 0.7) ** np.arange(m_top + 1)
    else:
        w = rng.uniform(0.1, 1.0, m_top + 1)
    return w / math.fsum(w)


def _jitter(rng, base, share=100):
    """A Fock index at most base and within 1/share of it."""
    return int(base - rng.integers(0, base // share + 1))


def _probe_weights(draw, lam):
    """(weights, oracle verdict) for the first drawn mixture off the edge."""
    for _ in range(200):
        w = draw()
        certified = _probe_expectation(w, lam)
        if certified is not None:
            return w, certified
    raise RuntimeError("no mixture away from the certification edge was drawn")


# Fock-rows round: (call, lam, nominal m, count). The nine calls at
# lam = 2, m = 500 hold the latency median: seven cheaper calls sit below
# them and six dearer ones above. Calls of a few ms slow down by up to
# 1.7x when the machine is busy, ones of 100 ms and more by about 1.3x, so
# the median sits on the larger calls. The largest table, m = 2000 at
# lam = 2, is about 0.5 GB. Calls on tables that large vary by 20% from
# call to call in one process, far more than the scaling to the reference
# kernel removes, so the round holds one such call and not also
# trace_norm_sum(2000, 2), which builds the same table.
FOCK_ROWS_MIX = [
    ("row", 1.2, 50, 1), ("row", 2.0, 50, 1), ("row", 3.0, 50, 1),
    ("trace", 1.2, 500, 1), ("hs", 1.2, 500, 1),
    ("sparse_probe", 1.2, 300, 1), ("sparse_probe", 2.0, 300, 1),
    ("row", 2.0, 500, 3), ("trace", 2.0, 500, 3), ("hs", 2.0, 500, 3),
    ("row", 3.0, 500, 1), ("trace", 3.0, 500, 1), ("hs", 3.0, 500, 1),
    ("sparse_probe", 3.0, 300, 1),
    ("row", 1.2, 2000, 1), ("row", 2.0, 2000, 1),
]
FOCK_ROWS_SMOKE = [("row", 2.0, 50, 1), ("trace", 1.2, 50, 1), ("hs", 3.0, 50, 1),
                   ("sparse_probe", 2.0, 30, 1)]


def build_fock_rows(rng, workdir, smoke):
    fp = importlib.import_module("gaussmap.fockprobe")
    ops = []
    for call, lam, base, count in FOCK_ROWS_SMOKE if smoke else FOCK_ROWS_MIX:
        for _ in range(count):
            m = _jitter(rng, base)
            label = f"{call}/lam{lam:g}/m{base}"
            if call == "row":
                ops.append(_row_op(fp, m, lam, label))
            elif call == "trace":
                ops.append(_trace_norm_op(fp, m, lam, label))
            elif call == "hs":
                ops.append(_hs_norm_op(fp, m, lam, label))
            else:
                k = int(rng.integers(2, 5))
                w, certified = _probe_weights(lambda: _sparse_weights(rng, m, k), lam)
                ops.append(_probe_op(fp, w, certified, lam, label))
    return ops


# ----------------------------------------------------------- Fock sweep


def _sweep_op(fp, m_max, lam, label):
    def run():
        return fp.dilated_fock_sweep(m_max, lam)

    def check(rows):
        if [r.m for r in rows] != list(range(m_max + 1)):
            return f"{label}: sweep does not return rows 0..{m_max}"
        length = _oracle_length(lam, m_max, max(r.coeffs.size for r in rows))
        for (m, ref), res in zip(O.fock_rows_fft(lam, length, range(m_max + 1)), rows):
            if res.truncation_N + 1 != res.coeffs.size:
                return f"{label}: row {m} has N {res.truncation_N} and {res.coeffs.size} values"
            reason = _row_error(m, lam, res.coeffs, res.tail_bound, ref, length, label)
            if reason is not None:
                return reason
        return None

    return Op(label, run, check, cache_check=True)


# Fock-sweep round: (call, lam, nominal M, count). The eight sweeps at
# lam = 2, M = 300 hold the latency median between eight cheaper and
# eight dearer calls.
FOCK_SWEEP_MIX = [
    ("sweep", 1.2, 100, 1), ("sweep", 2.0, 100, 1), ("sweep", 3.0, 100, 1),
    ("sweep", 1.2, 500, 1),
    ("thermal_probe", 1.2, 100, 1), ("random_probe", 2.0, 100, 1),
    ("thermal_probe", 3.0, 100, 1), ("random_probe", 1.2, 500, 1),
    ("sweep", 2.0, 300, 8),
    ("sweep", 2.0, 400, 1), ("sweep", 2.0, 500, 1), ("sweep", 3.0, 300, 1),
    ("sweep", 3.0, 500, 1),
    ("thermal_probe", 2.0, 400, 1), ("random_probe", 2.0, 500, 1),
    ("thermal_probe", 3.0, 300, 1), ("random_probe", 3.0, 500, 1),
]
FOCK_SWEEP_SMOKE = [("sweep", 2.0, 30, 1), ("thermal_probe", 2.0, 30, 1),
                    ("random_probe", 3.0, 30, 1)]


def build_fock_sweep(rng, workdir, smoke):
    fp = importlib.import_module("gaussmap.fockprobe")
    ops = []
    for call, lam, base, count in FOCK_SWEEP_SMOKE if smoke else FOCK_SWEEP_MIX:
        for _ in range(count):
            m = _jitter(rng, base)
            label = f"{call}/lam{lam:g}/m{base}"
            if call == "sweep":
                ops.append(_sweep_op(fp, m, lam, label))
            else:
                kind = call.split("_")[0]
                w, certified = _probe_weights(lambda: _dense_weights(rng, m, kind), lam)
                ops.append(_probe_op(fp, w, certified, lam, label))
    return ops


ROUNDS = {
    "onemode-files": build_onemode,
    "multimode-maps": build_multimode,
    "fock-rows": build_fock_rows,
    "fock-sweep": build_fock_sweep,
}


def output_digest(output):
    """Digest of a Fock output, so a repeated identical output is checked once."""
    if isinstance(output, list):
        h = hashlib.blake2b(digest_size=16)
        for r in output:
            h.update(_digest(r.coeffs))
            h.update(repr((r.truncation_N, r.tail_bound)).encode())
        return h.digest()
    if hasattr(output, "coefficients"):
        return _digest(output.coefficients) + repr(
            (output.verdict, output.tail_bound, output.negative_indices)
        ).encode()
    return _digest(output.coeffs) + repr((output.truncation_N, output.tail_bound)).encode()
