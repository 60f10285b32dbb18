"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package, prints a single
pass/fail line (visible under pytest -s or on failure), and asserts it.
The whole file is budgeted to run in well under ten minutes.
"""

import time

import numpy as np

from gaussmap import (
    GaussianMap,
    airy_limit_error,
    decompose,
    delta_K,
    dilated_fock_coefficients,
    dilated_fock_sweep,
    is_cp,
    is_g2g,
    is_symplectic,
    partial_transpose_example,
    probe_fock_mixture,
    q_exchange_example,
    rescale_domain,
    solve_h,
    standard_form,
    trace_norm_sum,
    transposition_matrix,
)
from helpers import random_symplectic, random_symplectic_2x2


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def random_one_mode_batch(rng, count, box=3.0):
    ks = rng.uniform(-box, box, size=(count, 2, 2))
    roots = rng.uniform(-box, box, size=(count, 2, 2))
    alphas = np.einsum("nij,nkj->nik", roots, roots)
    return ks, alphas


def test_criterion_01_one_mode_minimizer_matches_determinant():
    """10^4 random one-mode maps: the maximum of h(c), the test used for
    two or more modes, and the closed-form determinant criterion give the
    same verdict away from the boundary."""
    rng = np.random.default_rng(2024)
    ks, alphas = random_one_mode_batch(rng, 10_000)
    start = time.perf_counter()
    disagreements = 0
    checked = 0
    for k, alpha in zip(ks, alphas):
        det_margin = float(np.sqrt(max(np.linalg.det(alpha), 0.0)) - 1.0 + abs(np.linalg.det(k)))
        if abs(det_margin) <= 1e-6:
            continue
        gmap = GaussianMap(K=k, alpha=alpha, y0=np.zeros(2))
        h_max = solve_h(gmap).h_max
        scale = max(1.0, float(np.max(np.abs(alpha))), float(np.max(np.abs(delta_K(gmap)))))
        if (h_max >= -1e-9 * scale) != (det_margin > 0):
            disagreements += 1
        checked += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 120.0 and checked > 9000
    assert report(
        1, ok, f"{checked} instances, {disagreements} disagreements, {elapsed:.1f}s"
    ), f"{disagreements} disagreements out of {checked} in {elapsed:.1f}s"


def test_criterion_02_one_mode_cp_determinant_matches_eigenvalue_test():
    """Same sampling: the determinant form of complete positivity agrees with
    the eigenvalue form away from the boundary."""
    rng = np.random.default_rng(2025)
    ks, alphas = random_one_mode_batch(rng, 10_000)
    delta = standard_form(1)
    disagreements = 0
    checked = 0
    for k, alpha in zip(ks, alphas):
        det_k = float(np.linalg.det(k))
        cp_margin = float(np.sqrt(max(np.linalg.det(alpha), 0.0)) - abs(1.0 - det_k))
        if abs(cp_margin) <= 1e-6:
            continue
        gmap = GaussianMap(K=k, alpha=alpha, y0=np.zeros(2))
        eig_ok = is_cp(gmap)
        if eig_ok != (cp_margin > 0):
            disagreements += 1
        checked += 1
    ok = disagreements == 0 and checked > 9000
    assert report(2, ok, f"{checked} instances, {disagreements} disagreements"), (
        f"{disagreements} disagreements out of {checked}"
    )


def test_criterion_03_one_mode_normal_form_round_trip():
    """10^3 valid one-mode maps across all four determinant ranges rebuild K
    from their factors and leave a completely positive residual."""
    rng = np.random.default_rng(2026)
    t = transposition_matrix(1)
    failures = []
    kinds = set()
    for i in range(1000):
        branch = i % 4
        if branch in (0, 1):
            # Boundary fixtures with a symplectic factor: det K = +1 or -1.
            s = random_symplectic(1, rng)
            k = s if branch == 0 else s @ t
            alpha = rng.uniform(0.0, 2.0) * np.eye(2)
            check_symplectic = True
        else:
            # Interior fixtures: |det K| in (1, 100] via a dilatation factor.
            lam = rng.uniform(1.01, 10.0)
            s = random_symplectic(1, rng)
            k = lam * s if branch == 2 else lam * (s @ t)
            roots = rng.uniform(-2.0, 2.0, size=(2, 2))
            alpha = roots @ roots.T
            check_symplectic = True
        gmap = GaussianMap(K=k, alpha=alpha, y0=np.zeros(2))
        nf = decompose(gmap)
        kinds.add(nf.kind)
        t_used = t if nf.transposed else np.eye(2)
        rebuilt = nf.lam * (nf.S @ t_used)
        rel = np.max(np.abs(rebuilt - k)) / max(1.0, np.abs(k).max())
        if rel > 1e-9:
            failures.append(f"instance {i}: recomposition error {rel:.2e}")
        if check_symplectic and not is_symplectic(nf.S, tol=1e-9):
            failures.append(f"instance {i}: factor not symplectic")
        residual = GaussianMap(K=nf.S, alpha=nf.alpha, y0=nf.y0)
        if not is_cp(residual):
            failures.append(f"instance {i}: residual not completely positive")
    # Interior sub-unit determinants, where the symplectic factor is not part
    # of the contract, still have to round-trip.
    for i in range(200):
        k = rng.uniform(-2.0, 2.0, size=(2, 2))
        d = np.linalg.det(k)
        if abs(d) < 1e-3:
            continue
        target = 0.5 if i % 2 == 0 else -0.5
        k = k * np.sqrt(abs(target) / abs(d))
        if np.sign(np.linalg.det(k)) != np.sign(target):
            k[:, 0] = -k[:, 0]
        alpha = (0.5 + rng.uniform(0.0, 1.0)) * np.eye(2)
        gmap = GaussianMap(K=k, alpha=alpha, y0=np.zeros(2))
        nf = decompose(gmap)
        kinds.add(nf.kind)
        t_used = t if nf.transposed else np.eye(2)
        rebuilt = nf.lam * (nf.S @ t_used)
        rel = np.max(np.abs(rebuilt - k)) / max(1.0, np.abs(k).max())
        if rel > 1e-9:
            failures.append(f"interior instance {i}: recomposition error {rel:.2e}")
        if not is_cp(GaussianMap(K=nf.S, alpha=nf.alpha, y0=nf.y0)):
            failures.append(f"interior instance {i}: residual not completely positive")
    all_kinds = kinds == {
        "cp_only",
        "dilatation_then_cp",
        "transpose_then_cp",
        "dilatation_transpose_then_cp",
    }
    ok = not failures and all_kinds
    assert report(
        3, ok, f"1200 round-trips, kinds covered: {sorted(kinds)}, {len(failures)} failures"
    ), failures[:5]


def test_criterion_04_noiseless_recovery_and_rejection():
    """10^3 planted noiseless fixtures recover the scale, flag, and symplectic
    factor exactly; 10^3 perturbed copies are rejected."""
    rng = np.random.default_rng(2027)
    failures = []
    for i in range(1000):
        n = 2 if i % 2 == 0 else 3
        kappa = rng.uniform(1.0, 10.0)
        transposed = bool(rng.integers(0, 2))
        s0 = random_symplectic(n, rng)
        k = kappa * s0
        if transposed:
            k = k @ transposition_matrix(n)
        gmap = GaussianMap(K=k, alpha=np.zeros((2 * n, 2 * n)), y0=np.zeros(2 * n))
        nf = decompose(gmap)
        if nf.kind != "homogeneous":
            failures.append(f"instance {i}: kind {nf.kind}")
            continue
        if abs(nf.lam - kappa) > 1e-9 * kappa:
            failures.append(f"instance {i}: scale error {abs(nf.lam - kappa):.2e}")
        if nf.transposed != transposed:
            failures.append(f"instance {i}: wrong transposition flag")
        if np.max(np.abs(nf.S - s0)) > 1e-8 * max(1.0, np.abs(s0).max()):
            failures.append(f"instance {i}: factor error")
        k_bad = k.copy()
        j, l = rng.integers(0, 2 * n, size=2)
        k_bad[j, l] += 1e-3 * max(1.0, np.abs(k).max())
        bad = GaussianMap(K=k_bad, alpha=np.zeros((2 * n, 2 * n)), y0=np.zeros(2 * n))
        try:
            decompose(bad)
        except ValueError as exc:
            if "not Gaussian-to-Gaussian" not in str(exc):
                failures.append(f"instance {i}: perturbed map rejected for {exc}")
        else:
            failures.append(f"instance {i}: perturbed map accepted")
    ok = not failures
    assert report(4, ok, f"1000 planted + 1000 perturbed, {len(failures)} failures"), failures[:5]


def test_criterion_05_counterexample_families():
    """Both two-mode families: pinned spectra, valid but never completely
    positive, and no dilatation-transposition factoring exists."""
    failures = []
    delta = standard_form(2)
    for nu in (0.5, 1.0, 3.0):
        pt = partial_transpose_example(nu)
        spec = np.sort(np.linalg.eigvalsh(1j * (delta - delta_K(pt))))
        expected = np.sort([1 + nu, -(1 + nu), 1 - nu, -(1 - nu)])
        if np.max(np.abs(spec - expected)) > 1e-9:
            failures.append(f"pt({nu}): spectrum off by {np.max(np.abs(spec - expected)):.2e}")
        qx = q_exchange_example(nu)
        spec = np.sort(np.linalg.eigvalsh(1j * (delta - delta_K(qx))))
        root = np.sqrt(1 + nu * nu)
        expected = np.sort([root, root, -root, -root])
        if np.max(np.abs(spec - expected)) > 1e-9:
            failures.append(f"qx({nu}): spectrum off by {np.max(np.abs(spec - expected)):.2e}")
        for name, gmap in (("pt", pt), ("qx", qx)):
            if is_g2g(gmap) is not True:
                failures.append(f"{name}({nu}): not recognized as valid")
            if is_cp(gmap):
                failures.append(f"{name}({nu}): wrongly completely positive")
            if decompose(gmap) is not None:
                failures.append(f"{name}({nu}): spurious factoring")
    ok = not failures
    assert report(5, ok, f"both families at three parameters, {len(failures)} failures"), failures


def test_criterion_06_coefficient_sweeps_normalized():
    """All Fock indices up to 500 at three dilatation parameters: coefficient
    sums match normalization and purity within the stated tail bounds."""
    start = time.perf_counter()
    worst_norm = 0.0
    worst_purity = 0.0
    failures = []
    for lam in (1.2, 2.0, 3.0):
        rows = dilated_fock_sweep(500, lam)
        for fc in rows:
            norm_err = abs(float(np.sum(fc.coeffs)) - 1.0)
            purity_err = abs(float(np.sum(fc.coeffs**2)) - 1.0 / lam**2)
            if fc.tail_bound > 0:
                worst_norm = max(worst_norm, norm_err / fc.tail_bound)
                worst_purity = max(worst_purity, purity_err / (10.0 * fc.tail_bound))
            if norm_err > fc.tail_bound:
                failures.append(f"lam={lam} m={fc.m}: normalization {norm_err:.2e}")
            if purity_err > 10.0 * fc.tail_bound:
                failures.append(f"lam={lam} m={fc.m}: purity {purity_err:.2e}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert report(
        6,
        ok,
        f"1503 rows, worst norm ratio {worst_norm:.3f}, worst purity ratio "
        f"{worst_purity:.5f}, {elapsed:.1f}s",
    ), failures[:5]


def test_criterion_07_negativity_certification():
    """The leading coefficient of the first excited state is -0.24 exactly,
    and every pure Fock state up to m = 50 is certified at lam = 2."""
    fc = dilated_fock_coefficients(1, 2.0)
    lead_ok = abs(fc.coeffs[0] + 0.24) <= 1e-12
    uncertified = [
        m
        for m in range(1, 51)
        if probe_fock_mixture([0.0] * m + [1.0], 2.0).verdict
        != "certified_not_in_convex_hull"
    ]
    ok = lead_ok and not uncertified
    assert report(
        7, ok, f"leading coefficient {fc.coeffs[0]:+.15f}, uncertified: {uncertified or 'none'}"
    ), (fc.coeffs[0], uncertified)


def test_criterion_08_trace_norm_growth():
    values = [trace_norm_sum(m, 2.0) for m in (25, 100, 400)]
    ok = values[0] < values[1] < values[2]
    assert report(
        8, ok, "sum |p| at m=25,100,400: " + ", ".join(f"{v:.3f}" for v in values)
    ), values


def test_criterion_09_oscillatory_limit_convergence():
    """Error against the limiting curve at lam = 2 must decrease in m for
    k in {0.5, 1, 2} and fall below 0.05 by m = 10^4."""
    failures = []
    details = []
    for k in (0.5, 1.0, 2.0):
        errs = [airy_limit_error(k, m, 2.0) for m in (100, 1000, 10_000)]
        details.append(f"k={k}: " + " > ".join(f"{e:.6f}" for e in errs))
        if not (errs[0] > errs[1] > errs[2]):
            failures.append(f"k={k}: errors not decreasing: {errs}")
        if not errs[2] < 0.05:
            failures.append(f"k={k}: error at m=10000 is {errs[2]:.6f}, needs < 0.05")
    ok = not failures
    assert report(9, ok, "; ".join(details)), failures


def test_criterion_10_restricted_domain_consistency():
    """10^3 random one-mode maps at two domain restrictions: sampled states
    with large symplectic eigenvalue never contradict the rescaled verdict,
    and each negative verdict comes with an explicit violating state."""
    rng = np.random.default_rng(2028)
    failures = []
    negatives = 0

    def check(tag, k, alpha, mu):
        nonlocal negatives
        gmap = GaussianMap(K=k, alpha=alpha, y0=np.zeros(2))
        rescaled = rescale_domain(gmap, mu)
        verdict = is_g2g(rescaled)
        ss = random_symplectic_2x2(200, rng)
        nus = mu * mu + 3.0 * rng.random(200)
        sigmas = nus[:, None, None] * np.einsum("nij,nkj->nik", ss, ss)
        outs = np.einsum("ij,njk,lk->nil", k, sigmas, k) + alpha
        dets = np.linalg.det(outs)
        traces = np.trace(outs, axis1=1, axis2=2)
        valid = (dets >= 1.0 - 1e-9) & (traces >= 0.0)
        if verdict is True and not np.all(valid):
            failures.append(f"{tag}: verdict valid but a sample violates")
        if verdict is False:
            negatives += 1
            # Violating state: the noise block pulled back through the
            # adjugate of mu K and normalized onto the domain boundary.
            # Multiplication only; inverting a near-singular K here would
            # wash out the determinant normalization.
            kp = rescaled.K
            adj = np.array([[kp[1, 1], -kp[0, 1]], [-kp[1, 0], kp[0, 0]]])
            b = adj @ alpha @ adj.T
            det_b = float(np.linalg.det(b))
            if det_b <= 1e-12:
                return
            sigma_star = mu * mu * b / np.sqrt(det_b)
            nu_star = np.sqrt(max(np.linalg.det(sigma_star), 0.0))
            if nu_star < mu * mu * (1.0 - 1e-6):
                failures.append(f"{tag}: violator outside the domain")
            out = k @ sigma_star @ k.T + alpha
            if np.linalg.det(out) >= 1.0 - 1e-9 and np.linalg.eigvalsh(out)[0] >= 0:
                failures.append(f"{tag}: constructed state fails to violate")

    ks, alphas = random_one_mode_batch(rng, 1000)
    for mu in (1.5, 2.0):
        for i, (k, alpha) in enumerate(zip(ks, alphas)):
            check(f"mu={mu} instance {i}", k, alpha, mu)
    # The broad sampling box lands mostly on expansive maps, so add a
    # contractive block to exercise the negative branch heavily.
    for mu in (1.5, 2.0):
        for j in range(100):
            k = rng.uniform(-0.4, 0.4, size=(2, 2))
            roots = rng.uniform(-0.3, 0.3, size=(2, 2))
            check(f"mu={mu} contractive {j}", k, roots @ roots.T, mu)
    ok = not failures and negatives > 100
    assert report(
        10, ok, f"2200 map/domain pairs, {negatives} negative verdicts, {len(failures)} failures"
    ), failures[:5]
