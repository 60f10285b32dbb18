"""Command-line interface.

Subcommands: validate, classify, decompose, apply, probe, limit-check.
Human-readable summaries go to standard output, machine-readable
reports to files (--report / --csv), diagnostics to standard error.

Gaussian-to-Gaussian verdicts are exact on any number of modes: the
maximum of the concave function h(c) = lambda_min(alpha + i(D - c D_K))
over c in [-1, 1], found by one cutting-plane solve. When that solve
decided the verdict, classify prints the maximum h_max, its argument c*,
the proven upper bound h_upper, the feasible interval [c_lo, c_hi] of h
and the number of eigensolves; a report carries them under
"certificate". decompose decides a map once, and reads the factoring of
two or more modes off the solve that gave the verdict.

Exit codes: 0 ok/true, 1 I/O or schema error, 2 invalid state or map
not Gaussian-to-Gaussian, 4 no decomposition exists.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .classify import (
    NormalForm,
    classify,
    decompose_no_noise,
    decompose_one_mode,
    factor_interval,
    is_noiseless,
)
from .fockprobe import airy_limit_error, probe_fock_mixture
from .gaussian import transposition_matrix
from .io import interleave_complex, load_map, load_state_arrays, write_report
from .symplectic import is_valid_covariance, symplectic_eigenvalues

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_INVALID = 2
EXIT_NO_DECOMPOSITION = 4


def _fail(message):
    print(message, file=sys.stderr)
    return EXIT_SCHEMA


def _finish(args, payload, code):
    if args.report:
        write_report(args.report, payload)
    return code


def _fmt(x):
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _parse_floats(text, flag):
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of numbers, got {text!r}")


def _witness_payload(witness):
    if witness is None:
        return None
    return {
        "direction": interleave_complex(witness.w),
        "objective": float(witness.objective),
    }


def cmd_validate(args):
    try:
        mean, cov = load_state_arrays(args.state)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"validate: {exc}")
    payload = {
        "command": "validate",
        "input": args.state,
        "version": __version__,
        "tol": args.tol,
    }
    try:
        nu = symplectic_eigenvalues(cov, tol=args.tol)
    except ValueError as exc:
        payload.update(valid=False, symplectic_eigenvalues=None, note=str(exc))
        print(f"invalid: {exc}")
        return _finish(args, payload, EXIT_INVALID)
    valid = is_valid_covariance(cov, tol=args.tol)
    payload.update(valid=bool(valid), symplectic_eigenvalues=nu.tolist())
    print("symplectic eigenvalues:", " ".join(_fmt(v) for v in nu))
    print("valid" if valid else "invalid: smallest symplectic eigenvalue below 1")
    return _finish(args, payload, EXIT_OK if valid else EXIT_INVALID)


def cmd_classify(args):
    try:
        gmap = load_map(args.map)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"classify: {exc}")
    report = classify(gmap, tol=args.tol)
    payload = {
        "command": "classify",
        "input": args.map,
        "version": __version__,
        "tol": args.tol,
        "verdicts": {
            "is_g2g": report.is_g2g,
            "is_cp": report.is_cp,
            "is_classical_g2g": report.is_classical_g2g,
        },
        "margins": {"direction_margin": report.margin},
        "method": report.method,
        "certificate": {
            "h_max": report.h_max,
            "c_star": report.c_star,
            "h_upper": report.h_upper,
            "interval": None if report.interval is None else list(report.interval),
            "eigensolves": report.eigensolves,
        },
        "witness": _witness_payload(report.witness),
    }
    print(f"gaussian-to-gaussian: {str(report.is_g2g).lower()}")
    print(f"completely positive: {str(report.is_cp).lower()}")
    print(f"classical (alpha >= 0): {str(report.is_classical_g2g).lower()}")
    print(f"method: {report.method}")
    if report.margin is not None:
        print(f"margin: {_fmt(report.margin)}")
    if report.h_max is not None:
        print(f"h_max: {_fmt(report.h_max)}")
    if report.c_star is not None:
        print(f"c*: {_fmt(report.c_star)}")
    if report.h_upper is not None:
        print(f"h_upper: {_fmt(report.h_upper)}")
    if report.interval is not None:
        print(f"interval: [{_fmt(report.interval[0])}, {_fmt(report.interval[1])}]")
    if report.eigensolves is not None:
        print(f"eigensolves: {report.eigensolves}")
    return _finish(args, payload, EXIT_OK if report.is_g2g else EXIT_INVALID)


def _recomposition_residual(gmap, lam, transposed, factor_K):
    t_b = transposition_matrix(gmap.n) if transposed else np.eye(2 * gmap.n)
    recomposed = lam * (factor_K @ t_b)
    return float(
        np.max(np.abs(recomposed - gmap.K)) / max(1.0, np.max(np.abs(gmap.K)))
    )


def _normal_form_payload(nf):
    return {
        "kind": nf.kind,
        "lam": nf.lam,
        "transposed": nf.transposed,
        "S": None if nf.S is None else nf.S.tolist(),
        "alpha": None if nf.alpha is None else nf.alpha.tolist(),
        "y0": None if nf.y0 is None else nf.y0.tolist(),
        "note": nf.note,
    }


def cmd_decompose(args):
    try:
        gmap = load_map(args.map)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"decompose: {exc}")
    payload = {
        "command": "decompose",
        "input": args.map,
        "version": __version__,
        "tol": args.tol,
    }
    nf = None
    if gmap.n > 1 and is_noiseless(gmap, tol=args.tol):
        nf = decompose_no_noise(gmap, tol=args.tol)
        if nf.kind == "none":
            print(f"no normal form: {nf.note}")
            payload.update(normal_form=_normal_form_payload(nf))
            return _finish(args, payload, EXIT_INVALID)
    elif gmap.n == 1:
        try:
            nf = decompose_one_mode(gmap, tol=args.tol)
        except ValueError:  # raised only when the map is not G2G
            pass
    elif (report := classify(gmap, tol=args.tol)).is_g2g:
        # A completely positive map factors with lam = 1: h(1) >= 0.
        interval = (1.0, 1.0) if report.is_cp else report.interval
        factoring = factor_interval(gmap, interval, tol=args.tol)
        if factoring is None:
            print(
                "no decomposition: the map is Gaussian-to-Gaussian but does not "
                "factor as dilatation (and optional transposition) followed by a "
                "completely positive map"
            )
            payload.update(normal_form=None, note="no homogeneous factoring")
            return _finish(args, payload, EXIT_NO_DECOMPOSITION)
        lam, transposed, residual_map = factoring
        nf = NormalForm(
            kind="homogeneous_factoring", lam=lam, transposed=transposed,
            S=residual_map.K, alpha=residual_map.alpha, y0=residual_map.y0,
        )
    if nf is None:
        print("map is not Gaussian-to-Gaussian; no normal form exists")
        payload.update(normal_form=None, note="not Gaussian-to-Gaussian")
        return _finish(args, payload, EXIT_INVALID)
    residual = _recomposition_residual(gmap, nf.lam, nf.transposed, nf.S)
    payload.update(normal_form=_normal_form_payload(nf), recomposition_residual=residual)
    print(f"kind: {nf.kind}")
    label = "scale" if nf.kind == "homogeneous" else "lam"
    print(f"{label}: {_fmt(nf.lam)}  transposed: {str(nf.transposed).lower()}")
    print(f"recomposition residual: {_fmt(residual)}")
    return _finish(args, payload, EXIT_OK)


def cmd_apply(args):
    try:
        gmap = load_map(args.map)
        mean, cov = load_state_arrays(args.state)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"apply: {exc}")
    if mean.size != 2 * gmap.n:
        return _fail(
            f"apply: dimension mismatch (map has n = {gmap.n}, state has n = {mean.size // 2})"
        )
    out_mean = gmap.K @ mean + gmap.y0
    out_cov = gmap.K @ cov @ gmap.K.T + gmap.alpha
    valid = is_valid_covariance(out_cov, tol=args.tol)
    print("output mean:", " ".join(_fmt(v) for v in out_mean))
    print("output cov:")
    for row in out_cov:
        print("  " + " ".join(_fmt(v) for v in row))
    print("valid" if valid else "invalid output covariance")
    payload = {
        "command": "apply",
        "input_map": args.map,
        "input_state": args.state,
        "version": __version__,
        "tol": args.tol,
        "output_mean": out_mean.tolist(),
        "output_cov": out_cov.tolist(),
        "valid": bool(valid),
    }
    return _finish(args, payload, EXIT_OK if valid else EXIT_INVALID)


def cmd_probe(args):
    try:
        weights = _parse_floats(args.weights, "--weights")
        result = probe_fock_mixture(weights, args.lam, eps=args.epsilon)
    except ValueError as exc:
        return _fail(f"probe: {exc}")
    print(f"verdict: {result.verdict}")
    print(f"min coefficient: {_fmt(result.min_coefficient)}")
    if result.negative_indices:
        shown = ", ".join(str(n) for n in result.negative_indices[:8])
        more = "" if len(result.negative_indices) <= 8 else ", ..."
        print(f"negative indices: {shown}{more}")
    if args.csv:
        rows = [
            (n, float(q), float(result.tail_bound))
            for n, q in enumerate(result.coefficients)
        ]
        _write_csv(args.csv, ("n", "q_n", "tail_bound"), rows)
    return EXIT_OK


def cmd_limit_check(args):
    try:
        m_list = [int(v) for v in args.m_list.split(",") if v != ""]
        if not m_list:
            raise ValueError("--m-list must contain at least one index")
        errors = [airy_limit_error(args.k, m, args.lam) for m in m_list]
    except ValueError as exc:
        return _fail(f"limit-check: {exc}")
    for m, err in zip(m_list, errors):
        print(f"m={m}: error {_fmt(err)}")
    if args.csv:
        _write_csv(args.csv, ("m", "error"), list(zip(m_list, errors)))
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--tol", type=float, default=1e-9, help="numerical tolerance")
    parser.add_argument("--report", help="write a JSON report to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gaussmap",
        description="Classify, decompose, and probe Gaussian maps and states.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a covariance state file")
    p.add_argument("state", help="state JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="classify a map file")
    p.add_argument("map", help="map JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="compute a normal form of a map file")
    p.add_argument("map", help="map JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("apply", help="apply a map file to a state file")
    p.add_argument("map", help="map JSON file")
    p.add_argument("state", help="state JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("probe", help="probe a Fock mixture for negativity")
    p.add_argument("--weights", required=True, help="comma-separated mixture weights c_0,c_1,...")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="dilatation parameter")
    p.add_argument("--epsilon", type=float, default=1e-12, help="truncation precision")
    p.add_argument("--csv", help="write the output coefficients to this CSV path")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("limit-check", help="evaluate the oscillatory limit error curve")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="dilatation parameter")
    p.add_argument("--k", type=float, required=True, help="scaling variable")
    p.add_argument("--m-list", required=True, help="comma-separated Fock indices")
    p.add_argument("--csv", help="write the error curve to this CSV path")
    p.set_defaults(func=cmd_limit_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
