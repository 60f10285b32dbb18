"""Command-line interface.

Subcommands: validate, classify, decompose, apply, probe, limit-check.
`gaussmap --help` lists them, `gaussmap COMMAND --help` gives one
command's arguments. Each command's parser is built on its first call
and reused by later calls in the same process, which helps in-process
callers of main, not one-shot shell runs.
Human-readable summaries go to standard output, machine-readable
reports to files (--report / --csv), diagnostics to standard error.

Gaussian-to-Gaussian verdicts are exact on any number of modes for
entries of K up to about 1e7: the maximum of the concave function
h(c) = lambda_min(alpha + i(D - c D_K)) over c in [-1, 1], found by one
cutting-plane solve. From about 1e8 up a verdict can be wrong, as the
cuts at c = +-1 carry rounding of order u max |D_K|. When that solve
decided the verdict, classify prints the maximum h_max, its argument c*,
the proven upper bound h_upper, the feasible interval [c_lo, c_hi] of h
and the number of eigensolves; a report carries them under
"certificate". decompose prints the normal form of classify.decompose,
which decides a map once and reads its factoring off that decision.

Each command registers itself once, through its decorator: _command,
or _file_command for the four that read files (validate, classify,
decompose, apply), whose handlers only print the library's answers and
fill the report. A handler raises OSError or ValueError for what it
refuses, and main alone turns that into one line "command: message" on
stderr and exit 1, with no report written.

Exit codes: 0 ok/true; 1 an I/O error, a schema error, a refused argument
(--tol, --weights, --lambda, --m-list, ...) or a map that cannot be
decided in double precision; 2 invalid state or map not
Gaussian-to-Gaussian; 4 no decomposition exists.
"""

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .classify import _NotG2G, classify, decompose
from .fockprobe import DEFAULT_EPS, airy_limit_error, probe_fock_mixture
from .gaussian import apply_map_moments, transposition_matrix
from .io import load_map, load_state_arrays, write_report
from .symplectic import DEFAULT_TOL, _tolerance, covariance_spectrum, is_valid_covariance

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_INVALID = 2
EXIT_NO_DECOMPOSITION = 4

# name: (help, add_arguments, handler), filled by the decorators below.
COMMANDS = {}


def _fmt(x):
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _parse_list(text, flag, kind=float):
    try:
        return [kind(v) for v in text.split(",") if v != ""]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} must be a comma-separated list of {what}, got {text!r}")


def _command(name, help_text, add_arguments):
    """Decorator: register handler(args) as the command name, with the help
    and add_arguments(parser) of its parser."""
    def register(handler):
        COMMANDS[name] = (help_text, add_arguments, handler)
        return handler
    return register


def _file_command(command, help_text, *names):
    """Decorator: register a command that reads the named JSON files (map, state).

    --tol is checked before any file is read. The report starts with
    command, input (or input_map and input_state), version and tol; the
    decorated body(args, payload, *loaded) prints, fills the payload and
    returns the exit code, and --report is written after it returns.
    """
    inputs = ["input"] if len(names) == 1 else [f"input_{name}" for name in names]

    def add_arguments(parser):
        for name in names:
            parser.add_argument(name, help=f"{name} JSON file")
        parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numerical tolerance, a finite number >= 0")
        parser.add_argument("--report", help="write a JSON report to this path")

    def wrap(body):
        @_command(command, help_text, add_arguments)
        def handler(args):
            _tolerance(args.tol, "--tol")
            # Looked up per call, so that a patched loader is the one called.
            loaders = {"map": load_map, "state": load_state_arrays}
            loaded = [loaders[name](getattr(args, name)) for name in names]
            payload = {"command": command, "version": __version__, "tol": args.tol}
            payload.update((key, getattr(args, name)) for key, name in zip(inputs, names))
            code = body(args, payload, *loaded)
            if args.report:
                write_report(args.report, payload)
            return code
        return handler
    return wrap


@_file_command("validate", "check a covariance state file", "state")
def cmd_validate(args, payload, state):
    try:
        nu, valid = covariance_spectrum(state[1], tol=args.tol)
    except ValueError as exc:
        payload.update(valid=False, symplectic_eigenvalues=None, note=str(exc))
        print(f"invalid: {exc}")
        return EXIT_INVALID
    payload.update(valid=bool(valid), symplectic_eigenvalues=nu.tolist())
    print("symplectic eigenvalues:", " ".join(_fmt(v) for v in nu))
    print("valid" if valid else "invalid: smallest symplectic eigenvalue below 1")
    return EXIT_OK if valid else EXIT_INVALID


@_file_command("classify", "classify a map file", "map")
def cmd_classify(args, payload, gmap):
    report = classify(gmap, tol=args.tol)
    witness = report.witness
    payload.update(
        verdicts={key: getattr(report, key) for key in ("is_g2g", "is_cp", "is_classical_g2g")},
        margins={"direction_margin": report.margin},
        method=report.method,
        # json writes the interval, a tuple, as a list.
        certificate={
            key: getattr(report, key) for key in ("h_max", "c_star", "h_upper", "interval", "eigensolves")},
        witness=None if witness is None else {
            "direction": witness.w, "objective": float(witness.objective)},
    )
    print(f"gaussian-to-gaussian: {str(report.is_g2g).lower()}")
    print(f"completely positive: {str(report.is_cp).lower()}")
    print(f"classical (alpha >= 0): {str(report.is_classical_g2g).lower()}")
    print(f"method: {report.method}")
    scalars = (("margin", report.margin), ("h_max", report.h_max),
               ("c*", report.c_star), ("h_upper", report.h_upper))
    for label, value in scalars:
        if value is not None:
            print(f"{label}: {_fmt(value)}")
    if report.interval is not None:
        print(f"interval: [{_fmt(report.interval[0])}, {_fmt(report.interval[1])}]")
    if report.eigensolves is not None:
        print(f"eigensolves: {report.eigensolves}")
    return EXIT_OK if report.is_g2g else EXIT_INVALID


@_file_command("decompose", "compute a normal form of a map file", "map")
def cmd_decompose(args, payload, gmap):
    try:
        nf = decompose(gmap, tol=args.tol)
    except _NotG2G as exc:  # the message gives the reason
        print(exc)
        payload.update(normal_form=None, note="not Gaussian-to-Gaussian")
        return EXIT_INVALID
    if nf is None:
        print(
            "no decomposition: the map is Gaussian-to-Gaussian but does not "
            "factor as dilatation (and optional transposition) followed by a "
            "completely positive map"
        )
        payload.update(normal_form=None, note="no homogeneous factoring")
        return EXIT_NO_DECOMPOSITION
    t_b = transposition_matrix(gmap.n) if nf.transposed else np.eye(2 * gmap.n)
    scale = max(1.0, np.max(np.abs(gmap.K)))
    residual = float(np.max(np.abs(nf.lam * (nf.S @ t_b) - gmap.K)) / scale)
    payload.update(normal_form={**vars(nf), "note": None}, recomposition_residual=residual)
    print(f"kind: {nf.kind}")
    label = "scale" if nf.kind == "homogeneous" else "lam"
    print(f"{label}: {_fmt(nf.lam)}  transposed: {str(nf.transposed).lower()}")
    print(f"recomposition residual: {_fmt(residual)}")
    return EXIT_OK


@_file_command("apply", "apply a map file to a state file", "map", "state")
def cmd_apply(args, payload, gmap, state):
    out_mean, out_cov = apply_map_moments(gmap, *state)
    valid = is_valid_covariance(out_cov, tol=args.tol)
    print("output mean:", " ".join(_fmt(v) for v in out_mean))
    print("output cov:")
    for row in out_cov:
        print("  " + " ".join(_fmt(v) for v in row))
    print("valid" if valid else "invalid output covariance")
    payload.update(output_mean=out_mean.tolist(), output_cov=out_cov.tolist(), valid=bool(valid))
    return EXIT_OK if valid else EXIT_INVALID


def _probe_args(parser):
    parser.add_argument("--weights", required=True, help="comma-separated mixture weights c_0,c_1,...")
    parser.add_argument("--lambda", dest="lam", type=float, required=True, help="dilatation parameter")
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPS, help="truncation precision")
    parser.add_argument("--csv", help="write the output coefficients to this CSV path")


@_command("probe", "probe a Fock mixture for negativity", _probe_args)
def cmd_probe(args):
    weights = _parse_list(args.weights, "--weights")
    result = probe_fock_mixture(weights, args.lam, eps=args.epsilon)
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


def _limit_check_args(parser):
    parser.add_argument("--lambda", dest="lam", type=float, required=True, help="dilatation parameter")
    parser.add_argument("--k", type=float, required=True, help="scaling variable")
    parser.add_argument("--m-list", required=True, help="comma-separated Fock indices")
    parser.add_argument("--csv", help="write the error curve to this CSV path")


@_command("limit-check", "evaluate the oscillatory limit error curve", _limit_check_args)
def cmd_limit_check(args):
    m_list = _parse_list(args.m_list, "--m-list", int)
    if not m_list:
        raise ValueError("--m-list must contain at least one index")
    errors = [airy_limit_error(args.k, m, args.lam) for m in m_list]
    for m, err in zip(m_list, errors):
        print(f"m={m}: error {_fmt(err)}")
    if args.csv:
        _write_csv(args.csv, ("m", "error"), list(zip(m_list, errors)))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gaussmap",
        description="Classify, decompose, and probe Gaussian maps and states.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


@functools.cache
def _parser(name):
    """The parser of command name alone, the twin of its subparser in build_parser."""
    parser = argparse.ArgumentParser(prog=f"gaussmap {name}")
    COMMANDS[name][1](parser)
    return parser


def main(argv=None):
    # A known command parses with its own parser, the twin of its subparser
    # in build_parser, built on the command's first call and reused by later
    # calls in the same process (parse_known_args only reads it); its
    # handler's refusals end here with exit 1. Help, version, unknown
    # commands and unrecognized arguments go to build_parser, which prints
    # the full parser's message and exits: it accepts exactly the argv that
    # a command's own parser accepts.
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        args, extras = _parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            try:
                return COMMANDS[argv[0]][2](args)
            except (OSError, ValueError) as exc:
                print(f"{argv[0]}: {exc}", file=sys.stderr)
                return EXIT_SCHEMA
    build_parser().parse_args(argv)


if __name__ == "__main__":
    raise SystemExit(main())
