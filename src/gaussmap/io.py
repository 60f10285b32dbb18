"""JSON file formats for maps, states, and reports.

Maps and states travel as small JSON documents with row-major matrices
in interleaved quadrature ordering (Q1, P1, Q2, P2, ...). Every map and
state file is read through one opener, _open, which checks the top-level
object, the format_version and the mode count n, and written through
one writer, _save. format_version gates future changes: it must be the
integer 1 (true and 1.0 are refused), and a file without one is read as
version 1. Reports are written with sorted keys so that identical
inputs reproduce the file byte-for-byte apart from the timestamp field;
the writer turns numpy arrays into lists, and a complex array into its
interleaved parts [re w_1, im w_1, re w_2, im w_2, ...].
"""

import datetime
import json

import numpy as np

from .gaussian import GaussianMap
from .symplectic import DEFAULT_TOL, _array, _check_symmetric, _square

FORMAT_VERSION = 1


def _open(path):
    """(doc, d): the JSON object of a map or state file and its dimension 2n.

    Raises:
        OSError: unreadable file.
        ValueError: malformed JSON, a top level that is not an object, a
            format_version other than the integer 1, or an n that is not
            a positive integer, each message starting with path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    version = doc.get("format_version", FORMAT_VERSION)
    # type() and not ==, which would let true and 1.0 pass as 1.
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {version!r}")
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise ValueError(f"{path}: field 'n' must be a positive integer")
    return doc, 2 * n


def _as_array(doc, key, shape, path):
    if key not in doc:
        raise ValueError(f"{path}: missing field {key!r}")
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: field {key!r} is not a numeric array")
    return _array(arr, shape, f"{path}: field {key!r}")


def load_map(path):
    """Read a map file into a GaussianMap; a missing or null y0 is zero.

    Raises:
        OSError: unreadable file.
        ValueError: as _open, or wrong shapes, a NaN or infinite entry, or
            an alpha that is not symmetric within 1e-9 (schema errors;
            "path: alpha must be symmetric within tolerance 1e-09").
    """
    doc, d = _open(path)
    K = _as_array(doc, "K", (d, d), path)
    alpha = _as_array(doc, "alpha", (d, d), path)
    y0 = None if doc.get("y0") is None else _as_array(doc, "y0", (d,), path)
    try:
        return GaussianMap(K=K, alpha=alpha, y0=y0)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def load_state_arrays(path):
    """Read a state file into raw (mean, cov) arrays.

    Shape, finite entries and symmetry within 1e-9 ("path: cov must be
    symmetric within tolerance 1e-09") are schema requirements; whether cov
    is a valid covariance is a separate question left to the caller, so
    that an unphysical but well-formed state can still be inspected.
    """
    doc, d = _open(path)
    mean = _as_array(doc, "mean", (d,), path)
    cov = _as_array(doc, "cov", (d, d), path)
    return mean, _check_symmetric(cov, DEFAULT_TOL, name=f"{path}: cov")


def _plain(value):
    """json.dumps hook: a numpy array as a list, a complex one interleaved
    along its last axis as [re w_1, im w_1, ...], a numpy scalar as a
    Python scalar."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            value = np.ascontiguousarray(value, dtype=complex).view(float)
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path, doc):
    """Write doc with sorted keys, a 2-space indent and a trailing newline;
    numpy arrays and scalars are written as their Python values."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True, default=_plain) + "\n")


def _save(path, d, **arrays):
    """Write a map or state file of dimension d = 2n that _open reads back."""
    _write_json(path, {"format_version": FORMAT_VERSION, "n": d // 2, **arrays})


def save_map(path, gmap):
    _save(path, gmap.K.shape[0], K=gmap.K, alpha=gmap.alpha, y0=gmap.y0)


def save_state(path, mean, cov):
    """Write a state file that load_state_arrays reads back.

    mean and cov are checked by the loader's rules before the file is
    opened: cov 2n x 2n and symmetric within DEFAULT_TOL, mean of 2n
    entries, all finite. As for the loader, cov need not be a valid
    covariance.

    Raises:
        ValueError: naming the argument ("mean has shape (3,), expected
            (2,)", "cov must be symmetric within tolerance 1e-09").
    """
    d = _square(cov, "cov").shape[0]
    cov = _array(cov, (d, d), "cov")
    _check_symmetric(cov, DEFAULT_TOL, name="cov")
    _save(path, d, mean=_array(np.ravel(mean), (d,), "mean"), cov=cov)


def write_report(path, payload):
    """Write a report file; deterministic apart from the timestamp."""
    doc = dict(payload)
    doc["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    _write_json(path, doc)
