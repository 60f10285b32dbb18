"""JSON file formats for maps, states, and reports.

Maps and states travel as small JSON documents with row-major matrices
in interleaved quadrature ordering (Q1, P1, Q2, P2, ...). A
format_version field gates future changes; loaders accept documents
without one and treat them as version 1. Reports are written with
sorted keys so that identical inputs and seed reproduce the file
byte-for-byte apart from the timestamp field.
"""

import datetime
import json

import numpy as np

from .gaussian import GaussianMap

FORMAT_VERSION = 1


def _check_version(doc, path):
    version = doc.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {version!r}")


def _as_array(doc, key, shape, path):
    if key not in doc:
        raise ValueError(f"{path}: missing field {key!r}")
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: field {key!r} is not a numeric array")
    if arr.shape != shape:
        raise ValueError(
            f"{path}: field {key!r} has shape {arr.shape}, expected {shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: field {key!r} has a NaN or infinite entry")
    return arr


def _load_doc(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return doc


def _mode_count(doc, path):
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{path}: field 'n' must be a positive integer")
    return n


def load_map(path):
    """Read a map file into a GaussianMap.

    Raises:
        OSError: unreadable file.
        ValueError: malformed JSON, wrong shapes, a NaN or infinite
            entry, or an alpha that is not symmetric within 1e-9 (schema
            errors).
    """
    doc = _load_doc(path)
    _check_version(doc, path)
    n = _mode_count(doc, path)
    d = 2 * n
    K = _as_array(doc, "K", (d, d), path)
    alpha = _as_array(doc, "alpha", (d, d), path)
    if "y0" in doc and doc["y0"] is not None:
        y0 = _as_array(doc, "y0", (d,), path)
    else:
        y0 = np.zeros(d)
    try:
        return GaussianMap(K=K, alpha=alpha, y0=y0)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def load_state_arrays(path):
    """Read a state file into raw (mean, cov) arrays.

    Shape, finite entries and symmetry are schema requirements; whether
    cov is a valid covariance is a separate question left to the caller,
    so that an unphysical but well-formed state can still be inspected.
    """
    doc = _load_doc(path)
    _check_version(doc, path)
    n = _mode_count(doc, path)
    d = 2 * n
    mean = _as_array(doc, "mean", (d,), path)
    cov = _as_array(doc, "cov", (d, d), path)
    if np.max(np.abs(cov - cov.T)) > 1e-9 * max(1.0, float(np.max(np.abs(cov)))):
        raise ValueError(f"{path}: cov is not symmetric")
    return mean, 0.5 * (cov + cov.T)


def save_map(path, gmap):
    doc = {
        "format_version": FORMAT_VERSION,
        "n": gmap.n,
        "K": gmap.K.tolist(),
        "alpha": gmap.alpha.tolist(),
        "y0": gmap.y0.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_state(path, mean, cov):
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    doc = {
        "format_version": FORMAT_VERSION,
        "n": mean.size // 2,
        "mean": mean.tolist(),
        "cov": cov.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def interleave_complex(w):
    """Complex vector -> [re w_1, im w_1, re w_2, im w_2, ...]."""
    w = np.asarray(w, dtype=complex)
    out = np.empty(2 * w.size)
    out[0::2] = w.real
    out[1::2] = w.imag
    return out.tolist()


def _pythonize(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {k: _pythonize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pythonize(v) for v in value]
    return value


def write_report(path, payload):
    """Write a report file; deterministic apart from the timestamp."""
    doc = _pythonize(dict(payload))
    doc["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
