"""The reference kernel that scales every end-to-end time to one machine speed.

A shared virtual machine swings in speed: on the 2-CPU one where the
benchmark was built, one fixed loop ran between 1583 and 2861 passes per
second within 40 s. A time taken on such a machine says as much about
the neighbours as about gaussmap. So right after each timed
call, the benchmark times this kernel, which is the benchmark's own code
and never changes with gaussmap, and scales the call's time by

    REFERENCE_NS / (time of the kernel)

The result is the call's time on a machine that runs the kernel in
REFERENCE_NS: the wall-clock time when the machine is at that speed,
shorter when it was slower and longer when it was faster. A change to
gaussmap moves the call's time and not the kernel's, so it moves the
scaled time by the same share as the wall-clock time.

The kernel mixes the work gaussmap does: a small Hermitian eigensolve,
as in the direction search and the h(c) tests, and a Python-level
integer loop, as in argument parsing and the Fock recursion's loop over
diagonals. It runs twice and only the second pass is timed, so the cache
state the preceding call left behind does not reach the figure.
"""

import time

import numpy as np

# Typical time of one timed pass of the kernel on the 2-CPU machine where
# the benchmark was built. A fixed constant, so that scaled times from
# different runs and commits compare directly.
REFERENCE_NS = 200_000

# Bound at import, so the eigensolve counter of a traced run never wraps it.
_eigvalsh = np.linalg.eigvalsh
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_A = _A + _A.conj().T


def _kernel():
    for _ in range(5):
        _eigvalsh(_A)
        s = 0
        for k in range(300):
            s += k * k


def reference_ns():
    """Time of one warm pass of the kernel, in ns."""
    _kernel()
    start = time.perf_counter_ns()
    _kernel()
    return time.perf_counter_ns() - start


def scale(reference):
    """Factor that turns a time measured next to `reference` ns into a scaled time."""
    return REFERENCE_NS / reference
