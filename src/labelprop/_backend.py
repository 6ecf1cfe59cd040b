"""Kernel backend selection: numba JIT by default, interpreter on request.

Each kernel is written once, as a plain Python function that uses only
1-D indexing and ``len()`` on its sequences, and decorated with
:func:`njit` from this module.  By default that is numba's ``@njit``:
every detector runs its kernel compiled on numpy arrays, the chunked
kernels on numba's thread pool (``workers=1`` is a pool of one thread).
When numba is not importable, or ``LABELPROP_DISABLE_NUMBA=1`` is set
before import, the decorator is a no-op and each detector's ``start()``
picks an interpreted run shape instead.  Non-strict RAK and non-strict
SLPA run the kernel source itself through the one kernel launch
(`labelprop.result.Launch`), which hands it Python lists
(:func:`kernel_args`), because reading a list element is far cheaper than
building a numpy scalar; the results are bit-identical to the array-fed
kernels.  Strict RAK (numpy levels, `labelprop.rak`), strict SLPA (numpy
rounds, `labelprop.slpa`) and COPRA (per-vertex label rows in plain
Python, `labelprop.copra`) run separate code with the same results, which
tests hold equal to their kernels run through the interpreter.

On a 2-vCPU x86-64 VM without numba, lists rather than arrays cut the
wall time of the ``perfbench`` ``sweep-planted-rak`` workload from 6.60 s
to 1.80 s (median of 10 paired runs).  The compiled-versus-interpreted
ratio has not been measured since; running ``perfbench`` with and without
``LABELPROP_DISABLE_NUMBA=1`` on a host with numba gives it.
"""

from __future__ import annotations

import os

_TRUTHY = ("1", "true", "yes", "on")

JIT_ENABLED = os.environ.get("LABELPROP_DISABLE_NUMBA", "").lower() not in _TRUTHY

if JIT_ENABLED:
    try:
        import numba
        from numba import njit, prange
        from numba import get_num_threads, get_thread_id, set_num_threads

        MAX_THREADS = int(numba.config.NUMBA_NUM_THREADS)
    except ImportError:  # pragma: no cover - numba is a declared dependency
        JIT_ENABLED = False

if not JIT_ENABLED:

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap

    prange = range
    MAX_THREADS = 1

    def get_thread_id():
        return 0

    def get_num_threads():
        return 1

    def set_num_threads(n):
        pass


# Per-worker scratch rows are padded by this many 8-byte slots so that two
# workers never write to the same cache line.
PAD = 8

# Vertices per work unit of the chunked kernels; chunks are handed to the
# pool's threads.
CHUNK = 1024


def threads_run(workers):
    """The threads a kernel asked for ``workers`` runs on: the pool's size at most."""
    return min(workers, MAX_THREADS)


def kernel_args(*arrays):
    """The arrays to hand a kernel: unchanged when compiled, as lists otherwise.

    Kernels mutate their arguments in place, so a caller reads results
    back from the returned objects (``np.asarray``), not from its arrays.
    """
    if JIT_ENABLED:
        return arrays
    return tuple(a.tolist() for a in arrays)
