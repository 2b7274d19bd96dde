"""Operation timing that is steady on a shared, contended host.

Two effects of co-tenants make raw wall times unsteady here. The host
steals the virtual CPU for bursts of milliseconds, which inflates the tail;
CPU time (``time.process_time``, all threads of the process) leaves stolen
time out. And the cores switch, every few seconds, between a fast state
and states up to twice as slow, which moves every time; a fixed reference
kernel (a small LAPACK eigensolve plus interpreter work on small objects,
the two kinds of work the library does) is timed next to every operation,
and the operation's CPU time is scaled by ``NOMINAL_S`` over the kernel's.
The result reads as the operation's time on an uncontended core of the
benchmark machine. Raw wall times are printed beside the corrected ones.
"""
import time

import numpy as np

# Reference-kernel time on an uncontended core of the benchmark machine
# (Intel Xeon, 2 vCPUs, OpenBLAS 0.3.31 with one thread): its 5th percentile.
NOMINAL_S = 3.0e-4

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_H = _A + _A.conj().T


def _kernel() -> None:
    np.linalg.eigvalsh(_H)
    table = {}
    for k in range(400):
        table[str(k)] = [k, k * k, {"k": k}]


def reference_seconds() -> float:
    """CPU time of the reference kernel.

    An untimed first run absorbs the caches and heap the preceding
    operation left behind, so that the library's own footprint does not
    leak into the machine-speed reading.
    """
    _kernel()
    t0 = time.process_time()
    _kernel()
    return time.process_time() - t0


def corrected(seconds: float, reference: float) -> float:
    """``seconds`` scaled to the nominal speed, given the kernel's time then."""
    return seconds * NOMINAL_S / reference
