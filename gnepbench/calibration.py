"""Host-speed calibration: a fixed kernel timed while the operations run.

The host this benchmark was built on runs the same code at 1.0-1.75 times
its best time, in phases of 10-30 s that often outlast a run, so raw
seconds measure the host as much as the program.  The kernel below does the
kinds of work gnepkit does (a HiGHS LP through ``scipy.optimize.linprog``,
an NNLS solve, small numpy algebra and a pure-Python loop) on fixed inputs,
and never touches gnepkit.

``start`` has a timer signal run the kernel every ``period_s`` of wall time,
so the kernel is timed during each operation, on the same core, and not
after it: the host's speed changes from one second to the next, and a
sample taken after a 3-s operation said less about the operation's own
seconds.  ``clock`` is ``time.perf_counter`` without the time spent in the
kernel; operations are timed with it.  ``scale`` turns a span of ``clock``
into seconds at the reference speed, using the kernel times sampled during
the span (the latest ``least`` samples when the span holds fewer).

``KERNEL_REF_S`` is the kernel's typical time on the reference machine, so
a scaled time is the time the operation would take at that machine's
typical speed.  It is a fixed constant: changing it rescales every figure.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.optimize import linprog, nnls

KERNEL_REF_S = 0.002

_rng = np.random.default_rng(20240917)
_A_UB = _rng.uniform(-1.0, 1.0, (12, 4))
_B_UB = np.abs(_rng.uniform(0.5, 1.5, 12))
_C = _rng.standard_normal(4)
_E = _rng.standard_normal((8, 6))
_F = _rng.standard_normal(8)
_M = _rng.standard_normal((6, 6)) + 6.0 * np.eye(6)

_kernel_s = []  # every kernel time since start()
_in_kernel_s = 0.0  # their sum
_least = 1
_ticking = False


def kernel() -> float:
    res = linprog(_C, A_ub=_A_UB, b_ub=_B_UB, bounds=(-2.0, 2.0), method="highs")
    w, _ = nnls(_E, _F)
    x = np.linalg.solve(_M, _E[:6] @ w)
    s = 0.0
    for i in range(400):
        s += (i % 7) * 0.5
    return float(res.fun) + float(x.sum()) + s


def _tick(signum, frame):
    global _in_kernel_s, _ticking
    if _ticking:  # a kernel slower than the period: skip this tick
        return
    _ticking = True
    t0 = time.perf_counter()
    kernel()
    dt = time.perf_counter() - t0
    _kernel_s.append(dt)
    _in_kernel_s += dt
    _ticking = False


def start(period_s: float, least: int) -> None:
    global _least
    _least = least
    kernel()  # the first HiGHS call sets up; keep it out of the samples
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
    while len(_kernel_s) < least:  # a full window before anything is scaled
        signal.pause()


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def clock() -> float:
    """``time.perf_counter()`` minus the time spent in the kernel so far."""
    while True:
        spent = _in_kernel_s
        now = time.perf_counter()
        if spent == _in_kernel_s:  # no tick between the two reads
            return now - spent


def mark() -> int:
    return len(_kernel_s)


def scale(seconds: float, since: int) -> float:
    """``seconds`` of ``clock`` taken since ``mark()`` returned ``since``,
    at the reference speed."""
    ks = _kernel_s[since:]
    if len(ks) < _least:
        ks = _kernel_s[-_least:]
    return seconds * KERNEL_REF_S / statistics.fmean(ks)
