"""Host-speed reference: a fixed kernel timed between ops.

On a shared host the CPU's speed drifts by tens of percent over seconds
to minutes, and process CPU time drifts with it, so raw latencies of the
same ops differ more between runs than any change worth detecting. The
kernel below does a fixed amount of the same kinds of work as the ops
and does not touch causalgame. Dividing an op's time by the
kernel's time measured next to it cancels the host's speed; multiplying
by REFERENCE_MS expresses the result in milliseconds on a host where the
kernel takes REFERENCE_MS. A change to causalgame moves the op's time
and not the kernel's, so it shows in full.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

import truth

REFERENCE_MS = 10.0
EVERY_S = 0.25  # run time per sample
MAX_BURST = 4  # samples after one long op
WINDOW_S = 0.5
_W = truth.matrix(truth.w_beta_terms(0.7))
_LOCAL = np.kron(np.kron(truth.SIGMA["Z"], truth.SIGMA["X"]), np.kron(truth.SIGMA["Y"], truth.SIGMA["Z"]))
_TABLEAU = np.linspace(0.0, 1.0, 33 * 2100).reshape(33, 2100)
_TEXT = truth.pauli_text(truth.w_beta_terms(0.7), "kernel") * 4


def kernel() -> float:
    """About 10 ms of work shaped like the ops': scalar-indexed plane
    rotations on a 16x16 complex matrix (the eigensolver), small kron and
    trace products (the Born rule), row updates of a 33 x 2100 array (the
    simplex tableau) and text parsing (the file formats and the CLI)."""
    acc = 0.0
    for _ in range(3):
        a = _W.copy()
        for p in range(15):
            for q in range(p + 1, 16):
                g = abs(a[p, q]) + 1.0
                col = 0.6 * a[:, p] - 0.8 * a[:, q] / g
                a[:, q] = 0.8 * a[:, p] + 0.6 * a[:, q]
                a[:, p] = col
        acc += float(np.abs(a).sum())
    for _ in range(100):
        acc += np.einsum("ij,ji->", _W, np.kron(_LOCAL[:4, :4], _LOCAL[:4, :4])).real
    t = _TABLEAU.copy()
    for k in range(20):
        t -= 1e-3 * np.outer(t[:, k % 33], t[k % 33])
    acc += float(t[0, 0])
    for _ in range(600):
        for line in _TEXT.splitlines():
            if not line.startswith("#"):
                word, value = line.split()
                acc += float(value) * len(word)
    return acc


def sample_ms() -> float:
    start = perf_counter()
    kernel()
    return (perf_counter() - start) * 1e3


class HostClock:
    """Kernel samples taken between ops, about one per EVERY_S of run time.

    An op is scaled by the median of the samples taken within WINDOW_S of
    it, and at least the three nearest. One sample is itself jittered;
    scaling by it alone would widen the latency tails.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self._last = perf_counter()

    def after_op(self) -> None:
        """Take the samples that fell due while the last op ran, at most MAX_BURST."""
        due = int((perf_counter() - self._last) / EVERY_S)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def sample(self) -> None:
        self.times.append(perf_counter())
        self.samples.append(sample_ms())
        self._last = perf_counter()

    def factor(self, start: float, end: float) -> float:
        """Host-speed factor for an op that ran from ``start`` to ``end``."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < 3:
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(middle - 1, len(self.samples) - 3))
            hi = lo + 3
        return REFERENCE_MS / statistics.median(self.samples[lo:hi])
