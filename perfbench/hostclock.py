"""Host-speed-normalised timing.

On a shared 2-core host the speed of the machine itself drifts: the same
solve-small pass took 0.50 s and 0.87 s within one minute, and CPU time
drifted with it, so wall medians of back-to-back 30 s runs differed by
35%.  So after every timed operation the benchmark runs a fixed
reference loop (a pure-Python loop and a dense LAPACK solve; it never
touches gausscolloc) for a tenth of the operation's wall time, and at
least once.  Single loop times jump by up to 2x from one few-tenths-of-
a-second stretch to the next, which is why the loop is averaged over a
window rather than sampled once.

A group of operations (one pass, or the set-up probes) is normalised by
the factor ``NOMINAL_S`` / (mean loop time over the windows taken during
the group): its times become seconds on a host that runs the loop in
``NOMINAL_S``.  Raw wall times are kept alongside.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

# Within the range of median loop times (7.6 to 11.9 ms) seen on the
# 2-core Xeon host the benchmark was written on, so normalised seconds
# read close to wall seconds there.
NOMINAL_S = 0.010
PY_ITERATIONS = 60_000
LA_ORDER = 350
WINDOW_SHARE = 0.1


class HostClock:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.random((LA_ORDER, LA_ORDER)) + LA_ORDER * np.eye(LA_ORDER)
        self._b = rng.random((LA_ORDER, LA_ORDER // 2))
        self._solve = np.linalg.solve
        self.samples = []
        self.reference()  # the first loop pays one-time costs
        self.window(0.05)

    def reference(self):
        """Wall time of one fixed reference loop."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(PY_ITERATIONS):
            acc += i * i
        self._solve(self._a, self._b)
        return time.perf_counter() - t0

    def window(self, seconds):
        """Run the loop for at least ``seconds`` (at least once); keep the samples."""
        spent = 0.0
        while True:
            t = self.reference()
            self.samples.append(t)
            spent += t
            if spent >= seconds:
                return

    @contextmanager
    def op(self):
        """Time the block, then run a loop window; the yielded dict gets
        ``wall`` seconds, also when the block raised."""
        out = {}
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            out["wall"] = time.perf_counter() - t0
            self.window(WINDOW_SHARE * out["wall"])

    def factor(self, since):
        """Normalising factor for the operations timed after sample ``since``:
        NOMINAL_S over the mean loop time of the windows that followed them,
        and of the sample just before them."""
        window = self.samples[max(since - 1, 0):]
        return NOMINAL_S * len(window) / sum(window)
