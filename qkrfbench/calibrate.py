"""Host-speed calibration for the end-to-end timings.

On a shared host the same pass runs up to about 1.4 times slower when
other tenants load the cores, and that state lasts minutes, longer than a
run.  A median over one run cannot average it out, so ``wall_s`` and
``setup_s`` are scaled to a reference host speed instead.

The reference is a fixed kernel that does not call qkrf, so a change to
the package cannot change it: an interpreter loop, small LAPACK
eigensolves and scipy ``logsumexp`` calls, the three kinds of work the
workloads spend their time in.  Chunks of it run between the timed
operations, taking about ``SHARE`` of the run, so that they see the same
host as the operations do.  A timing scaled by ``REF_S / median chunk
seconds`` is the time the work would take on a host where the chunk takes
``REF_S``.
"""

from __future__ import annotations

import statistics
import time

# Seconds of calibration per second of timed operations.
SHARE = 0.1
# Reference seconds of one chunk: about its median on a 2-vCPU x86-64
# Xeon VM at 2.0 GHz with one BLAS thread.
REF_S = 0.018


class Calibration:
    """Times chunks of the fixed kernel; import after the BLAS thread cap."""

    def __init__(self):
        import numpy as np
        import scipy.special

        rng = np.random.default_rng(0)
        a = rng.standard_normal((129, 129))
        self._sym = a @ a.T + np.eye(129)
        self._x = rng.standard_normal((256, 256))
        self._eigvalsh = np.linalg.eigvalsh
        self._logsumexp = scipy.special.logsumexp
        self.seconds: list = []

    def _chunk(self) -> None:
        # About a third of the chunk each: interpreter, LAPACK, numpy ufuncs.
        s = 0
        for i in range(60_000):
            s += i * i
        for _ in range(5):
            self._eigvalsh(self._sym)
        for _ in range(3):
            self._logsumexp(self._x, axis=1)

    def after(self, op_seconds: float) -> None:
        """Run chunks for about ``SHARE * op_seconds``, at least one."""
        spent = 0.0
        while True:
            start = time.perf_counter()
            self._chunk()
            self.seconds.append(time.perf_counter() - start)
            spent += self.seconds[-1]
            if spent >= SHARE * op_seconds:
                return

    def scale(self) -> float:
        """Factor that turns measured seconds into reference-speed seconds."""
        return REF_S / statistics.median(self.seconds)
