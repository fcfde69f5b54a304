"""The host's speed, sampled by a fixed numpy kernel between units of timed work.

The 2-core host this benchmark runs on changes speed by 10-30 % over seconds
to minutes, for reasons outside the process: a fixed loop slows as much as
the program does, in CPU time as well as wall time. So on the workloads
marked ``host_scaled`` in ``run.py`` the timed phases are interleaved with
short runs of a fixed kernel that is no part of the program, and each
end-to-end time is scaled by how fast that kernel ran during the same phase:

    reported = (phase time - kernel time) * REF_KERNEL_S / median(kernel samples)

that is, in seconds of a host on which one kernel run takes REF_KERNEL_S.
The kernel is the kind of work that bounds desk_cv: a Python loop of numpy
ops on arrays of a few hundred KB. Sampled between subject screenings, its
time follows desk_cv's screening time with a correlation of about 0.9, and
dividing by it halves the pass-to-pass spread. It does not follow BLAS- and
memory-bound work such as ref_subject's. The raw times and the factors are
printed on stderr.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one kernel run on the reference host (README, Machine).
REF_KERNEL_S = 0.0065


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((8, 2, 6, 22, 22))
        self._w = rng.standard_normal((44, 4))
        self.samples: list[float] = []

    def _kernel(self) -> None:
        x = self._x
        for _ in range(60):
            y = np.maximum(x * 0.5 + 0.1, 0.0)
            z = y.reshape(-1, 44) @ self._w
            x = self._x + z.sum() * 1e-9

    def sample(self) -> float:
        """Run the kernel once; returns the time it took."""
        start = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def factor(self, since: int) -> float:
        """REF_KERNEL_S over the median kernel time of the samples since ``since``."""
        return REF_KERNEL_S / statistics.median(self.samples[since:])
