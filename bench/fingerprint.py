"""Machine fingerprint and machine-speed probe.

The fingerprint goes with every benchmark result.  Its two reference
timings let results from different machines be normalised: a stacked 2x2
complex ``np.matmul`` at P = 500 (the shape of the rf kernels) and a
512 x 512 complex GEMM (the shape of the unitarity oracle's propagators).

``SpeedProbe`` times a fixed, allocation-free mix of interpreter loops,
small stacked numpy products and a complex GEMM -- the kind of work the rf
kernels do -- between passes, so that a pass's wall time can be scaled to
nominal machine speed.  On a shared machine the speed of the whole machine
drifts by tens of percent over seconds to minutes; the scaled time tracks
the program, not the neighbours.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np
import scipy
import sympy


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _median_time(fn, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def reference_timings():
    rng = np.random.default_rng(0)
    small = rng.normal(size=(2, 500, 2, 2)) + 1j * rng.normal(size=(2, 500, 2, 2))
    big = rng.normal(size=(2, 512, 512)) + 1j * rng.normal(size=(2, 512, 512))
    return {
        "matmul_2x2_p500_us": 1e6 * _median_time(lambda: np.matmul(small[0], small[1]), 200),
        "gemm_512_complex_ms": 1e3 * _median_time(lambda: big[0] @ big[1], 7),
    }


def fingerprint(blas_threads):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "reference": reference_timings(),
    }


class SpeedProbe:
    """Fixed reference work; ``factor()`` is nominal time over measured time."""

    NOMINAL_S = 0.18

    def __init__(self):
        rng = np.random.default_rng(1)
        self.small = rng.normal(size=(100, 2, 2)) + 1j * rng.normal(size=(100, 2, 2))
        self.square = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        self.small_out = np.empty_like(self.small)
        self.square_out = np.empty_like(self.square)

    def run(self):
        start = time.perf_counter()
        acc = 0
        for i in range(800_000):
            acc += i * i
        for _ in range(2500):
            np.matmul(self.small, self.small, out=self.small_out)
        for _ in range(150):
            np.matmul(self.square, self.square, out=self.square_out)
        return time.perf_counter() - start

    def factor(self, before, after):
        return self.NOMINAL_S / (0.5 * (before + after))
