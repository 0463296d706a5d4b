"""Machine context printed with every benchmark result.

A slow or contended host shows up here: core count, CPU model, cache sizes,
library versions, the BLAS build and its thread setting, and a fixed-size
dgemm rate measured in the same process just before the workload runs.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np
import scipy

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_ORDER = 1024
PROBE_WARMUPS = 3
PROBE_REPEATS = 7


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    """Unified/data cache sizes by level, as the kernel reports them for cpu0."""
    sizes: dict[str, str] = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _blas_build() -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": str(blas.get("name")), "version": str(blas.get("version"))}


def dgemm_gflops() -> float:
    """Median rate of a PROBE_ORDER x PROBE_ORDER float64 matrix product, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((PROBE_ORDER, PROBE_ORDER))
    b = rng.standard_normal((PROBE_ORDER, PROBE_ORDER))
    for _ in range(PROBE_WARMUPS):
        a @ b  # the first calls pay thread start-up and clock ramp-up
    times = []
    for _ in range(PROBE_REPEATS):
        tic = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - tic)
    return 2.0 * PROBE_ORDER**3 / statistics.median(times) * 1e-9


def context() -> dict:
    blas = _blas_build()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "dgemm_gflops": round(dgemm_gflops(), 3),
        "dgemm_order": PROBE_ORDER,
    }
