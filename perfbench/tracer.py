"""Span tracer that times calls into spclust's public functions.

The tracer lives in the benchmark, not in the library: it wraps each target
function and rebinds the wrapper under every name that refers to the
original function object in every loaded ``spclust`` module. Calls are
therefore caught no matter which module makes them, including calls a later
refactor moves from one module to another.

Spans stay in memory until the run ends. A span's self time is its duration
minus the time its direct children cover; calls are strictly nested because
the library is single-threaded at the Python level.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _factorize_flops(args, kwargs) -> float:
    # Cholesky of an order-n matrix: n^3 / 3 floating-point operations
    n = _arg(args, kwargs, 0, "A").shape[0]
    return n**3 / 3.0


def _solve_flops(args, kwargs) -> float:
    # two triangular solves with m right-hand sides: 2 n^2 m operations
    f, b = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "b")
    m = b.shape[1] if b.ndim == 2 else 1
    return 2.0 * f.order**2 * m


def _file_bytes(index: int, name: str) -> Callable:
    return lambda args, kwargs: float(os.path.getsize(_arg(args, kwargs, index, name)))


PACKAGE = "spclust"

# module -> public functions to trace, the layers later changes are judged by
TARGETS: dict[str, tuple[str, ...]] = {
    "numerics": ("symmetric_eigen", "spd_factorize", "spd_solve"),
    "spc": ("run_spc", "objective", "build_laplacian", "project_nonneg", "extract_labels"),
    "mkl": ("run_mspc", "combine_kernels", "kernel_costs", "update_weights"),
    "kernels": ("build_standard_bank", "gaussian_kernel", "normalize_kernel"),
    "workbench": ("save_matrix", "load_matrix", "load_dense_matrix"),
    "cli": ("main",),
}

# computed work per call, turned into a rate over the function's self time:
# qualified name -> (metric suffix, unit, scale to the unit, meter)
RATES: dict[str, tuple[str, str, float, Callable]] = {
    "numerics.spd_factorize": ("gflops", "GFLOP/s", 1e-9, _factorize_flops),
    "numerics.spd_solve": ("gflops", "GFLOP/s", 1e-9, _solve_flops),
    "workbench.save_matrix": ("MBps", "MB/s", 1e-6, _file_bytes(1, "path")),
    "workbench.load_matrix": ("MBps", "MB/s", 1e-6, _file_bytes(0, "path")),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    work: float = 0.0


class Tracer:
    """Wraps the target functions while installed and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _wrap(self, qualname: str, fn):
        meter = RATES[qualname][3] if qualname in RATES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(qualname, time.perf_counter(), 0.0, parent, self.run_id)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if meter is not None:
                span.work = meter(args, kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = self._modules()
        for module, names in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{module}")
            for name in names:
                qualname = f"{module}.{name}"
                fn = getattr(home, name, None) if home is not None else None
                if not callable(fn):
                    self.absent.append(qualname)
                    continue
                wrapper = self._wrap(qualname, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._rebound.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._rebound):
            setattr(m, attr, fn)
        self._rebound.clear()

    def self_times(self) -> list[float]:
        """Self time of each span: its duration minus its direct children's."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per qualified name: calls, summed self time and summed work."""
        out = {
            f"{module}.{name}": {"calls": 0, "self_s": 0.0, "work": 0.0}
            for module, names in TARGETS.items()
            for name in names
        }
        for span, own in zip(self.spans, self.self_times()):
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["work"] += span.work
        return out
