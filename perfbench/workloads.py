"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Each workload prepares its inputs from the seed (untimed by the operation,
timed as set-up), runs one operation through spclust's public API or CLI,
and verifies the output. All calls go through module attributes
(``sp.run_spc``, ``cli.main``) so the tracer's rebinding catches them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Optional

import numpy as np

import spclust as sp
import spclust.cli as cli

# README tuned settings for the single gaussian t=0.01 kernel
SPC_SETTINGS = dict(alpha=4.0, beta=0.125, gamma=1.0, clusters=2, adapt_beta=True, max_iters=300)
# README settings for the 12-kernel bank (alpha = 1 keeps kernel costs positive)
MSPC_SETTINGS = dict(alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, max_iters=300)
MOONS_NOISE = 0.08
GAUSSIAN_T = 0.01
# warm-up runs the same workload at this size before anything is timed
WARMUP_N = 100

OBJECTIVE_RTOL = 1e-9
COST_RTOL = 1e-9
FEASIBILITY_TOL = 1e-8


@dataclass
class Outcome:
    """What one operation produced, reduced to the numbers the benchmark reports."""

    iterations: int  # solver outer iterations, or matrix files for the file workload
    accuracy: float
    digest: str  # hash of the labels, or of the file contents read back
    objective: Optional[float] = None
    beta_adjustments: int = 0
    wrong_component_iters: int = 0
    failures: list[str] = field(default_factory=list)


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), np.finfo(float).tiny)


def rotated_moons(n: int, seed: int) -> sp.Dataset:
    """Two-moons data (data seed 0) rotated about the origin by a seed-chosen angle.

    Every kernel in the bank depends only on distances and inner products,
    which a rotation keeps, so each seed poses the same clustering problem
    in different input bits. The solver's initial graph stays at seed 0.
    """
    X = sp.generate_two_moons(n, noise_sigma=MOONS_NOISE, seed=0)
    angle = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(angle), np.sin(angle)
    return sp.Dataset(np.array([[c, -s], [s, c]]) @ X.values, labels=X.labels)


class Workload:
    """One named set of inputs: prepare(seed), a timed operate(ctx), verify()."""

    kind = ""

    def __init__(self, n: int, workdir: str):
        self.n = n
        self.name = f"{self.kind}_{n}"
        self.workdir = workdir  # scratch space for files the operation writes


def _solver_outcome(result, X: sp.Dataset, cfg: sp.SpcConfig) -> Outcome:
    trace = result.trace
    failures = []
    if not result.converged:
        failures.append("did not converge")
    if result.component_count != cfg.clusters:
        failures.append(f"{result.component_count} components, expected {cfg.clusters}")
    previous = [cfg.beta] + trace.beta[:-1]
    return Outcome(
        iterations=trace.iterations,
        accuracy=float(sp.accuracy(result.labels, X.labels)),
        digest=_digest(result.labels.astype(np.int64)),
        objective=float(trace.objective[-1]),
        beta_adjustments=sum(b != p for b, p in zip(trace.beta, previous)),
        wrong_component_iters=sum(z != cfg.clusters for z in trace.near_zero_eigs),
        failures=failures,
    )


class SpcMoons(Workload):
    """run_spc on two-moons with the normalized gaussian t=0.01 kernel."""

    kind = "spc_moons"

    def prepare(self, seed: int):
        X = rotated_moons(self.n, seed)
        K = sp.normalize_kernel(sp.gaussian_kernel(X, GAUSSIAN_T))
        return SimpleNamespace(X=X, K=K, cfg=sp.SpcConfig(**SPC_SETTINGS))

    def operate(self, ctx):
        return sp.run_spc(ctx.K, ctx.cfg)

    def verify(self, ctx, result) -> Outcome:
        out = _solver_outcome(result, ctx.X, ctx.cfg)
        cfg_last = replace(ctx.cfg, beta=result.trace.beta[-1])
        recomputed = sp.objective(ctx.K, result.graph, result.embedding, cfg_last)
        gap = _rel_gap(recomputed, out.objective)
        if gap > OBJECTIVE_RTOL:
            out.failures.append(f"recomputed objective differs by {gap:.3e} (relative)")
        return out


class MspcBank(Workload):
    """run_mspc on the standard 12-kernel bank of two-moons."""

    kind = "mspc_bank"

    def prepare(self, seed: int):
        X = rotated_moons(self.n, seed)
        bank = sp.build_standard_bank(X)
        return SimpleNamespace(X=X, bank=bank, cfg=sp.SpcConfig(**MSPC_SETTINGS))

    def operate(self, ctx):
        return sp.run_mspc(ctx.bank, ctx.cfg)

    def verify(self, ctx, returned) -> Outcome:
        result, state = returned
        out = _solver_outcome(result, ctx.X, ctx.cfg)
        w = np.asarray(state.weights)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            out.failures.append(f"weights not finite and nonnegative: {w}")
        dev = abs(float(np.sqrt(w).sum()) - 1.0)
        if dev > FEASIBILITY_TOL:
            out.failures.append(f"|sum(sqrt(w)) - 1| = {dev:.3e}")
        # the traced objective uses the kernel combined from the weights
        # before the last update, which the result does not return; check
        # instead that the returned costs follow from the returned graph
        Z, alpha = result.graph, ctx.cfg.alpha
        for i, K in enumerate(ctx.bank):
            VZ = K.values @ Z
            h = np.trace(K.values) - 2.0 * alpha * np.trace(VZ) + np.vdot(VZ, Z)
            gap = _rel_gap(h, float(state.costs[i]))
            if gap > COST_RTOL:
                out.failures.append(f"cost of kernel {i} differs by {gap:.3e} (relative)")
        return out


class KernelFiles(Workload):
    """gen-moons and build-kernels through the CLI, then every file read back."""

    kind = "kernel_files"

    def prepare(self, seed: int):
        X = sp.generate_two_moons(self.n, noise_sigma=MOONS_NOISE, seed=seed)
        return SimpleNamespace(X=X, bank=sp.build_standard_bank(X), seed=seed)

    def operate(self, ctx):
        out = tempfile.mkdtemp(dir=self.workdir)
        data = os.path.join(out, "moons.csv")
        kdir = os.path.join(out, "kernels")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (
                cli.main(["gen-moons", "--n", str(self.n), "--noise", str(MOONS_NOISE),
                          "--seed", str(ctx.seed), "--out", out]),
                cli.main(["build-kernels", data, "--kernel", "bank", "--out", kdir]),
            )
        back = SimpleNamespace(dir=out, codes=codes, X=None, kernels=[])
        if not any(codes):
            back.X = sp.load_dense_matrix(data)
            with open(os.path.join(kdir, "kernels.txt")) as fh:
                names = [line.split()[0] for line in fh if line.strip()]
            back.kernels = [sp.load_matrix(os.path.join(kdir, name)) for name in names]
        return back

    def verify(self, ctx, back) -> Outcome:
        shutil.rmtree(back.dir)
        if any(back.codes):
            return Outcome(0, 0.0, "", failures=[f"CLI exit codes {back.codes}"])
        failures = []
        pairs = [(ctx.X.values, back.X.values)]
        pairs += [(K.values, got) for K, got in zip(ctx.bank, back.kernels)]
        if len(back.kernels) != len(ctx.bank):
            failures.append(f"{len(back.kernels)} kernel files, expected {len(ctx.bank)}")
        if back.X.labels is None or not np.array_equal(back.X.labels, ctx.X.labels):
            failures.append("labels did not round-trip")
        exact = total = 0
        for i, (want, got) in enumerate(pairs):
            if want.shape != got.shape:
                failures.append(f"matrix {i} has shape {got.shape}, expected {want.shape}")
                total += want.size
                continue
            # bit-exact: compare the float64 bit patterns, not the values
            same = want.view(np.uint64) == got.view(np.uint64)
            exact += int(same.sum())
            total += want.size
            if not same.all():
                failures.append(f"matrix {i}: {int((~same).sum())} entries differ")
        return Outcome(
            iterations=len(pairs),
            accuracy=exact / total,
            digest=_digest(*(got for _, got in pairs)),
            failures=failures,
        )


KINDS = {cls.kind: cls for cls in (SpcMoons, MspcBank, KernelFiles)}


def make(name: str, workdir: str):
    """Workload by name: <kind>_<n>, n even, with kind spc_moons, mspc_bank or kernel_files."""
    kind, _, size = name.rpartition("_")
    if kind not in KINDS or not size.isdigit() or int(size) < 2 or int(size) % 2:
        raise ValueError(f"unknown workload {name!r}")
    return KINDS[kind](int(size), workdir)


def warm_up(wl: Workload) -> None:
    """Run the workload once at WARMUP_N, so nothing timed later pays first-call costs."""
    small = make(f"{wl.kind}_{WARMUP_N}", wl.workdir)
    ctx = small.prepare(0)
    small.verify(ctx, small.operate(ctx))
