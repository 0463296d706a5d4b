"""Run one spclust benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spc_moons_1000 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; spclust is imported from ./src and
nowhere else. Workloads (see perfbench/README.md for why each exists):

    spc_moons_1000    run_spc, gaussian t=0.01 kernel, two-moons n=1000
    mspc_bank_1000    run_mspc, standard 12-kernel bank, two-moons n=1000
    kernel_files_600  CLI gen-moons + build-kernels, every file read back

Any <kind>_<n> with even n is accepted; the traced run uses mspc_bank_300.

--trace 0 sets the workload up before each operation, repeats both for
about --seconds, sets up again until eleven set-ups are timed (setup_s is
their median), and reports the end-to-end metrics. --trace 1 measures the
same way, untraced, for about --seconds, then traces one set-up and one
operation through every public function of spclust's modules, checks that
the trace attributes the work where the workload does it, and re-runs the
operation with BLAS limited to one thread in a subprocess. The last stdout line is one JSON object with keys
correct, attempted, failed and metrics; the lines before it are the machine
context, one line per operation and every metric in readable form.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 11
# every run, subprocesses included, must end within this many seconds
DEADLINE_S = 170.0
# the traced run measures thread scaling on this small instance as well
SMALL_MSPC = "mspc_bank_300"
# traced functions that solve; the file workload must call none of them
SOLVER_FUNCTIONS = ("spc.run_spc", "mkl.run_mspc", "numerics.symmetric_eigen",
                    "numerics.spd_factorize", "numerics.spd_solve")
# the function each workload's operation enters spclust through
ENTRY_POINTS = {"spc_moons": "spc.run_spc", "mspc_bank": "mkl.run_mspc", "kernel_files": "cli.main"}
# a larger untraced share means work escaped the tracer
RESIDUAL_MAX_SHARE = 0.05

STARTED = time.perf_counter()


def _import_library() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import spclust
    except ImportError as e:
        raise SystemExit(f"error: cannot import spclust from {SRC}: {e}") from None
    if not Path(spclust.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: spclust was imported from {spclust.__file__}, not from {SRC}")


def _median_of(values, unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit}


def _describe(name: str, values: list[float], unit: str) -> str:
    if len(values) == 1:
        return f"{name} = {values[0]:.6g} {unit} (1 sample)"
    return (
        f"{name} = {statistics.median(values):.6g} {unit} (median of {len(values)}; "
        f"min {min(values):.6g}, max {max(values):.6g})"
    )


def set_up(wl, seed: int):
    """Prepare the inputs and warm up; returns the inputs and the time taken."""
    import workloads

    tic = time.perf_counter()
    ctx = wl.prepare(seed)
    workloads.warm_up(wl)
    return ctx, time.perf_counter() - tic


def _attempt(wl, ctx, after_op=lambda: None):
    """Time one operation and verify it; an exception counts as a failed attempt.

    ``after_op`` runs between the operation and its verification.
    """
    import workloads

    tic = time.perf_counter()
    try:
        raw = wl.operate(ctx)
        elapsed = time.perf_counter() - tic
        after_op()
        outcome = wl.verify(ctx, raw)
    except Exception as e:  # a failing operation is a result to report, not a crash
        elapsed = time.perf_counter() - tic
        outcome = workloads.Outcome(0, 0.0, "", failures=[f"{type(e).__name__}: {e}"])
    return elapsed, outcome


def measure(wl, seed: int, seconds: float, min_setups: int):
    """Set up and run the operation, again while the next run is expected to
    end nearer the time limit than stopping now; then set up until
    ``min_setups`` set-ups are timed.

    Set-ups are spread over the whole run rather than bunched at its start,
    so their median samples the host's speed over the same window as the
    operations do.
    """
    setups, records = [], []
    start = time.perf_counter()
    while True:
        ctx, took = set_up(wl, seed)
        setups.append(took)
        records.append(_attempt(wl, ctx))
        ctx = None  # free the inputs before the next set-up builds new ones
        typical = statistics.median(t for t, _ in records)
        if time.perf_counter() - start + typical / 2 >= seconds:
            break
    while len(setups) < min_setups:
        setups.append(set_up(wl, seed)[1])
    return setups, records


def _print_records(wl, seed: int, records) -> None:
    for i, (t, o) in enumerate(records, start=1):
        line = {
            "workload": wl.name,
            "seed": seed,
            "op": i,
            "seconds": round(t, 6),
            "iterations": o.iterations,
            "accuracy": o.accuracy,
            "final_objective": o.objective,
            "digest": o.digest,
            "beta_adjustments": o.beta_adjustments,
            "wrong_component_iters": o.wrong_component_iters,
            "failures": o.failures,
        }
        print("record " + json.dumps(line))


def end_to_end(wl, args) -> dict:
    setups, records = measure(wl, args.seed, args.seconds, SETUPS)
    _print_records(wl, args.seed, records)
    times = [t for t, _ in records]
    good = [(t, o) for t, o in records if not o.failures]
    per_iter = [t / o.iterations for t, o in records if o.iterations]
    failed = len(records) - len(good)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "run_s": _median_of(times, "s"),
        "setup_s": _median_of(setups, "s"),
        "s_per_iter": _median_of(per_iter or [0.0], "s"),
        "accuracy": _median_of([o.accuracy for _, o in records], "fraction"),
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    print("metric " + _describe("run_s", times, "s"))
    print("metric " + _describe("setup_s", setups, "s"))
    print("metric " + _describe("s_per_iter", per_iter or [0.0], "s"))
    print("metric " + _describe("accuracy", [o.accuracy for _, o in records], "fraction"))
    objectives = [o.objective for _, o in records if o.objective is not None]
    if objectives:
        print("metric " + _describe("final_objective", objectives, "1"))
    print(f"metric failed_frac = {failed / len(records):.6g} ({failed} of {len(records)})")
    print(f"metric peak_rss_mb = {rss_mb:.6g} MB")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def _one_run_s(name: str, seed: int, one_thread: bool) -> tuple[float, int, int]:
    """run_s, attempted and failed of one --seconds 1 run in a fresh interpreter."""
    from machine import BLAS_THREAD_VARS

    env = dict(os.environ)
    if one_thread:
        env.update({k: "1" for k in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - STARTED))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"baseline {name} (one_thread={one_thread}) timed out after {timeout:.0f} s")
        return 0.0, 1, 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"baseline {name} failed: {proc.stderr.strip()[-500:]}")
        return 0.0, 1, 1
    result = json.loads(lines[-1])
    return result["metrics"]["run_s"]["value"], result["attempted"], result["failed"]


def attribution_failures(wl, summary: dict, iterations: int, residual_share: float) -> list[str]:
    """Checks that the traced calls are where the workload puts them."""
    failures = []
    entry = ENTRY_POINTS[wl.kind]
    if summary[entry]["calls"] == 0:
        failures.append(f"trace recorded no call to {entry}")
    factorize = summary["numerics.spd_factorize"]["calls"]
    if wl.kind == "spc_moons" and factorize != 1:
        failures.append(f"numerics.spd_factorize called {factorize} times, expected 1")
    if wl.kind == "mspc_bank" and factorize != iterations:
        failures.append(f"numerics.spd_factorize called {factorize} times, expected {iterations}")
    if wl.kind == "kernel_files":
        for qualname in SOLVER_FUNCTIONS:
            if summary[qualname]["calls"]:
                failures.append(f"{qualname} called {summary[qualname]['calls']} times, expected 0")
    if residual_share > RESIDUAL_MAX_SHARE:
        failures.append(f"untraced share {residual_share:.3f} of the traced time")
    return failures


def traced(wl, args) -> dict:
    from tracer import RATES, Tracer

    _, records = measure(wl, args.seed, args.seconds, 1)
    untraced_s = statistics.median(t for t, _ in records)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_id = "setup"
        tic = time.perf_counter()
        ctx = wl.prepare(args.seed)
        setup_s = time.perf_counter() - tic
        tracer.run_id = "op"
        # verification runs untraced, so its calls into spclust stay out of the spans
        run_s, outcome = _attempt(wl, ctx, after_op=tracer.uninstall)
    finally:
        tracer.uninstall()
    ctx = None

    total_s = setup_s + run_s
    summary = tracer.summary()
    residual = total_s - sum(e["self_s"] for e in summary.values())
    solver = outcome.objective is not None  # the file workload runs no solver
    outcome.failures += attribution_failures(wl, summary, outcome.iterations, residual / total_s)
    records.append((run_s, outcome))
    _print_records(wl, args.seed, records)

    metrics: dict[str, dict] = {}
    for qualname, entry in summary.items():
        metrics[f"{qualname}.calls"] = {"value": entry["calls"], "unit": "count"}
        metrics[f"{qualname}.self_s"] = {"value": entry["self_s"], "unit": "s"}
        metrics[f"{qualname}.share"] = {"value": entry["self_s"] / total_s, "unit": "fraction"}
    for qualname, (suffix, unit, scale, _) in RATES.items():
        entry = summary[qualname]
        rate = entry["work"] * scale / entry["self_s"] if entry["self_s"] > 0 else 0.0
        metrics[f"{qualname}.{suffix}"] = {"value": rate, "unit": unit}
    for name, value in (
        ("spc.iterations", outcome.iterations if solver else 0),
        ("spc.beta_adjustments", outcome.beta_adjustments),
        ("spc.wrong_component_iters", outcome.wrong_component_iters),
    ):
        metrics[name] = {"value": value, "unit": "count"}
    metrics["trace.setup_s"] = {"value": setup_s, "unit": "s"}
    metrics["trace.run_s"] = {"value": run_s, "unit": "s"}
    metrics["trace.residual_s"] = {"value": residual, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": run_s - untraced_s, "unit": "s"}

    attempted, failed = len(records), sum(1 for _, o in records if o.failures)
    for name, workload, one_thread in (
        ("solve_1thread_s", wl.name, True),
        (f"{SMALL_MSPC}.solve_1thread_s", SMALL_MSPC, True),
        (f"{SMALL_MSPC}.solve_s", SMALL_MSPC, False),
    ):
        value, a, f = _one_run_s(workload, args.seed, one_thread)
        metrics[name] = {"value": value, "unit": "s"}
        attempted, failed = attempted + a, failed + f

    for qualname in tracer.absent:
        print(f"absent {qualname}")
    for name, m in metrics.items():
        print(f"layer {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    import machine
    import workloads

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        wl = workloads.make(args.workload, workdir)
        print("machine " + json.dumps(machine.context()))
        result = traced(wl, args) if args.trace else end_to_end(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
