"""Experiment workbench: data files, synthetic data, reports, and plotting.

File formats are plain line-oriented text chosen for diff-ability:

- dense matrix: header line "rows,cols", then one comma-separated line per
  row, values printed with 17 significant digits so float64 round-trips
  exactly; kernel and graph matrices reuse the same format;
- labels: one integer per line;
- run report: versioned key-value sections ("spc-report/1"), metrics with
  6 fractional digits, everything else at full precision.

All writes go through a write-temp-then-rename step so readers never see a
half-written file.
"""

from __future__ import annotations

import os
import json
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Optional

import numpy as np

from .kernels import (
    Dataset,
    KernelMatrix,
    build_standard_bank,
    gaussian_kernel,
    linear_kernel,
    normalize_kernel,
    polynomial_kernel,
)
from .metrics import Partition, accuracy, nmi, purity
from .mkl import run_mspc
from .spc import SpcConfig, _check_field_types, run_spc

REPORT_VERSION = "spc-report/1"

SVG_WIDTH = 640
SVG_HEIGHT = 480
SVG_MARGIN = 40
SVG_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
)


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _fmt(v: float) -> str:
    # shortest string that parses back to the same float64
    return repr(float(v))


# ---------------------------------------------------------------------------
# dense matrix and label files


def format_matrix(A: np.ndarray) -> str:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {A.shape}")
    lines = [f"{A.shape[0]},{A.shape[1]}"]
    for row in A:
        lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, source: str = "<string>") -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{source}: empty matrix file")
    head = lines[0].split(",")
    if len(head) != 2:
        raise ValueError(f"{source}, line 1: header must be 'rows,cols', got {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"{source}, line 1: header must be two integers, got {lines[0]!r}") from None
    if rows < 1 or cols < 1:
        raise ValueError(f"{source}, line 1: dimensions must be positive, got {rows}x{cols}")
    if len(lines) - 1 < rows:
        raise ValueError(f"{source}: header promises {rows} rows, file has {len(lines) - 1} data lines")
    for extra in lines[1 + rows :]:
        if extra.strip():
            raise ValueError(f"{source}: unexpected content after row {rows}: {extra!r}")
    out = np.empty((rows, cols))
    for r in range(rows):
        parts = lines[1 + r].split(",")
        if len(parts) != cols:
            raise ValueError(f"{source}, line {r + 2}: expected {cols} values, got {len(parts)}")
        for c, part in enumerate(parts):
            try:
                out[r, c] = float(part)
            except ValueError:
                raise ValueError(
                    f"{source}, line {r + 2}, column {c + 1}: {part.strip()!r} is not a number"
                ) from None
    return out


def save_matrix(A: np.ndarray, path: str) -> None:
    _atomic_write(path, format_matrix(A))


def load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        return parse_matrix(fh.read(), source=path)


def save_labels(labels, path: str) -> None:
    labels = np.asarray(labels).ravel()
    _atomic_write(path, "".join(f"{int(v)}\n" for v in labels))


def load_labels(path: str) -> np.ndarray:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(int(line))
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: {line.strip()!r} is not an integer") from None
    if not out:
        raise ValueError(f"{path}: label file is empty")
    return np.array(out, dtype=int)


def companion_labels_path(data_path: str) -> str:
    """Label file that travels with a data file: same name, .labels extension."""
    stem, _ = os.path.splitext(data_path)
    return stem + ".labels"


def load_dense_matrix(path: str, labels_path: Optional[str] = None) -> Dataset:
    """Read a dense matrix file (columns are samples) plus optional labels.

    With labels_path unset, a companion .labels file is picked up when
    present and silently skipped when not.
    """
    values = load_matrix(path)
    if labels_path is None:
        candidate = companion_labels_path(path)
        labels_path = candidate if os.path.exists(candidate) else None
    elif not os.path.exists(labels_path):
        raise FileNotFoundError(f"label file not found: {labels_path}")
    labels = None
    if labels_path is not None:
        labels = load_labels(labels_path)
        if labels.size != values.shape[1]:
            raise ValueError(
                f"{labels_path}: {labels.size} labels for {values.shape[1]} samples in {path}"
            )
    return Dataset(values, labels=labels)


def save_dataset(X: Dataset, path: str) -> None:
    """Write the data matrix, plus the companion label file when labels exist."""
    save_matrix(X.values, path)
    if X.labels is not None:
        save_labels(X.labels, companion_labels_path(path))


# ---------------------------------------------------------------------------
# synthetic data


def generate_two_moons(n: int, noise_sigma: float = 0.08, seed: int = 0) -> Dataset:
    """Two interleaved half-circles of n/2 points each, 2 x n, labeled 0/1.

    The first moon is the upper unit semicircle centered at the origin; the
    second is the lower unit semicircle centered at (1, 0.5), traversed
    downward. Isotropic gaussian noise of scale noise_sigma is added to
    both coordinates.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    half = n // 2
    theta = np.linspace(0.0, np.pi, half)
    upper = np.stack([np.cos(theta), np.sin(theta)])
    lower = np.stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)])
    pts = np.concatenate([upper, lower], axis=1)
    pts = pts + noise_sigma * np.random.default_rng(seed).standard_normal(pts.shape)
    return Dataset(pts, labels=np.repeat([0, 1], half))


# ---------------------------------------------------------------------------
# dataset sources and kernel choices (shared by config file and CLI)


def resolve_dataset(source: str) -> Dataset:
    """Build the dataset named by a source string.

    Accepted forms: "file:PATH" for a dense matrix file (companion labels
    picked up automatically) and "moons:n=300,noise=0.08,seed=0" for the
    synthetic generator (all three keys optional).
    """
    if source.startswith("file:"):
        path = source[len("file:") :]
        if not path:
            raise ValueError("dataset source 'file:' is missing a path")
        if not os.path.exists(path):
            raise FileNotFoundError(f"dataset file not found: {path}")
        return load_dense_matrix(path)
    if source.startswith("moons:") or source == "moons":
        opts = {"n": 300, "noise": 0.08, "seed": 0}
        spec = source[len("moons:") :] if source.startswith("moons:") else ""
        for pair in filter(None, spec.split(",")):
            if "=" not in pair:
                raise ValueError(f"bad moons option {pair!r}; expected key=value")
            key, _, raw = pair.partition("=")
            if key not in opts:
                raise ValueError(f"unknown moons option {key!r}; choose from n, noise, seed")
            try:
                opts[key] = float(raw) if key == "noise" else int(raw)
            except ValueError:
                kind = "a number" if key == "noise" else "an integer"
                raise ValueError(f"moons option {key!r} must be {kind}, got {raw!r}") from None
        return generate_two_moons(opts["n"], noise_sigma=opts["noise"], seed=opts["seed"])
    raise ValueError(
        f"dataset source {source!r} not understood; use 'file:PATH' or 'moons:n=...,noise=...,seed=...'"
    )


def build_kernel_choice(X: Dataset, choice: str) -> list[KernelMatrix]:
    """Construct the kernel(s) named by a choice string, all normalized.

    Accepted forms: "bank" (the standard 12), "gaussian:t", "poly:a,b",
    and "linear".
    """
    if choice == "bank":
        return build_standard_bank(X)
    if choice == "linear":
        return [normalize_kernel(linear_kernel(X))]
    if choice.startswith("gaussian:"):
        try:
            t = float(choice[len("gaussian:") :])
        except ValueError:
            raise ValueError(f"bad gaussian scale in {choice!r}; expected gaussian:t") from None
        return [normalize_kernel(gaussian_kernel(X, t))]
    if choice.startswith("poly:"):
        parts = choice[len("poly:") :].split(",")
        if len(parts) != 2:
            raise ValueError(f"bad polynomial parameters in {choice!r}; expected poly:a,b")
        try:
            a, b = float(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad polynomial parameters in {choice!r}; expected poly:a,b") from None
        return [normalize_kernel(polynomial_kernel(X, a, b))]
    raise ValueError(
        f"kernel choice {choice!r} not understood; use gaussian:t, poly:a,b, linear, or bank"
    )


def kernel_label(K: KernelMatrix) -> str:
    """Short text form of a kernel's parameters, for manifests and reports."""
    spec = K.spec
    if spec is None:
        return "combined"
    if spec.family == "gaussian":
        return f"gaussian:{spec.t:g}"
    if spec.family == "polynomial":
        return f"poly:{spec.a:g},{spec.b}"
    return "linear"


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs: data source, kernel choice, solver knobs.

    ``source`` and ``kernel`` take the same strings as resolve_dataset and
    build_kernel_choice; the solver fields are those of SpcConfig. Values
    may come from a JSON config file, with command-line flags taking
    precedence. Types, the mode, the mode/kernel pairing and the solver
    ranges are checked at construction, whatever the values came from.
    """

    source: str
    kernel: str = "bank"
    mode: str = "mspc"
    # defaults keep the kernel costs positive for the full bank; see README
    # for the tuned settings used in the demos
    alpha: float = 1.2
    beta: float = 100.0
    gamma: float = 1.0
    clusters: int = 2
    max_iters: int = 200
    rel_tol: float = 1e-5
    adapt_beta: bool = False
    seed: int = 0
    out: str = "."

    def __post_init__(self):
        _check_field_types(self)
        if self.mode not in ("spc", "mspc"):
            raise ValueError(f"mode must be 'spc' or 'mspc', got {self.mode!r}")
        if self.mode == "spc" and self.kernel == "bank":
            raise ValueError(
                "mode 'spc' runs on a single kernel; pick gaussian:t, poly:a,b, or linear"
            )
        self.solver_config()  # range checks on the solver fields

    def solver_config(self) -> SpcConfig:
        """The SpcConfig made of this config's fields of the same names."""
        return SpcConfig(**{f.name: getattr(self, f.name) for f in dataclass_fields(SpcConfig)})

    @classmethod
    def from_sources(cls, config_path: Optional[str], overrides: dict) -> "ExperimentConfig":
        """Merge a JSON config file (optional) with explicit overrides."""
        settings: dict = {}
        if config_path is not None:
            with open(config_path) as fh:
                try:
                    raw = json.load(fh)
                except json.JSONDecodeError as e:
                    raise ValueError(f"{config_path}: not valid JSON ({e})") from None
            if not isinstance(raw, dict):
                raise ValueError(f"{config_path}: config must be a JSON object")
            names = {f.name for f in dataclass_fields(cls)}
            for key in raw:
                if key not in names:
                    raise ValueError(f"{config_path}: unknown config key {key!r}")
            settings.update(raw)
        settings.update({k: v for k, v in overrides.items() if v is not None})
        if "source" not in settings:
            raise ValueError("no dataset source given; pass a data file or set 'source' in the config")
        return cls(**settings)


# ---------------------------------------------------------------------------
# run reports


@dataclass
class RunReport:
    """Parsed form of one report file; to_text/from_text round-trip exactly."""

    config: dict[str, str]
    converged: bool
    components: int
    iterations: int
    metrics: Optional[dict[str, float]]  # accuracy/nmi/purity, absent without truth labels
    weights: Optional[list[float]]  # kernel weights, multiple-kernel runs only
    objective_trace: list[float] = field(default_factory=list)
    rel_change_trace: list[float] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    version: str = REPORT_VERSION

    def to_text(self) -> str:
        lines = [self.version, "[config]"]
        for key, value in self.config.items():
            lines.append(f"{key} = {value}")
        lines.append("[result]")
        lines.append(f"converged = {'yes' if self.converged else 'no'}")
        lines.append(f"components = {self.components}")
        lines.append(f"iterations = {self.iterations}")
        if self.metrics is not None:
            lines.append("[metrics]")
            for key in ("accuracy", "nmi", "purity"):
                lines.append(f"{key} = {self.metrics[key]:.6f}")
        if self.weights is not None:
            lines.append("[weights]")
            pad = max(2, len(str(len(self.weights))))
            for i, w in enumerate(self.weights, start=1):
                lines.append(f"w{i:0{pad}d} = {_fmt(w)}")
        if self.objective_trace:
            lines.append("[trace]")
            pad = max(4, len(str(len(self.objective_trace))))
            for i, (obj, rel) in enumerate(zip(self.objective_trace, self.rel_change_trace), start=1):
                lines.append(f"i{i:0{pad}d} = {_fmt(obj)} {_fmt(rel)}")
        lines.append("[timings]")
        for key, value in self.timings.items():
            lines.append(f"{key} = {value:.6f}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunReport":
        lines = text.splitlines()
        if not lines or lines[0] != REPORT_VERSION:
            head = lines[0] if lines else "<empty>"
            raise ValueError(f"unsupported report format {head!r}; expected {REPORT_VERSION}")
        sections: dict[str, list[tuple[int, str, str]]] = {}
        current: Optional[str] = None
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                if current in sections:
                    raise ValueError(f"line {lineno}: duplicate section [{current}]")
                sections[current] = []
                continue
            if current is None or " = " not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition(" = ")
            sections[current].append((lineno, key, value))
        for required in ("config", "result"):
            if required not in sections:
                raise ValueError(f"report is missing its [{required}] section")
        result = {entry[1]: entry for entry in sections["result"]}
        for key in ("converged", "components", "iterations"):
            if key not in result:
                raise ValueError(f"report [result] is missing {key!r}")
        metrics = None
        if "metrics" in sections:
            metrics = {entry[1]: _report_value(entry, float) for entry in sections["metrics"]}
        weights = None
        if "weights" in sections:
            weights = [_report_value(entry, float) for entry in sections["weights"]]
        trace = [_report_value(entry, _trace_pair) for entry in sections.get("trace", [])]
        return cls(
            config={key: value for _, key, value in sections["config"]},
            converged=_report_value(result["converged"], _yes_no),
            components=_report_value(result["components"], int),
            iterations=_report_value(result["iterations"], int),
            metrics=metrics,
            weights=weights,
            objective_trace=[obj for obj, _ in trace],
            rel_change_trace=[rel for _, rel in trace],
            timings={entry[1]: _report_value(entry, float) for entry in sections.get("timings", [])},
        )


def _report_value(entry: tuple[int, str, str], convert):
    lineno, key, value = entry
    try:
        return convert(value)
    except ValueError:
        raise ValueError(f"line {lineno}: bad value for {key!r}: {value!r}") from None


def _yes_no(value: str) -> bool:
    if value not in ("yes", "no"):
        raise ValueError(value)
    return value == "yes"


def _trace_pair(value: str) -> tuple[float, float]:
    obj, rel = value.split()
    return float(obj), float(rel)


def report_determinism_view(text: str) -> str:
    """Report text with the [timings] section removed, for run-to-run diffs."""
    kept, skipping = [], False
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            skipping = line == "[timings]"
        if not skipping:
            kept.append(line)
    return "\n".join(kept) + "\n"


def _echo_config(cfg: ExperimentConfig) -> dict[str, str]:
    echo: dict[str, str] = {}
    for f in dataclass_fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            echo[f.name] = "on" if value else "off"
        elif isinstance(value, float):
            echo[f.name] = _fmt(value)
        else:
            echo[f.name] = str(value)
    return echo


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run one configured experiment and write its artifacts.

    Writes report.txt, labels.txt, and graph.csv (the learned affinity
    matrix) into cfg.out. Metrics are computed only when the dataset
    carries ground-truth labels.
    """
    t0 = time.perf_counter()
    X = resolve_dataset(cfg.source)
    bank = build_kernel_choice(X, cfg.kernel)
    solver_cfg = cfg.solver_config()
    if cfg.mode == "spc":
        result = run_spc(bank[0], solver_cfg)
        weights = None
    else:
        result, state = run_mspc(bank, solver_cfg)
        weights = [float(w) for w in state.weights]

    metrics = None
    if X.labels is not None:
        pred = Partition.from_labels(result.labels)
        truth = Partition.from_labels(X.labels)
        metrics = {
            "accuracy": accuracy(pred, truth),
            "nmi": nmi(pred, truth),
            "purity": purity(pred, truth),
        }

    report = RunReport(
        config=_echo_config(cfg),
        converged=result.converged,
        components=result.component_count,
        iterations=result.trace.iterations,
        metrics=metrics,
        weights=weights,
        objective_trace=list(result.trace.objective),
        rel_change_trace=list(result.trace.rel_change),
        timings={"total_seconds": time.perf_counter() - t0},
    )
    os.makedirs(cfg.out, exist_ok=True)
    _atomic_write(os.path.join(cfg.out, "report.txt"), report.to_text())
    save_labels(result.labels, os.path.join(cfg.out, "labels.txt"))
    save_matrix(result.graph, os.path.join(cfg.out, "graph.csv"))
    return report


# ---------------------------------------------------------------------------
# plotting


def emit_scatter_svg(X: Dataset, labels, path: str) -> None:
    """Write a standalone SVG scatter of a 2-feature dataset, one color per label.

    Output bytes are a pure function of the inputs, so identical inputs
    yield identical files.
    """
    if X.n_features != 2:
        raise ValueError(f"scatter plots need exactly 2 features, got {X.n_features}")
    lab = labels.labels if isinstance(labels, Partition) else np.asarray(labels, dtype=int)
    if lab.shape != (X.n_samples,):
        raise ValueError(f"{lab.size} labels for {X.n_samples} samples")

    spans = []
    for axis in range(2):
        lo, hi = float(X.values[axis].min()), float(X.values[axis].max())
        if hi == lo:
            lo, hi = lo - 0.5, hi + 0.5
        spans.append((lo, hi))
    (xlo, xhi), (ylo, yhi) = spans
    inner_w = SVG_WIDTH - 2 * SVG_MARGIN
    inner_h = SVG_HEIGHT - 2 * SVG_MARGIN

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    for x, y, c in zip(X.values[0], X.values[1], lab):
        px = SVG_MARGIN + (float(x) - xlo) / (xhi - xlo) * inner_w
        py = SVG_HEIGHT - SVG_MARGIN - (float(y) - ylo) / (yhi - ylo) * inner_h
        color = SVG_PALETTE[int(c) % len(SVG_PALETTE)]
        lines.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="3" fill="{color}"/>')
    lines.append("</svg>")
    _atomic_write(path, "\n".join(lines) + "\n")
