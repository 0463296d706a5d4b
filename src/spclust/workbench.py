"""Experiment workbench: data files, synthetic data, reports, and plotting.

A matrix file whose name ends in ".npy" is numpy's binary format: the
float64 array as it is in memory, behind a short header, written by
np.save and read by np.load with pickling refused. Kernel banks
(build-kernels) and learned graphs (run_experiment) are written this way:
n x n float64 matrices that only a program reads back, where text costs
2.8x the bytes and over 50x the time. Every entry reads back bit for bit,
NaN payloads included. Every other file is text:

- dense matrix (any other name): header line "rows,cols", then one
  comma-separated line per row, values printed with 17 significant digits
  so float64 round-trips exactly (every NaN reads back as the canonical
  one); data files use it, written and read as one whole text;
- labels: one integer per line;
- run report: one JSON object ("spc-report/3"), floats as their repr, so
  every value reads back bit for bit; its schema is the field annotations
  of RunReport and SpcTrace.

All writes go through one write-temp-then-rename step, so readers never see
a half-written file; a write that fails removes its temp file and leaves the
target as it was. The step takes a group of files and renames them only
once every one is written, so a group appears whole or not at all; each
command writes its files as one group (build-kernels its kernels and
kernels.txt, gen-moons the data and labels, run_experiment the report,
labels and graph). A run_experiment that fails removes the output
directories it made.
"""

from __future__ import annotations

import contextlib
import errno
import os
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from typing import Iterable, Optional, Union

import numpy as np

from .kernels import Dataset, KernelSpec, _kernels
from .metrics import Partition, accuracy, nmi, purity
from .mkl import run_mspc
from .numerics import _check_integer_labels
from .spc import SpcConfig, SpcTrace, _fits, run_spc

REPORT_VERSION = "spc-report/3"

# a report's metrics, in this order: name -> score of a predicted partition against the truth
_METRICS = {"accuracy": accuracy, "nmi": nmi, "purity": purity}
REPORT_METRICS = tuple(_METRICS)

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


def _atomic_write(files: Iterable[tuple[str, Union[str, np.ndarray]]]) -> None:
    """Write a group of files, each a (path, content) pair, all of them or none.

    Each file is written to a temp file beside its path as its pair comes:
    a string as text in one write, and an array as a .npy file by np.save,
    pickling refused. The pairs are taken one at a time, so a generator
    that builds each file's content when asked writes one file before it
    builds the next. A missing parent directory is made
    for the first file in it, and a path that names a directory is refused
    before its temp file is opened. Only after the last pair are the temp
    files renamed to their paths, in order. On any exception the temp files
    and the directories made are removed, the targets are left as they were
    and the exception propagates.
    """
    temps, made = [], []
    try:
        for path, content in files:
            _make_dirs(os.path.dirname(os.path.abspath(path)), made)
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            binary = isinstance(content, np.ndarray)
            with open(f"{path}.tmp", "wb" if binary else "w") as fh:
                temps.append(path)
                if binary:
                    np.save(fh, content, allow_pickle=False)
                else:
                    fh.write(content)
        for path in temps:
            os.replace(f"{path}.tmp", path)
    except BaseException:
        for path in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(f"{path}.tmp")
        _remove_dirs(made)
        raise


def _make_dirs(directory: str, made: list[str]) -> None:
    """Make directory and its missing parents, appending each one made to made;
    a directory that names anything else raises NotADirectoryError."""
    missing, parent = [], os.path.abspath(directory)
    while not os.path.exists(parent):
        missing.append(parent)
        parent = os.path.dirname(parent)
    for parent in reversed(missing):
        os.mkdir(parent)
        made.append(parent)
    if not os.path.isdir(directory):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), directory)


def _remove_dirs(made: list[str]) -> None:
    """Remove the directories _make_dirs made, innermost first, each only if empty."""
    for parent in reversed(made):
        with contextlib.suppress(OSError):  # not empty once a rename has happened
            os.rmdir(parent)


# ---------------------------------------------------------------------------
# dense matrix and label files


def _checked_matrix(A: np.ndarray, prefix: str = "") -> np.ndarray:
    # A itself if it is 2-D with both dimensions positive; else ValueError, its message after prefix
    if A.ndim != 2:
        raise ValueError(f"{prefix}matrix must be 2-D, got shape {A.shape}")
    if min(A.shape) < 1:
        raise ValueError(f"{prefix}matrix dimensions must be positive, got shape {A.shape}")
    return A


def format_matrix(A: np.ndarray) -> str:
    """Matrix file text: "rows,cols", then one line per row, values as %.17g.

    These are the bytes save_matrix writes to a text file. Raises
    ValueError for anything but a 2-D matrix with both dimensions positive.
    """
    A = _checked_matrix(np.asarray(A, dtype=float))
    rows = [",".join(["%.17g" % v for v in row]) for row in A.tolist()]
    return "\n".join([f"{A.shape[0]},{A.shape[1]}", *rows]) + "\n"


def parse_matrix(text: str, source: str = "<string>") -> np.ndarray:
    """Parse matrix file text, the inverse of format_matrix; errors name source.

    Lines end at \\n, \\r\\n or \\r, as a file read in text mode splits them,
    and values use Python's float syntax. The first fault found is
    reported in this order: header, too few data lines, content after the
    last row, then the first malformed row, with its line and column
    numbers. Nothing is sized from the header alone.
    """
    if not text:
        raise ValueError(f"{source}: empty matrix file")
    header, *data = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")
    head = header.split(",")
    if len(head) != 2:
        raise ValueError(f"{source}, line 1: header must be 'rows,cols', got {header!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"{source}, line 1: header must be two integers, got {header!r}") from None
    if rows < 1 or cols < 1:
        raise ValueError(f"{source}, line 1: dimensions must be positive, got {rows}x{cols}")
    if len(data) < rows:
        raise ValueError(f"{source}: header promises {rows} rows, file has {len(data)} data lines")
    for extra in data[rows:]:
        if extra.strip():
            raise ValueError(f"{source}: unexpected content after row {rows}: {extra!r}")
    values = []
    for lineno, line in enumerate(data[:rows], start=2):
        parts = line.split(",")
        if len(parts) != cols:
            raise ValueError(f"{source}, line {lineno}: expected {cols} values, got {len(parts)}")
        try:
            values.extend(map(float, parts))
        except ValueError:
            for c, part in enumerate(parts, start=1):
                try:
                    float(part)
                except ValueError:
                    raise ValueError(f"{source}, line {lineno}, column {c}: {part.strip()!r} is not a number") from None
            raise
    return np.array(values).reshape(rows, cols)


def save_matrix(A: np.ndarray, path: str) -> None:
    """Write a matrix file: .npy for a path ending in ".npy", text otherwise.

    The matrix is taken as float64, C-ordered. A text file's bytes are
    format_matrix(A), written in one piece. Either file appears by temp-then-rename, and a matrix that load_matrix would
    refuse (not 2-D, a dimension of 0) raises before any file is opened.
    """
    _atomic_write([_matrix_file(A, path)])


def _matrix_file(A: np.ndarray, path: str) -> tuple[str, Union[str, np.ndarray]]:
    # save_matrix's (path, content) pair for _atomic_write, A checked now
    if path.endswith(".npy"):
        return path, _checked_matrix(np.asarray(A, dtype=float, order="C"))
    return path, format_matrix(A)


def load_matrix(path: str) -> np.ndarray:
    """Read a matrix file written by save_matrix; errors name the path.

    A path ending in ".npy" is read by np.load, pickling refused, and must
    hold a 2-D float64 array with both dimensions positive. Any other path
    is text, read whole and parsed by parse_matrix.
    """
    if not path.endswith(".npy"):
        with open(path) as fh:
            return parse_matrix(fh.read(), path)
    with open(path, "rb") as fh:
        try:
            A = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError) as e:
            raise ValueError(f"{path}: not a .npy matrix file ({e})") from None
    if not isinstance(A, np.ndarray) or A.dtype != np.float64:
        found = f"dtype {A.dtype}" if isinstance(A, np.ndarray) else "an .npz archive"
        raise ValueError(f"{path}: a .npy matrix file holds float64 values, found {found}")
    return np.ascontiguousarray(_checked_matrix(A, f"{path}: "))


def save_labels(labels, path: str) -> None:
    """Write one integer label per line, by temp-then-rename.

    An empty array, which load_labels would refuse, and a value that is not
    an integer (1.7, nan, a string) raise ValueError before any file is
    opened. Integral floats are written as integers.
    """
    _atomic_write([_labels_file(labels, path)])


def _labels_file(labels, path: str) -> tuple[str, str]:
    # save_labels' (path, text) pair for _atomic_write, the labels checked now
    labels = np.asarray(labels).ravel()
    if labels.size == 0:
        raise ValueError(f"{path}: no labels to write; a label file holds at least one")
    _check_integer_labels(labels, f"{path}: ")
    return path, "".join(f"{int(v)}\n" for v in labels)


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
    """Write the data matrix, plus the companion label file when labels exist, as one group."""
    if X.labels is None:
        save_matrix(X.values, path)
    else:
        _atomic_write([_matrix_file(X.values, path), _labels_file(X.labels, companion_labels_path(path))])


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
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    half = n // 2
    theta = np.linspace(0.0, np.pi, half)
    upper = np.stack([np.cos(theta), np.sin(theta)])
    lower = np.stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)])
    pts = np.concatenate([upper, lower], axis=1)
    pts = pts + noise_sigma * np.random.default_rng(seed).standard_normal(pts.shape)
    return Dataset(pts, labels=np.repeat([0, 1], half))


# ---------------------------------------------------------------------------
# dataset sources (shared by config file and CLI)


def _source_kind(source: str) -> Optional[str]:
    """"file" or "moons" for a source string, None for anything else.

    A source string is "moons", or "moons:" or "file:" and what follows; the
    CLI reads any other argument as the name of a data file.
    """
    kind, colon, _ = source.partition(":")
    return kind if kind == "moons" or (kind == "file" and colon) else None


def resolve_dataset(source: str) -> Dataset:
    """Build the dataset named by a source string.

    Accepted forms: "file:PATH" for a dense matrix file (companion labels
    picked up automatically) and "moons:n=300,noise=0.08,seed=0" for the
    synthetic generator (all three keys optional).
    """
    kind = _source_kind(source)
    spec = source.partition(":")[2]
    if kind == "file":
        if not spec:
            raise ValueError("dataset source 'file:' is missing a path")
        if not os.path.exists(spec):
            raise FileNotFoundError(f"dataset file not found: {spec}")
        return load_dense_matrix(spec)
    if kind == "moons":
        opts = {"n": 300, "noise": 0.08, "seed": 0}
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


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(SpcConfig):
    """Everything one run needs: data source, kernel choice, solver knobs.

    ``source`` and ``kernel`` take the same strings as resolve_dataset and
    KernelSpec.parse; the solver fields are inherited from SpcConfig.
    Values may come from a JSON config file, with command-line flags taking
    precedence. Types, the solver ranges, the mode, the kernel choice and
    the mode/kernel pairing are checked at construction, whatever the values came from.
    """

    source: str
    kernel: str = "bank"
    mode: str = "mspc"
    out: str = "."
    # defaults keep the kernel costs positive for the full bank; see README
    # for the tuned settings used in the demos
    alpha: float = 1.2
    beta: float = 100.0
    gamma: float = 1.0
    clusters: int = 2

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in ("spc", "mspc"):
            raise ValueError(f"mode must be 'spc' or 'mspc', got {self.mode!r}")
        specs = KernelSpec.parse(self.kernel)  # a malformed choice fails before any data is loaded
        if self.mode == "spc" and len(specs) != 1:
            raise ValueError(
                "mode 'spc' runs on a single kernel; pick gaussian:t, poly:a,b, or linear"
            )

    @classmethod
    def from_sources(cls, config_path: Optional[str], overrides: dict) -> "ExperimentConfig":
        """Merge a JSON config file (optional) with explicit overrides."""
        settings: dict = {}
        if config_path is not None:
            with open(config_path) as fh:
                try:
                    raw = json.load(fh)
                # bad JSON, bad UTF-8, an integer past Python's digit limit, nesting too deep to decode
                except (ValueError, RecursionError) as e:
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
    """One run's report, written as one JSON object ("spc-report/3").

    The field annotations, and SpcTrace's under ``trace``, are the report's
    schema: to_text dumps the fields as they are and from_text checks them
    against the annotations, so from_text(r.to_text()) == r for every
    report. Floats are written as their repr and read back bit for bit; a
    non-finite value (a rel_change entry is inf after an all-zero graph) is
    written as Python's json writes it, Infinity or NaN, which json.loads
    reads back.
    """

    config: dict[str, Union[str, bool, int, float]]  # the ExperimentConfig's fields, with their types
    converged: bool
    components: int
    metrics: Optional[dict[str, float]]  # REPORT_METRICS, None without truth labels
    weights: Optional[list[float]]  # kernel weights, multiple-kernel runs only
    trace: SpcTrace
    timings: dict[str, float] = field(default_factory=dict)
    version: str = REPORT_VERSION

    def to_text(self) -> str:
        return json.dumps(asdict(self)) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunReport":
        """Parse report text; raises ValueError naming the first key at fault."""
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as e:  # RecursionError: nesting too deep to decode
            raise ValueError(f"report is not a {REPORT_VERSION} JSON object ({e})") from None
        if not isinstance(data, dict):
            raise ValueError(f"report is not a {REPORT_VERSION} JSON object")
        if data.get("version") != REPORT_VERSION:
            raise ValueError(f"unsupported report version {data.get('version')!r}; expected {REPORT_VERSION}")
        _fits(data, cls, "report")
        if data["metrics"] is not None and set(data["metrics"]) != set(REPORT_METRICS):
            raise ValueError(
                f"report key 'metrics' must hold exactly {', '.join(REPORT_METRICS)}, got {', '.join(data['metrics'])}"
            )
        lengths = {key: len(series) for key, series in data["trace"].items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(
                "report key 'trace' holds series of unequal length: "
                + ", ".join(f"{key} {length}" for key, length in lengths.items())
            )
        return cls(**{**data, "trace": SpcTrace(**data["trace"])})


def _score_labels(pred, truth) -> dict[str, float]:
    """The REPORT_METRICS of predicted labels against ground-truth labels."""
    pred, truth = Partition.from_labels(pred), Partition.from_labels(truth)
    return {name: score(pred, truth) for name, score in _METRICS.items()}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run one configured experiment and write its artifacts.

    Writes report.txt, labels.txt, and graph.npy (the learned affinity
    matrix, see save_matrix) into cfg.out as one group. Metrics are computed
    only when the dataset carries ground-truth labels. The kernel choice was
    checked when cfg was built; cfg.out is made once the data are loaded and
    the kernels built, and removed again, with any parent made for it, if
    anything after that raises.
    """
    t0 = time.perf_counter()
    X = resolve_dataset(cfg.source)
    bank = list(_kernels(X, KernelSpec.parse(cfg.kernel)))
    made = []
    try:
        _make_dirs(cfg.out, made)  # a bad output path fails before the solve
        if cfg.mode == "spc":
            result = run_spc(bank[0], cfg)
            weights = None
        else:
            result, state = run_mspc(bank, cfg)
            weights = [float(w) for w in state.weights]

        report = RunReport(
            config=asdict(cfg),
            converged=result.converged,
            components=result.component_count,
            metrics=None if X.labels is None else _score_labels(result.labels, X.labels),
            weights=weights,
            trace=result.trace,
            timings={"total_seconds": time.perf_counter() - t0},
        )
        _atomic_write(
            [
                (os.path.join(cfg.out, "report.txt"), report.to_text()),
                _labels_file(result.labels, os.path.join(cfg.out, "labels.txt")),
                _matrix_file(result.graph, os.path.join(cfg.out, "graph.npy")),
            ]
        )
    except BaseException:
        _remove_dirs(made)
        raise
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
    lab = labels.labels if isinstance(labels, Partition) else _check_integer_labels(labels).astype(int)
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
    _atomic_write([(path, "\n".join(lines) + "\n")])
