"""Experiment workbench: data files, synthetic data, reports, and plotting.

File formats are plain text chosen for diff-ability:

- dense matrix: header line "rows,cols", then one comma-separated line per
  row, values printed with 17 significant digits so float64 round-trips
  exactly; kernel and graph matrices reuse the same format;
- labels: one integer per line;
- run report: one JSON object ("spc-report/3"), floats as their repr, so
  every value reads back bit for bit; its schema is the field annotations
  of RunReport and SpcTrace.

Matrix files are streamed one row at a time in both directions, and neither
side holds the whole file as a string. Each off-diagonal pair of a symmetric
matrix (every kernel) is formatted and parsed once: the writer checks once
whether a square matrix is symmetric bit for bit and, if so, formats each
row from the diagonal rightwards and takes the text left of it from the
rows above; the reader of a square file copies a row's values left of the
diagonal from the column above while their text is the same. Both hold the
text still to mirror, up to about n^2/4 fields at once (about 2 MB at
n = 600). The bytes written and the values read are those of formatting and
parsing every entry.

All writes go through one write-temp-then-rename step, so readers never see
a half-written file; a write that fails removes its temp file and leaves the
target as it was.
"""

from __future__ import annotations

import io
import itertools
import os
import json
import math
import numbers
import time
from array import array
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from typing import Iterable, Iterator, Optional, Union

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


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenated chunks to path through a temp file and a rename.

    Chunks are written as they come, so a generator is streamed. On any
    exception the temp file is removed, the target is left as it was and
    the exception propagates.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


# ---------------------------------------------------------------------------
# dense matrix and label files


class _MirrorColumns:
    """The text of a symmetric matrix's upper triangle that the rows below repeat.

    Row i repeats left of its diagonal the fields that rows 0..i-1 hold in
    column i. Each row appends its fields right of the diagonal to their
    columns' buffers, each field followed by a comma, and row i takes
    column i's buffer whole. So the text held is the block above the current
    row and right of its diagonal: up to about n^2/4 fields at once, about
    2 MB at n = 600. The writer and the reader of matrix files both keep
    their mirrored text here.
    """

    def __init__(self):
        self.columns: list[bytearray] = []  # the columns right of the last row taken

    def left(self) -> bytearray:
        """Take the next row's text left of its diagonal, each field followed by a comma."""
        return self.columns.pop(0) if self.columns else bytearray()

    def keep(self, right: list[bytes]) -> None:
        """Append the fields right of the diagonal of the row just taken to their columns."""
        if not self.columns:  # the first row sizes the columns, so a header alone allocates nothing
            self.columns = [bytearray() for _ in right]
        list(map(bytearray.extend, self.columns, right))
        list(map(bytearray.append, self.columns, itertools.repeat(ord(","))))


def _matrix_lines(A: np.ndarray) -> Iterator[str]:
    # checks run now, before any caller opens a file; rows are formatted lazily
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {A.shape}")
    rows, cols = A.shape
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got shape {A.shape}")
    # bit for bit, so a -0.0 facing a 0.0 or two NaN payloads never count as mirrored
    bits = A.view(np.uint64)
    mirror = _MirrorColumns() if rows == cols and np.array_equal(bits, bits.T) else None
    return itertools.chain([f"{rows},{cols}\n"], _format_rows(A, mirror))


def _format_rows(A: np.ndarray, mirror: Optional[_MirrorColumns]) -> Iterator[str]:
    # a symmetric matrix formats each row from the diagonal rightwards, as the
    # bytes its column buffers hold, and takes the text left of the diagonal
    # from the rows above
    for i, row in enumerate(A):
        if mirror is None:
            yield ",".join(["%.17g" % v for v in row.tolist()]) + "\n"
        else:
            fields = [b"%.17g" % v for v in row[i:].tolist()]
            line = mirror.left()
            mirror.keep(fields[1:])
            line += b",".join(fields)
            line += b"\n"
            yield line.decode()


def format_matrix(A: np.ndarray) -> str:
    """Matrix file text: "rows,cols", then one line per row, values as %.17g.

    The text is the join of the lines save_matrix streams, so the two give
    the same bytes. A square matrix that is symmetric bit for bit has each
    mirrored pair formatted once; the text is the same. Raises ValueError
    for anything but a 2-D matrix with both dimensions positive.
    """
    return "".join(_matrix_lines(A))


def _read_matrix(lines: Iterator[str], source: str) -> np.ndarray:
    """The one matrix parser: consumes a file's lines (newline-terminated) one by one.

    Values use Python's float syntax. The first fault found is reported in
    this order: header, too few data lines, content after the last row,
    then the first malformed row, with its line and column numbers.

    In a square file, a row whose fields left of the diagonal are the same
    text as the column above copies those values instead of parsing them
    again; the first row that is not mirrored ends the copying, and every
    row from there is parsed whole. Copies of the same text give the same
    values, so the result does not depend on the copying.
    """
    header = next(lines, None)
    if header is None:
        raise ValueError(f"{source}: empty matrix file")
    header = header.rstrip("\n")
    head = header.split(",")
    if len(head) != 2:
        raise ValueError(f"{source}, line 1: header must be 'rows,cols', got {header!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"{source}, line 1: header must be two integers, got {header!r}") from None
    if rows < 1 or cols < 1:
        raise ValueError(f"{source}, line 1: dimensions must be positive, got {rows}x{cols}")
    values = array("d")  # grows with the rows read: a header alone allocates nothing
    mirror = _MirrorColumns() if rows == cols else None
    bad_row = None  # message for the first malformed row, raised once the line count is known
    data_lines = 0
    for data_lines, line in enumerate(lines, start=1):
        if data_lines > rows:
            if line.strip():
                extra = line.rstrip("\n")
                raise ValueError(f"{source}: unexpected content after row {rows}: {extra!r}")
        elif bad_row is None:
            text = line.rstrip("\n")
            first = 0  # the row's fields before this column copy the column above
            if mirror is not None:
                left = mirror.left().decode()
                if text.startswith(left):
                    first, text = data_lines - 1, text[len(left) :]
                    values.extend(values[first::cols])
                else:
                    mirror = None
            parts = text.split(",")
            if first + len(parts) != cols:
                bad_row = f"{source}, line {data_lines + 1}: expected {cols} values, got {first + len(parts)}"
                continue
            fault = _read_fields(values, parts, first)
            if fault is not None:
                bad_row = f"{source}, line {data_lines + 1}{fault}"
            elif mirror is not None:
                mirror.keep(list(map(str.encode, parts[1:])))
    if data_lines < rows:
        raise ValueError(f"{source}: header promises {rows} rows, file has {data_lines} data lines")
    if bad_row is not None:
        raise ValueError(bad_row)
    return np.array(values).reshape(rows, cols)


def _read_fields(values: array, parts: list[str], first: int) -> Optional[str]:
    # appends the values of a row's fields from column first on, or returns what is
    # wrong with the first bad one (values may then hold part of the row, but a
    # parse with a bad row never returns them)
    try:
        values.extend(map(float, parts))
    except ValueError:
        for c, part in enumerate(parts, start=first + 1):
            try:
                float(part)
            except ValueError:
                return f", column {c}: {part.strip()!r} is not a number"
        raise
    return None


def parse_matrix(text: str, source: str = "<string>") -> np.ndarray:
    """Parse matrix file text; the inverse of format_matrix.

    Runs the parser load_matrix runs, over the text's lines split as a file
    read in text mode splits them (\\n, \\r\\n or \\r), so both accept the same
    content and raise the same errors. Errors name source, line and column.
    A square matrix whose rows repeat the text of the column above has each
    mirrored pair parsed once (see _read_matrix).
    """
    return _read_matrix(io.StringIO(text, newline=None), source)


def save_matrix(A: np.ndarray, path: str) -> None:
    """Write a matrix file, streaming one formatted row at a time.

    The bytes equal format_matrix(A); a symmetric matrix has each mirrored
    pair formatted once, holding the text of up to about n^2/4 fields for
    the rows below. The file appears by temp-then-rename; a matrix that
    format_matrix rejects raises before any file is opened.
    """
    _atomic_write(path, _matrix_lines(A))


def load_matrix(path: str) -> np.ndarray:
    """Read a matrix file row by row from the open file; errors name the path.

    Runs the parser of parse_matrix: a symmetric file written by save_matrix
    has each mirrored pair parsed once, holding the text of up to about
    n^2/4 fields.
    """
    with open(path) as fh:
        return _read_matrix(fh, path)


def save_labels(labels, path: str) -> None:
    """Write one integer label per line, by temp-then-rename.

    An empty array, which load_labels would refuse, and a value that is not
    an integer (1.7, nan, a string) raise ValueError before any file is
    opened. Integral floats are written as integers.
    """
    labels = np.asarray(labels).ravel()
    if labels.size == 0:
        raise ValueError(f"{path}: no labels to write; a label file holds at least one")
    _check_integer_labels(labels, f"{path}: ")
    _atomic_write(path, [f"{int(v)}\n" for v in labels])


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
# dataset sources and kernel choices (shared by config file and CLI)


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
            a, b = float(parts[0]), float(parts[1])  # KernelSpec judges the exponent
        except ValueError:
            raise ValueError(f"bad polynomial parameters in {choice!r}; expected poly:a,b") from None
        return [normalize_kernel(polynomial_kernel(X, a, b))]
    raise ValueError(
        f"kernel choice {choice!r} not understood; use gaussian:t, poly:a,b, linear, or bank"
    )


def kernel_label(K: KernelMatrix) -> str:
    """Short text form of a kernel's parameters, which build_kernel_choice reads back to the same spec."""
    spec = K.spec
    if spec is None:
        return "combined"
    if spec.family == "gaussian":
        return f"gaussian:{float(spec.t)!r}".removesuffix(".0")
    if spec.family == "polynomial":
        return f"poly:{float(spec.a)!r}".removesuffix(".0") + f",{spec.b}"
    return "linear"


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(SpcConfig):
    """Everything one run needs: data source, kernel choice, solver knobs.

    ``source`` and ``kernel`` take the same strings as resolve_dataset and
    build_kernel_choice; the solver fields are inherited from SpcConfig.
    Values may come from a JSON config file, with command-line flags taking
    precedence. Types, the solver ranges, the mode and the mode/kernel
    pairing are checked at construction, whatever the values came from.
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
        if self.mode == "spc" and self.kernel == "bank":
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


def report_determinism_view(text: str) -> str:
    """Report text without its clock readings, the timings and the trace's wall_time, for run-to-run diffs."""
    view = asdict(RunReport.from_text(text))
    del view["timings"], view["trace"]["wall_time"]
    return json.dumps(view) + "\n"


def _score_labels(pred, truth) -> dict[str, float]:
    """The REPORT_METRICS of predicted labels against ground-truth labels."""
    pred, truth = Partition.from_labels(pred), Partition.from_labels(truth)
    return {name: score(pred, truth) for name, score in _METRICS.items()}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run one configured experiment and write its artifacts.

    Writes report.txt, labels.txt, and graph.csv (the learned affinity
    matrix) into cfg.out. Metrics are computed only when the dataset
    carries ground-truth labels.
    """
    t0 = time.perf_counter()
    X = resolve_dataset(cfg.source)
    bank = build_kernel_choice(X, cfg.kernel)
    os.makedirs(cfg.out, exist_ok=True)  # a bad output path fails before the solve
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
    _atomic_write(os.path.join(cfg.out, "report.txt"), [report.to_text()])
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
    _atomic_write(path, [line + "\n" for line in lines])
