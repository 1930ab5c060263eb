"""Synthetic data generators, a small one-vs-all ridge scorer, and CSV IO.

Two generators: ``uniform_interval`` draws scalar points uniformly on
[1, k+1] with labels either all equal to k+1 (the single-class law the
lower-bound experiment needs, the default) or uniform over [1, k];
``gaussian_blobs`` places k fixed centers (spacing 2 on a line for d=1, on
a radius-2 circle in the first two coordinates otherwise) and adds
spread-scaled Gaussian noise.  Generation is a pure function of (spec,
seed) via a counter-based generator.

The ridge scorer exists so the bound evaluators have realistic score
matrices and norm caps to work with; it is one-vs-all kernel ridge
regression with +1/-1 targets, returning in-sample scores and the fitted
per-class coefficient norms.

CSV formats (UTF-8, comma-separated, LF endings, floats with 17
significant digits so doubles round-trip exactly):

    dataset  header ``x_id,f1,...,fd,y``
    scores   header ``x_id,score_1,...,score_k``
    labels   header ``x_id,y``
    class    no header; one function per row, one column per sample point

All four readers share one streaming loop (``_read_table``): a format only
states its header, if any, and the kind of each column (x_id, label or
float).  The file is read once, record by record, and each cell goes
through Python's float()/int() straight into a typed buffer (array "d"
for floats, "q" for labels), so arrays are bit-identical to those calls
and no per-row string lists are held.  Blank lines are skipped; malformed
files are reported with the path and the 1-based line number.
"""
from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import LabeledDataset, TabulatedClass
from .kernel import KernelSpec, gram
from .margin import ScoreMatrix

__all__ = [
    "GeneratorSpec",
    "generate",
    "train_ova_ridge",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_scores_csv",
    "read_scores_csv",
    "write_labels_csv",
    "read_labels_csv",
    "read_tabulated_csv",
]

_KINDS = ("uniform_interval", "gaussian_blobs")
_LABEL_MODES = ("single", "uniform")


@dataclass(frozen=True)
class GeneratorSpec:
    """Distribution parameters for `generate`.

    ``labels_mode`` applies to uniform_interval only: "single" concentrates
    every label on class k+1 (so the dataset has k+1 classes), "uniform"
    draws labels uniformly from [1, k].  Blob labels are always uniform.
    """

    kind: str
    k: int
    n: int
    seed: int
    d: int = 1
    spread: float = 1.0
    labels_mode: str = "single"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.k + 1 > np.iinfo(np.int64).max:
            raise ValueError("k + 1 must fit an int64 label (k <= 2^63 - 2)")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.kind == "uniform_interval" and self.d != 1:
            raise ValueError("uniform_interval points are scalar; d must be 1")
        if not (math.isfinite(self.spread) and self.spread >= 0.0):
            raise ValueError(f"spread must be finite and >= 0, got {self.spread!r}")
        if self.labels_mode not in _LABEL_MODES:
            raise ValueError(f"labels_mode must be one of {_LABEL_MODES}")


def _blob_centers(k: int, d: int) -> np.ndarray:
    centers = np.zeros((k, d))
    if d == 1:
        centers[:, 0] = 2.0 * np.arange(k)
    else:
        angles = 2.0 * np.pi * np.arange(k) / k
        centers[:, 0] = 2.0 * np.cos(angles)
        centers[:, 1] = 2.0 * np.sin(angles)
    return centers


def generate(spec: GeneratorSpec) -> LabeledDataset:
    """Draw a dataset, a pure function of the spec; ValueError if a coordinate overflows."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    if spec.kind == "uniform_interval":
        points = 1.0 + spec.k * rng.random(spec.n)
        if spec.labels_mode == "single":
            labels = np.full(spec.n, spec.k + 1, dtype=np.int64)
            return LabeledDataset(points[:, None], labels, spec.k + 1)
        labels = rng.integers(1, spec.k + 1, size=spec.n)
        return LabeledDataset(points[:, None], labels, spec.k)
    labels = rng.integers(1, spec.k + 1, size=spec.n)
    noise = rng.standard_normal((spec.n, spec.d))
    with np.errstate(over="ignore"):  # overflow is rejected just below
        points = _blob_centers(spec.k, spec.d)[labels - 1] + spec.spread * noise
    if not np.isfinite(points).all():
        raise ValueError(f"spread={spec.spread!r} gives non-finite blob coordinates")
    return LabeledDataset(points, labels, spec.k)


def train_ova_ridge(
    dataset: LabeledDataset, kernel: KernelSpec, reg: float
) -> tuple[ScoreMatrix, np.ndarray]:
    """One-vs-all kernel ridge fit; returns in-sample scores and norms.

    Class y is fit against targets +1 (label y) / -1 (rest) by solving
    (G + reg I) alpha = targets; scores are G alpha and the returned norms
    are the per-class coefficient norms sqrt(alpha' G alpha), suitable as a
    norm cap covering the fitted scorer.
    """
    if not (math.isfinite(reg) and reg > 0.0):
        raise ValueError(f"reg must be a finite number > 0, got {reg!r}")
    if dataset.n < dataset.k:
        raise ValueError(f"need n >= k, got n={dataset.n} < k={dataset.k}")
    g = gram(kernel, dataset.points)
    targets = np.where(
        dataset.labels[:, None] == np.arange(1, dataset.k + 1)[None, :], 1.0, -1.0
    )
    system = g.copy()
    system[np.diag_indices(dataset.n)] += reg
    try:
        # gram() makes G exactly symmetric, so system.T is the same matrix;
        # LAPACK wants column-major input, which the transposed view already
        # is, so solve copies it without a transposing pass.
        alphas = np.linalg.solve(system.T, targets)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"ridge system is singular (reg too small): {exc}") from exc
    if not np.all(np.isfinite(alphas)):
        raise ValueError("ridge system is numerically singular (reg too small)")
    scores = g @ alphas
    norms = np.sqrt(np.maximum(np.einsum("ny,ny->y", alphas, scores), 0.0))
    return ScoreMatrix(scores), norms


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _open_write(path):
    return open(path, "w", encoding="utf-8", newline="")


def _writer(handle):
    return csv.writer(handle, lineterminator="\n")


# Column kinds: x_id cells are checked as integers and dropped, labels are
# integers >= 1, and every other column is a float.
_ID, _LABEL, _FLOAT = "x_id", "label", "float"


def _parse_cell(kind: str, cell: str, path, line: int, column: str):
    """float(cell) or int(cell) by column kind; failures name path and line."""
    try:
        value = float(cell) if kind == _FLOAT else int(cell)
    except ValueError:
        what = "non-numeric" if kind == _FLOAT else "non-integer"
        raise ValueError(f"{path}: line {line}: {what} value {cell!r} in column {column}") from None
    if kind == _LABEL and value < 1:
        raise ValueError(f"{path}: line {line}: label must be >= 1, got {value}")
    if kind == _LABEL and value >= 1 << 63:
        raise ValueError(f"{path}: line {line}: label exceeds 2^63 - 1, the int64 maximum")
    return value


def _records(path, handle):
    """(line, row) for each non-blank CSV record; a csv.Error names path and line."""
    reader = csv.reader(handle)
    try:
        yield from ((line, row) for line, row in enumerate(reader, start=1) if row)
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_table(path, layout, header: bool) -> tuple[np.ndarray, np.ndarray]:
    """Stream a CSV table into its (rows, floats) matrix and its labels.

    ``layout(first)`` maps the first non-blank record to the table's
    columns, a list of (name, kind); with ``header`` that record is the
    header and must equal the names.  Each cell goes through float()/int()
    straight into a typed buffer, so values are exactly what those calls
    give.  Blank records are skipped but counted in line numbers.
    """
    floats, labels, rows = array("d"), array("q"), 0
    with open(path, "r", encoding="utf-8", newline="") as handle:
        records = _records(path, handle)
        first = next(records, None)
        if first is None:
            raise ValueError(f"{path}: empty file")
        columns = layout(first[1])
        names = [name for name, _ in columns]
        if not header:
            records = chain([first], records)
        elif first[1] != names:
            raise ValueError(
                f"{path}: line 1: expected header {','.join(names)}, got {','.join(first[1])}"
            )
        sinks = {_ID: lambda value: None, _LABEL: labels.append, _FLOAT: floats.append}
        cells = [(name, kind, sinks[kind]) for name, kind in columns]
        for line, row in records:
            if len(row) != len(cells):
                raise ValueError(
                    f"{path}: line {line}: expected {len(cells)} fields, got {len(row)}"
                )
            for cell, (name, kind, sink) in zip(row, cells):
                sink(_parse_cell(kind, cell, path, line, name))
            rows += 1
    if rows == 0:
        raise ValueError(f"{path}: no data rows")
    width = sum(kind == _FLOAT for _, kind in columns)
    return np.frombuffer(floats).reshape(rows, width), np.frombuffer(labels, dtype=np.int64)


def write_dataset_csv(dataset: LabeledDataset, path) -> None:
    with _open_write(path) as handle:
        out = _writer(handle)
        out.writerow(["x_id"] + [f"f{i}" for i in range(1, dataset.d + 1)] + ["y"])
        for i in range(dataset.n):
            row = [str(i + 1)]
            row += [_fmt(v) for v in dataset.points[i]]
            row.append(str(int(dataset.labels[i])))
            out.writerow(row)


def read_dataset_csv(path) -> LabeledDataset:
    def layout(header):
        if len(header) < 3 or header[0] != "x_id" or header[-1] != "y":
            raise ValueError(
                f"{path}: line 1: expected header x_id,f1,...,fd,y (missing x_id or label column y)"
            )
        features = [(f"f{i}", _FLOAT) for i in range(1, len(header) - 1)]
        return [("x_id", _ID), *features, ("y", _LABEL)]

    points, labels = _read_table(path, layout, header=True)
    if not np.all(np.isfinite(points)):
        raise ValueError(f"{path}: non-finite feature values")
    return LabeledDataset(points, labels, int(labels.max()))


def write_scores_csv(scores: ScoreMatrix, path) -> None:
    with _open_write(path) as handle:
        out = _writer(handle)
        out.writerow(["x_id"] + [f"score_{y}" for y in range(1, scores.k + 1)])
        for i in range(scores.n):
            out.writerow([str(i + 1)] + [_fmt(v) for v in scores.scores[i]])


def read_scores_csv(path) -> ScoreMatrix:
    def layout(header):
        if len(header) < 3 or header[0] != "x_id":
            raise ValueError(f"{path}: line 1: expected header x_id,score_1,...,score_k")
        return [("x_id", _ID), *((f"score_{y}", _FLOAT) for y in range(1, len(header)))]

    return ScoreMatrix(_read_table(path, layout, header=True)[0])


def write_labels_csv(labels, path) -> None:
    arr = np.asarray(labels, dtype=np.int64)
    with _open_write(path) as handle:
        out = _writer(handle)
        out.writerow(["x_id", "y"])
        for i, y in enumerate(arr):
            out.writerow([str(i + 1), str(int(y))])


def read_labels_csv(path) -> np.ndarray:
    return _read_table(path, lambda header: [("x_id", _ID), ("y", _LABEL)], header=True)[1]


def read_tabulated_csv(path) -> TabulatedClass:
    """Headerless matrix: one function per row, one sample point per column."""

    def layout(first):
        return [(f"column {c}", _FLOAT) for c in range(1, len(first) + 1)]

    return TabulatedClass(_read_table(path, layout, header=False)[0])
