"""Synthetic data generators, a small one-vs-all ridge scorer, and CSV IO.

Two generators: ``uniform_interval`` draws scalar points uniformly on
[1, k+1] with every label k+1 (the single-class law the lower-bound
experiment needs); ``gaussian_blobs`` places k fixed centers (spacing 2 on
a line for d=1, on a radius-2 circle in the first two coordinates
otherwise) and adds spread-scaled Gaussian noise.  Generation is a pure function of (spec,
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

One writer, ``write_table``, writes these and the CLI's ``compare`` and
``verify thm3`` tables.  Each header is declared once, as a function of
the width, and gives both the writer's header and the reader's layout.

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
    "write_table",
]

_KINDS = ("uniform_interval", "gaussian_blobs")


@dataclass(frozen=True)
class GeneratorSpec:
    """Distribution parameters for `generate`.

    uniform_interval puts every label on class k+1 (so the dataset has k+1
    classes); gaussian_blobs draws labels uniformly from [1, k].
    """

    kind: str
    k: int
    n: int
    seed: int
    d: int = 1
    spread: float = 1.0

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
        labels = np.full(spec.n, spec.k + 1, dtype=np.int64)
        return LabeledDataset(points[:, None], labels, spec.k + 1)
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
    # G + reg I is formed in G itself (its diagonal is restored after the
    # solve).  gram() makes G exactly symmetric, so g.T is the same matrix;
    # LAPACK wants column-major input, which the transposed view already is,
    # so solve copies it without a transposing pass.
    diagonal = g.diagonal().copy()
    try:
        g[np.diag_indices(dataset.n)] += reg
        alphas = np.linalg.solve(g.T, targets)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"ridge system is singular (reg too small): {exc}") from exc
    finally:
        np.fill_diagonal(g, diagonal)
    if not np.all(np.isfinite(alphas)):
        raise ValueError("ridge system is numerically singular (reg too small)")
    scores = g @ alphas
    norms = np.sqrt(np.maximum(np.einsum("ny,ny->y", alphas, scores), 0.0))
    return ScoreMatrix(scores), norms


# Column kinds: x_id cells are checked as integers and dropped, labels are
# integers >= 1, and every other column is a float.  Columns are (name, kind).
_ID, _LABEL, _FLOAT = "id", "label", "float"
_X_ID, _Y = ("x_id", _ID), ("y", _LABEL)
_LABELS_COLUMNS = [_X_ID, _Y]


def _dataset_columns(d: int) -> list[tuple[str, str]]:
    return [_X_ID, *((f"f{i}", _FLOAT) for i in range(1, d + 1)), _Y]


def _scores_columns(k: int) -> list[tuple[str, str]]:
    return [_X_ID, *((f"score_{y}", _FLOAT) for y in range(1, k + 1))]


def _names(columns) -> list[str]:
    return [name for name, _ in columns]


def write_table(path, header, rows) -> None:
    """Write a header and rows of Python scalars (numpy rows via .tolist());
    a float cell is written as format(v, ".17g"), any other as str(v)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(header)
        out.writerows(
            [format(v, ".17g") if isinstance(v, float) else str(v) for v in row] for row in rows
        )


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
        names = _names(columns)
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
    rows = enumerate(zip(dataset.points.tolist(), dataset.labels.tolist()), start=1)
    write_table(
        path, _names(_dataset_columns(dataset.d)), ([i, *point, y] for i, (point, y) in rows)
    )


def read_dataset_csv(path) -> LabeledDataset:
    def layout(header):
        columns = _dataset_columns(max(len(header) - 2, 1))
        names = _names(columns)
        if header[0] != names[0] or header[-1] != names[-1]:
            raise ValueError(
                f"{path}: line 1: expected header {','.join(names)} "
                f"(missing {names[0]} or label column {names[-1]})"
            )
        return columns

    points, labels = _read_table(path, layout, header=True)
    if not np.all(np.isfinite(points)):
        raise ValueError(f"{path}: non-finite feature values")
    return LabeledDataset(points, labels, int(labels.max()))


def write_scores_csv(scores: ScoreMatrix, path) -> None:
    rows = enumerate(scores.scores.tolist(), start=1)
    write_table(path, _names(_scores_columns(scores.k)), ([i, *row] for i, row in rows))


def read_scores_csv(path) -> ScoreMatrix:
    def layout(header):
        # a header too narrow for k >= 2 scores is held against k = 2
        return _scores_columns(max(len(header) - 1, 2))

    return ScoreMatrix(_read_table(path, layout, header=True)[0])


def write_labels_csv(labels, path) -> None:
    rows = enumerate(np.asarray(labels, dtype=np.int64).tolist(), start=1)
    write_table(path, _names(_LABELS_COLUMNS), rows)


def read_labels_csv(path) -> np.ndarray:
    return _read_table(path, lambda header: _LABELS_COLUMNS, header=True)[1]


def read_tabulated_csv(path) -> TabulatedClass:
    """Headerless matrix: one function per row, one sample point per column."""

    def layout(first):
        return [(f"column {c}", _FLOAT) for c in range(1, len(first) + 1)]

    return TabulatedClass(_read_table(path, layout, header=False)[0])
