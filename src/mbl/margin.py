"""Margins, margin classes, and the subadditivity check.

The margin of a labeled example under a score row s is
m(s, y) = s_y - max_{y' != y} s_{y'}; an example is misclassified exactly
when its margin is <= 0.  One private helper computes it for a whole block
of score rows; ``margins`` and ``materialize_margin_class`` both call it.
``empirical_margin_cdf`` is the one implementation of the bounds' margin
term P_n{m <= delta}.  The induced margin class
M_k over per-class function classes (F_1, ..., F_k) tabulates, for every
tuple (f_1, ..., f_k) in the Cartesian product, the margins of all
examples.  ``verify_lemma1`` checks, by exact enumeration, the
subadditivity R_hat_n(M_k) <= sum_j R_hat_n(F_j).  The scalar ``margin``
is the textbook one-row definition that tests compare both against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CapExceeded, TabulatedClass
from .rademacher import TabulatedSupOracle, check_exact_request, exact_rademacher_columns

__all__ = [
    "MARGIN_CLASS_CAP",
    "ScoreMatrix",
    "MarginClassSpec",
    "Lemma1Report",
    "margin",
    "margins",
    "empirical_margin_cdf",
    "materialize_margin_class",
    "verify_lemma1",
    "random_margin_instance",
    "lemma1_sweep",
]

# Cap on the Cartesian-product size of a materialized margin class.
MARGIN_CLASS_CAP = 10**6

# Slack allowed on lhs <= rhs in verify_lemma1: both sides are exactly
# rounded means, so only last-bit rounding can separate them.
_LEMMA1_TOLERANCE = 1e-12

# Values the per-class functions of a random margin instance take.
_INSTANCE_VALUES = (-1.0, 0.0, 1.0)


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-example finite class scores: n rows (examples) by k >= 2 columns (classes)."""

    scores: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValueError("scores must be an (n, k) matrix with k >= 2")
        if not np.all(np.isfinite(arr)):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "scores", arr)

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def k(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class MarginClassSpec:
    """Per-class tabulated classes (F_1, ..., F_k) sharing one sample."""

    per_class: tuple[TabulatedClass, ...]

    def __post_init__(self) -> None:
        classes = tuple(self.per_class)
        object.__setattr__(self, "per_class", classes)
        if len(classes) < 2:
            raise ValueError("a margin class needs k >= 2 per-class classes")
        ns = {c.n for c in classes}
        if len(ns) != 1:
            raise ValueError(f"per-class classes disagree on sample size: {sorted(ns)}")

    @property
    def k(self) -> int:
        return len(self.per_class)

    @property
    def n(self) -> int:
        return self.per_class[0].n

    @property
    def product_size(self) -> int:
        return math.prod(c.m for c in self.per_class)


@dataclass(frozen=True)
class Lemma1Report:
    lhs: float
    rhs: float
    per_class: tuple[float, ...]
    passed: bool


def margin(score_row, y: int) -> float:
    """s_y minus the best competing score, s_y - max_{y' != y} s_{y'}.

    The one-row textbook definition, kept as the reference that tests
    compare ``margins`` and ``materialize_margin_class`` against.
    """
    row = np.asarray(score_row, dtype=np.float64)
    if row.ndim != 1 or row.shape[0] < 2:
        raise ValueError("score row must be 1-d with k >= 2 entries")
    if not np.isfinite(row).all():
        raise ValueError("score row contains non-finite values")
    if not 1 <= y <= row.shape[0]:
        raise ValueError(f"label {y} out of range [1, {row.shape[0]}]")
    others = np.delete(row, y - 1)
    return float(row[y - 1] - others.max())


def _check_labels(labels, n: int, k: int) -> np.ndarray:
    labs = np.asarray(labels, dtype=np.int64)
    if labs.shape != (n,):
        raise ValueError(f"labels length {labs.shape} != n={n}")
    if labs.min() < 1 or labs.max() > k:
        raise ValueError(f"labels must lie in [1, {k}]")
    return labs


def _margin_block(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """m(s, y) over the last (class) axis of ``scores``.

    ``labels`` are 1-based and broadcast against ``scores.shape[:-1]``.
    The competitor max masks each point's own class with -inf, and the own
    score is a max with every other class masked; -inf never wins a max
    over finite values, so both are exact, signed zeros included.
    """
    own = labels[..., None] - 1 == np.arange(scores.shape[-1])
    best_other = np.where(own, -np.inf, scores).max(axis=-1)
    return np.where(own, scores, -np.inf).max(axis=-1) - best_other


def margins(scores: ScoreMatrix, labels) -> np.ndarray:
    """Vector of margins, one per example."""
    return _margin_block(scores.scores, _check_labels(labels, scores.n, scores.k))


def empirical_margin_cdf(scores: ScoreMatrix, labels) -> Callable[[float], float]:
    """delta -> fraction of margins <= delta, precomputed and sorted.

    -inf gives 0.0 and +inf 1.0; a NaN delta raises ValueError.
    """
    m = np.sort(margins(scores, labels))
    n = m.shape[0]

    def cdf(delta: float) -> float:
        if math.isnan(delta):  # searchsorted would place NaN last, giving 1.0
            raise ValueError("delta must not be NaN")
        return float(np.searchsorted(m, delta, side="right") / n)

    return cdf


def materialize_margin_class(spec: MarginClassSpec, labels) -> TabulatedClass:
    """Tabulate the margin class M_k as one row per product tuple.

    Row r corresponds to the tuple with mixed-radix index r over
    (F_1, ..., F_k), the last class varying fastest; column i holds
    m(x_i, y_i) for that tuple.
    """
    labs = _check_labels(labels, spec.n, spec.k)
    total = spec.product_size
    if total > MARGIN_CLASS_CAP:
        raise CapExceeded(f"margin-class product has {total} rows; cap is {MARGIN_CLASS_CAP}")
    # mixed-radix digits by divmod, last class fastest (np.unravel_index
    # would stop at its 64-dimension limit)
    rest, digits = np.arange(total), []
    for c in reversed(spec.per_class):
        rest, d = np.divmod(rest, c.m)
        digits.insert(0, d)
    # scores[r, i, j]: the j-th class's function in tuple r, at point i
    scores = np.stack([c.values[d] for c, d in zip(spec.per_class, digits)], axis=-1)
    return TabulatedClass(_margin_block(scores, labs))


def verify_lemma1(spec: MarginClassSpec, labels) -> Lemma1Report:
    """Exact check of R_hat_n(M_k) <= sum_j R_hat_n(F_j) + _LEMMA1_TOLERANCE.

    Both sides are computed by one full sign enumeration, one oracle column
    per class; the inequality holds for every sample, so a failure indicates
    an implementation bug.  check_exact_request(n, rows=product size) runs
    before the margin class is built.
    """
    check_exact_request(spec.n, rows=spec.product_size)
    mclass = materialize_margin_class(spec, labels)
    oracle = TabulatedSupOracle(mclass, *spec.per_class)
    values = [est.value for est in exact_rademacher_columns(oracle)]
    lhs, per_class = values[0], tuple(values[1:])
    rhs = math.fsum(per_class)
    passed = lhs <= rhs + _LEMMA1_TOLERANCE
    return Lemma1Report(lhs=lhs, rhs=rhs, per_class=per_class, passed=passed)


def _check_instance_limits(max_k: int, max_n: int, max_class_size: int) -> None:
    if max_k < 2 or max_n < 1 or max_class_size < 1:
        raise ValueError("need max_k >= 2, max_n >= 1, max_class_size >= 1")


def random_margin_instance(
    seed: int,
    max_k: int = 3,
    max_n: int = 8,
    max_class_size: int = 4,
) -> tuple[MarginClassSpec, np.ndarray]:
    """Random small margin-class instance for sweep-style verification.

    Every per-class function takes values in {-1, 0, 1}.
    """
    _check_instance_limits(max_k, max_n, max_class_size)
    rng = np.random.Generator(np.random.Philox(key=seed))
    k = int(rng.integers(2, max_k + 1))
    n = int(rng.integers(1, max_n + 1))
    pool = np.asarray(_INSTANCE_VALUES, dtype=np.float64)
    classes = tuple(
        TabulatedClass(pool[rng.integers(0, pool.size, size=(int(rng.integers(1, max_class_size + 1)), n))])
        for _ in range(k)
    )
    labels = rng.integers(1, k + 1, size=n)
    return MarginClassSpec(classes), labels


def lemma1_sweep(
    seeds: int,
    max_k: int = 3,
    max_n: int = 8,
    max_class_size: int = 4,
    base_seed: int = 0,
) -> dict:
    """Run verify_lemma1 on `seeds` random instances; report any failures.

    Instances draw n up to max_n and up to max_k classes of up to
    max_class_size rows each, so a largest product max_class_size**max_k
    above MARGIN_CLASS_CAP, or a request (max_n, that product) that
    check_exact_request refuses, raises CapExceeded before any instance runs.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    _check_instance_limits(max_k, max_n, max_class_size)
    # Past 64 the exponent cannot change the comparison (2**64 > cap).
    if max_class_size ** min(max_k, 64) > MARGIN_CLASS_CAP:
        raise CapExceeded(
            f"{max_class_size}**{max_k} rows exceed the margin-class product cap {MARGIN_CLASS_CAP}"
        )
    check_exact_request(max_n, rows=max_class_size**max_k)
    failures = []
    worst_slack = -math.inf
    for s in range(seeds):
        spec, labels = random_margin_instance(
            base_seed + s, max_k=max_k, max_n=max_n, max_class_size=max_class_size
        )
        rep = verify_lemma1(spec, labels)
        worst_slack = max(worst_slack, rep.lhs - rep.rhs)
        if not rep.passed:
            failures.append({"seed": base_seed + s, "lhs": rep.lhs, "rhs": rep.rhs})
    return {
        "instances": seeds,
        "failures": failures,
        "worst_slack": worst_slack,
        "pass": not failures,
    }
