"""Shared domain types and the supremum-oracle contract.

Conventions used across the package:

* labels are 1-based integers in [1, k],
* the Rademacher complexity is the signed one,
  R_hat_n(F) = E_eps sup_{f in F} (1/n) sum_i eps_i f(x_i),
  with no absolute value; an oracle that offers the absolute-value
  convention takes it as an option (``TabulatedSupOracle(...,
  convention="absolute")``), and the estimators average what it returns,
* function classes evaluated on a fixed sample are tabulated as one row
  per function and one column per sample point,
* an oracle answers the inner supremum for a whole block of sign vectors
  at once (``SupOracle.query_block``); a single vector is a one-row block.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "EXACT_ENUMERATION_CAP",
    "EXACT_PRODUCT_CAP",
    "MC_SIGN_CELL_CAP",
    "GRAM_CELL_CAP",
    "CapExceeded",
    "LabeledDataset",
    "TabulatedClass",
    "RademacherEstimate",
    "SupOracle",
    "as_sign_vector",
]

# Hard cap for exact 2^n sign enumeration (about 10^6 vectors).
EXACT_ENUMERATION_CAP = 20

# Hard cap on rows x 2^n products of one exact enumeration of a tabulated
# class (m rows) or a Lemma 1 margin class (its product of class sizes):
# 10 to 20 s of work at the cap on a 2-vCPU box (a 4096 x 20 tabulated class
# takes 9 s wall, 18 s CPU), 64 times the largest enumeration any demo, test
# or benchmark runs (2^26: 64 rows at n = 20).  This cap, the one above and
# MC_SIGN_CELL_CAP are applied only by mbl.rademacher's pre-flight checks.
EXACT_PRODUCT_CAP = 1 << 32

# Hard cap on trials * n sign cells of one Monte Carlo estimate: at the
# roughly 6e7 cells/s of a small tabulated oracle this is minutes of work,
# 300 times the largest run any demo or benchmark makes (3.2e7 cells).
MC_SIGN_CELL_CAP = 10**10

# Hard cap on the n^2 cells of one Gram matrix (n <= 10,000): its build holds
# two n x n float64 arrays, 1.6 GB at the cap.  The largest Gram any demo or
# benchmark builds is n = 4000.
GRAM_CELL_CAP = 10**8


class CapExceeded(Exception):
    """A configured resource cap (enumeration size, product size, budget) was hit."""


@dataclass(frozen=True)
class LabeledDataset:
    """A sample of n feature vectors with 1-based integer labels in [1, k].

    Construction only coerces dtypes (scalar points become one column).
    Inputs are checked where they enter: ``read_dataset_csv`` rejects
    non-finite points and labels below 1.
    """

    points: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class TabulatedClass:
    """A finite function class tabulated on a fixed sample.

    ``values[r, i]`` is the value of the r-th function at the i-th sample
    point; m >= 1 rows, one column per point, every value finite.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("tabulated class must be a 2-d (functions x points) array")
        if vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError("tabulated class needs at least one row and one column")
        if not np.all(np.isfinite(vals)):
            raise ValueError("tabulated class values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RademacherEstimate:
    """Result record for a Rademacher complexity estimate.

    ``method`` is "exact-enumeration" (trials = 0, std_error = 0, seed None)
    or "monte-carlo".
    """

    value: float
    method: str
    trials: int
    std_error: float
    seed: int | None

    def __post_init__(self) -> None:
        if self.method not in ("exact-enumeration", "monte-carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "exact-enumeration" and self.std_error != 0.0:
            raise ValueError("exact enumeration carries no sampling error")


@runtime_checkable
class SupOracle(Protocol):
    """Oracle contract: the inner supremum of the Rademacher definition.

    ``n`` is the sample size every estimator reads: it sets the length of
    the sign vectors, the batch size and the enumeration and sign-cell
    caps.  ``query_block(signs_block)`` maps a (trials, n) int8 block of
    sign vectors to the per-row suprema sup_{f in F} (1/n) sum_i signs_i
    f(x_i): a (trials,) array, or a (trials, c) array for an oracle whose c
    classes share each draw (one column per class).  It must be
    deterministic (same block, same values, bitwise); a single sign vector
    is a one-row block.

    An oracle is row-invariant when a row's values, bit for bit, do not
    depend on the rest of the block: its place, the block's size, the other
    rows.  Only then are the estimators' results independent of how the
    sign rows are batched, or of whether Monte Carlo queries each draw or
    each distinct sign pattern once.  ``Theorem3SupOracle`` is (integer
    arithmetic per row, then one division by n).  The BLAS-backed
    ``TabulatedSupOracle`` and ``KernelSupOracle`` are not: in 1- to 3-row
    blocks and in ragged trailing sub-blocks BLAS may sum a row's products
    in another order, which changes the last bits of some suprema within
    the float error of an n-term sum.
    """

    n: int

    def query_block(self, signs_block: np.ndarray) -> np.ndarray: ...


def as_sign_vector(signs) -> np.ndarray:
    """Validate a sign vector (values in {-1, +1}) and return it as int8."""
    arr = np.asarray(signs)
    if arr.ndim != 1:
        raise ValueError("sign vector must be 1-d")
    out = arr.astype(np.int8, copy=False)
    if not np.array_equal(out, arr):
        raise ValueError("sign vector entries must be -1 or +1")
    if not np.all(np.abs(out) == 1):
        raise ValueError("sign vector entries must be -1 or +1")
    return out

