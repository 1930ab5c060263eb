"""Exact and Monte Carlo estimation of empirical Rademacher complexity.

Both estimators accept any object satisfying the ``SupOracle`` contract and
run through one loop: it draws the sign rows in fixed batches from a sign
source, calls ``query_block`` on each batch and reduces every column the
oracle returns.  The exact source is ``enumerate_sign_vectors`` (all 2^n
rows in binary order); the Monte Carlo source is ``trial_sign_block``.
``mc_rademacher_columns`` returns one estimate per column of a
multi-column oracle; ``mc_empirical_rademacher`` is its one-column case.
The signed convention R_hat_n(F) = E_eps sup_f (1/n) sum_i eps_i f(x_i) is
the default; ``convention="absolute"`` computes
E_eps sup_f |(1/n) sum_i eps_i f(x_i)|, which for any oracle equals the
per-draw max of the suprema at eps and -eps.

Reproducibility contract for the Monte Carlo estimator: the sign vector of
trial j is a pure function of (seed, j), produced by a counter-based Philox
stream (trial j owns a fixed, disjoint range of counter blocks).  Trials can
therefore be generated in any partition into batches with bitwise-identical
results, and all reductions use exactly rounded summation (math.fsum), which
is order-independent.
"""
from __future__ import annotations

import math
from functools import partial
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from .core import (
    EXACT_ENUMERATION_CAP,
    CapExceeded,
    RademacherEstimate,
    SupOracle,
    TabulatedClass,
)

__all__ = [
    "enumerate_sign_vectors",
    "trial_sign_block",
    "TabulatedSupOracle",
    "exact_empirical_rademacher",
    "mc_empirical_rademacher",
    "mc_rademacher_columns",
]

# philox4x64 emits 4 uint64 words (256 bits) per counter increment.
_WORDS_PER_BLOCK = 4
_BITS_PER_BLOCK = 64 * _WORDS_PER_BLOCK

# Fixed trial-batch sizing (batch boundaries are part of no contract, but
# keeping them fixed keeps per-batch arrays and BLAS call shapes identical
# across runs).
_TARGET_BATCH_CELLS = 1 << 21

# Values per Python-float chunk fed to math.fsum: the reduction never holds a
# whole column as a list (32 bytes per value).
_REDUCE_CHUNK = 1 << 16


def _check_enumerable(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_ENUMERATION_CAP:
        raise CapExceeded(
            f"exact enumeration needs 2^{n} sign vectors; cap is n <= {EXACT_ENUMERATION_CAP}"
        )


def _signs_from_words(words: np.ndarray, rows: int, width: int, n: int) -> np.ndarray:
    """(rows, n) int8 signs: bit i of a row's `width` little-endian bits -> position i."""
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    # one int8 copy, mapped {0, 1} -> {-1, +1} in place: the block is the
    # largest per-batch array, so no further temporaries of its size
    signs = bits.reshape(rows, width)[:, :n].astype(np.int8)
    signs *= 2
    signs -= 1
    return signs


def enumerate_sign_vectors(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows [start, stop) of all 2^n sign vectors as an int8 matrix, in binary order.

    Row b holds signs with position i mapped from bit i of b
    (bit 0 -> -1, bit 1 -> +1); stop defaults to 2^n.
    """
    _check_enumerable(n)
    total = 1 << n
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise ValueError(f"need 0 <= start <= stop <= 2^{n}")
    return _signs_from_words(np.arange(start, stop, dtype=np.uint64), stop - start, 64, n)


def trial_sign_block(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Sign vectors for trials [start, stop) as a (stop-start, n) int8 matrix.

    Trial j consumes philox counter blocks [j*B, (j+1)*B) where
    B = ceil(n/256), so the output is independent of how trials are grouped
    into calls.
    """
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must be an integer in [0, 2^64)")
    if stop < start or start < 0:
        raise ValueError("need 0 <= start <= stop")
    trials = stop - start
    bpt = max(1, -(-n // _BITS_PER_BLOCK))
    gen = np.random.Philox(key=seed, counter=[start * bpt, 0, 0, 0])
    raw = np.asarray(gen.random_raw(_WORDS_PER_BLOCK * bpt * trials), dtype=np.uint64)
    return _signs_from_words(raw, trials, bpt * _BITS_PER_BLOCK, n)


class TabulatedSupOracle:
    """SupOracle over an explicit finite class (one matrix product per block)."""

    def __init__(self, cls: TabulatedClass):
        self.cls = cls
        self.n = cls.n

    def query_block(self, signs_block: np.ndarray) -> np.ndarray:
        prods = self.cls.values @ signs_block.T.astype(np.float64)
        return prods.max(axis=0) / self.n


def _block_sups(oracle: SupOracle, block: np.ndarray, convention: str) -> np.ndarray:
    sups = np.asarray(oracle.query_block(block), dtype=np.float64)
    if convention == "absolute":
        sups = np.maximum(sups, np.asarray(oracle.query_block(-block), dtype=np.float64))
    return sups


def _floats(col: np.ndarray) -> Iterator[float]:
    """The column's values as Python floats, in order, a bounded chunk at a time."""
    return chain.from_iterable(
        col[lo : lo + _REDUCE_CHUNK].tolist() for lo in range(0, col.shape[0], _REDUCE_CHUNK)
    )


def _estimate_columns(
    oracle: SupOracle,
    n: int,
    rows: int,
    signs: Callable[[int, int], np.ndarray],
    convention: str,
    seed: int | None,
) -> list[RademacherEstimate]:
    """Estimates of every oracle column over the sign rows [0, rows).

    ``signs(start, stop)`` returns the int8 block of those rows; each block
    is drawn inside the comprehension, so it is freed before the next one.
    Each column's math.fsum mean is exact for seed None, else Monte Carlo
    with a standard error.
    """
    if convention not in ("signed", "absolute"):
        raise ValueError(f"convention must be 'signed' or 'absolute', got {convention!r}")
    batch = max(1, _TARGET_BATCH_CELLS // n)
    vals = np.concatenate(
        [
            _block_sups(oracle, signs(lo, min(lo + batch, rows)), convention)
            for lo in range(0, rows, batch)
        ]
    )
    estimates = []
    for col in vals.reshape(rows, -1).T:
        value = math.fsum(_floats(col)) / rows
        if seed is None:
            estimates.append(RademacherEstimate(value, "exact-enumeration", 0, 0.0, None))
            continue
        dev = math.fsum((v - value) ** 2 for v in _floats(col))
        std_error = math.sqrt(dev / (rows - 1)) / math.sqrt(rows)
        estimates.append(RademacherEstimate(value, "monte-carlo", rows, std_error, seed))
    return estimates


def _one_column(estimates: list[RademacherEstimate]) -> RademacherEstimate:
    if len(estimates) != 1:
        raise ValueError("the oracle returns several columns; use mc_rademacher_columns")
    return estimates[0]


def exact_empirical_rademacher(
    oracle: SupOracle,
    n: int,
    convention: str = "signed",
) -> RademacherEstimate:
    """Full enumeration over all 2^n sign vectors (binary order).

    The mean is an exactly rounded sum of the 2^n supremum values, so the
    result does not depend on enumeration batching.  n above
    EXACT_ENUMERATION_CAP raises CapExceeded before any batch runs.
    """
    _check_enumerable(n)
    signs = partial(enumerate_sign_vectors, n)
    return _one_column(_estimate_columns(oracle, n, 1 << n, signs, convention, None))


def mc_rademacher_columns(
    oracle: SupOracle,
    n: int,
    trials: int,
    seed: int,
    convention: str = "signed",
) -> list[RademacherEstimate]:
    """Monte Carlo averages of every column the oracle returns per sign draw.

    ``query_block`` may return a (trials,) vector (one column) or a
    (trials, c) matrix of c suprema sharing each draw; the absolute
    convention takes each column's max at eps and -eps.  Column j's value
    and std_error are exactly what mc_empirical_rademacher gives for an
    oracle returning that column alone.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2 for a standard error")
    if n < 1:
        raise ValueError("n must be >= 1")
    signs = partial(trial_sign_block, seed, n=n)
    return _estimate_columns(oracle, n, trials, signs, convention, seed)


def mc_empirical_rademacher(
    oracle: SupOracle,
    n: int,
    trials: int,
    seed: int,
    convention: str = "signed",
) -> RademacherEstimate:
    """Monte Carlo average of the oracle over `trials` sign draws.

    std_error is the sample standard deviation over trials divided by
    sqrt(trials).  Output is a pure function of (oracle, n, trials, seed,
    convention): batching never changes a bit.  Batches run one after
    another on the calling thread.
    """
    return _one_column(mc_rademacher_columns(oracle, n, trials, seed, convention))
