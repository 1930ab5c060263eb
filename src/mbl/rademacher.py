"""Exact and Monte Carlo estimation of empirical Rademacher complexity.

Both estimators accept any object satisfying the ``SupOracle`` contract.
``mc_rademacher_columns`` also accepts an oracle whose ``query_block``
returns several suprema per draw, one column each, and reduces every column
of the shared sign stream; ``mc_empirical_rademacher`` is its one-column
case.
The signed convention R_hat_n(F) = E_eps sup_f (1/n) sum_i eps_i f(x_i) is
the default; ``convention="absolute"`` computes
E_eps sup_f |(1/n) sum_i eps_i f(x_i)|, which for any oracle equals the
per-draw max of query(eps) and query(-eps).

Reproducibility contract for the Monte Carlo estimator: the sign vector of
trial j is a pure function of (seed, j), produced by a counter-based Philox
stream (trial j owns a fixed, disjoint range of counter blocks).  Trials can
therefore be generated in any partition into batches with bitwise-identical
results, and all reductions use exactly rounded summation (math.fsum), which
is order-independent.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    EXACT_ENUMERATION_CAP,
    CapExceeded,
    RademacherEstimate,
    SupOracle,
    TabulatedClass,
    as_sign_vector,
)

__all__ = [
    "enumerate_sign_vectors",
    "trial_sign_block",
    "tabulated_sup",
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


def enumerate_sign_vectors(n: int) -> np.ndarray:
    """All 2^n sign vectors as an int8 matrix, in binary order.

    Row b holds signs with position i mapped from bit i of b
    (bit 0 -> -1, bit 1 -> +1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_ENUMERATION_CAP:
        raise CapExceeded(
            f"exact enumeration needs 2^{n} sign vectors; cap is n <= {EXACT_ENUMERATION_CAP}"
        )
    idx = np.arange(1 << n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.int64)) & 1
    return (2 * bits - 1).astype(np.int8)


def _blocks_per_trial(n: int) -> int:
    return max(1, -(-n // _BITS_PER_BLOCK))


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
    if trials == 0:
        return np.empty((0, n), dtype=np.int8)
    bpt = _blocks_per_trial(n)
    gen = np.random.Philox(key=seed, counter=[start * bpt, 0, 0, 0])
    raw = gen.random_raw(_WORDS_PER_BLOCK * bpt * trials)
    raw = np.asarray(raw, dtype=np.uint64).astype("<u8")
    bits = np.unpackbits(raw.view(np.uint8), bitorder="little")
    # one int8 copy, mapped {0, 1} -> {-1, +1} in place: the block is the
    # largest per-batch array, so no further temporaries of its size
    signs = bits.reshape(trials, bpt * _BITS_PER_BLOCK)[:, :n].astype(np.int8)
    signs *= 2
    signs -= 1
    return signs


def tabulated_sup(cls: TabulatedClass, signs) -> float:
    """max over rows r of (1/n) sum_i signs_i * values[r, i]."""
    s = as_sign_vector(signs, cls.n)
    return float((cls.values @ s.astype(np.float64)).max() / cls.n)


class TabulatedSupOracle:
    """SupOracle over an explicit finite class (one matvec per query)."""

    def __init__(self, cls: TabulatedClass):
        self.cls = cls
        self.n = cls.n

    def query(self, signs) -> float:
        return tabulated_sup(self.cls, signs)

    def query_block(self, signs_block: np.ndarray) -> np.ndarray:
        prods = self.cls.values @ signs_block.T.astype(np.float64)
        return prods.max(axis=0) / self.n


def _block_sups(oracle: SupOracle, block: np.ndarray, convention: str) -> np.ndarray:
    qb = getattr(oracle, "query_block", None)
    if qb is not None:
        sups = np.asarray(qb(block), dtype=np.float64)
        if convention == "absolute":
            sups = np.maximum(sups, np.asarray(qb(-block), dtype=np.float64))
        return sups
    out = np.empty(block.shape[0], dtype=np.float64)
    for r in range(block.shape[0]):
        v = oracle.query(block[r])
        if convention == "absolute":
            v = max(v, oracle.query(-block[r]))
        out[r] = v
    return out


def _check_convention(convention: str) -> None:
    if convention not in ("signed", "absolute"):
        raise ValueError(f"convention must be 'signed' or 'absolute', got {convention!r}")


def exact_empirical_rademacher(
    oracle: SupOracle,
    n: int,
    cap: int = EXACT_ENUMERATION_CAP,
    convention: str = "signed",
) -> RademacherEstimate:
    """Full enumeration over all 2^n sign vectors (binary order).

    The mean is an exactly rounded sum of the 2^n supremum values, so the
    result does not depend on enumeration batching.
    """
    _check_convention(convention)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the exact-enumeration cap {cap}")
    total = 1 << n
    batch = max(1, _TARGET_BATCH_CELLS // max(n, 1))
    sups: list[float] = []
    idx = np.arange(total, dtype=np.int64)
    shifts = np.arange(n, dtype=np.int64)
    for lo in range(0, total, batch):
        hi = min(lo + batch, total)
        bits = (idx[lo:hi, None] >> shifts) & 1
        block = (2 * bits - 1).astype(np.int8)
        sups.extend(_block_sups(oracle, block, convention).tolist())
    value = math.fsum(sups) / total
    return RademacherEstimate(
        value=value, method="exact-enumeration", trials=0, std_error=0.0, seed=None
    )


def mc_rademacher_columns(
    oracle,
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
    _check_convention(convention)
    if trials < 2:
        raise ValueError("trials must be >= 2 for a standard error")
    if n < 1:
        raise ValueError("n must be >= 1")
    batch = max(1, _TARGET_BATCH_CELLS // max(n, 1))
    parts = [
        _block_sups(oracle, trial_sign_block(seed, lo, min(lo + batch, trials), n), convention)
        for lo in range(0, trials, batch)
    ]
    vals = np.concatenate(parts) if len(parts) > 1 else parts[0]
    return [_mc_estimate(col.tolist(), trials, seed) for col in vals.reshape(trials, -1).T]


def _mc_estimate(vals: list[float], trials: int, seed: int) -> RademacherEstimate:
    value = math.fsum(vals) / trials
    dev = math.fsum((v - value) ** 2 for v in vals)
    std_error = math.sqrt(dev / (trials - 1)) / math.sqrt(trials)
    return RademacherEstimate(
        value=value, method="monte-carlo", trials=trials, std_error=std_error, seed=seed
    )


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
    estimates = mc_rademacher_columns(oracle, n, trials, seed, convention)
    if len(estimates) != 1:
        raise ValueError("the oracle returns several columns; use mc_rademacher_columns")
    return estimates[0]
