"""Exact and Monte Carlo estimation of empirical Rademacher complexity.

Both estimators accept any object satisfying the ``SupOracle`` contract,
take the sample size n from its ``n`` and run through one loop: it draws
the sign rows in fixed batches from a sign source, calls ``query_block`` on
each batch and adds every column the oracle returns into exact running sums
before the next batch is drawn.  The exact source is
``enumerate_sign_vectors`` (all 2^n rows in binary order); the Monte Carlo
source is ``trial_sign_block``.  ``exact_rademacher_columns`` and
``mc_rademacher_columns`` return one estimate per column of a multi-column
oracle; ``exact_empirical_rademacher`` and ``mc_empirical_rademacher`` are
their one-column cases.  They average whatever the oracle returns, so the
sign convention belongs to the oracle: ``TabulatedSupOracle`` returns the
suprema of the signed R_hat_n(F) = E_eps sup_f (1/n) sum_i eps_i f(x_i) by
default, and with ``convention="absolute"`` those of E_eps sup_f |(1/n)
sum_i eps_i f(x_i)|, from the same products.  ``tabulated_mc_rademacher``
is the Monte Carlo estimator for a tabulated class: it runs
``mc_empirical_rademacher`` on a copy of the oracle that scores each
signed draw at eps and -eps from the same product (antithetic variates).

Reduction: every finite double is m * 2^e with an integer |m| < 2^53, so
each batch's values are binned by (exponent, column) and the bins' integer
mantissa sums are added into one Python integer per column.  The sum of a
column, and for Monte Carlo the sum of its squares, are therefore exact;
the mean is the exact sum rounded once (bitwise what math.fsum gives), and
the standard error comes from the exact sum of squared deviations
S2 - S1^2/N, rounded once.

Working set: no draw outlives its batch, and each per-batch array is sized
by its own bytes per row, so none grows with the number of rows and none
passes about 2 MiB.  A batch has min(_TARGET_BATCH_CELLS // n,
_MAX_BATCH_ROWS) rows: 2^21 int8 sign cells, and at most 8192 rows, the
cap that binds below n = 256.  Per batch, for an oracle with c columns:

* the int8 sign block, n bytes per row: at most 2 MiB;
* the Monte Carlo philox words, 32 ceil(n/256) bytes per row: at most
  about 512 KiB (n = 257);
* the suprema, the counted path's weight products and the reduction's
  temporaries (mantissas, exponents, bin keys, pieces; about ten arrays
  live at once), 8 c bytes per row each: at most 64 c KiB each;
* the oracle's own temporaries: ``TabulatedSupOracle`` holds one float64
  copy of a sign sub-block and one class's product at a time, each at
  most _PRODUCT_CELLS cells (2 MiB).

The counted path below adds the 2^n int64 counts (8 MiB at n = 20) and,
while it counts, batches of _PATTERN_BATCH trials whose philox words fill
1 MiB, with one 2^n-entry bincount per batch.

Reproducibility contract for the Monte Carlo estimator: the sign vector of
trial j is a pure function of (seed, j), produced by a counter-based Philox
stream (trial j owns a fixed, disjoint range of counter blocks).  Trials can
therefore be generated in any partition into batches, and as the sums are
exact, batching never changes a bit for a row-invariant oracle (one whose
row values do not depend on the rest of the block; see ``SupOracle``).  A
caller that needs further independent streams keys them with
``derive_seed(seed, *tags)``, one key per tag tuple.

Counted Monte Carlo: when n <= EXACT_ENUMERATION_CAP and 2^n <= trials, the
draws can take at most 2^n distinct values.  The estimator then keeps only
each trial's pattern index (the low n bits of its first Philox word, the row
of ``enumerate_sign_vectors`` it equals), counts the indices, and runs the
exact-enumeration loop with each row weighted by its count.  S1 and S2 are
the same exact integers as the per-draw loop's on the same draws, so it is
the same estimator: for a row-invariant oracle the value and std_error are
bitwise those of the per-draw loop.

Caps: ``check_exact_request`` and ``check_mc_request`` are the only code
that applies the estimation caps (EXACT_ENUMERATION_CAP, EXACT_PRODUCT_CAP,
MC_SIGN_CELL_CAP, from ``mbl.core``).  The estimators call them first, and
every module that must refuse a request before costlier set-up (a Gram, a
margin class, a Theorem 3 instance) calls them too.
"""
from __future__ import annotations

import copy
import math
from functools import partial
from typing import Callable

import numpy as np

from .core import (
    EXACT_ENUMERATION_CAP,
    EXACT_PRODUCT_CAP,
    MC_SIGN_CELL_CAP,
    CapExceeded,
    RademacherEstimate,
    SupOracle,
    TabulatedClass,
)

__all__ = [
    "check_exact_request",
    "check_mc_request",
    "enumerate_sign_vectors",
    "trial_sign_block",
    "derive_seed",
    "TabulatedSupOracle",
    "exact_empirical_rademacher",
    "exact_rademacher_columns",
    "mc_empirical_rademacher",
    "mc_rademacher_columns",
    "tabulated_mc_rademacher",
]

# philox4x64 emits 4 uint64 words (256 bits) per counter increment.
_WORDS_PER_BLOCK = 4
_BITS_PER_BLOCK = 64 * _WORDS_PER_BLOCK

# Fixed batch sizing (batch boundaries are part of no contract, but keeping
# them fixed keeps per-batch arrays and BLAS call shapes identical across
# runs).  The row cap binds below n = 256, where the per-row arrays that do
# not scale with n outweigh the signs (module docstring, "Working set").
_TARGET_BATCH_CELLS = 1 << 21
_MAX_BATCH_ROWS = 1 << 13

# Trials per _pattern_counts batch: their philox words fill 1 MiB (one
# counter block, 32 B, per trial at n <= 256).
_PATTERN_BATCH = (1 << 20) // (8 * _WORDS_PER_BLOCK)

# Cells of one float64 sub-block in TabulatedSupOracle (2 MiB).
_PRODUCT_CELLS = 1 << 18

# np.frexp writes every finite double as f * 2^x with x >= -1073, so it is
# an integer multiple of 2^-_UNIT and its square one of 2^-(2 _UNIT).
_UNIT = 1073 + 53


def check_exact_request(n: int, rows: int = 1) -> None:
    """Reject an exact enumeration before any work: ValueError for n < 1,
    CapExceeded for n above EXACT_ENUMERATION_CAP or for more than
    EXACT_PRODUCT_CAP row-by-vector products (``rows`` x 2^n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_ENUMERATION_CAP:
        raise CapExceeded(
            f"exact enumeration needs 2^{n} sign vectors; cap is n <= {EXACT_ENUMERATION_CAP}"
        )
    if rows << n > EXACT_PRODUCT_CAP:
        raise CapExceeded(
            f"{rows} rows x 2^{n} sign vectors = {rows << n} products "
            f"exceed the exact-enumeration product cap {EXACT_PRODUCT_CAP}"
        )


def check_mc_request(n: int, trials: int, seed: int) -> None:
    """Reject a Monte Carlo request before any work: too few trials, n < 1,
    more than MC_SIGN_CELL_CAP sign cells, or a seed outside the stream's keys."""
    if trials < 2:
        raise ValueError("trials must be >= 2 for a standard error")
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials * n > MC_SIGN_CELL_CAP:
        raise CapExceeded(
            f"{trials} trials x n={n} need {trials * n} sign cells; cap is {MC_SIGN_CELL_CAP}"
        )
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must be an integer in [0, 2^64)")


def _signs_from_words(words: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) int8 signs: bit i of a row of little-endian words -> position i.

    ``words`` is a (rows, w) uint64 array; only the first ceil(n/8) bytes of
    each row are unpacked.
    """
    row_bytes = words.astype("<u8", copy=False).view(np.uint8)
    bits = np.unpackbits(row_bytes[:, : -(-n // 8)], axis=1, count=n, bitorder="little")
    # {0, 1} -> {-1, +1} in place: the block is the largest per-batch array
    signs = bits.view(np.int8)
    signs *= 2
    signs -= 1
    return signs


def enumerate_sign_vectors(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows [start, stop) of all 2^n sign vectors as an int8 matrix, in binary order.

    Row b holds signs with position i mapped from bit i of b
    (bit 0 -> -1, bit 1 -> +1); stop defaults to 2^n.
    """
    check_exact_request(n)
    total = 1 << n
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise ValueError(f"need 0 <= start <= stop <= 2^{n}")
    return _signs_from_words(np.arange(start, stop, dtype=np.uint64)[:, None], n)


def _trial_words(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """The philox words of trials [start, stop) as a (stop-start, 4 B) uint64 array.

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
    return raw.reshape(trials, _WORDS_PER_BLOCK * bpt)


def trial_sign_block(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Sign vectors for trials [start, stop) as a (stop-start, n) int8 matrix.

    Row j is a pure function of (seed, start + j): see _trial_words.
    """
    return _signs_from_words(_trial_words(seed, start, stop, n), n)


def derive_seed(seed: int, *tags: int) -> int:
    """The key in [0, 2^64) of the stream tagged ``tags`` under ``seed``: the
    first 64-bit word of SeedSequence((seed, *tags))."""
    return int(np.random.SeedSequence((seed, *tags)).generate_state(1, np.uint64)[0])


def _pattern_counts(seed: int, n: int, trials: int) -> np.ndarray:
    """How many of trials [0, trials) draw each of the 2^n sign vectors.

    Trial j draws row b of enumerate_sign_vectors(n), where b is the low n
    bits of its first philox word: both sources map bit i to position i.
    """
    counts = np.zeros(1 << n, dtype=np.int64)
    mask = np.uint64((1 << n) - 1)
    for lo in range(0, trials, _PATTERN_BATCH):
        patterns = _trial_words(seed, lo, min(lo + _PATTERN_BATCH, trials), n)[:, 0] & mask
        counts += np.bincount(patterns.view(np.int64), minlength=1 << n)
    return counts


def _column_sups(product: np.ndarray, score: str, out: np.ndarray) -> None:
    """Write into ``out``, per column of a class's product, its max
    (``"signed"``), its largest absolute value (``"absolute"``), or half its
    range (``"paired"``, the mean of the signed suprema at eps and -eps).
    Formed in place: only the column min is a temporary."""
    np.max(product, axis=0, out=out)
    if score == "signed":
        return
    low = product.min(axis=0)
    if score == "absolute":
        np.maximum(out, np.negative(low, out=low), out=out)
    else:
        out -= low
        out *= 0.5


class TabulatedSupOracle:
    """SupOracle over explicit finite classes tabulated on one sample.

    One class gives a (rows,) block of suprema; several give a (rows, c)
    block, one column per class, from one matrix product per class.  The
    oracle owns the sign convention: ``"signed"`` (the default) takes
    sup_f (1/n) sum_i eps_i f(x_i), the product's column max, and
    ``"absolute"`` takes sup_f |(1/n) sum_i eps_i f(x_i)|, the larger of
    that max and minus the column min of the same product.  Negation is
    exact, so that is bit for bit the larger of the signed suprema at eps
    and -eps, at one product.  tabulated_mc_rademacher's copy scores a
    signed class by half the column range instead.  The products run over
    row sub-blocks of _PRODUCT_CELLS // max(n, largest m) rows, so the
    float64 copy of a sub-block's signs (n cells per row), kept in one
    buffer reused by every sub-block, and each class's product (m cells
    per row) stay within _PRODUCT_CELLS cells, 2 MiB.
    """

    def __init__(self, *classes: TabulatedClass, convention: str = "signed"):
        if not classes:
            raise ValueError("TabulatedSupOracle needs at least one class")
        if convention not in ("signed", "absolute"):
            raise ValueError(f"convention must be 'signed' or 'absolute', got {convention!r}")
        self.n = classes[0].n
        if any(c.n != self.n for c in classes):
            raise ValueError("all classes must be tabulated on the same sample")
        self.values = [c.values for c in classes]
        self.convention = convention
        # what each column scores; tabulated_mc_rademacher pairs a signed copy
        self._score = convention

    def query_block(self, signs_block: np.ndarray) -> np.ndarray:
        if signs_block.ndim != 2 or signs_block.shape[1] != self.n:
            raise ValueError(f"sign block must have shape (rows, {self.n})")
        rows = signs_block.shape[0]
        sups = np.empty((rows, len(self.values)))
        step = max(1, _PRODUCT_CELLS // max(self.n, *(v.shape[0] for v in self.values)))
        floats = np.empty((min(step, rows), self.n))  # reused by every sub-block
        for lo in range(0, rows, step):
            signs = floats[: min(step, rows - lo)]
            signs[...] = signs_block[lo : lo + step]
            for j, values in enumerate(self.values):
                # a temporary, freed before the next product; holding it tripled the CPU time
                _column_sups(values @ signs.T, self._score, sups[lo : lo + step, j])
        sups /= self.n
        return sups[:, 0] if len(self.values) == 1 else sups


def _pieces(part: np.ndarray, p: int, pieces: int):
    """part = sum_j piece_j 2^(j p): pieces - 1 low p-bit pieces, then the signed rest."""
    for _ in range(pieces - 1):
        yield part & ((1 << p) - 1)
        part = part >> p
    yield part


def _accumulate(
    sums: list[int],
    squares: list[int] | None,
    vals: np.ndarray,
    weights: np.ndarray | None = None,
) -> None:
    """Add each column of the (rows, c) float64 batch into exact integer totals.

    Row r counts weights[r] times (an int64 count; once if weights is None).
    sums[j] gains the column's weighted sum in units of 2^-_UNIT and, unless
    squares is None, squares[j] the weighted sum of its squares in units of
    2^-(2 _UNIT).  Each value is m * 2^(x - 53) with an integer |m| < 2^53,
    binned by (x, column).  m, and for squares the parts of
    m^2 = a^2 2^54 + ab 2^28 + b^2 where m = a 2^27 + b with |a|, |b| <= 2^26,
    are cut into p-bit pieces of magnitude at most 2^p, p = 53 - bits(W)
    for the batch's total weight W.  Every weighted piece, and every float64
    bin sum bincount forms, is then an integer of magnitude at most
    2^p W < 2^53, so it is exact in any order.
    """
    c = vals.shape[1]
    total = vals.shape[0] if weights is None else int(weights.sum())
    p = 53 - total.bit_length()
    pieces = -(-53 // p)
    fraction, exponent = np.frexp(vals)
    m = (fraction * (1 << 53)).astype(np.int64)
    low_exp = int(exponent.min())
    keys = ((exponent - low_exp) * c + np.arange(c)).ravel()
    parts = [m]
    if squares is not None:
        b = ((m + (1 << 26)) & ((1 << 27) - 1)) - (1 << 26)
        a = (m - b) >> 27
        parts += [a * a, a * b, b * b]
    cut = (piece for part in parts for piece in _pieces(part, p, pieces))
    if weights is not None:
        cut = (piece * weights[:, None] for piece in cut)
    bins = np.stack([np.bincount(keys, weights=piece.ravel()) for piece in cut])
    occupied = np.flatnonzero(bins.any(axis=0))
    piece_sums = bins[:, occupied].astype(np.int64).tolist()
    wholes = []
    for i in range(0, len(piece_sums), pieces):
        whole = piece_sums[i]
        for j in range(1, pieces):
            whole = [w + (s << (j * p)) for w, s in zip(whole, piece_sums[i + j])]
        wholes.append(whole)
    for key, m_sum, *square_sums in zip(occupied.tolist(), *wholes):
        exp, col = divmod(key, c)
        shift = exp + low_exp - 53 + _UNIT
        sums[col] += m_sum << shift
        if square_sums:
            a2, ab, b2 = square_sums
            squares[col] += ((a2 << 54) + (ab << 28) + b2) << (2 * shift)


def _estimate_columns(
    oracle: SupOracle,
    rows: int,
    signs: Callable[[int, int], np.ndarray],
    seed: int | None,
    counts: np.ndarray | None = None,
) -> list[RademacherEstimate]:
    """Estimates of every oracle column over the sign rows [0, rows).

    ``signs(start, stop)`` returns the int8 block of those rows, and row r
    stands for counts[r] draws (one if counts is None).  Each batch's
    suprema go into exact weighted per-column sums (and sums of squares for
    Monte Carlo, seed not None) and are then dropped.  The mean is exact
    for seed None, else Monte Carlo with a standard error.
    """
    batch = max(1, min(_TARGET_BATCH_CELLS // oracle.n, _MAX_BATCH_ROWS))
    sums: list[int] = []
    squares: list[int] = []
    for lo in range(0, rows, batch):
        hi = min(lo + batch, rows)
        vals = np.asarray(oracle.query_block(signs(lo, hi)), dtype=np.float64).reshape(hi - lo, -1)
        if not np.isfinite(vals).all():
            raise ValueError("the oracle returned a non-finite supremum")
        if not sums:
            sums, squares = [0] * vals.shape[1], [0] * vals.shape[1]
        elif vals.shape[1] != len(sums):
            raise ValueError("the oracle returned a different number of columns per batch")
        weights = None if counts is None else counts[lo:hi]
        _accumulate(sums, None if seed is None else squares, vals, weights)
    draws = rows if counts is None else int(counts.sum())
    estimates = []
    for s1, s2 in zip(sums, squares):
        try:
            value = s1 / (1 << _UNIT) / draws
            if seed is None:
                estimates.append(RademacherEstimate(value, "exact-enumeration", 0, 0.0, None))
                continue
            dev = (draws * s2 - s1 * s1) / (draws << 2 * _UNIT)
        except OverflowError:
            raise ValueError("the oracle's suprema are too large to average in float64") from None
        std_error = math.sqrt(dev / (draws - 1)) / math.sqrt(draws)
        estimates.append(RademacherEstimate(value, "monte-carlo", draws, std_error, seed))
    return estimates


def _one_column(estimates: list[RademacherEstimate]) -> RademacherEstimate:
    if len(estimates) != 1:
        raise ValueError(
            "the oracle returns several columns; use mc_rademacher_columns or exact_rademacher_columns"
        )
    return estimates[0]


def exact_rademacher_columns(oracle: SupOracle) -> list[RademacherEstimate]:
    """Exact averages of every oracle column over all 2^n sign vectors, n = oracle.n.

    The exact twin of mc_rademacher_columns: one enumeration in binary
    order serves every column, and column j's value is exactly what
    exact_empirical_rademacher gives for an oracle returning that column
    alone.  check_exact_request(n) runs before any batch.  An oracle does
    not report its rows, so a caller that knows them applies the product
    cap with check_exact_request(n, rows) first.
    """
    n = oracle.n
    check_exact_request(n)
    signs = partial(enumerate_sign_vectors, n)
    return _estimate_columns(oracle, 1 << n, signs, None)


def exact_empirical_rademacher(oracle: SupOracle) -> RademacherEstimate:
    """Full enumeration over all 2^n sign vectors (binary order), n = oracle.n.

    The mean is an exactly rounded sum of the 2^n supremum values, so the
    result does not depend on enumeration batching.  The caps are those of
    exact_rademacher_columns.
    """
    return _one_column(exact_rademacher_columns(oracle))


def mc_rademacher_columns(
    oracle: SupOracle, trials: int, seed: int
) -> list[RademacherEstimate]:
    """Monte Carlo averages of every column the oracle returns per sign draw.

    ``query_block`` may return a (trials,) vector (one column) or a
    (trials, c) matrix of c suprema sharing each draw.  Column j's value
    and std_error are exactly what mc_empirical_rademacher gives for an
    oracle returning that column alone.  check_mc_request(oracle.n,
    trials, seed) runs before any batch.
    """
    n = oracle.n
    check_mc_request(n, trials, seed)
    if n <= EXACT_ENUMERATION_CAP and 1 << n <= trials:
        # at most 2^n distinct draws: query each pattern once, weighted by its count
        counts = _pattern_counts(seed, n, trials)
        signs = partial(enumerate_sign_vectors, n)
        return _estimate_columns(oracle, 1 << n, signs, seed, counts)
    signs = partial(trial_sign_block, seed, n=n)
    return _estimate_columns(oracle, trials, signs, seed)


def mc_empirical_rademacher(oracle: SupOracle, trials: int, seed: int) -> RademacherEstimate:
    """Monte Carlo average of the oracle over `trials` sign draws.

    std_error is the sample standard deviation over trials divided by
    sqrt(trials).  For a row-invariant oracle the output is a pure function
    of (oracle, trials, seed): neither batching nor the
    counted path (2^n <= trials, module docstring) changes a bit.  Batches
    run one after another on the calling thread.
    """
    return _one_column(mc_rademacher_columns(oracle, trials, seed))


def tabulated_mc_rademacher(
    oracle: TabulatedSupOracle, trials: int, seed: int
) -> RademacherEstimate:
    """Monte Carlo estimate for a tabulated class, each draw scored at eps and -eps.

    Takes the arguments and returns the estimate mc_empirical_rademacher
    does, on the same `trials` draws of eps.  Under the signed convention
    each draw is scored as (sup(eps) + sup(-eps)) / 2 = (max_r p_r -
    min_r p_r) / (2n), where p is the product the oracle already forms, so
    the pairing costs one column min per sub-block.  -eps has the law of
    eps, so the score is unbiased for the same complexity; averaging a
    draw with its mirror image cuts the variance 1.7-3.5 times on random
    8 x 16 Gaussian classes (README).  The absolute convention is already
    even in eps, and a class closed under negation has max = -min, so for
    both the result is bitwise that of mc_empirical_rademacher.
    """
    if not isinstance(oracle, TabulatedSupOracle):
        raise TypeError("tabulated_mc_rademacher needs a TabulatedSupOracle")
    paired = copy.copy(oracle)
    if oracle.convention == "signed":
        paired._score = "paired"
    return mc_empirical_rademacher(paired, trials=trials, seed=seed)
