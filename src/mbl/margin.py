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

``lemma1_sweep`` runs that check on many random instances without calling
``verify_lemma1`` per instance; ``verify_lemma1`` stays the general
single-instance check and the reference its per-instance lhs and rhs are
tested against, bit for bit.  The sweep draws up to _SWEEP_CHUNK seeds at
a time, each with the draws of ``random_margin_instance``, and groups the
chunk by n.  For each batch of one n it builds every margin-class row in
one vectorized pass, stacks them with the per-class rows, and hands
``_segment_means`` one segment per class.  Instance values lie in
{-1, 0, 1}, so every row value is an integer in [-2, 2] and every signed
sum an integer s with |s| <= 2n: the engine forms the sums exactly in int8
by doubling over the sign positions (binary sign order, no BLAS), takes
each segment's maxima with np.maximum.reduceat, counts them, and averages
sum_s count_s fl(s/n) / 2^n in exact integers, rounded once, which is
bitwise the reduction of ``exact_rademacher_columns``.  It checks that
integrality and raises if it fails.

At k = 2 Lemma 1 is an equality.  The margin of example i is
sigma_i (f_1 - f_2)(x_i), with sigma_i = +1 where y_i = 1 and -1 where
y_i = 2, so the margin supremum at eps is the supremum of class 1 at
eps sigma plus that of class 2 at -eps sigma, and both maps permute the
2^n sign vectors.  Summed over all of them, n times the margin supremum
is therefore the integer sum_s count_s s of class 1 plus that of class 2.
The sweep compares these integers exactly for every k = 2 instance, a
two-sided check that sees a margin row lost or wrong even where it only
lowers the left side.

Working set of the sweep: one chunk's instances, at most _BATCH_CELLS
values (fewer seeds when an instance can hold more); a batch's stacked
rows, at most _BATCH_CELLS float64 values (2 MiB) unless one instance
alone is larger; per block, _BLOCK_BYTES (64 KiB) of int8
sums running along the rows and the sign axis, and as many bytes of
float64 scores per margin-row slice and of count keys; and per pass, the
int8 segment maxima over all 2^n sign vectors, at most _RUNNING_CELLS
cells (1 MiB, one class at n = 20).  MARGIN_SCORE_CAP bounds the largest
instance the limits allow before any is drawn.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import CapExceeded, TabulatedClass
from .rademacher import TabulatedSupOracle, check_exact_request, exact_rademacher_columns

__all__ = [
    "MARGIN_CLASS_CAP",
    "MARGIN_SCORE_CAP",
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

# Cap on the cells (product rows x n x k) of the largest instance's score
# tensor that lemma1_sweep's limits allow.
MARGIN_SCORE_CAP = 10**7

# Slack allowed on lhs <= rhs in verify_lemma1: both sides are exactly
# rounded means, so only last-bit rounding can separate them.
_LEMMA1_TOLERANCE = 1e-12

# Values the per-class functions of a random margin instance take.
_INSTANCE_VALUES = np.array([-1.0, 0.0, 1.0])

# lemma1_sweep's chunk of seeds and working-set budgets (module docstring).
_SWEEP_CHUNK = 256
_BATCH_CELLS = 1 << 18
_BLOCK_BYTES = 1 << 16
_RUNNING_CELLS = 1 << 20


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


def _draw_instance(
    seed: int, max_k: int, max_n: int, max_class_size: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Instance ``seed``: k per-class (m_j, n) value arrays and n labels.

    Draws from np.random.Philox(key=seed) k, then n, then each class's row
    count and values, then the labels.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    k = int(rng.integers(2, max_k + 1))
    n = int(rng.integers(1, max_n + 1))
    # lazy: each class's row count is drawn just before its values
    shapes = ((int(rng.integers(1, max_class_size + 1)), n) for _ in range(k))
    classes = [_INSTANCE_VALUES[rng.integers(0, 3, size=shape)] for shape in shapes]
    return classes, rng.integers(1, k + 1, size=n)


def random_margin_instance(
    seed: int,
    max_k: int = 3,
    max_n: int = 8,
    max_class_size: int = 4,
) -> tuple[MarginClassSpec, np.ndarray]:
    """Random small margin-class instance for sweep-style verification.

    Every per-class function takes values in {-1, 0, 1}.  The draws come
    from np.random.Philox(key=seed), the instance ``lemma1_sweep`` checks
    for that seed.
    """
    _check_instance_limits(max_k, max_n, max_class_size)
    classes, labels = _draw_instance(seed, max_k, max_n, max_class_size)
    return MarginClassSpec(tuple(map(TabulatedClass, classes))), labels


def _signed_sums(v: np.ndarray) -> np.ndarray:
    """(rows, 2^t) int8 for a (rows, t) int8 ``v``: column b is sum_i eps_i v[:, i],
    eps_i = +1 where bit i of b is set and -1 elsewhere (binary sign order).

    Column 0 takes every sign -1; setting bit i then adds 2 v[:, i], so
    columns [2^i, 2^(i+1)) are columns [0, 2^i) plus 2 v[:, i].
    """
    rows, t = v.shape
    out = np.empty((rows, 1 << t), dtype=np.int8)
    out[:, 0] = -v.sum(axis=1)
    for i in range(t):
        np.add(out[:, : 1 << i], 2 * v[:, i : i + 1], out=out[:, 1 << i : 2 << i])
    return out


@lru_cache(maxsize=None)
def _quotient_numerators(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """fl(s/n) for s = -2n, ..., 2n as (hi 2^32 + lo) / den: (hi, lo, den).

    den is the largest denominator of the quotients, a power of two, and
    lo lies in [0, 2^32).
    """
    ratios = [float(q).as_integer_ratio() for q in np.arange(-2 * n, 2 * n + 1) / n]
    den = max(d for _, d in ratios)
    nums = [a * (den // d) for a, d in ratios]
    hi = np.array([a >> 32 for a in nums], dtype=np.int64)
    lo = np.array([a & 0xFFFFFFFF for a in nums], dtype=np.int64)
    hi.flags.writeable = lo.flags.writeable = False  # shared by every caller
    return hi, lo, den


def _segment_counts(rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(segments, 4n + 1) int64: column s + 2n of row c counts the sign
    vectors at which segment c's supremum has numerator s.

    Segment c is rows[starts[c] : starts[c + 1]] of the (rows, n) array
    ``rows`` (the last runs to the end), each nonempty, 1 <= n <= 20.  At
    a sign vector eps its supremum is the max over its rows v of
    (1/n) sum_i eps_i v_i: what TabulatedSupOracle gives for the segment
    as a class.  Every value must be an integer in [-2, 2] (ValueError
    otherwise), so each sum is an integer s with |s| <= 2n, exact in int8.

    Passes take whole segments whose int8 maxima over all 2^n sign vectors
    fit in _RUNNING_CELLS (at least one segment); within a pass, blocks of
    _BLOCK_BYTES int8 sums run along both the rows and the sign axis, and
    a segment cut by a block boundary keeps its running max in the pass.
    """
    if not np.all((np.abs(rows) <= 2) & (rows == np.rint(rows))):
        raise ValueError("segment values must be integers in [-2, 2]")
    v = rows.astype(np.int8)
    n = v.shape[1]
    bounds = np.append(starts, v.shape[0])
    width, total = 4 * n + 1, 1 << n
    low_bits = min(n, _BLOCK_BYTES.bit_length() - 1)
    block_cols, block_rows = 1 << low_bits, max(1, _BLOCK_BYTES >> n)
    counts = np.zeros((len(starts), width), dtype=np.int64)
    per_pass = min(len(starts), max(1, _RUNNING_CELLS >> n))
    buffer = np.empty((per_pass, total), dtype=np.int8)  # reused by every pass
    for c0 in range(0, len(starts), per_pass):
        c1 = min(c0 + per_pass, len(starts))
        top = buffer[: c1 - c0]
        top.fill(np.iinfo(np.int8).min)
        for a in range(bounds[c0], bounds[c1], block_rows):
            b = min(a + block_rows, bounds[c1])
            low, high = _signed_sums(v[a:b, :low_bits]), _signed_sums(v[a:b, low_bits:])
            # the segments that rows [a, b) touch, and where each starts in the block
            first = int(np.searchsorted(bounds, a, side="right")) - 1
            last = int(np.searchsorted(bounds, b, side="left"))
            cuts = np.maximum(bounds[first:last], a) - a
            for h in range(high.shape[1]):
                best = np.maximum.reduceat(low + high[:, h : h + 1], cuts, axis=0)
                dst = top[first - c0 : last - c0, h * block_cols : (h + 1) * block_cols]
                np.maximum(dst, best, out=dst)
        flat = top.reshape(-1)
        for f0 in range(0, flat.size, _BLOCK_BYTES // 8):
            f1 = min(f0 + _BLOCK_BYTES // 8, flat.size)
            s0, s1 = f0 >> n, ((f1 - 1) >> n) + 1
            keys = np.arange(f0, f1)  # -> (segment - s0) * width + sum + 2n, in place
            keys >>= n
            keys -= s0
            keys *= width
            keys += flat[f0:f1]
            keys += 2 * n
            part = np.bincount(keys, minlength=(s1 - s0) * width)
            counts[c0 + s0 : c0 + s1] += part.reshape(s1 - s0, width)
    return counts


def _segment_totals(counts: np.ndarray) -> list[int]:
    """Each segment's sum over all 2^n sign vectors of n times its
    supremum: sum_s count_s s, an exact integer."""
    n = (counts.shape[1] - 1) // 4
    return (counts @ np.arange(-2 * n, 2 * n + 1)).tolist()


def _segment_means(counts: np.ndarray) -> list[float]:
    """Exact means, over all 2^n sign vectors, of each segment's supremum.

    A segment's mean is sum_s count_s fl(s/n) / 2^n, formed exactly from
    its _segment_counts row and rounded once: bitwise the value
    exact_rademacher_columns gives the segment's class.
    """
    n = (counts.shape[1] - 1) // 4
    hi, lo, den = _quotient_numerators(n)
    sums = zip((counts @ hi).tolist(), (counts @ lo).tolist())
    return [((h << 32) + l) / (den << n) for h, l in sums]


def _margin_rows(
    batch: list, class_rows: np.ndarray, sizes: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Every margin-class row of the instances (classes, labels) of ``batch``,
    and the index of each instance's first row.

    ``class_rows`` stacks the batch's per-class rows, class by class, and
    ``sizes`` holds each class's row count.  One pass builds the rows.  An
    instance with fewer than K (the batch's largest k) classes is padded
    with one-row classes of -inf scores: its labels never name them and
    -inf never wins the competitor max, so every margin is the one
    materialize_margin_class gives.
    """
    n = class_rows.shape[1]
    ks = np.array([len(classes) for classes, _ in batch])
    real = np.arange(ks.max()) < ks[:, None]
    # per instance and class slot: its first row in ``table`` and its row count
    first = np.full(real.shape, class_rows.shape[0])
    first[real] = np.cumsum([0] + sizes[:-1])
    radix = np.ones(real.shape, dtype=np.int64)
    radix[real] = sizes
    table = np.vstack([class_rows, np.full((1, n), -np.inf)])
    labels = np.stack([lab for _, lab in batch])
    products = radix.prod(axis=1)
    product_starts = np.cumsum(products) - products
    instance = np.repeat(np.arange(len(batch)), products)
    margin_rows = np.empty((instance.size, n))
    step = max(1, _BLOCK_BYTES // (8 * real.shape[1] * n))  # float64 scores per slice
    for t0 in range(0, instance.size, step):
        inst = instance[t0 : t0 + step]
        rest = np.arange(t0, t0 + inst.size) - product_starts[inst]
        source = np.empty((inst.size, real.shape[1]), dtype=np.int64)
        for j in reversed(range(real.shape[1])):  # mixed radix, last class fastest
            rest, digit = np.divmod(rest, radix[inst, j])
            source[:, j] = first[inst, j] + digit
        scores = table[source].transpose(0, 2, 1)  # (rows, n, K), as materialize_margin_class
        margin_rows[t0 : t0 + inst.size] = _margin_block(scores, labels[inst])
    return margin_rows, product_starts


def _lemma1_sides(batch: list) -> list[tuple[float, float, tuple[int, int] | None]]:
    """verify_lemma1's (lhs, rhs) for each instance (classes, labels) of
    ``batch``, all on one sample, and for k = 2 the integer totals of both sides.

    The margin rows (_margin_rows) and the per-class rows go to
    _segment_counts as one segment per class.  At k = 2 the third entry is
    (margin total, first class total + second class total), each
    _segment_totals: 2^n n times that side's complexity, exactly.  Lemma 1
    is an equality there (module docstring), so the two must be equal.
    """
    class_rows = np.concatenate([v for classes, _ in batch for v in classes])
    sizes = [v.shape[0] for classes, _ in batch for v in classes]
    margin_rows, product_starts = _margin_rows(batch, class_rows, sizes)
    class_starts = np.cumsum([0] + sizes[:-1])
    starts = np.concatenate([product_starts, margin_rows.shape[0] + class_starts])
    counts = _segment_counts(np.vstack([margin_rows, class_rows]), starts)
    means, totals = _segment_means(counts), _segment_totals(counts)
    sides = []
    end = len(batch)
    for i, (classes, _) in enumerate(batch):
        k = len(classes)
        end += k
        rhs = math.fsum(means[end - k : end])
        pair = (totals[i], totals[end - 2] + totals[end - 1]) if k == 2 else None
        sides.append((means[i], rhs, pair))
    return sides


def _lemma1_chunk(instances: list) -> list[tuple[float, float, tuple[int, int] | None]]:
    """_lemma1_sides for each instance, computed in batches of one n.

    A batch takes instances of one n in order while its margin-class and
    per-class rows stay within _BATCH_CELLS values (at least one instance).
    """
    sides = [None] * len(instances)
    by_n: dict[int, list[int]] = {}
    for i, (_, labels) in enumerate(instances):
        by_n.setdefault(labels.size, []).append(i)
    for n, members in by_n.items():
        batches, cells = [[]], 0
        for i in members:
            classes = instances[i][0]
            need = (math.prod(v.shape[0] for v in classes) + sum(v.shape[0] for v in classes)) * n
            if batches[-1] and cells + need > _BATCH_CELLS:
                batches.append([])
                cells = 0
            batches[-1].append(i)
            cells += need
        for batch in batches:
            for i, side in zip(batch, _lemma1_sides([instances[i] for i in batch])):
                sides[i] = side
    return sides


def lemma1_sweep(
    seeds: int,
    max_k: int = 3,
    max_n: int = 8,
    max_class_size: int = 4,
    base_seed: int = 0,
) -> dict:
    """Check R_hat_n(M_k) <= sum_j R_hat_n(F_j) on `seeds` random instances; report any failures.

    Instance s is random_margin_instance(base_seed + s, ...), and each
    instance's lhs and rhs are bitwise verify_lemma1's: the sweep draws
    _SWEEP_CHUNK seeds at a time and checks every instance of one n in a
    chunk by one batched exact enumeration (module docstring).  At k = 2
    it also checks the equality exactly, on integer totals (module
    docstring); ``k2_identities`` counts those instances, and a failure
    of the equality is listed with its two totals as ``k2_totals``.
    Failures are listed in seed order.

    Refused before any instance is drawn: ValueError for bad limits or
    seeds outside [0, 2^64); CapExceeded for a largest product
    max_class_size**max_k above MARGIN_CLASS_CAP, a request (max_n, that
    product) that check_exact_request refuses, or a largest score tensor
    (product x max_n x max_k cells) above MARGIN_SCORE_CAP.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    _check_instance_limits(max_k, max_n, max_class_size)
    if base_seed < 0 or base_seed + seeds > 1 << 64:
        raise ValueError(
            f"instance seeds base_seed .. base_seed + seeds - 1 = {base_seed} .. "
            f"{base_seed + seeds - 1} must lie in [0, 2^64)"
        )
    # Past 64 the exponent cannot change the comparison (2**64 > cap).
    if max_class_size ** min(max_k, 64) > MARGIN_CLASS_CAP:
        raise CapExceeded(
            f"{max_class_size}**{max_k} rows exceed the margin-class product cap {MARGIN_CLASS_CAP}"
        )
    rows = max_class_size**max_k
    check_exact_request(max_n, rows=rows)
    if rows * max_n * max_k > MARGIN_SCORE_CAP:
        raise CapExceeded(
            f"{rows} rows x n={max_n} x k={max_k} = {rows * max_n * max_k} score cells "
            f"exceed the margin-score cap {MARGIN_SCORE_CAP}"
        )
    failures = []
    worst_slack = -math.inf
    identities = 0
    # the chunk's instance values stay within _BATCH_CELLS
    size = max(1, min(_SWEEP_CHUNK, _BATCH_CELLS // (max_k * max_class_size * max_n)))
    for lo in range(0, seeds, size):
        chunk = range(base_seed + lo, base_seed + min(lo + size, seeds))
        instances = [_draw_instance(seed, max_k, max_n, max_class_size) for seed in chunk]
        for seed, (lhs, rhs, totals) in zip(chunk, _lemma1_chunk(instances)):
            worst_slack = max(worst_slack, lhs - rhs)
            identities += totals is not None
            equal = totals is None or totals[0] == totals[1]
            if not (lhs <= rhs + _LEMMA1_TOLERANCE and equal):
                failure = {"seed": seed, "lhs": lhs, "rhs": rhs}
                if not equal:
                    failure["k2_totals"] = list(totals)
                failures.append(failure)
    return {
        "instances": seeds,
        "k2_identities": identities,
        "failures": failures,
        "worst_slack": worst_slack,
        "pass": not failures,
    }
