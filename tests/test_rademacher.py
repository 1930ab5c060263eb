import math
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from mbl import rademacher
from mbl.core import MC_SIGN_CELL_CAP, CapExceeded, RademacherEstimate, TabulatedClass
from mbl.kernel import KernelSpec, KernelSupOracle, gram
from mbl.lowerbound import Theorem3SupOracle, reference_complexity
from mbl.rademacher import (
    TabulatedSupOracle,
    enumerate_sign_vectors,
    exact_empirical_rademacher,
    exact_rademacher_columns,
    mc_empirical_rademacher,
    mc_rademacher_columns,
    trial_sign_block,
)

TWO_POINT = TabulatedClass([[1.0, 1.0], [-1.0, -1.0]])


def random_class(seed, m=5, n=8):
    rng = np.random.default_rng(seed)
    return TabulatedClass(rng.normal(size=(m, n)))


def tabulated_sup(cls, signs):
    """The oracle's supremum for one sign vector, as a one-row block."""
    block = np.asarray([signs], dtype=np.int8)
    (value,) = TabulatedSupOracle(cls).query_block(block)
    return value


def test_tabulated_sup_examples():
    assert tabulated_sup(TWO_POINT, [1, 1]) == 1.0
    assert tabulated_sup(TWO_POINT, [1, -1]) == 0.0
    assert tabulated_sup(TabulatedClass([[0.0, 0.0, 0.0]]), [1, -1, 1]) == 0.0


def test_tabulated_sup_dimension_mismatch():
    with pytest.raises(ValueError):
        tabulated_sup(TWO_POINT, [1, 1, 1])


def test_exact_two_point_class_is_half():
    est = exact_empirical_rademacher(TabulatedSupOracle(TWO_POINT))
    assert est.value == 0.5
    assert est.method == "exact-enumeration"
    assert est.trials == 0
    assert est.std_error == 0.0


def test_exact_singleton_constant_is_zero():
    for n in (1, 3, 7):
        cls = TabulatedClass(-np.ones((1, n)))
        est = exact_empirical_rademacher(TabulatedSupOracle(cls))
        assert est.value == 0.0


def test_exact_sign_symmetric_pair_n1_is_one():
    cls = TabulatedClass([[1.0], [-1.0]])
    assert exact_empirical_rademacher(TabulatedSupOracle(cls)).value == 1.0


def test_exact_enumeration_cap():
    cls = TabulatedClass(np.ones((1, 21)))
    with pytest.raises(CapExceeded):
        exact_empirical_rademacher(TabulatedSupOracle(cls))


def test_enumerate_sign_vectors_binary_order():
    vecs = enumerate_sign_vectors(3)
    assert vecs.shape == (8, 3)
    assert vecs[0].tolist() == [-1, -1, -1]
    # index 5 = 0b101: bit i maps to position i
    assert vecs[5].tolist() == [1, -1, 1]
    assert vecs[7].tolist() == [1, 1, 1]


def test_enumerate_sign_vectors_cap():
    with pytest.raises(CapExceeded):
        enumerate_sign_vectors(21)


def _reference_enumeration(n):
    """All 2^n sign vectors, position i from bit i of the row index."""
    rows = [[1 if (b >> i) & 1 else -1 for i in range(n)] for b in range(1 << n)]
    return np.asarray(rows, dtype=np.int8)


@pytest.mark.parametrize("n", [1, 5, 9])
def test_enumerate_sign_vectors_row_ranges_slice_the_full_enumeration(n):
    full = enumerate_sign_vectors(n)
    assert full.dtype == np.int8
    assert np.array_equal(full, _reference_enumeration(n))
    total = 1 << n
    for lo, hi in [(0, total), (0, 1), (1, total), (total // 3, total // 2 + 1), (total, total)]:
        part = enumerate_sign_vectors(n, lo, hi)
        assert part.dtype == np.int8
        assert part.shape == (hi - lo, n)
        assert np.array_equal(part, full[lo:hi])
    assert np.array_equal(enumerate_sign_vectors(n, total // 2), full[total // 2 :])


def test_enumerate_sign_vectors_row_range_validation():
    for lo, hi in [(-1, 2), (3, 2), (0, 9)]:
        with pytest.raises(ValueError):
            enumerate_sign_vectors(3, lo, hi)


def test_trial_sign_block_shape_and_values():
    block = trial_sign_block(seed=3, start=0, stop=17, n=11)
    assert block.shape == (17, 11)
    assert set(np.unique(block).tolist()) <= {-1, 1}


def test_trial_sign_block_batching_is_bitwise_stable():
    whole = trial_sign_block(seed=42, start=0, stop=9, n=300)
    stacked = np.vstack([trial_sign_block(seed=42, start=i, stop=i + 1, n=300) for i in range(9)])
    assert np.array_equal(whole, stacked)
    middle = trial_sign_block(seed=42, start=3, stop=7, n=300)
    assert np.array_equal(middle, whole[3:7])


def test_trial_sign_block_peak_memory():
    # the unpacked bits and one int8 copy are both block-sized; mapping
    # {0, 1} -> {-1, +1} out of place would add a third block
    tracemalloc.start()
    try:
        block = trial_sign_block(seed=7, start=0, stop=256, n=8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * block.nbytes


def test_trial_sign_block_seed_validation():
    with pytest.raises(ValueError):
        trial_sign_block(seed=-1, start=0, stop=1, n=4)
    with pytest.raises(ValueError):
        trial_sign_block(seed=2**64, start=0, stop=1, n=4)


def test_mc_determinism():
    oracle = TabulatedSupOracle(random_class(0))
    a = mc_empirical_rademacher(oracle, 3000, seed=11)
    b = mc_empirical_rademacher(oracle, 3000, seed=11)
    assert (a.value, a.std_error) == (b.value, b.std_error)
    d = mc_empirical_rademacher(oracle, 3000, seed=12)
    assert d.value != a.value


@pytest.mark.parametrize("convention", ["signed", "absolute"])
def test_mc_columns_match_one_column_estimates(convention, monkeypatch):
    # batches of 1000 trials: the columns of three blocks are reduced in turn
    monkeypatch.setattr(rademacher, "_TARGET_BATCH_CELLS", 8 * 1000)
    first, second = random_class(5), random_class(6)
    got = mc_rademacher_columns(TabulatedSupOracle(first, second, convention=convention), 3000, 13)
    want = [
        mc_empirical_rademacher(TabulatedSupOracle(c, convention=convention), 3000, 13)
        for c in (first, second)
    ]
    assert got == want
    with pytest.raises(ValueError, match="columns"):
        mc_empirical_rademacher(TabulatedSupOracle(first, second), 64, 13)


@pytest.mark.parametrize("convention", ["signed", "absolute"])
def test_exact_columns_match_one_column_estimates(convention):
    classes = [random_class(seed, m=seed - 20, n=9) for seed in (21, 23, 27)]
    got = exact_rademacher_columns(TabulatedSupOracle(*classes, convention=convention))
    want = [
        exact_empirical_rademacher(TabulatedSupOracle(c, convention=convention)) for c in classes
    ]
    assert got == want
    with pytest.raises(ValueError, match="columns"):
        exact_empirical_rademacher(TabulatedSupOracle(*classes))


def test_tabulated_oracle_classes_share_one_sample():
    with pytest.raises(ValueError, match="same sample"):
        TabulatedSupOracle(random_class(1, n=8), random_class(2, n=7))


@pytest.mark.parametrize(
    "convention, attr, value",
    [
        pytest.param("signed", "_TARGET_BATCH_CELLS", 9 * 100, id="signed"),
        pytest.param("absolute", "_TARGET_BATCH_CELLS", 9 * 100, id="absolute"),
        pytest.param("signed", "_MAX_BATCH_ROWS", 7, id="signed-row-cap-7"),
        pytest.param("absolute", "_MAX_BATCH_ROWS", 7, id="absolute-row-cap-7"),
    ],
)
def test_exact_is_bitwise_stable_under_small_batches(convention, attr, value, monkeypatch):
    # 512 rows in batches of 100 (five full batches and one of 12), or of the
    # 7-row cap (73 full batches and one of 1)
    oracles = [
        TabulatedSupOracle(random_class(seed, m=6, n=9), convention=convention) for seed in (20, 21)
    ]
    whole = [exact_empirical_rademacher(o) for o in oracles]
    monkeypatch.setattr(rademacher, attr, value)
    batched = [exact_empirical_rademacher(o) for o in oracles]
    assert batched == whole


def test_exact_peak_memory():
    # 2^18 sign rows in batches of about 1.2e5: an int64 copy of a batch's
    # bits, or every per-row value held as a Python float, pushes the
    # traced peak past this bound.
    oracle = TabulatedSupOracle(random_class(8, m=4, n=18))
    tracemalloc.start()
    try:
        exact_empirical_rademacher(oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_mc_reduction_peak_memory():
    # 2e6 draws hold 16 MB of per-draw values; the whole column as a list
    # of Python floats (32 bytes each) would add 61 MiB and pass the bound.
    oracle = TabulatedSupOracle(random_class(9, m=8, n=16))
    tracemalloc.start()
    try:
        mc_empirical_rademacher(oracle, 2_000_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20


@pytest.mark.parametrize(
    "attr, value",
    [
        pytest.param("_TARGET_BATCH_CELLS", 16 * 7, id="112"),
        pytest.param("_TARGET_BATCH_CELLS", 16 * 1000, id="16000"),
        pytest.param("_TARGET_BATCH_CELLS", 16 * 4096, id="65536"),
        pytest.param("_MAX_BATCH_ROWS", 7, id="row-cap-7"),
    ],
)
def test_mc_is_bitwise_stable_under_batch_sizes(attr, value, monkeypatch):
    # 5000 trials against one batch: at n = 16 per draw, in batches of 7,
    # 1000, 4096 or 7 rows; at n = 10 counted, its 2^10 patterns in batches
    # of 11 rows, in one batch, or in batches of 7 rows
    oracles = [
        TabulatedSupOracle(random_class(10, m=6, n=n), convention=c)
        for n in (16, 10)
        for c in ("signed", "absolute")
    ]
    whole = [mc_empirical_rademacher(o, 5000, seed=4) for o in oracles]
    monkeypatch.setattr(rademacher, attr, value)
    assert [mc_empirical_rademacher(o, 5000, seed=4) for o in oracles] == whole


def test_mc_peak_memory_does_not_grow_with_trials():
    oracle = TabulatedSupOracle(random_class(9, m=8, n=16))
    peaks = []
    for trials in (200_000, 800_000):
        tracemalloc.start()
        try:
            mc_empirical_rademacher(oracle, trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_tabulated_query_block_peak_memory():
    # a full enumeration batch of the 64 x 20 class: the float64 product of
    # the whole block would be 64 * 8 = 512 bytes per row, 256x the block
    oracle = TabulatedSupOracle(random_class(12, m=64, n=20))
    block = enumerate_sign_vectors(20, 0, rademacher._TARGET_BATCH_CELLS // 20)
    tracemalloc.start()
    try:
        oracle.query_block(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * block.nbytes


@pytest.mark.parametrize(
    "estimate",
    [
        # counted Monte Carlo: 2^16 patterns for 2e6 draws
        lambda: mc_empirical_rademacher(
            TabulatedSupOracle(random_class(9, m=8, n=16)), 2_000_000, seed=3
        ),
        lambda: exact_empirical_rademacher(TabulatedSupOracle(random_class(12, m=64, n=20))),
    ],
    ids=["counted-mc-8x16", "exact-64x20"],
)
def test_benchmark_shapes_peak_memory(estimate):
    # The benchmark's two tabulated runs: every per-batch array (philox
    # words, signs, float64 sub-blocks, suprema, weights, the reduction's
    # temporaries) is held near 2 MiB, whatever n costs per row.
    tracemalloc.start()
    try:
        estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_tabulated_query_block_float_copy_is_bounded_when_n_exceeds_m():
    # n = 256 points, m = 2 functions: the float64 copy of the signs, not the
    # product, is the largest array, 8 * 256 bytes per row; a sub-block sized
    # by m alone would copy the whole 4 MiB int8 block as 32 MiB of float64
    oracle = TabulatedSupOracle(random_class(13, m=2, n=256))
    block = trial_sign_block(5, 0, 16_384, 256)
    tracemalloc.start()
    try:
        oracle.query_block(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * rademacher._PRODUCT_CELLS


class _ColumnOracle:
    """Returns the rows of a fixed column in call order, one block at a time."""

    def __init__(self, column, n):
        self.column, self.n, self.next = np.asarray(column, dtype=np.float64), n, 0

    def query_block(self, block):
        rows = block.shape[0]
        self.next += rows
        return self.column[self.next - rows : self.next]


def _adversarial_column(seed, size):
    rng = np.random.default_rng(seed)
    mags = 10.0 ** rng.uniform(-300, 300, size)
    col = np.where(rng.random(size) < 0.5, -mags, mags)
    col[rng.random(size) < 0.1] = 0.0
    col[rng.random(size) < 0.1] = -0.0
    subnormal = rng.random(size) < 0.1
    col[subnormal] = rng.integers(-(2**52), 2**52, subnormal.sum()) * 2.0**-1074
    # heavy cancellation: large pairs that cancel exactly around small values
    big = rng.choice(size, size // 8, replace=False)
    col[big[: len(big) // 2]] = 1e300
    col[big[len(big) // 2 : 2 * (len(big) // 2)]] = -1e300
    return col


# _ColumnOracle's rows are not a function of the sign row, so its Monte Carlo
# runs keep 2^n > trials: the per-draw path, one query row per draw.


@pytest.mark.parametrize("seed", range(6))
def test_streaming_mean_is_bitwise_fsum_on_adversarial_columns(seed, monkeypatch):
    monkeypatch.setattr(rademacher, "_TARGET_BATCH_CELLS", 8 * 100)  # 100-row batches
    col = _adversarial_column(seed, 1 << 10)
    est = exact_empirical_rademacher(_ColumnOracle(col, 10))
    assert est.value.hex() == (math.fsum(col.tolist()) / col.size).hex()
    assert [
        e.value for e in exact_rademacher_columns(_ColumnOracle(np.column_stack([col, -col]), 10))
    ] == [est.value, -est.value]
    with pytest.raises(ValueError, match="too large"):
        mc_empirical_rademacher(_ColumnOracle(col, 11), col.size, seed=1)


@pytest.mark.parametrize("seed", range(6))
def test_streaming_std_error_is_the_exact_deviation_rounded_once(seed, monkeypatch):
    monkeypatch.setattr(rademacher, "_TARGET_BATCH_CELLS", 8 * 100)
    col = _adversarial_column(seed, 1000) * 1e-152  # squares stay finite
    est = mc_empirical_rademacher(_ColumnOracle(col, 10), col.size, seed=1)
    exact = [Fraction(v) for v in col.tolist()]
    dev = sum(v * v for v in exact) - sum(exact) ** 2 / col.size
    assert est.value.hex() == (math.fsum(col.tolist()) / col.size).hex()
    assert est.std_error == math.sqrt(float(dev) / (col.size - 1)) / math.sqrt(col.size)


@pytest.mark.parametrize("seed", range(4))
def test_weighted_reduction_is_exact_with_large_counts(seed):
    # counts up to 2^34 per row, 2^43 draws in all: far past what one
    # float64 bin sum of the unweighted pieces could hold exactly
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 2**34, 1 << 10)
    counts[:3] = [2**34 - 1, 2**33, 0]
    col = _adversarial_column(seed, 1 << 10) * 1e-154  # squares stay finite
    signs = partial(enumerate_sign_vectors, 10)
    (est,) = rademacher._estimate_columns(
        _ColumnOracle(col, 10), col.size, signs, 1, counts
    )
    draws = int(counts.sum())
    exact = [Fraction(v) for v in col.tolist()]
    s1 = sum(c * v for c, v in zip(counts.tolist(), exact))
    s2 = sum(c * v * v for c, v in zip(counts.tolist(), exact))
    dev = s2 - s1 * s1 / draws
    assert est.trials == draws
    assert est.value.hex() == (float(s1) / draws).hex()
    assert est.std_error == math.sqrt(float(dev) / (draws - 1)) / math.sqrt(draws)
    with pytest.raises(ValueError, match="too large"):
        rademacher._estimate_columns(
            _ColumnOracle(col * 1e154, 10), col.size, signs, 1, counts
        )


class _AbsoluteOracle:
    """The absolute convention for any oracle: per row, the larger of the
    suprema at eps and -eps."""

    def __init__(self, oracle):
        self.oracle, self.n = oracle, oracle.n

    def query_block(self, block):
        return np.maximum(self.oracle.query_block(block), self.oracle.query_block(-block))


def _per_draw_estimates(oracle, n, trials, seed):
    """Every column from one block of all draws: fsum means, exact deviations."""
    vals = oracle.query_block(trial_sign_block(seed, 0, trials, n))
    estimates = []
    for col in vals.reshape(trials, -1).T.tolist():
        exact = [Fraction(v) for v in col]
        dev = sum(v * v for v in exact) - sum(exact) ** 2 / trials
        std_error = math.sqrt(float(dev) / (trials - 1)) / math.sqrt(trials)
        estimates.append(
            RademacherEstimate(math.fsum(col) / trials, "monte-carlo", trials, std_error, seed)
        )
    return estimates


@pytest.mark.parametrize("cells", [None, 8 * 100])
@pytest.mark.parametrize("convention", ["signed", "absolute"])
@pytest.mark.parametrize("trials", [255, 256, 257])
def test_counted_mc_is_bitwise_the_per_draw_estimate(trials, convention, cells, monkeypatch):
    # 2^8 = 256 patterns: 255 trials take the per-draw path, 256 and 257 the
    # counted one.  Theorem3SupOracle's columns, and their larger values at
    # eps and -eps, are integers over n, row by row, so both paths must
    # agree bitwise on every one of the 4 + k columns.
    if cells is not None:
        monkeypatch.setattr(rademacher, "_TARGET_BATCH_CELLS", cells)  # 100-row batches
    counted = []
    count_patterns = rademacher._pattern_counts
    monkeypatch.setattr(
        rademacher, "_pattern_counts", lambda *a: counted.append(a) or count_patterns(*a)
    )
    x = 1.0 + 3.0 * np.random.default_rng(trials).random(8)
    oracle = Theorem3SupOracle(x, k=3, t=1)
    if convention == "absolute":
        oracle = _AbsoluteOracle(oracle)
    got = mc_rademacher_columns(oracle, trials, 21)
    assert len(counted) == (trials >= 256)
    assert len(got) == 4 + 3
    assert got == _per_draw_estimates(oracle, 8, trials, 21)


def test_counted_mc_weights_each_pattern_by_its_draw_count():
    n, trials, seed = 10, 5000, 3
    oracle = TabulatedSupOracle(random_class(14, m=6, n=n))
    block = trial_sign_block(seed, 0, trials, n)
    counts = np.bincount(((block > 0) << np.arange(n)).sum(axis=1), minlength=1 << n)
    sups = [Fraction(v) for v in oracle.query_block(enumerate_sign_vectors(n)).tolist()]
    s1 = sum(c * v for c, v in zip(counts.tolist(), sups))
    s2 = sum(c * v * v for c, v in zip(counts.tolist(), sups))
    est = mc_empirical_rademacher(oracle, trials, seed)
    assert est.value.hex() == (float(s1) / trials).hex()
    dev = s2 - s1 * s1 / trials
    assert est.std_error == math.sqrt(float(dev) / (trials - 1)) / math.sqrt(trials)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_suprema_raise(bad):
    col = np.ones(1 << 8)
    col[200] = bad
    with pytest.raises(ValueError, match="non-finite"):
        exact_empirical_rademacher(_ColumnOracle(col, 8))
    with pytest.raises(ValueError, match="non-finite"):
        mc_empirical_rademacher(_ColumnOracle(col, 8), col.size, seed=0)


def _full_unpack(words, rows, n):
    """Every bit of each row's words unpacked, then cut to n: the reference."""
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
    return bits.reshape(rows, -1)[:, :n].astype(np.int8) * 2 - 1


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 255, 256, 257, 300])
def test_sign_sources_match_the_full_unpack(n):
    trials, bpt = 37, -(-n // 256)
    gen = np.random.Philox(key=5, counter=[3 * bpt, 0, 0, 0])
    words = np.asarray(gen.random_raw(4 * bpt * trials), dtype=np.uint64)
    assert np.array_equal(trial_sign_block(5, 3, 3 + trials, n), _full_unpack(words, trials, n))
    m = min(n, 20)  # the enumeration cap
    lo, hi = (1 << m) // 3, min((1 << m) // 3 + 4096, 1 << m)
    words = np.arange(lo, hi, dtype=np.uint64)
    assert np.array_equal(enumerate_sign_vectors(m, lo, hi), _full_unpack(words, hi - lo, m))


def test_mc_sign_cell_cap_raises_before_any_batch():
    class NeverQueried:
        n = 16

        def query_block(self, block):
            raise AssertionError("no batch may run")

    trials = MC_SIGN_CELL_CAP // 16 + 1
    with pytest.raises(CapExceeded, match="cap"):
        mc_empirical_rademacher(NeverQueried(), trials, seed=0)


def _oracle_on_points(kind, n):
    rng = np.random.default_rng(n)
    if kind == "tabulated":
        return TabulatedSupOracle(TabulatedClass(rng.normal(size=(3, n))))
    if kind == "kernel":
        points = rng.normal(size=(n, 2))
        return KernelSupOracle(gram(KernelSpec(kind="rbf", gamma=0.5), points), 1.0)
    return Theorem3SupOracle(1.0 + 2.0 * rng.random(n), k=2, t=1)


def _never_queried(block):
    raise AssertionError("no batch may run")


@pytest.mark.parametrize("kind", ["tabulated", "kernel", "theorem3"])
@pytest.mark.parametrize("estimator", ["exact", "mc"])
def test_estimators_take_n_from_the_oracle(estimator, kind):
    # 8 points: all 2^8 sign vectors, or all 64 draws, in one batch, so the
    # estimates are the fsum of each column over that block
    oracle = _oracle_on_points(kind, 8)
    if estimator == "exact":
        cols = oracle.query_block(enumerate_sign_vectors(8)).reshape(256, -1)
        want = [math.fsum(c.tolist()) / 256 for c in cols.T]
        assert [e.value for e in exact_rademacher_columns(oracle)] == want
    else:
        want = _per_draw_estimates(oracle, 8, 64, 3)
        assert mc_rademacher_columns(oracle, trials=64, seed=3) == want


@pytest.mark.parametrize("kind", ["tabulated", "kernel", "theorem3"])
@pytest.mark.parametrize("n", [21, 64, 1000])
@pytest.mark.parametrize("estimator", ["exact", "mc"])
def test_estimator_caps_read_oracle_n(estimator, n, kind):
    # 2^n vectors past the enumeration cap, or trials * n one draw past the
    # sign-cell cap: both raise before any batch, naming oracle.n
    oracle = _oracle_on_points(kind, n)
    oracle.query_block = _never_queried
    if estimator == "exact":
        with pytest.raises(CapExceeded, match=f"2\\^{n} "):
            exact_rademacher_columns(oracle)
    else:
        with pytest.raises(CapExceeded, match=f"n={n} "):
            mc_rademacher_columns(oracle, trials=MC_SIGN_CELL_CAP // n + 1, seed=0)


def test_a_duck_typed_oracle_runs_through_every_estimator():
    class PairOracle:
        """sup over {f, -f} with f = 1 on 3 points: |sum_i eps_i| / 3."""

        n = 3

        def __init__(self):
            self.widths = set()

        def query_block(self, block):
            self.widths.add(block.shape[1])
            return np.abs(block.sum(axis=1)) / self.n

    oracle = PairOracle()
    # E|eps_1 + eps_2 + eps_3| = 3/2
    assert exact_empirical_rademacher(oracle).value == 0.5
    assert exact_rademacher_columns(oracle) == [exact_empirical_rademacher(oracle)]
    est = mc_empirical_rademacher(oracle, trials=64, seed=1)
    assert est.trials == 64 and 1 / 3 <= est.value <= 1.0
    assert mc_rademacher_columns(oracle, trials=64, seed=1) == [est]
    assert oracle.widths == {3}


def test_mc_requires_two_trials():
    oracle = TabulatedSupOracle(TWO_POINT)
    with pytest.raises(ValueError):
        mc_empirical_rademacher(oracle, 1, seed=0)


def test_mc_metadata():
    oracle = TabulatedSupOracle(TWO_POINT)
    est = mc_empirical_rademacher(oracle, 64, seed=5)
    assert est.method == "monte-carlo"
    assert est.trials == 64
    assert est.seed == 5
    assert est.std_error > 0.0


def test_negation_closed_class_is_nonnegative():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(4, 6))
    cls = TabulatedClass(np.vstack([vals, -vals]))
    oracle = TabulatedSupOracle(cls)
    assert exact_empirical_rademacher(oracle).value >= 0.0
    assert mc_empirical_rademacher(oracle, 500, seed=0).value >= 0.0


def test_row_subset_monotonicity():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(6, 7))
    small = exact_empirical_rademacher(TabulatedSupOracle(TabulatedClass(vals[:3]))).value
    large = exact_empirical_rademacher(TabulatedSupOracle(TabulatedClass(vals))).value
    assert small <= large


def test_scaling_by_two_is_exact():
    cls = random_class(4)
    doubled = TabulatedClass(2.0 * cls.values)
    e1 = exact_empirical_rademacher(TabulatedSupOracle(cls)).value
    e2 = exact_empirical_rademacher(TabulatedSupOracle(doubled)).value
    assert e2 == 2.0 * e1
    m1 = mc_empirical_rademacher(TabulatedSupOracle(cls), 200, seed=9).value
    m2 = mc_empirical_rademacher(TabulatedSupOracle(doubled), 200, seed=9).value
    assert m2 == 2.0 * m1


def test_absolute_convention_dominates_signed():
    for seed in range(5):
        cls = random_class(seed, m=4, n=6)
        signed = exact_empirical_rademacher(TabulatedSupOracle(cls)).value
        absolute = exact_empirical_rademacher(TabulatedSupOracle(cls, convention="absolute")).value
        assert absolute >= signed


def test_absolute_singleton_matches_closed_form():
    # exact absolute complexity of {constant -1} is E|sum eps|/n
    for n in (1, 2, 3, 5, 8):
        cls = TabulatedClass(-np.ones((1, n)))
        est = exact_empirical_rademacher(TabulatedSupOracle(cls, convention="absolute"))
        assert est.value == pytest.approx(reference_complexity(n), abs=1e-15)


def test_bad_convention_rejected():
    with pytest.raises(ValueError, match="'median'"):
        TabulatedSupOracle(TWO_POINT, convention="median")


@pytest.mark.parametrize("cells", [None, 50], ids=["one-sub-block", "ragged-sub-blocks"])
def test_absolute_is_bitwise_the_max_at_eps_and_minus_eps(cells, monkeypatch):
    # 50 cells: sub-blocks of 50 // 9 = 5 rows, the last of 2 rows
    if cells is not None:
        monkeypatch.setattr(rademacher, "_PRODUCT_CELLS", cells)
    classes = [random_class(seed, m=seed - 30, n=9) for seed in (31, 33, 39)]
    block = trial_sign_block(7, 0, 37, 9)
    for oracle_classes in ([classes[1]], classes):
        signed = TabulatedSupOracle(*oracle_classes)
        absolute = TabulatedSupOracle(*oracle_classes, convention="absolute")
        want = np.maximum(signed.query_block(block), signed.query_block(-block))
        assert absolute.query_block(block).tobytes() == want.tobytes()


@pytest.mark.parametrize("estimate, rows", [
    pytest.param(exact_rademacher_columns, 512, id="exact"),
    pytest.param(partial(mc_rademacher_columns, trials=300, seed=2), 300, id="mc"),
])
def test_absolute_queries_the_oracle_once_per_batch(estimate, rows, monkeypatch):
    # 2^9 = 512 exact rows, or 300 draws, in batches of 100 rows
    monkeypatch.setattr(rademacher, "_TARGET_BATCH_CELLS", 9 * 100)
    oracle = TabulatedSupOracle(random_class(40, n=9), convention="absolute")
    calls = []
    query = oracle.query_block
    monkeypatch.setattr(oracle, "query_block", lambda b: calls.append(len(b)) or query(b))
    estimate(oracle)
    assert calls == [min(100, rows - lo) for lo in range(0, rows, 100)]


def test_mc_tracks_exact_value():
    cls = random_class(7, m=6, n=9)
    oracle = TabulatedSupOracle(cls)
    exact = exact_empirical_rademacher(oracle).value
    mc = mc_empirical_rademacher(oracle, 10000, seed=1)
    assert abs(mc.value - exact) <= 4.0 * mc.std_error
