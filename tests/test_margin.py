import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mbl.margin as margin_module
from mbl.core import CapExceeded, TabulatedClass
from mbl.margin import (
    MARGIN_SCORE_CAP,
    Lemma1Report,
    MarginClassSpec,
    ScoreMatrix,
    empirical_margin_cdf,
    lemma1_sweep,
    margin,
    margins,
    materialize_margin_class,
    random_margin_instance,
    verify_lemma1,
)
from mbl.rademacher import TabulatedSupOracle, exact_rademacher_columns

ROW = (2.0, 0.5, 1.0)

int_rows = st.lists(st.integers(-5, 5), min_size=2, max_size=6).map(
    lambda xs: [float(v) for v in xs]
)


def test_margin_examples():
    assert margin(ROW, 1) == 1.0
    assert margin(ROW, 2) == -1.5
    for c in (0.0, 2.5, -1.0):
        assert margin((c, c), 1) == 0.0


def test_margin_label_out_of_range():
    with pytest.raises(ValueError):
        margin(ROW, 0)
    with pytest.raises(ValueError):
        margin(ROW, 4)


@given(int_rows, st.data())
@settings(max_examples=150, deadline=None)
def test_misclassified_iff_margin_nonpositive(row, data):
    y = data.draw(st.integers(1, len(row)))
    top = max(row)
    correct_strict = row[y - 1] == top and row.count(top) == 1
    assert correct_strict == (margin(row, y) > 0.0)


def _same_bits(got, want) -> bool:
    """Equal values and equal signs, so -0.0 and 0.0 count as different."""
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_margins_matches_scalar_loop():
    rng = np.random.default_rng(0)
    # ties and signed zeros, each row under every label
    tied = np.array(
        [
            [-0.0, 0.0, -0.0],
            [0.0, -0.0, 0.0],
            [-0.0, -0.0, -0.0],
            [0.0, 0.0, 0.0],
            [1.0, 1.0, -1.0],
            [2.5, -0.0, 2.5],
            [-1.0, 0.0, -0.0],
        ]
    )
    cases = [
        (rng.normal(size=(20, 4)), rng.integers(1, 5, size=20)),
        (np.repeat(tied, 3, axis=0), np.tile([1, 2, 3], len(tied))),
    ]
    for rows, labels in cases:
        vec = margins(ScoreMatrix(rows), labels)
        want = [margin(rows[i], int(labels[i])) for i in range(len(labels))]
        assert _same_bits(vec, np.array(want))


def test_materialize_matches_scalar_margin_per_tuple():
    # Mixed-radix row order, last class fastest, is itertools.product order;
    # each product element stacks to a (k, n) score block, one column per point.
    rng = np.random.default_rng(3)
    pool = np.array([-0.0, 0.0, 1.0, -1.0, 2.5])
    negative_zeros = 0
    for _ in range(60):
        k, n = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        classes = tuple(
            TabulatedClass(pool[rng.integers(0, pool.size, size=(int(rng.integers(1, 4)), n))])
            for _ in range(k)
        )
        labels = rng.integers(1, k + 1, size=n)
        got = materialize_margin_class(MarginClassSpec(classes), labels).values
        want = np.array(
            [
                [margin(row, int(y)) for row, y in zip(np.array(block).T, labels)]
                for block in itertools.product(*(c.values for c in classes))
            ]
        )
        assert _same_bits(got, want)
        negative_zeros += int(np.count_nonzero((want == 0.0) & np.signbit(want)))
    assert negative_zeros > 0


def test_materialize_rows_match_unravel_index_at_64_classes():
    # the row order and bits np.unravel_index gives up to its 64-dimension limit
    rng = np.random.default_rng(9)
    sizes, n = (2,) + (1,) * 61 + (3, 2), 3
    classes = tuple(TabulatedClass(rng.normal(size=(m, n))) for m in sizes)
    labels = rng.integers(1, len(sizes) + 1, size=n)
    got = materialize_margin_class(MarginClassSpec(classes), labels).values
    digits = np.unravel_index(np.arange(math.prod(sizes)), sizes)
    scores = np.stack([c.values[d] for c, d in zip(classes, digits)], axis=-1)
    want = np.stack([margins(ScoreMatrix(block), labels) for block in scores])
    assert got.tobytes() == want.tobytes()


def test_materialize_more_than_64_classes():
    # 65 one-row classes: a product of 1 row, past np.unravel_index's 64 dimensions
    rng = np.random.default_rng(5)
    k, n = 65, 4
    classes = tuple(TabulatedClass(rng.normal(size=(1, n))) for _ in range(k))
    labels = rng.integers(1, k + 1, size=n)
    spec = MarginClassSpec(classes)
    got = materialize_margin_class(spec, labels).values
    scores = np.concatenate([c.values for c in classes]).T  # (n, k)
    want = np.array([[margin(row, int(y)) for row, y in zip(scores, labels)]])
    assert _same_bits(got, want)
    assert verify_lemma1(spec, labels).passed


def test_margins_validates_labels():
    scores = ScoreMatrix(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        margins(scores, [1, 2, 3])
    with pytest.raises(ValueError):
        margins(scores, [1, 2])


def test_margin_distribution_examples():
    scores = ScoreMatrix(np.array([[1.0, 0.0]] * 4))  # all margins 1.0
    cdf = empirical_margin_cdf(scores, np.ones(4, dtype=int))
    assert cdf(0.5) == 0.0
    assert cdf(1.0) == 1.0

    rows = np.array([[0.0, 0.1], [0.2, 0.0], [0.9, 0.0]])
    labels3 = np.array([1, 1, 1])  # margins -0.1, 0.2, 0.9
    assert empirical_margin_cdf(ScoreMatrix(rows), labels3)(0.2) == pytest.approx(2 / 3)


def test_margin_cdf_monotone_and_right_continuous():
    rng = np.random.default_rng(1)
    scores = ScoreMatrix(rng.normal(size=(30, 3)))
    labels = rng.integers(1, 4, size=30)
    cdf = empirical_margin_cdf(scores, labels)
    ms = np.sort(margins(scores, labels))
    grid = np.linspace(ms[0] - 1, ms[-1] + 1, 200)
    vals = [cdf(g) for g in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert cdf(float(ms[-1])) == 1.0
    # right-continuity with inclusive <=: the cdf jumps AT the sample point
    m0 = float(ms[0])
    assert cdf(m0) > cdf(m0 - 1e-9)
    m = margins(scores, labels)
    for delta in (*m[:5], 0.0, -0.0, 5e-324, 1.0):
        assert cdf(delta) == np.count_nonzero(m <= delta) / 30


def test_margin_cdf_rejects_nan_and_keeps_infinite_limits():
    cdf = empirical_margin_cdf(ScoreMatrix(np.array([[0.0, 0.1], [0.2, 0.0]])), [1, 1])
    with pytest.raises(ValueError, match="NaN"):
        cdf(math.nan)
    with pytest.raises(ValueError, match="NaN"):
        cdf(np.float64("nan"))
    assert (cdf(-math.inf), cdf(math.inf)) == (0.0, 1.0)


def test_translation_invariance_of_margins():
    rng = np.random.default_rng(2)
    base = rng.integers(-3, 4, size=(10, 3)).astype(float)
    labels = rng.integers(1, 4, size=10)
    shifted = ScoreMatrix(base + 2.5)
    assert np.array_equal(margins(ScoreMatrix(base), labels), margins(shifted, labels))


def test_materialize_singleton_product():
    spec = MarginClassSpec((TabulatedClass([[2.0]]), TabulatedClass([[0.5]])))
    cls = materialize_margin_class(spec, [1])
    assert cls.values.tolist() == [[1.5]]


def test_materialize_row_count_and_order():
    f1 = TabulatedClass([[1.0], [-1.0]])           # 2 rows
    f2 = TabulatedClass([[0.0], [1.0], [-1.0]])    # 3 rows
    spec = MarginClassSpec((f1, f2))
    cls = materialize_margin_class(spec, [1])
    assert cls.m == 6
    # mixed radix, last class fastest: (f1[a], f2[b]) in order
    # (0,0),(0,1),(0,2),(1,0),(1,1),(1,2); margin = f1 - f2 under label 1
    expected = [1.0 - 0.0, 1.0 - 1.0, 1.0 + 1.0, -1.0 - 0.0, -1.0 - 1.0, -1.0 + 1.0]
    assert cls.values[:, 0].tolist() == expected


def test_materialize_zero_classes():
    zero = TabulatedClass([[0.0, 0.0]])
    spec = MarginClassSpec((zero, zero, zero))
    cls = materialize_margin_class(spec, [1, 3])
    assert np.array_equal(cls.values, np.zeros((1, 2)))


def test_materialize_cap():
    # 1001 * 1001 = 1,002,001 rows, just over MARGIN_CLASS_CAP
    f = TabulatedClass(np.zeros((1001, 1)))
    spec = MarginClassSpec((f, f))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="1002001 rows"):
            materialize_margin_class(spec, [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # raised before the 8 MB row index was built


def test_margin_class_spec_validation():
    single = TabulatedClass([[1.0]])
    with pytest.raises(ValueError):
        MarginClassSpec((single,))
    with pytest.raises(ValueError):
        MarginClassSpec((single, TabulatedClass([[1.0, 2.0]])))


def test_verify_lemma1_hand_case():
    shared = TabulatedClass([[1.0, 1.0], [-1.0, -1.0]])
    spec = MarginClassSpec((shared, shared))
    report = verify_lemma1(spec, [1, 2])
    assert report.lhs == 1.0
    assert report.rhs == 1.0
    assert report.passed


def test_verify_lemma1_singletons():
    spec = MarginClassSpec((TabulatedClass([[1.0, 0.0]]), TabulatedClass([[0.0, -1.0]])))
    report = verify_lemma1(spec, [1, 2])
    assert report.lhs == 0.0
    assert report.rhs == 0.0
    assert report.passed
    assert isinstance(report, Lemma1Report)


def test_verify_lemma1_product_cap_before_materializing(monkeypatch):
    # 100^3 = 10^6 rows pass MARGIN_CLASS_CAP, but times 2^20 sign vectors
    # they are about 1.05e12 products, 244 times the exact product cap
    f = TabulatedClass(np.zeros((100, 20)))

    def never(*args, **kwargs):
        raise AssertionError("the margin class was built before the cap check")

    monkeypatch.setattr("mbl.margin.materialize_margin_class", never)
    with pytest.raises(CapExceeded, match=r"1000000 rows x 2\^20 sign vectors"):
        verify_lemma1(MarginClassSpec((f, f, f)), np.ones(20, dtype=np.int64))


def test_random_margin_instance_is_deterministic_and_capped():
    a_spec, a_labels = random_margin_instance(17)
    b_spec, b_labels = random_margin_instance(17)
    assert np.array_equal(a_labels, b_labels)
    assert all(
        np.array_equal(x.values, y.values)
        for x, y in zip(a_spec.per_class, b_spec.per_class)
    )
    for seed in range(30):
        spec, labels = random_margin_instance(seed, max_k=3, max_n=8, max_class_size=4)
        assert 2 <= spec.k <= 3
        assert 1 <= spec.n <= 8
        assert all(c.m <= 4 for c in spec.per_class)
        assert set(np.unique(np.concatenate([c.values.ravel() for c in spec.per_class]))) <= {
            -1.0,
            0.0,
            1.0,
        }
        assert labels.min() >= 1 and labels.max() <= spec.k


def test_lemma1_sweep_passes():
    report = lemma1_sweep(40)
    assert report["pass"]
    assert report["instances"] == 40
    assert report["failures"] == []
    assert report["worst_slack"] <= 1e-12


def test_lemma1_rejects_the_false_max_claim():
    # R(M_k) <= max_j R(F_j) is false in general; the exact check must see it.
    rejected = 0
    for seed in range(200):
        rep = verify_lemma1(*random_margin_instance(seed))
        rejected += rep.lhs > max(rep.per_class) + 1e-12
    assert rejected > 50


def test_lemma1_is_an_equality_at_k_2():
    # With two classes every margin is +-(f_1 - f_2), so both sides agree.
    checked = 0
    for seed in range(200):
        spec, labels = random_margin_instance(seed)
        if spec.k != 2:
            continue
        rep = verify_lemma1(spec, labels)
        assert abs(rep.lhs - rep.rhs) <= 1e-12, seed
        checked += 1
    assert checked > 50


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _old_random_margin_instance(seed, max_k, max_n, max_class_size):
    """The instance draw written out with Generator.integers on a fresh Philox(key=seed)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    k = int(rng.integers(2, max_k + 1))
    n = int(rng.integers(1, max_n + 1))
    pool = np.asarray((-1.0, 0.0, 1.0))
    classes = [
        pool[rng.integers(0, pool.size, size=(int(rng.integers(1, max_class_size + 1)), n))]
        for _ in range(k)
    ]
    return classes, rng.integers(1, k + 1, size=n)


@pytest.mark.parametrize("limits", [(3, 8, 4), (3, 10, 4), (5, 12, 6), (2, 1, 1), (6, 3, 1)])
def test_random_margin_instance_draws_are_the_written_out_draws(limits):
    # instance s of a sweep replays as random_margin_instance(s): pin its draws
    for seed in [*range(100), *range(2**64 - 10, 2**64)]:
        spec, labels = random_margin_instance(seed, *limits)
        old_classes, old_labels = _old_random_margin_instance(seed, *limits)
        assert labels.dtype == old_labels.dtype and np.array_equal(labels, old_labels)
        assert spec.k == len(old_classes)
        for tab, want in zip(spec.per_class, old_classes):
            assert tab.values.dtype == want.dtype and tab.values.tobytes() == want.tobytes()
            assert tab.values.shape == want.shape


def _sweep_sides(monkeypatch, seeds, base_seed, limits):
    """The sweep's (seed, lhs, rhs) of every instance: with no slack allowed every one fails."""
    monkeypatch.setattr(margin_module, "_LEMMA1_TOLERANCE", -math.inf)
    max_k, max_n, max_class_size = limits
    report = lemma1_sweep(
        seeds, max_k=max_k, max_n=max_n, max_class_size=max_class_size, base_seed=base_seed
    )
    assert report["instances"] == seeds and not report["pass"]
    return report


@pytest.mark.parametrize(
    "seeds, base_seed, limits",
    [
        pytest.param(2000, 2000, (3, 10, 4), id="benchmark"),
        pytest.param(150, 7, (5, 12, 6), id="k5-n12-m6"),
        pytest.param(300, 11, (3, 1, 4), id="n1"),
        pytest.param(300, 5, (6, 8, 1), id="one-row-classes"),
    ],
)
def test_lemma1_sweep_is_bitwise_verify_lemma1(monkeypatch, seeds, base_seed, limits):
    report = _sweep_sides(monkeypatch, seeds, base_seed, limits)
    # every seed, in seed order, across chunks and n-groups
    assert [f["seed"] for f in report["failures"]] == list(range(base_seed, base_seed + seeds))
    slacks = []
    for failure in report["failures"]:
        rep = verify_lemma1(*random_margin_instance(failure["seed"], *limits))
        assert _bits(failure["lhs"]) == _bits(rep.lhs), failure
        assert _bits(failure["rhs"]) == _bits(rep.rhs), failure
        slacks.append(rep.lhs - rep.rhs)
    assert _bits(report["worst_slack"]) == _bits(max(slacks))


@pytest.mark.parametrize("limits", [(4, 9, 5), (4, 3, 5)])
def test_lemma1_sweep_is_bitwise_verify_lemma1_at_tiny_budgets(monkeypatch, limits):
    # chunks of at most 7 seeds, batches of one or a few instances, several
    # passes per batch and blocks that cut segments along the rows and the
    # sign axis
    for name, value in [("_SWEEP_CHUNK", 7), ("_BATCH_CELLS", 1 << 10),
                        ("_BLOCK_BYTES", 1 << 6), ("_RUNNING_CELLS", 1 << 5)]:
        monkeypatch.setattr(margin_module, name, value)
    report = _sweep_sides(monkeypatch, 120, 40, limits)
    assert [f["seed"] for f in report["failures"]] == list(range(40, 160))
    for failure in report["failures"]:
        rep = verify_lemma1(*random_margin_instance(failure["seed"], *limits))
        assert (_bits(failure["lhs"]), _bits(failure["rhs"])) == (_bits(rep.lhs), _bits(rep.rhs))


def test_lemma1_sweep_reports_only_real_failures(monkeypatch):
    # a tolerance that only the instances with lhs < rhs - 0.1 meet
    monkeypatch.setattr(margin_module, "_LEMMA1_TOLERANCE", -0.1)
    report = lemma1_sweep(300, max_n=6, base_seed=3)
    want = []
    for seed in range(3, 303):
        rep = verify_lemma1(*random_margin_instance(seed, max_n=6))
        if not rep.lhs <= rep.rhs - 0.1:
            want.append({"seed": seed, "lhs": rep.lhs, "rhs": rep.rhs})
    assert 0 < len(want) < 300
    assert report["failures"] == want and report["pass"] is False


def test_lemma1_sweep_checks_every_k_2_instance_exactly():
    report = lemma1_sweep(300, max_n=6, base_seed=3)
    k2 = sum(random_margin_instance(seed, max_n=6)[0].k == 2 for seed in range(3, 303))
    assert 100 < k2 < 200
    assert report["k2_identities"] == k2
    assert report["failures"] == [] and report["pass"] is True


def test_lemma1_sweep_k_2_check_sees_a_dropped_margin_row(monkeypatch):
    # Copying each margin class's second row over its first drops the first
    # from every supremum: lhs can only fall, so the inequality still holds,
    # but the exact k = 2 totals no longer match.
    build = margin_module._margin_rows

    def drop_first_rows(batch, class_rows, sizes):
        rows, starts = build(batch, class_rows, sizes)
        ends = np.append(starts[1:], rows.shape[0])
        for start, end in zip(starts.tolist(), ends.tolist()):
            if end - start >= 2:
                rows[start] = rows[start + 1]
        return rows, starts

    monkeypatch.setattr(margin_module, "_margin_rows", drop_first_rows)
    report = lemma1_sweep(300, max_n=6, base_seed=3)
    assert report["pass"] is False and len(report["failures"]) > 10
    for failure in report["failures"]:
        assert random_margin_instance(failure["seed"], max_n=6)[0].k == 2
        assert failure["lhs"] <= failure["rhs"] + margin_module._LEMMA1_TOLERANCE
        margin_total, class_total = failure["k2_totals"]
        assert margin_total < class_total


def test_segment_means_is_exact_rademacher_columns_at_n_20():
    rng = np.random.default_rng(4)
    rows = rng.integers(-2, 3, size=(6, 20)).astype(np.float64)
    starts = np.array([0, 2, 3])
    classes = [TabulatedClass(part) for part in np.split(rows, starts[1:])]
    want = [est.value for est in exact_rademacher_columns(TabulatedSupOracle(*classes))]
    tracemalloc.start()
    try:
        got = margin_module._segment_means(margin_module._segment_counts(rows, starts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(map(_bits, got)) == list(map(_bits, want))
    assert peak < 2 << 20  # blocks along the sign axis; one pass of 2^20 int8 maxima


@pytest.mark.parametrize("value", [0.5, 3.0, -2.5, math.nan])
def test_segment_means_refuses_values_that_are_not_small_integers(value):
    rows = np.zeros((2, 3))
    rows[1, 2] = value
    with pytest.raises(ValueError, match="integers in \\[-2, 2\\]"):
        margin_module._segment_counts(rows, np.array([0]))


def test_lemma1_sweep_working_set():
    lemma1_sweep(5, max_n=10)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        report = lemma1_sweep(2000, max_n=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"]
    # one chunk of instances plus bounded blocks; unblocked (rows, 2^n)
    # sums over a batch would take several MiB
    assert peak < 3 << 19


def _no_draw(*args, **kwargs):
    raise AssertionError("an instance was drawn before the limits were checked")


@pytest.mark.parametrize(
    "kwargs, error, match",
    [
        (dict(base_seed=-1), ValueError, r"\[0, 2\^64\)"),
        (dict(base_seed=2**64 - 2), ValueError, "18446744073709551616"),
        (dict(max_k=10**9, max_class_size=1), CapExceeded, "margin-score cap"),
        (dict(max_k=10**6, max_class_size=1, max_n=20), CapExceeded, "margin-score cap"),
    ],
    ids=["negative", "past-2^64", "runaway-k", "k-times-n"],
)
def test_lemma1_sweep_refuses_up_front(monkeypatch, kwargs, error, match):
    for name in ("_draw_instance", "random_margin_instance"):
        monkeypatch.setattr(margin_module, name, _no_draw)
    with pytest.raises(error, match=match):
        lemma1_sweep(3, **kwargs)


@pytest.mark.parametrize(
    "limits",
    [(3, 8, 4), (3, 10, 4), (5, 12, 6), (6, 8, 4), (6, 8, 3), (3, 20, 4), (6, 8, 1)],
    ids=["default-readme-demo", "benchmark", "k5-n12-m6", "k6", "k6-m3", "n20", "one-row"],
)
def test_limits_in_use_pass_the_score_cap(limits):
    max_k, max_n, max_class_size = limits
    assert max_class_size**max_k * max_n * max_k <= MARGIN_SCORE_CAP
    report = lemma1_sweep(1, max_k=max_k, max_n=max_n, max_class_size=max_class_size)
    assert report["pass"]
