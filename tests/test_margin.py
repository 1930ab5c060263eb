import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbl.core import CapExceeded, TabulatedClass
from mbl.margin import (
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
