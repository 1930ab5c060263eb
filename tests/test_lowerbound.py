"""Interval classes, sign-change DP, star/margin oracles, and the scaling law."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbl.core import CapExceeded, LabeledDataset, TabulatedClass
from mbl.lowerbound import (
    IntervalClassSpec,
    IntervalSumOracle,
    IntervalSupOracle,
    LowerBoundConfig,
    StarSupOracle,
    Theorem3SupOracle,
    UnionMarginSupOracle,
    UnionSupOracle,
    brute_force_interval_sup,
    interval_sup_dp,
    partition_points,
    reference_complexity,
    restricted_rademacher,
    select_t,
    star_class_sup,
    sweep_theorem3,
    theorem3_margin_sup,
    verify_theorem3,
    _interval_optima,
)
from mbl.rademacher import (
    TabulatedSupOracle,
    enumerate_sign_vectors,
    exact_empirical_rademacher,
    trial_sign_block,
)
from mbl.synth import GeneratorSpec, generate

POINTS = np.array([1.25, 1.75, 2.5, 2.0, 3.0])  # two interiors + two boundary points


def test_dp_worked_examples():
    assert interval_sup_dp([1, -1, 1], t=2) == 3.0
    assert interval_sup_dp([1, -1, 1], t=1) == 1.0
    assert interval_sup_dp([1, -1, 1], t=0) == 1.0
    assert interval_sup_dp([1, 1, 1, 1], t=0) == 4.0


def test_dp_monotone_in_t_and_saturates():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = int(rng.integers(1, 11))
        signs = rng.choice([-1, 1], size=m)
        vals = [interval_sup_dp(signs, t) for t in range(m + 2)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        # m-1 changes let the pattern align with every sign
        assert vals[m - 1] == float(m)
        assert vals[m + 1] == float(m)
        assert vals[0] == float(abs(int(signs.sum())))


@settings(max_examples=200, deadline=None)
@given(
    signs=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=12),
    t=st.integers(min_value=0, max_value=6),
)
def test_dp_matches_brute_force_bitwise(signs, t):
    assert interval_sup_dp(signs, t) == brute_force_interval_sup(signs, t)


def test_brute_force_cap():
    with pytest.raises(CapExceeded):
        brute_force_interval_sup([1] * 13, t=1)


def test_empty_interval_sup():
    assert interval_sup_dp([], t=3) == 0.0
    assert interval_sup_dp([], t=3, restricted=False, out_of_interval_sign_sum=5.0) == -5.0
    assert brute_force_interval_sup([], t=0) == 0.0


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        interval_sup_dp([1, -1], t=-1)
    with pytest.raises(ValueError):
        brute_force_interval_sup([1, -1], t=-1)


def test_partition_points():
    inside, boundary = partition_points(POINTS, k=2)
    assert list(boundary) == [3, 4]
    assert list(inside[0]) == [0, 1]
    assert list(inside[1]) == [2]
    # interiors come back sorted by coordinate, not input order
    inside2, _ = partition_points(np.array([1.9, 1.2, 1.5]), k=1)
    assert list(inside2[0]) == [1, 2, 0]
    with pytest.raises(ValueError):
        partition_points(np.array([0.5]), k=2)
    with pytest.raises(ValueError):
        partition_points(np.array([3.5]), k=2)


def test_interval_oracle_values():
    x = np.array([1.2, 1.4, 1.6])
    oracle = IntervalSupOracle(x, k=1, j=1, t=0, restricted=True)
    assert oracle.query([1, -1, 1]) == pytest.approx(1.0 / 3.0)
    assert IntervalSupOracle(x, k=1, j=1, t=2, restricted=True).query([1, -1, 1]) == 1.0
    # unrestricted adds the off-interval -1 contributions
    full = IntervalSupOracle(POINTS, k=2, j=2, t=0, restricted=False)
    manual = interval_sup_dp([1], t=0, restricted=False, out_of_interval_sign_sum=4.0)
    assert full.query([1, 1, 1, 1, 1]) == manual / 5.0


def test_interval_oracle_empty_interval():
    x = np.array([2.5, 2.6])
    restricted = IntervalSupOracle(x, k=2, j=1, t=1, restricted=True)
    assert restricted.query([1, 1]) == 0.0
    unrestricted = IntervalSupOracle(x, k=2, j=1, t=1, restricted=False)
    assert unrestricted.query([1, 1]) == -1.0


def test_interval_oracle_validation():
    with pytest.raises(ValueError):
        IntervalSupOracle(POINTS, k=2, j=0, t=1)
    with pytest.raises(ValueError):
        IntervalSupOracle(POINTS, k=2, j=3, t=1)
    with pytest.raises(ValueError):
        IntervalSupOracle(POINTS, k=2, j=1, t=-1)


def test_sum_oracle_matches_manual_accumulation():
    rng = np.random.default_rng(17)
    x = 1.0 + 3.0 * rng.random(9)
    oracle = IntervalSumOracle(x, k=3, t=2)
    inside, _ = partition_points(x, 3)
    for _ in range(20):
        s = rng.choice([-1, 1], size=9).astype(np.int64)
        total = 0.0
        for idx in inside:
            out_sum = float(s.sum() - s[idx].sum())
            total += interval_sup_dp(s[idx], 2, restricted=False, out_of_interval_sign_sum=out_sum) / 9.0
        assert oracle.query(s) == total


def test_union_oracle_is_max_over_intervals():
    rng = np.random.default_rng(19)
    x = 1.0 + 3.0 * rng.random(8)
    union = UnionSupOracle(x, k=3, t=1)
    parts = [IntervalSupOracle(x, k=3, j=j, t=1, restricted=False) for j in (1, 2, 3)]
    for _ in range(20):
        s = rng.choice([-1, 1], size=8)
        assert union.query(s) == max(p.query(s) for p in parts)


def test_star_all_negative_signs_t0():
    assert star_class_sup(POINTS, [-1, -1, -1, -1, -1], t=0, k=2) == 1.0


def test_star_sup_decomposes_per_interval():
    rng = np.random.default_rng(23)
    x = 1.0 + 2.0 * rng.random(7)
    inside, boundary = partition_points(x, 2)
    star = StarSupOracle(x, k=2, t=1)
    for _ in range(20):
        s = rng.choice([-1, 1], size=7).astype(np.int64)
        total = sum(interval_sup_dp(s[idx], 1) for idx in inside)
        total -= float(s[boundary].sum())
        assert star.query(s) == total / 7.0


def test_margin_sup_identity_with_star():
    ds = LabeledDataset(POINTS, [3, 3, 3, 3, 3], 3)
    rng = np.random.default_rng(29)
    for t in (0, 1, 2):
        for _ in range(10):
            s = rng.choice([-1, 1], size=5).astype(np.int64)
            lhs = theorem3_margin_sup(ds, s, t=t, k=2)
            rhs = -s.sum() / 5.0 + star_class_sup(POINTS, -s, t=t, k=2)
            assert lhs == rhs


def test_margin_oracle_label_validation():
    with pytest.raises(ValueError, match="labels"):
        Theorem3SupOracle(LabeledDataset(POINTS, [3, 3, 2, 3, 3], 3), t=1, k=2)
    with pytest.raises(ValueError):
        Theorem3SupOracle(LabeledDataset(POINTS, [3] * 5, 3), t=1, k=0)


def test_margin_oracle_infers_k_from_labels():
    ds = generate(GeneratorSpec(kind="uniform_interval", k=2, n=12, seed=5))
    oracle = Theorem3SupOracle(ds, t=1)
    assert oracle.k == 2


def _interval_members(points, k, j, t):
    """All functions of one interval class as value rows (brute enumeration)."""
    inside, _ = partition_points(points, k)
    idx = inside[j - 1]
    n = np.asarray(points).size
    base = -np.ones(n)
    if idx.size == 0:
        return [base]
    pats = enumerate_sign_vectors(int(idx.size)).astype(np.float64)
    changes = (np.diff(pats, axis=1) != 0).sum(axis=1)
    return [_fill(base, idx, pat) for pat in pats[changes <= t]]


def _fill(base, idx, pat):
    row = base.copy()
    row[idx] = pat
    return row


@pytest.mark.parametrize("t", [0, 1, 2])
def test_oracles_match_materialized_classes(t):
    # Enumerate every class member on a 5-point sample and compare the exact
    # complexities against the decomposition oracles, bitwise.
    k, n = 2, POINTS.size
    members = [_interval_members(POINTS, k, j, t) for j in (1, 2)]
    star_rows = [np.maximum(a, b) for a, b in itertools.product(*members)]
    margin_rows = [-1.0 - row for row in star_rows]
    union_rows = members[0] + members[1]
    pair_rows = [g - s for g in union_rows for s in star_rows]

    star_direct = exact_empirical_rademacher(StarSupOracle(POINTS, k, t), n).value
    star_tab = exact_empirical_rademacher(
        TabulatedSupOracle(TabulatedClass(np.asarray(star_rows))), n
    ).value
    assert star_direct == star_tab

    ds = LabeledDataset(POINTS, [3] * n, 3)
    margin_direct = exact_empirical_rademacher(Theorem3SupOracle(ds, t, k), n).value
    margin_tab = exact_empirical_rademacher(
        TabulatedSupOracle(TabulatedClass(np.asarray(margin_rows))), n
    ).value
    assert margin_direct == margin_tab

    union_direct = exact_empirical_rademacher(UnionSupOracle(POINTS, k, t), n).value
    union_tab = exact_empirical_rademacher(
        TabulatedSupOracle(TabulatedClass(np.asarray(union_rows))), n
    ).value
    assert union_direct == union_tab

    pair_direct = exact_empirical_rademacher(UnionMarginSupOracle(ds, t, k), n).value
    pair_tab = exact_empirical_rademacher(
        TabulatedSupOracle(TabulatedClass(np.asarray(pair_rows))), n
    ).value
    assert pair_direct == pair_tab


def test_restricted_rademacher_exact_values():
    # three interior points, two boundary points, t=0: the restricted value
    # is the walk mean of the 3 interior signs over the 5-point normalizer
    x = np.array([1.2, 1.5, 1.8, 1.0, 2.0])
    est = restricted_rademacher(IntervalClassSpec(j=1, t=0), x, mode="exact")
    assert est.value == reference_complexity(3) * 3.0 / 5.0
    est = restricted_rademacher(IntervalClassSpec(j=1, t=2), x, mode="exact")
    assert est.value == 3.0 / 5.0
    # no interior points at all
    empty = restricted_rademacher(IntervalClassSpec(j=2, t=1), np.array([2.0, 3.0]), mode="exact")
    assert empty.value == 0.0


def test_restricted_rademacher_mode_validation():
    with pytest.raises(ValueError):
        restricted_rademacher(IntervalClassSpec(j=1, t=1), POINTS, mode="enumerate")


def test_reference_complexity_values():
    assert reference_complexity(1) == 1.0
    assert reference_complexity(2) == 0.5
    assert reference_complexity(4) == 0.375
    assert reference_complexity(4, convention="signed") == 0.0
    with pytest.raises(ValueError):
        reference_complexity(0)
    with pytest.raises(ValueError):
        reference_complexity(4, convention="median")


def test_spec_validation():
    with pytest.raises(ValueError):
        IntervalClassSpec(j=0, t=1)
    with pytest.raises(ValueError):
        IntervalClassSpec(j=1, t=-1)
    with pytest.raises(ValueError):
        LowerBoundConfig(k=2, epsilon=0.0)
    with pytest.raises(ValueError):
        LowerBoundConfig(k=2, epsilon=1.0)
    with pytest.raises(ValueError):
        LowerBoundConfig(k=2, epsilon=0.5, trials=1)
    with pytest.raises(ValueError):
        LowerBoundConfig(k=2, epsilon=0.5, t=2, n=100)  # below 16*k*t^2 = 128
    with pytest.raises(ValueError):
        LowerBoundConfig(k=2, epsilon=0.5, convention="best")


def test_select_t_small_case():
    t, n = select_t(2, 0.5, trials=256)
    assert (t, n) == (2, 128)
    assert n == 16 * 2 * t * t


def test_select_t_budget_exhausted():
    with pytest.raises(CapExceeded, match="budget"):
        select_t(4, 0.5, n_budget=10)


def test_verify_theorem3_quick():
    cfg = LowerBoundConfig(k=1, epsilon=0.5, t=2, n=64, seed=3, trials=400)
    report = verify_theorem3(cfg)
    assert report.passed
    assert report.variant == "sum"
    assert not report.t_auto_selected
    assert (report.k, report.t, report.n) == (1, 2, 64)
    # both sides share one mean in expectation, so the ratio sits near 1
    assert 0.8 <= report.ratio <= 1.2
    assert report.lhs_std_error > 0.0
    assert verify_theorem3(cfg) == report


def test_verify_theorem3_union_variant():
    cfg = LowerBoundConfig(k=2, epsilon=0.5, t=1, n=32, seed=1, trials=400)
    report = verify_theorem3(cfg, variant="union")
    assert report.passed
    assert report.variant == "union"
    with pytest.raises(ValueError):
        verify_theorem3(cfg, variant="both")


def test_verify_theorem3_threads_do_not_change_results():
    cfg = LowerBoundConfig(k=2, epsilon=0.5, t=1, n=32, seed=9, trials=512)
    assert verify_theorem3(cfg, threads=1) == verify_theorem3(cfg, threads=4)


def test_report_json_keys():
    cfg = LowerBoundConfig(k=1, epsilon=0.5, t=1, n=16, seed=0, trials=64)
    payload = verify_theorem3(cfg).to_json_dict()
    assert set(payload) == {"k", "t", "n", "epsilon", "lhs", "rhs", "ratio", "std_errors", "pass"}
    assert set(payload["std_errors"]) == {"lhs", "rhs"}
    assert isinstance(payload["pass"], bool)


def test_sweep_theorem3_small():
    reports, summary = sweep_theorem3([1, 2], t=1, points_per_interval=16, trials=256, seed=2)
    assert len(reports) == 2
    assert summary["pass"]
    assert summary["t"] == 1
    assert summary["points_per_interval"] == 16
    assert len(summary["aggregate_doubling_ratios"]) == 1
    assert summary["slope_aggregate_vs_k"] > 0.0


def test_sweep_theorem3_validation():
    with pytest.raises(ValueError):
        sweep_theorem3([], t=1)
    with pytest.raises(ValueError):
        sweep_theorem3([2, 4], t=2, points_per_interval=16)


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
    extra=st.integers(min_value=0, max_value=3),
    trials=st.integers(min_value=1, max_value=3),
    t=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_interval_optima_match_brute_force(lengths, extra, trials, t, seed):
    # Unequal and empty intervals exercise the zero padding, t >= m the
    # saturated budget; the intervals take scattered columns of the block
    # and `extra` columns belong to no interval, like boundary points.
    rng = np.random.default_rng(seed)
    n = sum(lengths) + extra
    cols = rng.permutation(n)
    inside = np.split(cols[: sum(lengths)], np.cumsum(lengths)[:-1])
    block = rng.choice(np.array([-1, 1], dtype=np.int8), size=(trials, n))
    opt = _interval_optima(block, inside, t)
    assert opt.shape == (trials, len(lengths)) and opt.dtype == np.int64
    for r in range(trials):
        for j, idx in enumerate(inside):
            assert opt[r, j] == brute_force_interval_sup(block[r, idx], t)
    # the pattern set is closed under s -> -s
    assert np.array_equal(_interval_optima(-block, inside, t), opt)


@pytest.mark.parametrize("m", [(1 << 15) - 1, 1 << 15])
def test_interval_optima_long_interval_does_not_wrap(m):
    # m >= 2^15 switches the DP state to int32; an int16 state would wrap at m = 2^15
    for sign in (1, -1):
        block = np.full((1, m), sign, dtype=np.int8)
        assert _interval_optima(block, [np.arange(m)], 0)[0, 0] == m


@pytest.mark.parametrize("k, t", [(2, 2), (5, 3), (8, 1), (3, 0)])
def test_margin_minus_interval_sum_is_linear_in_signs(k, t):
    # n (Theorem3Sup - IntervalSum) = (k - 2) sum(eps) + 2 sum_boundary(eps)
    # per draw: the interval optima cancel, only the sign sums remain.
    rng = np.random.default_rng(100 * k + t)
    on_integer = rng.integers(1, k + 2, size=12).astype(np.float64)
    x = np.concatenate([1.0 + k * rng.random(36), on_integer])
    n = x.size
    ds = LabeledDataset(x, np.full(n, k + 1), k + 1)
    _, boundary = partition_points(x, k)
    assert boundary.size == on_integer.size
    block = rng.choice(np.array([-1, 1], dtype=np.int8), size=(500, n))
    margin = Theorem3SupOracle(ds, t, k).query_block(block)
    diff = margin - IntervalSumOracle(x, k, t).query_block(block)
    eps = block.astype(np.int64)
    want = (k - 2) * eps.sum(axis=1) + 2 * eps[:, boundary].sum(axis=1)
    assert np.array_equal(np.rint(n * diff).astype(np.int64), want)
    assert np.any(eps[:, boundary].sum(axis=1) != 0)


# Recorded float.hex of (lhs, rhs, lhs_std_error, rhs_std_error): the
# verifier's outputs are pinned bit for bit.
GOLDEN_THEOREM3 = [
    (
        dict(k=3, epsilon=0.5, t=2, n=200, seed=4, trials=300),
        "sum",
        ("0x1.39f559b3d07c9p-2", "0x1.3d4daffdd0c27p-2",
         "0x1.2a0dbfb2966a4p-8", "0x1.1ee812125447cp-7"),
    ),
    (
        dict(k=3, epsilon=0.5, t=1, n=64, seed=6, trials=256),
        "union",
        ("0x1.1f40000000000p-1", "0x1.2c90000000000p-1",
         "0x1.02aaa0118d609p-7", "0x1.18a8398b5bb1bp-6"),
    ),
    (
        dict(k=2, epsilon=0.5, t=0, n=40, seed=8, trials=256, convention="signed"),
        "sum",
        ("0x1.40ccccccccccdp-3", "0x1.4733333333333p-3",
         "0x1.614cd90dbedb7p-7", "0x1.58814eaa75fc0p-7"),
    ),
]


@pytest.mark.parametrize("kwargs, variant, want", GOLDEN_THEOREM3)
def test_verify_theorem3_golden_bits(kwargs, variant, want):
    r = verify_theorem3(LowerBoundConfig(**kwargs), variant=variant)
    got = tuple(float.hex(v) for v in (r.lhs, r.rhs, r.lhs_std_error, r.rhs_std_error))
    assert got == want


@pytest.mark.parametrize(
    "make",
    [
        lambda ds, k, t: Theorem3SupOracle(ds, t, k),
        lambda ds, k, t: UnionMarginSupOracle(ds, t, k),
        lambda ds, k, t: IntervalSumOracle(ds, k, t),
        lambda ds, k, t: UnionSupOracle(ds, k, t),
        lambda ds, k, t: StarSupOracle(ds, k, t),
    ],
)
def test_oracle_block_memory_stays_near_the_int8_block(make):
    # An int64 copy of the block alone is 8x its int8 size; the engine folds
    # the int8 signs as they are and keeps a small int16 state.
    k, t = 4, 4
    ds = generate(GeneratorSpec(kind="uniform_interval", k=k, n=16 * k * t * t, seed=2))
    oracle = make(ds, k, t)
    block = trial_sign_block(7, 0, 64, ds.n)
    tracemalloc.start()
    try:
        oracle.query_block(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * block.nbytes
