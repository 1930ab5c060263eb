"""Interval classes, sign-change DP, the multi-column Theorem-3 oracle, and the scaling law."""
import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbl import lowerbound, rademacher
from mbl.core import CapExceeded, LabeledDataset, TabulatedClass
from mbl.lowerbound import (
    COL_MARGIN,
    COL_RESTRICTED,
    COL_SUM,
    COL_UNION,
    COL_UNION_MARGIN,
    LowerBoundConfig,
    Theorem3SupOracle,
    brute_force_interval_sup,
    interval_sup_dp,
    partition_points,
    reference_complexity,
    select_t,
    sweep_theorem3,
    verify_theorem3,
    _interval_optima,
)
from mbl.rademacher import (
    TabulatedSupOracle,
    derive_seed,
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
    # NaN lies in no interval and on no boundary
    with pytest.raises(ValueError):
        partition_points(np.array([1.5, np.nan]), k=2)


def _partition_by_masks(x, k):
    """Reference partition: one mask pass per interval, each interior sorted on its own."""
    on_boundary = x == np.floor(x)
    interval = np.floor(x).astype(np.int64)
    inside = []
    for j in range(1, k + 1):
        idx = np.nonzero((interval == j) & ~on_boundary)[0]
        inside.append(idx[np.argsort(x[idx], kind="stable")])
    return inside, np.nonzero(on_boundary)[0]


def test_partition_points_matches_per_interval_masks():
    # a quarter grid makes ties and integer (boundary) points common, and
    # empty intervals occur at small n
    rng = np.random.default_rng(29)
    for _ in range(500):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(0, 40))
        grid = 1.0 + rng.integers(0, 4 * k + 1, size=n) / 4.0
        x = np.where(rng.random(n) < 0.5, grid, 1.0 + k * rng.random(n))
        (inside, boundary), (want, want_boundary) = partition_points(x, k), _partition_by_masks(x, k)
        assert len(inside) == k
        for got, ref in zip([*inside, boundary], [*want, want_boundary]):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)


def _columns(data, k, t, signs):
    """One sign vector's row of Theorem3SupOracle columns."""
    block = np.asarray(signs, dtype=np.int8)[None, :]
    return Theorem3SupOracle(data, k, t).query_block(block)[0]


def _unrestricted(s, inside, t):
    """Per-interval unrestricted F_t^j suprema, unnormalized: optimum - off-interval sum."""
    return [interval_sup_dp(s[idx], t) - float(s.sum() - s[idx].sum()) for idx in inside]


def test_interval_oracle_values():
    x = np.array([1.2, 1.4, 1.6])
    assert _columns(x, 1, 0, [1, -1, 1])[COL_RESTRICTED] == 1.0 / 3.0
    assert _columns(x, 1, 2, [1, -1, 1])[COL_RESTRICTED] == 1.0
    # unrestricted values add the off-interval -1 contributions: interval 2
    # of POINTS holds one point, and four signs sit off it
    row = _columns(POINTS, 2, 0, [1, 1, 1, 1, 1])
    assert list(row[COL_RESTRICTED:]) == [2.0 / 5.0, 1.0 / 5.0]
    assert row[COL_SUM] == (2.0 - 3.0) / 5.0 + (1.0 - 4.0) / 5.0
    assert row[COL_UNION] == (2.0 - 3.0) / 5.0


def test_interval_oracle_empty_interval():
    # interval 1 holds no point: restricted 0, unrestricted -(sum of all signs)/n
    row = _columns(np.array([2.5, 2.6]), 2, 1, [1, 1])
    assert row[COL_RESTRICTED] == 0.0
    assert row[COL_RESTRICTED + 1] == 1.0
    assert row[COL_SUM] == -1.0 + 1.0
    assert row[COL_UNION] == 1.0


def test_interval_oracle_validation():
    with pytest.raises(ValueError):
        Theorem3SupOracle(POINTS, k=0, t=1)
    with pytest.raises(ValueError):
        Theorem3SupOracle(POINTS, k=2, t=-1)
    with pytest.raises(ValueError):
        Theorem3SupOracle(POINTS, k=1, t=1)  # 2.5 and 3.0 lie beyond [1, 2]


def test_sum_oracle_matches_manual_accumulation():
    rng = np.random.default_rng(17)
    x = 1.0 + 3.0 * rng.random(9)
    oracle = Theorem3SupOracle(x, k=3, t=2)
    inside, _ = partition_points(x, 3)
    block = rng.choice(np.array([-1, 1], dtype=np.int8), size=(20, 9))
    cols = oracle.query_block(block)
    for s, row in zip(block.astype(np.int64), cols):
        assert row[COL_SUM] == int(sum(_unrestricted(s, inside, 2))) / 9


def test_union_oracle_is_max_over_intervals():
    rng = np.random.default_rng(19)
    x = 1.0 + 3.0 * rng.random(8)
    inside, _ = partition_points(x, 3)
    block = rng.choice(np.array([-1, 1], dtype=np.int8), size=(20, 8))
    cols = Theorem3SupOracle(x, k=3, t=1).query_block(block)
    for s, row in zip(block.astype(np.int64), cols):
        assert row[COL_UNION] == max(v / 8.0 for v in _unrestricted(s, inside, 1))


def test_star_all_negative_signs_t0():
    # the margin column at eps is -mean(eps) plus the star sup at -eps; at
    # -eps = all -1 and t = 0 the star sup is 1 (each interval's constant -1
    # matches its points, boundary points are -1 anyway)
    ds = LabeledDataset(POINTS, [3] * 5, 3)
    assert _columns(ds.points, 2, 0, [1, 1, 1, 1, 1])[COL_MARGIN] == -1.0 + 1.0


def test_star_sup_decomposes_per_interval():
    # margin(eps) = -mean(eps) + star(-eps), and the star sup decomposes per
    # interval: sum_j DP_j(-eps) minus the sign sum of -eps on the boundary
    rng = np.random.default_rng(23)
    for x, k in ((1.0 + 2.0 * rng.random(7), 2), (1.0 + 3.0 * rng.random(11), 3)):
        n = x.size
        inside, boundary = partition_points(x, k)
        ds = LabeledDataset(x, [k + 1] * n, k + 1)
        for t in (0, 1, 2):
            block = rng.choice(np.array([-1, 1], dtype=np.int8), size=(10, n))
            cols = Theorem3SupOracle(ds.points, k, t).query_block(block)
            for s, row in zip(-block.astype(np.int64), cols):
                star = sum(int(interval_sup_dp(s[idx], t)) for idx in inside) - s[boundary].sum()
                assert row[COL_MARGIN] == int(s.sum() + star) / n


def test_margin_sup_identity_with_star():
    # per draw, against the materialized star class {max(f_1, f_2)}:
    # margin(eps) = -mean(eps) + max over star rows of (-eps) . row / n
    ds = LabeledDataset(POINTS, [3, 3, 3, 3, 3], 3)
    signs = enumerate_sign_vectors(5)
    for t in (0, 1, 2):
        members = [_interval_members(POINTS, 2, j, t) for j in (1, 2)]
        star_rows = np.asarray([np.maximum(a, b) for a, b in itertools.product(*members)])
        margin = Theorem3SupOracle(ds.points, 2, t).query_block(signs)[:, COL_MARGIN]
        star = (star_rows.astype(np.int64) @ -signs.T.astype(np.int64)).max(axis=0)
        assert np.array_equal(margin, (star - signs.sum(axis=1, dtype=np.int64)) / 5)


def test_margin_oracle_label_validation():
    with pytest.raises(ValueError):
        Theorem3SupOracle(POINTS, k=0, t=1)


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


def _exact_column_means(oracle, n):
    """Exact complexities of every column: fsum over all 2^n sign vectors."""
    cols = oracle.query_block(enumerate_sign_vectors(n))
    return [math.fsum(col.tolist()) / (1 << n) for col in cols.T]


def _exact_tabulated(rows):
    return exact_empirical_rademacher(TabulatedSupOracle(TabulatedClass(np.asarray(rows)))).value


@pytest.mark.parametrize("t", [0, 1, 2])
def test_oracles_match_materialized_classes(t):
    # Enumerate every class member on a 5-point sample and compare the exact
    # complexities against the oracle's columns, bitwise.
    k, n = 2, POINTS.size
    members = [_interval_members(POINTS, k, j, t) for j in (1, 2)]
    star_rows = [np.maximum(a, b) for a, b in itertools.product(*members)]
    margin_rows = [-1.0 - row for row in star_rows]
    union_rows = members[0] + members[1]
    pair_rows = [g - s for g in union_rows for s in star_rows]

    ds = LabeledDataset(POINTS, [3] * n, 3)
    means = _exact_column_means(Theorem3SupOracle(ds.points, k, t), n)
    assert means[COL_MARGIN] == _exact_tabulated(margin_rows)
    assert means[COL_UNION] == _exact_tabulated(union_rows)
    assert means[COL_UNION_MARGIN] == _exact_tabulated(pair_rows)


def test_restricted_rademacher_exact_values():
    # three interior points, two boundary points, t=0: the restricted value
    # is the walk mean of the 3 interior signs over the 5-point normalizer
    x = np.array([1.2, 1.5, 1.8, 1.0, 2.0])
    t0 = _exact_column_means(Theorem3SupOracle(x, 1, 0), 5)
    assert t0[COL_RESTRICTED] == reference_complexity(3) * 3.0 / 5.0
    t2 = _exact_column_means(Theorem3SupOracle(x, 1, 2), 5)
    assert t2[COL_RESTRICTED] == 3.0 / 5.0
    # no interior points at all in interval 2
    empty = _exact_column_means(Theorem3SupOracle(np.array([2.0, 3.0]), 2, 1), 2)
    assert empty[COL_RESTRICTED + 1] == 0.0


def test_reference_complexity_values():
    assert reference_complexity(1) == 1.0
    assert reference_complexity(2) == 0.5
    assert reference_complexity(4) == 0.375
    assert reference_complexity(4, convention="signed") == 0.0
    with pytest.raises(ValueError):
        reference_complexity(0)
    with pytest.raises(ValueError):
        reference_complexity(4, convention="median")


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 4000])
def test_reference_complexity_takes_a_numpy_integer(n):
    # 2 ** (n - 1) in int64 wraps at n = 64 and overflows to inf beyond
    assert reference_complexity(np.int64(n)) == reference_complexity(n)


def test_spec_validation():
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
    t, n = select_t(2, 0.5)
    assert (t, n) == (2, 128)
    assert n == 16 * 2 * t * t


def test_select_t_takes_a_numpy_integer_k():
    assert select_t(np.int64(4), 0.5, seed=0) == select_t(4, 0.5, seed=0) == (4, 1024)


def test_select_t_pinned_at_k8():
    for seed in (0, 1, 2):
        assert select_t(8, 0.5, seed=seed) == (8, 8192)


def test_select_t_draws_one_sign_stream_per_candidate(monkeypatch):
    # All k restricted columns of a candidate come from one engine call on
    # one sign stream: candidates t = 1, 2, 4, 8 make one (unsplit) batch each.
    calls = []
    real = rademacher.trial_sign_block

    def counting(seed, start, stop, n):
        calls.append((seed, start, stop, n))
        return real(seed, start, stop, n)

    monkeypatch.setattr(rademacher, "trial_sign_block", counting)
    assert select_t(8, 0.5, seed=0) == (8, 8192)
    assert [(start, stop, n) for _, start, stop, n in calls] == [
        (0, 256, 16 * 8 * t * t) for t in (1, 2, 4, 8)
    ]
    assert len({seed for seed, *_ in calls}) == 4


def test_select_t_requires_every_interval(monkeypatch):
    # Restricted estimates pinned to 1 pass everywhere; at t = 1 the last
    # interval alone reads 0, so the search must move on to t = 2.
    real = lowerbound.mc_rademacher_columns

    def pinned(oracle, trials, seed):
        ests = real(oracle, trials, seed)
        k = len(ests) - COL_RESTRICTED
        low = [oracle.t == 1 and j == k - 1 for j in range(k)]
        return ests[:COL_RESTRICTED] + [
            dataclasses.replace(e, value=0.0 if fail else 1.0)
            for e, fail in zip(ests[COL_RESTRICTED:], low)
        ]

    monkeypatch.setattr(lowerbound, "mc_rademacher_columns", pinned)
    assert select_t(3, 0.5) == (2, 192)


def test_select_t_budget_exhausted():
    with pytest.raises(CapExceeded, match="budget"):
        select_t(4, 0.5, n_budget=10)


def test_verify_theorem3_quick():
    cfg = LowerBoundConfig(k=1, epsilon=0.5, t=2, n=64, seed=3, trials=400)
    report = verify_theorem3(cfg)
    assert report.passed
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
    with pytest.raises(ValueError):
        verify_theorem3(cfg, variant="both")


def test_verify_theorem3_makes_one_estimator_call(monkeypatch):
    calls = []
    real = lowerbound.mc_rademacher_columns

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lowerbound, "mc_rademacher_columns", counting)
    verify_theorem3(LowerBoundConfig(k=3, epsilon=0.5, t=1, seed=2, trials=64))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "variant, lhs_col, rhs_col, scale",
    [("sum", COL_MARGIN, COL_SUM, 1.0), ("union", COL_UNION_MARGIN, COL_UNION, 3.0)],
    ids=["sum", "union"],
)
def test_verify_theorem3_reads_both_sides_off_one_stream(variant, lhs_col, rhs_col, scale):
    # the sample comes from (seed, 0, 0) and the signs of both sides from (seed, 0, 2)
    k, t, n, seed, trials = 3, 2, 192, 11, 200
    report = verify_theorem3(
        LowerBoundConfig(k=k, epsilon=0.5, t=t, seed=seed, trials=trials), variant
    )
    ds = generate(
        GeneratorSpec(kind="uniform_interval", k=k, n=n, seed=derive_seed(seed, 0, 0))
    )
    ests = rademacher.mc_rademacher_columns(
        Theorem3SupOracle(ds.points, k, t), trials, derive_seed(seed, 0, 2)
    )
    assert (report.lhs, report.lhs_std_error) == (ests[lhs_col].value, ests[lhs_col].std_error)
    assert (report.rhs, report.rhs_std_error) == (
        scale * ests[rhs_col].value,
        scale * ests[rhs_col].std_error,
    )


@pytest.mark.parametrize("k, t", [(2, 2), (4, 4), (8, 8), (2, 4), (16, 4)])
@pytest.mark.parametrize(
    "lhs_col, rhs_col", [(COL_MARGIN, COL_SUM), (COL_UNION_MARGIN, COL_UNION)], ids=["sum", "union"]
)
def test_both_sides_are_positively_correlated_on_one_stream(k, t, lhs_col, rhs_col):
    # The shapes of acceptance gates 4 (auto t at seed 0) and 5 (the t = 4
    # sweep).  On common draws the independence formula for the combined
    # standard error then overstates the error of lhs - (1 - eps) rhs.
    n = 16 * k * t * t
    ds = generate(GeneratorSpec(kind="uniform_interval", k=k, n=n, seed=k))
    cols = Theorem3SupOracle(ds.points, k, t).query_block(trial_sign_block(t, 0, 256, n))
    assert np.cov(cols[:, lhs_col], cols[:, rhs_col])[0, 1] > 0.0


def test_report_json_keys():
    cfg = LowerBoundConfig(k=1, epsilon=0.5, t=1, n=16, seed=0, trials=64)
    payload = verify_theorem3(cfg).to_json_dict()
    assert set(payload) == {"k", "t", "n", "epsilon", "lhs", "rhs", "ratio", "std_errors", "pass"}
    assert set(payload["std_errors"]) == {"lhs", "rhs"}
    assert isinstance(payload["pass"], bool)


def test_report_ratio_is_none_when_rhs_is_zero():
    # at t = 0 on two points, seed 0's two draws give the interval a zero sign sum
    report = verify_theorem3(LowerBoundConfig(k=1, epsilon=0.5, t=0, n=2, seed=0, trials=2))
    assert report.rhs == 0.0
    assert report.ratio is None
    assert json.loads(json.dumps(report.to_json_dict(), allow_nan=False))["ratio"] is None


def test_config_numpy_integers_become_ints():
    cfg = LowerBoundConfig(
        k=np.int64(2), epsilon=0.5, t=np.int64(1), n=np.int32(32), seed=np.uint64(3),
        trials=np.int64(64),
    )
    assert all(type(getattr(cfg, f)) is int for f in ("k", "t", "n", "seed", "trials"))
    report = verify_theorem3(cfg)
    assert all(type(v) is int for v in (report.k, report.t, report.n))
    json.dumps(report.to_json_dict())
    auto_t = verify_theorem3(LowerBoundConfig(k=np.int64(1), epsilon=0.5, trials=8))
    json.dumps(auto_t.to_json_dict())


def test_sweep_theorem3_small():
    reports, summary = sweep_theorem3([1, 2], t=1, trials=256, seed=2)
    assert len(reports) == 2
    assert summary["pass"]
    assert summary["t"] == 1
    assert summary["points_per_interval"] == 16
    assert len(summary["aggregate_doubling_ratios"]) == 1
    assert summary["slope_aggregate_vs_k"] > 0.0


def test_sweep_theorem3_validation():
    with pytest.raises(ValueError):
        sweep_theorem3([], t=1)
    # n = 16kt^2 is zero at t = 0, and a sweep takes no explicit n
    with pytest.raises(ValueError, match="t = 0"):
        sweep_theorem3([2, 4], t=0)
    with pytest.raises(ValueError, match="variant"):
        sweep_theorem3([2], t=1, variant="product")
    # a repeated k would fit the slope through fewer distinct k than rows
    with pytest.raises(ValueError, match="distinct"):
        sweep_theorem3([2, 2], t=1, trials=16)


@pytest.mark.parametrize("variant", ["sum", "union"])
def test_sweep_theorem3_is_verify_theorem3_per_k(variant):
    # one run path: row k is the single run at n = 16kt^2 under the seed derived from (seed, k)
    reports, summary = sweep_theorem3([2, 4, 8], t=2, trials=64, seed=5, variant=variant)
    want = [
        verify_theorem3(
            LowerBoundConfig(k=k, epsilon=0.5, t=2, seed=derive_seed(5, k), trials=64),
            variant,
        )
        for k in (2, 4, 8)
    ]
    assert reports == want
    assert [r.n for r in reports] == [16 * k * 2 * 2 for k in (2, 4, 8)]
    assert summary["points_per_interval"] == 64
    assert summary["pass"] == all(r.passed for r in want)


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
    opt, sums = _interval_optima(block, inside, t)
    assert opt.shape == sums.shape == (trials, len(lengths))
    assert opt.dtype == sums.dtype == np.int64
    for r in range(trials):
        for j, idx in enumerate(inside):
            assert opt[r, j] == brute_force_interval_sup(block[r, idx], t)
    # the never-maxed DP row is each interval's sign sum (0 when empty)
    want = [block[:, idx].sum(axis=1, dtype=np.int64) for idx in inside]
    assert np.array_equal(sums, np.stack(want, axis=1))
    # the pattern set is closed under s -> -s
    neg_opt, neg_sums = _interval_optima(-block, inside, t)
    assert np.array_equal(neg_opt, opt) and np.array_equal(neg_sums, -sums)


@pytest.mark.parametrize("m", [(1 << 15) - 1, 1 << 15])
def test_interval_optima_long_interval_does_not_wrap(m):
    # m >= 2^15 switches the DP state to int32; an int16 state would wrap at
    # m = 2^15, in the optimum and in the sign sum alike
    for sign in (1, -1):
        block = np.full((1, m), sign, dtype=np.int8)
        opt, sums = _interval_optima(block, [np.arange(m), np.arange(0)], 0)
        assert opt.tolist() == [[m, 0]]
        assert sums.tolist() == [[sign * m, 0]]


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
    cols = Theorem3SupOracle(ds.points, k, t).query_block(block)
    diff = cols[:, COL_MARGIN] - cols[:, COL_SUM]
    eps = block.astype(np.int64)
    want = (k - 2) * eps.sum(axis=1) + 2 * eps[:, boundary].sum(axis=1)
    assert np.array_equal(np.rint(n * diff).astype(np.int64), want)
    assert np.any(eps[:, boundary].sum(axis=1) != 0)


# Recorded float.hex of (lhs, rhs, lhs_std_error, rhs_std_error): the
# verifier's outputs are pinned bit for bit.  Both sides come from one sign
# stream; at k = 2 without boundary points the two sum-variant columns
# agree on every draw, so the third case has lhs = rhs.
GOLDEN_THEOREM3 = [
    (
        dict(k=3, epsilon=0.5, t=2, n=200, seed=4, trials=300),
        "sum",
        ("0x1.3b900aec33e20p-2", "0x1.3d4daffdd0c27p-2",
         "0x1.39d774278efd1p-8", "0x1.1ee812125447cp-7"),
    ),
    (
        dict(k=3, epsilon=0.5, t=1, n=64, seed=6, trials=256),
        "union",
        ("0x1.27b0000000000p-1", "0x1.2c90000000000p-1",
         "0x1.15f50ea074938p-7", "0x1.18a8398b5bb1bp-6"),
    ),
    (
        dict(k=2, epsilon=0.5, t=0, n=40, seed=8, trials=256, convention="signed"),
        "sum",
        ("0x1.4733333333333p-3", "0x1.4733333333333p-3",
         "0x1.58814eaa75fc0p-7", "0x1.58814eaa75fc0p-7"),
    ),
]


@pytest.mark.parametrize("kwargs, variant, want", GOLDEN_THEOREM3)
def test_verify_theorem3_golden_bits(kwargs, variant, want):
    r = verify_theorem3(LowerBoundConfig(**kwargs), variant=variant)
    got = tuple(float.hex(v) for v in (r.lhs, r.rhs, r.lhs_std_error, r.rhs_std_error))
    assert got == want


@pytest.mark.parametrize(
    "column",
    [
        lambda out: out[:, COL_MARGIN],
        lambda out: out[:, COL_UNION_MARGIN],
        lambda out: out[:, COL_SUM],
        lambda out: out[:, COL_UNION],
        lambda out: out[:, COL_RESTRICTED:],
    ],
)
def test_oracle_block_memory_stays_near_the_int8_block(column):
    # An int64 copy of the block alone is 8x its int8 size; the engine folds
    # the int8 signs as they are and keeps a small int16 state, and the
    # columns are (trials, 4 + k) floats.  Each case reads one column group
    # of the query, as each Theorem-3 supremum is read off it.
    k, t = 4, 4
    ds = generate(GeneratorSpec(kind="uniform_interval", k=k, n=16 * k * t * t, seed=2))
    oracle = Theorem3SupOracle(ds.points, k, t)
    block = trial_sign_block(7, 0, 64, ds.n)
    tracemalloc.start()
    try:
        column(oracle.query_block(block))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * block.nbytes
