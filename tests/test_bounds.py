"""Grid-minimized and fixed-threshold margin bounds plus order-term tables."""
import math

import pytest

from mbl.bounds import (
    METHODS,
    BoundInput,
    compare_bounds,
    default_delta_grid,
    table1_term,
    theorem1_bound,
    theorem2_bound,
)


def _zero_cdf(_delta):
    return 0.0


def _step_cdf(delta):
    return 0.0 if delta <= 0.5 else 1.0


def test_thm1_trivial_inputs():
    inp = BoundInput(k=2, n=100, confidence_t=1.0, rad_value=0.0, margin_cdf=_zero_cdf)
    report = theorem1_bound(inp, delta_grid=[1.0])
    assert report.method == "thm1"
    assert report.value == 0.1
    assert report.delta_star == 1.0
    assert report.terms["loglog"] == 0.0


def test_thm1_worked_value():
    inp = BoundInput(k=3, n=400, confidence_t=1.0, rad_value=0.01, margin_cdf=_step_cdf)
    report = theorem1_bound(inp)
    assert report.delta_star == 0.5
    assert report.value == pytest.approx(0.33163, abs=1e-4)
    assert report.value == 0.33162773055788486
    # forcing the single-point grid reproduces the same evaluation
    assert theorem1_bound(inp, delta_grid=[0.5]).value == report.value


def test_default_delta_grid():
    assert default_delta_grid(1) == [1.0]
    assert default_delta_grid(2) == [0.5, 1.0]
    grid = default_delta_grid(100)
    assert grid == [2.0 ** -j for j in range(7, 0, -1)] + [1.0]
    assert grid == sorted(grid)
    with pytest.raises(ValueError):
        default_delta_grid(0)


def test_thm1_tie_prefers_smallest_delta():
    # Craft the cdf so both grid points produce the same term multiset
    # {0, 0, l, c}; fsum then yields bitwise-equal values and the tie rule
    # must pick 0.5.
    loglog_half = math.sqrt(math.log(math.log2(4.0)) / 4.0)

    def cdf(delta):
        return loglog_half if delta == 1.0 else 0.0

    inp = BoundInput(k=2, n=4, confidence_t=1.0, rad_value=0.0, margin_cdf=cdf)
    report = theorem1_bound(inp, delta_grid=[0.5, 1.0])
    assert report.delta_star == 0.5


def test_thm1_grid_refinement_never_hurts():
    inp = BoundInput(k=4, n=256, confidence_t=1.0, rad_value=0.02, margin_cdf=_step_cdf)
    coarse = [0.25, 1.0]
    fine = coarse + [0.125, 0.375, 0.5, 0.75]
    assert theorem1_bound(inp, fine).value <= theorem1_bound(inp, coarse).value


def test_thm1_doubling_k_doubles_complexity_term():
    lo = BoundInput(k=2, n=100, confidence_t=1.0, rad_value=0.03, margin_cdf=_zero_cdf)
    hi = BoundInput(k=4, n=100, confidence_t=1.0, rad_value=0.03, margin_cdf=_zero_cdf)
    t_lo = theorem1_bound(lo, [0.5]).terms["complexity"]
    t_hi = theorem1_bound(hi, [0.5]).terms["complexity"]
    assert t_hi == 2.0 * t_lo


def test_thm1_monotonicity():
    grid = [0.25, 0.5, 1.0]

    def value(k=2, n=100, rad=0.01):
        inp = BoundInput(k=k, n=n, confidence_t=1.0, rad_value=rad, margin_cdf=_step_cdf)
        return theorem1_bound(inp, grid).value

    assert value(k=2) <= value(k=3) <= value(k=8)
    assert value(rad=0.0) <= value(rad=0.01) <= value(rad=0.5)
    assert value(n=10000) <= value(n=400) <= value(n=100)


def test_thm1_grid_validation():
    inp = BoundInput(k=2, n=16, confidence_t=1.0, rad_value=0.0, margin_cdf=_zero_cdf)
    with pytest.raises(ValueError):
        theorem1_bound(inp, [])
    with pytest.raises(ValueError):
        theorem1_bound(inp, [0.0, 0.5])
    with pytest.raises(ValueError):
        theorem1_bound(inp, [0.5, 1.5])


def test_thm1_terms_sum_to_value():
    inp = BoundInput(k=3, n=400, confidence_t=1.0, rad_value=0.01, margin_cdf=_step_cdf)
    report = theorem1_bound(inp)
    assert math.fsum(report.terms.values()) == pytest.approx(report.value, abs=1e-12)
    assert set(report.terms) == {"empirical", "complexity", "loglog", "confidence"}


def test_bound_input_validation():
    with pytest.raises(ValueError):
        BoundInput(k=1, n=10, confidence_t=1.0, rad_value=0.0, margin_cdf=_zero_cdf)
    with pytest.raises(ValueError):
        BoundInput(k=2, n=0, confidence_t=1.0, rad_value=0.0, margin_cdf=_zero_cdf)
    with pytest.raises(ValueError):
        BoundInput(k=2, n=10, confidence_t=0.0, rad_value=0.0, margin_cdf=_zero_cdf)
    with pytest.raises(ValueError):
        BoundInput(k=2, n=10, confidence_t=1.0, rad_value=-0.1, margin_cdf=_zero_cdf)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            BoundInput(k=2, n=10, confidence_t=bad, rad_value=0.0, margin_cdf=_zero_cdf)
        with pytest.raises(ValueError):
            BoundInput(k=2, n=10, confidence_t=1.0, rad_value=bad, margin_cdf=_zero_cdf)


def test_thm2_worked_value():
    report = theorem2_bound(
        margin_frac=0.0, radius=1.0, lambda_cap=1.0, k=2, n=10000, delta=0.5, confidence_t=1.0
    )
    assert report.method == "thm2"
    assert report.value == 0.09
    assert report.delta_star == 0.5
    assert report.terms == {"empirical": 0.0, "complexity": 0.08, "confidence": 0.01}


def test_thm2_zero_cap_reduces_to_margin_and_confidence():
    report = theorem2_bound(0.25, 1.0, 0.0, 3, 400, 0.5, 1.0)
    assert report.terms["complexity"] == 0.0
    assert report.value == math.fsum((0.25, 1.0 / 20.0))


def test_thm2_doubling_k_doubles_complexity_term():
    lo = theorem2_bound(0.0, 1.0, 1.0, 2, 100, 0.5, 1.0).terms["complexity"]
    hi = theorem2_bound(0.0, 1.0, 1.0, 4, 100, 0.5, 1.0).terms["complexity"]
    assert hi == 2.0 * lo


def test_thm1_rejects_a_sum_that_overflows():
    # every term is finite, but their sum leaves the float range
    big = BoundInput(k=2, n=1, confidence_t=1e308, rad_value=1e308 / 8, margin_cdf=_zero_cdf)
    with pytest.raises(ValueError, match="not finite"):
        theorem1_bound(big, delta_grid=[1.0])


def test_thm2_validation():
    good = dict(margin_frac=0.0, radius=1.0, lambda_cap=1.0, k=2, n=100, delta=0.5, confidence_t=1.0)
    for bad in (
        dict(delta=0.0),
        dict(delta=1.5),
        dict(margin_frac=-0.1),
        dict(margin_frac=1.1),
        dict(radius=-1.0),
        dict(lambda_cap=-1.0),
        dict(k=1),
        dict(n=0),
        dict(confidence_t=0.0),
        dict(confidence_t=math.inf),
        dict(radius=math.nan),
        dict(radius=math.inf),
        dict(lambda_cap=math.nan),
        dict(lambda_cap=math.inf),
        dict(delta=math.nan),
        dict(radius=1e200, lambda_cap=1e200),  # R^2 lam^2 overflows
        dict(radius=1e77, lambda_cap=1e77, n=1, delta=1e-300),  # (2k/delta) * 1e154 overflows
    ):
        with pytest.raises(ValueError):
            theorem2_bound(**{**good, **bad})


def test_table1_worked_values():
    assert table1_term("kp", 10, 10**4, 0.1) == 10.0
    assert table1_term("this_paper", 10, 10**4, 0.1) == 1.0
    assert table1_term("zhang", 4, 10**4, 1.0) == 0.02
    assert table1_term("guermeur", 10, 10**4, 0.1) == pytest.approx(10.0, rel=1e-12)
    assert table1_term("crammer_singer", 10, 10**4, 0.1) == pytest.approx(1.0, rel=1e-12)


def test_table1_validation():
    with pytest.raises(ValueError):
        table1_term("mystery", 2, 100, 0.5)
    with pytest.raises(ValueError):
        table1_term("kp", 1, 100, 0.5)
    with pytest.raises(ValueError):
        table1_term("kp", 2, 0, 0.5)
    with pytest.raises(ValueError):
        table1_term("kp", 2, 100, 0.0)


def test_compare_rows_follow_method_order():
    rows = compare_bounds([2], [100], [0.5, 0.25])
    assert len(rows) == 2 * len(METHODS)
    assert [r["method"] for r in rows[: len(METHODS)]] == list(METHODS)
    assert all(r["ratio_to_this_paper"] == 1.0 for r in rows if r["method"] == "this_paper")


def test_compare_kp_ratio_is_exactly_k():
    rows = compare_bounds([2, 4, 8, 16], [100, 10**4, 10**6], [0.5, 0.25, 0.1])
    kp = [r for r in rows if r["method"] == "kp"]
    assert len(kp) == 4 * 3 * 3
    for row in kp:
        assert row["ratio_to_this_paper"] == float(row["k"])
    spot = compare_bounds([10], [10**4], [0.1])
    assert [r["ratio_to_this_paper"] for r in spot if r["method"] == "kp"] == [10.0]


def test_compare_sample_size_scaling():
    # quadrupling n halves the kp term but quarters the crammer_singer term
    assert table1_term("kp", 4, 100, 0.25) / table1_term("kp", 4, 400, 0.25) == 2.0
    cs = table1_term("crammer_singer", 4, 100, 0.25)
    assert cs / table1_term("crammer_singer", 4, 400, 0.25) == 4.0


def test_compare_rejects_empty_grid():
    with pytest.raises(ValueError):
        compare_bounds([], [100], [0.5])
    with pytest.raises(ValueError):
        compare_bounds([2], [], [0.5])
    with pytest.raises(ValueError):
        compare_bounds([2], [100], [])
