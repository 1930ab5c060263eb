"""Kernel grammar, Gram construction, PSD checks, and the norm-ball oracle."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mbl.core import GRAM_CELL_CAP, CapExceeded
from mbl.kernel import (
    KernelSpec,
    KernelSupOracle,
    _symmetrize,
    check_psd,
    gram,
    kernel_mc_rademacher,
    kernel_rad_bounds,
    kernel_trace,
    parse_kernel_spec,
    trace_complexity,
    worst_case_complexity,
)
from mbl.rademacher import (
    _PRODUCT_CELLS,
    TabulatedSupOracle,
    enumerate_sign_vectors,
    exact_empirical_rademacher,
    mc_empirical_rademacher,
    trial_sign_block,
)
from mbl.core import TabulatedClass
from mbl.synth import GeneratorSpec, generate


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def test_parse_linear():
    spec = parse_kernel_spec("linear")
    assert spec.kind == "linear"


def test_parse_rbf_and_poly():
    spec = parse_kernel_spec("rbf:gamma=0.5")
    assert spec.kind == "rbf"
    assert spec.gamma == 0.5
    spec = parse_kernel_spec("poly:degree=3")
    assert spec.kind == "poly"
    assert spec.degree == 3
    assert spec.coef == 1.0
    spec = parse_kernel_spec("poly:degree=2,coef=0.25")
    assert spec.degree == 2
    assert spec.coef == 0.25


@pytest.mark.parametrize(
    "text",
    [
        "linear:gamma=1",
        "rbf",
        "rbf:gamma=1,gamma=2",
        "rbf:sigma=1",
        "rbf:gamma",
        "poly:coef=1",
        "poly:degree=2,slope=1",
        "cosine",
        "",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_kernel_spec(text)


def test_label_round_trips_through_parse():
    for text in ("linear", "rbf:gamma=0.125", "poly:degree=4,coef=2.5"):
        spec = parse_kernel_spec(text)
        assert parse_kernel_spec(spec.label()) == spec


def test_kernel_spec_validation():
    # Every accepted spec must be PSD: rbf needs a finite gamma > 0 and poly
    # a finite coef >= 0 (coef < 0 gives an indefinite Gram).
    for bad in (
        dict(kind="laplace"),
        dict(kind="rbf", gamma=0.0),
        dict(kind="rbf", gamma=-1.0),
        dict(kind="rbf", gamma=math.inf),
        dict(kind="rbf", gamma=math.nan),
        dict(kind="poly", degree=0),
        dict(kind="poly", degree=1, coef=-5.0),
        dict(kind="poly", degree=2, coef=math.inf),
        dict(kind="poly", degree=2, coef=math.nan),
    ):
        with pytest.raises(ValueError):
            KernelSpec(**bad)
    assert KernelSpec(kind="poly", degree=3, coef=0.0).coef == 0.0


def test_gram_linear_orthonormal_is_identity():
    g = gram(KernelSpec(kind="linear"), [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(g, np.eye(2))


def test_gram_rbf_diagonal_is_one():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(7, 3))
    g = gram(KernelSpec(kind="rbf", gamma=0.7), pts)
    assert np.array_equal(np.diag(g), np.ones(7))
    assert g[0, 1] == pytest.approx(
        math.exp(-0.7 * float(((pts[0] - pts[1]) ** 2).sum())), rel=1e-12
    )


def test_gram_rbf_near_duplicates_stay_at_most_one():
    # ||x||^2 + ||y||^2 - 2 x.y cancels for near-equal points and can round
    # below 0; clamping keeps every entry in [0, 1].
    rng = np.random.default_rng(3)
    base = rng.normal(size=(1, 3)) * 10.0
    pts = base * (1.0 + 1e-16 * rng.integers(-4, 5, size=(40, 1)))
    g = gram(KernelSpec(kind="rbf", gamma=1.0), pts)
    assert g.max() <= 1.0
    assert g.min() >= 0.0


def test_gram_poly_example():
    g = gram(KernelSpec(kind="poly", degree=2, coef=1.0), [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(g, np.array([[4.0, 1.0], [1.0, 4.0]]))


def test_gram_exactly_symmetric():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(13, 4))
    for spec in (
        KernelSpec(kind="linear"),
        KernelSpec(kind="rbf", gamma=0.3),
        KernelSpec(kind="poly", degree=3, coef=0.5),
    ):
        g = gram(spec, pts)
        assert np.array_equal(g, g.T)


def test_gram_accepts_1d_points():
    g = gram(KernelSpec(kind="linear"), [1.0, 2.0])
    assert np.array_equal(g, np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_gram_rejects_non_finite():
    with pytest.raises(ValueError):
        gram(KernelSpec(kind="linear"), [[1.0], [math.inf]])
    with pytest.raises(ValueError, match="non-finite"):
        gram(KernelSpec(kind="poly", degree=400), [[3.0], [0.5]])


def test_gram_rejects_entries_that_overflow_when_symmetrized():
    # Every entry is finite (1.2e308 < DBL_MAX), but g + g.T overflows.
    pts = [[1e154], [1.2e154]]
    assert np.isfinite(np.asarray(pts) @ np.asarray(pts).T).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            gram(KernelSpec(kind="linear"), pts)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
def test_tiled_symmetrization_is_the_whole_matrix_mean_bit_for_bit(n):
    g = np.random.default_rng(n).normal(size=(n, n)) * 1e3
    want = (g + g.T) / 2.0
    _symmetrize(g)
    assert np.array_equal(_bits(g), _bits(want))


def test_tiled_symmetrization_overflows_like_the_whole_matrix_mean():
    g = np.full((130, 130), 1.0)
    g[0, 129] = g[129, 0] = 1.2e308  # the pair sum overflows
    g[5, 7], g[7, 5] = 1.2e308, -1.2e308  # the pair sum cancels exactly
    with np.errstate(over="ignore"):
        want = (g + g.T) / 2.0
        _symmetrize(g)
    assert np.array_equal(_bits(g), _bits(want))
    assert g[0, 129] == g[129, 0] == math.inf and g[5, 7] == 0.0


@pytest.mark.parametrize(
    "spec",
    [KernelSpec(kind="linear"), KernelSpec(kind="rbf", gamma=0.5),
     KernelSpec(kind="poly", degree=2, coef=1.0), KernelSpec(kind="poly", degree=3, coef=0.5)],
    ids=lambda spec: spec.label(),
)
def test_gram_matches_the_whole_matrix_formulas_bit_for_bit(spec):
    pts = np.random.default_rng(4).normal(size=(300, 3))
    dots = pts @ pts.T
    if spec.kind == "rbf":
        sq = np.einsum("id,id->i", pts, pts)
        dist = np.maximum(np.add.outer(sq, sq) - 2.0 * dots, 0.0)
        np.fill_diagonal(dist, 0.0)
        raw = np.exp(-spec.gamma * dist)
    elif spec.kind == "poly":
        raw = (dots + spec.coef) ** spec.degree
    else:
        raw = dots
    assert np.array_equal(_bits(gram(spec, pts)), _bits((raw + raw.T) / 2.0))


def test_gram_over_the_cell_cap_raises_before_allocating():
    n = 10_001
    assert n * n > GRAM_CELL_CAP >= 4000 * 4000
    pts = np.linspace(0.0, 1.0, n)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="cap"):
            gram(KernelSpec(kind="linear"), pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * pts.nbytes


_POINTS = st.integers(1, 12).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda d: arrays(np.float64, (n, d), elements=st.floats(-10.0, 10.0))
    )
)


@settings(max_examples=200, deadline=None)
@given(
    pts=_POINTS,
    gamma=st.floats(1e-3, 1.0),
    degree=st.integers(1, 4),
    coef=st.floats(0.0, 3.0),
)
def test_kernel_trace_is_gram_trace(pts, gamma, degree, coef):
    rbf = KernelSpec(kind="rbf", gamma=gamma)
    g = gram(rbf, pts)
    assert kernel_trace(rbf, pts) == np.trace(g) == pts.shape[0]
    # The squared-norm expansion against the difference-tensor formula.
    diff = pts[:, None, :] - pts[None, :, :]
    ref = np.exp(-gamma * np.einsum("ijd,ijd->ij", diff, diff))
    assert np.allclose(g, ref, rtol=0.0, atol=1e-12)
    for spec in (KernelSpec(kind="linear"), KernelSpec(kind="poly", degree=degree, coef=coef)):
        tr = np.trace(gram(spec, pts))
        assert kernel_trace(spec, pts) == pytest.approx(tr, rel=1e-12, abs=1e-300)


def test_kernel_trace_values_and_errors():
    pts = [[1.0, 2.0], [0.0, -3.0], [0.5, 0.5]]
    assert kernel_trace(KernelSpec(kind="rbf", gamma=2.0), pts) == 3.0
    assert kernel_trace(KernelSpec(kind="linear"), pts) == 14.5
    assert kernel_trace(KernelSpec(kind="poly", degree=2, coef=1.0), pts) == 36.0 + 100.0 + 2.25
    with pytest.raises(ValueError, match="non-finite"):
        kernel_trace(KernelSpec(kind="poly", degree=400), pts)
    with pytest.raises(ValueError, match="non-finite"):
        kernel_trace(KernelSpec(kind="linear"), [[1.0], [math.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        kernel_trace(KernelSpec(kind="linear"), [[1e200], [1e200]])


def test_check_psd_returns_min_eigenvalue():
    assert check_psd(np.eye(3)) == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    v = rng.normal(size=6)
    assert check_psd(np.outer(v, v)) >= -1e-8 * float(v @ v)


def test_check_psd_rejects_indefinite():
    with pytest.raises(ValueError):
        check_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        check_psd(np.ones((2, 3)))


def test_non_symmetric_gram_is_rejected():
    # Lower triangle PSD (all eigvalsh reads), but the symmetric part
    # [[1, 2], [2, 1]] has eigenvalue -1: eps^T G eps = -2 at eps = (1, -1).
    g = np.array([[1.0, 3.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="not exactly symmetric"):
        check_psd(g)
    with pytest.raises(ValueError, match="not exactly symmetric"):
        KernelSupOracle(g, lambda_cap=1.0)
    with pytest.raises(ValueError, match="not exactly symmetric"):
        kernel_rad_bounds(g, lambda_cap=1.0)
    # One ulp off symmetry is enough.
    g = np.eye(3)
    g[0, 2] = np.nextafter(0.0, 1.0)
    with pytest.raises(ValueError, match="not exactly symmetric"):
        check_psd(g)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_gram_is_rejected(bad):
    # eigvalsh turns a NaN or inf entry into NaN eigenvalues, which pass an
    # ordered comparison against the tolerance.
    g = np.array([[1.0, bad], [bad, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        check_psd(g)
    with pytest.raises(ValueError, match="non-finite"):
        KernelSupOracle(g, lambda_cap=1.0)
    with pytest.raises(ValueError, match="non-finite"):
        kernel_rad_bounds(g, lambda_cap=1.0)


def query_one(oracle, signs):
    """The oracle's supremum for one sign vector, as a one-row block."""
    (value,) = oracle.query_block(np.asarray([signs], dtype=np.int8))
    return value


def test_oracle_identity_gram():
    oracle = KernelSupOracle(np.eye(2), lambda_cap=1.0)
    assert query_one(oracle, [1, -1]) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)


def test_oracle_balanced_signs_on_constant_kernel():
    # Rank-one all-ones Gram: eps^T G eps = (sum eps)^2, zero when balanced.
    oracle = KernelSupOracle(np.ones((4, 4)), lambda_cap=3.0)
    assert query_one(oracle, [1, -1, 1, -1]) == 0.0


def test_oracle_scales_linearly_in_lambda():
    rng = np.random.default_rng(9)
    v = rng.normal(size=5)
    g = np.outer(v, v)
    signs = [1, 1, -1, 1, -1]
    one = query_one(KernelSupOracle(g, lambda_cap=1.0), signs)
    two = query_one(KernelSupOracle(g, lambda_cap=2.0), signs)
    assert two == 2.0 * one


def test_oracle_validation():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            KernelSupOracle(np.eye(2), lambda_cap=bad)
    oracle = KernelSupOracle(np.eye(2), lambda_cap=0.0)
    assert query_one(oracle, [1, 1]) == 0.0
    with pytest.raises(ValueError):
        query_one(oracle, [1, 1, 1])


def test_oracle_block_matches_scalar_queries():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(6, 2))
    g = gram(KernelSpec(kind="rbf", gamma=0.4), pts)
    oracle = KernelSupOracle(g, lambda_cap=1.7)
    block = np.asarray(
        [[1, -1, 1, 1, -1, -1], [-1, -1, -1, 1, 1, 1]], dtype=np.int8
    )
    out = oracle.query_block(block)
    for row, got in zip(block, out):
        s = row.astype(np.float64)
        want = 1.7 / 6 * math.sqrt(max(float(s @ g @ s), 0.0))
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(query_one(oracle, row), rel=1e-13)


def _einsum_oracle(g, lam, block):
    """The norm-ball oracle as one whole-block einsum, without sub-blocks."""
    s = block.astype(np.float64)
    quad = np.einsum("ti,ij,tj->t", s, g, s, optimize=True)
    return lam / g.shape[0] * np.sqrt(np.maximum(quad, 0.0))


def _row_dot_oracle(g, lam, block):
    """The norm-ball oracle as one whole-block s @ g and row dot, without sub-blocks."""
    s = block.astype(np.float64)
    quad = np.einsum("tj,tj->t", s @ g, s)
    return lam / g.shape[0] * np.sqrt(np.maximum(quad, 0.0))


def test_oracle_sub_blocks_match_the_whole_block_einsum():
    n, lam = 300, 1.7
    step = _PRODUCT_CELLS // (2 * n)  # the oracle's sub-block rows
    rng = np.random.default_rng(12)
    g = gram(KernelSpec(kind="rbf", gamma=0.5), rng.normal(size=(n, 3)))
    oracle = KernelSupOracle(g, lam)
    block = rng.choice(np.array([-1, 1], dtype=np.int8), size=(3 * step + 5, n))
    out = oracle.query_block(block)
    # A block of at most one sub-block is the whole-block row-dot form itself.
    first = block[:step]
    assert np.array_equal(_bits(oracle.query_block(first)), _bits(_row_dot_oracle(g, lam, first)))
    # Each sub-block is computed as that block on its own ...
    parts = [oracle.query_block(block[lo : lo + step]) for lo in range(0, len(block), step)]
    assert np.array_equal(_bits(out), _bits(np.concatenate(parts)))
    # ... so against one einsum over all rows only BLAS's summation order
    # moves (it depends on the product's shape): within the rounding bound
    # of a 2n-term sum per row, as for a one-row block (test_core).
    whole = _einsum_oracle(g, lam, block)
    quad_scale = (lam / n) ** 2 * np.abs(g).sum()
    bound = 4 * (n + 1) * np.spacing(quad_scale) + 8 * np.spacing(np.maximum(out, whole) ** 2)
    assert np.all(np.abs(out**2 - whole**2) <= bound)


def test_kernel_mc_float_working_set_is_block_sized():
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=4, n=300, seed=3, d=3))
    oracle = KernelSupOracle(gram(KernelSpec(kind="rbf", gamma=0.5), ds.points), 1.0)
    tracemalloc.start()
    try:
        est = kernel_mc_rademacher(oracle, 100_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.trials == 100_000
    # A 2 MiB int8 sign batch, 2 MiB float64 sub-blocks and their product.
    assert peak <= 8 * 2**20


def test_rad_bounds_unit_diagonal():
    dd, worst = kernel_rad_bounds(np.eye(100), lambda_cap=1.0)
    assert dd == pytest.approx(0.1, rel=1e-15)
    assert worst(1.0) == pytest.approx(0.1, rel=1e-15)


def test_rad_bounds_zero_cap():
    dd, worst = kernel_rad_bounds(np.eye(4), lambda_cap=0.0)
    assert dd == 0.0
    assert worst(5.0) == 0.0


def test_worst_case_complexity_bits_and_overflow():
    rng = np.random.default_rng(8)
    for radius, lam, n in zip(rng.uniform(0, 10, 50), rng.uniform(0, 10, 50), range(1, 51)):
        want = math.sqrt(radius * radius * lam * lam / n)
        assert worst_case_complexity(radius, lam, n) == want
        assert kernel_rad_bounds(np.eye(n), lam)[1](radius) == want
    for radius, lam in ((1e200, 1e200), (math.nan, 1.0), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="not finite"):
            worst_case_complexity(radius, lam, 10)


def test_negative_or_non_finite_cap_or_radius_is_rejected():
    g = np.eye(20)
    with pytest.raises(ValueError, match="lambda_cap"):
        trace_complexity(20.0, -2.0, 20)
    with pytest.raises(ValueError, match="radius"):
        worst_case_complexity(-1.0, 2.0, 20)
    with pytest.raises(ValueError, match="lambda_cap"):
        worst_case_complexity(1.0, -2.0, 20)
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda_cap"):
            kernel_rad_bounds(g, lam)
        with pytest.raises(ValueError, match="lambda_cap"):
            KernelSupOracle(g, lam)
    with pytest.raises(ValueError, match="radius"):
        kernel_rad_bounds(g, 1.0)[1](-1.0)


def test_rad_bounds_data_dependent_is_trace_complexity():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 2))
    spec = KernelSpec(kind="poly", degree=2, coef=0.5)
    dd, _ = kernel_rad_bounds(gram(spec, pts), 1.25)
    assert dd == trace_complexity(float(np.trace(gram(spec, pts))), 1.25, 30)
    assert dd == pytest.approx(trace_complexity(kernel_trace(spec, pts), 1.25, 30), rel=1e-12)


def test_jensen_chain_exact():
    # exact <= data_dependent <= worst_case(R) with R^2 = max diagonal entry.
    rng = np.random.default_rng(21)
    for trial in range(20):
        pts = rng.normal(size=(rng.integers(2, 9), rng.integers(1, 4)))
        spec = (
            KernelSpec(kind="rbf", gamma=0.5)
            if trial % 2
            else KernelSpec(kind="linear")
        )
        g = gram(spec, pts)
        lam = float(rng.uniform(0.5, 3.0))
        oracle = KernelSupOracle(g, lam)
        exact = exact_empirical_rademacher(oracle).value
        dd, worst = kernel_rad_bounds(g, lam)
        radius = math.sqrt(float(np.diag(g).max()))
        assert exact <= dd + 1e-12
        assert dd <= worst(radius) + 1e-12


def test_jensen_chain_monte_carlo():
    rng = np.random.default_rng(33)
    pts = rng.normal(size=(40, 3))
    g = gram(KernelSpec(kind="rbf", gamma=0.2), pts)
    oracle = KernelSupOracle(g, 1.5)
    est = mc_empirical_rademacher(oracle, trials=4000, seed=8)
    dd, worst = kernel_rad_bounds(g, 1.5)
    assert est.value <= dd + 4.0 * est.std_error
    assert dd <= worst(1.0) + 1e-12


def test_grid_class_approaches_kernel_oracle():
    # Discretize the 2-d ball boundary; its tabulated complexity must come
    # from below and converge to the closed form.
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(5, 2))
    lam = 1.5
    angles = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    ws = lam * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    grid_oracle = TabulatedSupOracle(TabulatedClass(ws @ pts.T))
    kern_oracle = KernelSupOracle(gram(KernelSpec(kind="linear"), pts), lam)
    grid_val = exact_empirical_rademacher(grid_oracle).value
    kern_val = exact_empirical_rademacher(kern_oracle).value
    assert grid_val <= kern_val + 1e-12
    assert kern_val - grid_val <= 1e-4


_SPECS = (
    KernelSpec(kind="rbf", gamma=0.5),
    KernelSpec(kind="linear"),
    KernelSpec(kind="poly", degree=2, coef=1.0),
)


def _trace_bound(oracle):
    return trace_complexity(float(np.trace(oracle.g)), oracle.lambda_cap, oracle.n)


class _JensenGap:
    """Each draw's Jensen gap (r - c)^2 / (2c): c minus its mean is the
    fixed-coefficient estimate (b1, b2) = (1/2, 0)."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.n = oracle.n
        self.c = _trace_bound(oracle)

    def query_block(self, signs_block):
        return (self.oracle.query_block(signs_block) - self.c) ** 2 / (2.0 * self.c)


@pytest.mark.parametrize("spec", _SPECS, ids=KernelSpec.label)
def test_kernel_conventions_coincide_bitwise(spec):
    # eps^T G eps is even in eps, so the suprema at eps and -eps agree bit
    # for bit and the absolute convention is the signed one: the CLI
    # estimates kernel classes once and only echoes --convention.
    rng = np.random.default_rng(5)
    for n, block in ((300, trial_sign_block(3, 0, 2000, 300)), (12, enumerate_sign_vectors(12))):
        oracle = KernelSupOracle(gram(spec, rng.normal(size=(n, 2))), 1.3)
        assert oracle.query_block(-block).tobytes() == oracle.query_block(block).tobytes()


@pytest.mark.parametrize("spec", _SPECS, ids=KernelSpec.label)
def test_jensen_gap_exact_identity(spec):
    # Over all 2^n signs the mean of eps^T G eps is trace G, so the trace
    # bound minus the mean gap is the exact complexity.
    rng = np.random.default_rng(17)
    for n in (3, 8, 12):
        oracle = KernelSupOracle(gram(spec, rng.normal(size=(n, 2))), 0.7)
        c = _trace_bound(oracle)
        gap = exact_empirical_rademacher(_JensenGap(oracle)).value
        exact = exact_empirical_rademacher(oracle).value
        assert c - gap == pytest.approx(exact, rel=1e-12)
        est = kernel_mc_rademacher(oracle, 20000, n)
        assert abs(est.value - exact) <= 4.0 * est.std_error


def test_kernel_mc_variance_below_plain_monte_carlo():
    rng = np.random.default_rng(2)
    for g in (gram(KernelSpec(kind="rbf", gamma=0.5), rng.normal(size=(60, 3))), np.ones((60, 60))):
        oracle = KernelSupOracle(g, 1.0)
        for seed in range(3):
            plain = mc_empirical_rademacher(oracle, 4000, seed)
            est = kernel_mc_rademacher(oracle, 4000, seed)
            assert est.std_error <= 0.5 * plain.std_error
            assert abs(est.value - plain.value) <= 4.0 * plain.std_error
            assert (est.method, est.trials, est.seed) == ("monte-carlo", 4000, seed)


def test_kernel_mc_never_above_trace_bound():
    rng = np.random.default_rng(6)
    for seed in range(20):
        spec = _SPECS[seed % len(_SPECS)]
        oracle = KernelSupOracle(gram(spec, rng.normal(size=(30, 2))), 2.0)
        assert kernel_mc_rademacher(oracle, 500, seed).value <= _trace_bound(oracle)


def test_kernel_mc_is_clipped_at_the_trace_bound():
    # A rank-one Gram and five draws: at these seeds mean h lands above c,
    # where E r cannot be (Jensen), and the estimate is c itself.
    pts = np.random.default_rng(0).normal(size=(40, 1))
    oracle = KernelSupOracle(gram(KernelSpec(kind="linear"), pts), 1.0)
    for seed in (32, 70):
        est = kernel_mc_rademacher(oracle, 5, seed)
        assert est.value == _trace_bound(oracle)
        assert est.std_error > 0.0


@pytest.mark.parametrize("g, lam", [(np.eye(7), 0.0), (np.zeros((7, 7)), 1.5)])
def test_kernel_mc_zero_trace_bound(g, lam):
    oracle = KernelSupOracle(g, lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = kernel_mc_rademacher(oracle, 100, 4)
    assert (est.value, est.std_error, est.trials, est.seed) == (0.0, 0.0, 100, 4)
    with pytest.raises(ValueError, match="trials"):
        kernel_mc_rademacher(oracle, 1, 4)
    with pytest.raises(CapExceeded):
        kernel_mc_rademacher(oracle, 10**10, 4)
    with pytest.raises(ValueError, match="seed"):
        kernel_mc_rademacher(oracle, 100, -1)


def _six_grams(n, rng):
    """rbf at three widths, linear, poly(2) and all-ones Grams on n points."""
    pts = rng.normal(size=(n, 3))
    specs = [KernelSpec(kind="rbf", gamma=gamma) for gamma in (0.05, 0.5, 5.0)]
    specs += [KernelSpec(kind="linear"), KernelSpec(kind="poly", degree=2, coef=1.0)]
    return [gram(spec, pts) for spec in specs] + [np.ones((n, n))]


@pytest.mark.parametrize("n", [8, 12])
def test_kernel_mc_agrees_with_exact_enumeration(n):
    rng = np.random.default_rng(n)
    for g in _six_grams(n, rng):
        oracle = KernelSupOracle(g, 1.3)
        exact = exact_empirical_rademacher(oracle).value
        for seed in range(4):
            est = kernel_mc_rademacher(oracle, 3000, seed)
            assert 0.0 < est.std_error
            assert abs(est.value - exact) <= 4.0 * est.std_error
            assert est.value <= _trace_bound(oracle)


@pytest.mark.parametrize("n", [60, 300])
def test_kernel_mc_std_error_at_most_fixed_coefficient(n):
    rng = np.random.default_rng(n)
    for g in _six_grams(n, rng):
        oracle = KernelSupOracle(g, 1.0)
        for seed in range(2):
            fixed = mc_empirical_rademacher(_JensenGap(oracle), 4000, seed)
            est = kernel_mc_rademacher(oracle, 4000, seed)
            assert est.std_error <= fixed.std_error
            combined = math.hypot(est.std_error, fixed.std_error)
            assert abs(est.value - (_trace_bound(oracle) - fixed.value)) <= 4.0 * combined


def test_kernel_mc_variance_at_the_benchmark_shape():
    # blobs k = 4, d = 3, n = 300, rbf gamma = 0.5: the kernel-bound workload's rad sample.
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=4, n=300, seed=5, d=3))
    oracle = KernelSupOracle.from_spec(KernelSpec(kind="rbf", gamma=0.5), ds.points, 1.0)
    for seed in (1, 2):
        fixed = mc_empirical_rademacher(_JensenGap(oracle), 20000, seed)
        est = kernel_mc_rademacher(oracle, 20000, seed)
        assert est.std_error**2 * 10.0 <= fixed.std_error**2


def test_kernel_mc_rerun_is_bitwise_identical():
    rng = np.random.default_rng(3)
    oracle = KernelSupOracle(gram(KernelSpec(kind="rbf", gamma=0.5), rng.normal(size=(40, 3))), 2.0)
    first = kernel_mc_rademacher(oracle, 5000, 9)
    again = kernel_mc_rademacher(oracle, 5000, 9)
    assert _bits([first.value, first.std_error]).tolist() == _bits(
        [again.value, again.std_error]
    ).tolist()
    assert (again.method, again.trials, again.seed) == ("monte-carlo", 5000, 9)


@pytest.mark.parametrize("g", [np.diag([1.0, 2.5, 0.0, 4.0]), np.eye(5) + 1e-20 * (1 - np.eye(5))])
def test_kernel_mc_diagonal_gram_is_the_trace_bound(g):
    # eps^T G eps = trace G on every draw, exactly (V = 0) or after rounding
    # (V = 1.6e-40 > 0, but Q / trace G rounds to 1), so r = c.
    oracle = KernelSupOracle(g, 1.5)
    est = kernel_mc_rademacher(oracle, 100, 4)
    assert (est.value, est.std_error, est.trials) == (_trace_bound(oracle), 0.0, 100)


@pytest.mark.parametrize(
    "g", [np.ones((2, 2)), np.ones((3, 3)), np.array([[1.0, 0.3], [0.3, 2.0]])]
)
def test_kernel_mc_exact_when_r_is_a_function_of_the_first_control(g):
    # |u1| takes one value (n = 2) or u1 two (all-ones, n = 3): u2 is affine
    # in u1 up to rounding, the fit drops it, and h is constant.
    oracle = KernelSupOracle(g, 1.0)
    exact = exact_empirical_rademacher(oracle).value
    for seed in range(3):
        est = kernel_mc_rademacher(oracle, 1000, seed)
        assert abs(est.value - exact) <= 4 * np.spacing(exact)
        assert est.std_error <= 1e-15 * exact


@pytest.mark.parametrize("spec", _SPECS, ids=KernelSpec.label)
def test_from_spec_skips_eigvalsh_and_matches_the_matrix_constructor(spec, monkeypatch):
    pts = np.random.default_rng(8).normal(size=(50, 3))
    want = kernel_mc_rademacher(KernelSupOracle(gram(spec, pts), 1.2), 2000, 3)

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    with pytest.raises(AssertionError, match="eigvalsh"):
        KernelSupOracle(gram(spec, pts), 1.2)
    oracle = KernelSupOracle.from_spec(spec, pts, 1.2)
    assert np.array_equal(_bits(oracle.g), _bits(gram(spec, pts)))
    got = kernel_mc_rademacher(oracle, 2000, 3)
    assert _bits([got.value, got.std_error]).tolist() == _bits(
        [want.value, want.std_error]
    ).tolist()


def test_from_spec_validates_its_inputs():
    with pytest.raises(ValueError, match="lambda_cap"):
        KernelSupOracle.from_spec(KernelSpec(kind="linear"), [[1.0], [2.0]], -1.0)
    with pytest.raises(ValueError, match="non-finite"):
        KernelSupOracle.from_spec(KernelSpec(kind="linear"), [[1.0], [math.nan]], 1.0)


def test_kernel_mc_rejects_a_non_finite_trace_bound():
    # Finite Gram entries (8.1e307) whose trace overflows: without the check
    # c = inf would come back as the estimate.
    oracle = KernelSupOracle.from_spec(KernelSpec(kind="linear"), [[9e153]] * 3, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        kernel_mc_rademacher(oracle, 100, 1)
    # A caller's Gram whose trace overflows: the PSD check sums it without a
    # warning, and trace_complexity is the one place that rejects it.
    g = np.diag([1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle = KernelSupOracle(g, 1.0)
        with pytest.raises(ValueError, match="not finite"):
            kernel_rad_bounds(g, 1.0)
        with pytest.raises(ValueError, match="not finite"):
            kernel_mc_rademacher(oracle, 100, 1)
