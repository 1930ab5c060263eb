"""Kernel specs, Gram matrices, the norm-ball sup oracle and its bounds.

For the Euclidean ball {x -> w . Phi(x) : ||w|| <= lam}, the inner supremum
of the Rademacher definition has the closed form

    sup_{||w|| <= lam} (1/n) sum_i eps_i w . Phi(x_i) = (lam/n) sqrt(eps^T G eps)

(Cauchy-Schwarz with equality at the aligned w), where G is the Gram matrix.
Only the 2-norm ball gets an exact oracle; other aggregations are served
through the worst-case surrogate sqrt(R^2 lam^2 / n) (``worst_case_complexity``).

Monte Carlo for the ball (``kernel_mc_rademacher``): with r = (lam/n)
sqrt(Q), Q = eps^T G eps, Rademacher signs give E Q = trace G and
E (Q - trace G)^2 = V = 2 sum_{i != j} G_ij^2 exactly.  So with the trace
bound c = lam sqrt(trace G)/n, rho = r/c and u1 = rho^2 - 1 = Q/trace G - 1,
both u1 and u2 = u1^2 - V/trace G^2 have mean exactly 0, and each draw's
h = r - c (b1 u1 + b2 u2) is unbiased for E r whatever (b1, b2) are, as
long as they do not depend on the draws averaged.  The coefficients are the
least-squares fit of rho on (u1, u2) over a pilot of 1024 draws from an
independent stream (key derive_seed(seed, 1)), whose moment columns go
through ``mc_rademacher_columns``, so the pilot's sums are exact and its
working set is the estimator's.  The estimate is min(c, mean h), since
Jensen gives E r <= c.  (b1, b2) = (1/2, 0) is the Jensen-gap estimate
c - mean (r - c)^2/(2c).  On the same draws the fitted pair has 20 to 24
times less variance than that one on the benchmark's sample (blobs k = 4,
d = 3, n = 300, rbf gamma 0.5, seeds 1-6; about 2200 to 2900 times less than
plain averaging of r), and 2.4 to 300 times less across rbf with gamma
0.05 to 5, linear, poly and all-ones Grams at n = 12, 60 and 300.  A
diagonal G (V = 0) has r = c on every draw.  r is even in eps, so the
absolute convention gives the signed estimate, bit for bit, and the oracle
takes no convention.

Every KernelSpec is positive semi-definite by construction: linear is a Gram
of inner products, rbf with finite gamma > 0 is a Gaussian kernel, and poly
with finite coef >= 0 is a sum of nonnegative multiples of powers of the
linear kernel (Schur product theorem).  So |K(x, y)|^2 <= K(x, x) K(y, y),
and a finite diagonal bounds every Gram entry.

Working set: ``gram`` refuses more than GRAM_CELL_CAP cells before it
allocates, and symmetrizes in place, one pair of _SYM_TILE x _SYM_TILE tiles
at a time, instead of allocating g + g.T.  ``KernelSupOracle.query_block``
converts its int8 signs s to float64 in row sub-blocks of _PRODUCT_CELLS // (2 n)
rows and forms s G, then each row's contiguous dot with s, so s and s G
together fill _PRODUCT_CELLS cells (``TabulatedSupOracle`` holds its float
copies and products to the same cells) and its float temporaries stay near
2 MiB whatever the batch size.  Full-size sub-blocks, s and s G at 2 MiB
each, raised the peak RSS of ``rad`` at n = 300 by about 3 MiB and were no
faster.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import GRAM_CELL_CAP, CapExceeded, RademacherEstimate
from .rademacher import (
    _PRODUCT_CELLS,
    check_mc_request,
    derive_seed,
    mc_empirical_rademacher,
    mc_rademacher_columns,
)

__all__ = [
    "KernelSpec",
    "parse_kernel_spec",
    "gram",
    "kernel_trace",
    "check_psd",
    "KernelSupOracle",
    "kernel_mc_rademacher",
    "trace_complexity",
    "worst_case_complexity",
    "kernel_rad_bounds",
]

_PSD_TOL_FACTOR = 1e-8

# Draws of the pilot that fits the control-variate coefficients.
_PILOT_TRIALS = 1024

# Side of the square tiles ``gram`` symmetrizes in place; 128 x 128 float64
# tiles (128 KiB each) were fastest at n = 4000.
_SYM_TILE = 128


@dataclass(frozen=True)
class KernelSpec:
    """Kernel kind plus parameters: linear, rbf(gamma), poly(degree, coef)."""

    kind: str
    gamma: float = 1.0
    degree: int = 2
    coef: float = 1.0

    def __post_init__(self) -> None:
        # Only parameter ranges under which the kernel is PSD (module docstring).
        if self.kind not in ("linear", "rbf", "poly"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"rbf kernel needs a finite gamma > 0, got {self.gamma!r}")
        if self.kind == "poly":
            if self.degree < 1:
                raise ValueError("poly kernel needs degree >= 1")
            if not (math.isfinite(self.coef) and self.coef >= 0):
                raise ValueError(
                    f"poly kernel needs a finite coef >= 0 (else it is not PSD), got {self.coef!r}"
                )

    def label(self) -> str:
        if self.kind == "linear":
            return "linear"
        if self.kind == "rbf":
            return f"rbf:gamma={self.gamma!r}"
        return f"poly:degree={self.degree},coef={self.coef!r}"


def parse_kernel_spec(text: str) -> KernelSpec:
    """Parse the CLI mini-grammar: linear | rbf:gamma=G | poly:degree=D,coef=C.

    Parameters are parsed with float()/int() exactly as written; poly's coef
    defaults to 1.
    """
    head, _, rest = text.strip().partition(":")
    if head == "linear":
        if rest:
            raise ValueError("linear kernel takes no parameters")
        return KernelSpec(kind="linear")
    params: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq or not key or not val:
                raise ValueError(f"malformed kernel parameter {item!r}")
            if key in params:
                raise ValueError(f"duplicate kernel parameter {key!r}")
            params[key] = val
    if head == "rbf":
        if set(params) != {"gamma"}:
            raise ValueError("rbf kernel needs exactly gamma=<float>")
        return KernelSpec(kind="rbf", gamma=float(params["gamma"]))
    if head == "poly":
        if "degree" not in params or not set(params) <= {"degree", "coef"}:
            raise ValueError("poly kernel needs degree=<int>[,coef=<float>]")
        return KernelSpec(
            kind="poly",
            degree=int(params["degree"]),
            coef=float(params.get("coef", "1")),
        )
    raise ValueError(f"unknown kernel {head!r} (expected linear, rbf, poly)")


def _points(data) -> np.ndarray:
    pts = np.asarray(data, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must form a nonempty (n, d) array")
    if not np.isfinite(pts).all():
        raise ValueError("points contain non-finite coordinates")
    return pts


def gram(spec: KernelSpec, data) -> np.ndarray:
    """n x n Gram matrix G_ij = K(x_i, x_j), symmetrized exactly.

    linear: x_i . x_j; rbf: exp(-gamma ||x_i - x_j||^2);
    poly: (x_i . x_j + coef)^degree.  Raises CapExceeded before allocating
    when n^2 exceeds GRAM_CELL_CAP.
    """
    pts = _points(data)
    n = pts.shape[0]
    if n * n > GRAM_CELL_CAP:
        raise CapExceeded(f"an n={n} Gram matrix has {n * n} cells; cap is {GRAM_CELL_CAP}")
    dots = pts @ pts.T
    if spec.kind == "rbf":
        # ||x_i - x_j||^2 = ||x_i||^2 + ||x_j||^2 - 2 x_i . x_j, clamped at 0
        # against cancellation; the diagonal distance is exactly 0.
        sq = np.einsum("id,id->i", pts, pts)
        dots *= 2.0
        dist = np.add.outer(sq, sq)
        dist -= dots
        del dots
        np.maximum(dist, 0.0, out=dist)
        np.fill_diagonal(dist, 0.0)
        dist *= -spec.gamma
        g = np.exp(dist, out=dist)
    elif spec.kind == "linear":
        g = dots
    else:
        g = dots
        with np.errstate(over="ignore"):  # overflow is rejected below
            g += spec.coef
            g **= spec.degree
    # (g_ij + g_ji)/2 is exactly symmetric in IEEE arithmetic.  Entries above
    # DBL_MAX/2 overflow in the sum, so finiteness is checked after it.
    with np.errstate(over="ignore"):
        _symmetrize(g)
    if not np.isfinite(g).all():
        raise ValueError("gram matrix has non-finite entries")
    return g


def _symmetrize(g: np.ndarray) -> None:
    """Set g to (g + g.T) / 2 in place, bit for bit, one tile pair at a time.

    Each entry becomes (g_ij + g_ji)/2 as in the whole-matrix expression,
    and addition commutes, so the result is the same bits; the only
    temporary is one tile.
    """
    n = g.shape[0]
    for lo in range(0, n, _SYM_TILE):
        for lo2 in range(lo, n, _SYM_TILE):
            upper = g[lo : lo + _SYM_TILE, lo2 : lo2 + _SYM_TILE]
            lower = g[lo2 : lo2 + _SYM_TILE, lo : lo + _SYM_TILE]
            mean = upper + lower.T
            mean /= 2.0
            upper[...] = mean
            lower[...] = mean.T


def kernel_trace(spec: KernelSpec, data) -> float:
    """trace G = sum_i K(x_i, x_i) from the kernel diagonal alone, in O(nd).

    rbf: exactly n; linear: sum ||x_i||^2; poly: sum (||x_i||^2 + coef)^degree.
    Raises ValueError if the diagonal or its sum is non-finite; since every
    spec is PSD, a finite diagonal means every Gram entry is finite.
    """
    pts = _points(data)
    if spec.kind == "rbf":
        return float(pts.shape[0])
    diag = np.einsum("id,id->i", pts, pts)
    if spec.kind == "poly":
        with np.errstate(over="ignore"):  # overflow is rejected just below
            diag = (diag + spec.coef) ** spec.degree
    total = float(diag.sum())
    if not math.isfinite(total):
        raise ValueError(f"{spec.label()} kernel diagonal has non-finite entries or sum")
    return total


def _trace(g: np.ndarray) -> float:
    """trace G; a sum that overflows is inf, which ``trace_complexity`` rejects."""
    with np.errstate(over="ignore"):
        return float(np.trace(g))


def check_psd(g: np.ndarray) -> float:
    """Validate G is PSD up to rounding; returns the smallest eigenvalue.

    Tolerance: min eigenvalue >= -_PSD_TOL_FACTOR * trace(G).  Raises
    ValueError on a non-finite G, whose eigenvalues would be NaN and pass,
    and on a G that is not exactly symmetric: eigvalsh reads only the lower
    triangle, but the quadratic form eps^T G eps sees the symmetric part.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("gram matrix must be square")
    if not np.isfinite(g).all():
        raise ValueError("gram matrix has non-finite entries")
    if not np.array_equal(g, g.T):
        raise ValueError("gram matrix is not exactly symmetric")
    eigs = np.linalg.eigvalsh(g)
    lo = float(eigs[0])
    tr = _trace(g)
    if lo < -_PSD_TOL_FACTOR * max(tr, 0.0):
        raise ValueError(
            f"gram matrix is not PSD within tolerance: min eig {lo:.3e}, trace {tr:.3e}"
        )
    return lo


class KernelSupOracle:
    """SupOracle for the 2-norm ball: each row eps gives (lam/n) sqrt(max(eps^T G eps, 0)).

    The constructor checks a caller's G to be symmetric and PSD (``check_psd``);
    ``from_spec`` builds G with ``gram``, which is PSD by construction.  A
    block is converted to float64 in row sub-blocks s (module docstring,
    "Working set"), and each row's form is the contiguous dot of (s G)_t
    with s_t.
    """

    def __init__(self, g: np.ndarray, lambda_cap: float):
        g = np.asarray(g, dtype=np.float64)
        _check_nonnegative(lambda_cap=lambda_cap)
        check_psd(g)
        self.g = g
        self.lambda_cap = float(lambda_cap)
        self.n = g.shape[0]

    @classmethod
    def from_spec(cls, spec: KernelSpec, data, lambda_cap: float) -> "KernelSupOracle":
        """The oracle on gram(spec, data) without eigvalsh.

        ``gram`` checks finiteness and symmetrizes exactly, and every
        KernelSpec is PSD by construction (module docstring), so
        ``check_psd`` could not fail here; at n = 4000 it costs about ten
        times the Gram.
        """
        _check_nonnegative(lambda_cap=lambda_cap)
        oracle = cls.__new__(cls)
        oracle.g = gram(spec, data)
        oracle.lambda_cap = float(lambda_cap)
        oracle.n = oracle.g.shape[0]
        return oracle

    def query_block(self, signs_block: np.ndarray) -> np.ndarray:
        rows = signs_block.shape[0]
        quad = np.empty(rows)
        step = max(1, _PRODUCT_CELLS // (2 * self.n))  # s and s G share the cells
        for lo in range(0, rows, step):
            s = signs_block[lo : lo + step].astype(np.float64)
            quad[lo : lo + step] = np.einsum("tj,tj->t", s @ self.g, s)
        np.maximum(quad, 0.0, out=quad)
        np.sqrt(quad, out=quad)
        quad *= self.lambda_cap / self.n
        return quad


def _control_variance(g: np.ndarray, trace: float) -> float:
    """v = 2 sum_{i != j} G_ij^2 / trace^2, the variance of eps^T G eps / trace - 1.

    Entries are divided by the largest diagonal entry, which bounds every
    |G_ij| of a PSD G, before they are squared, so nothing overflows; the
    diagonal is zeroed in each row sub-block, so a diagonal G gives exactly 0.
    """
    n = g.shape[0]
    top = float(np.diag(g).max())
    total = 0.0
    step = max(1, _PRODUCT_CELLS // n)
    for lo in range(0, n, step):
        rows = g[lo : lo + step] / top
        rows[np.arange(rows.shape[0]), np.arange(lo, lo + rows.shape[0])] = 0.0
        total += float(np.einsum("ij,ij->", rows, rows))
    return 2.0 * total * (top / trace) ** 2


class _ControlVariateOracle:
    """Two controls with mean exactly 0 for each draw's norm-ball supremum r.

    With rho = r / c, rho^2 = eps^T G eps / trace G, so u1 = rho^2 - 1 has
    mean 0 and variance v, and u2 = u1^2 - v has mean 0.  With beta None a
    row holds the pilot's moment columns rho, u1, u2, rho u1, rho u2, u1^2,
    u1 u2, u2^2; with beta = (b1, b2) it is h = r - c (b1 u1 + b2 u2).
    """

    def __init__(self, oracle: KernelSupOracle, c: float, v: float, beta=None):
        self.oracle = oracle
        self.c = c
        self.v = v
        self.beta = beta
        self.n = oracle.n

    def query_block(self, signs_block: np.ndarray) -> np.ndarray:
        r = self.oracle.query_block(signs_block)
        rho = r / self.c
        u1 = rho * rho - 1.0
        u2 = u1 * u1 - self.v
        if self.beta is None:
            return np.stack([rho, u1, u2, rho * u1, rho * u2, u1 * u1, u1 * u2, u2 * u2], axis=1)
        b1, b2 = self.beta
        return r - self.c * (b1 * u1 + b2 * u2)


def _fit_coefficients(moments: list[RademacherEstimate]) -> tuple[float, float]:
    """Least-squares coefficients of rho on (u1, u2) from the pilot's column means.

    u2 is dropped when what is left of it after regressing on u1 is
    rounding noise: |u1| takes one value (n = 2), or u1 two values (the
    all-ones G at n = 3), and r is then a function of u1 alone.
    """
    rho, u1, u2, rho_u1, rho_u2, u1_u1, u1_u2, u2_u2 = (m.value for m in moments)
    c11, c12, c22 = u1_u1 - u1 * u1, u1_u2 - u1 * u2, u2_u2 - u2 * u2
    c1r, c2r = rho_u1 - rho * u1, rho_u2 - rho * u2
    if not c11 > 0.0:  # u1 rounds to 0 on every draw
        return 0.0, 0.0
    rest = c22 - c12 * c12 / c11
    if rest <= (1e-8 * c11) ** 2:
        return c1r / c11, 0.0
    b2 = (c2r - c12 * c1r / c11) / rest
    return (c1r - c12 * b2) / c11, b2


def kernel_mc_rademacher(oracle: KernelSupOracle, trials: int, seed: int) -> RademacherEstimate:
    """Monte Carlo estimate of the norm-ball complexity E r (module docstring).

    Fits (b1, b2) on _PILOT_TRIALS draws of an independent stream keyed by
    derive_seed(seed, 1), then returns min(c, mean h) over the draws of
    mc_empirical_rademacher(oracle, trials, seed), with that mean's standard
    error; c = lam sqrt(trace G)/n.  When every draw has r = c (c = 0, from
    lam = 0 or a zero PSD G, or a diagonal G) the result is c with standard
    error 0 once the request passes check_mc_request.
    """
    n = oracle.n
    check_mc_request(n, trials, seed)
    trace = _trace(oracle.g)
    c = trace_complexity(trace, oracle.lambda_cap, n)
    v = _control_variance(oracle.g, trace) if c > 0.0 else 0.0
    if v == 0.0:
        return RademacherEstimate(c, "monte-carlo", trials, 0.0, seed)
    pilot = _ControlVariateOracle(oracle, c, v)
    moments = mc_rademacher_columns(pilot, _PILOT_TRIALS, derive_seed(seed, 1))
    beta = _fit_coefficients(moments)
    fitted = _ControlVariateOracle(oracle, c, v, beta)
    est = mc_empirical_rademacher(fitted, trials=trials, seed=seed)
    return RademacherEstimate(min(c, est.value), "monte-carlo", trials, est.std_error, seed)


def _check_nonnegative(**values: float) -> None:
    """The one range check of the norm cap lam and the radius R."""
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def trace_complexity(trace: float, lambda_cap: float, n: int) -> float:
    """lam sqrt(trace G) / n: Jensen's bound on the norm-ball complexity; ValueError if not finite.

    lam must be finite and >= 0; an overflowing trace or product gives no value.
    """
    _check_nonnegative(lambda_cap=lambda_cap)
    value = lambda_cap * math.sqrt(max(trace, 0.0)) / n
    if not math.isfinite(value):
        raise ValueError(
            f"lambda*sqrt(trace G)/n is not finite: trace={trace!r}, lambda={lambda_cap!r}"
        )
    return value


def worst_case_complexity(radius: float, lambda_cap: float, n: int) -> float:
    """sqrt(R^2 lam^2 / n), the norm-ball bound when every G_ii <= R^2; ValueError if not finite.

    R and lam must be finite and >= 0; the finiteness of the value is checked first.
    """
    value = math.sqrt(radius * radius * lambda_cap * lambda_cap / n)
    if not math.isfinite(value):
        raise ValueError(f"sqrt(R^2*lambda^2/n) is not finite: R={radius!r}, lambda={lambda_cap!r}")
    _check_nonnegative(radius=radius, lambda_cap=lambda_cap)
    return value


def kernel_rad_bounds(
    g: np.ndarray, lambda_cap: float
) -> tuple[float, Callable[[float], float]]:
    """Complexity bounds for the norm-ball class on this sample.

    Returns (data_dependent, worst_case) where
    data_dependent = lam sqrt(trace G) / n (Jensen on the exact sup) and
    worst_case(R) = sqrt(R^2 lam^2 / n), valid whenever G_ii <= R^2 for all i;
    data_dependent <= worst_case(R) holds under that same condition.
    """
    g = np.asarray(g, dtype=np.float64)
    check_psd(g)
    n = g.shape[0]
    data_dependent = trace_complexity(_trace(g), lambda_cap, n)
    return data_dependent, lambda radius: worst_case_complexity(radius, lambda_cap, n)
