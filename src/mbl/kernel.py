"""Kernel specs, Gram matrices, the norm-ball sup oracle and its bounds.

For the Euclidean ball {x -> w . Phi(x) : ||w|| <= lam}, the inner supremum
of the Rademacher definition has the closed form

    sup_{||w|| <= lam} (1/n) sum_i eps_i w . Phi(x_i) = (lam/n) sqrt(eps^T G eps)

(Cauchy-Schwarz with equality at the aligned w), where G is the Gram matrix.
Only the 2-norm ball gets an exact oracle; other aggregations are served
through the worst-case surrogate sqrt(R^2 lam^2 / n) (``worst_case_complexity``).

Monte Carlo for the ball (``kernel_mc_rademacher``): with r = (lam/n)
sqrt(eps^T G eps), E eps eps^T = I for Rademacher signs gives
E eps^T G eps = trace G, so E r^2 = c^2 for the trace bound
c = lam sqrt(trace G)/n.  Each draw's r - (r^2 - c^2)/(2c) is therefore
unbiased for E r, and it equals c - (r - c)^2/(2c): the estimate is c minus
a Monte Carlo average of the nonnegative Jensen gap, never above c.  On the
same draws its variance is about 6 to 3500 times smaller than that of plain
averaging of r (n = 300 blob points: rbf with gamma 0.05 to 5, linear,
poly, and the rank-one all-ones Gram; 117 times for rbf with gamma 0.5).
r is even in eps, so the absolute convention gives the signed estimate, bit
for bit, and the oracle takes no convention.

Every KernelSpec is positive semi-definite by construction: linear is a Gram
of inner products, rbf with finite gamma > 0 is a Gaussian kernel, and poly
with finite coef >= 0 is a sum of nonnegative multiples of powers of the
linear kernel (Schur product theorem).  So |K(x, y)|^2 <= K(x, x) K(y, y),
and a finite diagonal bounds every Gram entry.

Working set: ``gram`` refuses more than GRAM_CELL_CAP cells before it
allocates, and symmetrizes in place, one pair of _SYM_TILE x _SYM_TILE tiles
at a time, instead of allocating g + g.T.  ``KernelSupOracle.query_block``
converts its int8 signs to float64 in row sub-blocks of _PRODUCT_CELLS // n
rows (``TabulatedSupOracle`` holds its float copies and products to the
same _PRODUCT_CELLS cells), so its float temporaries stay near 2 MiB
whatever the batch size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import GRAM_CELL_CAP, CapExceeded, RademacherEstimate
from .rademacher import _PRODUCT_CELLS, check_mc_request, mc_empirical_rademacher

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
    tr = float(np.trace(g))
    if lo < -_PSD_TOL_FACTOR * max(tr, 0.0):
        raise ValueError(
            f"gram matrix is not PSD within tolerance: min eig {lo:.3e}, trace {tr:.3e}"
        )
    return lo


class KernelSupOracle:
    """SupOracle for the 2-norm ball: each row eps gives (lam/n) sqrt(max(eps^T G eps, 0)).

    G is checked to be symmetric and PSD on construction.  A block is
    converted to float64 in row sub-blocks of about _PRODUCT_CELLS cells.
    """

    def __init__(self, g: np.ndarray, lambda_cap: float):
        g = np.asarray(g, dtype=np.float64)
        _check_nonnegative(lambda_cap=lambda_cap)
        check_psd(g)
        self.g = g
        self.lambda_cap = float(lambda_cap)
        self.n = g.shape[0]

    def query_block(self, signs_block: np.ndarray) -> np.ndarray:
        rows = signs_block.shape[0]
        quad = np.empty(rows)
        step = max(1, _PRODUCT_CELLS // self.n)
        for lo in range(0, rows, step):
            s = signs_block[lo : lo + step].astype(np.float64)
            quad[lo : lo + step] = np.einsum("ti,ij,tj->t", s, self.g, s, optimize=True)
        np.maximum(quad, 0.0, out=quad)
        np.sqrt(quad, out=quad)
        quad *= self.lambda_cap / self.n
        return quad


class _JensenGapOracle:
    """The Jensen gap (r - c)^2 / (2c) of each draw's norm-ball supremum r.

    r comes from the wrapped oracle's query_block; c > 0 is the trace bound.
    """

    def __init__(self, oracle: KernelSupOracle, c: float):
        self.oracle = oracle
        self.c = c
        self.n = oracle.n

    def query_block(self, signs_block: np.ndarray) -> np.ndarray:
        gap = self.oracle.query_block(signs_block) - self.c
        gap *= gap
        gap /= 2.0 * self.c
        return gap


def kernel_mc_rademacher(oracle: KernelSupOracle, trials: int, seed: int) -> RademacherEstimate:
    """Monte Carlo estimate of the norm-ball complexity E r (module docstring).

    Returns c - mean((r - c)^2 / (2c)) over the draws of
    mc_empirical_rademacher(oracle, trials, seed), with that mean's
    standard error; c = lam sqrt(trace G)/n.  When c = 0 (lam = 0, or a zero
    trace, which makes the PSD G zero) every r is 0, and the result is 0 with
    standard error 0 once the request passes the Monte Carlo checks.
    """
    c = trace_complexity(float(np.trace(oracle.g)), oracle.lambda_cap, oracle.n)
    if c == 0.0:
        check_mc_request(oracle.n, trials, seed)
        return RademacherEstimate(0.0, "monte-carlo", trials, 0.0, seed)
    gap = mc_empirical_rademacher(_JensenGapOracle(oracle, c), trials=trials, seed=seed)
    return RademacherEstimate(c - gap.value, "monte-carlo", gap.trials, gap.std_error, seed)


def _check_nonnegative(**values: float) -> None:
    """The one range check of the norm cap lam and the radius R."""
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def trace_complexity(trace: float, lambda_cap: float, n: int) -> float:
    """lam sqrt(trace G) / n: Jensen's bound on the norm-ball complexity; lam finite, >= 0."""
    _check_nonnegative(lambda_cap=lambda_cap)
    return lambda_cap * math.sqrt(max(trace, 0.0)) / n


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
    data_dependent = trace_complexity(float(np.trace(g)), lambda_cap, n)
    return data_dependent, lambda radius: worst_case_complexity(radius, lambda_cap, n)
