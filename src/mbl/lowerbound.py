"""Interval-class lower-bound construction and its verification.

The construction lives on scalar points in [1, k+1].  For each interval
index j in [1, k], the class F_t^j holds functions equal to -1 outside
[j, j+1] and valued in {-1, +1} strictly inside (j, j+1), with at most t
sign changes among the sorted in-interval sample points; points exactly on
integer boundaries take -1 (off-interval value; the uniform law puts zero
mass there, so the choice is inconsequential but must still be fixed for
floating-point inputs).  F_0 is the single constant -1 function, and the
star class is {max(f_1, ..., f_k) : f_j in F_t^j}.

For one sign vector the supremum over F_t^j reduces to maximizing
sum_i eps_i s_i over in-interval sign sequences s with at most t changes, a
small dynamic program over states (changes used, current sign) swept along
the sorted points.  One engine, ``_interval_optima``, runs it for every
oracle: it folds all k intervals of a (trials, n) int8 sign block into one
(m_max, k, trials) int8 array, zero-padded to the longest interval (a 0
column adds 0 to every state, so padding is exact and empty intervals give
0), and sweeps a (2, t+1, k, trials) state whose dtype is int16 while
m_max < 2^15 and int32 beyond.  Every oracle is then a short integer
combination of the (trials, k) optima and sign sums of the block;
everything before the normalization by n is integer arithmetic, so batched
and per-vector evaluation agree bitwise.

With labels concentrated on class k+1 and the per-class classes
(F_t^1, ..., F_t^k, F_0), every margin is m(x_i) = -1 - max_j f_j(x_i), so
the margin-class supremum is -mean(eps) + star-class-sup at -eps; this
identity is the implementation, not an approximation.  The pattern set is
closed under s -> -s, so each interval optimum is the same at eps and -eps,
and the star-class sup at -eps is (sum_j optimum_j + boundary sign sum)/n,
read off the optima at eps.  ``verify_theorem3`` checks, by Monte Carlo,
that the margin-class complexity dominates (1 - epsilon) times the sum of
per-interval complexities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import CapExceeded, LabeledDataset, RademacherEstimate, as_sign_vector
from .rademacher import (
    enumerate_sign_vectors,
    exact_empirical_rademacher,
    mc_empirical_rademacher,
)
from .synth import GeneratorSpec, generate

__all__ = [
    "BRUTE_FORCE_CAP",
    "IntervalClassSpec",
    "LowerBoundConfig",
    "Theorem3Report",
    "interval_sup_dp",
    "brute_force_interval_sup",
    "partition_points",
    "IntervalSupOracle",
    "IntervalSumOracle",
    "UnionSupOracle",
    "StarSupOracle",
    "Theorem3SupOracle",
    "UnionMarginSupOracle",
    "restricted_rademacher",
    "star_class_sup",
    "theorem3_margin_sup",
    "reference_complexity",
    "select_t",
    "verify_theorem3",
    "sweep_theorem3",
]

BRUTE_FORCE_CAP = 12
_DEFAULT_T_BUDGET = 10**6


@dataclass(frozen=True)
class IntervalClassSpec:
    """One interval class F_t^j: interval index j in [1, k], sign-change budget t."""

    j: int
    t: int

    def __post_init__(self) -> None:
        if self.j < 1:
            raise ValueError("interval index j must be >= 1")
        if self.t < 0:
            raise ValueError("discontinuity budget t must be >= 0")


@dataclass(frozen=True)
class LowerBoundConfig:
    """Experiment configuration for the lower-bound verification.

    ``t=None`` requests the doubling search; when t is given, n defaults to
    16*k*t^2 and must not fall below it (t = 0 needs an explicit n).
    ``convention`` picks the reference complexity of the constant class
    used by the selection criterion (signed gives exactly 0, making the
    criterion vacuous, hence the absolute default).
    """

    k: int
    epsilon: float
    t: int | None = None
    n: int | None = None
    seed: int = 0
    trials: int = 1000
    convention: str = "absolute"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.trials < 2:
            raise ValueError("trials must be >= 2")
        if self.convention not in ("signed", "absolute"):
            raise ValueError("convention must be 'signed' or 'absolute'")
        if self.t is not None:
            if self.t < 0:
                raise ValueError("t must be >= 0")
            if self.t == 0 and self.n is None:
                raise ValueError(
                    "t = 0 makes the default n = 16*k*t^2 zero; give the sample size (--n)"
                )
            if self.n is not None and self.n < 16 * self.k * self.t * self.t:
                raise ValueError(
                    f"n={self.n} violates n >= 16*k*t^2 = {16 * self.k * self.t * self.t}"
                )


@dataclass(frozen=True)
class Theorem3Report:
    k: int
    t: int
    n: int
    epsilon: float
    lhs: float
    rhs: float
    ratio: float
    lhs_std_error: float
    rhs_std_error: float
    passed: bool
    variant: str
    t_auto_selected: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "n": self.n,
            "epsilon": self.epsilon,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "std_errors": {"lhs": self.lhs_std_error, "rhs": self.rhs_std_error},
            "pass": self.passed,
        }


def _interval_optima(block: np.ndarray, inside: Sequence[np.ndarray], t: int) -> np.ndarray:
    """Per-interval maxima of sum_i eps_i s_i over patterns with <= t changes.

    ``block`` is a (trials, n) matrix of -1/+1 signs (int8 as the estimators
    produce it, used as is), ``inside[j]`` the sorted point indices of
    interval j.  Returns the (trials, k) int64 optima, one DP sweep for all
    intervals: the state dp[s, c, j, r] is the best prefix total of interval
    j in trial r using at most c changes and ending at sign s (index 0 for
    +1, 1 for -1); both start signs are free, so the first column
    initializes every c.
    """
    trials, k = block.shape[0], len(inside)
    m_max = max((idx.size for idx in inside), default=0)
    if m_max == 0:
        return np.zeros((trials, k), dtype=np.int64)
    fold = np.zeros((m_max, k, trials), dtype=np.int8)
    for j, idx in enumerate(inside):
        fold[: idx.size, j] = block[:, idx].T
    dp = np.empty((2, t + 1, k, trials), dtype=np.int16 if m_max < 1 << 15 else np.int32)
    dp[0] = fold[0]
    dp[1] = -fold[0]
    up, down = dp
    for col in fold[1:]:
        if t > 0:
            # A change into sign s at c reads dp[-s, c-1].  Updating up first
            # lets down read up[c-1] already maxed with down[c-2]; that term
            # never exceeds down[c] (dp is monotone in c), so both in-place
            # updates equal the simultaneous one.
            np.maximum(up[1:], down[:-1], out=up[1:])
            np.maximum(down[1:], up[:-1], out=down[1:])
        up += col
        down -= col
    return dp[:, t].max(axis=0).T.astype(np.int64)


def interval_sup_dp(
    in_interval_signs,
    t: int,
    restricted: bool = True,
    out_of_interval_sign_sum: float = 0.0,
) -> float:
    """Unnormalized sup of sum_i eps_i f(x_i) over one interval class.

    ``in_interval_signs`` are the signs of the in-interval points ordered by
    position.  Restricted mode returns the in-interval DP optimum alone
    (the restricted complexity's summand); unrestricted mode adds the fixed
    off-interval contribution -out_of_interval_sign_sum (the function is -1
    there).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    arr = np.asarray(in_interval_signs)
    if arr.size:
        arr = as_sign_vector(arr)
        core = int(_interval_optima(arr[None, :], [np.arange(arr.size)], t)[0, 0])
    else:
        core = 0
    if restricted:
        return float(core)
    return float(core - out_of_interval_sign_sum)


def brute_force_interval_sup(
    in_interval_signs,
    t: int,
    restricted: bool = True,
    out_of_interval_sign_sum: float = 0.0,
    cap: int = BRUTE_FORCE_CAP,
) -> float:
    """Exhaustive oracle for interval_sup_dp (n_inside <= cap).

    Enumerates all sign patterns, filters by change count, and maximizes;
    must match the DP bitwise on the shared integer core.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    arr = np.asarray(in_interval_signs)
    m = arr.size
    if m > cap:
        raise CapExceeded(f"brute force is capped at {cap} in-interval points, got {m}")
    if m == 0:
        core = 0
    else:
        eps = as_sign_vector(arr).astype(np.int64)
        pats = enumerate_sign_vectors(m).astype(np.int64)
        changes = (np.diff(pats, axis=1) != 0).sum(axis=1)
        keep = pats[changes <= t]
        core = int((keep @ eps).max())
    if restricted:
        return float(core)
    return float(core - out_of_interval_sign_sum)


def _scalar_points(data) -> np.ndarray:
    if isinstance(data, LabeledDataset):
        if data.d != 1:
            raise ValueError("interval classes need scalar (d = 1) points")
        return data.points[:, 0]
    pts = np.asarray(data, dtype=np.float64)
    if pts.ndim == 2 and pts.shape[1] == 1:
        pts = pts[:, 0]
    if pts.ndim != 1:
        raise ValueError("interval classes need scalar (d = 1) points")
    return pts


def partition_points(points, k: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Split scalar points in [1, k+1] into per-interval interiors and boundaries.

    Returns (inside, boundary): ``inside[j-1]`` holds the indices strictly
    inside (j, j+1) sorted by coordinate; ``boundary`` holds indices that sit
    exactly on an integer (where every interval function takes -1).
    """
    x = _scalar_points(points)
    if x.size and (x.min() < 1.0 or x.max() > k + 1.0):
        raise ValueError(f"points must lie in [1, {k + 1}]")
    on_boundary = x == np.floor(x)
    interval = np.floor(x).astype(np.int64)
    inside: list[np.ndarray] = []
    for j in range(1, k + 1):
        idx = np.nonzero((interval == j) & ~on_boundary)[0]
        inside.append(idx[np.argsort(x[idx], kind="stable")])
    return inside, np.nonzero(on_boundary)[0]


class _BlockQuery:
    """``query`` as ``query_block`` on a one-row block."""

    n: int

    def query(self, signs) -> float:
        s = as_sign_vector(signs, self.n)
        return float(self.query_block(s[None, :])[0])


class IntervalSupOracle(_BlockQuery):
    """SupOracle for one interval class F_t^j on a fixed sample.

    Restricted mode sums only over in-interval points (the restricted
    complexity); unrestricted mode adds the off-interval -1 contributions.
    Both normalize by the full sample size n.
    """

    def __init__(self, data, k: int, j: int, t: int, restricted: bool = False):
        if not 1 <= j <= k:
            raise ValueError(f"interval index j={j} out of [1, {k}]")
        if t < 0:
            raise ValueError("t must be >= 0")
        x = _scalar_points(data)
        inside, _ = partition_points(x, k)
        self.idx = inside[j - 1]
        self.t = t
        self.restricted = restricted
        self.n = x.shape[0]

    def query_block(self, block: np.ndarray) -> np.ndarray:
        b = np.asarray(block)
        core = _interval_optima(b, [self.idx], self.t)[:, 0]
        if self.restricted:
            return core / self.n
        out_sum = b.sum(axis=1, dtype=np.int64) - b[:, self.idx].sum(axis=1, dtype=np.int64)
        return (core - out_sum) / self.n


class _AllIntervals(_BlockQuery):
    """Shared state of the oracles over all k intervals of a fixed sample."""

    def __init__(self, data, k: int, t: int):
        if k < 1:
            raise ValueError("need k >= 1 intervals")
        if t < 0:
            raise ValueError("t must be >= 0")
        x = _scalar_points(data)
        self.inside, self.boundary = partition_points(x, k)
        self.t = t
        self.n = x.shape[0]

    def _optima(self, b: np.ndarray) -> np.ndarray:
        return _interval_optima(b, self.inside, self.t)

    def _interval_values(self, b: np.ndarray, opt: np.ndarray) -> np.ndarray:
        """(trials, k) unrestricted F_t^j suprema: (optimum - off-interval sign sum)/n."""
        inside = np.stack([b[:, idx].sum(axis=1, dtype=np.int64) for idx in self.inside], axis=1)
        return (opt - (b.sum(axis=1, dtype=np.int64)[:, None] - inside)) / self.n

    def _star_total(self, b: np.ndarray, opt: np.ndarray, boundary_sign: int) -> np.ndarray:
        """Unnormalized star-class sup at boundary_sign * b.

        Off its interval every candidate is -1, so the max decomposes per
        interval; the optima are sign-symmetric, and only the boundary
        points' -1 contribution follows the sign of the draw.
        """
        return opt.sum(axis=1) - boundary_sign * b[:, self.boundary].sum(axis=1, dtype=np.int64)


class IntervalSumOracle(_AllIntervals):
    """Per-draw sum over j of the unrestricted F_t^j suprema (normalized)."""

    def query_block(self, block: np.ndarray) -> np.ndarray:
        b = np.asarray(block)
        out = np.zeros(b.shape[0], dtype=np.float64)
        for vals in self._interval_values(b, self._optima(b)).T:
            out += vals
        return out


class UnionSupOracle(_AllIntervals):
    """Sup over the union class (one interval active per function): max_j."""

    def query_block(self, block: np.ndarray) -> np.ndarray:
        b = np.asarray(block)
        return self._interval_values(b, self._optima(b)).max(axis=1)


class StarSupOracle(_AllIntervals):
    """Sup over the star class {max(f_1, ..., f_k)}.

    The sum of per-interval DP optima minus the sign sum at boundary
    points, normalized by n.
    """

    def query_block(self, block: np.ndarray) -> np.ndarray:
        b = np.asarray(block)
        return self._star_total(b, self._optima(b), 1) / self.n


class _ConcentratedLabels(_AllIntervals):
    """Margin-class oracles on a dataset whose labels all equal k+1."""

    def __init__(self, dataset: LabeledDataset, t: int, k: int | None = None):
        k = dataset.k - 1 if k is None else k
        super().__init__(dataset.points, k, t)
        labels = np.asarray(dataset.labels)
        if labels.size == 0 or not np.all(labels == k + 1):
            raise ValueError(f"labels must all equal k+1 = {k + 1}")
        self.k = k


class Theorem3SupOracle(_ConcentratedLabels):
    """Margin-class sup for labels concentrated on class k+1.

    Each margin is -1 - max_j f_j(x_i), so the per-draw sup equals
    -mean(eps) plus the star-class sup at -eps.
    """

    def query_block(self, block: np.ndarray) -> np.ndarray:
        b = np.asarray(block)
        star = self._star_total(b, self._optima(b), -1) / self.n
        return -b.sum(axis=1, dtype=np.int64) / self.n + star


class UnionMarginSupOracle(_ConcentratedLabels):
    """Margin-class sup when every per-class slot is the union class.

    The union-class sup at eps plus the star-class sup at -eps, both from
    one set of interval optima.
    """

    def query_block(self, block: np.ndarray) -> np.ndarray:
        b = np.asarray(block)
        opt = self._optima(b)
        union = self._interval_values(b, opt).max(axis=1)
        return union + self._star_total(b, opt, -1) / self.n


def restricted_rademacher(
    spec: IntervalClassSpec,
    dataset,
    trials: int = 1000,
    seed: int = 0,
    mode: str = "mc",
) -> RademacherEstimate:
    """Estimate the restricted complexity of F_t^j (signed convention).

    The restricted interval class is closed under sign flips, so the signed
    and absolute conventions coincide here.
    """
    k = _infer_interval_count(dataset, spec.j)
    oracle = IntervalSupOracle(dataset, k, spec.j, spec.t, restricted=True)
    if mode == "exact":
        return exact_empirical_rademacher(oracle, oracle.n)
    if mode != "mc":
        raise ValueError("mode must be 'mc' or 'exact'")
    return mc_empirical_rademacher(oracle, oracle.n, trials, seed)


def _infer_interval_count(data, j_floor: int) -> int:
    """Smallest k covering the points: all must lie in [1, k+1]."""
    x = _scalar_points(data)
    hi = int(math.ceil(float(x.max()) - 1.0)) if x.size else 1
    return max(hi, j_floor, 1)


def star_class_sup(dataset, signs, t: int, k: int) -> float:
    """One-shot star-class supremum for one sign vector (normalized by n)."""
    return StarSupOracle(dataset, k, t).query(signs)


def theorem3_margin_sup(dataset: LabeledDataset, signs, t: int, k: int) -> float:
    """One-shot margin-class supremum with labels concentrated on k+1."""
    return Theorem3SupOracle(dataset, t, k).query(signs)


@lru_cache(maxsize=64)
def _mean_abs_sign_sum(n: int) -> float:
    # E|sum of n signs| / n = C(n-1, floor((n-1)/2)) / 2^(n-1), exactly rounded.
    return float(Fraction(math.comb(n - 1, (n - 1) // 2), 2 ** (n - 1)))


def reference_complexity(n: int, convention: str = "absolute") -> float:
    """Complexity of the constant-(-1) singleton class on n points.

    Signed convention: exactly 0.  Absolute convention: E|sum eps_i|/n,
    computed in exact rational arithmetic and rounded once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if convention == "signed":
        return 0.0
    if convention == "absolute":
        return _mean_abs_sign_sum(n)
    raise ValueError("convention must be 'signed' or 'absolute'")


def _derived_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence((seed, *tags)).generate_state(1, np.uint64)[0])


def _uniform_dataset(k: int, n: int, seed: int) -> LabeledDataset:
    return generate(GeneratorSpec(kind="uniform_interval", k=k, n=n, seed=seed))


def select_t(
    k: int,
    epsilon: float,
    n_budget: int = _DEFAULT_T_BUDGET,
    seed: int = 0,
    trials: int = 256,
    convention: str = "absolute",
) -> tuple[int, int]:
    """Doubling search for the smallest budget t meeting the slack criterion.

    Starting at t=1 and doubling, each candidate uses n = 16*k*t^2 sample
    points (the smallest lawful size) and a fresh uniform dataset; it passes
    when every interval's restricted complexity estimate reaches
    C * reference with C = 1/epsilon.  Raises CapExceeded once the candidate
    n would exceed n_budget.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    big_c = 1.0 / epsilon
    t = 1
    while True:
        n = 16 * k * t * t
        if n > n_budget:
            raise CapExceeded(
                f"t-selection budget exhausted: candidate t={t} needs n={n} > {n_budget}"
            )
        dataset = _uniform_dataset(k, n, _derived_seed(seed, t, 0))
        ref = reference_complexity(n, convention)
        est_seed = _derived_seed(seed, t, 1)
        ok = True
        for j in range(1, k + 1):
            oracle = IntervalSupOracle(dataset, k, j, t, restricted=True)
            est = mc_empirical_rademacher(oracle, n, trials, est_seed)
            if not est.value >= big_c * ref:
                ok = False
                break
        if ok:
            return t, n
        t *= 2


def verify_theorem3(
    config: LowerBoundConfig, threads: int = 1, variant: str = "sum"
) -> Theorem3Report:
    """Monte Carlo check that the margin class dominates the interval sum.

    lhs estimates the margin-class complexity (labels concentrated on k+1),
    rhs the sum over intervals of unrestricted complexities (variant
    "union": k times the union-class complexity instead).  Passes when
    lhs >= (1 - epsilon) rhs - 4 * combined std error.  ``threads`` is
    accepted for callers that pass it and has no effect.
    """
    if variant not in ("sum", "union"):
        raise ValueError("variant must be 'sum' or 'union'")
    k, eps = config.k, config.epsilon
    if config.t is None:
        budget = config.n if config.n is not None else _DEFAULT_T_BUDGET
        t, n = select_t(k, eps, budget, seed=config.seed, convention=config.convention)
        auto = True
    else:
        t = config.t
        n = config.n if config.n is not None else 16 * k * t * t
        auto = False
    dataset = _uniform_dataset(k, n, _derived_seed(config.seed, 0, 0))

    if variant == "sum":
        lhs_oracle = Theorem3SupOracle(dataset, t, k)
        rhs_oracle = IntervalSumOracle(dataset, k, t)
        rhs_scale = 1.0
    else:
        lhs_oracle = UnionMarginSupOracle(dataset, t, k)
        rhs_oracle = UnionSupOracle(dataset, k, t)
        rhs_scale = float(k)

    lhs_est = mc_empirical_rademacher(
        lhs_oracle, n, config.trials, _derived_seed(config.seed, 0, 1)
    )
    rhs_est = mc_empirical_rademacher(
        rhs_oracle, n, config.trials, _derived_seed(config.seed, 0, 2)
    )
    lhs, se_lhs = lhs_est.value, lhs_est.std_error
    rhs = rhs_scale * rhs_est.value
    se_rhs = rhs_scale * rhs_est.std_error
    combined = math.sqrt(se_lhs**2 + ((1.0 - eps) * se_rhs) ** 2)
    passed = lhs >= (1.0 - eps) * rhs - 4.0 * combined
    ratio = lhs / rhs if rhs != 0.0 else math.inf
    return Theorem3Report(
        k=k,
        t=t,
        n=n,
        epsilon=eps,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        lhs_std_error=se_lhs,
        rhs_std_error=se_rhs,
        passed=passed,
        variant=variant,
        t_auto_selected=auto,
    )


def sweep_theorem3(
    k_list: Sequence[int],
    t: int = 4,
    points_per_interval: int | None = None,
    epsilon: float = 0.5,
    trials: int = 500,
    seed: int = 0,
) -> tuple[list[Theorem3Report], dict]:
    """Scaling sweep over k at fixed t and fixed per-interval point density.

    Uses n = k * points_per_interval (default density 16 t^2, the smallest
    lawful one).  Under this scaling the normalized rhs is constant in k by
    construction (each of the k intervals contributes one m-point DP optimum
    and the normalization n = k m cancels the count), so the quantity that
    exhibits the linear growth is the aggregate n * rhs, the summed expected
    interval optima.  The summary reports slope fits for both, plus the
    aggregate's doubling ratios.
    """
    ks = [int(k) for k in k_list]
    if not ks:
        raise ValueError("k_list must be nonempty")
    if points_per_interval is None and t == 0:
        raise ValueError(
            "t = 0 makes the default density 16*t^2 zero; give the points per interval (--density)"
        )
    density = points_per_interval if points_per_interval is not None else 16 * t * t
    if density < 16 * t * t:
        raise ValueError(f"points_per_interval={density} violates n >= 16*k*t^2")
    reports = []
    for k in ks:
        cfg = LowerBoundConfig(
            k=k,
            epsilon=epsilon,
            t=t,
            n=density * k,
            seed=_derived_seed(seed, k),
            trials=trials,
        )
        reports.append(verify_theorem3(cfg))
    karr = np.asarray(ks, dtype=np.float64)
    rhs = np.asarray([r.rhs for r in reports])
    aggregate = np.asarray([r.n * r.rhs for r in reports])
    summary = {
        "t": t,
        "points_per_interval": density,
        "slope_rhs_vs_k": float(np.polyfit(karr, rhs, 1)[0]) if len(ks) > 1 else math.nan,
        "slope_aggregate_vs_k": float(np.polyfit(karr, aggregate, 1)[0]) if len(ks) > 1 else math.nan,
        "aggregate_doubling_ratios": [
            float(aggregate[i + 1] / aggregate[i])
            for i in range(len(ks) - 1)
            if ks[i + 1] == 2 * ks[i]
        ],
        "pass": all(r.passed for r in reports),
    }
    return reports, summary
