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
the sorted points.  One engine, ``_interval_optima``, runs it for all k
intervals at once: it folds the intervals of a (trials, n) int8 sign block
into one (m_max, k, trials) int8 array, zero-padded to the longest interval
(a 0 column adds 0 to every state, so padding is exact and empty intervals
give 0), and sweeps a (2, t+1, k, trials) state whose dtype is int16 while
m_max < 2^15 and int32 beyond.  The same sweep leaves each interval's sign
sum in its never-maxed (no change, sign +1) row.

One oracle, ``Theorem3SupOracle``, turns those (trials, k) optima and sign
sums into every supremum the verification needs, one column each (margin
side, interval sum, union, union-margin side, restricted interval j);
each column is an exact integer divided by n once, so batched and
per-vector evaluation agree bitwise.  Every Theorem-3 run (one
``select_t`` candidate, one ``verify_theorem3`` check) is one
``mc_rademacher_columns`` call on one uniform sample and one sign stream,
and ``verify_theorem3`` reads both of its sides off that call.

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
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import CapExceeded, LabeledDataset, RademacherEstimate, as_sign_vector
from .rademacher import check_mc_request, derive_seed, enumerate_sign_vectors, mc_rademacher_columns
from .synth import GeneratorSpec, generate

__all__ = [
    "BRUTE_FORCE_CAP",
    "COL_MARGIN",
    "COL_SUM",
    "COL_UNION",
    "COL_UNION_MARGIN",
    "COL_RESTRICTED",
    "LowerBoundConfig",
    "Theorem3Report",
    "interval_sup_dp",
    "brute_force_interval_sup",
    "partition_points",
    "Theorem3SupOracle",
    "reference_complexity",
    "select_t",
    "verify_theorem3",
    "sweep_theorem3",
]

BRUTE_FORCE_CAP = 12
_DEFAULT_T_BUDGET = 10**6


def _lawful_n(k: int, t: int) -> int:
    """The paper's sample-size floor n = 16*k*t^2 (the default n at fixed t)."""
    return 16 * k * t * t


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
            floor = _lawful_n(self.k, self.t)
            if self.n is not None and self.n < floor:
                raise ValueError(f"n={self.n} violates n >= 16*k*t^2 = {floor}")


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


def _interval_optima(
    block: np.ndarray, inside: Sequence[np.ndarray], t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval maxima of sum_i eps_i s_i over patterns with <= t changes.

    ``block`` is a (trials, n) matrix of -1/+1 signs (int8 as the estimators
    produce it, used as is), ``inside[j]`` the sorted point indices of
    interval j.  Returns the (trials, k) int64 optima and the (trials, k)
    int64 sign sums of the intervals, one DP sweep for all intervals: the
    state dp[s, c, j, r] is the best prefix total of interval j in trial r
    using at most c changes and ending at sign s (index 0 for +1, 1 for -1);
    both start signs are free, so the first column initializes every c.
    Row dp[0, 0] (no change, sign +1) is never maxed, so after the sweep it
    holds the plain sign sum of each interval.
    """
    trials, k = block.shape[0], len(inside)
    # at least one row: a zero row adds 0 to every state, so no point inside gives 0s
    m_max = max([1] + [idx.size for idx in inside])
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
    return dp[:, t].max(axis=0).T.astype(np.int64), up[0].T.astype(np.int64)


def interval_sup_dp(in_interval_signs, t: int) -> float:
    """Sup of sum_i eps_i s_i over one interval's patterns with <= t changes.

    ``in_interval_signs`` are the signs of the in-interval points ordered by
    position; the result is the unnormalized restricted summand.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    arr = np.asarray(in_interval_signs)
    if not arr.size:
        return 0.0
    arr = as_sign_vector(arr)
    return float(_interval_optima(arr[None, :], [np.arange(arr.size)], t)[0][0, 0])


def brute_force_interval_sup(in_interval_signs, t: int) -> float:
    """Exhaustive oracle for interval_sup_dp (n_inside <= BRUTE_FORCE_CAP).

    Enumerates all sign patterns, filters by change count, and maximizes;
    must match the DP bitwise.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    arr = np.asarray(in_interval_signs)
    m = arr.size
    if m > BRUTE_FORCE_CAP:
        raise CapExceeded(
            f"brute force is capped at {BRUTE_FORCE_CAP} in-interval points, got {m}"
        )
    if m == 0:
        return 0.0
    eps = as_sign_vector(arr).astype(np.int64)
    pats = enumerate_sign_vectors(m).astype(np.int64)
    changes = (np.diff(pats, axis=1) != 0).sum(axis=1)
    return float((pats[changes <= t] @ eps).max())


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
    exactly on an integer (where every interval function takes -1).  A point
    outside [1, k+1], NaN included, raises ValueError.
    """
    x = _scalar_points(points)
    if x.size and not (x.min() >= 1.0 and x.max() <= k + 1.0):  # NaN fails both
        raise ValueError(f"points must lie in [1, {k + 1}]")
    on_boundary = x == np.floor(x)
    order = np.argsort(x, kind="stable")
    interior = order[~on_boundary[order]]
    inside = np.split(interior, np.searchsorted(x[interior], np.arange(2, k + 1)))
    return inside, np.nonzero(on_boundary)[0]


# Columns of Theorem3SupOracle.query_block; restricted interval j (1-based)
# is column COL_RESTRICTED + j - 1.
COL_MARGIN, COL_SUM, COL_UNION, COL_UNION_MARGIN, COL_RESTRICTED = range(5)


class Theorem3SupOracle:
    """Every Theorem-3 supremum on one sample, from one DP sweep per block.

    ``data`` is scalar points in [1, k+1] or a LabeledDataset whose labels
    must all equal k+1.  ``query_block`` maps a (trials, n) sign block to a
    (trials, 4 + k) float matrix: an int64 numerator per column, divided by
    n once, so each entry is the correctly rounded quotient of an exact
    integer by n.  The numerators:

    * COL_MARGIN: the margin class with labels concentrated on k+1, the
      star-class sup at -eps minus the sign sum (module docstring).
    * COL_SUM: the sum over j of the unrestricted F_t^j suprema, optimum_j
      minus the off-interval sign sum.
    * COL_UNION: the union class (one interval active per function), max_j
      of the same unrestricted suprema.
    * COL_UNION_MARGIN: the margin class with every per-class slot the union
      class: the union sup at eps plus the star-class sup at -eps.
    * COL_RESTRICTED + j - 1: F_t^j restricted to its interior points.
    """

    def __init__(self, data, k: int, t: int):
        if k < 1:
            raise ValueError("need k >= 1 intervals")
        if t < 0:
            raise ValueError("t must be >= 0")
        if isinstance(data, LabeledDataset):
            labels = np.asarray(data.labels)
            if labels.size == 0 or not np.all(labels == k + 1):
                raise ValueError(f"labels must all equal k+1 = {k + 1}")
        x = _scalar_points(data)
        self.inside, self.boundary = partition_points(x, k)
        self.t = t
        self.n = x.shape[0]

    def query_block(self, block: np.ndarray) -> np.ndarray:
        b = np.asarray(block)
        n, k = self.n, len(self.inside)
        opt, interval_sums = _interval_optima(b, self.inside, self.t)
        total = b.sum(axis=1, dtype=np.int64)
        star = opt.sum(axis=1) + b[:, self.boundary].sum(axis=1, dtype=np.int64)
        values = opt - (total[:, None] - interval_sums)
        num = np.empty((b.shape[0], COL_RESTRICTED + k), dtype=np.int64)
        num[:, COL_MARGIN] = star - total
        num[:, COL_SUM] = values.sum(axis=1)
        num[:, COL_UNION] = values.max(axis=1)
        num[:, COL_UNION_MARGIN] = num[:, COL_UNION] + star
        num[:, COL_RESTRICTED:] = opt
        return num / n


@lru_cache(maxsize=64)
def _mean_abs_sign_sum(n: int) -> float:
    # E|sum of n signs| / n = C(n-1, floor((n-1)/2)) / 2^(n-1); Python's
    # int / int true division rounds the exact quotient once.
    return math.comb(n - 1, (n - 1) // 2) / 2 ** (n - 1)


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


def _theorem3_columns(
    k: int, t: int, n: int, trials: int, sample_seed: int, sign_seed: int
) -> list[RademacherEstimate]:
    """Every Theorem3SupOracle column on one uniform sample and one sign stream;
    a runaway request raises CapExceeded before the sample is drawn."""
    check_mc_request(n, trials, sign_seed)
    dataset = generate(GeneratorSpec(kind="uniform_interval", k=k, n=n, seed=sample_seed))
    return mc_rademacher_columns(Theorem3SupOracle(dataset, k, t), trials=trials, seed=sign_seed)


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
    C * reference with C = 1/epsilon.  All k estimates are columns of one
    oracle on one sign stream.  Raises CapExceeded once the candidate
    n would exceed n_budget.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    big_c = 1.0 / epsilon
    t = 1
    while True:
        n = _lawful_n(k, t)
        if n > n_budget:
            raise CapExceeded(
                f"t-selection budget exhausted: candidate t={t} needs n={n} > {n_budget}"
            )
        ref = reference_complexity(n, convention)
        ests = _theorem3_columns(
            k, t, n, trials, derive_seed(seed, t, 0), derive_seed(seed, t, 1)
        )
        if all(est.value >= big_c * ref for est in ests[COL_RESTRICTED:]):
            return t, n
        t *= 2


def verify_theorem3(config: LowerBoundConfig, variant: str = "sum") -> Theorem3Report:
    """Monte Carlo check that the margin class dominates the interval sum.

    lhs estimates the margin-class complexity (labels concentrated on k+1),
    rhs the sum over intervals of unrestricted complexities (variant
    "union": k times the union-class complexity instead).  Passes when
    lhs >= (1 - epsilon) rhs - 4 * combined std error, where the combined
    error sqrt(se_lhs^2 + ((1 - epsilon) se_rhs)^2) is the one independent
    sides would have.  Both sides are columns of one estimator call, so they
    share every sign draw and are positively correlated (in the sum variant
    n^2 Cov = Var(sum_j optimum_j) + (k - 1)(n - #boundary points) >= 0, as
    each optimum is even in its interval's signs).  The combined error then
    overstates the error of lhs - (1 - epsilon) rhs, so Monte Carlo noise
    fails the check no more often than it would on independent streams.
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
        n = config.n if config.n is not None else _lawful_n(k, t)
        auto = False
    ests = _theorem3_columns(
        k, t, n, config.trials, derive_seed(config.seed, 0, 0), derive_seed(config.seed, 0, 2)
    )
    if variant == "sum":
        lhs_est, rhs_est, rhs_scale = ests[COL_MARGIN], ests[COL_SUM], 1.0
    else:
        lhs_est, rhs_est, rhs_scale = ests[COL_UNION_MARGIN], ests[COL_UNION], float(k)
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
    epsilon: float = 0.5,
    trials: int = 500,
    seed: int = 0,
    variant: str = "sum",
) -> tuple[list[Theorem3Report], dict]:
    """Scaling sweep over k at fixed t: one ``verify_theorem3`` run per k.

    Each k runs at its default n = 16*k*t^2 (16 t^2 points per interval)
    with the seed derived from (seed, k).  Under this scaling the
    normalized rhs is constant in k by construction (each of the k
    intervals contributes one m-point DP optimum and the normalization
    n = k m cancels the count), so the quantity that exhibits the linear
    growth is the aggregate n * rhs, the summed expected interval optima.
    The summary reports its slope fit (None for a single k) and doubling
    ratios.  A repeated k raises ValueError; a k whose request is over the
    sign-cell cap raises CapExceeded before the first run.
    """
    ks = [int(k) for k in k_list]
    if not ks:
        raise ValueError("k_list must be nonempty")
    if t < 1:
        raise ValueError(f"a sweep needs t >= 1 (t = 0 makes n = 16*k*t^2 zero), got t={t}")
    if len(set(ks)) != len(ks):
        raise ValueError(f"the sweep's k values (--sweep) must be distinct, got {ks}")
    configs = [
        LowerBoundConfig(k=k, epsilon=epsilon, t=t, seed=derive_seed(seed, k), trials=trials)
        for k in ks
    ]
    for cfg in configs:  # refuse a runaway k before the first run
        check_mc_request(_lawful_n(cfg.k, t), trials, derive_seed(cfg.seed, 0, 2))
    reports = [verify_theorem3(cfg, variant) for cfg in configs]
    karr = np.asarray(ks, dtype=np.float64)
    aggregate = np.asarray([r.n * r.rhs for r in reports])
    summary = {
        "t": t,
        "points_per_interval": _lawful_n(1, t),
        "slope_aggregate_vs_k": float(np.polyfit(karr, aggregate, 1)[0]) if len(ks) > 1 else None,
        "aggregate_doubling_ratios": [
            float(aggregate[i + 1] / aggregate[i])
            for i in range(len(ks) - 1)
            if ks[i + 1] == 2 * ks[i]
        ],
        "pass": all(r.passed for r in reports),
    }
    return reports, summary
