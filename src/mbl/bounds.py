"""Margin risk bounds and order-term comparisons.

Two bound evaluators are provided.  The grid-minimized bound ("thm1")
evaluates, for margin thresholds delta in (0, 1],

    value(delta) = P_n{m <= delta} + (4k/delta) rad + sqrt(log(log2(2/delta))/n)
                   + t/sqrt(n)

and minimizes over a threshold grid (the default grid is dyadic,
{2^-j : j = 1..ceil(log2 n)} together with 1); the bound fails with
probability at most 2 exp(-2 t^2).  The kernel-class bound ("thm2") is the
fixed-delta form P_n{m <= delta} + (2k/delta) sqrt(R^2 lam^2 / n) + t/sqrt(n)
with failure probability exp(-2 t^2).  Logarithms are natural except the
inner log2.  Callers take P_n{m <= delta} from ``margin.empirical_margin_cdf``;
thm2's complexity term is ``kernel.worst_case_complexity``, which checks R
and lam.  Values are not clamped: a bound above 1 is vacuous.

``table1_term`` evaluates published order terms for comparable multi-class
margin bounds with all constants and polylog factors set to 1; they are
scaling comparisons, not valid numeric bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .kernel import worst_case_complexity

__all__ = [
    "METHODS",
    "BoundInput",
    "BoundReport",
    "default_delta_grid",
    "theorem1_bound",
    "theorem2_bound",
    "table1_term",
    "compare_bounds",
]

# Order term of each method, in the fixed method order of comparison tables.
_TABLE1 = {
    "kp": lambda k, n, delta: (k * k) / (delta * math.sqrt(n)),
    "guermeur": lambda k, n, delta: k / (delta * delta * math.sqrt(n)),
    "zhang": lambda k, n, delta: math.sqrt(k / n) / delta,
    "crammer_singer": lambda k, n, delta: (k * k) / (delta * delta * n),
    "this_paper": lambda k, n, delta: k / (delta * math.sqrt(n)),
}
METHODS = tuple(_TABLE1)


@dataclass(frozen=True)
class BoundInput:
    """Inputs shared by the grid-minimized bound."""

    k: int
    n: int
    confidence_t: float
    rad_value: float
    margin_cdf: Callable[[float], float]

    def __post_init__(self) -> None:
        _check_k_n_t(self.k, self.n, self.confidence_t)
        if not (math.isfinite(self.rad_value) and self.rad_value >= 0):
            raise ValueError(f"rad_value must be finite and >= 0, got {self.rad_value!r}")


@dataclass(frozen=True)
class BoundReport:
    """A bound value with its additive term breakdown.

    Evaluators construct value as the exactly rounded sum of the terms, so
    the breakdown reproduces the value to within 1e-12.
    """

    method: str
    value: float
    delta_star: float
    terms: dict[str, float]


def default_delta_grid(n: int) -> list[float]:
    """Dyadic grid {2^-j : j = 1..ceil(log2 n)} plus 1.0, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    levels = math.ceil(math.log2(n)) if n > 1 else 0
    grid = [2.0 ** -j for j in range(levels, 0, -1)]
    grid.append(1.0)
    return grid


def _check_k_n_t(k: int, n: int, confidence_t: float | None = None) -> None:
    """ValueError unless k >= 2, n >= 1 and a given confidence_t is finite and > 0."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    if confidence_t is not None and not (math.isfinite(confidence_t) and confidence_t > 0):
        raise ValueError(f"confidence_t must be finite and > 0, got {confidence_t!r}")


def _check_delta(delta: float) -> float:
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return float(delta)


def _finite_total(method: str, delta: float, terms: dict[str, float]) -> float:
    """The exactly rounded sum of the terms; ValueError unless all are finite."""
    try:
        value = math.fsum(terms.values())
    except OverflowError:  # finite terms whose sum leaves the float range
        value = math.inf
    if not all(map(math.isfinite, (*terms.values(), value))):
        raise ValueError(f"{method} bound at delta={delta!r} is not finite: terms {terms}")
    return value


def _thm1_terms(inp: BoundInput, delta: float) -> dict[str, float]:
    return {
        "empirical": float(inp.margin_cdf(delta)),
        "complexity": (4.0 * inp.k / delta) * inp.rad_value,
        "loglog": math.sqrt(math.log(math.log2(2.0 / delta)) / inp.n),
        "confidence": inp.confidence_t / math.sqrt(inp.n),
    }


def theorem1_bound(inp: BoundInput, delta_grid: Sequence[float] | None = None) -> BoundReport:
    """Minimize the four-term margin bound over a threshold grid.

    Ties prefer the smallest delta.  Raises ValueError if any grid point has
    a non-finite term or value.
    """
    grid = list(delta_grid) if delta_grid is not None else default_delta_grid(inp.n)
    if not grid:
        raise ValueError("delta grid must be nonempty")
    terms_at = {d: _thm1_terms(inp, d) for d in sorted(_check_delta(d) for d in grid)}
    totals = {d: _finite_total("thm1", d, terms) for d, terms in terms_at.items()}
    best_delta = min(totals, key=totals.__getitem__)  # the first, smallest, delta on ties
    return BoundReport(
        method="thm1", value=totals[best_delta], delta_star=best_delta, terms=terms_at[best_delta]
    )


def theorem2_bound(
    margin_frac: float,
    radius: float,
    lambda_cap: float,
    k: int,
    n: int,
    delta: float,
    confidence_t: float,
) -> BoundReport:
    """Fixed-delta kernel-class bound (no grid minimization).

    value = margin_frac + (2k/delta) sqrt(R^2 lam^2 / n) + t/sqrt(n), as an
    exactly rounded sum of the three terms; ValueError unless every term and
    the value are finite, and (through ``worst_case_complexity``) unless R
    and lam are finite and >= 0.
    """
    _check_delta(delta)
    _check_k_n_t(k, n, confidence_t)
    if not 0.0 <= margin_frac <= 1.0:
        raise ValueError("margin_frac must lie in [0, 1]")
    terms = {
        "empirical": float(margin_frac),
        "complexity": (2.0 * k / delta) * worst_case_complexity(radius, lambda_cap, n),
        "confidence": confidence_t / math.sqrt(n),
    }
    value = _finite_total("thm2", delta, terms)
    return BoundReport(method="thm2", value=value, delta_star=float(delta), terms=terms)


def table1_term(method: str, k: int, n: int, delta: float) -> float:
    """Order-term value for one method at (k, n, delta), unit constants.

    kp: k^2/(delta sqrt(n)); guermeur: k/(delta^2 sqrt(n));
    zhang: sqrt(k/n)/delta; crammer_singer: k^2/(delta^2 n);
    this_paper: k/(delta sqrt(n)).  Raises ValueError unless the term is a
    finite float.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    _check_k_n_t(k, n)
    _check_delta(delta)
    try:
        value = _TABLE1[method](k, n, delta)
    except (OverflowError, ZeroDivisionError):  # k or n beyond floats, delta^2 underflow
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{method} term at k={k}, n={n}, delta={delta!r} is not a finite float")
    return value


def compare_bounds(
    k_list: Sequence[int], n_list: Sequence[int], delta_list: Sequence[float]
) -> list[dict]:
    """Order-term table over a (k, n, delta) grid.

    One row per grid cell per method, in METHODS order, with each row's
    ratio to this_paper at the same cell.
    """
    ks, ns, ds = list(k_list), list(n_list), list(delta_list)
    if not ks or not ns or not ds:
        raise ValueError("comparison grid must be nonempty in k, n, and delta")
    rows = []
    for k in ks:
        for n in ns:
            for delta in ds:
                base = table1_term("this_paper", k, n, delta)
                for method in METHODS:
                    value = table1_term(method, k, n, delta)
                    rows.append(
                        {
                            "method": method,
                            "k": int(k),
                            "n": int(n),
                            "delta": float(delta),
                            "value": value,
                            "ratio_to_this_paper": value / base,
                        }
                    )
    return rows
