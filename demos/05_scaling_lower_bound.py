"""Show the linear-in-k growth of the interval-class complexity sum.

The margin class built from k interval classes (one per unit interval of
[1, k+1], discontinuity budget t) dominates (1 - eps) times the sum of the
per-interval complexities; that sum of interval optima grows linearly in k
when t and the per-interval point density stay fixed.
"""
from mbl.lowerbound import LowerBoundConfig, select_t, sweep_theorem3, verify_theorem3

# Pick the smallest t whose interval classes are rich enough at eps = 0.5,
# then check the domination inequality at n = 16 k t^2.
k, eps = 4, 0.5
t, n = select_t(k, eps, seed=0)
print(f"selected t={t} for k={k}, eps={eps} (n = 16 k t^2 = {n})")

report = verify_theorem3(LowerBoundConfig(k=k, epsilon=eps, t=t, n=n, trials=2000))
print(f"lhs {report.lhs:.4f} +- {report.lhs_std_error:.4f}   "
      f"rhs {report.rhs:.4f} +- {report.rhs_std_error:.4f}   "
      f"ratio {report.ratio:.3f}   pass {report.passed}")

# Sweep k at fixed t and density: the aggregate n*rhs doubles with k while
# the normalized rhs stays flat (the 1/n normalizer absorbs the count).
reports, summary = sweep_theorem3([2, 4, 8, 16], t=2, trials=1000)
print(f"\nsweep at t=2, 64 points per interval:")
print(f"{'k':>3} {'n':>6} {'rhs':>8} {'n*rhs':>10} {'ratio':>7}")
for rep in reports:
    print(f"{rep.k:>3} {rep.n:>6} {rep.rhs:>8.4f} {rep.n * rep.rhs:>10.2f} {rep.ratio:>7.3f}")
print(f"aggregate doubling ratios: {[f'{r:.2f}' for r in summary['aggregate_doubling_ratios']]}")
print(f"aggregate slope vs k: {summary['slope_aggregate_vs_k']:.2f}")
