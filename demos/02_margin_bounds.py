"""Evaluate both margin risk bounds on a trained scorer.

Draws Gaussian blobs, fits one-vs-all kernel ridge, inspects the margin
distribution, and evaluates the grid-minimized bound (thm1) with the
trace-based complexity and the fixed-threshold kernel bound (thm2) with
the fitted norm cap.
"""
import numpy as np

from mbl.bounds import BoundInput, theorem1_bound, theorem2_bound
from mbl.kernel import KernelSpec, kernel_trace, trace_complexity
from mbl.margin import empirical_margin_cdf, margins
from mbl.synth import GeneratorSpec, generate, train_ova_ridge

def evaluate(n):
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=3, n=n, seed=7, d=2, spread=0.6))
    kernel = KernelSpec(kind="rbf", gamma=0.8)
    scores, norms = train_ova_ridge(ds, kernel, reg=0.5)

    m = margins(scores, ds.labels)
    cdf = empirical_margin_cdf(scores, ds.labels)
    print(f"n={n}: training error {np.mean(m <= 0):.4f}, "
          f"margins min {m.min():.3f} / median {np.median(m):.3f}")
    for delta in (0.05, 0.1, 0.25):
        print(f"  P_n(margin <= {delta}) = {cdf(delta):.3f}")

    # Grid-minimized bound with the data-dependent complexity, read off the
    # kernel diagonal (no Gram matrix needed).
    lam = float(norms.max())
    rad = trace_complexity(kernel_trace(kernel, ds.points), lam, ds.n)
    inp = BoundInput(
        k=ds.k,
        n=ds.n,
        confidence_t=1.0,
        rad_value=rad,
        margin_cdf=cdf,
    )
    report = theorem1_bound(inp)
    vacuous = " (vacuous: above 1)" if report.value > 1.0 else ""
    print(f"thm1: value {report.value:.4f} at delta* {report.delta_star}{vacuous}")
    for name, term in report.terms.items():
        print(f"  {name:>10} {term:+.4f}")

    # Fixed-threshold kernel bound at the same delta*.
    radius = 1.0  # rbf: K(x, x) = 1 for every x
    report2 = theorem2_bound(
        margin_frac=cdf(report.delta_star),
        radius=radius,
        lambda_cap=lam,
        k=ds.k,
        n=ds.n,
        delta=report.delta_star,
        confidence_t=1.0,
    )
    vacuous2 = ", vacuous: above 1" if report2.value > 1.0 else ""
    print(f"thm2: value {report2.value:.4f} at delta {report2.delta_star} "
          f"(lambda={lam:.3f}{vacuous2})\n")


# Small samples leave the complexity term dominant, so the bounds are
# vacuous (above 1); more data brings both bounds below one.
evaluate(300)
evaluate(4000)
