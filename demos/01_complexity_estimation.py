"""Estimate empirical Rademacher complexities three ways.

A tabulated class is enumerated exactly, sampled by Monte Carlo, and the
kernel norm-ball gets its closed-form sup oracle, estimated both by plain
Monte Carlo and as the trace bound minus the mean Jensen gap.  The MC
estimate should land within a few standard errors of the exact value, and
reruns with the same seed reproduce it bit for bit.
"""
import numpy as np

from mbl.core import TabulatedClass
from mbl.kernel import KernelSpec, KernelSupOracle, gram, kernel_mc_rademacher, kernel_rad_bounds
from mbl.rademacher import (
    TabulatedSupOracle,
    exact_empirical_rademacher,
    mc_empirical_rademacher,
)

rng = np.random.default_rng(1)

# A random 6-function class on 8 sample points.
cls = TabulatedClass(rng.normal(size=(6, 8)))
oracle = TabulatedSupOracle(cls)

exact = exact_empirical_rademacher(oracle)
mc = mc_empirical_rademacher(oracle, trials=20000, seed=0)
print(f"exact enumeration: {exact.value:.6f}")
print(f"monte carlo:       {mc.value:.6f} +- {mc.std_error:.6f}  ({mc.trials} trials)")
print(f"|difference| / std_error = {abs(mc.value - exact.value) / mc.std_error:.2f}")

# Signed vs absolute convention on a class without sign symmetry.
singleton = TabulatedClass(-np.ones((1, 8)))
signed = exact_empirical_rademacher(TabulatedSupOracle(singleton))
absolute = exact_empirical_rademacher(TabulatedSupOracle(singleton, convention="absolute"))
print(f"\nconstant-(-1) singleton: signed {signed.value:.6f}, absolute {absolute.value:.6f}")

# Kernel norm-ball: the sup has a closed form, so no enumeration is needed.
points = rng.normal(size=(40, 3))
g = gram(KernelSpec(kind="rbf", gamma=0.5), points)
ball = KernelSupOracle(g, lambda_cap=2.0)
plain = mc_empirical_rademacher(ball, trials=20000, seed=1)
est = kernel_mc_rademacher(ball, trials=20000, seed=1)
data_dependent, worst_case = kernel_rad_bounds(g, 2.0)
radius = float(np.sqrt(np.diag(g).max()))
print(f"\nkernel ball (rbf, gamma=0.5, lambda=2), same 20000 draws:")
print(f"  plain mc        {plain.value:.6f} +- {plain.std_error:.6f}")
print(f"  jensen-gap mc   {est.value:.6f} +- {est.std_error:.6f}   (trace bound minus mean gap)")
print(f"  trace bound     {data_dependent:.6f}   (lambda sqrt(trace G)/n)")
print(f"  worst case      {worst_case(radius):.6f}   (sqrt(R^2 lambda^2/n))")
