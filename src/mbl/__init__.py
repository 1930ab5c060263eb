"""Margin-bounds lab: multi-class margin complexities, bounds, and checks.

The package computes empirical Rademacher complexities of multi-class
margin hypothesis classes (exact enumeration and seeded Monte Carlo),
evaluates margin-based risk bounds with their additive term breakdowns,
tabulates competitor order terms, and numerically verifies the margin
class's subadditivity and its linear-in-k lower-bound construction.
"""
import os

# An idle OpenBLAS worker spin-waits for 2^28 cycles (about 0.1 s) after
# OpenBLAS loads and after every threaded call, which costs CPU in every
# command, even one that makes no BLAS call.  2^20 cycles is under 1 ms; a
# threaded call still wakes the worker, and shorter timeouts slowed the
# tabulated oracle's back-to-back sub-block products.  OpenBLAS reads the
# variable when numpy first loads it, so this must run before any numpy
# import: it does nothing if numpy was imported before mbl, under other BLAS
# libraries, or when the variable is already set.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from .core import (
    CapExceeded,
    LabeledDataset,
    RademacherEstimate,
    SupOracle,
    TabulatedClass,
)
from .rademacher import (
    exact_empirical_rademacher,
    exact_rademacher_columns,
    mc_empirical_rademacher,
    mc_rademacher_columns,
    trial_sign_block,
)
from .margin import (
    MarginClassSpec,
    ScoreMatrix,
    empirical_margin_cdf,
    margins,
    materialize_margin_class,
    verify_lemma1,
)
from .kernel import KernelSpec, gram, kernel_mc_rademacher, kernel_rad_bounds, parse_kernel_spec
from .bounds import (
    BoundInput,
    BoundReport,
    compare_bounds,
    table1_term,
    theorem1_bound,
    theorem2_bound,
)
from .lowerbound import (
    LowerBoundConfig,
    Theorem3SupOracle,
    brute_force_interval_sup,
    interval_sup_dp,
    select_t,
    sweep_theorem3,
    verify_theorem3,
)
from .synth import GeneratorSpec, generate, train_ova_ridge

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CapExceeded",
    "LabeledDataset",
    "RademacherEstimate",
    "SupOracle",
    "TabulatedClass",
    "exact_empirical_rademacher",
    "exact_rademacher_columns",
    "mc_empirical_rademacher",
    "mc_rademacher_columns",
    "trial_sign_block",
    "MarginClassSpec",
    "ScoreMatrix",
    "empirical_margin_cdf",
    "margins",
    "materialize_margin_class",
    "verify_lemma1",
    "KernelSpec",
    "gram",
    "kernel_mc_rademacher",
    "kernel_rad_bounds",
    "parse_kernel_spec",
    "BoundInput",
    "BoundReport",
    "compare_bounds",
    "table1_term",
    "theorem1_bound",
    "theorem2_bound",
    "LowerBoundConfig",
    "Theorem3SupOracle",
    "brute_force_interval_sup",
    "interval_sup_dp",
    "select_t",
    "sweep_theorem3",
    "verify_theorem3",
    "GeneratorSpec",
    "generate",
    "train_ova_ridge",
]
