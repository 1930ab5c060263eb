"""Acceptance gate: one test per numbered criterion, one pass/fail line each.

Every test prints `ACCEPTANCE <n>: PASS|FAIL (<detail>)` and asserts the
criterion at its stated tolerance and runtime budget.  Run with `pytest -s`
to see the lines on passing runs.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mbl.bounds import BoundInput, compare_bounds, theorem1_bound, theorem2_bound
from mbl.core import TabulatedClass
from mbl.kernel import KernelSpec, KernelSupOracle, gram, kernel_rad_bounds
from mbl.lowerbound import (
    LowerBoundConfig,
    brute_force_interval_sup,
    interval_sup_dp,
    sweep_theorem3,
    verify_theorem3,
)
from mbl.margin import lemma1_sweep
from mbl.rademacher import (
    TabulatedSupOracle,
    exact_empirical_rademacher,
    mc_empirical_rademacher,
)
from mbl.synth import GeneratorSpec, generate


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"ACCEPTANCE {num} failed: {detail}"


def test_acceptance_1_margin_subadditivity():
    start = time.perf_counter()
    report = lemma1_sweep(seeds=1000, max_k=3, max_n=8, max_class_size=4)
    elapsed = time.perf_counter() - start
    ok = (
        report["pass"]
        and report["instances"] == 1000
        and not report["failures"]
        and report["worst_slack"] <= 1e-12
        and elapsed < 60.0
    )
    _report(1, ok, f"{report['instances']} instances, worst slack "
                   f"{report['worst_slack']:.2e}, {elapsed:.1f}s")


def test_acceptance_2_dp_equals_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(10**4):
        m = int(rng.integers(1, 13))
        t = int(rng.integers(0, 7))
        signs = rng.choice([-1, 1], size=m)
        if interval_sup_dp(signs, t) != brute_force_interval_sup(signs, t):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    _report(2, ok, f"10000 instances, {mismatches} mismatches, {elapsed:.1f}s")


def test_acceptance_3_mc_within_four_std_errors():
    rng = np.random.default_rng(77)
    hits = 0
    for case in range(100):
        n = int(rng.integers(2, 11))
        rows = int(rng.integers(1, 7))
        cls = TabulatedClass(rng.normal(size=(rows, n)))
        oracle = TabulatedSupOracle(cls)
        exact = exact_empirical_rademacher(oracle).value
        est = mc_empirical_rademacher(oracle, trials=10**4, seed=case)
        if abs(est.value - exact) <= 4.0 * est.std_error:
            hits += 1
    ok = hits >= 99
    _report(3, ok, f"{hits}/100 classes within 4 std errors")


def test_acceptance_4_margin_class_dominates_interval_sum():
    start = time.perf_counter()
    lines = []
    all_pass = True
    for k in (2, 4, 8):
        cfg = LowerBoundConfig(k=k, epsilon=0.5, trials=2000, seed=0)
        rep = verify_theorem3(cfg)
        all_pass &= rep.passed and rep.t_auto_selected and rep.n == 16 * k * rep.t * rep.t
        lines.append(f"k={k}: t={rep.t} n={rep.n} ratio={rep.ratio:.3f}")
    elapsed = time.perf_counter() - start
    ok = all_pass and elapsed < 300.0
    _report(4, ok, "; ".join(lines) + f"; {elapsed:.1f}s")


def test_acceptance_5_linear_scaling_in_k():
    # At fixed t and per-interval density the normalized interval sum is
    # constant in k by construction, so linear growth is checked on the
    # aggregate (unnormalized) sum of interval optima.
    reports, summary = sweep_theorem3([2, 4, 8, 16], t=4, trials=500, seed=0)
    ratios = summary["aggregate_doubling_ratios"]
    ok = (
        summary["pass"]
        and summary["slope_aggregate_vs_k"] > 0.0
        and len(ratios) == 3
        and all(1.7 <= r <= 2.3 for r in ratios)
    )
    _report(5, ok, f"slope={summary['slope_aggregate_vs_k']:.3f}, "
                   f"doubling ratios={[f'{r:.2f}' for r in ratios]}")


def test_acceptance_6_kernel_jensen_chain():
    rng = np.random.default_rng(6)
    hits = 0
    for case in range(50):
        n = int(rng.integers(5, 201))
        d = int(rng.integers(1, 4))
        spread = float(rng.uniform(0.1, 2.0))
        ds = generate(
            GeneratorSpec(kind="gaussian_blobs", k=int(rng.integers(2, 5)), n=n,
                          seed=case, d=d, spread=spread)
        )
        spec = KernelSpec(kind="rbf", gamma=float(rng.uniform(0.1, 1.0))) if case % 2 \
            else KernelSpec(kind="linear")
        g = gram(spec, ds.points)
        lam = float(rng.uniform(0.5, 3.0))
        est = mc_empirical_rademacher(KernelSupOracle(g, lam), trials=3000, seed=case)
        dd, worst = kernel_rad_bounds(g, lam)
        radius = math.sqrt(float(np.diag(g).max()))
        if est.value <= dd + 4.0 * est.std_error and dd <= worst(radius) + 4.0 * est.std_error:
            hits += 1
    ok = hits == 50
    _report(6, ok, f"{hits}/50 datasets satisfied the chain")


def test_acceptance_7_bound_arithmetic():
    inp = BoundInput(
        k=3, n=400, confidence_t=1.0, rad_value=0.01,
        margin_cdf=lambda d: 0.0 if d <= 0.5 else 1.0,
    )
    thm1 = theorem1_bound(inp)
    thm1_ok = abs(thm1.value - 0.33163) <= 1e-4 and thm1.delta_star == 0.5

    thm2 = theorem2_bound(
        margin_frac=0.0, radius=1.0, lambda_cap=1.0, k=2, n=10000,
        delta=0.5, confidence_t=1.0,
    )
    thm2_ok = thm2.value == 0.09

    rows = compare_bounds([2, 4, 8, 16], [100, 10**4, 10**6], [0.5, 0.25, 0.1])
    rows += compare_bounds([10], [10**4], [0.1])
    kp_rows = [r for r in rows if r["method"] == "kp"]
    ratio_ok = all(r["ratio_to_this_paper"] == float(r["k"]) for r in kp_rows)

    ok = thm1_ok and thm2_ok and ratio_ok
    _report(7, ok, f"thm1={thm1.value:.6f}, thm2={thm2.value}, "
                   f"kp ratio exact on {len(kp_rows)}/{len(kp_rows)} cells")


def _run(argv, cwd, env):
    proc = subprocess.run(
        [sys.executable, "-m", "mbl"] + argv,
        cwd=cwd, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, (argv, proc.stderr)
    return proc.stdout


def test_acceptance_8_cli_determinism(tmp_path, mbl_env):
    (tmp_path / "c.csv").write_text("1,-1,1,0.5\n-1,1,0.25,-1\n0,1,-1,1\n", encoding="utf-8")
    _run(["synth", "--kind", "uniform", "--k", "2", "--n", "50", "--seed", "4",
          "--out", "data.csv"], tmp_path, mbl_env)
    commands = [
        (["synth", "--kind", "blobs", "--k", "2", "--n", "30", "--d", "2", "--seed", "9",
          "--out", "blobs.csv"], ["blobs.csv"]),
        (["rad", "--class", "tabulated:c.csv", "--mode", "mc", "--trials", "500",
          "--seed", "3"], []),
        (["rad", "--class", "kernel:rbf:gamma=0.5", "--mode", "mc", "--trials", "500",
          "--data", "data.csv", "--lambda", "1.5"], []),
        (["bound", "eval", "--method", "thm1", "--scores", "scores.csv",
          "--labels", "labels.csv", "--t", "1", "--rad", "0.01"], []),
        (["compare", "--k-list", "2,4,8", "--n-list", "100,10000",
          "--delta-list", "0.5,0.1", "--out", "table.csv"], ["table.csv"]),
        (["verify", "lemma1", "--seeds", "20"], []),
        (["verify", "thm3", "--k", "2", "--epsilon", "0.5", "--t", "1", "--n", "32",
          "--trials", "200", "--out", "rep.csv"], ["rep.csv"]),
    ]
    # scores/labels input for the bound command
    from mbl.margin import ScoreMatrix
    from mbl.synth import write_labels_csv, write_scores_csv

    scores = np.zeros((20, 2))
    scores[:, 0] = 3.0
    write_scores_csv(ScoreMatrix(scores), tmp_path / "scores.csv")
    write_labels_csv(np.ones(20, dtype=np.int64), tmp_path / "labels.csv")

    checked = 0
    for argv, outputs in commands:
        runs = []
        for threads in (None, None, 2):
            extra = [] if threads is None else ["--threads", str(threads)]
            stdout = _run(argv + extra, tmp_path, mbl_env)
            files = {name: (tmp_path / name).read_bytes() for name in outputs}
            runs.append((stdout, files))
        assert runs[0] == runs[1] == runs[2], argv
        checked += 1
    _report(8, checked == len(commands),
            f"{checked} subcommands byte-identical across reruns and thread counts")
