"""The three benchmark workloads: inputs from a seed, commands, output checks.

Each workload's ``prepare`` builds its inputs from the benchmark seed through
mbl's public API, writes them into the run's work directory and returns the
benchmark's own reference values.  It runs in a process of its own
(prepare.py), so the process that spawns the timed commands stays small and
their peak RSS is their own.  ``commands`` turns the seed and the reference
values into the command list; it needs neither numpy nor mbl.  The program
only ever sees the written files and the command arguments.  Why each
workload exists, which layer it loads and which it leaves idle is written
next to it below and in README.md.

A check returns a list of problems; an empty list means the output is
correct.  Checks test what the paper and the CLI contract promise, never how
the package computes it, so they hold across refactors.
"""
from __future__ import annotations

import csv
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Check = Callable[[dict], "list[str]"]


@dataclass(frozen=True)
class Command:
    """One ``python -m mbl`` invocation of a workload."""

    name: str  # reported as cli.<name>_s
    argv: tuple[str, ...]
    check: Check
    # Monte Carlo commands: standard error of a payload, and the standard
    # error that time_to_se_s scales each command's wall time to.
    std_error: Callable[[dict], float] | None = None
    se_target: float | None = None
    same_stdout_as: str | None = None


class Phases:
    """Wall time of the named set-up steps."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start


def _key(seed: int, tag: int) -> int:
    """Independent 64-bit generator key per (benchmark seed, input)."""
    import numpy as np

    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0])


def _finite_positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def _close(got, want: float, tol: float = 1e-12) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol * max(1.0, abs(want))


def _expect(out: dict, **want) -> list[str]:
    return [
        f"{key} is {out.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if out.get(key) != value
    ]


# --- thm3-dp ---------------------------------------------------------------
# Loads lowerbound: about 98% of the time is the interval DP behind the
# Theorem 3 oracles, and sign generation is about 1%.  kernel, margin and
# bounds do no work.  ROADMAP item 2 (one DP engine, batch sizing, the
# --threads pool) must show here.  The auto-t k = 16 run (75.7 s) is left out:
# too long to repeat; the fixed-t k = 16 command covers the same n = 16384 DP.


def check_thm3(**want) -> Check:
    def check(out: dict) -> list[str]:
        problems = _expect(out, **want)
        if out.get("pass") is not True:
            problems.append("pass is not true")
        ses = out.get("std_errors") or {}
        values = [out.get("lhs"), out.get("rhs"), ses.get("lhs"), ses.get("rhs")]
        if not all(_finite_positive(v) for v in values):
            problems.append(f"lhs, rhs and standard errors must be finite and > 0: {values}")
        k, t, n = out.get("k"), out.get("t"), out.get("n")
        if all(isinstance(v, int) for v in (k, t, n)) and n < 16 * k * t * t:
            problems.append(f"n={n} is below 16 k t^2")
        return problems

    return check


def thm3_se(out: dict) -> float:
    return max(out["std_errors"].values())


def check_sweep(ks: list[int], ns: list[int]) -> Check:
    def check(out: dict) -> list[str]:
        rows = out.get("rows") or []
        summary = out.get("summary") or {}
        problems = []
        if [(r.get("k"), r.get("n")) for r in rows] != list(zip(ks, ns)):
            problems.append(f"rows cover (k, n)={[(r.get('k'), r.get('n')) for r in rows]}")
        for row in rows:
            problems += [f"k={row.get('k')}: {p}" for p in check_thm3()(row)]
        if summary.get("pass") is not True:
            problems.append("summary.pass is not true")
        ratios = summary.get("aggregate_doubling_ratios") or []
        if len(ratios) != len(ks) - 1 or not all(
            isinstance(r, float) and 1.7 <= r <= 2.3 for r in ratios
        ):
            problems.append(f"aggregate doubling ratios {ratios} not all in [1.7, 2.3]")
        return problems

    return check


def sweep_se(out: dict) -> float:
    return max(thm3_se(row) for row in out["rows"])


THM3_KS = [2, 4, 8, 16]


def prepare_thm3_dp(seed: int, work: Path, phases: Phases) -> dict:
    # The program draws its samples from --seed itself, so there are no input
    # files.  The reference values: the t and n the library's select_t picks
    # for this seed, which the auto-t command must report (about 0.3 s of
    # interval DP), and the sample sizes of the fixed-t commands, whose
    # parameters are validated through the public config type (n = 16 k t^2;
    # the sweep's density is 16 t^2 points per interval).
    from mbl import LowerBoundConfig, select_t

    with phases("reference"):
        auto_t, auto_n = select_t(8, 0.5, seed=seed)
        LowerBoundConfig(k=16, epsilon=0.5, t=8, seed=seed, trials=200)
        for k in THM3_KS:
            LowerBoundConfig(k=k, epsilon=0.5, t=4, n=16 * 4 * 4 * k, seed=seed, trials=500)
    return {
        "auto_t": auto_t,
        "auto_n": auto_n,
        "k16_n": 16 * 16 * 8 * 8,
        "sweep_n": [16 * 4 * 4 * k for k in THM3_KS],
    }


def commands_thm3_dp(seed: int, refs: dict) -> list[Command]:
    s = str(seed)
    return [
        Command(
            "thm3_auto",
            ("verify", "thm3", "--k", "8", "--epsilon", "0.5", "--seed", s),
            check_thm3(k=8, t=refs["auto_t"], n=refs["auto_n"]),
            thm3_se,
            0.0025,
        ),
        Command(
            "thm3_k16",
            ("verify", "thm3", "--k", "16", "--t", "8", "--epsilon", "0.5",
             "--trials", "200", "--threads", "2", "--seed", s),
            check_thm3(k=16, t=8, n=refs["k16_n"]),
            thm3_se,
            0.009,
        ),
        Command(
            "thm3_sweep",
            ("verify", "thm3", "--sweep", ",".join(map(str, THM3_KS)), "--t", "4",
             "--epsilon", "0.5", "--trials", "500", "--seed", s),
            check_sweep(THM3_KS, refs["sweep_n"]),
            sweep_se,
            0.01,
        ),
    ]


# --- kernel-bound ----------------------------------------------------------
# Loads kernel: the n x n rbf Gram (built from an n x n x d difference
# tensor), the eigvalsh PSD check and the einsum quadratic form.  ROADMAP
# item 5 (trace-only complexity, cheap PSD check) must show here, in wall_s
# and max_rss_mb.  The interval DP does no work.  The two rad runs differ
# only in --threads, so the pool is measured on an oracle that releases the
# GIL, and their stdout must be byte-identical.

GAMMA = 0.5
KERNEL = f"rbf:gamma={GAMMA}"
BIG_N, SMALL_N, CLASSES, DIM = 4000, 300, 4, 3
RAD_TRIALS, PILOT_DRAWS = 100000, 20000


def check_bound(method: str, complexity: Callable[[float], float], delta=None) -> Check:
    """Terms sum to the value; the complexity term, at the reported delta*,
    equals the benchmark's own arithmetic."""

    def check(out: dict) -> list[str]:
        problems = _expect(out, method=method)
        terms, value, delta_star = out.get("terms") or {}, out.get("value"), out.get("delta_star")
        if not isinstance(value, float) or not all(isinstance(v, float) for v in terms.values()):
            return problems + [f"value {value!r} or terms {terms!r} are not numbers"]
        if not _close(math.fsum(terms.values()), value):
            problems.append(f"terms sum to {math.fsum(terms.values())!r}, value is {value!r}")
        in_range = isinstance(delta_star, float) and 0.0 < delta_star <= 1.0
        if not in_range or delta not in (None, delta_star):
            problems.append(f"delta_star {delta_star!r} not in (0, 1] or not the requested delta")
        elif not _close(terms.get("complexity"), complexity(delta_star)):
            problems.append(
                f"complexity term {terms.get('complexity')!r}, expected {complexity(delta_star)!r}"
            )
        return problems

    return check


def check_kernel_rad(n: int, trials: int, pilot_mean: float, pilot_se: float) -> Check:
    # lambda = 1.  Jensen: E sqrt(e'Ge) <= sqrt(trace G) = sqrt(n) for rbf.
    # The benchmark's own Monte Carlo estimate (set-up) must agree within
    # 4 combined standard errors.
    def check(out: dict) -> list[str]:
        problems = _expect(out, method="monte-carlo", n=n, trials=trials)
        value, se = out.get("value"), out.get("std_error")
        if not _finite_positive(se) or not isinstance(value, float):
            return problems + [f"value {value!r} or std_error {se!r} is not a finite number"]
        cap = math.sqrt(n) / n
        if not 0.0 <= value <= cap + 4.0 * se:
            problems.append(f"value {value!r} outside [0, {cap!r} + 4 se]")
        if abs(value - pilot_mean) > 4.0 * math.hypot(se, pilot_se):
            problems.append(f"value {value!r} not within 4 se of the reference {pilot_mean!r}")
        return problems

    return check


def pilot_kernel_rad(points, seed: int) -> tuple[float, float]:
    """Mean and per-draw standard deviation of (1/n) sqrt(e'Ge), rbf Gram,
    over PILOT_DRAWS sign vectors of the benchmark's own."""
    import numpy as np

    sq = (points * points).sum(axis=1)
    g = np.exp(-GAMMA * np.maximum(sq[:, None] + sq[None, :] - 2.0 * points @ points.T, 0.0))
    rng = np.random.Generator(np.random.Philox(key=_key(seed, 4)))
    eps = rng.integers(0, 2, size=(PILOT_DRAWS, len(points))) * 2.0 - 1.0
    draws = np.sqrt(np.maximum(((eps @ g) * eps).sum(axis=1), 0.0)) / len(points)
    return float(draws.mean()), float(draws.std())


def mc_se(out: dict) -> float:
    return out["std_error"]


def prepare_kernel_bound(seed: int, work: Path, phases: Phases) -> dict:
    from mbl import GeneratorSpec, KernelSpec, generate, train_ova_ridge
    from mbl.synth import write_dataset_csv, write_labels_csv, write_scores_csv

    with phases("generate"):
        big = generate(
            GeneratorSpec(kind="gaussian_blobs", k=CLASSES, n=BIG_N, seed=_key(seed, 1), d=DIM)
        )
        small = generate(
            GeneratorSpec(kind="gaussian_blobs", k=CLASSES, n=SMALL_N, seed=_key(seed, 2), d=DIM)
        )
    with phases("ridge"):
        scores, norms = train_ova_ridge(big, KernelSpec(kind="rbf", gamma=GAMMA), reg=1.0)
        # A norm cap covering the fitted scorer: the Frobenius norm of W.
        lam = math.sqrt(math.fsum(float(v) ** 2 for v in norms))
    with phases("write"):
        write_dataset_csv(big, work / "blobs.csv")
        write_scores_csv(scores, work / "scores.csv")
        write_labels_csv(big.labels, work / "labels.csv")
        write_dataset_csv(small, work / "small.csv")
    with phases("reference"):
        rad_mean, rad_sigma = pilot_kernel_rad(small.points, seed)
    return {"lambda": lam, "rad_mean": rad_mean, "rad_sigma": rad_sigma}


def commands_kernel_bound(seed: int, refs: dict) -> list[Command]:
    lam, delta = refs["lambda"], 0.5
    # rbf has K(x, x) = 1, so trace G = n and thm1's data-dependent
    # complexity is lam sqrt(n) / n, scaled by 4k / delta*.  thm2 uses the
    # norm-ball worst case sqrt(R^2 lam^2 / n) with R = 1, scaled by 2k / delta.
    rad_thm1 = lam * math.sqrt(BIG_N) / BIG_N
    rad_thm2 = math.sqrt(1.0 * 1.0 * lam * lam / BIG_N)
    rad = ("rad", "--class", f"kernel:{KERNEL}", "--data", "small.csv", "--lambda", "1",
           "--mode", "mc", "--trials", str(RAD_TRIALS), "--seed", str(seed))
    rad_check = check_kernel_rad(
        SMALL_N, RAD_TRIALS, refs["rad_mean"], refs["rad_sigma"] / math.sqrt(PILOT_DRAWS)
    )
    # The accuracy of RAD_TRIALS plain draws on this sample (see rad_mc).
    rad_target = refs["rad_sigma"] / math.sqrt(RAD_TRIALS)
    scores = ("--scores", "scores.csv", "--labels", "labels.csv", "--t", "1", "--lambda", repr(lam))
    return [
        Command(
            "bound_thm1",
            ("bound", "eval", "--method", "thm1") + scores
            + ("--data", "blobs.csv", "--kernel", KERNEL),
            check_bound("thm1", lambda d: (4.0 * CLASSES / d) * rad_thm1),
        ),
        Command("rad_kernel_t1", rad + ("--threads", "1"), rad_check, mc_se, rad_target),
        Command("rad_kernel_t2", rad + ("--threads", "2"), rad_check, mc_se, rad_target,
                same_stdout_as="rad_kernel_t1"),
        Command(
            "bound_thm2",
            ("bound", "eval", "--method", "thm2") + scores + ("--delta", repr(delta), "--R", "1"),
            check_bound("thm2", lambda d: (2.0 * CLASSES / d) * rad_thm2, delta),
        ),
    ]


# --- small-exact -----------------------------------------------------------
# Many cheap evaluations.  rademacher is used the other way round from
# thm3-dp: the oracle is a small matvec, so sign generation at small n, the
# per-trial reduction and exact enumeration dominate.  margin generates and
# materialises the Lemma 1 instances.  CLI start-up is a large share (four
# short processes).  ROADMAP item 4 (streaming reduction) must show here; the
# DP and the Gram do no work.  The runaway `rad --trials 1e11` case is left
# out: it is item 4's missing cap and would run for minutes before the OS
# kills it.

EXACT_SHAPE, MC_SHAPE, MC_TRIALS, LEMMA1_SEEDS = (64, 20), (8, 16), 2_000_000, 2000
COMPARE = {
    "--k-list": [2, 4, 8, 16, 32],
    "--n-list": [100, 1000, 10000],
    "--delta-list": [0.5, 0.1, 0.01],
}


def enumerated_rademacher(values) -> tuple[float, float]:
    """Signed empirical Rademacher complexity by enumerating all 2^n signs.

    Returns the mean of the per-draw supremum and its exact standard
    deviation over the 2^n equally likely sign vectors.
    """
    import numpy as np

    m, n = values.shape
    total = 1 << n
    sups = []
    for lo in range(0, total, 1 << 14):
        idx = np.arange(lo, min(lo + (1 << 14), total), dtype=np.int64)
        signs = ((idx[:, None] >> np.arange(n, dtype=np.int64)) & 1) * 2.0 - 1.0
        sups.append((signs @ values.T).max(axis=1) / n)
    draws = np.concatenate(sups)
    mean = math.fsum(draws.tolist()) / total
    return mean, float(np.sqrt(np.mean((draws - mean) ** 2)))


def _write_class(values, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in values:
            writer.writerow([format(float(v), ".17g") for v in row])


def check_lemma1(seeds: int) -> Check:
    def check(out: dict) -> list[str]:
        return _expect(out, instances=seeds, failures=[], **{"pass": True})

    return check


def check_tabulated(reference: float, method: str, trials: int) -> Check:
    def check(out: dict) -> list[str]:
        problems = _expect(out, method=method, trials=trials)
        value, se = out.get("value"), out.get("std_error")
        if not isinstance(value, float):
            return problems + [f"value {value!r} is not a number"]
        if method == "exact-enumeration":
            if not _close(value, reference):
                problems.append(f"value {value!r}, enumeration gives {reference!r}")
        elif not _finite_positive(se) or abs(value - reference) > 4.0 * se:
            problems.append(f"value {value!r} is not within 4 se ({se!r}) of {reference!r}")
        return problems

    return check


def check_compare(rows_expected: int) -> Check:
    def check(out: dict) -> list[str]:
        rows = out.get("rows") or []
        problems = _expect(out, row_count=rows_expected)
        if len(rows) != rows_expected:
            problems.append(f"{len(rows)} rows, expected {rows_expected}")
        own = [r.get("ratio_to_this_paper") for r in rows if r.get("method") == "this_paper"]
        if len(own) != rows_expected // 5 or any(r != 1.0 for r in own):
            problems.append("this_paper rows must all have ratio 1")
        return problems

    return check


def prepare_small_exact(seed: int, work: Path, phases: Phases) -> dict:
    import numpy as np
    from mbl import TabulatedClass

    with phases("generate"):
        rng = np.random.Generator(np.random.Philox(key=_key(seed, 3)))
        exact_cls = TabulatedClass(rng.standard_normal(EXACT_SHAPE))
        mc_cls = TabulatedClass(rng.standard_normal(MC_SHAPE))
    with phases("write"):
        _write_class(exact_cls.values, work / "exact.csv")
        _write_class(mc_cls.values, work / "mc.csv")
    with phases("reference"):
        exact, _ = enumerated_rademacher(exact_cls.values)
        mc, mc_sigma = enumerated_rademacher(mc_cls.values)
    return {"exact": exact, "mc": mc, "mc_sigma": mc_sigma}


def commands_small_exact(seed: int, refs: dict) -> list[Command]:
    rows = 5 * math.prod(len(v) for v in COMPARE.values())
    compare = ["compare"]
    for flag, values in COMPARE.items():
        compare += [flag, ",".join(map(str, values))]
    return [
        Command(
            "lemma1",
            ("verify", "lemma1", "--seeds", str(LEMMA1_SEEDS), "--max-n", "10",
             "--base-seed", str(seed * LEMMA1_SEEDS % (1 << 63))),
            check_lemma1(LEMMA1_SEEDS),
        ),
        Command("rad_exact", ("rad", "--class", "tabulated:exact.csv", "--mode", "exact"),
                check_tabulated(refs["exact"], "exact-enumeration", 0)),
        Command(
            "rad_mc",
            ("rad", "--class", "tabulated:mc.csv", "--mode", "mc", "--trials", str(MC_TRIALS),
             "--seed", str(seed)),
            check_tabulated(refs["mc"], "monte-carlo", MC_TRIALS),
            mc_se,
            # The accuracy of MC_TRIALS plain draws on this class.  The
            # per-draw spread differs a lot between random 8 x 16 classes, so
            # an absolute target would make time_to_se_s follow the seed.
            refs["mc_sigma"] / math.sqrt(MC_TRIALS),
        ),
        Command("compare", tuple(compare) + ("--out", "compare.csv"), check_compare(rows)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path, Phases], dict]  # needs numpy and mbl
    commands: Callable[[int, dict], "list[Command]"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("thm3-dp", prepare_thm3_dp, commands_thm3_dp),
        Workload("kernel-bound", prepare_kernel_bound, commands_kernel_bound),
        Workload("small-exact", prepare_small_exact, commands_small_exact),
    )
}

# Every command any workload runs, for the per-layer cli.<name>_s metrics.
COMMAND_NAMES = (
    "thm3_auto", "thm3_k16", "thm3_sweep",
    "bound_thm1", "rad_kernel_t1", "rad_kernel_t2", "bound_thm2",
    "lemma1", "rad_exact", "rad_mc", "compare",
)
