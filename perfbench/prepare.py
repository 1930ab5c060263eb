"""Set up one workload in a process of its own and report the environment.

Usage: python prepare.py <workload> <seed> <work dir>

Writes the workload's inputs into the work directory, repeating the set-up
until it has run at least MIN_REPS times and MIN_SECONDS in total, and
prints one JSON object: the reference values, the median set-up time, the
median time of each set-up step, and the environment.  Run by run.py; the
numpy arrays it builds never enter the process that spawns the timed
commands, whose children would otherwise report that process's peak RSS as
their own.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
MIN_SECONDS = 1.0
MAX_REPS = 100_000


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _l3_bytes() -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            continue
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mbl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if k in os.environ},
        },
        "l3_bytes": _l3_bytes(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main() -> int:
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import mbl
    from workloads import WORKLOADS, Phases

    if Path(mbl.__file__).resolve().parent != ROOT / "src" / "mbl":
        print(f"perfbench: imported mbl from {mbl.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    totals, phases, spent = [], [], 0.0
    while len(totals) < MAX_REPS and (len(totals) < MIN_REPS or spent < MIN_SECONDS):
        steps = Phases()
        start = time.perf_counter()
        refs = workload.prepare(seed, work, steps)
        totals.append(time.perf_counter() - start)
        spent += totals[-1]
        phases.append(steps.seconds)
    step_medians = {k: statistics.median(p.get(k, 0.0) for p in phases) for k in phases[-1]}
    print(json.dumps({"refs": refs, "setup_s": statistics.median(totals), "reps": len(totals),
                      "steps": step_medians, "env": environment(seed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
