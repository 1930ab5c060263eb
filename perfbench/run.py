"""mbl benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload thm3-dp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test --seed 1

A run builds the workload's inputs from ``--seed`` (set-up, in prepare.py,
repeated at least three times; ``setup_s`` is the median), then runs the workload's list
of ``python -m mbl`` commands as subprocesses, one after another, in passes,
until ``--seconds`` have been spent.  It is a closed loop with one client;
no command uses more than two program threads.  Every output is checked and
every command repeated in a run must print byte-identical stdout.

``--trace 0`` reports the end-to-end metrics (medians over the passes):
wall_s, cpu_s, max_rss_mb, time_to_se_s and setup_s.  Failed commands are
counted in the result's ``failed`` out of ``attempted`` (fail_frac, printed
on stderr).  ``--trace 1`` alternates untraced passes with passes in which
each command runs under trace_driver.py, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The environment goes to stderr and, with
the full per-pass record, to .perfbench_work/ at the checkout root.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
STARTUP_REPS = 5
DEADLINE_S = 170.0  # every run must end within 180 s


def _fail_usage(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# --- running commands ------------------------------------------------------


class Runner:
    """Runs commands in one work directory and checks their outputs."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "MBL_THREADS"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.attempted = 0
        self.failures: list[str] = []
        self.first_stdout: dict[str, str] = {}

    def spawn(self, argv: list[str], tag: str) -> dict:
        """Run argv to completion; wall, CPU and peak RSS come from wait4."""
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
        }

    def run(self, cmd, prefix: list[str], pass_outputs: dict) -> dict:
        """Run one command and judge its output."""
        manifest = self.work / f"{cmd.name}.manifest.json"
        manifest.unlink(missing_ok=True)
        result = self.spawn(prefix + list(cmd.argv) + ["--manifest", manifest.name], cmd.name)
        result["manifest"] = manifest
        self.judge(cmd, result, pass_outputs)
        return result

    def judge(self, cmd, result: dict, pass_outputs: dict) -> None:
        """Count one attempt; record its problems (none means correct)."""
        self.attempted += 1
        problems = []
        if result["code"] != 0:
            problems.append(f"exit code {result['code']}: {result['stderr'].strip()[-300:]}")
        payload, parse_problems = parse_stdout(result["stdout"])
        problems += parse_problems
        if not result["manifest"].is_file():
            problems.append("no manifest written")
        if payload is not None:
            try:
                problems += cmd.check(payload)
            except Exception as exc:  # a malformed payload is a failed check
                problems.append(f"check raised {exc!r}")
            if cmd.std_error is not None and not problems:
                result["se"] = cmd.std_error(payload)
        if cmd.same_stdout_as and pass_outputs.get(cmd.same_stdout_as) != result["stdout"]:
            problems.append(f"stdout differs from {cmd.same_stdout_as}")
        earlier = self.first_stdout.setdefault(cmd.name, result["stdout"])
        if earlier != result["stdout"]:
            problems.append("stdout differs from the first run of this command")
        pass_outputs[cmd.name] = result["stdout"]
        result["payload"] = payload
        result["problems"] = problems
        if problems:
            self.failures.append(f"{cmd.name}: " + "; ".join(problems))


def parse_stdout(text: str) -> tuple[dict | None, list[str]]:
    """The payload of stdout that is exactly one JSON object line."""
    lines = text.split("\n")
    if len(lines) != 2 or lines[1] != "":
        return None, [f"stdout has {len(lines) - 1} lines, expected one JSON line"]
    try:
        payload = json.loads(lines[0])
    except ValueError:
        return None, ["stdout is not JSON"]
    if not isinstance(payload, dict):
        return None, ["stdout JSON is not an object"]
    return payload, []


def _mbl() -> list[str]:
    return [sys.executable, "-m", "mbl"]


def _traced(spans: Path) -> list[str]:
    return [sys.executable, str(HERE / "trace_driver.py"), str(spans)]


def repeat(step, seconds: float, runner: Runner) -> list:
    """Call step() until `seconds` have passed (at least once).

    Stops early after a failed command, or when one more call would likely
    run past the run's deadline.
    """
    start = time.monotonic()
    rounds = []
    while True:
        began = time.monotonic()
        rounds.append(step())
        now = time.monotonic()
        if now - start >= seconds or runner.failures or now + (now - began) > runner.deadline:
            return rounds


def run_pass(runner: Runner, commands) -> list[dict]:
    outputs: dict[str, str] = {}
    return [runner.run(cmd, _mbl(), outputs) for cmd in commands]


def pass_metrics(results: list[dict], commands) -> dict:
    tts = 0.0
    for cmd, res in zip(commands, results):
        if cmd.se_target is not None and "se" in res:
            tts += res["wall"] * (res["se"] / cmd.se_target) ** 2
    return {
        "wall_s": math.fsum(r["wall"] for r in results),
        "cpu_s": math.fsum(r["cpu"] for r in results),
        "max_rss_mb": max(r["rss_mib"] for r in results),
        "time_to_se_s": tts,
    }


def prepare(name: str, seed: int, work: Path) -> dict:
    """Run prepare.py: the workload's inputs, reference values and environment."""
    env = {k: v for k, v in os.environ.items() if k != "MBL_THREADS"}
    done = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), name, str(seed), str(work)],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=DEADLINE_S / 2,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{done.stderr}")
    return json.loads(done.stdout)


# --- per-layer metrics -------------------------------------------------------


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def traced_pass(runner: Runner, commands) -> dict:
    """One pass with every command under trace_driver.py; summed layer metrics."""
    import tracer

    sums: dict = {"trace.wall_s": 0.0, "trace.write_s": 0.0, "cli.digest_bytes": 0, "_missing": []}
    outputs: dict[str, str] = {}
    for cmd in commands:
        spans_path = runner.work / f"{cmd.name}.spans.json"
        spans_path.unlink(missing_ok=True)
        res = runner.run(cmd, _traced(spans_path), outputs)
        sums["trace.wall_s"] += res["wall"]
        sums["cli.digest_bytes"] += _digest_bytes(res["manifest"])
        try:
            with open(spans_path, encoding="utf-8") as handle:
                record = json.loads(handle.readline())
                sums["trace.write_s"] += json.loads(handle.readline())["write_ns"] / 1e9
        except (OSError, ValueError, KeyError) as exc:
            if not res["problems"]:
                runner.failures.append(f"{cmd.name}: no span record ({exc!r})")
            continue
        if record["counter_errors"]:
            print(f"perfbench: {cmd.name}: {record['counter_errors']} counter errors",
                  file=sys.stderr)
        sums["_missing"] = record["missing"]
        for key, value in tracer.layer_metrics([tuple(s) for s in record["spans"]],
                                               record["missing"]).items():
            if value is None or sums.get(key, 0.0) is None:
                sums[key] = None
            else:
                sums[key] = sums.get(key, 0) + value
    return sums


def _digest_bytes(manifest: Path) -> int:
    """Bytes the CLI hashed: the sizes of the inputs its manifest lists."""
    try:
        inputs = json.loads(manifest.read_text(encoding="utf-8"))["inputs"]
    except (OSError, ValueError, KeyError):
        return 0
    return sum((manifest.parent / path).stat().st_size for path in inputs)


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_report(traced: list[dict], untraced: list[list[dict]], commands, startup: list[float],
                 setup_steps: dict) -> dict:
    """Medians over the traced passes, plus rates, start-up and closure."""
    from tracer import LAYERS
    from workloads import COMMAND_NAMES

    keys = {k for t in traced for k in t if not k.startswith("_")}
    med = {
        k: None if any(t.get(k) is None for t in traced)
        else statistics.median(t[k] for t in traced)
        for k in keys
    }
    startup_s = statistics.median(startup)
    untraced_wall = statistics.median(math.fsum(r["wall"] for r in p) for p in untraced)
    wall = med["trace.wall_s"]
    layer_self = math.fsum(med.get(f"{layer}.self_s") or 0.0 for layer in LAYERS)
    out = dict(med)
    out.update(
        {
            "rademacher.trials_per_batch": _ratio(med.get("rademacher.trials"),
                                                  med.get("rademacher.batches")),
            "lowerbound.select_t_accept_ratio": _ratio(med.get("lowerbound.select_t_calls"),
                                                       med.get("lowerbound.t_candidates")),
            "lowerbound.dp_cells_per_s": _ratio(med.get("lowerbound.dp_cells"),
                                                med.get("lowerbound.dp_s")),
            "kernel.quad_gflops": _ratio(
                None if med.get("kernel.quad_flops") is None else med["kernel.quad_flops"] / 1e9,
                med.get("kernel.quad_s"),
            ),
            "cli.startup_s": startup_s,
            "trace.overhead_frac": (wall - untraced_wall) / untraced_wall,
            # The traced wall time that the layer self times (cli.self_s
            # included), one start-up per process and the span write leave
            # unexplained, as a share of that wall time.
            "trace.unaccounted_frac": (
                wall - layer_self - len(commands) * startup_s - med["trace.write_s"]
            ) / wall,
        }
    )
    for name in COMMAND_NAMES:
        walls = [p[i]["wall"] for p in untraced for i, c in enumerate(commands) if c.name == name]
        out[f"cli.{name}_s"] = statistics.median(walls) if walls else 0.0
    for step in ("generate", "ridge", "write", "reference"):
        out[f"setup.{step}_s"] = setup_steps.get(step, 0.0)
    return out


# --- one workload ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    started = time.monotonic()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = prepare(name, seed, work)
        env = setup["env"]
        commands = WORKLOADS[name].commands(seed, setup["refs"])
        runner = Runner(work, started + DEADLINE_S)
        # Compiles and caches the package's bytecode before anything is timed.
        runner.spawn(_mbl() + ["--version"], "version")
        record: dict = {"workload": name, "env": env, "setup": setup}
        if not trace:
            rounds = repeat(lambda: run_pass(runner, commands), seconds, runner)
            passes = [pass_metrics(results, commands) for results in rounds]
            metrics = {k: statistics.median([p[k] for p in passes]) for k in passes[0]}
            metrics["setup_s"] = setup["setup_s"]
            record.update(passes=passes, commands=[
                {c.name: {k: r.get(k) for k in ("wall", "cpu", "rss_mib", "se")}
                 for c, r in zip(commands, results)} for results in rounds
            ])
            units = declared_metrics("end_to_end")
        else:
            startup = [runner.spawn(_mbl() + ["--version"], "version")["wall"]
                       for _ in range(STARTUP_REPS)]
            rounds = repeat(
                lambda: (run_pass(runner, commands), traced_pass(runner, commands)), seconds, runner
            )
            untraced, traced = [r[0] for r in rounds], [r[1] for r in rounds]
            metrics = layer_report(traced, untraced, commands, startup, setup["steps"])
            if traced[-1]["_missing"]:
                print(f"perfbench: wrap targets missing: {traced[-1]['_missing']}", file=sys.stderr)
            record.update(startup_s=startup, traced=traced)
            units = declared_metrics("per_layer")
        result = {
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
        }
        record.update(result=result, failures=runner.failures)
        for failure in runner.failures:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
        print(f"perfbench: env {json.dumps(env)}", file=sys.stderr)
        (WORK / f"last-{name}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
        )
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --- self-test -----------------------------------------------------------------


def _tamper(payload: dict) -> dict:
    """A copy of an output with one claim broken."""
    out = json.loads(json.dumps(payload))
    if "pass" in out:
        out["pass"] = False
    elif "summary" in out:
        out["summary"]["aggregate_doubling_ratios"][0] = 1.0
    elif "terms" in out:
        out["terms"]["complexity"] *= 1.5
    elif "row_count" in out:
        out["rows"] = out["rows"][:-1]
    else:
        out["value"] += 1.0
    return out


def self_test(seed: int) -> int:
    """Judge tampered outputs of one real pass per workload; each must fail.

    Four tampers per command: a payload with one claim broken, a second
    stdout line, a repeat whose stdout differs by one byte, and a missing
    manifest.  Each is judged by a fresh Runner, so only the tampered
    property can fail it.
    """
    from workloads import WORKLOADS

    attempted = caught = 0
    for name, workload in WORKLOADS.items():
        work = WORK / f"selftest-{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            commands = workload.commands(seed, prepare(name, seed, work)["refs"])
            runner = Runner(work, time.monotonic() + DEADLINE_S)
            results = run_pass(runner, commands)
            if runner.failures:
                print(f"perfbench: self-test: untampered {name} failed: {runner.failures}",
                      file=sys.stderr)
                return 1
            outputs = {c.name: r["stdout"] for c, r in zip(commands, results)}
            for cmd, res in zip(commands, results):
                tampers = {
                    "payload": dict(res, stdout=json.dumps(_tamper(res["payload"])) + "\n"),
                    "extra line": dict(res, stdout=res["stdout"] + "{}\n"),
                    "repeat differs": dict(res, stdout=res["stdout"].replace(" ", "  ", 1)),
                    "no manifest": dict(res, manifest=work / "absent.json"),
                }
                for kind, tampered in tampers.items():
                    judge = Runner(work, 0.0)
                    if kind == "repeat differs":
                        judge.first_stdout[cmd.name] = res["stdout"]
                    judge.judge(cmd, tampered, dict(outputs))
                    attempted += 1
                    caught += bool(judge.failures)
                    print(f"perfbench: self-test {name}/{cmd.name} {kind}: "
                          f"{judge.failures or 'MISSED'}", file=sys.stderr)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": caught == attempted, "attempted": attempted, "failed": caught,
                      "metrics": {"fail_frac": {"value": caught / attempted, "unit": "ratio"}}}))
    return 0 if caught == attempted else 1


# --- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="thm3-dp, kernel-bound, small-exact or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="show that the checks can fail")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mbl" / "__init__.py").is_file():
        return _fail_usage(f"no mbl sources under {ROOT / 'src'}; run from a checkout root")
    if args.seed < 0:
        return _fail_usage("--seed must be >= 0")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.self_test:
        return self_test(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not all(n in WORKLOADS for n in names):
        return _fail_usage(f"--workload must be one of {sorted(WORKLOADS)} or all")
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for n, res in results.items():
        print(f"perfbench: {n}: fail_frac {res['failed'] / max(res['attempted'], 1):.4g} "
              f"({res['failed']}/{res['attempted']})", file=sys.stderr)
        for key, metric in res["metrics"].items():
            print(f"perfbench: {n}: {key} = {metric['value']} {metric['unit']}", file=sys.stderr)
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
