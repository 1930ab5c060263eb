"""Command-line frontend: estimation, bounds, comparisons, verification.

Subcommands: ``rad`` (complexity estimation), ``bound eval`` (margin risk
bounds with term breakdowns), ``compare`` (order-term table over a grid),
``verify lemma1`` / ``verify thm3`` (numerical verification experiments),
and ``synth`` (dataset generation).

Contract: stdout carries exactly one machine-readable JSON line; logs and
errors go to stderr.  Exit codes: 0 success, 1 verification failed, 2
usage or validation error, 3 resource cap exceeded (a MemoryError counts
as one), 4 unexpected internal error (traceback on stderr).  Every
completed run writes a manifest (subcommand, parameters, seed, version,
input digests, duration) so results can be traced and reproduced;
rerunning with the same manifest parameters yields byte-identical primary
outputs regardless of --threads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback

from . import __version__
from .bounds import METHODS, BoundInput, compare_bounds, theorem1_bound, theorem2_bound
from .core import CapExceeded
from .kernel import KernelSupOracle, kernel_mc_rademacher, kernel_trace, parse_kernel_spec
from .kernel import trace_complexity, worst_case_complexity
from .lowerbound import LowerBoundConfig, Theorem3Report, sweep_theorem3, verify_theorem3
from .margin import empirical_margin_cdf, lemma1_sweep
from .rademacher import (
    TabulatedSupOracle,
    check_exact_request,
    check_mc_request,
    exact_empirical_rademacher,
    mc_empirical_rademacher,
)
from .synth import (
    GeneratorSpec,
    generate,
    read_dataset_csv,
    read_labels_csv,
    read_scores_csv,
    read_tabulated_csv,
    write_dataset_csv,
    write_table,
)

_KERNEL_GRAMMAR = (
    "kernel specs: 'linear', 'rbf:gamma=<float>', 'poly:degree=<int>[,coef=<float>]', "
    "e.g. rbf:gamma=0.5 or poly:degree=2,coef=1 "
    "(coef defaults to 1; parameters parse as Python floats, bit-exact)"
)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_paths(args) -> list[str]:
    """The files the parsed arguments name: the path of ``--class tabulated:``,
    ``--data``, ``--scores`` and ``--labels``.  Every handler exits 2 on a file
    flag its mode does not read, so a successful run has read each of them."""
    source = getattr(args, "cls", "")
    paths = [source[len("tabulated:") :]] if source.startswith("tabulated:") else []
    return paths + [p for p in (getattr(args, f, None) for f in ("data", "scores", "labels")) if p]


def _parse_list(text: str, flag: str, kind: type) -> list:
    try:
        items = [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{flag} must be a comma-separated {noun} list, got {text!r}") from None
    if not items:
        raise ValueError(f"{flag} must be nonempty")
    return items


def _seed(text: str) -> int:
    """argparse type of every seed flag: an integer in [0, 2^64)."""
    if not text.isdecimal() or int(text) >= 1 << 64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2^64), got {text!r}")
    return int(text)


def _refuse(why: str, flags: dict) -> None:
    """Exit 2 naming the first of ``flags`` (flag -> parsed value) that was given."""
    for flag, value in flags.items():
        if value is not None:
            raise ValueError(f"{flag} {why}")


def _cmd_rad(args) -> tuple[int, dict]:
    source = args.cls
    if source.startswith("tabulated:"):
        refused = {"--data": args.data, "--lambda": args.lambda_cap}
        _refuse("does not apply to tabulated classes", refused)
        path = source[len("tabulated:") :]
        cls = read_tabulated_csv(path)
        if args.mode == "exact":
            check_exact_request(cls.n, rows=cls.m)
        oracle = TabulatedSupOracle(cls, convention=args.convention)
    elif source.startswith("kernel:"):
        spec = parse_kernel_spec(source[len("kernel:") :])
        if not args.data:
            raise ValueError("kernel classes need --data <dataset csv>")
        if args.lambda_cap is None:
            raise ValueError("kernel classes need --lambda <norm cap>")
        dataset = read_dataset_csv(args.data)
        # Refuse a runaway request before the Gram is built.
        if args.mode == "exact":
            check_exact_request(dataset.n)
        else:
            check_mc_request(dataset.n, args.trials, args.seed)
        oracle = KernelSupOracle.from_spec(spec, dataset.points, args.lambda_cap)
    else:
        raise ValueError("--class must be tabulated:<csv> or kernel:<spec>")
    if args.mode == "exact":
        est = exact_empirical_rademacher(oracle)
    elif isinstance(oracle, KernelSupOracle):
        est = kernel_mc_rademacher(oracle, args.trials, args.seed)
    else:
        est = mc_empirical_rademacher(oracle, trials=args.trials, seed=args.seed)
    payload = {
        "value": est.value,
        "method": est.method,
        "trials": est.trials,
        "std_error": est.std_error,
        "seed": est.seed,
        "convention": args.convention,
        "n": oracle.n,
    }
    return 0, payload


def _thm1_rad_value(args, n: int) -> float:
    if args.rad_value is not None:
        refused = {"--lambda": args.lambda_cap, "--R": args.radius, "--kernel": args.kernel,
                   "--data": args.data}
        _refuse("does not apply with --rad, which gives the complexity", refused)
        return args.rad_value
    if args.lambda_cap is None:
        raise ValueError("thm1 needs --rad, or --lambda with --R or --data")
    if args.data is not None:
        _refuse("does not apply with --data, which gives the complexity", {"--R": args.radius})
        spec = parse_kernel_spec("linear" if args.kernel is None else args.kernel)
        dataset = read_dataset_csv(args.data)
        if dataset.n != n:
            raise ValueError(f"--data has {dataset.n} rows but the scores file has {n}")
        return trace_complexity(kernel_trace(spec, dataset.points), args.lambda_cap, n)
    _refuse("needs --data: the kernel enters only through trace G", {"--kernel": args.kernel})
    if args.radius is None:
        raise ValueError("with --lambda give --R (norm-ball worst case) or --data (data dependent)")
    return worst_case_complexity(args.radius, args.lambda_cap, n)


def _cmd_bound_eval(args) -> tuple[int, dict]:
    scores = read_scores_csv(args.scores)
    labels = read_labels_csv(args.labels)
    if labels.shape[0] != scores.n:
        raise ValueError(f"labels file has {labels.shape[0]} rows, scores file has {scores.n}")
    k, n = scores.k, scores.n

    if args.method == "thm1":
        grid = None
        if args.delta is not None:
            _refuse("does not apply with --delta", {"--delta-grid": args.delta_grid})
            grid = [args.delta]
        elif args.delta_grid is not None:
            grid = _parse_list(args.delta_grid, "--delta-grid", float)
        rad_value = _thm1_rad_value(args, n)
        inp = BoundInput(
            k=k,
            n=n,
            confidence_t=args.confidence_t,
            rad_value=rad_value,
            margin_cdf=empirical_margin_cdf(scores, labels),
        )
        report = theorem1_bound(inp, delta_grid=grid)
    else:
        refused = {"--rad": args.rad_value, "--kernel": args.kernel, "--data": args.data,
                   "--delta-grid": args.delta_grid}
        _refuse("does not apply to thm2, which reads --delta, --lambda and --R", refused)
        if None in (args.delta, args.lambda_cap, args.radius):
            raise ValueError("thm2 needs --delta, --lambda and --R")
        frac = empirical_margin_cdf(scores, labels)(args.delta)
        report = theorem2_bound(
            frac, args.radius, args.lambda_cap, k, n, args.delta, args.confidence_t
        )
    payload = {
        "method": report.method,
        "value": report.value,
        "delta_star": report.delta_star,
        "terms": report.terms,
    }
    return 0, payload


def _cmd_compare(args) -> tuple[int, dict]:
    ks = _parse_list(args.k_list, "--k-list", int)
    ns = _parse_list(args.n_list, "--n-list", int)
    deltas = _parse_list(args.delta_list, "--delta-list", float)
    rows = compare_bounds(ks, ns, deltas)
    columns = ["method", "k", "n", "delta", "value", "ratio_to_this_paper"]
    write_table(args.out, columns, ([row[c] for c in columns] for row in rows))
    payload = {
        "out": args.out,
        "row_count": len(rows),
        "methods": list(METHODS),
        "k_list": ks,
        "n_list": ns,
        "delta_list": deltas,
        "rows": rows,
    }
    return 0, payload


def _cmd_verify_lemma1(args) -> tuple[int, dict]:
    report = lemma1_sweep(
        args.seeds,
        max_k=args.max_k,
        max_n=args.max_n,
        max_class_size=args.max_class_size,
        base_seed=args.base_seed,
    )
    return (0 if report["pass"] else 1), report


def _write_thm3_csv(path, reports: list[Theorem3Report]) -> None:
    rows = ([r.k, r.t, r.n, r.lhs, r.rhs, "" if r.ratio is None else r.ratio] for r in reports)
    write_table(path, ["k", "t", "n", "lhs", "rhs", "ratio"], rows)


def _cmd_verify_thm3(args) -> tuple[int, dict]:
    if args.sweep:
        # Each k runs at its default n = 16kt^2, so the sweep takes neither flag.
        _refuse("does not apply to --sweep runs", {"--k": args.k, "--n": args.n})
        ks = _parse_list(args.sweep, "--sweep", int)
        t = args.t if args.t is not None else 4
        reports, summary = sweep_theorem3(ks, t, args.epsilon, args.trials, args.seed, args.variant)
        if args.out:
            _write_thm3_csv(args.out, reports)
        payload = {"rows": [r.to_json_dict() for r in reports], "summary": summary}
        return (0 if summary["pass"] else 1), payload
    if args.k is None:
        raise ValueError("--k is required without --sweep")
    config = LowerBoundConfig(
        k=args.k,
        epsilon=args.epsilon,
        t=args.t,
        n=args.n,
        seed=args.seed,
        trials=args.trials,
        convention=args.convention,
    )
    report = verify_theorem3(config, variant=args.variant)
    if args.out:
        _write_thm3_csv(args.out, [report])
    return (0 if report.passed else 1), report.to_json_dict()


def _cmd_synth(args) -> tuple[int, dict]:
    kind = {"uniform": "uniform_interval", "blobs": "gaussian_blobs"}[args.kind]
    spec = GeneratorSpec(
        kind=kind,
        k=args.k,
        n=args.n,
        seed=args.seed,
        d=args.d,
        spread=args.spread,
    )
    dataset = generate(spec)
    write_dataset_csv(dataset, args.out)
    payload = {
        "out": args.out,
        "kind": kind,
        "n": dataset.n,
        "k": dataset.k,
        "d": dataset.d,
        "seed": args.seed,
    }
    return 0, payload


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and checked (>= 1) but starts no worker threads, so it never "
        "changes results or speed",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        help="manifest path (default: <out>.manifest.json, else mbl_<subcommand>.manifest.json)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbl",
        description="Multi-class margin bounds lab: complexities, bounds, and verifications.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    rad = sub.add_parser(
        "rad",
        help="estimate an empirical Rademacher complexity",
        description="Estimate the empirical Rademacher complexity of a function class. "
        + _KERNEL_GRAMMAR,
    )
    rad.add_argument(
        "--class",
        dest="cls",
        required=True,
        metavar="SOURCE",
        help="tabulated:<csv> (headerless matrix, one function per row) or kernel:<spec>",
    )
    rad.add_argument("--mode", choices=["exact", "mc"], required=True)
    rad.add_argument("--trials", type=int, default=10000, help="MC trials (mode mc)")
    rad.add_argument("--seed", type=_seed, default=0)
    rad.add_argument("--data", help="dataset CSV; required for kernel classes")
    rad.add_argument(
        "--lambda", dest="lambda_cap", type=float, help="norm cap; required for kernel classes"
    )
    rad.add_argument("--convention", choices=["signed", "absolute"], default="signed")
    _add_common(rad)
    rad.set_defaults(handler=_cmd_rad)

    bound = sub.add_parser("bound", help="evaluate margin risk bounds")
    bound_sub = bound.add_subparsers(dest="bound_command", required=True)
    beval = bound_sub.add_parser(
        "eval",
        # No prefix matching: "--k" (a deleted option) must not parse as --kernel.
        allow_abbrev=False,
        help="evaluate a bound on a scores/labels pair",
        description="Evaluate a margin risk bound. thm1 takes the complexity via --rad, or "
        "--lambda with --R (worst case sqrt(R^2*lambda^2/n)) or --data [--kernel] "
        "(data-dependent lambda*sqrt(trace G)/n). thm2 needs --delta, --lambda and --R. "
        + _KERNEL_GRAMMAR,
    )
    beval.add_argument("--method", choices=["thm1", "thm2"], required=True)
    beval.add_argument("--scores", required=True, help="scores CSV (x_id,score_1,...,score_k)")
    beval.add_argument("--labels", required=True, help="labels CSV (x_id,y)")
    beval.add_argument(
        "--t", dest="confidence_t", type=float, required=True, help="confidence parameter (> 0)"
    )
    beval.add_argument("--delta", type=float, help="margin threshold in (0, 1]")
    beval.add_argument(
        "--delta-grid", dest="delta_grid", help="comma-separated thresholds (thm1 only)"
    )
    beval.add_argument("--rad", dest="rad_value", type=float, help="complexity value (thm1)")
    beval.add_argument("--kernel", help="kernel spec for the data-dependent complexity (thm1)")
    beval.add_argument("--lambda", dest="lambda_cap", type=float, help="norm cap")
    beval.add_argument("--R", dest="radius", type=float, help="data radius bound")
    beval.add_argument("--data", help="dataset CSV for the data-dependent complexity (thm1)")
    _add_common(beval)
    beval.set_defaults(handler=_cmd_bound_eval)

    comp = sub.add_parser("compare", help="tabulate competitor order terms over a grid")
    comp.add_argument("--k-list", dest="k_list", required=True, help="e.g. 2,4,8")
    comp.add_argument("--n-list", dest="n_list", required=True, help="e.g. 100,10000")
    comp.add_argument("--delta-list", dest="delta_list", required=True, help="e.g. 0.1,0.05")
    comp.add_argument("--out", required=True, help="output CSV path")
    _add_common(comp)
    comp.set_defaults(handler=_cmd_compare)

    verify = sub.add_parser("verify", help="run a numerical verification experiment")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)

    vlem = verify_sub.add_parser(
        "lemma1", help="margin-class subadditivity on random exact instances"
    )
    vlem.add_argument("--seeds", type=int, required=True, help="number of random instances")
    vlem.add_argument("--max-n", dest="max_n", type=int, default=8)
    vlem.add_argument("--max-k", dest="max_k", type=int, default=3)
    vlem.add_argument("--max-class-size", dest="max_class_size", type=int, default=4)
    vlem.add_argument("--base-seed", dest="base_seed", type=_seed, default=0)
    _add_common(vlem)
    vlem.set_defaults(handler=_cmd_verify_lemma1)

    vthm = verify_sub.add_parser(
        "thm3", help="margin class dominates (1-eps) times the interval-class sum"
    )
    vthm.add_argument("--k", type=int, help="interval count (required without --sweep)")
    vthm.add_argument("--epsilon", type=float, required=True, help="slack in (0, 1)")
    vthm.add_argument("--t", type=int, help="budget t; default: doubling search, 4 with --sweep")
    vthm.add_argument(
        "--n", type=int, help="sample size (>= 16kt^2); with auto t this is the n budget"
    )
    vthm.add_argument("--trials", type=int, default=1000)
    vthm.add_argument("--seed", type=_seed, default=0)
    vthm.add_argument(
        "--convention",
        choices=["signed", "absolute"],
        default="absolute",
        help="reference-complexity convention for the t-selection criterion",
    )
    vthm.add_argument(
        "--variant",
        choices=["sum", "union"],
        default="sum",
        help="per-class slots: one class per interval (sum) or the union class",
    )
    vthm.add_argument("--sweep", help="comma-separated k values; one run per k at n = 16kt^2")
    vthm.add_argument("--out", help="CSV path for the k,t,n,lhs,rhs,ratio rows")
    _add_common(vthm)
    vthm.set_defaults(handler=_cmd_verify_thm3)

    synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    synth.add_argument("--kind", choices=["uniform", "blobs"], required=True)
    synth.add_argument("--k", type=int, required=True)
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--seed", type=_seed, default=0)
    synth.add_argument("--d", type=int, default=1, help="dimension (blobs)")
    synth.add_argument("--spread", type=float, default=1.0, help="noise scale (blobs)")
    synth.add_argument("--out", required=True, help="dataset CSV path")
    _add_common(synth)
    synth.set_defaults(handler=_cmd_synth)

    return parser


def _manifest_path(args) -> str:
    if args.manifest:
        return args.manifest
    out = getattr(args, "out", None)
    if out:
        return f"{out}.manifest.json"
    return f"mbl_{args.command}.manifest.json"


def _manifest_parameters(args) -> dict:
    skip = {"handler", "manifest"}
    return {key: value for key, value in sorted(vars(args).items()) if key not in skip}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        try:
            if args.threads < 1:
                raise ValueError("threads must be >= 1")
            code, payload = args.handler(args)
            inputs = {path: _sha256(path) for path in _input_paths(args)}
        except (CapExceeded, MemoryError) as exc:
            print(f"mbl: cap exceeded: {exc}", file=sys.stderr)
            return 3
        except (ValueError, OSError) as exc:
            print(f"mbl: error: {exc}", file=sys.stderr)
            return 2
        # NaN and inf are not JSON (RFC 8259): a payload holding one is a bug.
        line = json.dumps(payload, allow_nan=False)
    except Exception:
        # Not a verification verdict (exit 1): report the bug with its traceback.
        traceback.print_exc()
        print("mbl: internal error", file=sys.stderr)
        return 4
    manifest = {
        "subcommand": args.command,
        "parameters": _manifest_parameters(args),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": inputs,
        "duration_s": time.monotonic() - start,
    }
    with open(_manifest_path(args), "w", encoding="utf-8", newline="") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    sys.stdout.write(line + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
