"""End-to-end command-line behavior: exit codes, JSON stdout, manifests."""
import argparse
import hashlib
import json
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mbl
from mbl import lowerbound
from mbl.cli import _thm1_rad_value, main
from mbl.kernel import KernelSpec, KernelSupOracle, gram, kernel_mc_rademacher
from mbl.lowerbound import sweep_theorem3
from mbl.margin import ScoreMatrix, margins
from mbl.rademacher import TabulatedSupOracle, mc_empirical_rademacher, tabulated_mc_rademacher
from mbl.synth import (
    GeneratorSpec,
    generate,
    read_dataset_csv,
    read_tabulated_csv,
    write_dataset_csv,
    write_labels_csv,
    write_scores_csv,
)

TWO_ROW = "1,1\n-1,-1\n"


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_proc(argv, cwd, env):
    return subprocess.run(
        [sys.executable, "-m", "mbl"] + argv, cwd=cwd, capture_output=True, text=True, env=env
    )


def _write_margin3_files(tmp_path, n, k=2):
    """Scores with margin 3 everywhere, so the empirical cdf vanishes on (0,1]."""
    scores = np.zeros((n, k))
    scores[:, 0] = 3.0
    spath, lpath = tmp_path / "scores.csv", tmp_path / "labels.csv"
    write_scores_csv(ScoreMatrix(scores), spath)
    write_labels_csv(np.ones(n, dtype=np.int64), lpath)
    return str(spath), str(lpath)


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_rad_exact_two_row_class(in_tmp, capsys):
    (in_tmp / "c.csv").write_text(TWO_ROW, encoding="utf-8")
    code, out, _ = run_cli(["rad", "--class", "tabulated:c.csv", "--mode", "exact"], capsys)
    assert code == 0
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["value"] == 0.5
    assert payload["method"] == "exact-enumeration"
    assert (in_tmp / "mbl_rad.manifest.json").exists()


def test_rad_mc_deterministic_across_threads(in_tmp, capsys):
    (in_tmp / "c.csv").write_text("1,-1,1,0.5\n-1,1,0.25,-1\n0,1,-1,1\n", encoding="utf-8")
    argv = ["rad", "--class", "tabulated:c.csv", "--mode", "mc", "--trials", "2000", "--seed", "5"]
    first = run_cli(argv, capsys)
    second = run_cli(argv, capsys)
    threaded = run_cli(argv + ["--threads", "4"], capsys)
    assert first == second == threaded
    other_seed = run_cli(argv[:-1] + ["6"], capsys)
    assert json.loads(other_seed[1])["value"] != json.loads(first[1])["value"]


@pytest.mark.parametrize("convention", ["signed", "absolute"])
def test_rad_tabulated_mc_is_the_paired_estimator_bitwise(in_tmp, capsys, convention):
    (in_tmp / "c.csv").write_text("1,-1,1,0.5\n-1,1,0.25,-1\n0,1,-1,1\n", encoding="utf-8")
    argv = ["rad", "--class", "tabulated:c.csv", "--mode", "mc", "--trials", "3000",
            "--seed", "9", "--convention", convention]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    oracle = TabulatedSupOracle(read_tabulated_csv("c.csv"), convention=convention)
    est = tabulated_mc_rademacher(oracle, trials=3000, seed=9)
    payload = json.loads(out)
    assert (payload["value"], payload["std_error"], payload["trials"]) == (
        est.value, est.std_error, 3000)
    if convention == "absolute":
        assert est == mc_empirical_rademacher(oracle, trials=3000, seed=9)


@pytest.mark.parametrize(
    "flags, named",
    [(["--data", "x.csv"], "--data"), (["--lambda", "2"], "--lambda")],
    ids=["data", "lambda"],
)
def test_rad_tabulated_rejects_flags_it_ignores(in_tmp, capsys, flags, named):
    # --data and --lambda describe kernel classes; x.csv does not exist
    (in_tmp / "c.csv").write_text(TWO_ROW, encoding="utf-8")
    argv = ["rad", "--class", "tabulated:c.csv", "--mode", "mc", "--trials", "64", *flags]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert f"{named} does not apply to tabulated classes" in err


def test_rad_kernel_without_lambda_is_exit_2(in_tmp, capsys):
    _write_blobs(in_tmp / "d.csv", 5)
    argv = ["rad", "--class", "kernel:linear", "--data", "d.csv", "--mode", "mc"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert "--lambda" in err
    assert not (in_tmp / "mbl_rad.manifest.json").exists()


def test_rad_trials_below_two_is_usage_error(in_tmp, capsys):
    (in_tmp / "c.csv").write_text(TWO_ROW, encoding="utf-8")
    code, out, err = run_cli(
        ["rad", "--class", "tabulated:c.csv", "--mode", "mc", "--trials", "1"], capsys
    )
    assert code == 2
    assert out == ""
    assert "error" in err


def test_rad_bad_class_source(in_tmp, capsys):
    code, _, err = run_cli(["rad", "--class", "matrix:c.csv", "--mode", "exact"], capsys)
    assert code == 2
    assert "tabulated:" in err or "kernel:" in err


def test_rad_exact_cap_is_exit_3(in_tmp, capsys):
    (in_tmp / "wide.csv").write_text(",".join(["1"] * 25) + "\n", encoding="utf-8")
    code, _, err = run_cli(["rad", "--class", "tabulated:wide.csv", "--mode", "exact"], capsys)
    assert code == 3
    assert "cap" in err


def test_rad_exact_product_cap_is_exit_3_before_any_batch(in_tmp, capsys, monkeypatch):
    # 5000 rows x 2^20 sign vectors: n is within the enumeration cap, the
    # 5.2e9 row-by-vector products are not
    np.savetxt(in_tmp / "tall.csv", np.ones((5000, 20)), fmt="%g", delimiter=",")

    def never(*args, **kwargs):
        raise AssertionError("no batch may run")

    monkeypatch.setattr("mbl.cli.exact_empirical_rademacher", never)
    code, out, err = run_cli(["rad", "--class", "tabulated:tall.csv", "--mode", "exact"], capsys)
    assert code == 3, err
    assert out == ""
    assert "5000 rows x 2^20 sign vectors" in err
    assert "product cap 4294967296" in err


def test_rad_runaway_trials_is_exit_3_before_any_batch(in_tmp, capsys):
    (in_tmp / "c.csv").write_text("1,-1,1,0.5\n-1,1,0.25,-1\n", encoding="utf-8")
    argv = ["rad", "--class", "tabulated:c.csv", "--mode", "mc", "--trials", "100000000000"]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3, err
    assert out == ""
    assert "cap" in err


def test_rad_kernel_gram_over_cap_is_exit_3_before_the_gram(in_tmp, capsys):
    # 10,001 points need 100,020,001 Gram cells, just over GRAM_CELL_CAP.
    rows = "".join(f"{i},{i * 1e-3!r},1\n" for i in range(10_001))
    (in_tmp / "d.csv").write_text("x_id,f1,y\n" + rows, encoding="utf-8")
    argv = ["rad", "--class", "kernel:linear", "--mode", "mc", "--data", "d.csv",
            "--lambda", "1.0", "--trials", "100"]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3, err
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize("mode, trials", [("exact", "2"), ("mc", "5000000")])
def test_rad_kernel_runaway_request_is_exit_3_before_the_gram(in_tmp, capsys, monkeypatch,
                                                              mode, trials):
    # 3000 points: 2^3000 sign vectors, or 5e6 trials x 3000 = 1.5e10 sign cells
    _write_blobs(in_tmp / "d.csv", 3000)
    built = []
    monkeypatch.setattr("mbl.kernel.gram", lambda *args: built.append(args))
    argv = ["rad", "--class", "kernel:rbf:gamma=0.5", "--mode", mode, "--data", "d.csv",
            "--lambda", "1.0", "--trials", trials]
    code, out, err = run_cli(argv, capsys)
    assert code == 3, err
    assert out == ""
    assert "cap" in err
    assert built == []


@pytest.mark.parametrize("argv, flag", [
    (["rad", "--class", "tabulated:c.csv", "--mode", "mc"], "--seed"),
    (["verify", "thm3", "--k", "2", "--epsilon", "0.5"], "--seed"),
    (["synth", "--kind", "uniform", "--k", "2", "--n", "4", "--out", "d.csv"], "--seed"),
    # one instance: with more, the largest --base-seed would key seeds past 2^64
    (["verify", "lemma1", "--seeds", "1"], "--base-seed"),
], ids=["rad", "thm3", "synth", "lemma1"])
@pytest.mark.parametrize("value", ["-1", "18446744073709551616", "1.5", "seven"])
def test_seed_flags_take_integers_in_the_stream_key_range(in_tmp, capsys, argv, flag, value):
    (in_tmp / "c.csv").write_text(TWO_ROW, encoding="utf-8")
    code, out, err = run_cli(argv + [flag, value], capsys)
    assert code == 2, err
    assert out == ""
    assert f"argument {flag}: must be an integer in [0, 2^64)" in err
    code, _, err = run_cli(argv + [flag, "18446744073709551615"], capsys)
    assert code == 0, err


@pytest.mark.parametrize("entry, mode", [("nan", "exact"), ("inf", "mc"), ("-inf", "exact")])
def test_rad_non_finite_tabulated_class_is_exit_2(in_tmp, capsys, entry, mode):
    (in_tmp / "c.csv").write_text(f"1,{entry}\n-1,-1\n", encoding="utf-8")
    code, out, err = run_cli(["rad", "--class", "tabulated:c.csv", "--mode", mode], capsys)
    assert code == 2, err
    assert out == ""
    assert "finite" in err


def test_rad_kernel_class(in_tmp, capsys):
    code, _, _ = run_cli(
        ["synth", "--kind", "blobs", "--k", "2", "--n", "6", "--d", "2", "--out", "d.csv"], capsys
    )
    assert code == 0
    code, out, _ = run_cli(
        [
            "rad",
            "--class",
            "kernel:rbf:gamma=0.5",
            "--mode",
            "exact",
            "--data",
            "d.csv",
            "--lambda",
            "2.0",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] > 0.0
    # kernel classes need the sample
    code, _, _ = run_cli(
        ["rad", "--class", "kernel:linear", "--mode", "exact", "--lambda", "1.0"], capsys
    )
    assert code == 2


def _write_blobs(path, n):
    write_dataset_csv(generate(GeneratorSpec(kind="gaussian_blobs", k=3, n=n, seed=3, d=2)), path)


def test_rad_kernel_mc_is_the_jensen_gap_estimator_bitwise(in_tmp, capsys):
    _write_blobs(in_tmp / "d.csv", 40)
    argv = ["rad", "--class", "kernel:rbf:gamma=0.5", "--mode", "mc", "--data", "d.csv",
            "--lambda", "2.0", "--trials", "3000", "--seed", "7"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    payload = json.loads(out)
    g = gram(KernelSpec(kind="rbf", gamma=0.5), read_dataset_csv("d.csv").points)
    est = kernel_mc_rademacher(KernelSupOracle(g, 2.0), 3000, 7)
    assert (payload["value"], payload["std_error"]) == (est.value, est.std_error)


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_rad_kernel_conventions_differ_only_in_the_echo(in_tmp, capsys, mode):
    _write_blobs(in_tmp / "d.csv", 10)
    argv = ["rad", "--class", "kernel:poly:degree=2", "--mode", mode, "--data", "d.csv",
            "--lambda", "1.5", "--trials", "500", "--convention"]
    code, signed, err = run_cli(argv + ["signed"], capsys)
    assert code == 0, err
    code, absolute, err = run_cli(argv + ["absolute"], capsys)
    assert code == 0, err
    assert '"convention": "signed"' in signed
    assert absolute == signed.replace('"convention": "signed"', '"convention": "absolute"')


def test_bound_eval_thm1_trivial(in_tmp, capsys):
    spath, lpath = _write_margin3_files(in_tmp, n=100)
    code, out, _ = run_cli(
        [
            "bound", "eval", "--method", "thm1", "--scores", spath, "--labels", lpath,
            "--t", "1", "--delta-grid", "1", "--rad", "0",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0.1
    assert payload["delta_star"] == 1.0
    assert payload["method"] == "thm1"
    assert set(payload["terms"]) == {"empirical", "complexity", "loglog", "confidence"}


def test_bound_eval_thm2_worked_value(in_tmp, capsys):
    spath, lpath = _write_margin3_files(in_tmp, n=10000)
    code, out, _ = run_cli(
        [
            "bound", "eval", "--method", "thm2", "--scores", spath, "--labels", lpath,
            "--t", "1", "--delta", "0.5", "--lambda", "1", "--R", "1",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] == 0.09


def test_bound_eval_non_finite_score_is_exit_2(in_tmp, capsys):
    spath, lpath = _write_margin3_files(in_tmp, n=10)
    lines = Path(spath).read_text(encoding="utf-8").splitlines()
    x_id, _, rest = lines[3].split(",", 2)
    lines[3] = ",".join([x_id, "nan", rest])
    Path(spath).write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(
        [
            "bound", "eval", "--method", "thm1", "--scores", spath, "--labels", lpath,
            "--t", "1", "--delta-grid", "1", "--rad", "0.1",
        ],
        capsys,
    )
    assert code == 2, err
    assert out == ""
    assert "finite" in err


def test_bound_eval_missing_scores_is_exit_2(tmp_path, mbl_env):
    proc = run_proc(
        ["bound", "eval", "--method", "thm1", "--labels", "l.csv", "--t", "1"], tmp_path, mbl_env
    )
    assert proc.returncode == 2, proc.stderr
    assert "the following arguments are required: --scores" in proc.stderr


@pytest.mark.parametrize("defect", ["label", "cell"])
def test_bound_eval_input_defects_are_exit_2(in_tmp, capsys, defect):
    # a label beyond int64 and a cell beyond the csv field limit are input
    # errors naming the file and line, not internal errors (exit 4)
    spath, lpath = _write_margin3_files(in_tmp, n=3)
    if defect == "label":
        Path(lpath).write_text("x_id,y\n1,1\n2,99999999999999999999\n3,1\n", encoding="utf-8")
        where = "labels.csv: line 3"
    else:
        Path(spath).write_text(
            "x_id,score_1,score_2\n1,3,0\n2," + "3" * 200_000 + ",0\n3,3,0\n", encoding="utf-8"
        )
        where = "scores.csv: line 3"
    code, out, err = run_cli(
        ["bound", "eval", "--method", "thm1", "--scores", spath, "--labels", lpath,
         "--t", "1", "--rad", "0"],
        capsys,
    )
    assert code == 2, err
    assert out == ""
    assert where in err


def test_bound_eval_flag_conflicts(in_tmp, capsys):
    spath, lpath = _write_margin3_files(in_tmp, n=10)
    base = ["bound", "eval", "--scores", spath, "--labels", lpath, "--t", "1"]
    for extra in (
        ["--method", "thm2", "--delta", "0.5", "--lambda", "1", "--R", "1", "--rad", "0.1"],
        ["--method", "thm2", "--lambda", "1", "--R", "1"],  # no --delta
        ["--method", "thm1", "--rad", "0", "--delta", "0.5", "--delta-grid", "0.5,1"],
        ["--method", "thm1", "--rad", "0", "--k", "7"],  # no such option (k is the file width)
        ["--method", "thm1", "--lambda", "1", "--R", "1", "--n", "10"],  # nor is n
        ["--method", "thm1"],  # no complexity source
    ):
        code, _, err = run_cli(base + extra, capsys)
        assert code == 2, (extra, err)
    # Flags that do not apply are refused by name, not ignored.
    _write_blobs(in_tmp / "d.csv", 10)
    for flag, extra in (
        ("--kernel", ["--method", "thm2", "--delta", "0.5", "--lambda", "1", "--R", "1",
                      "--kernel", "rbf:gamma=0.5", "--data", "nonexistent.csv"]),
        ("--data", ["--method", "thm2", "--delta", "0.5", "--lambda", "1", "--R", "1",
                    "--data", "d.csv"]),
        ("--kernel", ["--method", "thm1", "--lambda", "1", "--R", "1", "--kernel", "poly:degree=2"]),
        ("--R", ["--method", "thm1", "--lambda", "1", "--R", "5", "--data", "d.csv"]),
    ):
        code, out, err = run_cli(base + extra, capsys)
        assert (code, out) == (2, ""), (extra, err)
        assert flag in err, (extra, err)


@pytest.mark.parametrize(
    "extra, named, label_rows",
    [
        (["--method", "thm1", "--lambda", "1", "--data", "d7.csv"], "--data has 7 rows", 10),
        (["--method", "thm1", "--lambda", "1"], "--R", 10),
        (["--method", "thm1", "--rad", "0.1", "--data", "d7.csv"], "--data does not apply", 10),
        (["--method", "thm1", "--rad", "-0.5"], "rad_value", 10),
        (["--method", "thm2", "--delta", "0.5", "--lambda", "1"], "--R", 10),
        (["--method", "thm1", "--rad", "0.1"], "labels file has 9 rows", 9),
    ],
    ids=["data-rows", "no-R-or-data", "rad-with-data", "negative-rad", "thm2-no-R", "label-rows"],
)
def test_bound_eval_refusals_name_the_flag(in_tmp, capsys, extra, named, label_rows):
    spath, lpath = _write_margin3_files(in_tmp, n=10)
    write_labels_csv(np.ones(label_rows, dtype=np.int64), lpath)
    _write_blobs(in_tmp / "d7.csv", 7)
    argv = ["bound", "eval", "--scores", spath, "--labels", lpath, "--t", "1", *extra]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, ""), err
    assert named in err
    assert not (in_tmp / "mbl_bound.manifest.json").exists()


def _thm1_data_argv(tmp_path, n, kernel, lam="2.0"):
    """thm1 with the data-dependent complexity on an n-point blobs sample."""
    spath, lpath = _write_margin3_files(tmp_path, n=n)
    dpath = tmp_path / "data.csv"
    write_dataset_csv(generate(GeneratorSpec(kind="gaussian_blobs", k=3, n=n, seed=3, d=2)), dpath)
    return [
        "bound", "eval", "--method", "thm1", "--scores", spath, "--labels", lpath,
        "--t", "1", "--lambda", lam, "--data", str(dpath), "--kernel", kernel,
    ]


def test_bound_eval_thm1_data_rbf_trace_is_n(in_tmp, capsys):
    n, lam = 50, 2.0
    code, out, err = run_cli(_thm1_data_argv(in_tmp, n, "rbf:gamma=0.5"), capsys)
    assert code == 0, err
    payload = json.loads(out)
    k, delta = 2, payload["delta_star"]
    assert payload["terms"]["complexity"] == (4.0 * k / delta) * (lam * math.sqrt(n) / n)


def test_bound_eval_thm1_data_linear_trace(in_tmp, capsys):
    n, lam = 50, 2.0
    code, out, err = run_cli(_thm1_data_argv(in_tmp, n, "linear"), capsys)
    assert code == 0, err
    payload = json.loads(out)
    pts = read_dataset_csv(in_tmp / "data.csv").points
    k, delta = 2, payload["delta_star"]
    expected = (4.0 * k / delta) * lam * math.sqrt(float((pts * pts).sum())) / n
    assert payload["terms"]["complexity"] == pytest.approx(expected, rel=1e-12)


def test_bound_eval_thm1_data_path_memory_is_linear(in_tmp):
    # The thm1 complexity needs only trace G = sum_i K(x_i, x_i): the path
    # from the dataset file to the complexity must never hold an n x n
    # array (128 MB here).  The CSV reader alone peaks near 160 n d bytes.
    n, d = 4000, 3
    dpath = in_tmp / "big.csv"
    write_dataset_csv(generate(GeneratorSpec(kind="gaussian_blobs", k=4, n=n, seed=1, d=d)), dpath)
    for kernel in ("rbf:gamma=0.5", "linear", "poly:degree=3,coef=1"):
        args = argparse.Namespace(
            rad_value=None, lambda_cap=1.0, radius=None, kernel=kernel, data=str(dpath)
        )
        tracemalloc.start()
        try:
            _thm1_rad_value(args, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * n * d, (kernel, peak)


@pytest.mark.parametrize(
    "spec", ["poly:degree=1,coef=-5", "rbf:gamma=inf", "poly:degree=2,coef=inf", "poly:degree=400"]
)
def test_kernel_outside_psd_or_finite_range_is_exit_2(in_tmp, capsys, spec):
    # Indefinite or non-finite specs are rejected at parse time; degree 400
    # overflows the kernel diagonal (||x||^2 + 1)^400 at any ||x||^2 > 4.9.
    argv = _thm1_data_argv(in_tmp, 20, spec)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, ""), err
    assert "non-finite" in err or "coef >= 0" in err or "gamma > 0" in err
    argv = ["rad", "--class", f"kernel:{spec}", "--mode", "exact", "--data", "data.csv",
            "--lambda", "1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, ""), err


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "thm1", "--rad", "nan"],
        ["--method", "thm1", "--rad", "inf"],
        ["--method", "thm1", "--rad", "0.1", "--t", "inf"],
        ["--method", "thm1", "--rad", "0.1", "--t", "nan"],
        ["--method", "thm1", "--lambda", "nan", "--R", "1"],
        ["--method", "thm1", "--lambda", "inf", "--R", "1"],
        ["--method", "thm1", "--lambda", "1", "--R", "nan"],
        ["--method", "thm1", "--lambda", "-1", "--R", "1"],
        ["--method", "thm1", "--lambda", "1", "--R", "-1"],
        ["--method", "thm1", "--rad", "0.1", "--delta", "nan"],
        ["--method", "thm1", "--rad", "0.1", "--delta", "inf"],
        ["--method", "thm2", "--delta", "0.5", "--lambda", "nan", "--R", "1"],
        ["--method", "thm2", "--delta", "0.5", "--lambda", "1", "--R", "inf"],
        ["--method", "thm2", "--delta", "0.5", "--lambda", "1", "--R", "1", "--t", "inf"],
        ["--method", "thm2", "--delta", "nan", "--lambda", "1", "--R", "1"],
        # finite flags whose bound is not finite
        ["--method", "thm1", "--rad", "0", "--delta", "1e-310"],
        ["--method", "thm2", "--lambda", "1e200", "--R", "1e200", "--delta", "0.5"],
        ["--method", "thm1", "--lambda", "1e200", "--R", "1e200"],
        # k/delta overflows, so even a zero complexity term is refused
        ["--method", "thm2", "--lambda", "0", "--R", "1", "--delta", "5e-324"],
    ],
)
def test_bound_eval_non_finite_or_negative_flags_are_exit_2(in_tmp, capsys, flags):
    spath, lpath = _write_margin3_files(in_tmp, n=10)
    argv = ["bound", "eval", "--scores", spath, "--labels", lpath] + flags
    if "--t" not in flags:
        argv += ["--t", "1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, ""), err


def test_bound_eval_non_finite_lambda_with_data_is_exit_2(in_tmp, capsys):
    code, out, err = run_cli(_thm1_data_argv(in_tmp, 20, "rbf:gamma=0.5", lam="nan"), capsys)
    assert (code, out) == (2, ""), err

@pytest.mark.parametrize(
    "flags, named",
    [
        (["--method", "thm1", "--lambda", "-1"], "lambda_cap"),
        (["--method", "thm1", "--lambda", "1", "--R", "-1"], "radius"),
        (["--method", "thm2", "--delta", "0.5", "--lambda", "-1", "--R", "1"], "lambda_cap"),
        (["--method", "thm2", "--delta", "0.5", "--lambda", "1", "--R", "-1"], "radius"),
    ],
)
def test_bound_eval_negative_cap_or_radius_is_exit_2_naming_it(in_tmp, capsys, flags, named):
    spath, lpath = _write_margin3_files(in_tmp, n=10)
    if "--R" not in flags:
        dpath = in_tmp / "d.csv"
        write_dataset_csv(generate(GeneratorSpec(kind="uniform_interval", k=2, n=10, seed=0)), dpath)
        flags = flags + ["--data", str(dpath)]
    argv = ["bound", "eval", "--scores", spath, "--labels", lpath, "--t", "1"] + flags
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, ""), err
    assert named in err


def test_bound_eval_thm2_empirical_term_is_the_margin_cdf(in_tmp, capsys):
    rng = np.random.default_rng(5)
    scores = ScoreMatrix(rng.normal(size=(40, 3)))
    labels = rng.integers(1, 4, size=40)
    write_scores_csv(scores, in_tmp / "s.csv")
    write_labels_csv(labels, in_tmp / "l.csv")
    m = margins(scores, labels)
    for delta in (float(m[m > 0].min()), 1e-300, 0.5, 1.0):
        argv = ["bound", "eval", "--method", "thm2", "--scores", "s.csv", "--labels", "l.csv",
                "--t", "1", "--delta", repr(delta), "--lambda", "0", "--R", "1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert json.loads(out)["terms"]["empirical"] == np.count_nonzero(m <= delta) / 40


def _reject_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


def test_verify_thm3_single_k_sweep_prints_strict_json(in_tmp, capsys):
    argv = ["verify", "thm3", "--sweep", "4", "--t", "1", "--epsilon", "0.5", "--trials", "50"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["summary"]["slope_aggregate_vs_k"] is None


def test_non_finite_payload_is_exit_4_without_stdout(in_tmp, capsys, monkeypatch):
    monkeypatch.setattr(
        "mbl.cli.lemma1_sweep",
        lambda *a, **kw: {"instances": 1, "failures": [], "worst_slack": math.nan, "pass": True},
    )
    code, out, err = run_cli(["verify", "lemma1", "--seeds", "1"], capsys)
    assert (code, out) == (4, "")
    assert "mbl: internal error" in err
    assert not (in_tmp / "mbl_verify.manifest.json").exists()


def test_compare_single_point_grid(in_tmp, capsys):
    code, out, _ = run_cli(
        ["compare", "--k-list", "4", "--n-list", "10000", "--delta-list", "0.1",
         "--out", "table.csv"],
        capsys,
    )
    assert code == 0
    lines = (in_tmp / "table.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method,k,n,delta,value,ratio_to_this_paper"
    assert len(lines) == 6
    payload = json.loads(out)
    assert payload["row_count"] == 5
    kp_rows = [r for r in payload["rows"] if r["method"] == "kp"]
    assert kp_rows[0]["ratio_to_this_paper"] == 4.0
    assert (in_tmp / "table.csv.manifest.json").exists()


def test_compare_csv_bytes(in_tmp, capsys):
    code, out, _ = run_cli(
        ["compare", "--k-list", "4", "--n-list", "10000", "--delta-list", "0.1",
         "--out", "table.csv"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    body = "".join(
        f"{r['method']},4,10000,0.10000000000000001,{r['value']:.17g},"
        f"{r['ratio_to_this_paper']:.17g}\n"
        for r in rows
    )
    want = "method,k,n,delta,value,ratio_to_this_paper\n" + body
    assert (in_tmp / "table.csv").read_bytes() == want.encode("utf-8")


def test_compare_reruns_byte_identical(in_tmp, capsys):
    argv = ["compare", "--k-list", "2,4", "--n-list", "100,400", "--delta-list", "0.5,0.1",
            "--out", "table.csv"]
    run_cli(argv, capsys)
    first = (in_tmp / "table.csv").read_bytes()
    run_cli(argv, capsys)
    assert (in_tmp / "table.csv").read_bytes() == first


@pytest.mark.parametrize(
    "k_list, n_list, delta_list",
    [("2", "100", "1e-160"), (str(10**154), "100", "0.01"), ("2", "100", "1e-200"),
     (str(10**400), "100", "0.01"), ("2", str(10**400), "0.5")],
    ids=["delta-overflow", "k-overflow", "delta-squared-underflow", "k-beyond-float",
         "n-beyond-float"],
)
def test_compare_non_finite_term_is_exit_2(in_tmp, capsys, k_list, n_list, delta_list):
    argv = ["compare", "--k-list", k_list, "--n-list", n_list, "--delta-list", delta_list,
            "--out", "t.csv"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, ""), err
    assert "not a finite float" in err


def test_compare_empty_grid_is_exit_2(in_tmp, capsys):
    code, _, _ = run_cli(
        ["compare", "--k-list", "", "--n-list", "100", "--delta-list", "0.5",
         "--out", "t.csv"],
        capsys,
    )
    assert code == 2


def test_verify_lemma1_passes(in_tmp, capsys):
    code, out, _ = run_cli(["verify", "lemma1", "--seeds", "50"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["instances"] == 50
    assert payload["worst_slack"] <= 1e-12


# every function through which the sweep or random_margin_instance draws an instance
_DRAWS = ("_draw_instance", "random_margin_instance")


def _no_instances(monkeypatch):
    """Make every instance draw fail."""

    def no_instance(*args, **kwargs):
        raise AssertionError("an instance ran before the cap check")

    for name in _DRAWS:
        monkeypatch.setattr(mbl.margin, name, no_instance)


@pytest.mark.parametrize("seeds", ["1", "40"])
def test_verify_lemma1_max_n_above_cap_is_exit_3_up_front(in_tmp, capsys, monkeypatch, seeds):
    draws = {name: getattr(mbl.margin, name) for name in _DRAWS}
    _no_instances(monkeypatch)
    code, out, err = run_cli(["verify", "lemma1", "--seeds", seeds, "--max-n", "30"], capsys)
    assert code == 3, err
    assert out == ""
    assert "2^30 sign vectors" in err
    assert "n <= 20" in err
    # the cap itself is allowed
    for name, draw in draws.items():
        monkeypatch.setattr(mbl.margin, name, draw)
    code, _, err = run_cli(["verify", "lemma1", "--seeds", "1", "--max-n", "20"], capsys)
    assert code == 0, err


_MARGIN_ROWS_OVER_CAP = ["--max-k", "12", "--max-class-size", "8", "--max-n", "8"]
# 3**12 = 531,441 rows pass the margin-class cap, but times 2^20 sign
# vectors they are 2^39 products: seed 752 alone (15,552 rows) runs 77 s.
_PRODUCTS_OVER_CAP = ["--max-k", "12", "--max-class-size", "3", "--max-n", "20",
                      "--base-seed", "752"]


@pytest.mark.parametrize(
    "seeds, flags, named",
    [
        pytest.param("10", _MARGIN_ROWS_OVER_CAP, "8**12 rows", id="10"),
        pytest.param("30", _MARGIN_ROWS_OVER_CAP, "8**12 rows", id="30"),
        pytest.param("1", _PRODUCTS_OVER_CAP, "531441 rows x 2^20", id="rows-x-2^n"),
    ],
)
def test_verify_lemma1_product_above_cap_is_exit_3_up_front(
    in_tmp, capsys, monkeypatch, seeds, flags, named
):
    # 8**12 rows exceed the margin-class cap; with 30 seeds an instance
    # would reach it mid-run, with 10 none would, and both stop up front.
    _no_instances(monkeypatch)
    code, out, err = run_cli(["verify", "lemma1", "--seeds", seeds] + flags, capsys)
    assert code == 3, err
    assert out == ""
    assert "product cap" in err
    assert named in err


@pytest.mark.parametrize(
    "flags",
    [["--max-k", "1000000000"], ["--max-k", "600000", "--max-n", "20"]],
    ids=["runaway-k", "k-times-n"],
)
def test_verify_lemma1_score_tensor_above_cap_is_exit_3_up_front(
    in_tmp, capsys, monkeypatch, flags
):
    # one-row classes pass the product caps at any k; building the
    # instances would run away before any of them is checked
    _no_instances(monkeypatch)
    argv = ["verify", "lemma1", "--seeds", "3", "--max-class-size", "1"] + flags
    code, out, err = run_cli(argv, capsys)
    assert code == 3, err
    assert out == ""
    assert "margin-score cap 10000000" in err


def test_verify_lemma1_seeds_past_2_64_are_exit_2_up_front(in_tmp, capsys, monkeypatch):
    # seed 2^64 - 1 is the last key a report can name for replay
    _no_instances(monkeypatch)
    argv = ["verify", "lemma1", "--seeds", "3", "--base-seed", "18446744073709551615"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, ""), err
    assert "base_seed + seeds - 1 = 18446744073709551615 .. 18446744073709551617" in err
    assert not (in_tmp / "mbl_verify.manifest.json").exists()


@pytest.mark.parametrize("flags", [["--max-k", "1"], ["--max-k", "-1", "--max-class-size", "0"]])
def test_verify_lemma1_bad_limits_are_exit_2_up_front(in_tmp, capsys, flags):
    code, out, err = run_cli(["verify", "lemma1", "--seeds", "1"] + flags, capsys)
    assert code == 2, err
    assert out == ""
    assert "max_k >= 2" in err


def _lemma1_raising(monkeypatch, exc):
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr("mbl.cli.lemma1_sweep", raising)


def test_memory_error_is_exit_3(in_tmp, capsys, monkeypatch):
    # The error a numpy allocation raises, without allocating anything.
    _lemma1_raising(monkeypatch, MemoryError("Unable to allocate 9.31 TiB for an array"))
    code, out, err = run_cli(["verify", "lemma1", "--seeds", "1"], capsys)
    assert code == 3
    assert out == ""
    assert err == "mbl: cap exceeded: Unable to allocate 9.31 TiB for an array\n"


def test_unexpected_error_is_exit_4_with_traceback(in_tmp, capsys, monkeypatch):
    _lemma1_raising(monkeypatch, KeyError("boom"))
    code, out, err = run_cli(["verify", "lemma1", "--seeds", "1"], capsys)
    assert code == 4
    assert out == ""
    assert "Traceback (most recent call last)" in err
    assert "KeyError: 'boom'" in err
    assert not (in_tmp / "mbl_verify.manifest.json").exists()


def test_verify_failure_maps_to_exit_1(in_tmp, capsys, monkeypatch):
    # Both verified statements actually hold, so force the failing branch.
    monkeypatch.setattr(
        "mbl.cli.lemma1_sweep",
        lambda *a, **kw: {"instances": 1, "failures": [0], "worst_slack": 0.5, "pass": False},
    )
    code, out, _ = run_cli(["verify", "lemma1", "--seeds", "1"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_thm3_single(in_tmp, capsys):
    code, out, _ = run_cli(
        ["verify", "thm3", "--k", "1", "--epsilon", "0.5", "--t", "1", "--n", "16",
         "--trials", "64", "--out", "report.csv"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert (payload["k"], payload["t"], payload["n"]) == (1, 1, 16)
    lines = (in_tmp / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,t,n,lhs,rhs,ratio"
    assert len(lines) == 2


def test_verify_thm3_sweep(in_tmp, capsys):
    code, out, _ = run_cli(
        ["verify", "thm3", "--sweep", "1,2", "--epsilon", "0.5", "--t", "1",
         "--trials", "64", "--out", "sweep.csv"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["summary"]) == {
        "t", "points_per_interval", "slope_aggregate_vs_k", "aggregate_doubling_ratios", "pass"
    }
    assert payload["summary"]["points_per_interval"] == 16
    assert [(r["k"], r["n"]) for r in payload["rows"]] == [(1, 16), (2, 32)]
    lines = (in_tmp / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,t,n,lhs,rhs,ratio"
    assert len(lines) == 3


def test_verify_thm3_zero_rhs_prints_null_ratio(in_tmp, capsys):
    # t = 0 on two points: both draws give the one interval a zero sign sum
    argv = ["verify", "thm3", "--k", "1", "--t", "0", "--n", "2", "--trials", "2",
            "--epsilon", "0.5", "--seed", "0"]
    code, out, err = run_cli(argv, capsys)
    assert code in (0, 1), err
    assert '"ratio": null' in out
    assert (in_tmp / "mbl_verify.manifest.json").exists()
    code, out, err = run_cli(argv + ["--out", "r.csv"], capsys)
    assert code in (0, 1), err
    row = (in_tmp / "r.csv").read_text(encoding="utf-8").splitlines()[1]
    assert row.split(",")[5] == ""


def _thm3_csv_bytes(rows) -> bytes:
    lines = ["k,t,n,lhs,rhs,ratio\n"] + [
        f"{r['k']},{r['t']},{r['n']},{r['lhs']:.17g},{r['rhs']:.17g},{r['ratio']:.17g}\n"
        for r in rows
    ]
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize(
    "argv",
    [["--k", "1", "--t", "1", "--n", "16"], ["--sweep", "1,2", "--t", "1"]],
    ids=["single", "sweep"],
)
def test_verify_thm3_csv_bytes(in_tmp, capsys, argv):
    code, out, err = run_cli(
        ["verify", "thm3", *argv, "--epsilon", "0.5", "--trials", "64", "--out", "r.csv"],
        capsys,
    )
    assert code in (0, 1), err
    payload = json.loads(out)
    rows = payload.get("rows", [payload])
    assert (in_tmp / "r.csv").read_bytes() == _thm3_csv_bytes(rows)


def test_verify_thm3_sweep_union(in_tmp, capsys):
    # the sweep passes --variant through: its rows are the union reports
    code, out, err = run_cli(
        ["verify", "thm3", "--sweep", "1,2", "--epsilon", "0.5", "--t", "1",
         "--variant", "union", "--trials", "64", "--seed", "3"],
        capsys,
    )
    assert code in (0, 1), err
    reports, summary = sweep_theorem3([1, 2], t=1, epsilon=0.5, trials=64, seed=3,
                                      variant="union")
    assert out == json.dumps({"rows": [r.to_json_dict() for r in reports], "summary": summary}) + "\n"
    assert code == (0 if summary["pass"] else 1)


@pytest.mark.parametrize(
    "flags, named", [(["--k", "3"], "--k"), (["--n", "5"], "--n")], ids=["k", "n"]
)
def test_verify_thm3_sweep_rejects_flags_it_ignores(in_tmp, capsys, flags, named):
    # each k of a sweep runs at its default n = 16kt^2
    argv = ["verify", "thm3", "--sweep", "2,4", "--t", "1", "--epsilon", "0.5",
            "--trials", "50", *flags]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert f"{named} does not apply to --sweep" in err


def test_verify_thm3_usage_errors(in_tmp, capsys):
    # --k is required without --sweep; a sweep needs an integer k list
    code, out, err = run_cli(["verify", "thm3", "--epsilon", "0.5"], capsys)
    assert (code, out) == (2, "")
    assert "--k" in err
    code, out, err = run_cli(
        ["verify", "thm3", "--sweep", "2,x", "--epsilon", "0.5", "--t", "1"], capsys
    )
    assert (code, out) == (2, "")
    assert "--sweep" in err
    # a repeated k would fit the slope through one distinct k
    code, out, err = run_cli(
        ["verify", "thm3", "--sweep", "2,2", "--epsilon", "0.5", "--trials", "16"], capsys
    )
    assert (code, out) == (2, "")
    assert "--sweep" in err


@pytest.mark.parametrize(
    "flags, named",
    [([], "--sweep must be nonempty"), (["--k", "1"], "--k does not apply to --sweep")],
    ids=["alone", "with-k"],
)
def test_verify_thm3_empty_sweep_is_exit_2(in_tmp, capsys, flags, named):
    # an empty k list is a sweep with no k, not a single run
    argv = ["verify", "thm3", "--sweep", "", *flags, "--t", "1", "--epsilon", "0.5",
            "--trials", "16"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert named in err
    assert list(in_tmp.iterdir()) == []


@pytest.mark.parametrize(
    "flags", [["--k", "1", "--t", "1"], ["--sweep", "1,2", "--t", "1"]], ids=["single", "sweep"]
)
def test_verify_thm3_empty_out_is_exit_2_before_sampling(in_tmp, capsys, monkeypatch, flags):
    drawn = []
    monkeypatch.setattr(lowerbound, "generate", drawn.append)
    argv = ["verify", "thm3", *flags, "--epsilon", "0.5", "--trials", "16", "--out", ""]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, drawn) == (2, "", [])
    assert "--out must be a nonempty path" in err
    assert list(in_tmp.iterdir()) == []


def test_verify_thm3_t0_needs_explicit_size(in_tmp, capsys):
    # the default n = 16kt^2 is 0 at t = 0; a sweep, which takes no --n, needs t >= 1
    code, out, err = run_cli(["verify", "thm3", "--k", "2", "--t", "0", "--epsilon", "0.5"], capsys)
    assert (code, out) == (2, "")
    assert "t = 0" in err and "--n" in err
    code, out, err = run_cli(
        ["verify", "thm3", "--sweep", "1,2", "--t", "0", "--epsilon", "0.5"], capsys
    )
    assert (code, out) == (2, "")
    assert "t = 0" in err and "t >= 1" in err
    code, out, _ = run_cli(
        ["verify", "thm3", "--k", "2", "--t", "0", "--n", "20", "--epsilon", "0.5",
         "--trials", "64"],
        capsys,
    )
    assert code in (0, 1)
    assert (json.loads(out)["t"], json.loads(out)["n"]) == (0, 20)


@pytest.mark.parametrize(
    "flags",
    [
        ["--k", "2", "--t", "1", "--n", "20000000"],  # 1000 x 2e7 sign cells
        ["--sweep", "2,4,40000", "--t", "4", "--trials", "1000"],  # k = 40000: 1000 x 1.024e7
    ],
    ids=["single", "sweep"],
)
def test_verify_thm3_runaway_request_is_exit_3_before_sampling(in_tmp, capsys, monkeypatch, flags):
    drawn = []
    monkeypatch.setattr(lowerbound, "generate", drawn.append)
    code, out, err = run_cli(["verify", "thm3", *flags, "--epsilon", "0.5"], capsys)
    assert (code, out, drawn) == (3, "", [])
    assert "sign cells" in err


def test_verify_thm3_budget_cap_is_exit_3(in_tmp, capsys):
    code, _, err = run_cli(
        ["verify", "thm3", "--k", "4", "--epsilon", "0.001", "--n", "500", "--trials", "64"],
        capsys,
    )
    assert code == 3
    assert "budget" in err


def test_synth_uniform_writes_dataset(in_tmp, capsys):
    argv = ["synth", "--kind", "uniform", "--k", "3", "--n", "100", "--seed", "1",
            "--out", "data.csv"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = (in_tmp / "data.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x_id,f1,y"
    assert len(lines) == 101
    assert all(line.endswith(",4") for line in lines[1:])
    payload = json.loads(out)
    assert payload["out"] == "data.csv"
    first = (in_tmp / "data.csv").read_bytes()
    run_cli(argv, capsys)
    assert (in_tmp / "data.csv").read_bytes() == first


def test_synth_blobs_header(in_tmp, capsys):
    code, _, _ = run_cli(
        ["synth", "--kind", "blobs", "--k", "2", "--n", "10", "--d", "2", "--out", "b.csv"],
        capsys,
    )
    assert code == 0
    assert (in_tmp / "b.csv").read_text(encoding="utf-8").splitlines()[0] == "x_id,f1,f2,y"


def test_synth_invalid_params(in_tmp, capsys):
    code, _, _ = run_cli(
        ["synth", "--kind", "uniform", "--k", "2", "--n", "10", "--d", "2", "--out", "u.csv"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--kind", "blobs", "--k", "3", "--n", "5", "--d", "2", "--spread", "inf"], "spread"),
        (["--kind", "blobs", "--k", "3", "--n", "100", "--d", "2", "--spread", "1e308"],
         "non-finite"),
        (["--kind", "uniform", "--k", str(10**400), "--n", "5"], "int64"),
    ],
    ids=["spread-inf", "spread-overflow", "k-beyond-int64"],
)
def test_synth_out_of_range_is_exit_2(in_tmp, capsys, flags, named):
    code, out, err = run_cli(["synth", *flags, "--out", "x.csv"], capsys)
    assert (code, out) == (2, ""), err
    assert named in err
    assert not (in_tmp / "x.csv").exists()


def test_threads_env_var(in_tmp, capsys):
    (in_tmp / "c.csv").write_text(TWO_ROW, encoding="utf-8")
    argv = ["rad", "--class", "tabulated:c.csv", "--mode", "mc", "--trials", "500"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert run_cli(argv + ["--threads", "3"], capsys)[:2] == (0, out)
    code, _, err = run_cli(argv + ["--threads", "0"], capsys)
    assert code == 2 and "threads must be >= 1" in err


def test_manifest_contents_and_digests(in_tmp, capsys):
    spath, lpath = _write_margin3_files(in_tmp, n=10)
    run_cli(
        ["bound", "eval", "--method", "thm1", "--scores", spath, "--labels", lpath,
         "--t", "1", "--delta", "1", "--rad", "0", "--manifest", "run.json"],
        capsys,
    )
    manifest = json.loads((in_tmp / "run.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"subcommand", "parameters", "seed", "version", "inputs", "duration_s"}
    assert manifest["subcommand"] == "bound"
    assert manifest["parameters"]["method"] == "thm1"
    digest = hashlib.sha256((in_tmp / "scores.csv").read_bytes()).hexdigest()
    assert manifest["inputs"][spath] == digest


_SCORES = ["--scores", "scores.csv", "--labels", "labels.csv", "--t", "1"]


@pytest.mark.parametrize(
    "argv, read",
    [
        (["rad", "--class", "tabulated:c.csv", "--mode", "exact"], ["c.csv"]),
        (["rad", "--class", "tabulated:c.csv", "--mode", "mc", "--trials", "200"], ["c.csv"]),
        (["rad", "--class", "kernel:rbf:gamma=0.5", "--data", "data.csv", "--lambda", "1",
          "--mode", "mc", "--trials", "200"], ["data.csv"]),
        (["bound", "eval", "--method", "thm1", *_SCORES, "--rad", "0.1"],
         ["scores.csv", "labels.csv"]),
        (["bound", "eval", "--method", "thm1", *_SCORES, "--lambda", "1", "--R", "1"],
         ["scores.csv", "labels.csv"]),
        (["bound", "eval", "--method", "thm1", *_SCORES, "--lambda", "1", "--data", "data.csv",
          "--kernel", "rbf:gamma=0.5"], ["scores.csv", "labels.csv", "data.csv"]),
        (["bound", "eval", "--method", "thm2", *_SCORES, "--delta", "0.5", "--lambda", "1",
          "--R", "1"], ["scores.csv", "labels.csv"]),
        (["compare", "--k-list", "2", "--n-list", "100", "--delta-list", "0.5", "--out", "t.csv"],
         []),
        (["verify", "lemma1", "--seeds", "2"], []),
        (["verify", "thm3", "--k", "2", "--t", "1", "--epsilon", "0.5", "--trials", "50"], []),
        (["synth", "--kind", "uniform", "--k", "2", "--n", "10", "--out", "s.csv"], []),
        # a file flag the mode does not read is refused, so no manifest lists an unread file
        (["rad", "--class", "tabulated:c.csv", "--mode", "exact", "--data", "data.csv"], None),
        (["bound", "eval", "--method", "thm2", *_SCORES, "--delta", "0.5", "--lambda", "1",
          "--R", "1", "--data", "data.csv"], None),
        (["bound", "eval", "--method", "thm1", *_SCORES, "--rad", "0.1", "--data", "data.csv"],
         None),
    ],
)
def test_manifest_lists_exactly_the_files_read(in_tmp, capsys, argv, read):
    (in_tmp / "c.csv").write_text(TWO_ROW, encoding="utf-8")
    _write_margin3_files(in_tmp, n=10)
    write_dataset_csv(
        generate(GeneratorSpec(kind="gaussian_blobs", k=2, n=10, seed=1, d=2)), in_tmp / "data.csv"
    )
    code, out, err = run_cli(argv + ["--manifest", "m.json"], capsys)
    if read is None:
        assert (code, out) == (2, ""), err
        assert not (in_tmp / "m.json").exists()
        return
    assert code == 0, err
    inputs = json.loads((in_tmp / "m.json").read_text(encoding="utf-8"))["inputs"]
    assert inputs == {
        path: hashlib.sha256((in_tmp / path).read_bytes()).hexdigest() for path in read
    }


def test_manifests_identical_up_to_duration(in_tmp, capsys):
    argv = ["compare", "--k-list", "2", "--n-list", "100", "--delta-list", "0.5",
            "--out", "t.csv"]
    run_cli(argv, capsys)
    first = json.loads((in_tmp / "t.csv.manifest.json").read_text(encoding="utf-8"))
    run_cli(argv, capsys)
    second = json.loads((in_tmp / "t.csv.manifest.json").read_text(encoding="utf-8"))
    first.pop("duration_s"), second.pop("duration_s")
    assert first == second


def test_subprocess_imports_mbl_under_test(tmp_path, mbl_env):
    proc = subprocess.run(
        [sys.executable, "-c", "import mbl; print(mbl.__file__)"],
        cwd=tmp_path, capture_output=True, text=True, env=mbl_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(mbl.__file__).resolve()


def test_version_flag(tmp_path, mbl_env):
    proc = run_proc(["--version"], tmp_path, mbl_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("mbl ")


def test_help_documents_kernel_grammar(tmp_path, mbl_env):
    proc = run_proc(["rad", "--help"], tmp_path, mbl_env)
    assert proc.returncode == 0, proc.stderr
    assert "rbf:gamma=0.5" in proc.stdout
    assert "poly:degree=2,coef=1" in proc.stdout


def test_stdout_is_single_json_line(in_tmp, capsys):
    (in_tmp / "c.csv").write_text(TWO_ROW, encoding="utf-8")
    for argv in (
        ["rad", "--class", "tabulated:c.csv", "--mode", "exact"],
        ["verify", "lemma1", "--seeds", "5"],
        ["compare", "--k-list", "2", "--n-list", "100", "--delta-list", "0.5", "--out", "t.csv"],
    ):
        _, out, _ = run_cli(argv, capsys)
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)
