"""The CLI contract as one property: every subcommand, generated argument lists.

``cli.main`` runs in-process on small generated inputs.  Whatever the
arguments, the exit code is 0, 1, 2 or 3 (never 4, an internal error); a
run that exits 0 or 1 prints one strict-JSON line and writes its manifest;
a run that exits 2 or 3 prints nothing and writes no manifest; and the same
arguments print the same line twice.  Every drawn size stays below the
caps, and no drawn value can run away before a cap applies.
"""
import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbl.cli import main
from mbl.synth import write_table

MANIFEST = "run.manifest.json"


def _pick(good, bad=()):
    """One of ``good``, or now and then one of ``bad``, as a string."""
    return st.sampled_from([str(v) for v in list(good) * 4 + list(bad)])


def _flag(name, good, bad=()):
    """No flag, or ``name`` with a value from ``_pick(good, bad)``."""
    return st.one_of(st.just([]), _pick(good, bad).map(lambda v: [name, v]))


def _table(rows, cols, cells):
    row = st.lists(st.sampled_from(cells), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


@st.composite
def _dataset(draw, n=None):
    n = n or draw(st.integers(1, 6))
    d = draw(st.integers(1, 2))
    feats = draw(_table(n, d, [-1.5, 0.0, 0.25, 1.0, 2.0]))
    labels = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    header = ["x_id", *(f"f{i}" for i in range(1, d + 1)), "y"]
    return "d.csv", header, [[i, *f, y] for i, (f, y) in enumerate(zip(feats, labels), start=1)]


@st.composite
def _rad(draw):
    argv = ["rad", "--mode", draw(st.sampled_from(["exact", "mc"]))]
    argv += draw(_flag("--trials", [2, 37, 200], [1])) + draw(_flag("--seed", [0, 7], [-1]))
    argv += draw(_flag("--convention", ["signed", "absolute"], ["median"]))
    if draw(st.booleans()):
        m, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
        rows = draw(_table(m, n, [-1.0, 0.0, 0.5, 1.0, 2.0]))
        argv += ["--class", "tabulated:c.csv"] + draw(_flag("--lambda", [], [1.0]))
        return argv, [("c.csv", None, rows)]
    spec = draw(_pick(["linear", "rbf:gamma=0.5", "poly:degree=2,coef=1"], ["rbf:gamma=-1"]))
    argv += ["--class", f"kernel:{spec}", "--data", "d.csv"]
    argv += ["--lambda", draw(_pick([0.0, 1.5], [-1.0]))]
    return argv, [draw(_dataset())]


@st.composite
def _bound_eval(draw):
    n, k = draw(st.integers(1, 6)), draw(st.integers(2, 3))
    scores = draw(_table(n, k, [-2.0, 0.0, 0.5, 1.0, 3.0]))
    labels = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    files = [
        ("s.csv", ["x_id", *(f"score_{y}" for y in range(1, k + 1))],
         [[i, *row] for i, row in enumerate(scores, start=1)]),
        ("l.csv", ["x_id", "y"], [[i, y] for i, y in enumerate(labels, start=1)]),
    ]
    argv = ["bound", "eval", "--method", draw(st.sampled_from(["thm1", "thm2"]))]
    argv += ["--scores", "s.csv", "--labels", "l.csv", "--t", draw(_pick([0.5, 2]))]
    argv += draw(_flag("--delta", [0.1, 0.5, 1.0], [1.5]))
    if draw(st.booleans()):  # thm1 through --rad; thm2 and the kernel forms through --lambda
        return argv + ["--rad", draw(_pick([0.0, 0.3], [-0.1]))], files
    argv += ["--lambda", draw(_pick([1.0, 2.5]))] + draw(_flag("--delta-grid", [], ["0.1,0.5"]))
    if draw(st.booleans()):
        argv += draw(_flag("--kernel", ["linear", "rbf:gamma=1"]))
        files.append(draw(_dataset(n)))
        return argv + ["--data", "d.csv"], files
    return argv + ["--R", draw(_pick([1.0, 0.0]))], files


@st.composite
def _compare(draw):
    argv = ["compare", "--k-list", draw(_pick(["2", "2,4", "3,8"], ["1"]))]
    argv += ["--n-list", draw(_pick(["10", "100,1000", "1"], ["0"]))]
    argv += ["--delta-list", draw(_pick(["0.05", "0.1,0.5", "1"], ["0"]))]
    return argv + ["--out", "cmp.csv"], []


@st.composite
def _lemma1(draw):
    # 10**9 classes pass the product caps at --max-class-size 1; the
    # score-tensor cap refuses them before any instance is drawn
    argv = ["verify", "lemma1", "--seeds", draw(_pick([1, 3], [0]))]
    argv += draw(_flag("--max-k", [2, 4, 6], [-1, 1, 10**9]))
    argv += draw(_flag("--max-n", [1, 3, 6]))
    argv += draw(_flag("--max-class-size", [1, 2, 3], [0]))
    argv += draw(_flag("--base-seed", [0, 9]))
    return argv, []


@st.composite
def _thm3(draw):
    argv = ["verify", "thm3", "--epsilon", draw(_pick([0.5, 0.9], [0]))]
    argv += draw(_flag("--seed", [0, 3]))
    argv += draw(_flag("--variant", ["sum", "union"]))
    argv += draw(_flag("--convention", ["signed", "absolute"]))
    trials = ["--trials", draw(_pick([16, 64], [1]))]
    if draw(st.booleans()):
        argv += trials + ["--sweep", draw(_pick(["1", "1,2", "1,3"], ["2,2", "1,x"]))]
        return argv + draw(_flag("--t", [1, 2], [0])) + draw(_flag("--k", [], [2])), []
    argv += ["--k", draw(_pick([1, 2, 3], [0]))]
    if draw(st.booleans()):
        # auto t: the --n budget ends the doubling search after a few candidates
        return argv + trials + ["--n", draw(_pick([200, 512], [10]))], []
    if draw(st.booleans()):
        # t = 0 on a few points: two draws can give rhs = 0 (ratio null)
        return argv + ["--trials", "2", "--t", "0", "--n", draw(_pick([2, 4]))], []
    argv += trials + ["--t", draw(_pick([1, 2], [0]))]
    return argv + draw(_flag("--n", [40, 100, 300])), []


@st.composite
def _synth(draw):
    argv = ["synth", "--kind", draw(st.sampled_from(["uniform", "blobs"]))]
    argv += ["--k", draw(_pick([1, 3], [0])), "--n", draw(_pick([1, 20], [0]))]
    return argv + ["--d", draw(_pick([1], [2])), "--out", "syn.csv"], []


SUBCOMMANDS = {
    "rad": _rad(),
    "bound-eval": _bound_eval(),
    "compare": _compare(),
    "verify-lemma1": _lemma1(),
    "verify-thm3": _thm3(),
    "synth": _synth(),
}


def _run(argv):
    """(exit code, stdout, whether a manifest was written, stderr); removes the manifest."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    wrote = os.path.exists(MANIFEST)
    if wrote:
        os.remove(MANIFEST)
    return code, out.getvalue(), wrote, err.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_contract(subcommand, data):
    argv, files = data.draw(SUBCOMMANDS[subcommand])
    argv += data.draw(_flag("--threads", [1, 2], [0]))
    argv += data.draw(st.sampled_from([[]] * 9 + [["--no-such-flag"]]))
    argv += ["--manifest", MANIFEST]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, header, rows in files:
                if header is None:  # a tabulated class has no header
                    with open(name, "w", encoding="utf-8") as handle:
                        handle.writelines(",".join(map(str, row)) + "\n" for row in rows)
                else:
                    write_table(name, header, rows)
            code, out, wrote, err = _run(argv)
            assert code in (0, 1, 2, 3), err
            if code in (0, 1):
                assert out.endswith("\n") and out.count("\n") == 1
                json.loads(out, parse_constant=_reject_constant)
                assert wrote
            else:
                assert out == ""
                assert not wrote
            assert _run(argv)[:3] == (code, out, wrote)
        finally:
            os.chdir(home)
