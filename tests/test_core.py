import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mbl
from mbl.core import (
    CapExceeded,
    LabeledDataset,
    RademacherEstimate,
    SupOracle,
    TabulatedClass,
    as_sign_vector,
)
from mbl.kernel import KernelSupOracle
from mbl.lowerbound import Theorem3SupOracle
from mbl.rademacher import TabulatedSupOracle


def test_dataset_coerces_scalar_points_to_column():
    ds = LabeledDataset([1.5, 2.5, 3.5], [1, 1, 2], 2)
    assert ds.points.shape == (3, 1)
    assert ds.points.dtype == np.float64
    assert ds.labels.dtype == np.int64
    assert ds.n == 3
    assert ds.d == 1


def test_dataset_keeps_2d_points():
    ds = LabeledDataset(np.zeros((4, 3)), [1, 2, 1, 2], 2)
    assert ds.n == 4
    assert ds.d == 3


def test_tabulated_class_shape_validation():
    with pytest.raises(ValueError):
        TabulatedClass(np.ones(3))
    with pytest.raises(ValueError):
        TabulatedClass(np.ones((0, 3)))
    cls = TabulatedClass([[1.0, -1.0]])
    assert cls.m == 1
    assert cls.n == 2


def test_rademacher_estimate_validation():
    RademacherEstimate(0.5, "exact-enumeration", 0, 0.0, None)
    RademacherEstimate(0.5, "monte-carlo", 100, 0.01, 7)
    with pytest.raises(ValueError):
        RademacherEstimate(0.5, "bogus", 0, 0.0, None)
    with pytest.raises(ValueError):
        RademacherEstimate(0.5, "exact-enumeration", 0, 0.01, None)


def test_as_sign_vector_accepts_pm1_any_dtype():
    out = as_sign_vector([1, -1, 1])
    assert out.dtype == np.int8
    assert out.tolist() == [1, -1, 1]
    out = as_sign_vector(np.array([1.0, -1.0]))
    assert out.tolist() == [1, -1]


def test_as_sign_vector_rejects_bad_values():
    with pytest.raises(ValueError):
        as_sign_vector([1, 0, -1])
    with pytest.raises(ValueError):
        as_sign_vector([2, 1])
    with pytest.raises(ValueError):
        as_sign_vector([[1, -1]])
    with pytest.raises(ValueError):
        as_sign_vector([0.5, 1.0])


def test_sup_oracle_protocol():
    oracles = [
        TabulatedSupOracle(TabulatedClass([[1.0, 1.0]])),
        KernelSupOracle(np.eye(2), lambda_cap=1.0),
        Theorem3SupOracle(np.array([1.25, 1.75]), k=1, t=1),
    ]
    for oracle in oracles:
        assert isinstance(oracle, SupOracle)
        assert oracle.query_block(np.ones((3, 2), dtype=np.int8)).shape[0] == 3
    assert not isinstance(object(), SupOracle)


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def test_theorem3_oracle_is_row_invariant():
    # integer arithmetic per row, then a division by n: a row's suprema are
    # the same bits in a whole block, alone, or at another place in the block
    rng = np.random.default_rng(31)
    oracle = Theorem3SupOracle(1.0 + 3.0 * rng.random(12), k=3, t=2)
    block = rng.choice(np.array([-1, 1], dtype=np.int8), size=(40, 12))
    whole = oracle.query_block(block)
    alone = np.vstack([oracle.query_block(row[None, :]) for row in block])
    order = rng.permutation(len(block))
    assert np.array_equal(_bits(whole), _bits(alone))
    assert np.array_equal(_bits(whole[order]), _bits(oracle.query_block(block[order])))


def test_blas_oracles_vary_with_the_block_only_within_the_summation_error():
    # BLAS may sum a row's products in another order in a 1-row block than in
    # a large one; both results lie within the float error bound of an
    # n-term sum, so they differ by at most twice that bound
    rng = np.random.default_rng(32)
    n = 16
    block = rng.choice(np.array([-1, 1], dtype=np.int8), size=(2000, n))
    values = rng.standard_normal((64, n))
    oracle = TabulatedSupOracle(TabulatedClass(values))
    whole = oracle.query_block(block)
    alone = np.concatenate([oracle.query_block(row[None, :]) for row in block])
    scale = np.abs(values).sum(axis=1).max() / n
    assert np.all(np.abs(whole - alone) <= 2 * (n + 1) * np.spacing(scale))

    g = values.T @ values  # PSD, n x n
    lam = 2.0
    oracle = KernelSupOracle(g, lam)
    whole = oracle.query_block(block)
    alone = np.concatenate([oracle.query_block(row[None, :]) for row in block])
    # the quadratic form is a 2n-term sum per product; sqrt and scaling
    # add a few roundings relative to the value itself
    quad_scale = (lam / n) ** 2 * np.abs(g).sum()
    bound = 4 * (n + 1) * np.spacing(quad_scale) + 8 * np.spacing(np.maximum(whole, alone) ** 2)
    assert np.all(np.abs(whole**2 - alone**2) <= bound)


def test_cap_exceeded_is_an_exception():
    assert issubclass(CapExceeded, Exception)


_SRC = Path(mbl.__file__).resolve().parent


def _module_trees():
    for path in sorted(_SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_float_working_set_is_imported_privately():
    # private names one mbl module takes from another: the cap checks are
    # public, so only the tabulated oracle's sub-block size is shared
    private = {}
    for module, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mbl")):
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.startswith("__"):
                        private.setdefault(module, set()).add(alias.name)
    assert private == {"kernel": {"_PRODUCT_CELLS"}}


def test_estimation_caps_are_named_in_core_and_rademacher_only():
    caps = {"EXACT_ENUMERATION_CAP", "EXACT_PRODUCT_CAP", "MC_SIGN_CELL_CAP"}
    naming = set()
    for module, tree in _module_trees():
        for node in ast.walk(tree):
            name = node.name if isinstance(node, ast.alias) else getattr(node, "id", None)
            if name in caps:
                naming.add(module)
    assert naming == {"core", "rademacher"}


# Records OPENBLAS_THREAD_TIMEOUT at the moment numpy is first imported, which
# is when OpenBLAS loads and reads it, then imports mbl.
_RECORD_BLAS_ENV_AT_NUMPY_IMPORT = """
import json, os, sys
seen = []
class Recorder:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None
assert "numpy" not in sys.modules
sys.meta_path.insert(0, Recorder())
import mbl
print(json.dumps(seen))
"""


@pytest.mark.parametrize("preset, want", [(None, "20"), ("7", "7")])
def test_blas_thread_timeout_is_set_before_numpy_loads(tmp_path, mbl_env, preset, want):
    env = {k: v for k, v in mbl_env.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", _RECORD_BLAS_ENV_AT_NUMPY_IMPORT],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [want]
