import numpy as np
import pytest

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
        as_sign_vector([1, -1], n=3)
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


def test_cap_exceeded_is_an_exception():
    assert issubclass(CapExceeded, Exception)
