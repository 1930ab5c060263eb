"""Generators, the one-vs-all ridge scorer, and CSV round trips."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mbl.core import LabeledDataset
from mbl.kernel import KernelSpec, gram
from mbl.lowerbound import partition_points
from mbl.margin import ScoreMatrix, margins
from mbl.synth import (
    GeneratorSpec,
    generate,
    read_dataset_csv,
    read_labels_csv,
    read_scores_csv,
    read_tabulated_csv,
    train_ova_ridge,
    write_dataset_csv,
    write_labels_csv,
    write_scores_csv,
)


def _uniform(k=3, n=100, seed=0, **kw):
    return generate(GeneratorSpec(kind="uniform_interval", k=k, n=n, seed=seed, **kw))


def test_generate_is_deterministic():
    a = _uniform(seed=42)
    b = _uniform(seed=42)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    c = _uniform(seed=43)
    assert not np.array_equal(a.points, c.points)


def test_uniform_support_and_moment():
    ds = _uniform(k=3, n=10**5, seed=7)
    x = ds.points[:, 0]
    assert x.min() >= 1.0
    assert x.max() < 4.0
    sigma = 3.0 / math.sqrt(12.0)
    assert abs(x.mean() - 2.5) <= 3.0 * sigma / math.sqrt(10**5)


def test_uniform_single_mode_concentrates_labels():
    ds = _uniform(k=2, n=50)
    assert ds.k == 3
    assert np.array_equal(ds.labels, np.full(50, 3))


def test_blobs_shapes_and_centers():
    spec = GeneratorSpec(kind="gaussian_blobs", k=3, n=30, seed=2, d=4, spread=1.0)
    ds = generate(spec)
    assert ds.points.shape == (30, 4)
    assert set(np.unique(ds.labels)) <= {1, 2, 3}
    assert np.array_equal(ds.points, generate(spec).points)
    # zero spread collapses every point onto its class center
    tight = generate(GeneratorSpec(kind="gaussian_blobs", k=2, n=20, seed=2, d=1, spread=0.0))
    assert set(np.unique(tight.points)) <= {0.0, 2.0}


def test_generator_spec_validation():
    good = dict(kind="uniform_interval", k=2, n=10, seed=0)
    for bad in (
        dict(kind="lattice"),
        dict(k=0),
        dict(n=0),
        dict(seed=2**64),
        dict(seed=-1),
        dict(d=0),
        dict(d=2),
        dict(spread=-1.0),
        dict(spread=math.inf),
        dict(spread=math.nan),
        dict(k=2**63 - 1),  # its k + 1 label overflows int64
        dict(k=10**400),
    ):
        with pytest.raises(ValueError):
            GeneratorSpec(**{**good, **bad})


def test_generator_spec_accepts_largest_label():
    ds = generate(GeneratorSpec(kind="uniform_interval", k=2**63 - 2, n=3, seed=0))
    assert ds.labels.tolist() == [2**63 - 1] * 3


def test_interval_counts_meet_density_floor():
    # Each interval should hold >= n/k - 2 points at least half the time
    # (binomial-median behavior); checked per interval over a fixed seed
    # range, where the observed frequencies sit comfortably above 0.5.
    k, t = 4, 2
    n = 16 * k * t * t
    need = n / k - 2
    seeds = range(200)
    hits = np.zeros(k)
    for seed in seeds:
        ds = _uniform(k=k, n=n, seed=seed)
        inside, _ = partition_points(ds.points, k)
        for j in range(k):
            hits[j] += inside[j].size >= need
    freq = hits / len(seeds)
    assert (freq >= 0.5).all(), freq


def test_ridge_separable_blobs():
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=2, n=40, seed=3, d=2, spread=0.01))
    scores, norms = train_ova_ridge(ds, KernelSpec(kind="linear"), reg=1e-3)
    assert scores.n == 40 and scores.k == 2
    assert margins(scores, ds.labels).min() > 0.0
    assert norms.shape == (2,)
    assert (norms > 0.0).all()


def test_ridge_shrinkage_limit():
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=2, n=40, seed=3, d=2, spread=0.01))
    small, _ = train_ova_ridge(ds, KernelSpec(kind="linear"), reg=1e-3)
    big, big_norms = train_ova_ridge(ds, KernelSpec(kind="linear"), reg=1e9)
    assert np.abs(margins(big, ds.labels)).max() < 1e-5
    assert np.abs(margins(small, ds.labels)).max() > 1.0
    assert big_norms.max() < 1e-5


def test_ridge_norms_are_the_quadratic_form():
    # The norms reuse scores = G alpha; compare with sqrt(alpha' G alpha)
    # contracted from G itself.
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=3, n=60, seed=7, d=2, spread=0.5))
    kernel = KernelSpec(kind="rbf", gamma=0.5)
    _, norms = train_ova_ridge(ds, kernel, reg=0.1)
    g = gram(kernel, ds.points)
    targets = np.where(ds.labels[:, None] == np.arange(1, 4)[None, :], 1.0, -1.0)
    alphas = np.linalg.solve(g + 0.1 * np.eye(60), targets)
    want = np.sqrt(np.einsum("ny,nm,my->y", alphas, g, alphas))
    np.testing.assert_allclose(norms, want, rtol=1e-12, atol=0.0)


def test_ridge_permutation_equivariance():
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=3, n=30, seed=5, d=2, spread=0.5))
    scores, _ = train_ova_ridge(ds, KernelSpec(kind="rbf", gamma=0.5), reg=0.1)
    perm = np.random.default_rng(0).permutation(30)
    shuffled = LabeledDataset(ds.points[perm], ds.labels[perm], ds.k)
    scores_p, _ = train_ova_ridge(shuffled, KernelSpec(kind="rbf", gamma=0.5), reg=0.1)
    assert np.allclose(scores_p.scores, scores.scores[perm], atol=1e-8)


def test_ridge_validation():
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=3, n=30, seed=5, d=2))
    with pytest.raises(ValueError):
        train_ova_ridge(ds, KernelSpec(kind="linear"), reg=0.0)
    small = LabeledDataset([[1.0], [2.0]], [1, 2], 3)
    with pytest.raises(ValueError, match="n >= k"):
        train_ova_ridge(small, KernelSpec(kind="linear"), reg=0.1)


@pytest.mark.parametrize("reg", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_ridge_rejects_reg_that_is_not_finite_and_positive(reg):
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=3, n=30, seed=5, d=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"finite number > 0, got {reg!r}"):
            train_ova_ridge(ds, KernelSpec(kind="rbf", gamma=0.5), reg=reg)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ridge_matches_the_dense_eye_solve_bit_for_bit(seed):
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=4, n=500, seed=seed, d=3))
    kernel, reg = KernelSpec(kind="rbf", gamma=0.5), 1.0
    scores, norms = train_ova_ridge(ds, kernel, reg)
    g = gram(kernel, ds.points)
    targets = np.where(ds.labels[:, None] == np.arange(1, 5)[None, :], 1.0, -1.0)
    alphas = np.linalg.solve(g + reg * np.eye(ds.n), targets)
    want = g @ alphas
    want_norms = np.sqrt(np.maximum(np.einsum("ny,ny->y", alphas, want), 0.0))
    assert np.array_equal(scores.scores.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(norms.view(np.uint64), want_norms.view(np.uint64))


def test_ridge_peak_memory_is_one_gram():
    # G + reg I is formed in G itself: a copy of G for the system would
    # push the traced peak to twice the Gram's bytes.
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=3, n=1000, seed=1, d=2))
    tracemalloc.start()
    try:
        train_ova_ridge(ds, KernelSpec(kind="linear"), reg=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ds.n * ds.n * 8, peak


def test_ridge_singular_system_reports_reg():
    pts = np.tile([[1.0, 2.0]], (3, 1))
    ds = LabeledDataset(pts, [1, 2, 3], 3)
    with pytest.raises(ValueError, match="reg too small"):
        train_ova_ridge(ds, KernelSpec(kind="linear"), reg=1e-320)


def test_dataset_csv_round_trip(tmp_path):
    for spec in (
        GeneratorSpec(kind="uniform_interval", k=3, n=25, seed=11),
        GeneratorSpec(kind="gaussian_blobs", k=2, n=25, seed=11, d=3),
    ):
        ds = generate(spec)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert np.array_equal(back.points, ds.points)
        assert np.array_equal(back.labels, ds.labels)
        assert back.k == ds.k


def test_dataset_csv_header(tmp_path):
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=2, n=3, seed=0, d=2))
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, path)
    assert path.read_text(encoding="utf-8").splitlines()[0] == "x_id,f1,f2,y"


def test_scores_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    scores = ScoreMatrix(rng.normal(size=(12, 3)))
    path = tmp_path / "scores.csv"
    write_scores_csv(scores, path)
    back = read_scores_csv(path)
    assert np.array_equal(back.scores, scores.scores)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "x_id,score_1,score_2,score_3"


def test_labels_csv_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_csv([3, 1, 2, 2], path)
    assert np.array_equal(read_labels_csv(path), [3, 1, 2, 2])
    assert path.read_text(encoding="utf-8").splitlines()[0] == "x_id,y"


@pytest.mark.parametrize(
    "write, value, golden",
    [
        (
            write_dataset_csv,
            LabeledDataset([[0.1, -0.0], [1.5, 2.0]], [2, 1], 2),
            b"x_id,f1,f2,y\n1,0.10000000000000001,-0,2\n2,1.5,2,1\n",
        ),
        (
            write_scores_csv,
            ScoreMatrix(np.array([[0.1, -0.0], [1e-300, 1.0 / 3.0]])),
            b"x_id,score_1,score_2\n1,0.10000000000000001,-0\n2,1e-300,0.33333333333333331\n",
        ),
        (write_labels_csv, [3, 1, 2], b"x_id,y\n1,3\n2,1\n3,2\n"),
    ],
    ids=["dataset", "scores", "labels"],
)
def test_written_csv_bytes(tmp_path, write, value, golden):
    # The whole file: 17 significant digits, "-0", integer labels, 1-based
    # x_id and LF line endings.
    path = tmp_path / "out.csv"
    write(value, path)
    assert path.read_bytes() == golden


def test_tabulated_csv_round_trip(tmp_path):
    path = tmp_path / "class.csv"
    path.write_text("1,-1,0.5\n-1,1,0.25\n", encoding="utf-8")
    cls = read_tabulated_csv(path)
    assert np.array_equal(cls.values, [[1.0, -1.0, 0.5], [-1.0, 1.0, 0.25]])
    with pytest.raises(ValueError, match="line 2"):
        (tmp_path / "ragged.csv").write_text("1,2\n3\n", encoding="utf-8")
        read_tabulated_csv(tmp_path / "ragged.csv")


def test_dataset_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_id,f1\n1,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="label column y"):
        read_dataset_csv(path)
    path.write_text("x_id,f1,y\n1,0.5,1\n2,0.7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3: expected 3 fields"):
        read_dataset_csv(path)
    path.write_text("x_id,f1,y\n1,zero,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: non-numeric value"):
        read_dataset_csv(path)
    path.write_text("x_id,f1,y\n1,0.5,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="label must be >= 1"):
        read_dataset_csv(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty file"):
        read_dataset_csv(path)
    path.write_text("x_id,f1,y\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data rows"):
        read_dataset_csv(path)


def test_scores_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_id,score_1,score_9\n1,0.5,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected header"):
        read_scores_csv(path)
    path.write_text("x_id,score_1,score_2\n1,0.5,x\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: non-numeric value"):
        read_scores_csv(path)


def test_labels_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("idx,y\n1,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected header"):
        read_labels_csv(path)
    path.write_text("x_id,y\n1,1.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-integer"):
        read_labels_csv(path)


def test_dataset_csv_peak_memory(tmp_path):
    # Cells go straight into typed buffers; holding every row as a list of
    # strings first peaks near 15x the returned arrays.
    path = tmp_path / "data.csv"
    ds = generate(GeneratorSpec(kind="gaussian_blobs", k=3, n=4000, seed=7, d=3))
    write_dataset_csv(ds, path)
    tracemalloc.start()
    try:
        ds = read_dataset_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (ds.points.nbytes + ds.labels.nbytes)


def test_csv_errors_count_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("x_id,f1,y\n\n1,0.5,1\n\n\n2,0.7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 6: expected 3 fields, got 2"):
        read_dataset_csv(path)
    path.write_text("x_id,score_1,score_2\n1,0,1\n\n2,0,one\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 4: non-numeric value 'one' in column score_2"):
        read_scores_csv(path)
    path.write_text("x_id,f1,y\n1,0.5,1\n\n2,0.5,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 4: label must be >= 1, got 0"):
        read_dataset_csv(path)
    path.write_text("x_id,y\n1,2\n\n2,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 4: label must be >= 1, got 0"):
        read_labels_csv(path)


def test_csv_cells_parse_like_float(tmp_path):
    cells = ["1e-320", "-0", "1_0", " 2.5", "-1.5e+300", "0.1"]
    path = tmp_path / "odd.csv"
    path.write_text(",".join(cells) + "\n", encoding="utf-8")
    got = read_tabulated_csv(path).values[0]
    assert [v.hex() for v in got.tolist()] == [float(c).hex() for c in cells]
    path.write_text("x_id,f1,y\n 1,-0,2\n", encoding="utf-8")
    ds = read_dataset_csv(path)
    assert math.copysign(1.0, ds.points[0, 0]) == -1.0
    assert ds.labels.tolist() == [2]


@pytest.mark.parametrize(
    "reader, first",
    [
        (read_dataset_csv, "x_id,f1,y"),
        (read_scores_csv, "x_id,score_1,score_2"),
        (read_labels_csv, "x_id,y"),
        (read_tabulated_csv, "1,2,3"),
    ],
    ids=["dataset", "scores", "labels", "tabulated"],
)
def test_csv_first_record_field_count(tmp_path, reader, first):
    path = tmp_path / "short.csv"
    path.write_text(first + "\n1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: expected [23] fields, got 1"):
        reader(path)


def test_csv_label_above_int64_names_file_and_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("x_id,y\n1,1\n2,9223372036854775808\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"big.csv: line 3: label exceeds 2\^63 - 1"):
        read_labels_csv(path)
    path.write_text("x_id,f1,y\n1,0.5,9223372036854775807\n", encoding="utf-8")
    assert read_dataset_csv(path).labels.tolist() == [2**63 - 1]


@pytest.mark.parametrize("reader", [read_scores_csv, read_tabulated_csv], ids=["scores", "tabulated"])
def test_csv_cell_above_field_limit_names_file_and_line(tmp_path, reader):
    path = tmp_path / "long.csv"
    first = "x_id,score_1,score_2\n" if reader is read_scores_csv else ""
    path.write_text(first + "1,0,1\n\n2,0," + "1" * 200_000 + "\n", encoding="utf-8")
    line = 4 if first else 3
    with pytest.raises(ValueError, match=f"long.csv: line {line}: field larger than field limit"):
        reader(path)
