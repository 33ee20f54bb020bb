import os

import numpy as np
import pytest

from mrckit.dataset import (DataError, apply_normalizer, fit_normalizer,
                            load_csv, load_features, save_csv,
                            stratified_folds, stratified_split)
from conftest import make_blobs

HABERMAN = os.path.join(os.path.dirname(__file__), "..", "data", "haberman.csv")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_first_appearance_encoding(tmp_path):
    path = write(tmp_path, "1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
    ds = load_csv(path)
    assert ds.labels.tolist() == [1, 2, 1]
    assert ds.label_names == ("a", "b")
    assert ds.num_classes == 2
    assert ds.n == 3 and ds.d == 2


def test_header_flag(tmp_path):
    path = write(tmp_path, "f1,f2,label\n1.0,2.0,a\n3.0,4.0,b\n")
    ds = load_csv(path, has_header=True)
    assert ds.n == 2


def test_nan_cell_rejected_with_location(tmp_path):
    path = write(tmp_path, "1.0,2.0,a\n3.0,NaN,b\n")
    with pytest.raises(DataError, match=r"row 2, column 2"):
        load_csv(path)


def test_unparseable_cell_rejected(tmp_path):
    path = write(tmp_path, "1.0,x,a\n3.0,4.0,b\n")
    with pytest.raises(DataError, match=r"row 1, column 2"):
        load_csv(path)


def test_byte_order_mark_skipped(tmp_path):
    text = "1.0,2.0,a\n3.0,4.0,b\n"
    plain = write(tmp_path, text)
    bom = write(tmp_path, "\ufeff" + text, name="bom.csv")
    assert np.array_equal(load_csv(bom).instances, load_csv(plain).instances)
    assert load_csv(bom).label_names == ("a", "b")
    assert np.array_equal(load_features(bom, 2), load_features(plain, 2))


def test_empty_file_rejected(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(path)


def test_single_label_rejected(tmp_path):
    path = write(tmp_path, "1.0,a\n2.0,a\n")
    with pytest.raises(DataError, match="distinct label"):
        load_csv(path)


@pytest.mark.skipif(not os.path.exists(HABERMAN),
                    reason="user-supplied UCI file data/haberman.csv not present")
def test_haberman_shape():
    ds = load_csv(HABERMAN)
    assert ds.n == 306 and ds.d == 3 and ds.num_classes == 2


def test_normalizer_two_point_column():
    ds = make_blobs(8, d=1, seed=0)
    ds.instances[:, 0] = [1, 3, 1, 3, 1, 3, 1, 3]
    stats = fit_normalizer(ds)
    assert stats.mean[0] == 2.0 and stats.std[0] == 1.0
    out = apply_normalizer(stats, ds)
    assert out.instances[:2, 0].tolist() == [-1.0, 1.0]


def test_normalizer_constant_column():
    ds = make_blobs(6, d=2, seed=0)
    ds.instances[:, 1] = 5.0
    stats = fit_normalizer(ds)
    assert stats.std[1] == 1.0
    out = apply_normalizer(stats, ds)
    assert np.all(out.instances[:, 1] == 0.0)


def test_normalized_training_columns_centered():
    ds = make_blobs(50, d=4, seed=3)
    out = apply_normalizer(fit_normalizer(ds), ds)
    assert np.all(np.abs(out.instances.mean(axis=0)) < 1e-12)
    assert np.all(np.abs(out.instances.std(axis=0) - 1.0) < 1e-12)


def test_normalization_keeps_labels():
    ds = make_blobs(30, seed=1)
    out = apply_normalizer(fit_normalizer(ds), ds)
    assert np.array_equal(out.labels, ds.labels)


def test_split_per_class_counts():
    ds = make_blobs(100, seed=2)
    ds.labels[:60] = 1
    ds.labels[60:] = 2
    train, test = stratified_split(ds, 0.2, seed=7)
    assert np.sum(test.labels == 1) == 12
    assert np.sum(test.labels == 2) == 8
    assert train.n + test.n == 100


def test_split_deterministic():
    ds = make_blobs(80, seed=4)
    a1, b1 = stratified_split(ds, 0.25, seed=11)
    a2, b2 = stratified_split(ds, 0.25, seed=11)
    assert np.array_equal(a1.instances, a2.instances)
    assert np.array_equal(b1.labels, b2.labels)
    a3, _ = stratified_split(ds, 0.25, seed=12)
    assert not np.array_equal(a1.instances, a3.instances)


def test_split_fraction_domain():
    ds = make_blobs(20, seed=0)
    with pytest.raises(ValueError):
        stratified_split(ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        stratified_split(ds, 1.0, seed=0)


def test_split_singleton_class_rejected():
    ds = make_blobs(9, num_classes=2, seed=0)
    ds.labels[:] = 1
    ds.labels[0] = 2
    with pytest.raises(ValueError, match="single sample"):
        stratified_split(ds, 0.2, seed=0)


def test_csv_round_trip(tmp_path):
    ds = make_blobs(17, d=3, seed=9)
    path = tmp_path / "copy.csv"
    save_csv(ds, path)
    back = load_csv(str(path))
    assert np.array_equal(back.instances, ds.instances)
    assert np.array_equal(back.labels, ds.labels)
    assert back.label_names == ds.label_names


def test_stratified_folds_partition():
    ds = make_blobs(53, seed=6)
    folds = stratified_folds(ds, 10, seed=0)
    joined = np.concatenate(folds)
    assert len(joined) == ds.n
    assert len(np.unique(joined)) == ds.n
