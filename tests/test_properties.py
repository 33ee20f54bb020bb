"""Property tests of the CSV readers and of `mrckit predict` (hypothesis)."""

import contextlib
import io
import os
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mrckit import classifier, cli  # noqa: E402
from mrckit.dataset import Dataset, load_csv, load_features, save_csv  # noqa: E402
from conftest import make_blobs  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    """A model on d = 2 identity features, trained once for the module."""
    root = tmp_path_factory.mktemp("model")
    data = root / "blobs.csv"
    save_csv(make_blobs(60, d=2, seed=0, sep=3.0), data)
    code = cli.main(["train", "--data", str(data), "--out", str(root),
                     "--features", "identity", "--solver", "lp", "--seed", "1"])
    assert code == 0
    return str(root / "model.json")


def run_predict(model_path, data, out, chunk_rows):
    """Exit code and standard error of `predict --proba`, run in process with
    `chunk_rows` rows per chunk."""
    err = io.StringIO()
    with mock.patch.object(cli, "PREDICT_CHUNK_ROWS", chunk_rows), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["predict", "--model", model_path, "--data", str(data),
                         "--proba", "--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(st.lists(finite, min_size=d, max_size=d), min_size=2, max_size=30)))
def test_save_csv_round_trips_bit_for_bit(tmp_path_factory, rows):
    X = np.array(rows)
    labels = np.arange(len(rows)) % 2 + 1
    path = tmp_path_factory.mktemp("round") / "data.csv"
    save_csv(Dataset(X, labels, ("a", "b")), path)
    back = load_csv(str(path))
    assert back.instances.tobytes() == X.tobytes()
    assert np.array_equal(back.labels, labels)
    assert load_features(str(path), X.shape[1]).tobytes() == X.tobytes()


BAD_CELLS = {"": "cannot parse", "abc": "cannot parse", "nan": "non-finite",
             "inf": "non-finite", "missing": "has 1 columns", "extra": "has 4 columns"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.integers(1, 40), data=st.data(), bad=st.sampled_from(sorted(BAD_CELLS)),
       chunk_rows=st.sampled_from([1, 7, 2048]))
def test_predict_rejects_malformed_cell_with_its_row(model_path, tmp_path_factory, rows,
                                                     data, bad, chunk_rows):
    bad_row = data.draw(st.integers(1, rows))
    X = make_blobs(rows, d=2, seed=5).instances.tolist()
    lines = []
    for i, (a, b) in enumerate(X, start=1):
        cells = [repr(a), repr(b)]
        if i == bad_row:
            if bad == "missing":
                cells.pop()
            elif bad == "extra":
                cells += ["a", "b"]
            else:
                cells[1] = bad
        lines.append(",".join(cells))
    root = tmp_path_factory.mktemp("bad")
    (root / "bad.csv").write_text("\n".join(lines) + "\n")
    code, err = run_predict(model_path, root / "bad.csv", root / "pred", chunk_rows)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"row {bad_row}" in err and BAD_CELLS[bad] in err
    assert os.listdir(root / "pred") == []


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=40))
def test_streamed_predictions_match_library_per_chunk(model_path, tmp_path_factory,
                                                      rows):
    # Scores come from a matrix product whose rounding depends on its shape
    # (rows (0, 0) and (0, 1) differ in the last bit between chunks of 1 and
    # 2 rows), so files for different chunk sizes may differ in the last
    # digit. Each must hold exactly what the library computes on its chunks.
    model = classifier.load_model(model_path)
    X = np.array(rows)
    root = tmp_path_factory.mktemp("chunks")
    (root / "in.csv").write_text("".join(f"{a!r},{b!r}\n" for a, b in rows))
    for chunk_rows in (1, 7, 2048):
        out = root / f"pred{chunk_rows}"
        assert run_predict(model_path, root / "in.csv", out, chunk_rows)[0] == 0
        scores = [classifier.batch_scores(model, X[start:start + chunk_rows])
                  for start in range(0, len(X), chunk_rows)]
        lines = ["label," + ",".join(f"p_{name}" for name in model.label_names)]
        for labels, proba in (classifier.rule_from_scores(model, s) for s in scores):
            lines += [",".join([model.label_names[lab - 1], *map(repr, p)])
                      for lab, p in zip(labels, proba.tolist())]
        expected = "".join(line + "\r\n" for line in lines).encode()
        assert (out / "predictions.csv").read_bytes() == expected
