import csv
import io
import json
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from mrckit import classifier, cli, estimate, features, objective, parallel
from mrckit.cli import main
from mrckit.dataset import save_csv
from mrckit.solver import SolverConfig
from conftest import make_blobs


@pytest.fixture
def blob_csv(tmp_path):
    ds = make_blobs(60, d=2, seed=0, sep=3.0)
    path = tmp_path / "blobs.csv"
    save_csv(ds, path)
    return str(path)


def run_cli(*args):
    return main(list(args))


def trace_iterations(path):
    """The iteration column of a trace CSV."""
    with open(path, newline="") as fh:
        return [int(row[0]) for row in list(csv.reader(fh))[1:]]


def train_args(data, out, **extra):
    args = ["train", "--data", data, "--out", out,
            "--features", "identity", "--solver", "lp", "--seed", "1"]
    for key, val in extra.items():
        args += [f"--{key.replace('_', '-')}", str(val)]
    return args


def test_train_missing_file(tmp_path, capsys):
    code = run_cli("train", "--data", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "out"))
    assert code == 1
    assert "absent.csv" in capsys.readouterr().err


def test_train_writes_model_and_report(blob_csv, tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(*train_args(blob_csv, out)) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert 0.0 <= report["upper_bound"] <= 0.5 + 1e-12
    assert report["lower_bound"] <= report["upper_bound"]
    assert report["n"] == 60 and report["p"] == 60 * 3
    assert os.path.exists(report["model_path"])
    assert os.path.exists(report["trace_path"])
    with open(report["trace_path"]) as fh:
        header = fh.readline().strip()
    assert header == "iteration,elapsed_seconds,best_value,gamma_running"


def test_train_report_p_null_for_fixed_marginal(blob_csv, tmp_path):
    out = tmp_path / "fm"
    code = run_cli("train", "--data", blob_csv, "--out", str(out),
                   "--features", "identity", "--solver", "asm",
                   "--max-iters", "200", "--variant", "fixed-marginal",
                   "--seed", "1")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["p"] is None  # matrix-free objective: no rows built


def test_train_anchor_file_label_column_ignored(blob_csv, tmp_path):
    # a file pool holds d feature columns and an optional, unused label column
    X = make_blobs(15, d=2, seed=8).instances
    cells = [",".join(repr(float(v)) for v in row) for row in X]
    forms = {
        "features": cells,
        "labelled": [c + ("," + "ab"[i % 2]) for i, c in enumerate(cells)],
        "single_label": [c + ",a" for c in cells],
    }
    written = set()
    for name, lines in forms.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / f"model_{name}"
        assert run_cli(*train_args(blob_csv, str(out), anchor=f"file:{path}")) == 0
        written.add((out / "model.json").read_bytes())
    assert len(written) == 1


def test_train_anchor_file_wrong_width(blob_csv, tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text("0.1,0.2,0.3,a\n0.4,0.5,0.6,b\n")
    code = run_cli(*train_args(blob_csv, str(tmp_path / "out"), anchor=f"file:{path}"))
    assert code == 1
    assert "expects 2 features" in capsys.readouterr().err


def test_train_default_solver_four_classes_1500_rows(tmp_path):
    # E-ASM's Gram is n x n (18 MB here), not p x p over n (2^K - 1) rows
    ds = make_blobs(1500, d=2, num_classes=4, seed=3)
    path = tmp_path / "k4.csv"
    save_csv(ds, path)
    out = tmp_path / "k4"
    code = run_cli("train", "--data", str(path), "--out", str(out), "--D", "5",
                   "--max-iters", "30", "--seed", "1")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["p"] == 1500 * 15
    assert report["runs"]["upper"]["method"] == "easm_restart"


def test_train_deterministic_model_bytes(blob_csv, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_cli(*train_args(blob_csv, out1))
    run_cli(*train_args(blob_csv, out2))
    m1 = (tmp_path / "a" / "model.json").read_bytes()
    m2 = (tmp_path / "b" / "model.json").read_bytes()
    assert m1 == m2


def test_solve_timings_in_reports_not_in_model(blob_csv, tmp_path):
    # timings differ between runs, so they stay out of the hashed model file
    models = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("train", "--data", blob_csv, "--out", str(out), "--D", "10",
                       "--max-iters", "300", "--seed", "1") == 0
        models.append((out / "model.json").read_bytes())
        report = json.loads((out / "report.json").read_text())
        assert sorted(report["runs"]) == ["lower", "upper"]
    assert models[0] == models[1]
    assert b"loop_seconds" not in models[0]
    code = run_cli("bounds", "--model", str(tmp_path / "a" / "model.json"),
                   "--out", str(tmp_path / "bounds"), "--deterministic",
                   "--solver", "easm-restart", "--max-iters", "300")
    assert code == 0
    rep = json.loads((tmp_path / "bounds" / "bounds.json").read_text())
    for timings in (report["runs"], rep["deterministic_rule"]["runs"]):
        for side in ("lower", "upper"):
            t = timings[side]
            assert 0 < t["iterations"] <= 300
            assert t["precompute_seconds"] > 0 and t["loop_seconds"] > 0
            assert t["us_per_iteration"] == pytest.approx(
                1e6 * t["loop_seconds"] / t["iterations"])


def test_every_solve_reports_the_same_fields(blob_csv, tmp_path):
    # train's E-ASM-R pair, bounds' LP pair and each bench method share one
    # writer, so a solve's fields do not depend on the command or the method
    out = tmp_path / "train"
    assert run_cli("train", "--data", blob_csv, "--out", str(out), "--D", "10",
                   "--max-iters", "300", "--seed", "1") == 0
    report = json.loads((out / "report.json").read_text())
    assert run_cli("bounds", "--model", str(out / "model.json"), "--out",
                   str(tmp_path / "bounds"), "--deterministic") == 0
    det = json.loads((tmp_path / "bounds" / "bounds.json").read_text())
    assert run_cli("bench-solvers", "--data", blob_csv, "--out", str(tmp_path / "bench"),
                   "--features", "identity", "--max-iters", "300") == 0
    methods = json.loads((tmp_path / "bench" / "bench.json").read_text())["methods"]
    fields = set(report["runs"]["upper"])
    assert {"method", "status", "certificate", "best_value", "sparsity_gamma",
            "value_drift", "iterations", "loop_seconds"} <= fields
    for runs in (report["runs"], det["deterministic_rule"]["runs"]):
        assert sorted(runs) == ["lower", "upper"]
        assert all(set(run) == fields for run in runs.values())
    assert [run["method"] for run in det["deterministic_rule"]["runs"].values()] \
        == ["lp", "lp"]
    assert len(methods) == 4
    for run in methods.values():
        assert set(run) - {"initial_value", "trace", "gap_to_lp"} == fields
    # train traces every 100th iteration, bench-solvers every iteration
    assert trace_iterations(report["trace_path"]) == \
        list(range(0, report["runs"]["upper"]["iterations"] + 1, 100))
    for run in methods.values():
        assert trace_iterations(run["trace"]) == list(range(run["iterations"] + 1))
    # flags.solver names the method that ran
    assert report["flags"]["solver"] == "easm-restart"
    assert report["runs"]["upper"]["method"] == "easm_restart"
    assert det["flags"]["solver"] == "lp"


def test_studies_leave_the_default_method_to_the_library(blob_csv, tmp_path):
    # without --solver the flag reads null, and solver.solve runs E-ASM-R on
    # the sweep's standard-variant problems
    tables, flags = [], []
    for name, solver in (("default", ()), ("named", ("--solver", "easm-restart"))):
        out = tmp_path / name
        assert run_cli("sweep-lambda", "--data", blob_csv, "--out", str(out),
                       "--features", "identity", "--max-iters", "300", "--lambda0-grid",
                       "0.3", "--folds", "2", "--seed", "2", *solver) == 0
        tables.append((out / "sweep_lambda.csv").read_bytes())
        flags.append(json.loads((out / "report.json").read_text())["flags"]["solver"])
    assert tables[0] == tables[1]
    assert flags == [None, "easm-restart"]


def test_predict_command(blob_csv, tmp_path):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    pred_out = str(tmp_path / "pred")
    code = run_cli("predict", "--model", os.path.join(out, "model.json"),
                   "--data", blob_csv, "--out", pred_out, "--proba")
    assert code == 0
    with open(os.path.join(pred_out, "predictions.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "p_1", "p_2"]
    assert len(rows) == 61
    assert rows[1][0] in ("1", "2")


def assert_predict_matches_library(model_path, data, pred):
    code = run_cli("predict", "--model", model_path, "--data", str(data),
                   "--out", str(pred), "--proba")
    assert code == 0
    with open(pred / "predictions.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    model = classifier.load_model(model_path)
    X = np.loadtxt(data, delimiter=",")[:, :-1]
    names = [model.label_names[lab - 1] for lab in classifier.predict(model, X)]
    assert [row[0] for row in rows] == names
    proba = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.allclose(proba, classifier.predict_proba(model, X), rtol=0, atol=1e-15)


def test_predict_chunked_matches_library(blob_csv, tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    model_path = os.path.join(out, "model.json")
    monkeypatch.setattr(cli, "PREDICT_CHUNK_ROWS", 7)
    assert_predict_matches_library(model_path, blob_csv, tmp_path / "pred")
    # a model whose 2048-row block is over the feature budget: 300 rows of
    # X W^T and psi (20 + 40 features) per score block, the last one partial
    monkeypatch.setattr(cli, "PREDICT_CHUNK_ROWS", 2048)
    monkeypatch.setattr(features, "SCORE_BLOCK_BYTES", 300 * (3 * 20) * 8)
    out = str(tmp_path / "rff")
    assert run_cli("train", "--data", blob_csv, "--out", out, "--D", "20",
                   "--max-iters", "200", "--seed", "1") == 0
    data = tmp_path / "test.csv"
    save_csv(make_blobs(5000, d=2, seed=2), data)  # 3 blocks
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        assert_predict_matches_library(os.path.join(out, "model.json"), data,
                                       tmp_path / f"pred{cpus}")


def test_predict_chunked_warns_once(blob_csv, tmp_path, monkeypatch, caplog):
    out = str(tmp_path / "fm")
    run_cli("train", "--data", blob_csv, "--out", out, "--features", "identity",
            "--solver", "asm", "--max-iters", "200", "--variant", "fixed-marginal",
            "--seed", "1")
    # a support value 0.5 too low makes every rule row sum off 1
    phi_per_instance = objective.phi_per_instance
    monkeypatch.setattr(objective, "phi_per_instance",
                        lambda scores: phi_per_instance(scores) - 0.5)
    monkeypatch.setattr(cli, "PREDICT_CHUNK_ROWS", 7)
    code = run_cli("predict", "--model", os.path.join(out, "model.json"),
                   "--data", blob_csv, "--out", str(tmp_path / "pred"))
    assert code == 0
    warned = [r.getMessage() for r in caplog.records if "renormalizing" in r.getMessage()]
    assert warned == ["renormalizing 60 rule rows that summed off 1 by >1e-9"]


def test_predict_rejects_non_finite_values(blob_csv, tmp_path, capsys):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,1.0\n1.5,nan\n")
    code = run_cli("predict", "--model", os.path.join(out, "model.json"),
                   "--data", str(bad), "--out", str(tmp_path / "pred"))
    assert code == 1
    err = capsys.readouterr().err
    assert "row 2, column 2" in err and "non-finite" in err


def test_predict_same_output_with_or_without_labels(blob_csv, tmp_path):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    X = make_blobs(20, d=2, seed=9).instances
    cells = [",".join(repr(float(v)) for v in row) for row in X]
    forms = {
        "features": cells,
        "labelled": [c + ("," + "ab"[i % 2]) for i, c in enumerate(cells)],
        "single_label": [c + ",a" for c in cells],
    }
    written = set()
    for name, lines in forms.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        pred = tmp_path / f"pred_{name}"
        code = run_cli("predict", "--model", os.path.join(out, "model.json"),
                       "--data", str(path), "--proba", "--out", str(pred))
        assert code == 0
        written.add((pred / "predictions.csv").read_bytes())
    assert len(written) == 1


def test_byte_order_mark_accepted(blob_csv, tmp_path):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark
    bom = tmp_path / "bom.csv"
    bom.write_bytes("\ufeff".encode() + Path(blob_csv).read_bytes())
    models, predictions = set(), set()
    for tag, path in (("plain", blob_csv), ("bom", str(bom))):
        out = tmp_path / f"model_{tag}"
        assert run_cli(*train_args(path, str(out), anchor=f"file:{path}")) == 0
        models.add((out / "model.json").read_bytes())
        pred = tmp_path / f"pred_{tag}"
        assert run_cli("predict", "--model", str(out / "model.json"), "--data", path,
                       "--proba", "--out", str(pred)) == 0
        predictions.add((pred / "predictions.csv").read_bytes())
    assert len(models) == 1 and len(predictions) == 1


def write_stream_input(path, rows, bad_row, bad_cell, header):
    """`rows` feature rows of d = 2, data row `bad_row` (1-based) holding
    `bad_cell` in column 2."""
    X = make_blobs(rows, d=2, seed=4).instances
    lines = ["f1,f2"] if header else []
    for i, (a, b) in enumerate(X.tolist(), start=1):
        lines.append(f"{a!r},{bad_cell if i == bad_row else repr(b)}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
@pytest.mark.parametrize("bad_cell,message", [("nan", "non-finite"),
                                              ("abc", "cannot parse")])
def test_predict_bad_cell_past_first_chunk(blob_csv, tmp_path, capsys, header,
                                           bad_cell, message):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    bad = tmp_path / "bad.csv"
    write_stream_input(bad, 6000, 5000, bad_cell, header)
    pred = tmp_path / "pred"
    flags = ["--has-header"] if header else []
    capsys.readouterr()
    code = run_cli("predict", "--model", os.path.join(out, "model.json"),
                   "--data", str(bad), "--out", str(pred), "--proba", *flags)
    assert code == 1
    err = capsys.readouterr().err
    assert f"row {5001 if header else 5000}, column 2" in err and message in err
    assert "Traceback" not in err
    assert os.listdir(pred) == []  # no predictions.csv and no partial file


def test_predict_leaves_no_thread_behind(blob_csv, tmp_path, capsys):
    out = str(tmp_path / "out")
    # RFF predict over three blocks: its cos/sin and its stripes start no thread
    assert run_cli("train", "--data", blob_csv, "--out", out, "--D", "64",
                   "--solver", "asm", "--max-iters", "200", "--seed", "1") == 0
    bad = tmp_path / "bad.csv"
    write_stream_input(bad, 6000, 5000, "nan", header=False)
    threads = threading.active_count()
    for data, expected in ((blob_csv, 0), (str(bad), 1)):
        code = run_cli("predict", "--model", os.path.join(out, "model.json"),
                       "--data", data, "--out", str(tmp_path / f"pred{expected}"),
                       "--proba")
        assert code == expected
        assert threading.active_count() == threads
    assert "row 5000, column 2" in capsys.readouterr().err


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_predict_leaves_no_child_behind(blob_csv, tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    model = os.path.join(out, "model.json")
    bad = tmp_path / "bad.csv"
    write_stream_input(bad, 60, 50, "nan", header=False)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "PREDICT_CHUNK_ROWS", 7)  # blocks in two processes
    for data, expected in ((blob_csv, 0), (str(bad), 1)):
        pred = tmp_path / f"pred{expected}"
        assert run_cli("predict", "--model", model, "--data", data, "--out",
                       str(pred), "--proba") == expected
        assert_no_child_process()
    assert "row 50, column 2" in capsys.readouterr().err
    parent, batch_scores = os.getpid(), classifier.batch_scores

    def die_in_worker(model, X):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return batch_scores(model, X)

    monkeypatch.setattr(classifier, "batch_scores", die_in_worker)
    pred = tmp_path / "killed"
    assert run_cli("predict", "--model", model, "--data", blob_csv, "--out",
                   str(pred), "--proba") == 2
    err = capsys.readouterr().err
    assert "worker process was killed by signal 9" in err and "Traceback" not in err
    assert os.listdir(pred) == []
    assert_no_child_process()


def test_predict_worker_error_names_first_bad_cell(blob_csv, tmp_path, monkeypatch,
                                                   capsys):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "PREDICT_CHUNK_ROWS", 7)
    # block k goes to process k mod 2: rows 8-14 to the worker, 15-21 to the caller
    X = make_blobs(30, d=2, seed=4).instances
    cells = {10: "abc", 16: "nan"}
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(f"{a!r},{cells.get(i, repr(b))}\n"
                           for i, (a, b) in enumerate(X.tolist(), start=1)))
    pred = tmp_path / "pred"
    capsys.readouterr()
    code = run_cli("predict", "--model", os.path.join(out, "model.json"),
                   "--data", str(bad), "--out", str(pred), "--proba")
    err = capsys.readouterr().err
    assert code == 1
    assert "row 10, column 2: cannot parse 'abc'" in err and "row 16" not in err
    assert "Traceback" not in err
    assert os.listdir(pred) == []  # no predictions.csv and no partial file
    assert_no_child_process()


@pytest.mark.parametrize("chunk_rows", [7, 2048])
def test_predict_bytes_same_at_one_and_two_cpus(tmp_path, monkeypatch, chunk_rows):
    save_csv(make_blobs(60, d=2, seed=0, sep=3.0), tmp_path / "train.csv")
    out = str(tmp_path / "out")
    assert run_cli("train", "--data", str(tmp_path / "train.csv"), "--out", out,
                   "--D", "20", "--max-iters", "200", "--seed", "1") == 0
    data = tmp_path / "test.csv"
    save_csv(make_blobs(5000, d=2, seed=2), data)  # 715 or 3 blocks: odd counts
    monkeypatch.setattr(cli, "PREDICT_CHUNK_ROWS", chunk_rows)
    written = []
    for n in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
        pred = tmp_path / f"pred{n}"
        assert run_cli("predict", "--model", os.path.join(out, "model.json"),
                       "--data", str(data), "--out", str(pred), "--proba") == 0
        written.append((pred / "predictions.csv").read_bytes())
    assert written[0] == written[1]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_predict_reads_a_named_pipe_once(tmp_path, monkeypatch):
    save_csv(make_blobs(60, d=2, seed=0, sep=3.0), tmp_path / "train.csv")
    out = str(tmp_path / "out")
    assert run_cli("train", "--data", str(tmp_path / "train.csv"), "--out", out,
                   "--D", "20", "--max-iters", "200", "--seed", "1") == 0
    data = tmp_path / "test.csv"
    save_csv(make_blobs(5000, d=2, seed=2), data)  # more than a pipe holds at once
    fifo = tmp_path / "test.fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "PREDICT_CHUNK_ROWS", 7)
    done = threading.Event()

    def feed():
        fifo.write_bytes(data.read_bytes())
        while not done.wait(0.01):  # a second reader gets the pipe's end, not a hang
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader has the pipe open
                pass

    model = os.path.join(out, "model.json")
    assert run_cli("predict", "--model", model, "--data", str(data), "--out",
                   str(tmp_path / "file"), "--proba") == 0
    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        code = run_cli("predict", "--model", model, "--data", str(fifo), "--out",
                       str(tmp_path / "pipe"), "--proba")
    finally:
        done.set()
        feeder.join(timeout=10)
    assert code == 0
    assert ((tmp_path / "pipe" / "predictions.csv").read_bytes()
            == (tmp_path / "file" / "predictions.csv").read_bytes())
    assert_no_child_process()


def test_predict_label_cells_match_csv_writer(tmp_path):
    names = ("a,b", 'say "hi"', "two\nlines", "")  # "" from a blank label cell
    ds = make_blobs(80, d=2, num_classes=4, sep=6.0, seed=3)
    train = tmp_path / "train.csv"
    with open(train, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([*map(repr, x), names[y - 1]]
                                 for x, y in zip(ds.instances.tolist(), ds.labels))
    out = tmp_path / "out"
    assert run_cli("train", "--data", str(train), "--out", str(out), "--features",
                   "identity", "--solver", "asm", "--max-iters", "200",
                   "--seed", "1") == 0
    model = classifier.load_model(str(out / "model.json"))
    assert model.label_names == names
    labels, proba = classifier.rule_from_scores(
        model, classifier.batch_scores(model, ds.instances))
    assert set(labels.tolist()) == {1, 2, 3, 4}
    for flags in ([], ["--proba"]):
        head = ["label", *(f"p_{name}" for name in names)] if flags else ["label"]
        expected = io.StringIO()
        csv.writer(expected).writerows(
            [head, *([names[lab - 1], *(p if flags else [])]
                     for lab, p in zip(labels.tolist(), proba.tolist()))])
        pred = tmp_path / f"pred{len(flags)}"
        assert run_cli("predict", "--model", str(out / "model.json"), "--data",
                       str(train), "--out", str(pred), *flags) == 0
        assert (pred / "predictions.csv").read_bytes() == expected.getvalue().encode()


def irregular_csv(X, bad_row=None):
    """The feature rows X as CSV records in blocks of 7, and the record number
    of data row `bad_row`, whose second cell is 'abc'.

    Line ends go round \\n, \\r\\n and \\r; row 2 carries a label; row 3's
    numbers are quoted; rows 7 and 14, the last of their blocks, carry a
    quoted label that holds a line end; 7 blank records follow row 14 and 4
    end the file. The blank records fill whole blocks or end the last one,
    so each block holds the rows that a plain file's block does.
    """
    records, bad_record = [], None
    for i, (a, b) in enumerate(X, start=1):
        cells = [repr(a), "abc" if i == bad_row else repr(b)]
        if i == bad_row:
            bad_record = len(records) + 1
        if i == 2:
            cells.append("lab")
        if i == 3:
            cells = [f'"{cell}"' for cell in cells]
        if i in (7, 14):
            cells.append('"two\nlines"')
        records.append(",".join(cells))
        if i == 14:
            records += [""] * 7
    records += ["", " ", "", ""]
    ends = ("\n", "\r\n", "\r")
    # a blank record ends with \r\n, so that no \r before it joins its \n
    text = "".join(r + (ends[k % 3] if r else "\r\n") for k, r in enumerate(records))
    return text, bad_record


def test_predict_irregular_records_across_blocks(blob_csv, tmp_path, monkeypatch,
                                                 capsys):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    model = os.path.join(out, "model.json")
    monkeypatch.setattr(cli, "PREDICT_CHUNK_ROWS", 7)
    X = make_blobs(24, d=2, seed=4).instances.tolist()
    plain = tmp_path / "plain.csv"
    plain.write_text("".join(f"{a!r},{b!r}\n" for a, b in X))
    assert run_cli("predict", "--model", model, "--data", str(plain), "--out",
                   str(tmp_path / "plain"), "--proba") == 0
    expected = (tmp_path / "plain" / "predictions.csv").read_bytes()
    odd = tmp_path / "odd.csv"
    text, _ = irregular_csv(X)
    odd.write_bytes(text.encode())
    bad = tmp_path / "bad.csv"
    text, bad_record = irregular_csv(X, bad_row=17)
    bad.write_bytes(text.encode())
    assert bad_record == 24  # on line 26: rows 7 and 14 span two lines each
    for n in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # also in the forked worker
            assert run_cli("predict", "--model", model, "--data", str(odd), "--out",
                           str(tmp_path / f"odd{n}"), "--proba") == 0
            assert (tmp_path / f"odd{n}" / "predictions.csv").read_bytes() == expected
            capsys.readouterr()
            assert run_cli("predict", "--model", model, "--data", str(bad), "--out",
                           str(tmp_path / f"bad{n}"), "--proba") == 1
        assert (capsys.readouterr().err
                == f"error: {bad}: row 24, column 2: cannot parse 'abc' as a real number\n")
        assert os.listdir(tmp_path / f"bad{n}") == []
        assert_no_child_process()


@pytest.mark.parametrize("text,flags", [("", []), ("\n\r\n" * 9 + " \n", []),
                                        ("f1,f2\n", ["--has-header"])],
                         ids=["empty", "blank-lines", "header-only"])
def test_predict_no_data_rows(blob_csv, tmp_path, monkeypatch, capsys, text, flags):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "PREDICT_CHUNK_ROWS", 7)
    data = tmp_path / "data.csv"
    data.write_bytes(text.encode())
    pred = tmp_path / "pred"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # also in the forked worker
        assert run_cli("predict", "--model", os.path.join(out, "model.json"), "--data",
                       str(data), "--out", str(pred), "--proba", *flags) == 1
    assert capsys.readouterr().err == f"error: {data}: no data rows\n"
    assert os.listdir(pred) == []  # no predictions.csv and no partial file
    assert_no_child_process()


def test_predict_dev_mode_closes_files(blob_csv, tmp_path):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    bad = tmp_path / "bad.csv"
    write_stream_input(bad, 6000, 5000, "nan", header=False)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src")))
    for data, expected in ((blob_csv, 0), (str(bad), 1)):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m",
             "mrckit.cli", "predict", "--model", os.path.join(out, "model.json"),
             "--data", data, "--proba", "--out", str(tmp_path / f"pred{expected}")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == expected, proc.stderr
        assert "ResourceWarning" not in proc.stderr


@pytest.mark.parametrize("edit,field", [
    pytest.param(lambda p: p.pop("mu_star"), "mu_star", id="missing"),
    pytest.param(lambda p: p.update(label_names=["1"]), "label_names",
                 id="one-label"),
    pytest.param(lambda p: p.update(phi_star=None), "phi_star", id="null-phi"),
    pytest.param(lambda p: p.update(normalization={"mean": [0.0], "std": [1.0]}),
                 "normalization.mean", id="short-normalization"),
    pytest.param(lambda p: p.update(mu_star=[float("nan")] * len(p["mu_star"])),
                 "mu_star", id="nan-mu"),
    pytest.param(lambda p: p.update(variant="bogus"), "variant",
                 id="unknown-variant"),
    pytest.param(lambda p: p.update(instance_anchor=[[0.0, 1.0, 2.0]]),
                 "instance_anchor", id="wide-anchor"),
])
def test_malformed_model_file_exit_1(blob_csv, tmp_path, capsys, edit, field):
    out = tmp_path / "out"
    run_cli(*train_args(blob_csv, str(out)))
    payload = json.loads((out / "model.json").read_text())
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    for command in (["predict", "--data", blob_csv], ["bounds"]):
        code = run_cli(command[0], "--model", str(bad),
                       "--out", str(tmp_path / "o"), *command[1:])
        err = capsys.readouterr().err
        assert code == 1
        assert field in err and err.startswith("error: ")
        assert "Traceback" not in err


def test_model_file_of_the_previous_format_gives_the_same_outputs(blob_csv, tmp_path,
                                                                  capsys):
    # files that still carry feature_spec.include_constant and feature_bound
    # and provenance.family_size load, and those keys are ignored
    out = tmp_path / "out"
    run_cli(*train_args(blob_csv, str(out)))
    payload = json.loads((out / "model.json").read_text())
    assert not {"include_constant", "feature_bound"} & payload["feature_spec"].keys()
    assert "family_size" not in payload["provenance"]
    old = json.loads((out / "model.json").read_text())
    old["feature_spec"].update(include_constant=False,
                               feature_bound=payload["provenance"]["C"])
    old["provenance"]["family_size"] = payload["feature_spec"]["d"]
    outputs = []
    for name, model in (("new", payload), ("old", old)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(model))
        assert run_cli("predict", "--model", str(path), "--data", blob_csv, "--proba",
                       "--out", str(tmp_path / name)) == 0
        assert run_cli("bounds", "--model", str(path), "--out", str(tmp_path / name),
                       "--lambda-delta-mode", "hoeffding", "--delta", "0.05") == 0
        report = json.loads((tmp_path / name / "bounds.json").read_text())
        outputs.append(((tmp_path / name / "predictions.csv").read_bytes(),
                        report["high_confidence"]))
    assert outputs[0] == outputs[1]
    # a constant feature is no longer computed, so a file that asks for one
    # is refused
    old["feature_spec"]["include_constant"] = True
    (tmp_path / "old.json").write_text(json.dumps(old))
    capsys.readouterr()
    for command in (["predict", "--data", blob_csv], ["bounds"]):
        code = run_cli(command[0], "--model", str(tmp_path / "old.json"),
                       "--out", str(tmp_path / "o"), *command[1:])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: model field 'feature_spec.include_constant'")


def test_bounds_command(blob_csv, tmp_path):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    bout = str(tmp_path / "bounds")
    code = run_cli("bounds", "--model", os.path.join(out, "model.json"),
                   "--out", bout, "--deterministic",
                   "--lambda-delta-add", "0.05")
    assert code == 0
    rep = json.loads((tmp_path / "bounds" / "bounds.json").read_text())
    assert 0.0 <= rep["lower_bound"] <= rep["upper_bound"] <= 1.0
    det = rep["deterministic_rule"]
    assert 0.0 <= det["lower"] <= det["upper"] <= 1.0
    hc = rep["high_confidence"]
    assert hc["lower"] <= rep["lower_bound"] + 1e-12
    assert hc["upper"] >= rep["upper_bound"] - 1e-12
    assert 0.0 <= hc["lower"] and hc["upper"] <= 1.0


def test_bounds_deterministic_maps_anchor_once(blob_csv, tmp_path, mapped_rows):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    mapped_rows.clear()
    code = run_cli("bounds", "--model", os.path.join(out, "model.json"),
                   "--out", str(tmp_path / "bounds"), "--deterministic")
    assert code == 0
    assert mapped_rows == [60]


def test_bounds_default_solver_follows_problem_size(blob_csv, tmp_path):
    # default features give m = 2000, past the LP's column limit: the bound
    # problems go to E-ASM-R; a small identity model keeps the exact LP
    rff, ident = tmp_path / "rff", tmp_path / "ident"
    assert run_cli("train", "--data", blob_csv, "--out", str(rff),
                   "--max-iters", "200") == 0
    assert run_cli(*train_args(blob_csv, str(ident))) == 0
    for model_dir, solver, certificate in ((rff, "easm-restart", "subgradient"),
                                           (ident, "lp", "lp")):
        out = model_dir / "bounds"
        code = run_cli("bounds", "--model", str(model_dir / "model.json"),
                       "--out", str(out), "--deterministic", "--max-iters", "200")
        assert code == 0
        rep = json.loads((out / "bounds.json").read_text())
        assert rep["flags"]["solver"] == solver
        assert [rep["deterministic_rule"]["runs"][side]["certificate"]
                for side in ("lower", "upper")] == [certificate] * 2


def test_deterministic_rule_bounds_is_what_bounds_writes(blob_csv, tmp_path):
    # both default cases: E-ASM-R past the LP limits (rff) and the LP (identity)
    rff, ident = tmp_path / "rff", tmp_path / "ident"
    assert run_cli("train", "--data", blob_csv, "--out", str(rff),
                   "--max-iters", "200") == 0
    assert run_cli(*train_args(blob_csv, str(ident))) == 0
    for model_dir, method in ((rff, "easm_restart"), (ident, "lp")):
        out = model_dir / "bounds"
        assert run_cli("bounds", "--model", str(model_dir / "model.json"),
                       "--out", str(out), "--deterministic", "--max-iters", "200") == 0
        written = json.loads((out / "bounds.json").read_text())["deterministic_rule"]
        model = classifier.load_model(str(model_dir / "model.json"))
        det = classifier.deterministic_rule_bounds(model, SolverConfig(max_iters=200))
        assert (det.lower_raw, det.upper_raw) == (written["lower_raw"],
                                                  written["upper_raw"])
        assert [det.runs[side].method for side in ("lower", "upper")] == [method] * 2
        assert [written["runs"][side]["certificate"] for side in ("lower", "upper")] \
            == [det.runs["lower"].certificate, det.runs["upper"].certificate]


@pytest.mark.parametrize("solver", [(), ("--solver", "asm")], ids=["default", "asm"])
def test_bounds_deterministic_builds_upper_problem_once(blob_csv, tmp_path, monkeypatch,
                                                        solver):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    built = []
    build = objective.build_upper_bound_problem

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(objective, "build_upper_bound_problem", counting)
    code = run_cli("bounds", "--model", os.path.join(out, "model.json"),
                   "--out", str(tmp_path / "bounds"), "--deterministic",
                   "--max-iters", "50", *solver)
    assert code == 0
    assert len(built) == 1


def test_hoeffding_lambda_reads_provenance(blob_csv, tmp_path):
    out = tmp_path / "out"
    run_cli(*train_args(blob_csv, str(out)))
    model = classifier.load_model(str(out / "model.json"))
    prov = model.uncertainty.provenance
    width = estimate.lambda_hoeffding(prov["C"], features.block_dim(model.feature_spec), 2,
                                      0.1, prov["n"])
    assert np.array_equal(classifier.hoeffding_lambda(model, 0.1),
                          np.maximum(model.uncertainty.lam, width))


def test_bounds_rejects_small_lambda_delta(blob_csv, tmp_path):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    code = run_cli("bounds", "--model", os.path.join(out, "model.json"),
                   "--out", str(tmp_path / "b"),
                   "--lambda-delta-add", "-0.5")
    assert code == 1  # lambda_delta below lambda is an input error


def test_sweep_lambda(blob_csv, tmp_path):
    out = str(tmp_path / "sweep")
    code = run_cli("sweep-lambda", "--data", blob_csv, "--out", out,
                   "--features", "identity", "--solver", "lp",
                   "--lambda0-grid", "0,0.3", "--folds", "3", "--seed", "2")
    assert code == 0
    with open(os.path.join(out, "sweep_lambda.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda0", "upper", "lower", "risk_rand", "err_det"]
    assert len(rows) == 3
    uppers = [float(r[1]) for r in rows[1:]]
    assert uppers[1] >= uppers[0] - 1e-6  # upper bound grows with lambda0


def test_sweep_empty_grid(blob_csv, tmp_path):
    code = run_cli("sweep-lambda", "--data", blob_csv,
                   "--out", str(tmp_path / "s"), "--lambda0-grid", ",")
    assert code == 1


def test_reduce_study(blob_csv, tmp_path):
    out = str(tmp_path / "reduce")
    code = run_cli("reduce-study", "--data", blob_csv, "--out", out,
                   "--features", "identity", "--solver", "lp",
                   "--sizes", "20,60", "--reps", "2", "--seed", "3")
    assert code == 0
    with open(os.path.join(out, "reduce_study.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "rep", "upper", "lower", "abs_diff_upper", "eps_s"]
    assert len(rows) == 1 + 2 * 2
    full = [r for r in rows[1:] if r[0] == "60"]
    for r in full:
        assert float(r[4]) < 1e-9  # s = pool size reproduces the full solve
    assert all(float(r[5]) > 0 for r in rows[1:])


def test_reduce_study_maps_each_subset_once(blob_csv, tmp_path, mapped_rows):
    code = run_cli("reduce-study", "--data", blob_csv, "--out", str(tmp_path / "r"),
                   "--features", "identity", "--solver", "asm", "--max-iters", "300",
                   "--sizes", "20,60", "--reps", "2", "--seed", "3")
    assert code == 0
    assert mapped_rows == [60, 20, 20, 60, 60]  # the training set, then each subset


@pytest.mark.parametrize("command", [
    pytest.param(["reduce-study", "--features", "identity", "--sizes", "20",
                  "--reps", "1"], id="reduce-study"),
    pytest.param(["model-select", "--sigma-grid", "1.0", "--splits", "1", "--D", "8",
                  "--select-max-iters", "200"], id="model-select"),
])
def test_studies_take_rademacher_width(blob_csv, tmp_path, command):
    code = run_cli(*command, "--data", blob_csv, "--out", str(tmp_path / "o"),
                   "--solver", "asm", "--max-iters", "300",
                   "--lambda-mode", "rademacher", "--rademacher-R", "1.0")
    assert code == 0


def test_reduce_study_oversized(blob_csv, tmp_path):
    code = run_cli("reduce-study", "--data", blob_csv,
                   "--out", str(tmp_path / "r"), "--features", "identity",
                   "--sizes", "100", "--reps", "1")
    assert code == 1


def test_bench_solvers(blob_csv, tmp_path):
    out = str(tmp_path / "bench")
    code = run_cli("bench-solvers", "--data", blob_csv, "--out", out,
                   "--features", "identity", "--max-iters", "300",
                   "--restart-period", "100", "--seed", "4")
    assert code == 0
    rep = json.loads((tmp_path / "bench" / "bench.json").read_text())
    methods = rep["methods"]
    assert set(methods) == {"bsm", "asm", "easm", "easm_restart"}
    starts = {methods[name]["initial_value"] for name in methods}
    assert len(starts) == 1  # identical f(mu_1) across methods
    assert "lp_optimum" in rep
    for name in methods:
        assert methods[name]["best_value"] >= rep["lp_optimum"] - 1e-9
        assert methods[name]["sparsity_gamma"] is not None
        assert methods[name]["precompute_seconds"] >= 0.0
    assert methods["bsm"]["precompute_seconds"] == 0.0
    assert methods["easm"]["precompute_seconds"] > 0.0
    # accelerated traces identical per iteration between asm and easm
    with open(methods["asm"]["trace"]) as fh:
        asm_best = [row[2] for row in list(csv.reader(fh))[1:]]
    with open(methods["easm"]["trace"]) as fh:
        easm_best = [row[2] for row in list(csv.reader(fh))[1:]]
    a = np.array([float(v) for v in asm_best])
    e = np.array([float(v) for v in easm_best])
    assert np.allclose(a, e, atol=1e-9)


def test_model_select_single_candidate(blob_csv, tmp_path):
    out = str(tmp_path / "sel")
    code = run_cli("model-select", "--data", blob_csv, "--out", out,
                   "--sigma-grid", "1.0", "--splits", "2", "--D", "10",
                   "--max-iters", "2000", "--select-max-iters", "500",
                   "--solver", "easm-restart", "--restart-period", "500",
                   "--seed", "5")
    assert code == 0
    rep = json.loads((tmp_path / "sel" / "model_select.json").read_text())
    assert rep["mean_selected_sigma"] == 1.0
    assert 0.0 <= rep["mean_deterministic_error"] <= 1.0
    assert len(rep["splits"]) == 2


def test_model_select_tie_prefers_smaller_sigma(tmp_path):
    # duplicate candidate values tie exactly; the first (smaller) wins
    ds = make_blobs(40, d=2, seed=6)
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    out = str(tmp_path / "sel2")
    code = run_cli("model-select", "--data", str(path), "--out", out,
                   "--sigma-grid", "1.0,1.0", "--splits", "1", "--D", "8",
                   "--max-iters", "500", "--select-max-iters", "200",
                   "--solver", "easm", "--seed", "6")
    assert code == 0
    rep = json.loads((tmp_path / "sel2" / "model_select.json").read_text())
    assert rep["splits"][0]["sigma"] == 1.0


def test_bounds_hoeffding_delta_mode(blob_csv, tmp_path):
    out = str(tmp_path / "out")
    run_cli(*train_args(blob_csv, out))
    bout = str(tmp_path / "hc")
    code = run_cli("bounds", "--model", os.path.join(out, "model.json"),
                   "--out", bout, "--lambda-delta-mode", "hoeffding",
                   "--delta", "0.05")
    assert code == 0
    rep = json.loads((tmp_path / "hc" / "bounds.json").read_text())
    hc = rep["high_confidence"]
    assert hc["upper"] >= rep["upper_bound"] - 1e-12


def test_train_fixed_marginal_variant(blob_csv, tmp_path):
    out = str(tmp_path / "fm")
    code = run_cli("train", "--data", blob_csv, "--out", out,
                   "--features", "identity", "--solver", "asm",
                   "--max-iters", "2000", "--variant", "fixed-marginal",
                   "--seed", "1")
    assert code == 0
    model = json.loads((tmp_path / "fm" / "model.json").read_text())
    assert model["variant"] == "fixed_marginal"
    assert model["lower_bound"] is None
    # the structured solvers reject the matrix-free objective
    code = run_cli("train", "--data", blob_csv, "--out", str(tmp_path / "fm2"),
                   "--features", "identity", "--solver", "easm",
                   "--variant", "fixed-marginal", "--seed", "1")
    assert code == 2


def test_exit_code_semantics(tmp_path, blob_csv):
    # solver budget violation surfaces as a numerical error (exit 2)
    code = run_cli("train", "--data", blob_csv, "--out", str(tmp_path / "x"),
                   "--features", "rff", "--D", "400", "--solver", "lp",
                   "--seed", "1")
    assert code == 2  # m = 1600 columns exceeds the LP budget


# ru_maxrss units per MB: kB on Linux, bytes on macOS
MAXRSS_PER_MB = 1024.0 ** 2 if sys.platform == "darwin" else 1024.0


def test_reports_record_peak_rss(blob_csv, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert run_cli("train", "--data", blob_csv, "--out", str(out), "--D", "10",
                   "--max-iters", "300", "--seed", "1") == 0
    report = json.loads((out / "report.json").read_text())
    assert 0 < report["peak_rss_mb"] < 1e6
    assert b"peak_rss_mb" not in (out / "model.json").read_bytes()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    assert run_cli("bounds", "--model", str(out / "model.json"), "--out",
                   str(tmp_path / "bounds"), "--deterministic",
                   "--solver", "easm-restart", "--max-iters", "300") == 0
    rep = json.loads((tmp_path / "bounds" / "bounds.json").read_text())
    assert 0 < rep["peak_rss_mb"] < 1e6


def test_peak_rss_takes_the_larger_child_peak(monkeypatch, tmp_path):
    resource = pytest.importorskip("resource")
    status = tmp_path / "status"
    status.write_bytes(b"Name:\tpython\nVmHWM:\t    1024 kB\nVmRSS:\t 512 kB\n")
    monkeypatch.setattr(cli, "PROC_STATUS", str(status))

    class Usage:
        def __init__(self, who):
            # a forked solve whose peak is above this process's own
            self.ru_maxrss = 300 * MAXRSS_PER_MB if who == resource.RUSAGE_CHILDREN else 0

    monkeypatch.setattr(resource, "getrusage", Usage)
    assert cli._peak_rss_mb() == 1.0
    assert cli._peak_rss_mb(children=True) == 300.0


def test_train_reports_without_proc_or_resource(blob_csv, tmp_path, monkeypatch):
    # where neither is there (Windows), the report says so and train succeeds
    monkeypatch.setattr(cli, "PROC_STATUS", str(tmp_path / "absent"))
    monkeypatch.setitem(sys.modules, "resource", None)
    out = tmp_path / "out"
    assert run_cli("train", "--data", blob_csv, "--out", str(out), "--D", "10",
                   "--max-iters", "300", "--seed", "1") == 0
    assert json.loads((out / "report.json").read_text())["peak_rss_mb"] is None


def test_peak_rss_without_proc_status(monkeypatch, tmp_path):
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(cli, "PROC_STATUS", str(tmp_path / "absent"))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak = cli._peak_rss_mb()
    assert own <= peak * MAXRSS_PER_MB <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
