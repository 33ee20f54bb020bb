import csv
import json
import os

import numpy as np
import pytest

from mrckit.cli import main
from mrckit.dataset import save_csv
from conftest import make_blobs


@pytest.fixture
def blob_csv(tmp_path):
    ds = make_blobs(60, d=2, seed=0, sep=3.0)
    path = tmp_path / "blobs.csv"
    save_csv(ds, path)
    return str(path)


def run_cli(*args):
    return main(list(args))


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


def test_train_deterministic_model_bytes(blob_csv, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_cli(*train_args(blob_csv, out1))
    run_cli(*train_args(blob_csv, out2))
    m1 = (tmp_path / "a" / "model.json").read_bytes()
    m2 = (tmp_path / "b" / "model.json").read_bytes()
    assert m1 == m2


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
        assert methods[name]["gamma"] is not None
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
