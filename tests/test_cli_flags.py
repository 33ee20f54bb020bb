"""Each command takes exactly the flags it reads, and a bad input cell ends in
an input error rather than a traceback."""

import argparse
import os

import pytest

from mrckit import classifier, cli, parallel
from mrckit.cli import main
from mrckit.dataset import save_csv
from conftest import make_blobs


@pytest.fixture
def blob_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    save_csv(make_blobs(60, d=2, seed=0, sep=3.0), path)
    return str(path)


def train_model(data, out):
    assert main(["train", "--data", data, "--out", str(out), "--features",
                 "identity", "--solver", "lp", "--seed", "1"]) == 0
    return str(out / "model.json")


REQUIRED = {
    "train": [],
    "sweep-lambda": ["--lambda0-grid", "0.3"],
    "reduce-study": ["--sizes", "20"],
    "bench-solvers": [],
    "model-select": [],
}


@pytest.mark.parametrize("command,flag,value", [
    ("sweep-lambda", "--lambda-mode", "hoeffding"),
    ("sweep-lambda", "--lambda0", "0.3"),
    ("sweep-lambda", "--delta", "0.1"),
    ("sweep-lambda", "--rademacher-R", "1.0"),
    ("sweep-lambda", "--anchor", "train"),
    ("bench-solvers", "--solver", "asm"),
    ("bench-solvers", "--anchor", "train"),
    ("model-select", "--sigma", "1.0"),
    ("model-select", "--anchor", "train"),
    ("model-select", "--features", "identity"),
    ("model-select", "--select-anchor-size", "400"),
    *[(command, "--rff-seed", "7") for command in
      ("train", "sweep-lambda", "reduce-study", "bench-solvers", "model-select")],
    ("train", "--trace-every", "100"),
    ("bench-solvers", "--trace-every", "1"),
])
def test_study_rejects_a_flag_it_does_not_read(tmp_path, capsys, command, flag, value):
    # the data file does not exist: a command that ran would exit 1
    argv = [command, "--data", str(tmp_path / "absent.csv"), "--out",
            str(tmp_path / "o"), *REQUIRED[command], flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flag", [
    ("train", "--max-iters"),
    ("train", "--restart-period"),
    ("train", "--D"),
    ("reduce-study", "--max-iters"),
    ("model-select", "--select-max-iters"),
    ("model-select", "--D"),
])
def test_zero_count_is_a_usage_error(tmp_path, capsys, command, flag):
    # the data file does not exist: a command that ran would exit 1
    argv = [command, "--data", str(tmp_path / "absent.csv"), "--out",
            str(tmp_path / "o"), *REQUIRED[command], flag, "0"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "bounds", "reduce-study", "bench-solvers",
                                     "model-select"])
@pytest.mark.parametrize("value", ["0", "1", "1.5"])
def test_delta_outside_the_unit_interval_is_a_usage_error(tmp_path, capsys, command,
                                                          value):
    # the input file does not exist: a command that ran would exit 1
    source = "--model" if command == "bounds" else "--data"
    argv = [command, source, str(tmp_path / "absent"), "--out", str(tmp_path / "o"),
            *REQUIRED.get(command, []), "--delta", value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument --delta: must lie in (0, 1), got {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flag,value,extra", [
    ("train", "--lambda0", "nan", []),
    ("train", "--lambda0", "inf", []),
    ("train", "--sigma", "nan", []),
    ("train", "--delta", "nan", []),
    ("train", "--rademacher-R", "nan", ["--lambda-mode", "rademacher"]),
    ("sweep-lambda", "--lambda0-grid", "nan", ["--folds", "2"]),
    ("model-select", "--sigma-grid", "0.5,nan", ["--splits", "1"]),
    ("model-select", "--test-fraction", "nan", ["--splits", "1", "--sigma-grid", "1.0"]),
    ("bounds", "--lambda-delta-add", "nan", []),
    ("bounds", "--lambda-delta-add", "inf", []),
])
def test_non_finite_float_is_a_usage_error(blob_csv, tmp_path, capsys, command, flag,
                                           value, extra):
    if command == "bounds":
        inputs = ["--model", train_model(blob_csv, tmp_path / "train")]
    else:
        inputs = ["--data", blob_csv, "--D", "8", "--max-iters", "20"]
    out = tmp_path / "o"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--out", str(out), *extra, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep-lambda", "--lambda0-grid", ","],
    ["reduce-study", "--sizes", "0"],
    ["reduce-study", "--sizes", "20", "--reps", "0"],
    ["model-select", "--sigma-grid", "x"],
], ids=["lambda0-grid", "sizes", "reps", "sigma-grid"])
def test_study_checks_its_grid_before_reading_data(tmp_path, capsys, argv):
    # the data file does not exist: a study that read it first would name it
    out = tmp_path / "o"
    assert main([*argv, "--data", str(tmp_path / "absent.csv"), "--out", str(out)]) == 1
    assert "absent.csv" not in capsys.readouterr().err
    assert not out.exists()


def no_fit(*args, **kwargs):
    pytest.fail("a model was fitted")


def test_model_select_without_splits_is_an_input_error(blob_csv, tmp_path, capfd,
                                                       monkeypatch):
    monkeypatch.setattr(classifier, "train", no_fit)
    out = tmp_path / "sel"
    assert main(["model-select", "--data", blob_csv, "--out", str(out),
                 "--splits", "0"]) == 1
    err = capfd.readouterr().err
    assert "--splits must be at least 1, got 0" in err
    assert "Warning" not in err
    assert not (out / "model_select.json").exists()


def test_sweep_folds_over_the_largest_class_is_an_input_error(blob_csv, tmp_path,
                                                              capsys, monkeypatch):
    # 60 rows in two classes of 30: a 31st fold would be empty
    monkeypatch.setattr(classifier, "train", no_fit)
    out = tmp_path / "sweep"
    for folds in ("31", "200"):
        assert main(["sweep-lambda", "--data", blob_csv, "--out", str(out),
                     "--lambda0-grid", "0.3", "--folds", folds]) == 1
        err = capsys.readouterr().err
        assert f"--folds must lie in [2, 30], the row count of the largest " \
               f"class, got {folds}" in err
    assert not (out / "sweep_lambda.csv").exists()


@pytest.mark.parametrize("flag,value", [("--sizes", "0"), ("--sizes", "-3"),
                                        ("--reps", "0"), ("--reps", "-2")])
def test_reduce_study_below_one_is_an_input_error(blob_csv, tmp_path, capsys,
                                                  monkeypatch, flag, value):
    monkeypatch.setattr(classifier, "train", no_fit)
    monkeypatch.setattr(classifier, "fit", no_fit)
    out = tmp_path / "reduce"
    argv = ["reduce-study", "--data", blob_csv, "--out", str(out), "--sizes", "20",
            f"{flag}={value}"]
    assert main(argv) == 1
    assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
    assert not (out / "reduce_study.csv").exists()


@pytest.mark.parametrize("fraction,empty", [("0.005", "test"), ("0.995", "training")])
def test_model_select_empty_split_is_an_input_error(blob_csv, tmp_path, capsys,
                                                    monkeypatch, fraction, empty):
    # 30 rows per class: 30 · 0.005 rounds to 0 test rows, 30 · 0.995 to 30
    monkeypatch.setattr(classifier, "train", no_fit)
    out = tmp_path / "sel"
    assert main(["model-select", "--data", blob_csv, "--out", str(out),
                 "--test-fraction", fraction]) == 1
    assert f"--test-fraction {fraction} leaves the {empty} split with no rows" \
        in capsys.readouterr().err
    assert not (out / "model_select.json").exists()


def test_bounds_lambda_delta_add_and_mode_exclude_each_other(blob_csv, tmp_path, capsys):
    model = train_model(blob_csv, tmp_path / "train")
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--model", model, "--out", str(tmp_path / "b"),
              "--lambda-delta-add", "0.1", "--lambda-delta-mode", "hoeffding"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def read_flags(argv):
    """(the flag destinations of argv's command, the attributes its run read)."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = cli.build_parser()
    args = parser.parse_args(argv, namespace=Recording())
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for action in subparsers.choices[argv[0]]._actions
             if action.dest != "help"}
    command = cli.COMMANDS[args.command]
    reads.clear()
    assert command(args) == 0
    return dests, reads


SMALL = ["--D", "8", "--max-iters", "50"]


def test_every_flag_is_read(blob_csv, tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # reads stay in this process
    model = train_model(blob_csv, tmp_path / "model")
    data = ["--data", blob_csv]
    commands = {
        "train": [*data, *SMALL, "--anchor", f"file:{blob_csv}"],
        "predict": ["--model", model, *data],
        "bounds": ["--model", model, "--deterministic", "--lambda-delta-mode",
                   "hoeffding", "--max-iters", "50"],
        "sweep-lambda": [*data, *SMALL, "--lambda0-grid", "0.3", "--folds", "2"],
        "reduce-study": [*data, *SMALL, "--sizes", "20", "--reps", "1"],
        "bench-solvers": [*data, *SMALL],
        "model-select": [*data, *SMALL, "--select-max-iters", "50", "--splits", "1",
                         "--sigma-grid", "1.0"],
    }
    assert set(commands) == set(cli.COMMANDS)
    for name, argv in commands.items():
        dests, reads = read_flags([name, *argv, "--out", str(tmp_path / name)])
        assert dests - reads == set(), name


def long_cell_csv(path, form, rows=20, bad_row=10):
    """Labelled rows of d = 2; data row `bad_row`'s first cell is a number
    of 140002 characters, over csv's field size limit, quoted or not."""
    X = make_blobs(rows, d=2, seed=4).instances
    cell = "0." + "0" * 140_000 + "1"
    if form == "quoted":
        cell = f'"{cell}"'
    lines = [f"{cell if i == bad_row else repr(a)},{b!r},{'ab'[i % 2]}"
             for i, (a, b) in enumerate(X.tolist(), start=1)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("form", ["labelled", "quoted"])
def test_long_cell_is_an_input_error(blob_csv, tmp_path, monkeypatch, capfd, form):
    bad = tmp_path / "long.csv"
    long_cell_csv(bad, form)
    model = train_model(blob_csv, tmp_path / "train")
    monkeypatch.setattr(cli, "PREDICT_CHUNK_ROWS", 7)  # row 10 in the second block
    runs = [(1, ["train", "--data", str(bad), "--features", "identity"]),
            (1, ["train", "--data", blob_csv, "--features", "identity",
                 "--max-iters", "50", "--anchor", f"file:{bad}"])]
    runs += [(cpus, ["predict", "--model", model, "--data", str(bad)])
             for cpus in (1, 2)]
    capfd.readouterr()
    for k, (cpus, argv) in enumerate(runs):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        out = tmp_path / f"out{k}"
        assert main([*argv, "--out", str(out)]) == 1, argv
        err = capfd.readouterr().err
        assert f"{bad}: row 10: field larger than field limit" in err, argv
        assert "Traceback" not in err
        assert not os.path.exists(out / "predictions.csv")
