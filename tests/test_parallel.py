"""The ordered map over independent tasks and the commands that use it."""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from mrckit import classifier, estimate, features, parallel
from mrckit.cli import main
from mrckit.dataset import save_csv
from mrckit.solver import SolverConfig, SolverError
from conftest import make_blobs

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable-CPU count the map sees."""
    return lambda n: monkeypatch.setattr(parallel, "usable_cpus", lambda: n)


@pytest.fixture
def blob_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    save_csv(make_blobs(60, d=2, seed=0, sep=3.0), path)
    return str(path)


def _square(x):
    return x * x


def _fail_at_three(x):
    if x == 3:
        raise SolverError("task 3 failed")
    if x == 4:
        raise ValueError("task 4 failed")
    return x


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_keeps_input_order(cpus, n):
    cpus(n)
    assert parallel.ordered_map(_square, range(7)) == [x * x for x in range(7)]
    assert parallel.ordered_map(_square, []) == []


def test_map_runs_inline_on_one_cpu(cpus):
    cpus(1)
    assert set(parallel.ordered_map(lambda _: os.getpid(), range(4))) == {os.getpid()}


def test_map_spreads_over_cpus_and_nests_inline(cpus):
    cpus(2)
    # the caller runs the even tasks, one forked worker the odd ones; a map
    # inside a task runs in that task's process
    pids = parallel.ordered_map(
        lambda _: set(parallel.ordered_map(lambda _: os.getpid(), range(3))),
        range(4))
    assert pids[0] == pids[2] == {os.getpid()}
    assert pids[1] == pids[3] and pids[1] != pids[0]


def test_map_caps_the_worker_count(cpus):
    cpus(parallel.MAX_WORKERS + 2)
    pids = parallel.ordered_map(lambda _: os.getpid(), range(8))
    assert len(set(pids)) == parallel.MAX_WORKERS


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_map_runs_stripes_inline_when_a_worker_cannot_start(cpus, monkeypatch, call):
    cpus(3)
    monkeypatch.setattr(parallel, "MAX_WORKERS", 3)
    real, made = getattr(os, call), []

    def second_fails(*args):
        # the first worker starts, the second does not
        if made:
            raise OSError(11, "Resource temporarily unavailable")
        made.append(1)
        return real(*args)

    monkeypatch.setattr(os, call, second_fails)
    before = _open_fds()
    pids = parallel.ordered_map(lambda _: os.getpid(), range(7))
    assert _open_fds() == before  # no pipe end left open
    me = os.getpid()
    assert [p == me for p in pids] == [i % 3 != 1 for i in range(7)]
    assert parallel.ordered_map(_square, range(7)) == [x * x for x in range(7)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_raises_first_exception_in_order(cpus, n):
    cpus(n)
    with pytest.raises(SolverError, match="task 3 failed"):
        parallel.ordered_map(_fail_at_three, range(6))


def test_map_reports_killed_worker(cpus):
    cpus(2)
    parent = os.getpid()

    def die_in_worker(x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(parallel.WorkerError, match="killed by signal 9"):
        parallel.ordered_map(die_in_worker, range(2))


def test_map_stops_other_workers_after_a_lost_one(cpus, monkeypatch):
    cpus(3)
    monkeypatch.setattr(parallel, "MAX_WORKERS", 3)

    def task(x):
        if x == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        if x == 2:
            time.sleep(60)
        return x

    start = time.monotonic()
    with pytest.raises(parallel.WorkerError):
        parallel.ordered_map(task, range(3))
    assert time.monotonic() - start < 30  # the sleeping worker was killed


def _no_child_process():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_stream_workers_build_their_own_tasks(cpus):
    cpus(2)
    # each process calls tasks() itself, after the fork
    tasks = lambda: ((os.getpid(), i) for i in range(7))
    own = list(parallel.ordered_stream(lambda t: (t[0] == os.getpid(), t[1]), tasks))
    assert own == [(True, i) for i in range(7)]
    assert _no_child_process()


@pytest.mark.parametrize("good", [1, 5])
def test_stream_raises_a_task_iterator_error_in_order(cpus, good):
    cpus(2)

    def tasks():
        yield from range(good)
        raise ValueError("tasks ended badly")

    seen = []
    with pytest.raises(ValueError, match="tasks ended badly"):
        for value in parallel.ordered_stream(_square, tasks):
            seen.append(value)
    assert seen == [x * x for x in range(good)]
    assert _no_child_process()


def test_stream_holds_a_worker_back_and_kills_it_when_closed(cpus, tmp_path):
    cpus(2)
    log = tmp_path / "ran"

    def big(i):
        with open(log, "a") as fh:
            fh.write(f"{i}\n")
        return bytes(1 << 20)  # far more than a pipe holds

    stream = parallel.ordered_stream(big, lambda: iter(range(40)))
    assert len(next(stream)) == 1 << 20  # task 0, run by the caller
    time.sleep(0.5)
    ran = sorted(map(int, log.read_text().split()))
    assert ran[0] == 0 and len(ran) <= 3  # the worker waits on task 1's frame

    def waited_too_long(signum, frame):
        raise TimeoutError("closing the stream waited on its blocked worker")

    previous = signal.signal(signal.SIGALRM, waited_too_long)
    signal.alarm(20)
    try:
        stream.close()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert _no_child_process()


def test_bounds_for_rule_same_at_one_and_two_cpus(cpus):
    ds = make_blobs(30, d=2, seed=4)
    spec = features.identity_spec(2, 2)
    psi = features.scalar_feature_matrix(spec, ds.instances)
    tau, _ = estimate.tau_and_variance_from_scalars(psi, ds.labels, 2)
    unc = estimate.UncertaintySet(tau, np.full(4, 0.1))
    h = np.eye(2)[ds.labels % 2]
    cfg = SolverConfig(method="easm_restart", max_iters=300, restart_period=100)
    runs = []
    for n in (1, 2):
        cpus(n)
        runs.append(classifier.rule_bounds(unc, psi, h, cfg))
    one, two = runs
    for name in ("lower", "upper", "lower_raw", "upper_raw"):
        assert getattr(one, name) == getattr(two, name)
    for side in ("lower", "upper"):
        assert one.runs[side].certificate == two.runs[side].certificate
        assert np.array_equal(one.runs[side].best_mu, two.runs[side].best_mu)


STUDIES = {
    "reduce_study.csv": ["reduce-study", "--features", "identity", "--solver", "asm",
                         "--max-iters", "300", "--sizes", "20,60", "--reps", "3",
                         "--seed", "3"],
    "sweep_lambda.csv": ["sweep-lambda", "--features", "identity", "--solver", "asm",
                         "--max-iters", "300", "--lambda0-grid", "0,0.3",
                         "--folds", "3", "--seed", "2"],
    "model_select.json": ["model-select", "--sigma-grid", "0.8,1.5", "--splits", "3",
                          "--D", "10", "--max-iters", "300",
                          "--select-max-iters", "200", "--solver", "easm-restart",
                          "--restart-period", "100", "--seed", "5"],
}


@pytest.mark.parametrize("table", sorted(STUDIES))
def test_study_bytes_same_at_one_and_two_cpus(cpus, blob_csv, tmp_path, table):
    out = tmp_path / "study"
    written = []
    for n in (1, 2):
        cpus(n)
        assert main([*STUDIES[table], "--data", blob_csv, "--out", str(out)]) == 0
        written.append((out / table).read_bytes())
    assert written[0] == written[1]


def _trained(blob_csv, tmp_path):
    out = tmp_path / "model"
    assert main(["train", "--data", blob_csv, "--out", str(out), "--features",
                 "identity", "--solver", "lp", "--seed", "1"]) == 0
    return str(out / "model.json")


def test_solver_error_in_worker_exits_2(cpus, blob_csv, tmp_path, monkeypatch, capsys):
    model = _trained(blob_csv, tmp_path)
    cpus(2)
    parent, solve = os.getpid(), classifier.solve

    def fail_in_worker(problem, config):
        if os.getpid() != parent:
            raise SolverError("the upper solve failed in its worker")
        return solve(problem, config)

    monkeypatch.setattr(classifier, "solve", fail_in_worker)
    code = main(["bounds", "--model", model, "--out", str(tmp_path / "b"),
                 "--deterministic", "--solver", "asm", "--max-iters", "200"])
    assert code == 2
    assert "the upper solve failed in its worker" in capsys.readouterr().err


def test_killed_worker_exits_2_without_traceback(cpus, blob_csv, tmp_path,
                                                 monkeypatch, capsys):
    model = _trained(blob_csv, tmp_path)
    cpus(2)
    parent, solve = os.getpid(), classifier.solve

    def die_in_worker(problem, config):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return solve(problem, config)

    monkeypatch.setattr(classifier, "solve", die_in_worker)
    code = main(["bounds", "--model", model, "--out", str(tmp_path / "b"),
                 "--deterministic", "--solver", "asm", "--max-iters", "200"])
    err = capsys.readouterr().err
    assert code == 2
    assert "worker process was killed by signal 9" in err
    assert "Traceback" not in err


def test_train_and_predict_bytes_same_on_one_and_all_cpus(tmp_path):
    if parallel.usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    # X @ W^T rounds differently under one and several BLAS threads at this
    # size, so the bytes agree only if BLAS runs one thread at any CPU count
    save_csv(make_blobs(300, d=4, seed=1), tmp_path / "train.csv")
    save_csv(make_blobs(3000, d=4, seed=2), tmp_path / "test.csv")
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.abspath(SRC)
    one_cpu = min(os.sched_getaffinity(0))
    written = []
    for tag, pin in (("one", lambda: os.sched_setaffinity(0, {one_cpu})), ("all", None)):
        out = tmp_path / tag
        for command in (["train", "--data", str(tmp_path / "train.csv"), "--D", "500",
                         "--max-iters", "300", "--seed", "1", "--out", str(out)],
                        ["predict", "--model", str(out / "model.json"), "--proba",
                         "--data", str(tmp_path / "test.csv"), "--out", str(out)]):
            subprocess.run([sys.executable, "-m", "mrckit.cli", *command], env=env,
                           preexec_fn=pin, capture_output=True, timeout=120, check=True)
        written.append([(out / name).read_bytes()
                        for name in ("model.json", "predictions.csv")])
    assert written[0] == written[1]


def test_cli_import_and_version_load_no_process_pool():
    probe = ("import sys\n"
             "from mrckit.cli import main\n"
             "try:\n"
             "    main(['--version'])\n"
             "except SystemExit:\n"
             "    pass\n"
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
             " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


def test_train_fixed_marginal_defaults_to_asm(blob_csv, tmp_path):
    out = tmp_path / "fm"
    code = main(["train", "--data", blob_csv, "--out", str(out), "--features",
                 "identity", "--max-iters", "200", "--variant", "fixed-marginal",
                 "--seed", "1"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["flags"]["solver"] == "asm"
    assert report["runs"]["upper"]["method"] == "asm"
    # the standard variant keeps E-ASM with restarts
    code = main(["train", "--data", blob_csv, "--out", str(tmp_path / "std"),
                 "--features", "identity", "--max-iters", "200", "--seed", "1"])
    assert code == 0
    report = json.loads((tmp_path / "std" / "report.json").read_text())
    assert report["flags"]["solver"] == "easm-restart"
