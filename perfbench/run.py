"""mrckit benchmark: the real CLI as one closed-loop client.

    python3 perfbench/run.py --workload rff-session --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it needs src/mrckit). For each
workload it writes the inputs from --seed, then repeats sessions of
`mrckit train`, `mrckit bounds --deterministic` and `mrckit predict --proba`,
one subprocess at a time, each starting after the previous one exits, for
about --seconds. Every output is checked. With --trace 0 the timings and
peak RSS figures are medians over the sessions and the bounds and test error
are means over the training sets; with --trace 1 the same commands run in
process, alternately untraced and traced, and the per-layer metrics come
from the traced sessions. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Run records and spans
go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5         # cold `mrckit --version` starts per run
RUN_DEADLINE_S = 170.0    # every child is killed past this point of the run

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "train_peak_rss_mb": "MB",
    "bounds_s": "s",
    "predict_rows_per_s": "rows/s",
    "predict_peak_rss_mb": "MB",
    "upper_bound": "prob",
    "bound_gap": "prob",
    "test_error": "prob",
}


class Ledger:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


class Runner:
    """Starts one child at a time and reaps it with os.wait4 for its rusage."""

    def __init__(self, work_dir, t_start):
        self.work_dir = work_dir
        self.t_start = t_start
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        self.count = 0

    def run(self, argv):
        """(exit code, wall seconds, peak RSS in MB, captured output)."""
        self.count += 1
        log_path = self.work_dir / f"child-{self.count}.log"
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.t_start)
        if remaining <= 0:
            return -1, 0.0, 0.0, "not started: run deadline reached"
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL, env=self.env, cwd=ROOT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = log_path.read_text(encoding="utf-8", errors="replace")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, output

    def mrckit(self, args):
        return self.run([sys.executable, "-m", "mrckit.cli", *args])

    def python(self, script, args):
        return self.run([sys.executable, str(HERE / script), *args])


def environment(seed):
    """Machine, interpreter and library facts recorded with every result."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    threads = None
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mrckit").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads,
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                 "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def measure_setup(runner, ledger):
    walls = []
    for _ in range(SETUP_REPEATS):
        rc, wall, _, output = runner.mrckit(["--version"])
        problems = [] if rc == 0 and output.strip() else [f"exit {rc}: {output.strip()}"]
        if ledger.record("version", problems):
            walls.append(wall)
    return walls


SESSION = ("train", "bounds", "predict")


def check_session(w, out, truth, ledger, exits, commands=SESSION):
    """Check the outputs of `commands`; `exits` maps each one run to its exit code.

    A command that did not run because an earlier one failed counts as failed.
    Returns the facts the outputs carry: bounds, test error, model hash.
    """
    facts = {}
    for name in commands:
        rc = exits.get(name)
        problems = [] if rc == 0 else [f"exit {rc}" if rc is not None else "not run"]
        try:
            if not problems and name == "train":
                extra, found = checks.check_train(out / "train", w.K)
                problems += extra
                facts.update(found)
            elif not problems and name == "bounds":
                problems += checks.check_bounds(out / "bounds")
            elif not problems:
                names = checks.label_names_of(out / "train" / "model.json")
                extra, error = checks.check_predict(out / "predict", truth, names)
                problems += extra
                if error is not None:
                    facts["test_error"] = error
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        ledger.record(name, problems)
    return facts


def run_commands(runner, cmds, names, record):
    for name in names:
        rc, wall, rss, output = runner.mrckit(cmds[name])
        record["exits"][name] = rc
        record[f"{name}_s"] = wall
        record[f"{name}_rss_mb"] = rss
        if rc != 0:
            print(f"{name} exited {rc}:\n{output[-2000:]}", file=sys.stderr)
            return


def run_cli_sessions(w, work_dir, truth, runner, ledger, seconds):
    """Sessions over the training sets in turn until `seconds` have passed."""
    sessions = []
    t0 = time.perf_counter()
    while len(sessions) < w.datasets or time.perf_counter() - t0 < seconds:
        tag = f"s{len(sessions)}"
        dataset = len(sessions) % w.datasets
        cmds = workloads.session_commands(w, work_dir, tag, dataset)
        record = {"dataset": dataset, "exits": {}}
        run_commands(runner, cmds, SESSION, record)
        record.update(check_session(w, work_dir / tag, truth, ledger, record["exits"]))
        sessions.append(record)
        shutil.rmtree(work_dir / tag / "predict", ignore_errors=True)
    if len(sessions) == w.datasets:
        # no training set came round twice: train the first once more
        cmds = workloads.session_commands(w, work_dir, "identity", 0)
        record = {"dataset": 0, "exits": {}}
        run_commands(runner, cmds, ("train",), record)
        record.update(check_session(w, work_dir / "identity", truth, ledger,
                                    record["exits"], commands=("train",)))
        sessions.append(record)
    return sessions


def run_inproc_pairs(w, work_dir, truth, runner, ledger, seconds, label):
    """Alternate untraced and traced in-process sessions for about `seconds`."""
    pairs = []
    t0 = time.perf_counter()
    while True:
        pair = {}
        p0 = time.perf_counter()
        dataset = len(pairs) % w.datasets
        # alternate which side runs first, so neither always pays a cold start
        for traced in (0, 1) if len(pairs) % 2 == 0 else (1, 0):
            tag = f"p{len(pairs)}t{traced}"
            cmds = workloads.session_commands(w, work_dir, tag, dataset)
            cmd_file = work_dir / f"{tag}.json"
            cmd_file.write_text(json.dumps(cmds), encoding="utf-8")
            spans = OUT / f"{label}-spans-{len(pairs)}.json"
            rc, _, _, output = runner.python("inproc.py", [
                "--commands", str(cmd_file), "--trace", str(traced), "--spans", str(spans),
                "--train-rows", str(w.n), "--predict-rows", str(w.predict_rows)])
            try:
                result = json.loads(output.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"in-process session failed (exit {rc}):\n{output[-2000:]}",
                      file=sys.stderr)
                result = {"commands": {}}
            exits = {k: v["rc"] for k, v in result["commands"].items()}
            exits.setdefault("train", rc if rc != 0 else -1)
            result.update(check_session(w, work_dir / tag, truth, ledger, exits))
            result["dataset"] = dataset
            shutil.rmtree(work_dir / tag / "predict", ignore_errors=True)
            pair[traced] = result
        pairs.append(pair)
        elapsed = time.perf_counter() - t0
        if elapsed + (time.perf_counter() - p0) > seconds:
            break
    return pairs


def model_identity(sessions, ledger):
    """Trainings on the same inputs must write byte-identical model.json files.

    Returns the sha256 of each training set's model.
    """
    by_dataset = {}
    for s in sessions:
        if s.get("model_sha256"):
            by_dataset.setdefault(s["dataset"], []).append(s["model_sha256"])
    problems = []
    if not any(len(h) > 1 for h in by_dataset.values()):
        problems.append("no training set was trained twice")
    for dataset, hashes in sorted(by_dataset.items()):
        if len(set(hashes)) > 1:
            problems.append(f"training set {dataset}: model.json differs: {sorted(set(hashes))}")
    ledger.record("model identity", problems)
    return {str(k): v[0] for k, v in sorted(by_dataset.items())}


def lp_crosscheck(w, work_dir, runner, ledger):
    if "lp" not in w.train_flags:
        return None
    model = work_dir / "s0" / "train" / "model.json"
    rc, _, _, output = runner.python("crosscheck.py", [str(model)])
    lines = output.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": output[-2000:]}
    if "skipped" in result:
        print(f"notice: LP cross-check skipped: {result['skipped']}")
        return result
    ledger.record("lp cross-check", [] if rc == 0 else [f"exit {rc}: {result}"])
    return result


def median(values):
    if not values:
        raise RuntimeError("no successful samples for a metric")
    return statistics.median(values)


def per_dataset_mean(sessions, key):
    """Mean over training sets of a value that depends on the inputs only."""
    values = {s["dataset"]: s[key] for s in sessions if key in s}
    if not values:
        raise RuntimeError(f"no session produced {key}")
    return statistics.fmean(values.values())


def end_to_end(w, setup_walls, sessions):
    def ok(command, key):
        return median([s[key] for s in sessions if s["exits"].get(command) == 0])

    return {
        "setup_s": median(setup_walls),
        "train_s": ok("train", "train_s"),
        "train_peak_rss_mb": ok("train", "train_rss_mb"),
        "bounds_s": ok("bounds", "bounds_s"),
        "predict_rows_per_s": w.predict_rows / ok("predict", "predict_s"),
        "predict_peak_rss_mb": ok("predict", "predict_rss_mb"),
        "upper_bound": per_dataset_mean(sessions, "upper_bound"),
        "bound_gap": per_dataset_mean(sessions, "bound_gap"),
        "test_error": per_dataset_mean(sessions, "test_error"),
    }


def per_layer(pairs):
    traced = [p[1] for p in pairs if "layers" in p[1]]
    if not traced:
        raise RuntimeError("no traced session produced layer metrics")
    names = traced[0]["layers"].keys()
    out = {name: (median([t["layers"][name][0] for t in traced]),
                  traced[0]["layers"][name][1]) for name in names}
    walls = {k: [p[k]["commands"]["train"]["wall_s"] for p in pairs
                 if "train" in p[k].get("commands", {})] for k in (0, 1)}
    out["trace.train_overhead_s"] = (median(walls[1]) - median(walls[0]), "s")
    for cmd in ("train", "bounds", "predict"):
        out[f"trace.{cmd}_s"] = (median([t["commands"][cmd]["wall_s"] for t in traced
                                         if cmd in t["commands"]]), "s")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "mrckit" / "cli.py").is_file():
        print(f"error: {SRC / 'mrckit'} not found; run from the root of an mrckit "
              "source checkout", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    w = workloads.WORKLOADS[args.workload]
    label = f"{w.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{label}-{os.getpid()}"
    work_dir.mkdir()
    try:
        env = environment(args.seed)
        print("environment " + json.dumps(env, sort_keys=True))
        truth = workloads.write_inputs(w, args.seed, work_dir)
        runner = Runner(work_dir, t_start)
        ledger = Ledger()
        record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env,
                  "shape": {"n": w.n, "d": w.d, "K": w.K, "D": w.D, "m": w.m,
                            "p": w.learning_rows, "predict_rows": w.predict_rows,
                            "training_sets": w.datasets},
                  "stresses": w.stresses, "bypasses": w.bypasses}
        print("shape " + json.dumps(record["shape"]))
        print(f"stresses {w.stresses}; bypasses {w.bypasses}")
        if args.trace == 0:
            setup_walls = measure_setup(runner, ledger)
            sessions = run_cli_sessions(w, work_dir, truth, runner, ledger, args.seconds)
            record["model_sha256"] = model_identity(sessions, ledger)
            record["lp_crosscheck"] = lp_crosscheck(w, work_dir, runner, ledger)
            values = end_to_end(w, setup_walls, sessions)
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
            record["sessions"] = sessions
            record["setup_walls"] = setup_walls
            print(f"sessions {len(sessions)}  model.json sha256 by training set "
                  + json.dumps(record["model_sha256"]))
            if record["lp_crosscheck"] is not None:
                print("lp cross-check " + json.dumps(record["lp_crosscheck"]))
        else:
            pairs = run_inproc_pairs(w, work_dir, truth, runner, ledger, args.seconds, label)
            record["model_sha256"] = model_identity(
                [p[k] for p in pairs for k in (0, 1)], ledger)
            layers = per_layer(pairs)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            record["pairs"] = pairs
            print(f"session pairs {len(pairs)}  model.json sha256 by training set "
                  + json.dumps(record["model_sha256"]))
            for solve in pairs[-1][1].get("solves", []):
                print("solve " + json.dumps(solve))
        for problem in ledger.problems:
            print(f"check failed: {problem}")
        frac = ledger.failed / ledger.attempted
        print(f"ops_failed_frac {frac:.6g} ratio  ({ledger.failed} of {ledger.attempted})")
        for name, entry in metrics.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
        result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
                  "failed": ledger.failed, "metrics": metrics}
        record["result"] = result
        (OUT / f"{label}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                           encoding="utf-8")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
