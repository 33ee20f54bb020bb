"""Command-line front end: train, predict, bounds, sweeps, and benchmarks.

Each command takes only the flags it reads. All commands are deterministic
given their inputs and --seed; child seeds are derived from the master seed
with a stable counter. Reports are JSON, tables are CSV. Exit codes: 0
success, 1 input error, 2 numerical/solver error or a usage error (argparse
exits 2 on an unknown flag or a bad value).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import closing
from pathlib import Path

import numpy as np

from . import __version__, classifier, features, objective, parallel
from .dataset import (DataError, apply_normalizer, block_features,
                      fit_normalizer, load_csv, load_features, no_data_rows,
                      record_blocks, split_test_rows, stratified_folds,
                      stratified_split)
from .simplex import SimplexError
from .solver import METHODS, SolverConfig, SolverError, lp_fits, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2

# `predict` reads, scores and formats this many rows at a time, so its memory
# does not grow with the input; the blocks are striped over parallel's
# workers. Within a block, features.score_matrix bounds the feature memory,
# so that it does not grow with the number of random features either.
PREDICT_CHUNK_ROWS = 2048

# Linux carries the launching process's ru_maxrss across exec, so a
# process's own peak is read from here (ru_maxrss only where it is absent).
PROC_STATUS = "/proc/self/status"

SOLVER_CHOICES = [method.replace("_", "-") for method in METHODS]

# model-select ranks the kernel scales on an anchor subsample of this many
# training rows (the whole training split when it has no more)
SELECT_ANCHOR_SIZE = 400


def child_seed(master, counter):
    """Stable per-task seed derived from the master seed."""
    return [int(master), int(counter)]


def _positive_int(text):
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite_float(text):
    """argparse type of a real number that must be finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _open_unit_float(text):
    """argparse type of a confidence level, which must lie in (0, 1)."""
    value = _finite_float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


# One definition per flag; each command adds exactly the flags it reads.
FLAGS = {
    "--data": dict(required=True, help="CSV file, label in the last column"),
    "--has-header": dict(action="store_true"),
    "--model": dict(required=True, help="model.json written by train"),
    "--features": dict(choices=["rff", "identity"], default="rff"),
    "--D": dict(type=_positive_int, default=500, help="number of random frequencies"),
    "--sigma": dict(type=_finite_float, default=None,
                    help="kernel scale (default sqrt(d/2))"),
    "--lambda-mode": dict(default="practical",
                          choices=["hoeffding", "bernstein", "rademacher", "practical"]),
    "--lambda0": dict(type=_finite_float, default=0.3),
    "--delta": dict(type=_open_unit_float, default=0.05),
    "--rademacher-R": dict(dest="rademacher_R", type=_finite_float, default=None),
    "--solver": dict(default=None, choices=SOLVER_CHOICES,
                     help="solver method (default: the library chooses it "
                          "from the problem)"),
    "--max-iters": dict(type=_positive_int, default=200_000),
    "--restart-period": dict(type=_positive_int, default=10_000),
    "--anchor": dict(default="train",
                     help="'train' or 'file:<path>' with extra instances"),
    "--seed": dict(type=int, default=0),
    "--out": dict(required=True, help="output directory"),
}

FEATURE_FLAGS = ("--features", "--D", "--sigma")
WIDTH_FLAGS = ("--lambda-mode", "--lambda0", "--delta", "--rademacher-R")
SOLVER_FLAGS = ("--solver", "--max-iters", "--restart-period")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mrckit",
        description="Minimax risk classifiers with 0-1 loss: learning with "
                    "certified error-probability bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *flags):
        # no abbreviations: a removed flag must not be read as a longer one
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        return p

    p_train = command("train", "learn a model and certify its bounds",
                      "--data", "--has-header", *FEATURE_FLAGS, *WIDTH_FLAGS,
                      *SOLVER_FLAGS, "--anchor", "--seed", "--out")
    p_train.add_argument("--variant", choices=["standard", "fixed-marginal"],
                         default="standard")
    p_train.add_argument("--repair", choices=["auto", "always", "never"],
                         default="auto")

    p_pred = command("predict", "predict labels with a saved model",
                     "--model", "--data", "--has-header", "--out")
    p_pred.add_argument("--proba", action="store_true", help="also emit probabilities")

    p_bounds = command("bounds", "report certified bounds of a model",
                       "--model", "--delta", *SOLVER_FLAGS, "--out")
    p_bounds.add_argument("--deterministic", action="store_true",
                          help="also bound the deterministic rule")
    width = p_bounds.add_mutually_exclusive_group()
    width.add_argument("--lambda-delta-add", type=_finite_float, default=None,
                       help="high-confidence interval with lambda_delta = lambda + c")
    width.add_argument("--lambda-delta-mode", choices=["hoeffding"], default=None,
                       help="derive lambda_delta from the stored provenance")

    p_sweep = command("sweep-lambda", "bounds and errors along a lambda0 grid",
                      "--data", "--has-header", *FEATURE_FLAGS, *SOLVER_FLAGS,
                      "--seed", "--out")
    p_sweep.add_argument("--lambda0-grid", required=True,
                         help="comma-separated lambda0 values")
    p_sweep.add_argument("--folds", type=int, default=10)

    p_red = command("reduce-study", "bound error versus anchor-pool size",
                    "--data", "--has-header", *FEATURE_FLAGS, *WIDTH_FLAGS,
                    *SOLVER_FLAGS, "--anchor", "--seed", "--out")
    p_red.add_argument("--sizes", required=True, help="comma-separated pool sizes")
    p_red.add_argument("--reps", type=int, default=10)

    command("bench-solvers", "trace every method on one problem",
            "--data", "--has-header", *FEATURE_FLAGS, *WIDTH_FLAGS,
            "--max-iters", "--restart-period", "--seed", "--out")

    p_sel = command("model-select", "pick the kernel scale by the upper bound",
                    "--data", "--has-header", "--D", *WIDTH_FLAGS,
                    *SOLVER_FLAGS, "--seed", "--out")
    p_sel.add_argument("--sigma-grid", default=None,
                       help="comma-separated scales (default: 20 between the "
                            "10th/90th distance percentiles)")
    p_sel.add_argument("--splits", type=int, default=20)
    p_sel.add_argument("--test-fraction", type=_finite_float, default=0.2)
    p_sel.add_argument("--select-max-iters", type=_positive_int, default=20_000)
    p_sel.set_defaults(features="rff")  # it tunes the kernel scale

    return parser


def _spec_from_args(args, data, seed_counter=0, sigma=None):
    """The feature map of the flags; `sigma` overrides --sigma. The
    frequency seed derives from --seed and `seed_counter`."""
    if args.features == "identity":
        return features.identity_spec(data.num_classes, data.d)
    return features.rff_spec(data.num_classes, data.d, D=args.D,
                             sigma=args.sigma if sigma is None else sigma,
                             seed=args.seed * 1000003 + seed_counter)


def _solver_config_from_args(args, **overrides):
    """The SolverConfig of the flags; without a method, solver.solve picks one."""
    fields = {"max_iters": args.max_iters, "restart_period": args.restart_period}
    if "method" not in overrides and args.solver is not None:
        fields["method"] = args.solver.replace("-", "_")
    return SolverConfig(**{**fields, **overrides})


def _uncertainty_args(args, **overrides):
    """The uncertainty-set keywords of classifier.train from the flags."""
    return {"lambda_mode": args.lambda_mode, "lambda0": args.lambda0,
            "delta": args.delta, "rademacher_R": args.rademacher_R, **overrides}


def _anchor_from_args(args, d):
    if args.anchor == "train":
        return None
    if args.anchor.startswith("file:"):  # anchor labels are never used
        return load_features(args.anchor[5:], d, args.has_header)
    raise DataError(f"--anchor must be 'train' or 'file:<path>', got {args.anchor!r}")


def _write_report(out_dir, name, payload):
    path = Path(out_dir) / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=_jsonable)
        fh.write("\n")
    return str(path)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _report_base(args):
    return {
        "version": __version__,
        "command": args.command,
        "flags": {k: v for k, v in vars(args).items() if k != "command"},
    }


def _peak_rss_mb(children=False):
    """Peak resident memory of this process in MB (VmHWM), or with
    `children` the larger of that and the peak of any child waited for;
    None where neither /proc nor the resource module is there."""
    try:
        with open(PROC_STATUS, "rb") as fh:
            peaks = [int(line.split()[1]) / 1024.0 for line in fh
                     if line.startswith(b"VmHWM:")]
    except OSError:
        peaks = []
    try:
        import resource  # here, so that no command start pays for it
    except ImportError:  # not on Windows
        return max(peaks, default=None)
    per_mb = 1024.0 ** 2 if sys.platform == "darwin" else 1024.0  # ru_maxrss units
    if not peaks:
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / per_mb)
    if children:
        peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / per_mb)
    return max(peaks)


def _model_bounds(model):
    """The report fields of the bounds a model carries."""
    return {"upper_bound": model.minimax_risk, "lower_bound": model.lower_bound,
            "raw_bounds": model.raw_bounds}


def _interval(bounds):
    """The report fields of a classifier.RuleBounds."""
    return {"lower": bounds.lower, "upper": bounds.upper,
            "lower_raw": bounds.lower_raw, "upper_raw": bounds.upper_raw}


def _run(run):
    """The report fields of a solver.SolverRun."""
    return {"method": run.method, "status": run.status,
            "certificate": run.certificate, "best_value": run.best_value,
            "sparsity_gamma": run.sparsity_gamma, "value_drift": run.value_drift,
            **run.timings}


def _write_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "elapsed_seconds", "best_value", "gamma_running"])
        for row in trace or []:
            writer.writerow([row[0], repr(float(row[1])), repr(float(row[2])),
                             repr(float(row[3]))])


def cmd_train(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = load_csv(args.data, has_header=args.has_header)
    spec = _spec_from_args(args, data)
    cfg = _solver_config_from_args(args, trace_every=100)  # trace.csv: every 100th step
    model = classifier.train(
        data, spec, **_uncertainty_args(args), solver_config=cfg,
        anchor=_anchor_from_args(args, data.d),
        variant=args.variant.replace("-", "_"), repair=args.repair,
    )
    args.solver = model.runs["upper"].method.replace("_", "-")  # the one that ran
    model_path = out_dir / "model.json"
    classifier.save_model(model, model_path)

    trace_path = out_dir / "trace.csv"
    _write_trace_csv(trace_path, model.runs["upper"].trace)
    report = _report_base(args)
    report.update({
        "model_path": str(model_path),
        **_model_bounds(model),
        "n": data.n,
        "m": model.mu_star.size,
        "p": model.learning_rows,
        "runs": {side: _run(run) for side, run in model.runs.items()},
        "notices": model.solver_info["notices"],
        "trace_path": str(trace_path),
        "peak_rss_mb": _peak_rss_mb(),
    })
    _write_report(out_dir, "report.json", report)
    print(f"upper bound {model.minimax_risk:.6f}  lower bound "
          f"{model.lower_bound if model.lower_bound is not None else float('nan'):.6f}"
          f"  model {model_path}")
    return EXIT_OK


def _csv_cell(name, alone):
    """`name` as csv.writer writes it in a row, as the row's only field or
    followed by others (a lone empty field is written as two quotes)."""
    text = io.StringIO()
    csv.writer(text).writerow([name] if alone else [name, ""])
    return text.getvalue()[:-2 if alone else -3]  # less "\r\n" or ",\r\n"


def cmd_predict(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = classifier.load_model(args.model)
    cells = np.array([_csv_cell(name, alone=not args.proba)
                      for name in model.label_names], dtype=object)
    head = ["label"]
    if args.proba:
        head += [f"p_{name}" for name in model.label_names]
    out_path = out_dir / "predictions.csv"
    partial = out_dir / "predictions.csv.partial"

    def rows_text(block):
        """One block's prediction rows as CSV text, and its count of
        renormalized rule rows."""
        X = block_features(args.data, block, model.feature_spec.d)
        if not len(X):  # a block of blank lines
            return "", 0
        labels, proba, renormalized = classifier.rule_rows(
            model, classifier.batch_scores(model, X))
        # csv.writer writes a float as its repr
        columns = ([list(map(repr, col)) for col in proba.T.tolist()]
                   if args.proba else ())
        rows = map(",".join, zip(cells[labels - 1].tolist(), *columns))
        return "\r\n".join(rows) + "\r\n", renormalized

    def blocks():
        return record_blocks(args.data, args.has_header, PREDICT_CHUNK_ROWS)

    # the blocks' texts come back in file order; the output is renamed into
    # place only once every row has been written
    if os.path.isfile(args.data):  # each process opens and reads it for itself
        texts = parallel.ordered_stream(rows_text, blocks)
    else:  # a pipe or FIFO yields its bytes once, so one process reads it
        texts = (rows_text(block) for block in blocks())
    try:
        with closing(texts), open(partial, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow(head)
            renormalized = 0
            empty = True
            for text, count in texts:
                fh.write(text)
                renormalized += count
                empty = empty and not text
        if empty:
            raise no_data_rows(args.data)
        classifier.warn_renormalized(renormalized)
        os.replace(partial, out_path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_bounds(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = classifier.load_model(args.model)
    report = _report_base(args)
    if args.deterministic:
        det = classifier.deterministic_rule_bounds(model, _solver_config_from_args(args))
        report["flags"]["solver"] = det.runs["upper"].method.replace("_", "-")
        report["deterministic_rule"] = {
            **_interval(det),
            "runs": {side: _run(run) for side, run in det.runs.items()},
        }
    report.update(_model_bounds(model), certificates={
        side: model.solver_info.get(f"{side}_certificate")
        for side in ("upper", "lower")})

    lam_delta = None
    if args.lambda_delta_add is not None:
        lam_delta = model.uncertainty.lam + args.lambda_delta_add
    elif args.lambda_delta_mode == "hoeffding":
        lam_delta = classifier.hoeffding_lambda(model, args.delta)
    if lam_delta is not None:
        report["high_confidence"] = _interval(
            classifier.high_confidence_bounds(model, lam_delta))

    # the deterministic rule's two solves may run one in a forked worker
    report["peak_rss_mb"] = _peak_rss_mb(children=True)
    path = _write_report(out_dir, "bounds.json", report)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep_lambda(args):
    grid = _parse_grid(args.lambda0_grid, float, "--lambda0-grid")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = load_csv(args.data, has_header=args.has_header)
    largest = int(np.bincount(data.labels).max())
    if not 2 <= args.folds <= largest:  # before any fit; else a fold is empty
        raise DataError(f"--folds must lie in [2, {largest}], the row count of "
                        f"the largest class, got {args.folds}")
    folds = stratified_folds(data, args.folds, args.seed)
    rows = []
    for gi, lam0 in enumerate(grid):
        acc = {"upper": [], "lower": [], "risk": [], "err": []}
        for fi, fold in enumerate(folds):
            test = data.subset(fold)
            train_rows = np.setdiff1d(np.arange(data.n), fold)
            train_set = data.subset(train_rows)
            spec = _spec_from_args(args, data, seed_counter=1 + gi * len(folds) + fi)
            cfg = _solver_config_from_args(args)
            # the sweep is over lambda0 of the practical width
            model = classifier.train(train_set, spec, solver_config=cfg,
                                     lambda_mode="practical", lambda0=lam0)
            metrics = classifier.evaluate(model, test)
            acc["upper"].append(model.minimax_risk)
            acc["lower"].append(model.lower_bound)
            acc["risk"].append(metrics["randomized_risk"])
            acc["err"].append(metrics["deterministic_error"])
        rows.append([lam0, float(np.mean(acc["upper"])), float(np.mean(acc["lower"])),
                     float(np.mean(acc["risk"])), float(np.mean(acc["err"]))])
    table_path = out_dir / "sweep_lambda.csv"
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda0", "upper", "lower", "risk_rand", "err_det"])
        writer.writerows(rows)
    _write_report(out_dir, "report.json",
                  {**_report_base(args), "table": str(table_path)})
    print(f"wrote {table_path}")
    return EXIT_OK


def cmd_reduce_study(args):
    sizes = _parse_grid(args.sizes, int, "--sizes")
    if args.reps < 1:  # before any data is read
        raise DataError(f"--reps must be at least 1, got {args.reps}")
    for s in sizes:
        if s < 1:
            raise DataError(f"--sizes must be at least 1, got {s}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = load_csv(args.data, has_header=args.has_header)
    spec = _spec_from_args(args, data)
    pool = _anchor_from_args(args, data.d)
    pool_n = data.n if pool is None else pool.shape[0]
    for s in sizes:
        if s > pool_n:
            raise DataError(f"anchor subset size {s} exceeds the pool size {pool_n}")

    # tau and lambda are fixed once from the training data.
    cfg = _solver_config_from_args(args)
    model_full = classifier.train(
        data, spec, **_uncertainty_args(args), solver_config=cfg,
        anchor=pool, repair="always", compute_lower=False)
    upper_full = model_full.raw_bounds["upper"]
    unc = model_full.uncertainty

    # the subsets are drawn here, in order, and fitted side by side
    cells, subsets = [], []
    counter = 0
    for s in sizes:
        eps = classifier.epsilon_s(s, unc.m, data.num_classes, args.delta)
        for rep in range(args.reps):
            counter += 1
            rng = np.random.default_rng(child_seed(args.seed, counter))
            idx = rng.choice(pool_n, size=s, replace=False) if s < pool_n \
                else np.arange(pool_n)
            cells.append((s, rep, eps))
            subsets.append(idx)

    def subset_bounds(idx):
        anchor = model_full.instance_anchor[idx]  # each subset is mapped once
        model = classifier.fit(unc, anchor, features.scalar_feature_matrix(spec, anchor),
                               spec, cfg, repair="always")
        return model.raw_bounds["upper"], model.raw_bounds["lower"]

    rows = [[s, rep, upper_s, lower_s, abs(upper_s - upper_full), eps]
            for (s, rep, eps), (upper_s, lower_s)
            in zip(cells, parallel.ordered_map(subset_bounds, subsets))]
    table_path = out_dir / "reduce_study.csv"
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "rep", "upper", "lower", "abs_diff_upper", "eps_s"])
        writer.writerows(rows)
    _write_report(out_dir, "report.json", {
        **_report_base(args), "table": str(table_path),
        "upper_full": upper_full, "pool_size": pool_n,
    })
    print(f"wrote {table_path}")
    return EXIT_OK


def cmd_bench_solvers(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = load_csv(args.data, has_header=args.has_header)
    spec = _spec_from_args(args, data)
    _, _, unc, psi = classifier.estimate_uncertainty(data, spec, **_uncertainty_args(args))
    problem = objective.learning_problem(unc, psi, spec.num_classes)

    methods = [method for method in METHODS if method != "lp"]
    summary = {"methods": {}, "p": problem.num_rows, "m": problem.dimension}
    for name in methods:
        run = solve(problem, _solver_config_from_args(args, method=name, trace_every=1))
        trace_path = out_dir / f"trace_{name}.csv"
        _write_trace_csv(trace_path, run.trace)
        summary["methods"][name] = {
            **_run(run),
            "initial_value": run.trace[0][2] if run.trace else None,
            "trace": str(trace_path),
        }
    if lp_fits(problem):
        lp_optimum = _run(solve(problem, SolverConfig(method="lp")))["best_value"]
        summary["lp_optimum"] = lp_optimum
        for name in methods:
            summary["methods"][name]["gap_to_lp"] = (
                summary["methods"][name]["best_value"] - lp_optimum)
    path = _write_report(out_dir, "bench.json", {**_report_base(args), **summary})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_model_select(args):
    if args.splits < 1:  # no split would leave every mean undefined
        raise DataError(f"--splits must be at least 1, got {args.splits}")
    sigma_grid = (None if args.sigma_grid is None
                  else _parse_grid(args.sigma_grid, float, "--sigma-grid"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = load_csv(args.data, has_header=args.has_header)
    # every split takes the same rows per class, so one check covers them all
    test_rows = sum(split_test_rows(int(rows), args.test_fraction)
                    for rows in np.bincount(data.labels)[1:])
    if not 0 < test_rows < data.n:
        empty = "test" if test_rows <= 0 else "training"
        raise DataError(f"--test-fraction {args.test_fraction} leaves the {empty} "
                        "split with no rows")

    def split_result(split_i):
        train_set, test_set = stratified_split(
            data, args.test_fraction, seed=child_seed(args.seed, split_i))
        grid = sigma_grid or _default_sigma_grid(args, train_set, split_i)
        select_cfg = _solver_config_from_args(args, max_iters=args.select_max_iters)
        rng = np.random.default_rng(child_seed(args.seed, 50_000 + split_i))
        anchor = None
        if SELECT_ANCHOR_SIZE < train_set.n:
            rows = rng.choice(train_set.n, size=SELECT_ANCHOR_SIZE, replace=False)
            anchor = train_set.instances[rows]
        best = None
        for si, sigma in enumerate(grid):
            spec = _spec_from_args(args, data, split_i, sigma=float(sigma))
            model = classifier.train(
                train_set, spec, **_uncertainty_args(args),
                solver_config=select_cfg, anchor=anchor, compute_lower=False)
            # ties broken toward smaller sigma: strict improvement required
            if best is None or model.minimax_risk < best[1] - 1e-12:
                best = (float(sigma), model.minimax_risk, spec)
        sigma_star, _, spec = best
        final_cfg = _solver_config_from_args(args)
        model = classifier.train(
            train_set, spec, **_uncertainty_args(args), solver_config=final_cfg)
        metrics = classifier.evaluate(model, test_set)
        return {
            "split": split_i, "sigma": sigma_star,
            "upper_bound": model.minimax_risk,
            "lower_bound": model.lower_bound,
            **metrics,
        }

    results = parallel.ordered_map(split_result, range(args.splits))
    det = [r["deterministic_error"] for r in results]
    rand = [r["randomized_risk"] for r in results]
    report = _report_base(args)
    report.update({
        "splits": results,
        "mean_deterministic_error": float(np.mean(det)),
        "std_deterministic_error": float(np.std(det)),
        "mean_randomized_risk": float(np.mean(rand)),
        "mean_selected_sigma": float(np.mean([r["sigma"] for r in results])),
        "mean_upper_bound": float(np.mean([r["upper_bound"] for r in results])),
    })
    path = _write_report(out_dir, "model_select.json", report)
    print(f"selected sigma (mean) {report['mean_selected_sigma']:.4f}  "
          f"det error {report['mean_deterministic_error']:.4f}  report {path}")
    return EXIT_OK


def _default_sigma_grid(args, train_set, split_i):
    Xn = apply_normalizer(fit_normalizer(train_set), train_set).instances
    if Xn.shape[0] > 1500:
        rng = np.random.default_rng(child_seed(args.seed, 90_000 + split_i))
        Xn = Xn[rng.choice(Xn.shape[0], size=1500, replace=False)]
    sq = np.sum(Xn ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Xn @ Xn.T)
    iu = np.triu_indices(Xn.shape[0], k=1)
    dists = np.sqrt(np.maximum(d2[iu], 0.0))
    lo, hi = np.percentile(dists, [10.0, 90.0])
    if hi <= lo:
        if lo <= 0:
            raise DataError("degenerate distance distribution; supply --sigma-grid")
        return [float(lo)]
    return np.linspace(lo, hi, 20).tolist()


def _parse_grid(text, cast, flag):
    """The comma-separated values of `flag`; a non-finite one is a usage error."""
    try:
        vals = [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise DataError(f"cannot parse grid {text!r}: {exc}") from None
    if not vals:
        raise DataError("empty grid")
    if not all(math.isfinite(val) for val in vals):
        raise argparse.ArgumentError(None, f"argument {flag}: values must be "
                                           f"finite, got {text!r}")
    return vals


COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "bounds": cmd_bounds,
    "sweep-lambda": cmd_sweep_lambda,
    "reduce-study": cmd_reduce_study,
    "bench-solvers": cmd_bench_solvers,
    "model-select": cmd_model_select,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except argparse.ArgumentError as exc:  # a flag value its command refused
        parser.error(str(exc))
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, SimplexError, parallel.WorkerError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
