"""Command-line front end: train, predict, bounds, sweeps, and benchmarks.

All commands are deterministic given their inputs and --seed; child seeds
are derived from the master seed with a stable counter. Reports are JSON,
tables are CSV. Exit codes: 0 success, 1 input error, 2 numerical/solver
error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from contextlib import closing
from pathlib import Path

import numpy as np

from . import __version__, classifier, estimate, features, objective, parallel
from .dataset import (DataError, block_features, load_csv, load_features,
                      no_data_rows, record_blocks, stratified_folds,
                      stratified_split)
from .simplex import SimplexError
from .solver import METHODS, SolverConfig, SolverError, lp_fits, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2

# `predict` maps, scores and formats this many rows at a time, so its memory
# does not grow with the input; the blocks are striped over parallel's
# workers.
PREDICT_CHUNK_ROWS = 2048

SOLVER_CHOICES = [method.replace("_", "-") for method in METHODS]


def child_seed(master, counter):
    """Stable per-task seed derived from the master seed."""
    return [int(master), int(counter)]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mrckit",
        description="Minimax risk classifiers with 0-1 loss: learning with "
                    "certified error-probability bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--data", required=True, help="CSV file, label in the last column")
        p.add_argument("--has-header", action="store_true")
        p.add_argument("--features", choices=["rff", "identity"], default="rff")
        p.add_argument("--D", type=int, default=500, help="number of random frequencies")
        p.add_argument("--sigma", type=float, default=None,
                       help="kernel scale (default sqrt(d/2))")
        p.add_argument("--rff-seed", type=int, default=None,
                       help="frequency seed (default: derived from --seed)")
        p.add_argument("--lambda-mode", dest="lambda_mode", default="practical",
                       choices=["hoeffding", "bernstein", "rademacher", "practical"])
        p.add_argument("--lambda0", type=float, default=0.3)
        p.add_argument("--delta", type=float, default=0.05)
        p.add_argument("--rademacher-R", dest="rademacher_R", type=float, default=None)
        p.add_argument("--solver", default="easm-restart", choices=SOLVER_CHOICES)
        p.add_argument("--max-iters", type=int, default=200_000)
        p.add_argument("--restart-period", type=int, default=10_000)
        p.add_argument("--anchor", default="train",
                       help="'train' or 'file:<path>' with extra instances")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output directory")

    p_train = sub.add_parser("train", help="learn a model and certify its bounds")
    add_common(p_train)
    p_train.add_argument("--variant", choices=["standard", "fixed-marginal"],
                         default="standard")
    p_train.add_argument("--repair", choices=["auto", "always", "never"],
                         default="auto")
    p_train.add_argument("--trace-every", type=int, default=100)
    # without --solver, train picks the solver from the variant
    p_train.set_defaults(solver=None)

    p_pred = sub.add_parser("predict", help="predict labels with a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--has-header", action="store_true")
    p_pred.add_argument("--proba", action="store_true", help="also emit probabilities")
    p_pred.add_argument("--out", required=True)

    p_bounds = sub.add_parser("bounds", help="report certified bounds of a model")
    p_bounds.add_argument("--model", required=True)
    p_bounds.add_argument("--deterministic", action="store_true",
                          help="also bound the deterministic rule")
    p_bounds.add_argument("--lambda-delta-add", type=float, default=None,
                          help="high-confidence interval with lambda_delta = lambda + c")
    p_bounds.add_argument("--lambda-delta-mode", choices=["hoeffding"], default=None,
                          help="derive lambda_delta from the stored provenance")
    p_bounds.add_argument("--delta", type=float, default=0.05)
    p_bounds.add_argument("--solver", default=None, choices=SOLVER_CHOICES,
                          help="default: lp when the bound problems fit it, "
                               "else easm-restart")
    p_bounds.add_argument("--max-iters", type=int, default=200_000)
    p_bounds.add_argument("--restart-period", type=int, default=10_000)
    p_bounds.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep-lambda", help="bounds and errors along a lambda0 grid")
    add_common(p_sweep)
    p_sweep.add_argument("--lambda0-grid", required=True,
                         help="comma-separated lambda0 values")
    p_sweep.add_argument("--folds", type=int, default=10)

    p_red = sub.add_parser("reduce-study", help="bound error versus anchor-pool size")
    add_common(p_red)
    p_red.add_argument("--sizes", required=True, help="comma-separated pool sizes")
    p_red.add_argument("--reps", type=int, default=10)

    p_bench = sub.add_parser("bench-solvers", help="trace every method on one problem")
    add_common(p_bench)
    p_bench.add_argument("--trace-every", type=int, default=1)

    p_sel = sub.add_parser("model-select", help="pick the kernel scale by the upper bound")
    add_common(p_sel)
    p_sel.add_argument("--sigma-grid", default=None,
                       help="comma-separated scales (default: 20 between the "
                            "10th/90th distance percentiles)")
    p_sel.add_argument("--splits", type=int, default=20)
    p_sel.add_argument("--test-fraction", type=float, default=0.2)
    p_sel.add_argument("--select-max-iters", type=int, default=20_000)
    p_sel.add_argument("--select-anchor-size", type=int, default=400,
                       help="anchor subsample used during selection (0 = full)")

    return parser


def _spec_from_args(args, data, seed_counter=0, sigma=None):
    """The feature map of the flags; `sigma` overrides --sigma."""
    rff_seed = args.rff_seed
    if rff_seed is None:
        rff_seed = args.seed * 1000003 + seed_counter
    if args.features == "identity":
        return features.identity_spec(data.num_classes, data.d)
    return features.rff_spec(data.num_classes, data.d, D=args.D,
                             sigma=args.sigma if sigma is None else sigma,
                             seed=rff_seed)


def _solver_config_from_args(args, **overrides):
    cfg = SolverConfig(
        method=args.solver.replace("-", "_"),
        max_iters=args.max_iters,
        restart_period=args.restart_period,
    )
    return dataclasses.replace(cfg, **overrides)


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
        "seed": getattr(args, "seed", None),
    }


def _write_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "elapsed_seconds", "best_value", "gamma_running"])
        for row in trace or []:
            writer.writerow([row[0], repr(float(row[1])), repr(float(row[2])),
                             repr(float(row[3]))])


def cmd_train(args):
    if args.solver is None:  # E-ASM and the LP need a max over rows
        args.solver = "asm" if args.variant == "fixed-marginal" else "easm-restart"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = load_csv(args.data, has_header=args.has_header)
    spec = _spec_from_args(args, data)
    cfg = _solver_config_from_args(args, record_trace=True,
                                   trace_every=args.trace_every)
    model = classifier.train(
        data, spec, **_uncertainty_args(args), solver_config=cfg,
        anchor=_anchor_from_args(args, data.d),
        variant=args.variant.replace("-", "_"), repair=args.repair,
    )
    model_path = out_dir / "model.json"
    classifier.save_model(model, model_path)

    trace_path = out_dir / "trace.csv"
    _write_trace_csv(trace_path, model.training_trace)
    report = _report_base(args)
    report.update({
        "model_path": str(model_path),
        "upper_bound": model.minimax_risk,
        "lower_bound": model.lower_bound,
        "raw_bounds": model.raw_bounds,
        "n": data.n,
        "m": model.mu_star.size,
        "p": model.learning_rows,
        "solver": model.solver_info,
        "timings": model.solve_timings,
        "trace_path": str(trace_path),
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
    det = None
    if args.deterministic:
        # the anchor is mapped once: the one-hot rule is read off its scores
        # and both bound problems are built on the same scalar features
        psi = features.scalar_feature_matrix(model.feature_spec, model.instance_anchor)
        labels = np.argmax(psi @ model.mu_star.reshape(model.num_classes, -1).T, axis=1)
        rule = np.eye(model.num_classes)[labels]
        if args.solver is None:  # flags.solver names the method that ran
            # the lower problem is the upper one negated: the same size
            high = objective.build_upper_bound_problem(model.uncertainty, psi, rule)
            args.solver = "lp" if lp_fits(high) else "easm-restart"
        det = classifier.rule_bounds(model.uncertainty, psi, rule,
                                     _solver_config_from_args(args))

    report = _report_base(args)
    report.update({
        "upper_bound": model.minimax_risk,
        "lower_bound": model.lower_bound,
        "raw_bounds": model.raw_bounds,
        "certificates": {
            "upper": model.solver_info.get("upper_certificate"),
            "lower": model.solver_info.get("lower_certificate"),
        },
    })
    if det is not None:
        report["deterministic_rule"] = {
            "lower": det.lower, "upper": det.upper,
            "lower_raw": det.lower_raw, "upper_raw": det.upper_raw,
            "certificates": [det.lower_certificate, det.upper_certificate],
            "timings": det.timings,
        }

    lam_delta = None
    if args.lambda_delta_add is not None:
        lam_delta = model.uncertainty.lam + args.lambda_delta_add
    elif args.lambda_delta_mode == "hoeffding":
        prov = model.uncertainty.provenance
        width = estimate.lambda_hoeffding(
            prov["C"], prov["family_size"], model.num_classes,
            args.delta, prov["n"])
        lam_delta = np.maximum(model.uncertainty.lam, width)
    if lam_delta is not None:
        hc = classifier.high_confidence_bounds(model, lam_delta)
        report["high_confidence"] = {
            "lower": hc.lower, "upper": hc.upper,
            "lower_raw": hc.lower_raw, "upper_raw": hc.upper_raw,
        }

    path = _write_report(out_dir, "bounds.json", report)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep_lambda(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = _parse_grid(args.lambda0_grid, float)
    data = load_csv(args.data, has_header=args.has_header)
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
            # the sweep is over lambda0, so the practical width is forced
            model = classifier.train(
                train_set, spec, solver_config=cfg,
                **_uncertainty_args(args, lambda_mode="practical", lambda0=lam0))
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes = _parse_grid(args.sizes, int)
    data = load_csv(args.data, has_header=args.has_header)
    spec = _spec_from_args(args, data)
    pool = _anchor_from_args(args, data.d)
    pool_n = data.n if pool is None else pool.shape[0]
    for s in sizes:  # before any solve
        if s > pool_n:
            raise DataError(f"anchor subset size {s} exceeds the pool size {pool_n}")

    # tau and lambda are fixed once from the training data.
    cfg = _solver_config_from_args(args)
    model_full = classifier.train(
        data, spec, **_uncertainty_args(args), solver_config=cfg,
        anchor=pool, repair="always", compute_lower=False)
    upper_full = model_full.raw_bounds["upper"]
    unc = model_full.uncertainty
    spec = model_full.feature_spec

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
    _, _, spec, unc, psi = classifier.estimate_uncertainty(
        data, _spec_from_args(args, data), **_uncertainty_args(args))
    problem = objective.learning_problem(unc, psi, spec.num_classes)

    methods = [method for method in METHODS if method != "lp"]
    summary = {"methods": {}, "p": problem.num_rows, "m": problem.dimension}
    for name in methods:
        cfg = _solver_config_from_args(args, method=name, record_trace=True,
                                       trace_every=args.trace_every)
        run = solve(problem, cfg)
        trace_path = out_dir / f"trace_{name}.csv"
        _write_trace_csv(trace_path, run.trace)
        summary["methods"][name] = {
            "best_value": run.best_value,
            "initial_value": run.trace[0][2] if run.trace else None,
            **run.timings,
            "gamma": run.sparsity_gamma,
            "trace": str(trace_path),
        }
    if lp_fits(problem):
        lp_run = solve(problem, SolverConfig(method="lp"))
        summary["lp_optimum"] = lp_run.best_value
        for name in methods:
            summary["methods"][name]["gap_to_lp"] = (
                summary["methods"][name]["best_value"] - lp_run.best_value)
    path = _write_report(out_dir, "bench.json", {**_report_base(args), **summary})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_model_select(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = load_csv(args.data, has_header=args.has_header)
    if args.features != "rff":
        raise DataError("model-select tunes the kernel scale; use --features rff")

    def split_result(split_i):
        train_set, test_set = stratified_split(
            data, args.test_fraction, seed=child_seed(args.seed, split_i))
        grid = _sigma_grid(args, train_set, split_i)
        select_cfg = _solver_config_from_args(args, max_iters=args.select_max_iters)
        rng = np.random.default_rng(child_seed(args.seed, 50_000 + split_i))
        anchor = None
        if 0 < args.select_anchor_size < train_set.n:
            rows = rng.choice(train_set.n, size=args.select_anchor_size, replace=False)
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


def _sigma_grid(args, train_set, split_i):
    if args.sigma_grid is not None:
        return _parse_grid(args.sigma_grid, float)
    X = train_set.instances
    mean = X.mean(axis=0)
    std = np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
    Xn = (X - mean) / std
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


def _parse_grid(text, cast):
    try:
        vals = [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise DataError(f"cannot parse grid {text!r}: {exc}") from None
    if not vals:
        raise DataError("empty grid")
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
