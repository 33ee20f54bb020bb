"""Run one session's CLI commands inside this process, optionally traced.

    PYTHONPATH=src:perfbench python3 perfbench/inproc.py --commands cmds.json \
        --trace 1 --spans spans.json --train-rows 300 --predict-rows 50000

`cmds.json` maps command names to argument lists (see workloads.py). The
last line of standard output is a JSON object with each command's exit code
and wall time and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import defaultdict

import tracing

BUILDERS = ("objective.build_learning_problem", "objective.build_upper_bound_problem",
            "objective.build_lower_bound_problem", "objective.build_fixed_marginal_problem",
            "objective.build_learning_objective_topk")
PHI = ("objective.phi", "objective.phi_at_x", "objective.phi_per_instance")
TAU = ("estimate.mean_vector", "estimate.tau_and_variance_from_scalars")


class Facts:
    """Counts gathered by result hooks at the layer boundaries."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.solves = []        # one dict per solver.solve call
        self.pivots = 0
        self.rows_built = 0
        self.F_bytes = 0
        self.rows_mapped = defaultdict(int)   # command -> rows through the map
        self.bytes_mapped = 0
        self.rows_parsed = 0
        self.model_bytes = 0
        tracer.hooks["solver.solve"] = self._solve
        tracer.hooks["simplex.solve_standard_form"] = self._simplex
        tracer.hooks["features.scalar_feature_matrix"] = self._features
        tracer.hooks["dataset.load_csv"] = self._load_csv
        tracer.hooks["classifier.save_model"] = self._save_model
        for name in BUILDERS:
            tracer.hooks[name] = self._built

    def _solve(self, args, kwargs, run):
        problem = args[0]
        entry = {
            "command": self.tracer.command,
            "sense": "lower" if getattr(problem, "negate_reported", False) else "upper",
            "method": run.method,
            "iterations": run.iterations_done,
            "loop_s": run.timings.get("loop_seconds", 0.0),
            "precompute_s": run.timings.get("precompute_seconds", 0.0),
            "gamma": run.sparsity_gamma,
            "gram_bytes": 0,
            "value_drift": None,
        }
        if run.method in ("easm", "easm_restart", "ebsm"):
            entry["gram_bytes"] = 8 * problem.num_rows ** 2
        if run.certificate != "lp":
            entry["value_drift"] = abs(run.best_value - problem.objective(run.best_mu))
        self.solves.append(entry)

    def _simplex(self, args, kwargs, result):
        self.pivots += result.pivots

    def _built(self, args, kwargs, problem):
        F = getattr(problem, "F", None)
        if F is not None:
            self.rows_built += F.shape[0]
            self.F_bytes += F.nbytes

    def _features(self, args, kwargs, psi):
        self.rows_mapped[self.tracer.command] += psi.shape[0]
        self.bytes_mapped += psi.nbytes

    def _load_csv(self, args, kwargs, data):
        self.rows_parsed += data.n

    def _save_model(self, args, kwargs, result):
        self.model_bytes += os.path.getsize(args[1])


def self_seconds(spans, field):
    """Self time (duration minus the time covered by child spans) summed by
    span field: 2 groups by layer, 3 by function name."""
    dur = {s[0]: s[5] - s[4] for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += dur[s[0]]
    out = defaultdict(float)
    for s in spans:
        out[s[field]] += dur[s[0]] - child[s[0]]
    return out


def group_seconds(spans, names):
    """Wall time inside any of `names`, counting nested calls once."""
    names = set(names)
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for s in spans:
        if s[3] not in names:
            continue
        parent = s[1]
        nested = False
        while parent is not None:
            if by_id[parent][3] in names:
                nested = True
                break
            parent = by_id[parent][1]
        if not nested:
            total += s[5] - s[4]
    return total


def _per_iter_us(solves, sense):
    chosen = [s for s in solves if s["sense"] == sense]
    iters = sum(s["iterations"] for s in chosen)
    return 1e6 * sum(s["loop_s"] for s in chosen) / iters if iters else 0.0


def layer_metrics(tracer, facts, input_rows):
    """Every per-layer metric of one traced session, by name."""
    spans = tracer.spans
    own = self_seconds(spans, 2)
    solves = facts.solves
    sub = [s for s in solves if s["gamma"] is not None]
    sub_iters = sum(s["iterations"] for s in sub)
    evaluate = [s for s in spans if s[2] == "objective" and s[3].endswith(".evaluate")]
    metrics = {
        "solver.upper.us_per_iter": (_per_iter_us(solves, "upper"), "us"),
        "solver.lower.us_per_iter": (_per_iter_us(solves, "lower"), "us"),
        "solver.iterations": (sum(s["iterations"] for s in solves), "count"),
        "solver.gamma": (sum(s["gamma"] * s["iterations"] for s in sub) / sub_iters
                         if sub_iters else 0.0, "ratio"),
        "solver.precompute_s": (sum(s["precompute_s"] for s in solves), "s"),
        "solver.gram_bytes": (max([s["gram_bytes"] for s in solves] or [0]), "bytes"),
        "solver.value_drift": (max([s["value_drift"] for s in sub] or [0.0]), "prob"),
        "simplex.calls": (sum(s[3] == "simplex.solve_standard_form" for s in spans), "count"),
        "simplex.pivots": (facts.pivots, "count"),
        "simplex.solve_s": (group_seconds(spans, ["simplex.solve_standard_form"]), "s"),
        "objective.build_s": (group_seconds(spans, BUILDERS), "s"),
        "objective.rows": (facts.rows_built, "count"),
        "objective.F_bytes": (facts.F_bytes, "bytes"),
        "objective.evaluate_calls": (len(evaluate), "count"),
        "objective.evaluate_us": (1e6 * sum(s[5] - s[4] for s in evaluate) / len(evaluate)
                                  if evaluate else 0.0, "us"),
        "objective.phi_s": (group_seconds(spans, PHI), "s"),
        "features.scalar_s": (group_seconds(spans, ["features.scalar_feature_matrix"]), "s"),
        "features.rows_mapped": (sum(facts.rows_mapped.values()), "count"),
        "features.rows_per_input_row": (
            facts.rows_mapped["predict"] / input_rows["predict"], "ratio"),
        "features.train_rows_per_input_row": (
            facts.rows_mapped["train"] / input_rows["train"], "ratio"),
        "features.bytes_computed": (facts.bytes_mapped, "bytes"),
        "classifier.predict_s": (group_seconds(spans, ["classifier.predict"]), "s"),
        "classifier.predict_proba_s": (group_seconds(spans, ["classifier.predict_proba"]),
                                       "s"),
        "classifier.train_self_s": (self_seconds(spans, 3)["classifier.train"], "s"),
        "classifier.save_model_s": (group_seconds(spans, ["classifier.save_model"]), "s"),
        "classifier.model_bytes": (facts.model_bytes, "bytes"),
        "classifier.load_model_s": (group_seconds(spans, ["classifier.load_model"]), "s"),
        "dataset.load_csv_s": (group_seconds(spans, ["dataset.load_csv"]), "s"),
        "dataset.rows_parsed": (facts.rows_parsed, "count"),
        "estimate.tau_s": (group_seconds(spans, TAU), "s"),
        "estimate.repair_calls": (sum(s[3] == "estimate.ensure_feasible" for s in spans),
                                  "count"),
        "estimate.repair_s": (group_seconds(spans, ["estimate.ensure_feasible"]), "s"),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--commands", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--train-rows", type=int, required=True)
    parser.add_argument("--predict-rows", type=int, required=True)
    args = parser.parse_args()
    with open(args.commands, encoding="utf-8") as fh:
        commands = json.load(fh)

    tracer = facts = None
    if args.trace:
        tracer = tracing.Tracer()
        facts = Facts(tracer)
        tracing.install(tracer)
    from mrckit import cli

    result = {"commands": {}}
    for name, argv in commands.items():
        if tracer is not None:
            tracer.command = name
        t0 = time.perf_counter()
        rc = cli.main(argv)
        result["commands"][name] = {"rc": rc, "wall_s": time.perf_counter() - t0}
        if rc != 0:
            break
    if tracer is not None:
        if args.spans:
            tracer.write(args.spans)
        rows = {"train": args.train_rows, "predict": args.predict_rows}
        result["layers"] = layer_metrics(tracer, facts, rows)
        result["solves"] = facts.solves
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
