"""Output checks of one session; each failed check fails its operation."""

from __future__ import annotations

import csv
import hashlib
import json

PROBA_TOL = 1e-9


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_train(out_dir, num_classes):
    """(problems, facts) from train's report.json and model.json."""
    problems = []
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    upper = report["upper_bound"]
    lower = report["lower_bound"]
    # fixed-marginal models certify no lower bound; 0 is the trivial one
    low = 0.0 if lower is None else lower
    if not 0.0 <= low <= upper <= 1.0:
        problems.append(f"train: bounds out of order: lower {lower}, upper {upper}")
    trivial = 1.0 - 1.0 / num_classes
    if not upper < trivial:
        problems.append(f"train: upper bound {upper} not below {trivial}, "
                        "the value at mu = 0")
    facts = {"upper_bound": upper, "bound_gap": upper - low,
             "model_sha256": sha256(out_dir / "model.json")}
    return problems, facts


def check_bounds(out_dir):
    problems = []
    report = json.loads((out_dir / "bounds.json").read_text(encoding="utf-8"))
    det = report.get("deterministic_rule")
    if det is None:
        problems.append("bounds: no deterministic_rule entry")
    elif not 0.0 <= det["lower"] <= det["upper"] <= 1.0:
        problems.append(f"bounds: deterministic rule bounds out of order: {det}")
    return problems


def check_predict(out_dir, truth, label_names):
    """(problems, test_error) for predictions.csv against held-out labels."""
    problems = []
    with open(out_dir / "predictions.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    head, body = rows[0], rows[1:]
    want_head = ["label"] + [f"p_{name}" for name in label_names]
    if head != want_head:
        problems.append(f"predict: header {head}, expected {want_head}")
        return problems, None
    if len(body) != len(truth):
        problems.append(f"predict: {len(body)} rows for {len(truth)} inputs")
        return problems, None
    wrong = 0
    bad_rows = 0
    for row, label in zip(body, truth):
        wrong += row[0] != label
        total = sum(float(v) for v in row[1:])
        if abs(total - 1.0) > PROBA_TOL or min(float(v) for v in row[1:]) < 0.0:
            bad_rows += 1
    if bad_rows:
        problems.append(f"predict: {bad_rows} probability rows off the simplex "
                        f"by more than {PROBA_TOL}")
    return problems, wrong / len(truth)


def label_names_of(model_path):
    model = json.loads(model_path.read_text(encoding="utf-8"))
    return model["label_names"]
