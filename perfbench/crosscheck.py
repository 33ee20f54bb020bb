"""Check the in-house simplex optimum of a model's learning LP against HiGHS.

    PYTHONPATH=src python3 perfbench/crosscheck.py run/model.json

Rebuilds the learning problem from the saved uncertainty set, anchor pool
and feature map, solves min a.mu + lam.|mu| + max(F mu + b) with
scipy.optimize.linprog(method="highs") and compares it with the model's raw
upper bound. Prints one JSON line; exits 0 when the values agree within
TOLERANCE or scipy is missing, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from mrckit import classifier, objective

TOLERANCE = 1e-6


def highs_optimum(problem):
    """Optimum of the problem, variables (mu+, mu-, t) with t free."""
    from scipy.optimize import linprog

    p, m = problem.F.shape
    cost = np.concatenate([problem.a + problem.lam, -problem.a + problem.lam, [1.0]])
    A_ub = np.hstack([problem.F, -problem.F, -np.ones((p, 1))])
    bounds = [(0, None)] * (2 * m) + [(None, None)]
    res = linprog(cost, A_ub=A_ub, b_ub=-problem.b, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return problem.constant + res.fun


def main(model_path):
    try:
        import scipy  # noqa: F401  (benchmark-only dependency)
    except ImportError:
        print(json.dumps({"skipped": "scipy is not installed"}))
        return 0
    model = classifier.load_model(model_path)
    problem = objective.build_learning_problem(
        model.uncertainty, model.instance_anchor, model.feature_spec)
    ours = model.raw_bounds["upper"]
    highs = highs_optimum(problem)
    diff = abs(ours - highs)
    print(json.dumps({"simplex": ours, "highs": highs, "abs_diff": diff,
                      "tolerance": TOLERANCE}))
    return 0 if diff <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
