"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import collections
import csv
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from mrckit import classifier, estimate, features, objective
from mrckit.cli import main as cli_main
from mrckit.dataset import load_csv, save_csv
from mrckit.solver import SolverConfig, solve
from conftest import (enumerate_phi, exact_risk_finite, make_blobs,
                      random_learning_problem, row_problem, rule_normalizer)

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def report(num, ok, desc):
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def random_plp(seed, m, p):
    rng = np.random.default_rng(seed)
    return row_problem(
        a=rng.normal(size=m) * 0.1,
        lam=np.abs(rng.normal(size=m)) * 0.3 + 0.02,
        F=rng.normal(size=(p, m)) / np.sqrt(m),
        b=rng.normal(size=p) * 0.1,
        constant=1.0)


def test_criterion_01_iterate_identity():
    sizes = [(5, 20), (5, 500), (50, 20), (50, 500)]
    worst = 0.0
    for trial in range(20):
        m, p = sizes[trial % 4]
        problem = random_plp(1000 + trial, m, p)
        cfg = SolverConfig(max_iters=10_000, record_iterates=True)
        asm = solve(problem, replace(cfg, method="asm"))
        easm = solve(problem, replace(cfg, method="easm"))
        diff = np.abs(asm.iterates - easm.iterates).max(axis=1)
        scale = np.maximum(1.0, np.abs(asm.iterates).max(axis=1))
        worst = max(worst, float((diff / scale).max()))
    report(1, worst <= 1e-9,
           f"ASM and E-ASM iterates agree to {worst:.2e} (<= 1e-9) over "
           "10^4 iterations on 20 problems")


def test_criterion_02_oracle_equivalence():
    worst = 0.0
    for trial in range(20):
        if trial % 2 == 0:
            problem, *_ = random_learning_problem(
                seed=300 + trial, n=71, num_classes=3, kind="rff", D=4)
        else:
            problem, *_ = random_learning_problem(
                seed=300 + trial, n=40, num_classes=2, kind="rff", D=8)
        assert problem.dimension <= 50 and problem.num_rows <= 500
        run = solve(problem, SolverConfig(
            method="easm_restart", max_iters=200_000, restart_period=10_000))
        lp = solve(problem, SolverConfig(method="lp"))
        worst = max(worst, run.best_value - lp.best_value)
    report(2, worst <= 1e-3,
           f"E-ASM-R (2e5 iters) within {worst:.2e} (<= 1e-3) of the exact "
           "LP optimum on 20 problems")


def test_criterion_03_bound_sandwich():
    lp = SolverConfig(method="lp")
    ok = True
    detail = []
    for trial in range(10):
        rng = np.random.default_rng(500 + trial)
        K = 2 + trial % 2
        size = int(rng.integers(10, 51))
        X = rng.normal(size=(size, 2))
        pairs_x = np.repeat(np.arange(size), K)
        pairs_y = np.tile(np.arange(1, K + 1), size)
        w = rng.exponential(size=pairs_x.size)
        prob = w / w.sum()
        spec = features.identity_spec(K, 2)
        tau_inf = np.zeros(2 * K)
        for i in range(pairs_x.size):
            tau_inf += prob[i] * features.feature_map(spec, X[pairs_x[i]],
                                                      pairs_y[i])
        e = rng.normal(size=2 * K) * 0.05
        unc = estimate.UncertaintySet(tau_inf + e, 2.0 * np.abs(e))
        learn = objective.build_learning_problem(unc, X, spec)
        run = solve(learn, lp)
        phi_star = objective.phi(run.best_mu, X, spec)
        scores = features.score_matrix(spec, X, run.best_mu)
        h = classifier._rule_matrix_from_scores(scores, phi_star, K)
        rb = classifier.rule_bounds(unc, features.scalar_feature_matrix(spec, X), h, lp)
        # exact enumerated risk of the learned randomized rule
        h_at = h[pairs_x, pairs_y - 1]
        risk = float(prob @ (1.0 - h_at))
        good = rb.lower_raw - 1e-6 <= risk <= rb.upper_raw + 1e-6
        ok = ok and good
        detail.append(f"{rb.lower_raw:.4f}<={risk:.4f}<={rb.upper_raw:.4f}")
    report(3, ok, "LP-certified bounds sandwich the enumerated risk on 10 "
                  "finite distributions")


def test_criterion_04_rule_validity():
    rng = np.random.default_rng(77)
    sums_ok = range_ok = cap_ok = dom_ok = True
    evaluations = 0
    for trial in range(20):
        K = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        if trial % 2 == 0:
            spec = features.identity_spec(K, d)
        else:
            spec = features.rff_spec(K, d, D=int(rng.integers(2, 6)),
                                     seed=trial)
        anchor = rng.normal(size=(60, d))
        m = features.feature_dim(spec)
        mu = rng.normal(size=m) * 10.0 ** rng.integers(-2, 2)
        phi_star = objective.phi(mu, anchor, spec)
        model = classifier.MrcModel(
            mu_star=mu, phi_star=phi_star, raw_bounds={"upper": 1.0, "lower": 0.0},
            uncertainty=estimate.UncertaintySet(np.zeros(m), np.zeros(m)),
            feature_spec=spec, normalization=None, instance_anchor=anchor,
            label_names=tuple(map(str, range(1, K + 1))))
        X = anchor[rng.integers(0, anchor.shape[0], size=500)]
        evaluations += X.shape[0]
        h = classifier.predict_proba(model, X)
        c = rule_normalizer(model, X)
        labels = classifier.predict(model, X)
        h_det = np.zeros_like(h)
        h_det[np.arange(len(labels)), labels - 1] = 1.0
        sums_ok &= bool(np.all(np.abs(h.sum(axis=1) - 1.0) <= 1e-12))
        range_ok &= bool(np.all(h >= 0.0) and np.all(h <= 1.0))
        cap_ok &= bool(np.all(c <= 1.0 + 1e-12))
        dom_ok &= bool(np.all(1.0 - h_det <= 2.0 * (1.0 - h) + 1e-12))
    report(4, sums_ok and range_ok and cap_ok and dom_ok,
           f"rule validity over {evaluations} evaluations: distributions "
           f"sum to 1 ({sums_ok}), entries in [0,1] ({range_ok}), "
           f"normalizer <= 1 ({cap_ok}), deterministic domination ({dom_ok})")


def test_criterion_05_phi_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        K = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        spec = features.identity_spec(K, d)
        X = rng.normal(size=(int(rng.integers(1, 4)), d))
        mu = rng.normal(size=K * d) * 10.0 ** rng.integers(-1, 2)
        fast = objective.phi(mu, X, spec)
        slow = enumerate_phi(mu, X, spec)
        worst = max(worst, abs(fast - slow))
    report(5, worst <= 1e-12,
           f"top-k evaluation equals subset enumeration to {worst:.1e} "
           "(<= 1e-12) on 1000 inputs")


def test_criterion_06_confidence_formulas():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        C = float(rng.uniform(0.1, 5.0))
        F = int(rng.integers(1, 2000))
        K = int(rng.integers(2, 12))
        delta = float(rng.uniform(1e-4, 0.99))
        n = int(rng.integers(2, 10 ** 6))
        var = rng.uniform(0.0, 4.0, size=6)
        lam0 = float(rng.uniform(0.0, 2.0))
        R = float(rng.uniform(0.1, 10.0))
        counts = rng.multinomial(n, np.ones(K) / K)
        block_of = np.repeat(np.arange(1, K + 1), 2)

        got = estimate.lambda_hoeffding(C, F, K, delta, n)
        want = C * math.sqrt(2.0 * math.log(2.0 * F * K / delta) / n)
        worst = max(worst, abs(got - want))

        got = estimate.lambda_bernstein(C, F, K, delta, n, var)
        want = np.array([
            2.0 * C * math.sqrt(2.0 * v * math.log(4.0 * F * K / delta) / n)
            + 14.0 * C * math.log(4.0 * F * K / delta) / (3.0 * (n - 1))
            for v in var])
        worst = max(worst, float(np.abs(got - want).max()))

        got = estimate.lambda_rademacher(C, R, delta, n, counts, block_of)
        want = np.array([
            2.0 * math.sqrt(counts[j - 1] / n) * R / math.sqrt(n)
            + C * (1.0 + 2.0 * math.sqrt(counts[j - 1] / n))
            * math.sqrt(math.log(4.0 * K / delta) / (2.0 * n))
            for j in block_of])
        worst = max(worst, float(np.abs(got - want).max()))

        got = estimate.lambda_practical(lam0, var, n)
        want = np.array([lam0 * math.sqrt(v / n) for v in var])
        worst = max(worst, float(np.abs(got - want).max()))
    report(6, worst <= 1e-12,
           f"confidence-vector formulas match scripted evaluations to "
           f"{worst:.1e} (<= 1e-12) on 100 tuples")


def test_criterion_07_periteration_speedup():
    n, d, D, K = 1667, 4, 250, 2
    ds = make_blobs(n, d=d, num_classes=K, seed=0)
    X = ds.instances
    X = (X - X.mean(0)) / np.where(X.std(0) > 0, X.std(0), 1)
    spec = features.rff_spec(K, d, D=D, seed=0)
    tau, var = estimate.tau_and_variance_from_scalars(
        features.scalar_feature_matrix(spec, X), ds.labels, K)
    unc = estimate.UncertaintySet(tau, estimate.lambda_practical(0.3, var, n))
    problem = objective.build_learning_problem(unc, X, spec)
    assert problem.num_rows >= 5000 and problem.dimension >= 1000
    iters = 1500
    asm = solve(problem, SolverConfig(method="asm", max_iters=iters))
    easm = solve(problem, SolverConfig(method="easm", max_iters=iters))
    t_asm = asm.timings["loop_seconds"] / iters
    t_easm = easm.timings["loop_seconds"] / iters
    gamma = easm.sparsity_gamma
    ok = gamma < 0.1 and t_easm <= 0.5 * t_asm
    report(7, ok,
           f"E-ASM {t_easm * 1e6:.0f} us/iter vs ASM {t_asm * 1e6:.0f} us/iter "
           f"(ratio {t_easm / t_asm:.2f} <= 0.5) at gamma {gamma:.4f} on "
           f"p={problem.num_rows}, m={problem.dimension}")


def test_criterion_08_reduced_set_convergence(tmp_path):
    train = make_blobs(500, d=3, num_classes=2, seed=42, sep=2.5)
    pool = make_blobs(10_000, d=3, num_classes=2, seed=43, sep=2.5)
    train_path = tmp_path / "train.csv"
    pool_path = tmp_path / "pool.csv"
    save_csv(train, train_path)
    save_csv(pool, pool_path)
    out = tmp_path / "out"
    code = cli_main([
        "reduce-study", "--data", str(train_path), "--out", str(out),
        "--anchor", f"file:{pool_path}", "--features", "identity",
        "--solver", "asm", "--max-iters", "30000",
        "--sizes", "100,500,1000,2000", "--reps", "10", "--seed", "7"])
    assert code == 0
    with open(out / "reduce_study.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    by_s = collections.defaultdict(list)
    for r in rows:
        by_s[int(r[0])].append(float(r[4]))
    meds = [float(np.median(by_s[s])) for s in (100, 500, 1000, 2000)]
    monotone = all(a >= b - 1e-12 for a, b in zip(meds, meds[1:]))
    ok = monotone and meds[-1] <= 0.02
    report(8, ok,
           "median |upper_s - upper_full| over 10 reps: "
           + ", ".join(f"s={s}: {m:.4f}" for s, m in
                       zip((100, 500, 1000, 2000), meds))
           + " (non-increasing, final <= 0.02)")


@pytest.mark.parametrize("name,target,tol", [
    ("haberman", 0.25, 0.04),
    ("mammographic", 0.18, 0.04),
])
def test_criterion_09_table_reproduction(name, target, tol, tmp_path):
    path = os.path.join(DATA_DIR, f"{name}.csv")
    if not os.path.exists(path):
        print(f"\nACCEPTANCE  9 SKIP - {name}: user-supplied UCI file "
              f"{path} not present (see README for preparation)")
        pytest.skip(f"user-supplied UCI file {path} not present")
    out = tmp_path / name
    code = cli_main([
        "model-select", "--data", path, "--out", str(out),
        "--splits", "20", "--test-fraction", "0.2", "--D", "500",
        "--lambda0", "0.3", "--solver", "easm-restart",
        "--max-iters", "200000", "--restart-period", "10000", "--seed", "0"])
    assert code == 0
    import json
    rep = json.loads((out / "model_select.json").read_text())
    err = rep["mean_deterministic_error"]
    ok = abs(err - target) <= tol
    report(9, ok, f"{name} deterministic test error {err:.3f} within "
                  f"{target} +/- {tol}")


def test_criterion_10_coverage_monte_carlo():
    rng = np.random.default_rng(2024)
    support = rng.normal(size=(10, 2)) * 1.5
    labels = rng.integers(1, 3, size=10)
    w = rng.exponential(size=10)
    prob = w / w.sum()
    spec = features.identity_spec(2, 2)
    tau_inf = np.zeros(4)
    for x, y, p in zip(support, labels, prob):
        tau_inf += p * features.feature_map(spec, x, y)
    C = float(np.abs(support).max())
    n, delta, trials = 100, 0.05, 200
    lam = estimate.lambda_hoeffding(C, features.block_dim(spec), 2, delta, n)
    hits = 0
    for _ in range(trials):
        idx = rng.choice(10, size=n, p=prob)
        tau_hat, _ = estimate.tau_and_variance_from_scalars(
            features.scalar_feature_matrix(spec, support[idx]), labels[idx], 2,
            want_variance=False)
        hits += bool(np.all(np.abs(tau_inf - tau_hat) <= lam))
    rate = hits / trials
    report(10, rate >= 0.90,
           f"Hoeffding confidence vector at delta=0.05 covered the "
           f"estimation error in {rate:.1%} of {trials} resamples (>= 90%)")
