import csv
import math

import numpy as np
import pytest

from mrckit import classifier, estimate, features, objective
from mrckit.classifier import (MrcModel, epsilon_s, evaluate, high_confidence_bounds,
                               load_model, predict, predict_proba, rule_bounds,
                               save_model, train)
from mrckit.cli import main
from mrckit.dataset import Dataset, save_csv
from mrckit.solver import SolverConfig, solve
from conftest import exact_risk_finite, finite_distribution, make_blobs, rule_normalizer

LP = SolverConfig(method="lp")


def toy_model(mu, phi_star, num_classes, d=1, anchor=None, variant="standard"):
    """Hand-built model over identity features (no normalization)."""
    spec = features.identity_spec(num_classes, d)
    m = num_classes * d
    if anchor is None:
        anchor = np.ones((1, d))
    return MrcModel(
        mu_star=np.asarray(mu, dtype=float), phi_star=phi_star,
        minimax_risk=0.5, lower_bound=0.0,
        uncertainty=estimate.UncertaintySet(np.zeros(m), np.zeros(m)),
        feature_spec=spec, normalization=None,
        instance_anchor=np.atleast_2d(anchor),
        label_names=tuple(str(i + 1) for i in range(num_classes)),
        variant=variant, mu_lower=np.zeros(m),
    )


def test_train_small_binary_lp():
    ds = make_blobs(30, d=2, seed=0)
    spec = features.identity_spec(2, 2)
    model = train(ds, spec, solver_config=LP)
    assert 0.0 <= model.lower_bound <= model.minimax_risk <= 0.5 + 1e-12
    assert model.solver_info["upper_certificate"] == "lp"
    assert model.phi_star is not None


def test_train_leaves_caller_spec_unchanged():
    ds = make_blobs(30, d=2, seed=0)
    spec = features.identity_spec(2, 2)
    model = train(ds, spec, solver_config=LP)
    assert spec == features.identity_spec(2, 2)
    assert model.feature_spec == spec


def test_huge_lambda_forces_uniform():
    ds = make_blobs(40, d=2, seed=1)
    spec = features.identity_spec(2, 2)
    model = train(ds, spec, lambda0=1e3, solver_config=LP)
    assert abs(model.minimax_risk - 0.5) < 1e-9
    assert np.all(np.abs(model.mu_star) < 1e-6)


def test_point_mass_training_zero_risk():
    # two copies of one sample: tau is achievable exactly, lambda = 0
    X = np.array([[1.0, -1.0], [1.0, -1.0]])
    ds = Dataset(X, np.array([1, 1, ]), ("a", "b"))
    spec = features.identity_spec(2, 2)
    model = train(ds, spec, lambda0=0.0, solver_config=LP, normalize=False)
    assert abs(model.minimax_risk) < 1e-9
    assert abs(model.lower_bound) < 1e-9


def test_separable_blobs_regression_value():
    ds = make_blobs(200, d=3, seed=5, sep=4.0)
    spec = features.rff_spec(2, 3, D=50, seed=0)
    cfg = SolverConfig(method="easm_restart", max_iters=20_000,
                       restart_period=2_000)
    model = train(ds, spec, solver_config=cfg)
    assert model.minimax_risk < 0.2
    assert model.lower_bound <= model.minimax_risk + 1e-9


def test_predict_proba_uniform_at_zero():
    model = toy_model([0.0, 0.0, 0.0], phi_star=-1.0 / 3.0, num_classes=3)
    h = predict_proba(model, np.array([[2.0]]))
    assert np.allclose(h, 1.0 / 3.0)


def test_predict_proba_hand_example():
    # scores (0.9, 0.1) with phi* = 0.1: raw (0.8, 0) normalizes to (1, 0)
    model = toy_model([0.9, 0.1], phi_star=0.1, num_classes=2)
    h = predict_proba(model, np.array([[1.0]]))
    assert np.allclose(h, [[1.0, 0.0]])
    c = rule_normalizer(model, np.array([[1.0]]))
    assert abs(c[0] - 0.8) < 1e-15


def test_rule_normalizer_capped_on_anchor(rng):
    for seed in range(10):
        r = np.random.default_rng(seed)
        anchor = r.normal(size=(20, 2))
        mu = r.normal(size=6)
        spec = features.identity_spec(3, 2)
        model = toy_model(mu, objective.phi(mu, anchor, spec), 3, d=2,
                          anchor=anchor)
        c = rule_normalizer(model, anchor)
        assert np.all(c <= 1.0 + 1e-12)
        h = predict_proba(model, anchor)
        assert np.all(h >= 0) and np.all(h <= 1)
        assert np.allclose(h.sum(axis=1), 1.0, atol=1e-12)


def test_predict_ties_and_argmax():
    model = toy_model([0.0, 0.0], phi_star=-0.5, num_classes=2)
    assert predict(model, np.array([[3.0]]))[0] == 1  # all-tie: smallest label
    model = toy_model([0.2, 0.7], phi_star=0.0, num_classes=2)
    assert predict(model, np.array([[1.0]]))[0] == 2


def test_deterministic_domination(rng):
    for seed in range(10):
        r = np.random.default_rng(100 + seed)
        anchor = r.normal(size=(15, 2))
        mu = r.normal(size=4)
        spec = features.identity_spec(2, 2)
        model = toy_model(mu, objective.phi(mu, anchor, spec), 2, d=2,
                          anchor=anchor)
        X = np.vstack([anchor, r.normal(size=(10, 2))])
        h = predict_proba(model, X)
        labels = predict(model, X)
        h_det = np.zeros_like(h)
        h_det[np.arange(len(labels)), labels - 1] = 1.0
        assert np.all(1.0 - h_det <= 2.0 * (1.0 - h) + 1e-12)


def test_fixed_marginal_rule():
    model = toy_model([0.0, 0.0], phi_star=None, num_classes=2,
                      variant="fixed_marginal")
    h = predict_proba(model, np.array([[1.0]]))
    assert np.allclose(h, 0.5)
    # scores (0.6, 0.2): phi_x = max(-0.4, -0.8, -0.1) = -0.1 -> (0.7, 0.3)
    model = toy_model([0.6, 0.2], phi_star=None, num_classes=2,
                      variant="fixed_marginal")
    h = predict_proba(model, np.array([[1.0]]))
    assert np.allclose(h, [[0.7, 0.3]], atol=1e-15)


def test_fixed_marginal_sums_to_one(rng):
    spec = features.identity_spec(3, 2)
    for seed in range(10):
        r = np.random.default_rng(seed)
        mu = r.normal(size=6)
        model = toy_model(mu, phi_star=None, num_classes=3, d=2,
                          variant="fixed_marginal")
        h = predict_proba(model, r.normal(size=(25, 2)))
        assert np.allclose(h.sum(axis=1), 1.0, atol=1e-9)


def test_fixed_marginal_training():
    ds = make_blobs(40, d=2, seed=3)
    spec = features.identity_spec(2, 2)
    cfg = SolverConfig(method="asm", max_iters=3000)
    model = train(ds, spec, variant="fixed_marginal", solver_config=cfg)
    assert model.variant == "fixed_marginal"
    assert model.lower_bound is None
    h = predict_proba(model, ds.instances)
    assert np.allclose(h.sum(axis=1), 1.0, atol=1e-9)


def test_evaluate_perfect_and_uniform():
    ds = make_blobs(20, d=1, seed=2)
    uniform = toy_model([0.0, 0.0], phi_star=-0.5, num_classes=2)
    metrics = evaluate(uniform, ds)
    assert metrics["randomized_risk"] == pytest.approx(0.5, abs=1e-15)
    # a model that scores the right class higher everywhere
    X = np.array([[-2.0], [-1.5], [1.5], [2.0]])
    ds2 = Dataset(X, np.array([1, 1, 2, 2]), ("a", "b"))
    sep = toy_model([-1.0, 1.0], phi_star=0.0, num_classes=2)
    metrics = evaluate(sep, ds2)
    assert metrics["deterministic_error"] == 0.0
    assert metrics["deterministic_error"] <= 2 * metrics["randomized_risk"] + 1e-12


def test_bounds_for_rule_uniform_large_lambda():
    ds = make_blobs(20, d=2, seed=4)
    spec = features.identity_spec(2, 2)
    X = ds.instances
    psi = features.scalar_feature_matrix(spec, X)
    tau, var = estimate.tau_and_variance_from_scalars(psi, ds.labels, 2)
    unc = estimate.UncertaintySet(tau, np.full(4, 1e3))
    h = np.full((20, 2), 0.5)
    rb = rule_bounds(unc, psi, h, LP)
    assert abs(rb.lower_raw - 0.5) < 1e-9
    assert abs(rb.upper_raw - 0.5) < 1e-9


def test_train_maps_anchor_once(monkeypatch, mapped_rows):
    # the estimate's scalar features serve the learning and lower problems;
    # phi* and the rule are read off the learning problem's scores
    ds = make_blobs(20, d=2, seed=4)
    spec = features.rff_spec(2, 2, D=5, seed=1)
    model = train(ds, spec, solver_config=LP)
    assert mapped_rows == [20]
    monkeypatch.undo()
    Xn = model.instance_anchor
    assert model.phi_star == objective.phi(model.mu_star, Xn, spec)
    psi = features.scalar_feature_matrix(spec, Xn)
    rule = classifier.rule_from_scores(model, psi @ model.mu_star.reshape(2, -1).T)[1]
    low = objective.lower_from_upper(
        objective.build_upper_bound_problem(model.uncertainty, psi, rule))
    assert low.reported_value(solve(low, LP).best_value) == model.raw_bounds["lower"]


def test_train_maps_training_set_and_anchor_once_each(mapped_rows):
    ds = make_blobs(20, d=2, seed=4)
    spec = features.rff_spec(2, 2, D=5, seed=1)
    anchor = make_blobs(7, d=2, seed=5).instances
    for repair in ("auto", "always"):
        mapped_rows.clear()
        train(ds, spec, solver_config=LP, anchor=anchor, repair=repair)
        assert mapped_rows == [20, 7]


def test_repair_adds_no_mapping(mapped_rows):
    # the up-front repair and the auto-repair retry reuse the anchor's psi
    X = np.array([[2.0, 0.0], [2.5, 0.5], [-2.0, 0.0], [-2.5, -0.5]])
    ds = Dataset(X, np.array([1, 1, 2, 2]), ("a", "b"))
    spec = features.identity_spec(2, 2)
    for repair in ("auto", "always"):
        mapped_rows.clear()
        model = train(ds, spec, lambda0=0.0, solver_config=LP, anchor=np.zeros((2, 2)),
                      normalize=False, repair=repair)
        assert model.uncertainty.provenance["repaired"] is True
        assert mapped_rows == [4, 2]


def test_upper_bound_of_learned_rule_matches_training(rng):
    # solving the generic upper-bound problem at h = learned rule must
    # reproduce the learning optimum (two solve paths, one number)
    ds = make_blobs(25, d=2, seed=6)
    spec = features.identity_spec(2, 2)
    model = train(ds, spec, solver_config=LP)
    Xn = model.instance_anchor
    h = classifier.rule_from_scores(
        model, features.score_matrix(model.feature_spec, Xn, model.mu_star))[1]
    psi = features.scalar_feature_matrix(model.feature_spec, Xn)
    rb = rule_bounds(model.uncertainty, psi, h, LP)
    assert abs(rb.upper_raw - model.raw_bounds["upper"]) < 1e-8
    assert rb.lower_raw <= rb.upper_raw + 1e-9


def test_minimax_risk_monotone_in_lambda():
    ds = make_blobs(25, d=2, seed=7)
    spec = features.identity_spec(2, 2)
    prev = None
    for lam0 in (0.0, 0.2, 0.5, 1.0, 3.0):
        model = train(ds, spec, lambda0=lam0, solver_config=LP)
        if prev is not None:
            assert model.minimax_risk >= prev - 1e-6
        prev = model.minimax_risk


def test_high_confidence_bounds():
    ds = make_blobs(30, d=2, seed=8)
    spec = features.identity_spec(2, 2)
    model = train(ds, spec, solver_config=LP)
    lam = model.uncertainty.lam
    same = high_confidence_bounds(model, lam)
    assert same.upper == pytest.approx(model.minimax_risk, abs=1e-15)
    assert same.lower == pytest.approx(model.lower_bound, abs=1e-15)
    widened = high_confidence_bounds(model, lam + 0.1)
    assert widened.upper_raw == pytest.approx(
        model.minimax_risk + 0.1 * np.abs(model.mu_star).sum(), abs=1e-12)
    assert widened.lower_raw <= same.lower_raw + 1e-15
    wider = high_confidence_bounds(model, lam + 0.2)
    assert wider.upper_raw >= widened.upper_raw - 1e-15
    with pytest.raises(ValueError, match="dominate"):
        high_confidence_bounds(model, lam - 1e-3)


@pytest.mark.parametrize("width", [math.nan, math.inf])
def test_high_confidence_bounds_refuses_a_non_finite_width(width):
    ds = make_blobs(30, d=2, seed=8)
    model = train(ds, features.identity_spec(2, 2), solver_config=LP)
    with pytest.raises(ValueError, match="finite"):
        high_confidence_bounds(model, model.uncertainty.lam + width)


def test_exact_risk_finite():
    model = toy_model([0.9, 0.1], phi_star=0.1, num_classes=2)
    # rule puts mass 1 on label 1 at x = 1
    risk = exact_risk_finite(model, [[1.0]], [1], [1.0])
    assert risk == pytest.approx(0.0, abs=1e-15)
    uniform = toy_model([0.0, 0.0], phi_star=-0.5, num_classes=2)
    X, px, py, prob = finite_distribution(0, support_size=6)
    risk = exact_risk_finite(uniform, X[px][:, :1], py, prob)
    assert risk == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        exact_risk_finite(model, [[1.0]], [1], [0.7])


def test_exact_risk_matches_evaluate():
    ds = make_blobs(16, d=2, seed=10)
    spec = features.identity_spec(2, 2)
    model = train(ds, spec, solver_config=LP)
    metrics = evaluate(model, ds)
    prob = np.full(ds.n, 1.0 / ds.n)
    risk = exact_risk_finite(model, ds.instances, ds.labels, prob)
    assert risk == pytest.approx(metrics["randomized_risk"], abs=1e-12)


def test_epsilon_s():
    val = epsilon_s(1, m=4, num_classes=2, delta=0.1)
    assert val == pytest.approx(12 * math.sqrt(4 + math.log(2 / 0.1)), abs=1e-12)
    assert val > 1.0  # vacuous at tiny s
    grid = [epsilon_s(s, 4, 2, 0.1) for s in (10 ** 4, 10 ** 6, 10 ** 8)]
    assert grid[0] > grid[1] > grid[2]
    assert grid[2] < 0.05


def test_bound_sandwich_small():
    # exact-coverage regime: tau perturbed by known e, lambda = 2|e|
    rng = np.random.default_rng(11)
    X, px, py, prob = finite_distribution(3, support_size=12, num_classes=2)
    spec = features.identity_spec(2, 2)
    tau_inf = np.zeros(4)
    for i, (ix, y) in enumerate(zip(px, py)):
        tau_inf += prob[i] * features.feature_map(spec, X[ix], y)
    e = rng.normal(size=4) * 0.05
    unc = estimate.UncertaintySet(tau_inf + e, 2.0 * np.abs(e))
    problem = objective.build_learning_problem(unc, X, spec)
    from mrckit.solver import solve
    run = solve(problem, LP)
    phi_star = objective.phi(run.best_mu, X, spec)
    model = toy_model(run.best_mu, phi_star, 2, d=2, anchor=X)
    model.uncertainty = unc
    h = classifier.rule_from_scores(model, features.score_matrix(spec, X, run.best_mu))[1]
    rb = rule_bounds(unc, features.scalar_feature_matrix(spec, X), h, LP)
    risk = exact_risk_finite(model, X[px], py, prob)
    assert rb.lower_raw - 1e-9 <= risk <= rb.upper_raw + 1e-9
    assert abs(rb.upper_raw - run.best_value) < 1e-8


def test_model_round_trip(tmp_path):
    ds = make_blobs(30, d=2, seed=12)
    spec = features.rff_spec(2, 2, D=8, seed=3)
    cfg = SolverConfig(method="easm", max_iters=2000)
    model = train(ds, spec, solver_config=cfg)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    Xq = np.random.default_rng(0).normal(size=(40, 2))
    assert np.array_equal(predict(model, Xq), predict(back, Xq))
    assert np.array_equal(predict_proba(model, Xq), predict_proba(back, Xq))
    assert back.minimax_risk == model.minimax_risk
    assert back.lower_bound == model.lower_bound
    # a second save is byte-identical
    path2 = tmp_path / "model2.json"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_train_repairs_infeasible_anchor(caplog):
    # anchor pool that cannot reproduce tau: repair must kick in
    X = np.array([[2.0, 0.0], [2.5, 0.5], [-2.0, 0.0], [-2.5, -0.5]])
    ds = Dataset(X, np.array([1, 1, 2, 2]), ("a", "b"))
    spec = features.identity_spec(2, 2)
    anchor = np.zeros((2, 2))  # all-zero instances: achievable E{Phi} = 0 only
    model = train(ds, spec, lambda0=0.0, solver_config=LP, anchor=anchor,
                  normalize=False, repair="auto")
    assert model.uncertainty.provenance.get("repaired") is True
    assert model.solver_info["notices"]
    assert 0.0 <= model.minimax_risk <= 1.0
    with pytest.raises(Exception):
        train(ds, spec, lambda0=0.0, solver_config=LP, anchor=anchor,
              normalize=False, repair="never")


def test_rff_default_spec_from_data():
    ds = make_blobs(20, d=3, seed=13)
    cfg = SolverConfig(method="easm", max_iters=500)
    model = train(ds, None, solver_config=cfg)
    assert model.feature_spec.kind == features.KIND_RFF
    assert model.feature_spec.D == 500
    assert model.feature_spec.sigma == pytest.approx(math.sqrt(1.5))


@pytest.mark.parametrize("cfg", [LP, SolverConfig(max_iters=2000)], ids=["lp", "default"])
def test_train_with_an_absent_class(tmp_path, cfg):
    # a training split can lack a label (a small class in a fold or a split):
    # the model still has a score and a probability column for it
    ds = make_blobs(90, d=2, num_classes=3, seed=0)
    model = train(ds.subset(np.flatnonzero(ds.labels != 3)),
                  features.rff_spec(3, 2, D=10, seed=0), solver_config=cfg)
    assert 0.0 <= model.lower_bound <= model.minimax_risk <= 1.0
    assert model.label_names == ("1", "2", "3")
    path, again = tmp_path / "model.json", tmp_path / "again.json"
    save_model(model, path)
    save_model(load_model(path), again)
    assert path.read_bytes() == again.read_bytes()
    data = tmp_path / "all.csv"
    save_csv(ds, data)
    assert main(["predict", "--model", str(path), "--data", str(data), "--proba",
                 "--out", str(tmp_path / "pred")]) == 0
    with open(tmp_path / "pred" / "predictions.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "p_1", "p_2", "p_3"]
    proba = np.array(rows[1:])[:, 1:].astype(float)
    assert proba.shape == (90, 3) and np.allclose(proba.sum(axis=1), 1.0)
