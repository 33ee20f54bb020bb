"""An uncertainty set that is empty on the instance pool ends the run: a
value below a built problem's floor, or a lower bound above the upper
bound, proves it empty (see objective's docstring)."""

import json
import os
import re

import numpy as np
import pytest

from mrckit import classifier, estimate, features, objective
from mrckit.cli import main
from mrckit.dataset import Dataset, save_csv
from mrckit.solver import (DIVERGENCE_FLOOR, DivergenceError, SolverConfig,
                           UnboundedObjectiveError, solve)
from conftest import make_blobs, row_problem


@pytest.fixture
def empty_pool(tmp_path):
    """The blob set of the CLI tests and a pool from other class centres,
    on which the restricted uncertainty set is empty."""
    data = tmp_path / "blobs.csv"
    save_csv(make_blobs(60, d=2, seed=0, sep=3.0), data)
    pool = tmp_path / "pool.csv"
    np.savetxt(pool, make_blobs(20, d=2, seed=5).instances, delimiter=",")
    return str(data), str(pool)


@pytest.mark.parametrize("budget", [["--max-iters", "50"], []])
def test_train_empty_pool_is_repaired_or_refused(empty_pool, tmp_path, capsys, budget):
    data, pool = empty_pool
    args = ["train", "--data", data, "--D", "8", "--anchor", f"file:{pool}", *budget]
    out = tmp_path / "auto"
    assert main([*args, "--out", str(out), "--repair", "auto"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["notices"][0].startswith("repaired after: objective")
    assert 0.0 <= report["raw_bounds"]["lower"] <= report["raw_bounds"]["upper"] <= 1.0
    model = json.loads((out / "model.json").read_text())
    assert model["provenance"]["repaired"] is True
    capsys.readouterr()
    never = tmp_path / "never"
    assert main([*args, "--out", str(never), "--repair", "never"]) == 2
    err = capsys.readouterr().err
    assert "crossed the floor 0" in err and "instance pool is empty" in err
    assert "Traceback" not in err
    assert not os.path.exists(never / "model.json")


def zero_pool_set():
    """Identity features on a pool of zero instances, whose only achievable
    mean is 0, and a tau away from it with no width: an empty set."""
    tau = np.array([0.1, 0.0, -0.1, 0.0])
    return estimate.UncertaintySet(tau, np.zeros(4)), np.zeros((3, 2))


def test_rule_bounds_refuse_lower_above_upper():
    unc, psi = zero_pool_set()
    h = np.full((3, 2), 0.5)
    # a few short steps stay above both floors, while the bounds cross
    cfg = SolverConfig(method="asm", max_iters=3)
    high = objective.build_upper_bound_problem(unc, psi, h)
    low = objective.lower_from_upper(high)
    upper = solve(high, cfg).best_value
    lower = low.reported_value(solve(low, cfg).best_value)
    assert 0.0 < upper < lower < 1.0
    with pytest.raises(UnboundedObjectiveError, match="exceeds upper bound"):
        classifier.rule_bounds(unc, psi, h, cfg)


@pytest.mark.parametrize("budget", [1, 3, 10])
def test_fit_repairs_an_inverted_pair_only_under_auto(budget):
    unc, psi = zero_pool_set()
    spec = features.identity_spec(2, 2)
    # short solves stay above the floors, while the bounds cross
    cfg = SolverConfig(method="asm", max_iters=budget)
    with pytest.raises(UnboundedObjectiveError, match="exceeds upper bound"):
        classifier.fit(unc, np.zeros((3, 2)), psi, spec, cfg, repair="never")
    model = classifier.fit(unc, np.zeros((3, 2)), psi, spec, cfg, repair="auto")
    assert model.solver_info["notices"][0].startswith("repaired after: lower bound")
    assert model.uncertainty.provenance["repaired"] is True
    assert model.raw_bounds["lower"] <= model.raw_bounds["upper"]
    assert set(model.runs) == {"upper", "lower"}


def test_floors_of_the_built_problems():
    unc, psi = zero_pool_set()
    learning = objective.learning_problem(unc, psi, 2)
    high = objective.build_upper_bound_problem(unc, psi, np.full((3, 2), 0.5))
    low = objective.lower_from_upper(high)
    assert (learning.floor, high.floor, low.floor) == (0.0, 0.0, -1.0)
    # a hand-built problem, and its negation, keep the divergence floor
    hand = row_problem(np.zeros(1), np.zeros(1), np.ones((1, 1)), np.zeros(1))
    assert hand.floor is None and objective.lower_from_upper(hand).floor is None
    with pytest.raises(DivergenceError, match="crossed the floor 0"):
        solve(learning, SolverConfig(method="easm", max_iters=10_000))
    with pytest.raises(DivergenceError, match=re.escape(f"floor {DIVERGENCE_FLOOR:.6g};")):
        solve(row_problem(np.array([-1e10]), np.zeros(1), np.zeros((1, 1)),
                          np.zeros(1)), SolverConfig(method="bsm"))


def test_train_empty_pool_under_every_solver():
    X = np.array([[2.0, 0.0], [2.5, 0.5], [-2.0, 0.0], [-2.5, -0.5]])
    ds = Dataset(X, np.array([1, 1, 2, 2]), ("a", "b"))
    spec = features.identity_spec(2, 2)
    for method in ("bsm", "asm", "easm", "easm_restart"):
        cfg = SolverConfig(method=method, max_iters=2000)
        with pytest.raises(DivergenceError, match="floor 0"):
            classifier.train(ds, spec, lambda0=0.0, solver_config=cfg,
                             anchor=np.zeros((2, 2)), normalize=False, repair="never")
        model = classifier.train(ds, spec, lambda0=0.0, solver_config=cfg,
                                 anchor=np.zeros((2, 2)), normalize=False)
        assert model.uncertainty.provenance["repaired"] is True
        assert model.solver_info["notices"]


@pytest.mark.parametrize("repair", ["auto", "always"])
def test_fixed_marginal_repair_keeps_the_pool_marginal(tmp_path, capsys, repair):
    # on this foreign pool the fixed-marginal set is empty; a repair that
    # lets the instance marginal move off uniform still leaves it empty
    data, pool = make_blobs(20, d=2, seed=0), make_blobs(8, d=2, seed=10).instances
    model = classifier.train(data, features.rff_spec(2, 2, D=3, seed=0),
                             variant="fixed_marginal", anchor=pool, normalize=False,
                             solver_config=SolverConfig(method="asm", max_iters=50),
                             repair=repair)
    assert model.uncertainty.provenance["repaired"] is True
    assert len(model.solver_info["notices"]) == 1
    assert 0.0 <= model.minimax_risk <= 0.5
    save_csv(data, tmp_path / "data.csv")
    np.savetxt(tmp_path / "pool.csv", pool, delimiter=",")
    out = tmp_path / "out"
    assert main(["train", "--data", str(tmp_path / "data.csv"), "--D", "3", "--seed", "0",
                 "--variant", "fixed-marginal", "--anchor", f"file:{tmp_path / 'pool.csv'}",
                 "--max-iters", "50", "--repair", repair, "--out", str(out)]) == 0, \
        capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["runs"]["upper"]["method"] == "asm"
    assert 0.0 <= report["upper_bound"] <= 0.5


def test_fixed_marginal_repair_puts_mass_one_over_s_on_each_instance():
    # a scalar feature of 1 and -1 on a pool of two: class 1's mean 0.9 fits
    # a distribution on the pool, but none that puts 1/2 on each instance
    psi = np.array([[1.0], [-1.0]])
    tau, lam = np.array([0.9, 0.0]), np.zeros(2)
    std_tau, std_lam = estimate.ensure_feasible(tau, lam, psi, 2)
    fm_tau, fm_lam = estimate.ensure_feasible(tau, lam, psi, 2, "fixed_marginal")
    assert np.array_equal(std_tau, tau) and np.allclose(std_lam, 0.0)
    assert np.all(np.abs(fm_tau - tau) <= fm_lam + 1e-9)
    assert fm_tau[0] - fm_lam[0] <= 0.5 + 1e-9
    with pytest.raises(ValueError, match="unknown variant"):
        estimate.ensure_feasible(tau, lam, psi, 2, "fixed-marginal")
