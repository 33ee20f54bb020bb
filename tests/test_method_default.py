"""Without a method, solver.solve picks one the problem can take."""

import dataclasses

from mrckit import classifier, features
from mrckit.solver import SolverConfig, solve
from conftest import make_blobs, random_learning_problem


def test_default_method_follows_the_objective():
    assert SolverConfig().method is None
    problem, *_ = random_learning_problem(3)
    cfg = SolverConfig(max_iters=50)
    assert solve(problem, cfg).method == "easm_restart"
    averaged = dataclasses.replace(problem, average=True)
    assert solve(averaged, cfg).method == "asm"


def test_fixed_marginal_trains_with_the_default_method():
    # E-ASM and the LP need a max over rows; the averaged objective gets ASM
    ds = make_blobs(30, d=2, seed=3)
    spec = features.identity_spec(2, 2)
    model = classifier.train(ds, spec, variant="fixed_marginal",
                             solver_config=SolverConfig(max_iters=300))
    assert model.solver_info["method"] == "asm"
    assert model.lower_bound is None
    standard = classifier.train(ds, spec, solver_config=SolverConfig(max_iters=300))
    assert standard.solver_info["method"] == "easm_restart"
