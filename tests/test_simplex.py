import numpy as np
import pytest

from mrckit.simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, _distinct,
                            solve_standard_form)
from mrckit.solver import SolverConfig, solve

from conftest import exact_lp_rule_problems


def test_basic_lp():
    # max x1 + 2 x2 s.t. x1 + x2 <= 4, x2 <= 2  ->  min with slacks
    A = np.array([[1.0, 1.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 1.0]])
    b = np.array([4.0, 2.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    res = solve_standard_form(c, A, b)
    assert res.status == OPTIMAL
    assert abs(res.value - (-6.0)) < 1e-9
    assert np.allclose(res.x[:2], [2.0, 2.0], atol=1e-9)


def test_warm_basis_skips_phase_one():
    A = np.array([[1.0, 1.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 1.0]])
    b = np.array([4.0, 2.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    res = solve_standard_form(c, A, b, basis=[2, 3])
    assert res.status == OPTIMAL and abs(res.value + 6.0) < 1e-9


def test_infeasible_detected():
    # x1 = -1 with x1 >= 0
    A = np.array([[1.0]])
    b = np.array([-1.0])
    c = np.array([1.0])
    res = solve_standard_form(c, A, b)
    assert res.status == INFEASIBLE


def test_unbounded_detected():
    # min -x1 s.t. x1 - x2 = 0 (both can grow)
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    c = np.array([-1.0, 0.0])
    res = solve_standard_form(c, A, b)
    assert res.status == UNBOUNDED


def test_degenerate_beale_terminates():
    # Beale's cycling example; Bland's rule must terminate
    A = np.array([
        [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    res = solve_standard_form(c, A, b, basis=[4, 5, 6])
    assert res.status == OPTIMAL
    assert abs(res.value - (-0.77)) < 1e-9  # vertex-enumeration optimum


def test_redundant_rows_dropped():
    # second row duplicates the first
    A = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    b = np.array([2.0, 2.0, 0.0])
    c = np.array([1.0, 0.0])
    res = solve_standard_form(c, A, b)
    assert res.status == OPTIMAL
    assert abs(res.value - 1.0) < 1e-9
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-9)


def test_random_lps_against_vertex_enumeration(rng):
    # small LPs with box rows: compare against brute-force over basic sets
    from itertools import combinations
    for trial in range(25):
        m, n = 3, 5
        A = rng.normal(size=(m, n))
        x_feas = np.abs(rng.normal(size=n))
        b = A @ x_feas  # feasible by construction
        c = rng.normal(size=n)
        res = solve_standard_form(c, A, b)
        best = np.inf
        for cols in combinations(range(n), m):
            sub = A[:, cols]
            if abs(np.linalg.det(sub)) < 1e-10:
                continue
            x = np.linalg.solve(sub, b)
            if np.all(x >= -1e-9):
                full = np.zeros(n)
                full[list(cols)] = x
                best = min(best, c @ full)
        if res.status == OPTIMAL:
            assert res.value <= best + 1e-7
            assert np.all(res.x >= -1e-9)
            assert np.allclose(A @ res.x, b, atol=1e-7)
        else:
            assert res.status == UNBOUNDED
            # verify a descent ray exists: LP dual infeasible; accept status


def test_singular_warm_basis_falls_back_to_phase_one():
    # columns 0 and 1 are parallel, so the supplied basis is singular
    A = np.array([[1.0, 2.0, 1.0, 0.0],
                  [1.0, 2.0, 0.0, 1.0]])
    b = np.array([3.0, 4.0])
    c = np.array([1.0, 1.0, 1.0, 1.0])
    res = solve_standard_form(c, A, b, basis=[0, 1])
    assert res.status == OPTIMAL
    assert abs(res.value - 2.5) < 1e-9  # x1 = 1.5, x3 = 1
    assert np.allclose(A @ res.x, b, atol=1e-9)
    # column 2 is 0.1 col0 + 0.9 col1 in floating point: inverting this
    # basis does not raise, but the inverse is wrong. With b = 0 every basis
    # looks feasible, so only the inverse check drops it, and the solve then
    # takes the cold start's path.
    v, w = np.array([0.1, 0.7, 0.3]), np.array([0.2, 0.5, 0.9])
    A = np.column_stack([v, w, 0.1 * v + 0.9 * w, np.eye(3)])
    b = np.zeros(3)
    c = np.array([-1.0, 1.0, 1.0, 5.0, 5.0, 5.0])
    cold = solve_standard_form(c, A, b)
    warm = solve_standard_form(c, A, b, basis=[0, 1, 2])
    assert warm.status == cold.status == OPTIMAL
    assert warm.pivots == cold.pivots
    assert np.array_equal(warm.x, cold.x)


@pytest.mark.parametrize("basis", [[2, 2], [2, 4]],
                         ids=["repeated-column", "two-units-on-a-row"])
def test_repeated_warm_basis_falls_back_to_phase_one(basis):
    # columns 2 and 4 are the unit columns e_1 and -e_1 of the same row
    A = np.array([[1.0, 1.0, 1.0, 0.0, -1.0],
                  [0.0, 1.0, 0.0, 1.0, 0.0]])
    b = np.array([4.0, 2.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0, 1.0])
    cold = solve_standard_form(c, A, b)
    warm = solve_standard_form(c, A, b, basis=basis)
    assert warm.status == cold.status == OPTIMAL
    assert abs(warm.value + 6.0) < 1e-9
    assert warm.pivots == cold.pivots
    assert np.array_equal(warm.x, cold.x)


def test_distinct_agrees_with_unique(rng):
    for size in (0, 1, 2, 5, 40):
        for _ in range(20):
            a = rng.integers(0, 2 * size + 1, size=size)
            assert _distinct(a) == (np.unique(a).size == a.size)


def test_basis_is_returned_in_column_indices():
    A = np.array([[1.0, 1.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 1.0]])
    b = np.array([4.0, 2.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    res = solve_standard_form(c, A, b)
    assert sorted(res.basis.tolist()) == [0, 1]
    again = solve_standard_form(c, A, b, basis=res.basis)
    assert again.pivots == 0 and abs(again.value + 6.0) < 1e-9


# The deterministic-rule bound LPs of the benchmark's `exact-lp` training sets
# on which the dense simplex with a p x p inverse exhausted its pivot budget or
# met a singular basis (seed 2, sets 4, 6, 7), and the one that took it 10,349
# pivots (seed 1, set 3). Each LP has p = 200 rows and 442 columns; with the
# right-hand side perturbed they take 134 to 500 pivots.
DEGENERATE_SETS = [(1, 3), (2, 4), (2, 6), (2, 7)]
RULE_LP_PIVOT_BOUND = 1000


@pytest.mark.parametrize("seed,dataset", DEGENERATE_SETS)
def test_degenerate_rule_lps_solve_within_pivot_bound(seed, dataset):
    for problem in exact_lp_rule_problems(seed, dataset):
        run = solve(problem, SolverConfig(method="lp"))
        assert run.status == "optimal"
        assert run.iterations_done <= RULE_LP_PIVOT_BOUND
        # the LP optimum is the objective at the returned mu
        assert abs(run.best_value - problem.objective(run.best_mu)) < 1e-9
