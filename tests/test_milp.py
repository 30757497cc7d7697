"""Solver layer: statuses, duals, and the fix-and-relax pricing pass."""

import numpy as np
import pytest

from rampmarket import milp
from rampmarket.milp import (EQ, GE, LE, ModelBuilder, RelaxationInfeasible,
                             fix_and_relax_duals, solve, solve_lp)


def test_min_x_geq_3():
    b = ModelBuilder()
    x = b.add_var()
    b.add_constr([x], [1.0], GE, 3.0)
    b.add_objective_terms([x], [1.0])
    sol = solve(b)
    assert sol.optimal
    assert sol.objective_value == pytest.approx(3.0)


def test_binary_cover():
    b = ModelBuilder()
    x = b.add_binary()
    y = b.add_binary()
    b.add_constr([x, y], [1.0, 1.0], GE, 1.0)
    b.add_objective_terms([x, y], [1.0, 1.0])
    sol = solve(b)
    assert sol.objective_value == pytest.approx(1.0)
    assert np.round(sol.x).sum() == 1


def test_infeasible_status_reported():
    b = ModelBuilder()
    x = b.add_var()
    b.add_constr([x], [1.0], GE, 1.0)
    b.add_constr([x], [1.0], LE, 0.0)
    b.add_objective_terms([x], [1.0])
    assert solve(b).status == "infeasible"


def test_unbounded_status_reported():
    b = ModelBuilder()
    x = b.add_var(lb=-np.inf)
    b.add_objective_terms([x], [1.0])
    assert solve(b).status in ("unbounded", "failed")


def test_equality_dual_is_marginal_cost():
    # min 2p s.t. p = 5 -> dual 2.
    b = ModelBuilder()
    p = b.add_var()
    h = b.add_constr([p], [1.0], EQ, 5.0)
    b.add_objective_terms([p], [2.0])
    sol, duals = solve_lp(b)
    assert sol.objective_value == pytest.approx(10.0)
    assert duals[h] == pytest.approx(2.0)


def test_merit_order_dual():
    # Generators at 10 and 30 $/unit, caps 5 each, demand 7: marginal
    # unit is the expensive one, so the balance dual is 30.
    b = ModelBuilder()
    p1 = b.add_var(ub=5.0)
    p2 = b.add_var(ub=5.0)
    h = b.add_constr([p1, p2], [1.0, 1.0], EQ, 7.0)
    b.add_objective_terms([p1, p2], [10.0, 30.0])
    sol, duals = solve_lp(b)
    assert sol.x[p1] == pytest.approx(5.0)
    assert sol.x[p2] == pytest.approx(2.0)
    assert duals[h] == pytest.approx(30.0)


def test_ge_duals_reported_nonnegative():
    b = ModelBuilder()
    x = b.add_var()
    h = b.add_constr([x], [1.0], GE, 4.0)
    b.add_objective_terms([x], [3.0])
    _, duals = solve_lp(b)
    assert duals[h] == pytest.approx(3.0)


def test_le_duals_reported_nonnegative():
    # max profit written as min of negative: binding <= row has dual 5.
    b = ModelBuilder()
    x = b.add_var()
    h = b.add_constr([x], [1.0], LE, 2.0)
    b.add_objective_terms([x], [-5.0])
    _, duals = solve_lp(b)
    assert duals[h] == pytest.approx(5.0)


def test_slack_constraint_zero_dual():
    b = ModelBuilder()
    x = b.add_var()
    h_tight = b.add_constr([x], [1.0], GE, 1.0)
    h_slack = b.add_constr([x], [1.0], LE, 100.0)
    b.add_objective_terms([x], [1.0])
    _, duals = solve_lp(b)
    assert duals[h_slack] == pytest.approx(0.0)


def test_lp_duality_gap_closes():
    # Random feasible LP: primal objective equals b'y + bound terms from
    # the dual solution; check via duals on all rows.
    rng = np.random.default_rng(0)
    m, n = 8, 6
    a = rng.uniform(0.5, 2.0, size=(m, n))
    bvec = a @ np.abs(rng.normal(size=n)) + 1.0
    c = rng.uniform(1.0, 5.0, size=n)
    b = ModelBuilder()
    xs = b.add_vars(n)
    handles = [b.add_constr(xs, a[i], GE, bvec[i]) for i in range(m)]
    b.add_objective_terms(xs, c)
    sol, duals = solve_lp(b)
    y = np.array([duals[h] for h in handles])
    # Dual feasibility and strong duality for x >= 0 / Ax >= b form.
    assert np.all(a.T @ y <= c + 1e-7)
    assert y @ bvec == pytest.approx(sol.objective_value, rel=1e-5)


def test_fix_and_relax_matches_milp_objective():
    b = ModelBuilder()
    u = b.add_binary()
    p = b.add_var(ub=10.0)
    b.add_constr([p, u], [1.0, -10.0], LE, 0.0)
    h = b.add_constr([p], [1.0], EQ, 6.0)
    b.add_objective_terms([u, p], [5.0, 2.0])
    sol = solve(b)
    lp_sol, duals = fix_and_relax_duals(b, sol)
    assert lp_sol.objective_value == pytest.approx(sol.objective_value)
    assert duals[h] == pytest.approx(2.0)


def test_fix_and_relax_without_binaries_matches_solve_lp():
    b = ModelBuilder()
    p = b.add_var()
    h = b.add_constr([p], [1.0], EQ, 4.0)
    b.add_objective_terms([p], [3.0])
    sol = solve(b)
    _, duals = fix_and_relax_duals(b, sol)
    _, duals_lp = solve_lp(b)
    assert duals[h] == pytest.approx(duals_lp[h])


def test_fix_and_relax_requires_optimal_incumbent():
    b = ModelBuilder()
    x = b.add_var()
    b.add_constr([x], [1.0], GE, 1.0)
    b.add_constr([x], [1.0], LE, 0.0)
    b.add_objective_terms([x], [1.0])
    sol = solve(b)
    with pytest.raises(ValueError):
        fix_and_relax_duals(b, sol)


def test_relaxation_drift_detected():
    b = ModelBuilder()
    x = b.add_var()
    b.add_constr([x], [1.0], GE, 1.0)
    b.add_objective_terms([x], [1.0])
    sol = solve(b)
    fake = milp.Solution(status="optimal", objective_value=999.0, x=sol.x)
    with pytest.raises(RelaxationInfeasible, match="drifted"):
        fix_and_relax_duals(b, fake)


def test_block_constraints_equal_scalar_constraints():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.1, 1.0, size=(4, 3))
    rhs = a @ np.array([1.0, 2.0, 3.0]) - 0.5
    c = rng.uniform(1.0, 2.0, size=3)

    b1 = ModelBuilder()
    xs1 = b1.add_vars(3)
    for i in range(4):
        b1.add_constr(xs1, a[i], GE, rhs[i])
    b1.add_objective_terms(xs1, c)

    b2 = ModelBuilder()
    xs2 = b2.add_vars(3)
    rows = np.repeat(np.arange(4), 3)
    cols = np.tile(xs2, 4)
    b2.add_constr_block(rows, cols, a.ravel(), [GE] * 4, rhs)
    b2.add_objective_terms(xs2, c)

    s1, s2 = solve(b1), solve(b2)
    assert s1.objective_value == pytest.approx(s2.objective_value)
    assert np.allclose(s1.x, s2.x, atol=1e-8)


def test_determinism_same_model_same_solution():
    def build():
        b = ModelBuilder()
        xs = b.add_vars(5, ub=3.0)
        u = b.add_vars(2, 0, 1, integer=True)
        b.add_constr(np.concatenate([xs, u]),
                     np.concatenate([np.ones(5), [2.0, 2.0]]), GE, 9.0)
        b.add_objective_terms(xs, np.arange(1.0, 6.0))
        b.add_objective_terms(u, [4.0, 7.0])
        return b

    s1 = solve(build())
    s2 = solve(build())
    assert s1.objective_value == s2.objective_value
    assert np.array_equal(s1.x, s2.x)


def test_unregistered_variable_rejected():
    b = ModelBuilder()
    b.add_var()
    with pytest.raises(ValueError, match="unregistered"):
        b.add_constr([5], [1.0], GE, 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_direct_lp_matches_linprog_oracle(seed):
    # Random feasible LPs with mixed row senses and box bounds: objective,
    # primal values and duals equal scipy's linprog's (the oracle).
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    m, n = 9, 7
    a = rng.uniform(-1.0, 2.0, size=(m, n))
    x0 = rng.uniform(0.5, 3.0, size=n)
    senses = np.array([LE, GE, EQ])[np.arange(m) % 3]
    rng.shuffle(senses)
    slack = rng.uniform(0.1, 1.0, size=m)
    rhs = a @ x0 + np.select([senses == LE, senses == GE], [slack, -slack], 0.0)
    c = rng.normal(size=n)
    lb = np.where(rng.random(n) < 0.3, -5.0, 0.0)
    ub = np.full(n, 5.0)

    b = ModelBuilder()
    xs = b.add_vars(n, lb=lb, ub=ub)
    for i in range(m):
        b.add_constr(xs, a[i], senses[i], rhs[i])
    b.add_objective_terms(xs, c)
    sol, duals = solve_lp(b)

    le, ge, eq = (senses == s for s in (LE, GE, EQ))
    ref = linprog(c, A_ub=np.vstack([a[le], -a[ge]]),
                  b_ub=np.concatenate([rhs[le], -rhs[ge]]),
                  A_eq=a[eq], b_eq=rhs[eq], bounds=np.column_stack([lb, ub]),
                  method="highs")
    assert ref.status == 0
    ref_duals = np.empty(m)
    # linprog's marginals are d(objective)/d(b_ub) and d(objective)/d(b_eq).
    ref_duals[le] = -ref.ineqlin.marginals[:le.sum()]
    ref_duals[ge] = -ref.ineqlin.marginals[le.sum():]
    ref_duals[eq] = ref.eqlin.marginals
    assert sol.objective_value == pytest.approx(ref.fun, abs=1e-7)
    np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-7)
    np.testing.assert_allclose(duals, ref_duals, rtol=0, atol=1e-7)


def test_with_numbers_keeps_structure_and_checks_sizes():
    b = ModelBuilder()
    x = b.add_var(ub=10.0)
    h = b.add_constr([x], [1.0], GE, 2.0)
    b.add_objective_terms([x], [3.0])
    lp = b.assemble()
    sol, duals = solve_lp(lp.with_numbers(rhs=[4.0]))
    assert sol.x[x] == pytest.approx(4.0)
    assert duals[h] == pytest.approx(3.0)
    sol, _ = solve_lp(lp.with_numbers(lb=[6.0]))
    assert sol.x[x] == pytest.approx(6.0)
    with pytest.raises(ValueError, match="rows"):
        lp.with_numbers(rhs=[1.0, 2.0])
    with pytest.raises(ValueError, match="columns"):
        lp.with_numbers(ub=[1.0, 2.0])
