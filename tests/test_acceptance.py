"""Acceptance gate: one test per release criterion.

Each test is self-contained and states its verdict with a single PASS
line (pytest -v adds the PASSED/FAILED marker).  The detailed module
suites cover the same ground at finer grain; this file is the go/no-go
summary run before shipping.
"""

import time

import numpy as np
import pytest

from rampmarket import milp
from rampmarket.damc import (CI95, NF, PROPOSED, WITHOUT, build_damc,
                             solve_and_price)
from rampmarket.fmm import run_fmm_sequence
from rampmarket.frp import (FrpRequirements, SUC_BASED,
                            compute_frp_requirements)
from rampmarket.instance import (HourlyBidDemand, compute_hourly_bid_demand,
                                 load_instance, save_instance)
from rampmarket.network import compute_isf, line_flows
from rampmarket.pipeline import (RunConfig, run_experiment, solve_suc_stage,
                                 sweep_sample_size)
from rampmarket.scenario import OUT_OF_SAMPLE, sample_scenarios
from rampmarket.suc import build_suc, solve_suc

from conftest import make_dg, make_instance, sinusoid_load
from test_frp import FakeScenarios, FakeSolution, scan_oracle
from test_network import dc_flow_oracle
from test_suc import enumerate_suc

def _case14_path():
    from importlib import resources

    return str(resources.files("rampmarket.data") / "case14.json")


def _passed(n, detail):
    print(f"ACCEPTANCE {n} PASS: {detail}")


# -- 1. stochastic-commitment oracle equivalence -----------------------


def test_criterion_1_suc_matches_enumeration_oracle(oracle_instance):
    start = time.perf_counter()
    scen = sample_scenarios(oracle_instance, 2, 11)
    isf = compute_isf(oracle_instance)
    sol = solve_suc(build_suc(oracle_instance, isf, scen))
    oracle_cost, oracle_pattern = enumerate_suc(oracle_instance, scen)
    elapsed = time.perf_counter() - start
    rel = abs(sol.expected_total_cost - oracle_cost) / (1.0 + abs(oracle_cost))
    assert rel < 1e-6
    assert np.array_equal(sol.hourly_commitment(2), oracle_pattern)
    assert elapsed < 10.0
    _passed(1, f"objective within {rel:.1e} of enumeration, same pattern, "
               f"{elapsed:.1f}s")


# -- 2. ramping-requirement scan oracle --------------------------------


def test_criterion_2_frp_matches_scan_oracle_on_20_fixtures():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        icount = int(rng.integers(1, 5))
        nodes = int(rng.integers(1, 4))
        kk = int(rng.choice([1, 2, 4]))
        hours = int(rng.integers(2, 25))
        xi = rng.normal(50.0, 15.0, size=(icount, nodes, hours * kk))
        pc = np.maximum(0.0, xi) * rng.uniform(0.0, 0.3, size=xi.shape)
        req = compute_frp_requirements(FakeScenarios(xi), FakeSolution(pc), kk)
        up, dn = scan_oracle(xi, pc, kk)
        assert np.array_equal(req.rho_up, up)
        assert np.array_equal(req.rho_down, dn)
    _passed(2, "20 randomized fixtures, exact match (0 tolerance)")


# -- 3. dual validation by finite differences --------------------------


def _fixed_commitment_lp_objective(instance, isf, d_arr, req, res):
    """Clearing LP objective with commitments pinned to an incumbent."""
    model = build_damc(instance, isf, HourlyBidDemand(d_hat=d_arr), req=req,
                       variant=NF)
    for idx, val in ((model.u_idx, res.u), (model.v_idx, res.v),
                     (model.w_idx, res.w)):
        fixed = val.ravel().astype(float)
        model.builder.set_var_bounds(idx.ravel(), fixed, fixed)
    sol, _ = milp.solve_lp(model.builder)
    return sol.objective_value


def test_criterion_3_lmps_match_finite_difference_duals(ring3):
    isf = compute_isf(ring3)
    d_hat = compute_hourly_bid_demand(ring3)
    scen = sample_scenarios(ring3, 3, 6)
    suc = solve_suc(build_suc(ring3, isf, scen))
    req = compute_frp_requirements(scen, suc, 4)
    res = solve_and_price(build_damc(ring3, isf, d_hat, req=req, variant=NF))
    base = _fixed_commitment_lp_objective(ring3, isf, d_hat.d_hat, req, res)
    eps = 1e-3
    nodes, hours = d_hat.d_hat.shape
    misses = 0
    for n in range(nodes):
        for h in range(hours):
            pert = d_hat.d_hat.copy()
            pert[n, h] += eps
            fd = (_fixed_commitment_lp_objective(ring3, isf, pert, req, res)
                  - base) / eps
            if abs(fd - res.lmp[n, h]) > 1e-4:
                misses += 1
    pairs = nodes * hours
    assert misses <= 0.05 * pairs
    cap = ring3.frp_shortfall_penalty
    for phi in (res.price_up, res.price_down):
        assert np.all(phi >= -1e-9) and np.all(phi <= cap + 1e-9)

    # Exercise the upper bound: an unattainable requirement must pin the
    # ramp price exactly at the shortfall penalty, never beyond it.
    load = np.full((1, 96), 60.0)
    inst = make_instance(
        ("n1",), (),
        (make_dg(p_max=200.0, p_min=20.0, segments=((200.0, 25.0),),
                 ramp_up=30.0, ramp_down=30.0, startup_rate=40.0,
                 shutdown_rate=40.0, min_up=1, min_down=1,
                 init_power_above_min=40.0),),
        load, sigma_fraction=0.0, alpha_r=450.0)
    pin = FrpRequirements(rho_up=np.full(24, 100.0), rho_down=np.zeros(24),
                          source=SUC_BASED)
    pinned = solve_and_price(build_damc(inst, compute_isf(inst),
                                        compute_hourly_bid_demand(inst),
                                        req=pin, variant=NF))
    assert np.allclose(pinned.price_up, 450.0, atol=1e-6)
    _passed(3, f"{pairs - misses}/{pairs} node-hours within 1e-4 $/MWh; "
               f"ramp prices within [0, {cap}]")


# -- 4. shift factors against a direct DC solve ------------------------


def test_criterion_4_isf_matches_dc_solve_on_14_nodes():
    case14 = load_instance(_case14_path())
    assert case14.n_nodes == 14
    isf = compute_isf(case14)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        p = rng.normal(scale=50.0, size=14)
        p -= p.mean()
        err = np.max(np.abs(line_flows(isf, p) - dc_flow_oracle(case14, p)))
        worst = max(worst, err)
    assert worst < 1e-8
    _passed(4, f"worst flow deviation {worst:.1e} MW over 10 injections")


# -- 5. relaxation ordering of the clearing objectives -----------------


def _clear_all_chain(instance):
    isf = compute_isf(instance)
    d_hat = compute_hourly_bid_demand(instance)
    scen = sample_scenarios(instance, 3, 6)
    suc = solve_suc(build_suc(instance, isf, scen))
    req = compute_frp_requirements(scen, suc,
                                   instance.time_grid.subperiods_per_hour)
    objs = {}
    for variant, anchor in ((WITHOUT, None), (NF, None), (PROPOSED, suc)):
        r = req if variant != WITHOUT else None
        res = solve_and_price(build_damc(instance, isf, d_hat, req=r,
                                         suc_solution=anchor, variant=variant))
        objs[variant] = res.objective
    return objs


def test_criterion_5_objective_ordering(single_node, two_node, ring3):
    for inst in (single_node, two_node, ring3):
        objs = _clear_all_chain(inst)
        assert objs[WITHOUT] <= objs[NF] + 1e-6
        assert objs[NF] <= objs[PROPOSED] + 1e-6
    _passed(5, "objective(without) <= objective(nf) <= objective(proposed) "
               "on all three fixtures")


# -- 6. four-variant ordering on the bundled 14-node system ------------


def test_criterion_6_variant_ordering_on_case14(tmp_path):
    start = time.perf_counter()
    cfg = RunConfig(instance_path=_case14_path(), seed=0, scenarios=100,
                    eval_scenarios=50, out_dir=str(tmp_path / "out"))
    report = run_experiment(cfg, use_cache=False)
    elapsed = time.perf_counter() - start
    pay = {v: o.total_payment for v, o in report.outcomes.items()}
    cur = {v: o.total_curtailment for v, o in report.outcomes.items()}
    order = (PROPOSED, NF, CI95, WITHOUT)
    for a, b in zip(order, order[1:]):
        assert pay[a] < pay[b], f"payment {a}={pay[a]:.0f} !< {b}={pay[b]:.0f}"
        assert cur[a] < cur[b], f"curtailment {a}={cur[a]:.2f} !< {b}={cur[b]:.2f}"
    assert elapsed < 600.0
    _passed(6, "payment and curtailment both ordered "
               f"proposed < nf < ci95 < without in {elapsed:.0f}s "
               f"(payments {', '.join(f'{pay[v]:,.0f}' for v in order)})")


# -- 7. payment trend against in-sample count --------------------------


def _trend_instance(path):
    """Flat load, fat subperiod noise, slow base unit, cheap flexible unit.

    The slow unit's quarter-hour ramp sits just inside the typical sampled
    delta, so small in-sample draws miss the tail, leave the flexible unit
    off, and pay scarcity prices out of sample; larger draws pull the tail
    into the requirement and the commitment.
    """
    hours = 8
    load = np.full((1, hours * 4), 200.0)
    dgs = (
        make_dg(id="slow", node="n1", p_max=300.0, p_min=5.0,
                segments=((200.0, 16.0), (300.0, 22.0)), no_load_cost=400.0,
                startup_cost=2000.0, ramp_up=100.0, ramp_down=320.0,
                startup_rate=120.0, shutdown_rate=120.0, min_up=4, min_down=4,
                init_committed=1, init_power_above_min=195.0, init_hours_on=8),
        make_dg(id="flex", node="n1", p_max=200.0, p_min=0.0,
                segments=((200.0, 40.0),), no_load_cost=1.0, startup_cost=2.0,
                ramp_up=320.0, ramp_down=320.0, startup_rate=200.0,
                shutdown_rate=200.0, min_up=1, min_down=1, init_committed=0,
                init_power_above_min=0.0, init_hours_off=4),
    )
    inst = make_instance(("n1",), (), dgs, load, hours=hours,
                         sigma_fraction=0.028, alpha_c=1000.0)
    save_instance(inst, path)
    return str(path)


def test_criterion_7_payment_slope_nonpositive_in_log_r(tmp_path):
    path = _trend_instance(tmp_path / "trend.json")
    r_values = (5, 10, 20, 50, 100)
    logs = np.log(r_values)
    slopes = []
    for seed in (0, 1, 2):
        cfg = RunConfig(instance_path=path, seed=seed, eval_scenarios=50,
                        suc_solver_gap=1e-6, out_dir=str(tmp_path / "out"))
        totals = sweep_sample_size(cfg, r_values, use_cache=False)
        y = np.array([totals[r] for r in r_values])
        slopes.append(np.polyfit(logs, y, 1)[0])
    mean_slope = float(np.mean(slopes))
    assert mean_slope <= 0.0
    _passed(7, f"mean payment slope vs log R = {mean_slope:.1f} "
               f"(per-seed {[round(s, 1) for s in slopes]})")


# -- 8. named invariants -----------------------------------------------


def test_criterion_8_invariant_spot_checks(tmp_path):
    base = sinusoid_load(6, 4, base=60.0, swing=15.0)
    dgs = (
        make_dg(id="g1", node="n1", min_up=1, min_down=1),
        make_dg(id="g2", node="n1", p_max=60.0, p_min=5.0,
                segments=((60.0, 22.0),), no_load_cost=100.0,
                startup_cost=200.0, ramp_up=120.0, ramp_down=120.0,
                startup_rate=60.0, shutdown_rate=60.0, min_up=1, min_down=1,
                init_committed=0, init_power_above_min=0.0, init_hours_off=3),
    )
    inst = make_instance(("n1",), (), dgs, base[None, :], hours=6,
                         sigma_fraction=0.03)
    path = tmp_path / "inv.json"
    save_instance(inst, path)
    cfg = RunConfig(instance_path=str(path), seed=0, scenarios=4,
                    eval_scenarios=3, variants=(NF,),
                    out_dir=str(tmp_path / "out"))

    # Hour blocking: the stochastic commitment is constant within hours.
    suc, scen = solve_suc_stage(inst, cfg, use_cache=False)
    u = suc.u.reshape(inst.n_dgs, 6, 4)
    assert np.all(u == u[:, :, :1])

    report = run_experiment(cfg, use_cache=False)
    out = report.outcomes[NF]

    # Uplift nonnegativity in every settled realization.
    for rep in out.reports:
        assert np.all(rep.uplift >= 0.0)

    # Ramp-price complementary slackness against the cleared requirement.
    rho_up, rho_dn = report.requirements[SUC_BASED]
    dam = out.dam
    for rho, r, sh, phi in ((rho_up, dam.r_up, dam.shortfall_up, dam.price_up),
                            (rho_dn, dam.r_down, dam.shortfall_down,
                             dam.price_down)):
        slack = r.sum(axis=0) + sh - rho
        assert np.all(slack >= -1e-6)
        assert np.all(phi[slack > 1e-6] <= 1e-6)
        assert np.allclose(phi[sh > 1e-6], inst.frp_shortfall_penalty,
                           atol=1e-6)

    # Real-time state continuity: dispatch respects subperiod ramp limits
    # across every run boundary of the rolling sequence.
    isf = compute_isf(inst)
    eval_scen = sample_scenarios(inst, 1, 0, OUT_OF_SAMPLE)
    trace = run_fmm_sequence(inst, isf, dam, eval_scen.realizations[0])
    kk = inst.time_grid.subperiods_per_hour
    t_total = 6 * kk
    for gi, g in enumerate(inst.dgs):
        above, uu = trace.p_above[gi], trace.commitment[gi]
        for k in range(1, t_total):
            delta = above[k] - above[k - 1]
            up_lim = g.ramp_up / kk * uu[k - 1] \
                + (g.startup_rate - g.p_min) * (uu[k] > uu[k - 1])
            dn_lim = g.ramp_down / kk * uu[k - 1] \
                + (g.shutdown_rate - g.ramp_down / kk - g.p_min) \
                * (uu[k] < uu[k - 1])
            assert delta <= up_lim + 1e-6
            assert -delta <= dn_lim + 1e-6
    _passed(8, "hour blocking, uplift >= 0, ramp-price complementary "
               "slackness, and real-time continuity all hold")


# -- 9. zero-variance degeneracy ---------------------------------------


def test_criterion_9_zero_variance_degeneracy(tmp_path):
    base = sinusoid_load(6, 4, base=80.0, swing=25.0)
    slack_unit = make_dg(id="g1", node="n1", p_max=250.0, p_min=0.0,
                         segments=((250.0, 18.0),), ramp_up=500.0,
                         ramp_down=500.0, startup_rate=250.0,
                         shutdown_rate=250.0, min_up=1, min_down=1,
                         init_power_above_min=base[0])
    inst = make_instance(("n1",), (), (slack_unit,), base[None, :], hours=6,
                         sigma_fraction=0.0)
    path = tmp_path / "detrm.json"
    save_instance(inst, path)
    cfg = RunConfig(instance_path=str(path), seed=0, scenarios=3,
                    eval_scenarios=2, out_dir=str(tmp_path / "out"))
    report = run_experiment(cfg, use_cache=False)

    # Requirements collapse to the mean profile's own subperiod deltas.
    rho_up, rho_dn = report.requirements[SUC_BASED]
    deltas = np.diff(base)
    kk = 4
    exp_up = kk * np.array([deltas[h * kk:(h + 1) * kk].max()
                            if h < 5 else deltas[h * kk:].max()
                            for h in range(6)])
    exp_dn = kk * np.array([-deltas[h * kk:(h + 1) * kk].min()
                            if h < 5 else -deltas[h * kk:].min()
                            for h in range(6)])
    assert np.allclose(rho_up, exp_up, atol=1e-9)
    assert np.allclose(rho_dn, exp_dn, atol=1e-9)
    assert np.allclose(report.requirements["ci95"][0], 0.0)

    for variant, out in report.outcomes.items():
        assert out.total_curtailment == pytest.approx(0.0, abs=1e-7)
    _passed(9, "requirements equal deterministic profile deltas; all four "
               "variants curtail nothing")
