"""Day-ahead clearing variants, dual-based prices, and FRP awards."""

import hashlib
import json
import os
from dataclasses import replace
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from rampmarket.damc import (CI95, NF, PROPOSED, WITHOUT, MissingInput,
                             build_damc, solve_and_price)
from rampmarket.frp import CI95 as CI95_SOURCE
from rampmarket.frp import (compute_ci95_requirements,
                            compute_frp_requirements, FrpRequirements,
                            SUC_BASED)
from rampmarket.instance import compute_hourly_bid_demand, load_instance
from rampmarket.network import active_line_indices, compute_isf
from rampmarket.scenario import sample_scenarios
from rampmarket.suc import build_suc, solve_suc

from conftest import make_dg, make_instance, sinusoid_load


def _stage(instance, seed=6, count=3):
    isf = compute_isf(instance)
    d_hat = compute_hourly_bid_demand(instance)
    scen = sample_scenarios(instance, count, seed)
    suc = solve_suc(build_suc(instance, isf, scen))
    req = compute_frp_requirements(scen, suc,
                                   instance.time_grid.subperiods_per_hour)
    return isf, d_hat, scen, suc, req


def _single_node_instance():
    load = sinusoid_load(24, 4, base=70.0, swing=25.0)[None, :]
    dgs = (
        make_dg(id="g1", node="n1"),
        make_dg(id="g2", node="n1", p_max=60.0, p_min=5.0,
                segments=((60.0, 22.0),), no_load_cost=100.0,
                startup_cost=200.0, ramp_up=120.0, ramp_down=120.0,
                startup_rate=60.0, shutdown_rate=60.0, min_up=1, min_down=1,
                init_committed=0, init_power_above_min=0.0, init_hours_on=0,
                init_hours_off=3),
    )
    return make_instance(("n1",), (), dgs, load)


@pytest.fixture(scope="module")
def staged():
    instance = _single_node_instance()
    isf, d_hat, scen, suc, req = _stage(instance)
    return instance, isf, d_hat, scen, suc, req


@pytest.fixture(scope="module")
def all_variants(staged):
    instance, isf, d_hat, _, suc, req = staged
    ci_req = compute_ci95_requirements(instance, d_hat)
    out = {}
    for variant, r, anchor in ((PROPOSED, req, suc), (NF, req, None),
                               (CI95, ci_req, None), (WITHOUT, None, None)):
        model = build_damc(instance, isf, d_hat, req=r, suc_solution=anchor,
                           variant=variant)
        out[variant] = solve_and_price(model)
    return instance, out


def test_variant_prerequisites(staged):
    instance, isf, d_hat, _, suc, req = staged
    ci_req = compute_ci95_requirements(instance, d_hat)
    with pytest.raises(MissingInput):
        build_damc(instance, isf, d_hat, variant=PROPOSED)
    with pytest.raises(MissingInput):
        build_damc(instance, isf, d_hat, req=req, variant=PROPOSED)
    with pytest.raises(MissingInput):
        build_damc(instance, isf, d_hat, req=ci_req, variant=NF)
    with pytest.raises(MissingInput):
        build_damc(instance, isf, d_hat, req=req, variant=CI95)
    with pytest.raises(MissingInput):
        build_damc(instance, isf, d_hat, variant="mystery")


def test_relaxation_ordering(all_variants):
    _, out = all_variants
    assert out[WITHOUT].objective <= out[NF].objective + 1e-6
    assert out[NF].objective <= out[PROPOSED].objective + 1e-6


def test_proposed_respects_anchor(staged, all_variants):
    instance, _, _, _, suc, _ = staged
    _, out = all_variants
    anchor = suc.hourly_commitment(4)
    assert np.all(out[PROPOSED].u >= anchor)


def test_without_variant_has_no_frp(all_variants):
    _, out = all_variants
    res = out[WITHOUT]
    assert np.allclose(res.r_up, 0.0)
    assert np.allclose(res.r_down, 0.0)
    assert np.allclose(res.price_up, 0.0)
    assert np.allclose(res.price_down, 0.0)


def test_phi_prices_within_penalty_bound(all_variants):
    instance, out = all_variants
    cap = instance.frp_shortfall_penalty
    for variant in (PROPOSED, NF, CI95):
        res = out[variant]
        assert np.all(res.price_up >= -1e-6)
        assert np.all(res.price_down >= -1e-6)
        assert np.all(res.price_up <= cap + 1e-6)
        assert np.all(res.price_down <= cap + 1e-6)


def test_shortfall_complementary_slackness(staged, all_variants):
    instance, _, _, _, _, req = staged
    _, out = all_variants
    for variant in (PROPOSED, NF):
        res = out[variant]
        total_up = res.r_up.sum(axis=0) + res.shortfall_up
        # Requirement rows hold after the shortfall contribution.
        assert np.all(total_up >= req.rho_up - 1e-6)
        slack = total_up - req.rho_up
        # Strictly slack hours cannot carry a positive price.
        assert np.all(res.price_up[slack > 1e-6] <= 1e-6)
        # Paying the penalty means the price is pinned at the penalty.
        pinned = res.shortfall_up > 1e-6
        assert np.allclose(res.price_up[pinned],
                           instance.frp_shortfall_penalty, atol=1e-6)


def test_joint_energy_award_capacity(all_variants):
    instance, out = all_variants
    res = out[PROPOSED]
    p_min = np.array([g.p_min for g in instance.dgs])
    p_max = np.array([g.p_max for g in instance.dgs])
    for gi in range(instance.n_dgs):
        for h in range(23):
            steady = (res.u[gi, h] == 1 and res.u[gi, h + 1] == 1
                      and res.v[gi, h + 1] == 0 and res.w[gi, h + 1] == 0)
            if not steady:
                continue
            total = res.p[gi, h] + p_min[gi]
            assert total + res.r_up[gi, h] <= p_max[gi] + 1e-6
            assert total - res.r_down[gi, h] >= p_min[gi] - 1e-6


def test_hour24_boundary_policy(all_variants):
    instance, out = all_variants
    res = out[PROPOSED]
    ru = np.array([g.ramp_up for g in instance.dgs])
    rd = np.array([g.ramp_down for g in instance.dgs])
    for gi in range(instance.n_dgs):
        if res.u[gi, 23] == 1:
            assert res.r_up[gi, 23] <= ru[gi] + 1e-6
            assert res.r_down[gi, 23] <= rd[gi] + 1e-6
        else:
            assert res.r_up[gi, 23] == pytest.approx(0.0, abs=1e-6)
            assert res.r_down[gi, 23] == pytest.approx(0.0, abs=1e-6)


def test_uncongested_lmps_uniform_across_nodes(two_node):
    # Replace the line with a slack one so congestion cannot bind.
    from rampmarket.instance import Line
    inst = make_instance(two_node.nodes,
                         (Line("l1", "a", "b", 0.1, -1e4, 1e4),),
                         two_node.dgs, two_node.mean_net_load,
                         sigma_fraction=two_node.sigma_fraction)
    isf = compute_isf(inst)
    d_hat = compute_hourly_bid_demand(inst)
    res = solve_and_price(build_damc(inst, isf, d_hat, variant=WITHOUT))
    assert np.allclose(res.lmp[0], res.lmp[1], atol=1e-6)


def test_marginal_unit_sets_price():
    # One node, one big committed unit with a single 25 $/MWh segment and
    # plenty of headroom: the energy price is 25 in every hour.
    load = np.full((1, 96), 120.0)
    inst = make_instance(
        ("n1",), (),
        (make_dg(p_max=400.0, p_min=50.0, segments=((400.0, 25.0),),
                 ramp_up=400.0, ramp_down=400.0, startup_rate=400.0,
                 shutdown_rate=400.0, min_up=1, min_down=1,
                 init_power_above_min=70.0),),
        load, sigma_fraction=0.0)
    isf = compute_isf(inst)
    d_hat = compute_hourly_bid_demand(inst)
    res = solve_and_price(build_damc(inst, isf, d_hat, variant=WITHOUT))
    assert np.allclose(res.lmp, 25.0, atol=1e-6)


def test_zero_requirements_nf_equals_without(staged):
    instance, isf, d_hat, _, _, _ = staged
    zero = FrpRequirements(rho_up=np.zeros(24), rho_down=np.zeros(24),
                           source=SUC_BASED)
    res_nf = solve_and_price(build_damc(instance, isf, d_hat, req=zero,
                                        variant=NF))
    res_wo = solve_and_price(build_damc(instance, isf, d_hat,
                                        variant=WITHOUT))
    assert res_nf.objective == pytest.approx(res_wo.objective, rel=1e-6)


def test_unattainable_requirement_pins_price_at_penalty():
    # Requirement far above the single unit's ramp capability: the
    # shortfall absorbs the gap and the up-price hits the penalty.
    load = np.full((1, 96), 60.0)
    inst = make_instance(
        ("n1",), (),
        (make_dg(p_max=200.0, p_min=20.0, segments=((200.0, 25.0),),
                 ramp_up=30.0, ramp_down=30.0, startup_rate=40.0,
                 shutdown_rate=40.0, min_up=1, min_down=1,
                 init_power_above_min=40.0),),
        load, sigma_fraction=0.0, alpha_r=450.0)
    isf = compute_isf(inst)
    d_hat = compute_hourly_bid_demand(inst)
    req = FrpRequirements(rho_up=np.full(24, 100.0),
                          rho_down=np.zeros(24), source=SUC_BASED)
    res = solve_and_price(build_damc(inst, isf, d_hat, req=req, variant=NF))
    assert np.all(res.shortfall_up > 1.0)
    assert np.allclose(res.price_up, 450.0, atol=1e-6)
    # The unit still sells every MW of ramp it has.
    assert np.all(res.r_up.sum(axis=0) >= 29.0)


def test_demand_fixed_to_bid(all_variants, staged):
    _, _, d_hat, _, _, _ = staged
    _, out = all_variants
    for res in out.values():
        scheduled = res.p_total.sum(axis=0) + res.pc.sum(axis=0)
        assert np.allclose(scheduled, d_hat.d_hat.sum(axis=0), atol=1e-6)


def test_commitment_logic_consistency(all_variants):
    _, out = all_variants
    for res in out.values():
        prev = np.concatenate([[1, 0]])  # init_committed of the two units
        du = np.diff(np.concatenate([prev[:, None], res.u], axis=1), axis=1)
        assert np.array_equal(du, res.v - res.w)


# -- assembled clearing model, against digests recorded from the parent ---

LP_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "damc_lp_golden.json")


def _ring3_with_equal_rates(ring3):
    # Unit "peak" starts and stops at its ramp rate and at p_max, with no
    # minimum output, so every next-hour startup/shutdown coefficient of
    # the award and joint-capacity rows is zero for it.
    dgs = list(ring3.dgs)
    dgs[2] = replace(dgs[2], p_min=0.0, ramp_up=50.0, ramp_down=50.0,
                     startup_rate=50.0, shutdown_rate=50.0)
    return replace(ring3, dgs=tuple(dgs))


def _case14():
    return load_instance(str(resources.files("rampmarket.data") / "case14.json"))


def _assembled_digests(instance):
    """Per design: sha256 of every array of the assembled clearing model.

    Requirements and the proposed anchor are fixed patterns, so the
    digests depend on build_damc alone.
    """
    hours = instance.time_grid.hours_count
    isf = compute_isf(instance)
    d_hat = compute_hourly_bid_demand(instance)
    rho_up = 5.0 + np.arange(hours)
    rho_dn = 30.0 - np.arange(hours)
    anchor = (np.arange(instance.n_dgs * hours).reshape(-1, hours) % 3 == 0)
    suc_like = SimpleNamespace(hourly_commitment=lambda kk: anchor.astype(float))
    inputs = {
        PROPOSED: (FrpRequirements(rho_up, rho_dn, SUC_BASED), suc_like),
        NF: (FrpRequirements(rho_up, rho_dn, SUC_BASED), None),
        CI95: (FrpRequirements(rho_up, rho_dn, CI95_SOURCE), None),
        WITHOUT: (None, None),
    }
    out = {}
    for variant, (req, suc) in inputs.items():
        lp = build_damc(instance, isf, d_hat, req=req, suc_solution=suc,
                        variant=variant).builder.assemble()
        arrays = {
            "indptr": lp.a.indptr.astype(np.int64),
            "indices": lp.a.indices.astype(np.int64),
            "data": lp.a.data, "rhs": lp.rhs, "lb": lp.lb, "ub": lp.ub,
            "c": lp.c, "integer": lp.integer.astype(np.uint8),
        }
        out[variant] = {k: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
                        for k, v in arrays.items()}
        out[variant]["sense"] = hashlib.sha256(
            ",".join(lp.sense).encode()).hexdigest()
        out[variant]["shape"] = list(lp.a.shape)
    return out


def test_assembled_clearing_matches_golden(ring3):
    # Recorded from the implementation that added the award, joint-capacity
    # and requirement rows one at a time.  Row order, signed zeros and the
    # omitted zero startup/shutdown coefficients all show in the digests.
    with open(LP_GOLDEN) as fh:
        golden = json.load(fh)
    ring = _ring3_with_equal_rates(ring3)
    assert len(active_line_indices(compute_isf(ring), ring,
                                   compute_hourly_bid_demand(ring).d_hat)) > 0
    for name, instance in (("case14", _case14()), ("ring3_equal_rates", ring)):
        got = _assembled_digests(instance)
        for variant in (PROPOSED, NF, CI95, WITHOUT):
            assert got[variant] == golden[name][variant], (name, variant)
