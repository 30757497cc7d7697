"""Rolling real-time dispatch: consistency, state carry, and price bounds."""

import json
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rampmarket.damc import WITHOUT, NF, build_damc, solve_and_price
from rampmarket.fmm import DimensionMismatch, run_fmm_sequence
from rampmarket.frp import FrpRequirements, SUC_BASED
from rampmarket.instance import compute_hourly_bid_demand
from rampmarket.network import active_line_indices, compute_isf
from rampmarket.scenario import sample_scenarios

from conftest import make_dg, make_instance


def _clear(instance, variant=WITHOUT, req=None):
    isf = compute_isf(instance)
    d_hat = compute_hourly_bid_demand(instance)
    dam = solve_and_price(build_damc(instance, isf, d_hat, req=req,
                                     variant=variant))
    return isf, d_hat, dam


def slack_instance():
    """Uncongested single node, one huge flexible unit, flat demand."""
    load = np.full((1, 96), 120.0)
    dg = make_dg(p_max=400.0, p_min=50.0, segments=((400.0, 25.0),),
                 ramp_up=1200.0, ramp_down=1200.0, startup_rate=400.0,
                 shutdown_rate=400.0, min_up=1, min_down=1,
                 init_power_above_min=70.0)
    return make_instance(("n1",), (), (dg,), load, sigma_fraction=0.0)


def test_dam_consistent_realization_reproduces_schedule():
    inst = slack_instance()
    isf, d_hat, dam = _clear(inst)
    realization = np.repeat(d_hat.d_hat, 4, axis=1)
    trace = run_fmm_sequence(inst, isf, dam, realization)
    dam_total = dam.p + dam.u * 50.0
    assert np.allclose(trace.dispatch,
                       np.repeat(dam_total, 4, axis=1), atol=1e-6)
    assert np.allclose(trace.curtailment, 0.0, atol=1e-8)
    assert np.allclose(trace.lmp, np.repeat(dam.lmp, 4, axis=1), atol=1e-6)


def test_trace_shapes_and_run_count(two_node):
    isf, d_hat, dam = _clear(two_node)
    scen = sample_scenarios(two_node, 1, 5)
    trace = run_fmm_sequence(two_node, isf, dam, scen.realizations[0],
                             realization_id=7)
    assert trace.realization_id == 7
    assert len(trace.runs) == 24
    assert trace.dispatch.shape == (2, 96)
    assert trace.lmp.shape == (2, 96)
    for run in trace.runs:
        assert run.commitment.shape == (2, 8)
        assert run.binding_subperiods == 4


def test_commitment_never_drifts(two_node):
    isf, d_hat, dam = _clear(two_node)
    scen = sample_scenarios(two_node, 1, 5)
    trace = run_fmm_sequence(two_node, isf, dam, scen.realizations[0])
    hours = np.arange(96) // 4
    assert np.array_equal(trace.commitment, dam.u[:, hours].astype(float))


def test_state_continuity_across_runs(two_node):
    isf, d_hat, dam = _clear(two_node)
    scen = sample_scenarios(two_node, 1, 12)
    trace = run_fmm_sequence(two_node, isf, dam, scen.realizations[0])
    kk = two_node.time_grid.subperiods_per_hour
    for gi, g in enumerate(two_node.dgs):
        above = trace.p_above[gi]
        u = trace.commitment[gi]
        for k in range(1, 96):
            delta = above[k] - above[k - 1]
            up_lim = g.ramp_up / kk * u[k - 1] \
                + (g.startup_rate - g.p_min) * (u[k] > u[k - 1])
            dn_lim = g.ramp_down / kk * u[k - 1] \
                + (g.shutdown_rate - g.ramp_down / kk - g.p_min) \
                * (u[k] < u[k - 1])
            assert delta <= up_lim + 1e-6
            assert -delta <= dn_lim + 1e-6


def test_ramp_shortage_curtails_at_penalty_price():
    # A mid-hour step the committed unit cannot follow: the balance can
    # only close through curtailment, which prices at the penalty.
    load = np.full((1, 96), 60.0)
    load[0, 38:] = 140.0  # step inside hour 10
    dg = make_dg(p_max=200.0, p_min=20.0, segments=((200.0, 25.0),),
                 ramp_up=40.0, ramp_down=40.0, startup_rate=60.0,
                 shutdown_rate=60.0, min_up=1, min_down=1,
                 init_power_above_min=40.0)
    inst = make_instance(("n1",), (), (dg,), load, sigma_fraction=0.0,
                         alpha_c=500.0)
    isf, d_hat, dam = _clear(inst)
    trace = run_fmm_sequence(inst, isf, dam, load)
    stepped = trace.curtailment[0, 38:42]
    assert stepped.max() > 1.0
    priced = trace.lmp[0, 38:42][stepped > 1e-6]
    assert np.allclose(priced, 500.0, atol=1e-6)


def test_lmp_bounded_by_curtailment_penalty(two_node):
    isf, d_hat, dam = _clear(two_node)
    scen = sample_scenarios(two_node, 2, 3)
    for i in range(2):
        trace = run_fmm_sequence(two_node, isf, dam, scen.realizations[i])
        assert np.all(trace.lmp <= two_node.curtailment_penalty + 1e-6)
        assert np.all(trace.lmp >= -two_node.curtailment_penalty - 1e-6)


def test_demand_collapse_with_free_down_ramp():
    # Realized demand falls to zero mid-day; the committed unit rides
    # down to zero output and the price stays at its marginal cost.
    forecast = np.full((1, 96), 100.0)
    realized = forecast.copy()
    realized[0, 48:] = 0.0
    dg = make_dg(p_max=300.0, p_min=0.0, segments=((300.0, 25.0),),
                 ramp_up=600.0, ramp_down=600.0, startup_rate=300.0,
                 shutdown_rate=300.0, min_up=25, min_down=1,
                 init_power_above_min=100.0, init_hours_on=1)
    inst = make_instance(("n1",), (), (dg,), forecast, sigma_fraction=0.0)
    isf, d_hat, dam = _clear(inst)
    trace = run_fmm_sequence(inst, isf, dam, realized)
    assert np.all(dam.u == 1)  # pinned on by the min-up horizon
    assert np.allclose(trace.dispatch[0, 48:], 0.0, atol=1e-8)
    # At the zero-output corner the dual can sit anywhere between the
    # worthless-load value 0 and the unit's marginal cost.
    low = trace.lmp[0, 48:]
    assert np.all(low >= -1e-6)
    assert np.all(low <= 25.0 + 1e-6)


def test_realization_shape_checked(two_node):
    isf, d_hat, dam = _clear(two_node)
    with pytest.raises(DimensionMismatch):
        run_fmm_sequence(two_node, isf, dam, np.zeros((2, 95)))


def test_binding_lmps_are_per_hour_duals_scaled(two_node):
    # Dispatch cost of serving one extra MWh at the margin: duals are per
    # MW-subperiod, reported prices are $/MWh, so a flat system has the
    # segment cost as its price.
    inst = slack_instance()
    isf, d_hat, dam = _clear(inst)
    realization = np.repeat(d_hat.d_hat, 4, axis=1)
    trace = run_fmm_sequence(inst, isf, dam, realization)
    assert np.allclose(trace.lmp, 25.0, atol=1e-6)


def test_golden_trace_on_congested_ring(ring3):
    # Dispatch, curtailment and prices recorded from the implementation
    # that rebuilt the LP for every window.  The stored commitment starts
    # and shuts down units whose halved ramp rates bind, line ab congests
    # and load is curtailed, so ramp terms, line rows and nodal prices all
    # matter; the file's "about" entry says how it was made.
    path = os.path.join(os.path.dirname(__file__), "data", "fmm_ring3_golden.json")
    with open(path) as fh:
        golden = json.load(fh)
    dgs = [replace(g, ramp_up=g.ramp_up / 2, ramp_down=g.ramp_down / 2)
           for g in ring3.dgs]
    dgs[1] = replace(dgs[1], segments=((70.0, 10.0),), no_load_cost=800.0)
    inst = replace(ring3, dgs=tuple(dgs))
    dam = SimpleNamespace(**{k: np.array(golden[k]) for k in ("u", "v", "w")})
    realization = np.array(golden["realization"])
    isf = compute_isf(inst)
    assert len(active_line_indices(isf, inst, realization)) > 0
    trace = run_fmm_sequence(inst, isf, dam, realization)
    for key in ("dispatch", "curtailment", "lmp"):
        np.testing.assert_allclose(getattr(trace, key), golden[key],
                                   rtol=0, atol=1e-8, err_msg=key)
    # The advisory second hour of each window shows in its objective.
    np.testing.assert_allclose([run.objective for run in trace.runs],
                               golden["window_objectives"], rtol=1e-10)
