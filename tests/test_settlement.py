"""Two-settlement ledger: uplifts, revenue adequacy, and price linearity."""

import copy

import numpy as np
import pytest

from rampmarket.damc import NF, WITHOUT, build_damc, solve_and_price
from rampmarket.fmm import run_fmm_sequence
from rampmarket.frp import FrpRequirements, SUC_BASED
from rampmarket.instance import compute_hourly_bid_demand
from rampmarket.network import compute_isf
from rampmarket.scenario import sample_scenarios
from rampmarket.settlement import VariantMismatch, aggregate, settle

from conftest import make_dg, make_instance


@pytest.fixture(scope="module")
def settled(request):
    """A cleared two-node system, one realization, and its settlement."""
    from conftest import sinusoid_load
    from rampmarket.instance import Line

    base = sinusoid_load(24, 4, base=60.0, swing=20.0)
    load = np.vstack([0.6 * base, 0.4 * base])
    dgs = (
        make_dg(id="g1", node="a"),
        make_dg(id="g2", node="b", p_max=60.0, p_min=5.0,
                segments=((60.0, 22.0),), no_load_cost=100.0,
                startup_cost=200.0, ramp_up=120.0, ramp_down=120.0,
                startup_rate=60.0, shutdown_rate=60.0, min_up=1, min_down=1,
                init_committed=0, init_power_above_min=0.0, init_hours_on=0,
                init_hours_off=3),
    )
    lines = (Line("l1", "a", "b", 0.1, -70.0, 70.0),)
    inst = make_instance(("a", "b"), lines, dgs, load)
    isf = compute_isf(inst)
    d_hat = compute_hourly_bid_demand(inst)
    req = FrpRequirements(rho_up=np.full(24, 10.0),
                          rho_down=np.full(24, 10.0), source=SUC_BASED)
    dam = solve_and_price(build_damc(inst, isf, d_hat, req=req, variant=NF))
    realization = sample_scenarios(inst, 1, 31, "out_of_sample").realizations[0]
    trace = run_fmm_sequence(inst, isf, dam, realization)
    report = settle(dam, trace, inst, d_hat, realization)
    return inst, d_hat, dam, trace, realization, report


def test_uplift_nonnegative(settled):
    *_, report = settled
    assert np.all(report.uplift >= 0.0)


def test_uplift_covers_cost_shortfall(settled):
    *_, report = settled
    market = (report.da_energy_revenue + report.frp_revenue
              + report.rt_deviation_revenue)
    topped_up = market + report.uplift
    assert np.all(topped_up >= report.incurred_cost - 1e-6)
    # Where no uplift was paid, the market already covered the cost.
    no_uplift = report.uplift < 1e-9
    assert np.all(market[no_uplift] >= report.incurred_cost[no_uplift] - 1e-6)


def test_revenue_adequacy_identity(settled):
    *_, report = settled
    producer_side = (report.da_energy_revenue + report.frp_revenue
                     + report.rt_deviation_revenue + report.uplift).sum()
    assert report.consumer_payment == pytest.approx(
        producer_side + report.congestion_residual, abs=1e-6)


def test_consumer_payment_composition(settled):
    *_, report = settled
    assert report.consumer_payment == pytest.approx(
        report.da_consumer_leg + report.rt_consumer_leg
        + report.uplift.sum(), abs=1e-6)


def test_settlement_linear_in_prices(settled):
    inst, d_hat, dam, trace, realization, base_report = settled
    dam2 = copy.deepcopy(dam)
    dam2.lmp = 2.0 * dam2.lmp
    dam2.price_up = 2.0 * dam2.price_up
    dam2.price_down = 2.0 * dam2.price_down
    trace2 = copy.deepcopy(trace)
    trace2.lmp = 2.0 * trace2.lmp
    doubled = settle(dam2, trace2, inst, d_hat, realization)
    assert np.allclose(doubled.da_energy_revenue,
                       2.0 * base_report.da_energy_revenue, atol=1e-6)
    assert np.allclose(doubled.frp_revenue,
                       2.0 * base_report.frp_revenue, atol=1e-6)
    assert np.allclose(doubled.rt_deviation_revenue,
                       2.0 * base_report.rt_deviation_revenue, atol=1e-6)
    assert doubled.da_consumer_leg == pytest.approx(
        2.0 * base_report.da_consumer_leg)
    assert doubled.rt_consumer_leg == pytest.approx(
        2.0 * base_report.rt_consumer_leg)
    # Incurred cost is price-independent.
    assert np.allclose(doubled.incurred_cost, base_report.incurred_cost)


def test_no_deviation_settlement():
    # Realization equal to the hourly bid demand and slack ramps: the
    # real-time legs vanish and payment is the day-ahead bill plus uplift.
    load = np.full((1, 96), 120.0)
    dg = make_dg(p_max=400.0, p_min=50.0, segments=((400.0, 25.0),),
                 ramp_up=1200.0, ramp_down=1200.0, startup_rate=400.0,
                 shutdown_rate=400.0, min_up=1, min_down=1,
                 init_power_above_min=70.0)
    inst = make_instance(("n1",), (), (dg,), load, sigma_fraction=0.0)
    isf = compute_isf(inst)
    d_hat = compute_hourly_bid_demand(inst)
    dam = solve_and_price(build_damc(inst, isf, d_hat, variant=WITHOUT))
    realization = np.repeat(d_hat.d_hat, 4, axis=1)
    trace = run_fmm_sequence(inst, isf, dam, realization)
    report = settle(dam, trace, inst, d_hat, realization)
    assert report.rt_deviation_revenue[0] == pytest.approx(0.0, abs=1e-6)
    assert report.rt_consumer_leg == pytest.approx(0.0, abs=1e-6)
    assert report.consumer_payment == pytest.approx(
        report.da_consumer_leg + report.uplift.sum(), abs=1e-6)
    assert report.curtailment_mw == pytest.approx(0.0, abs=1e-9)


def test_uplift_arithmetic_single_unit():
    # A unit whose cost rate exceeds the clearing price collects the
    # difference as uplift: (cost - price) * energy plus commitment costs.
    load = np.full((1, 96), 100.0)
    cheap = make_dg(id="cheap", node="n1", p_max=400.0, p_min=0.0,
                    segments=((400.0, 25.0),), no_load_cost=0.0,
                    startup_cost=0.0, ramp_up=1200.0, ramp_down=1200.0,
                    startup_rate=400.0, shutdown_rate=400.0, min_up=1,
                    min_down=1, init_power_above_min=100.0, init_hours_on=5)
    inst = make_instance(("n1",), (), (cheap,), load, sigma_fraction=0.0)
    isf = compute_isf(inst)
    d_hat = compute_hourly_bid_demand(inst)
    dam = solve_and_price(build_damc(inst, isf, d_hat, variant=WITHOUT))
    realization = np.repeat(d_hat.d_hat, 4, axis=1)
    trace = run_fmm_sequence(inst, isf, dam, realization)
    report = settle(dam, trace, inst, d_hat, realization)
    # Price equals its own marginal cost: no margin, no uplift needed.
    assert np.allclose(dam.lmp, 25.0, atol=1e-6)
    assert report.uplift[0] == pytest.approx(0.0, abs=1e-6)
    assert report.da_energy_revenue[0] == pytest.approx(25.0 * 100.0 * 24)


def test_variant_mismatch_detected(settled):
    inst, d_hat, dam, trace, realization, _ = settled
    other = copy.deepcopy(dam)
    other.u = 1 - other.u
    with pytest.raises(VariantMismatch):
        settle(other, trace, inst, d_hat, realization)


def test_aggregate_totals(settled):
    *_, report = settled
    total_pay, total_curt = aggregate([report] * 5)
    assert total_pay == pytest.approx(5.0 * report.consumer_payment)
    assert total_curt == pytest.approx(5.0 * report.curtailment_mw)


def test_aggregate_empty():
    assert aggregate([]) == (0.0, 0.0)
