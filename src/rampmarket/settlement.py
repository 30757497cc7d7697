"""Two-settlement accounting: day-ahead awards plus real-time deviations.

The day-ahead legs are financially binding at the day-ahead prices; the
real-time legs settle deviations between binding real-time quantities and
the hourly day-ahead schedule at the real-time nodal prices.  Generators
that fail to cover their incurred costs receive a make-whole uplift.

Ledger conventions (the evaluation metric is defined by this module):

* consumer payment per realization = day-ahead energy leg at bid-in
  demand + real-time leg settling (served - bid-in) at real-time prices
  + all make-whole uplifts;
* curtailment penalties are tracked as a separate metric, not a payment;
* ramping awards have no real-time performance settlement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class VariantMismatch(Exception):
    pass


@dataclass(eq=False)
class SettlementReport:
    variant: str
    realization_id: int
    da_energy_revenue: np.ndarray  # (G,) $
    frp_revenue: np.ndarray  # (G,) $
    rt_deviation_revenue: np.ndarray  # (G,) $, signed
    incurred_cost: np.ndarray  # (G,) $
    uplift: np.ndarray  # (G,) $
    consumer_payment: float  # $ incl. uplifts
    da_consumer_leg: float
    rt_consumer_leg: float
    curtailment_mw: float  # binding subperiods only
    congestion_residual: float  # consumer payments minus producer credits


def settle(dam, trace, instance, realization=None):
    """Settle one realization's real-time trace against its day-ahead result.

    ``realization`` is the realized nodal net load (N, 96) the trace was
    dispatched against; it is needed to compute served load.
    """
    if realization is None:
        raise ValueError("realization trajectory is required for settlement")
    kk = instance.time_grid.subperiods_per_hour
    hcount = instance.time_grid.hours_count
    hours = np.arange(hcount * kk) // kk
    if trace.commitment.shape != (instance.n_dgs, hcount * kk) or not np.array_equal(
            trace.commitment, dam.u[:, hours].astype(float)):
        raise VariantMismatch("trace commitments do not match the day-ahead result")
    duration = 1.0 / kk
    gcount = instance.n_dgs
    node_of = np.array([instance.node_index(g.node) for g in instance.dgs])
    hours_of_sub = np.arange(hcount * kk) // kk

    # Day-ahead legs (identical across realizations, settled per day).
    dam_total = dam.p + dam.u * np.array([g.p_min for g in instance.dgs])[:, None]
    lmp_at_g = dam.lmp[node_of]  # (G, 24)
    da_energy = (lmp_at_g * dam_total).sum(axis=1)
    frp_rev = (dam.price_up[None, :] * dam.r_up
               + dam.price_down[None, :] * dam.r_down).sum(axis=1)

    # Real-time deviations at binding subperiods.
    rt_lmp_at_g = trace.lmp[node_of]  # (G, 96)
    deviation = trace.dispatch - dam_total[:, hours_of_sub]
    rt_dev = (rt_lmp_at_g * deviation).sum(axis=1) * duration

    # Incurred costs: commitment costs at the day-ahead schedule plus the
    # actual binding dispatch cost.
    alpha_u = np.array([g.no_load_cost for g in instance.dgs])
    alpha_v = np.array([g.startup_cost for g in instance.dgs])
    commit_cost = alpha_u * dam.u.sum(axis=1) + alpha_v * dam.v.sum(axis=1)
    dispatch_cost = np.zeros(gcount)
    for gi, g in enumerate(instance.dgs):
        costs = g.segment_costs
        widths = g.segment_widths
        p = trace.p_above[gi]
        seg = np.zeros_like(p)
        remaining = p.copy()
        for c, wdt in zip(costs, widths):
            take = np.clip(remaining, 0.0, wdt)
            seg += c * take
            remaining -= take
        dispatch_cost[gi] = seg.sum() * duration
    incurred = commit_cost + dispatch_cost

    total_rev = da_energy + frp_rev + rt_dev
    uplift = np.maximum(0.0, incurred - total_rev)

    # Consumer side.
    realization = np.asarray(realization, dtype=float)
    served = realization - trace.curtailment  # (N, 96)
    d_hat_nodes = _d_hat_from(dam, instance)
    da_leg = float((dam.lmp * d_hat_nodes).sum())
    rt_leg = float(
        (trace.lmp * (served - d_hat_nodes[:, hours_of_sub])).sum() * duration)
    consumer = da_leg + rt_leg + uplift.sum()

    residual = consumer - (da_energy + frp_rev + rt_dev + uplift).sum()

    return SettlementReport(
        variant=dam.variant,
        realization_id=trace.realization_id,
        da_energy_revenue=da_energy,
        frp_revenue=frp_rev,
        rt_deviation_revenue=rt_dev,
        incurred_cost=incurred,
        uplift=uplift,
        consumer_payment=float(consumer),
        da_consumer_leg=da_leg,
        rt_consumer_leg=rt_leg,
        curtailment_mw=float(trace.curtailment.sum()),
        congestion_residual=float(residual),
    )


def _d_hat_from(dam, instance):
    """Bid-in nodal demand implied by the cleared day-ahead balance."""
    # The clearing fixes d to d_hat, so the cleared demand *is* the bid-in
    # demand; recover it from the schedule identity served = d - pc + ...
    # Instead of re-deriving, recompute from the instance means.
    from .instance import compute_hourly_bid_demand

    return compute_hourly_bid_demand(instance).d_hat


def aggregate(reports):
    """Total payment and total binding curtailment across realizations."""
    if not reports:
        return 0.0, 0.0
    total_payment = float(sum(r.consumer_payment for r in reports))
    total_curtailment = float(sum(r.curtailment_mw for r in reports))
    return total_payment, total_curtailment
