"""Output checks, computed apart from the program or from properties the
method must have.  Each function returns a list of failure messages; an
empty list means the check passed.
"""

from __future__ import annotations

import numpy as np

MW_TOL = 1e-4  # balance residuals, MW
PRICE_TOL = 1e-6  # $/MWh, on dual bounds
CS_TOL = 1e-3  # $/h, price times requirement slack


def expect(cond, msg):
    return [] if cond else [msg]


def served_requirements(realizations, pc, k):
    """Worst served-net-load step per hour, scanned subperiod by subperiod."""
    served = (realizations - pc).sum(axis=1)  # (I, T)
    hours = served.shape[1] // k
    up = np.full(hours, -np.inf)
    down = np.full(hours, -np.inf)
    for t in range(served.shape[1] - 1):
        step = served[:, t + 1] - served[:, t]
        up[t // k] = max(up[t // k], k * step.max())
        down[t // k] = max(down[t // k], -k * step.min())
    up[np.isinf(up)] = 0.0  # an hour with no forward step (K=1, last hour)
    down[np.isinf(down)] = 0.0
    return up, down


def first_pass(instance, scen, suc_sol, req):
    k = instance.time_grid.subperiods_per_hour
    g = instance.n_dgs
    out = []
    up, down = served_requirements(scen.realizations, suc_sol.pc, k)
    out += expect(np.allclose(req.rho_up, up, rtol=1e-9, atol=1e-6)
                 and np.allclose(req.rho_down, down, rtol=1e-9, atol=1e-6),
                 "requirements differ from the scan of served net load")
    blocks = suc_sol.u.reshape(g, -1, k)
    out += expect(np.all(blocks == blocks[:, :, :1]),
                 "SUC commitment changes within an hour")
    p_min = np.array([d.p_min for d in instance.dgs])
    gen = suc_sol.p.sum(axis=1) + (suc_sol.u * p_min[:, None]).sum(axis=0)
    residual = gen + suc_sol.pc.sum(axis=1) - scen.realizations.sum(axis=1)
    out += expect(np.abs(residual).max() <= MW_TOL,
                 f"SUC balance off by {np.abs(residual).max():.3g} MW")
    return out


def bid_demand(instance):
    """Hourly system bid-in demand from the mean net load."""
    k = instance.time_grid.subperiods_per_hour
    return instance.mean_net_load.sum(axis=0).reshape(-1, k).mean(axis=1)


def clearing(instance, dam, rho=None):
    """Day-ahead balance, ramp-price bounds and complementary slackness."""
    p_min = np.array([d.p_min for d in instance.dgs])
    supply = (dam.p + dam.u * p_min[:, None]).sum(axis=0) + dam.pc.sum(axis=0)
    residual = supply - bid_demand(instance)
    out = expect(np.abs(residual).max() <= MW_TOL,
                f"{dam.variant}: day-ahead balance off by {np.abs(residual).max():.3g} MW")
    alpha_r = instance.frp_shortfall_penalty
    for name, price, award, short, need in (
            ("up", dam.price_up, dam.r_up, dam.shortfall_up, None if rho is None else rho[0]),
            ("down", dam.price_down, dam.r_down, dam.shortfall_down,
             None if rho is None else rho[1])):
        out += expect(np.all(price >= -PRICE_TOL) and np.all(price <= alpha_r + PRICE_TOL),
                     f"{dam.variant}: ramp-{name} price outside [0, alpha_r]")
        if need is None:
            out += expect(np.all(price == 0), f"{dam.variant}: ramp price without requirement")
            continue
        slack = award.sum(axis=0) + short - need
        out += expect(slack.min() >= -MW_TOL,
                     f"{dam.variant}: ramp-{name} requirement unmet by {-slack.min():.3g} MW")
        out += expect(np.abs(price * slack).max() <= CS_TOL,
                     f"{dam.variant}: ramp-{name} complementary slackness off by "
                     f"{np.abs(price * slack).max():.3g}")
    return out


def proposed_anchor(instance, dam, suc_sol):
    k = instance.time_grid.subperiods_per_hour
    return expect(np.all(dam.u >= suc_sol.u[:, k - 1::k]),
                 "proposed commitment below the SUC hourly commitment")


def price_separation(dam):
    """Largest spread of day-ahead nodal prices within one hour, $/MWh."""
    return float((dam.lmp.max(axis=0) - dam.lmp.min(axis=0)).max())


def objective_order(outcomes, gap):
    """without <= nf <= proposed, each within the clearing gap."""
    obj = {v: o.dam.objective for v, o in outcomes.items()}
    out = []
    for lo, hi in (("without", "nf"), ("nf", "proposed")):
        slack = 2 * gap * max(abs(obj[lo]), abs(obj[hi])) + 1e-6
        out += expect(obj[lo] <= obj[hi] + slack,
                     f"objective {lo}={obj[lo]:.2f} above {hi}={obj[hi]:.2f}")
    return out


def same_objective(a, b, gap):
    return abs(a - b) <= 2 * gap * max(abs(a), abs(b)) + 1e-6


def settlement(report):
    values = [report.consumer_payment, report.da_consumer_leg, report.rt_consumer_leg]
    out = expect(np.all(np.isfinite(values)), "settlement not finite")
    out += expect(np.all(report.uplift >= 0.0), "negative uplift")
    out += expect(report.curtailment_mw >= -MW_TOL, "negative curtailment")
    return out


def real_time(instance, dam, realization, trace):
    """Binding-subperiod balance and ramp limits, window boundaries included."""
    k = instance.time_grid.subperiods_per_hour
    residual = (trace.dispatch.sum(axis=0) + trace.curtailment.sum(axis=0)
                - np.asarray(realization).sum(axis=0))
    out = expect(np.abs(residual).max() <= MW_TOL,
                f"{dam.variant}/{trace.realization_id}: real-time balance off by "
                f"{np.abs(residual).max():.3g} MW")

    dgs = instance.dgs
    p_min = np.array([d.p_min for d in dgs])
    ru = np.array([d.ramp_up for d in dgs]) / k
    rd = np.array([d.ramp_down for d in dgs]) / k
    su = np.array([d.startup_rate for d in dgs])
    cw = np.array([d.shutdown_rate for d in dgs]) - rd - p_min
    t_total = trace.p_above.shape[1]
    hour = np.arange(t_total) // k
    first = (np.arange(t_total) % k) == 0
    u = dam.u[:, hour].astype(float)
    v = dam.v[:, hour] * first
    w = dam.w[:, hour] * first
    p = np.column_stack([[d.init_power_above_min for d in dgs], trace.p_above])
    u_prev = np.column_stack([[float(d.init_committed) for d in dgs], u[:, :-1]])
    step = p[:, 1:] - p[:, :-1]
    up_lim = ru[:, None] * u_prev + (su - p_min)[:, None] * v
    down_lim = rd[:, None] * u_prev + cw[:, None] * w
    bad = (step > up_lim + MW_TOL) | (step < -down_lim - MW_TOL)
    out += expect(not bad.any(),
                 f"{dam.variant}/{trace.realization_id}: ramp limit broken at "
                 f"subperiods {np.flatnonzero(bad.any(axis=0))[:5].tolist()}")
    return out
