"""Rolling real-time dispatch against a fixed day-ahead commitment.

One dispatch LP per hour of the horizon for each realization: each run
starts at the top of an hour, sees a two-hour window of 2K subperiods
(K = the instance's subperiods per hour) with the realized net load
(perfect short-horizon foresight), and only its first K subperiods are
binding.  Commitments are frozen to the day-ahead schedule; the window
past the last hour reuses that hour's commitment and repeats the final
realized hour.  Nodal prices come from the duals of the demand-fixing
equalities of each pure LP.

The windows of a sequence share their constraint matrix, objective and
row senses, so ``run_fmm_sequence`` assembles the window LP once and
solves each window by swapping in its column bounds and right-hand
sides, all computed up front except the first-subperiod ramp limits,
which depend on the previous window's binding dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import milp
from .network import active_line_indices
from .suc import _padded_segments, _rows


class DimensionMismatch(Exception):
    pass


class InfeasibleFmm(Exception):
    """Dispatch LP infeasible despite curtailment slack; bug signal."""


@dataclass(eq=False)
class FmmRun:
    start_hour: int  # 1-based
    commitment: np.ndarray  # (G, 2K)
    dispatch: np.ndarray  # (G, 2K) total MW incl. minimum-load output
    p_above: np.ndarray  # (G, 2K)
    curtailment: np.ndarray  # (N, 2K)
    lmp: np.ndarray  # (N, 2K) $/MWh
    objective: float
    binding_subperiods: int  # K
    horizon_subperiods: int  # 2K


@dataclass(eq=False)
class FmmTrace:
    realization_id: int
    runs: list
    dispatch: np.ndarray  # (G, H*K) binding total MW
    p_above: np.ndarray  # (G, H*K)
    curtailment: np.ndarray  # (N, H*K) binding MW
    lmp: np.ndarray  # (N, H*K) binding $/MWh
    commitment: np.ndarray  # (G, H*K)


def _subperiod_commitment(dam, kk):
    """Expand hourly commitments to subperiods, padding one advisory hour."""
    gcount, hcount = dam.u.shape
    horizon = (hcount + 1) * kk
    hours = np.minimum(np.arange(horizon) // kk, hcount - 1)
    u = dam.u[:, hours].astype(float)
    v = np.zeros((gcount, horizon))
    w = np.zeros((gcount, horizon))
    # Startup/shutdown events land on the first subperiod of their hour.
    v[:, ::kk][:, :hcount] = dam.v
    w[:, ::kk][:, :hcount] = dam.w
    return u, v, w


def _per_window(a):
    """(X, H, ...) per-window values -> (H, X*...) rows in builder order."""
    return np.moveaxis(a, 1, 0).reshape(a.shape[1], a.size // a.shape[1])


def run_fmm_sequence(instance, isf, dam, realization, realization_id=0,
                     verbatim_ramp_down=False):
    """Execute the hourly rolling dispatch runs for one realized trajectory."""
    ncount, gcount = instance.n_nodes, instance.n_dgs
    kk = instance.time_grid.subperiods_per_hour
    hcount = instance.time_grid.hours_count
    window, binding = 2 * kk, kk
    t_total = hcount * kk
    realization = np.asarray(realization, dtype=float)
    if realization.shape != (ncount, t_total):
        raise DimensionMismatch(
            f"realization must be ({ncount}, {t_total}), got {realization.shape}")

    # Pad the advisory hour past the horizon with the last realized hour.
    xi = np.concatenate([realization, realization[:, -kk:]], axis=1)
    u_sub, v_sub, w_sub = _subperiod_commitment(dam, kk)

    seg_costs, seg_widths = _padded_segments(instance)
    scount = seg_costs.shape[1]
    p_min = np.array([g.p_min for g in instance.dgs])
    p_span = np.array([g.p_max - g.p_min for g in instance.dgs])
    ru = np.array([g.ramp_up for g in instance.dgs]) / kk
    rd = np.array([g.ramp_down for g in instance.dgs]) / kk
    su = np.array([g.startup_rate for g in instance.dgs])
    sd = np.array([g.shutdown_rate for g in instance.dgs])
    cw = (su - ru - p_min) if verbatim_ramp_down else (sd - rd - p_min)
    node_of = np.array([instance.node_index(g.node) for g in instance.dgs])
    monitored = active_line_indices(isf, instance, xi)
    psi = isf.psi[monitored]
    lcount = psi.shape[0]
    psi_g = psi[:, node_of]
    fmax = np.array([ln.flow_max for ln in instance.lines])[monitored]
    fmin = np.array([ln.flow_min for ln in instance.lines])[monitored]
    duration = 1.0 / kk

    # The window LP: variables, matrix and objective, built once.
    b = milp.ModelBuilder()
    p = b.add_vars(gcount * window).reshape(gcount, window)
    ps = b.add_vars(gcount * scount * window,
                    ub=np.repeat(seg_widths.ravel(), window)
                    ).reshape(gcount, scount, window)
    pc = b.add_vars(ncount * window).reshape(ncount, window)
    d = b.add_vars(ncount * window, lb=-np.inf).reshape(ncount, window)
    m = gcount * (window - 1)
    _rows(b, [p[:, 1:], p[:, :-1]], [1.0, -1.0], milp.LE, np.zeros(m))
    _rows(b, [p[:, 1:], p[:, :-1]], [1.0, -1.0], milp.GE, np.zeros(m))
    _rows(b, [p] + [ps[:, s, :] for s in range(scount)],
          [1.0] + [-1.0] * scount, milp.EQ, np.zeros(gcount * window))
    _rows(b, [p.T, pc.T, d.T], [1.0, 1.0, -1.0], milp.EQ, np.zeros(window))
    lmp_rows = _rows(b, [d], [1.0], milp.EQ, np.zeros(ncount * window)
                     ).reshape(ncount, window)
    for sense in (milp.LE, milp.GE):
        _rows(
            b,
            [np.broadcast_to(p, (lcount, gcount, window)).transpose(0, 2, 1),
             np.broadcast_to(pc, (lcount, ncount, window)).transpose(0, 2, 1),
             np.broadcast_to(d, (lcount, ncount, window)).transpose(0, 2, 1)],
            [np.repeat(psi_g, window, axis=0).reshape(lcount, window, gcount),
             np.repeat(psi, window, axis=0).reshape(lcount, window, ncount),
             np.repeat(-psi, window, axis=0).reshape(lcount, window, ncount)],
            sense, np.zeros(lcount * window))
    b.add_objective_terms(ps, duration * np.repeat(seg_costs.ravel(), window))
    b.add_objective_terms(
        pc, np.full(pc.size, duration * instance.curtailment_penalty))
    lp = b.assemble()

    # Per-window numbers, (G|N|L, H, 2K): window h covers padded
    # subperiods h*K .. h*K + 2K - 1.
    sub = kk * np.arange(hcount)[:, None] + np.arange(window)
    uw, vw, ww, xw = u_sub[:, sub], v_sub[:, sub], w_sub[:, sub], xi[:, sub]
    committed_min = p_min[:, None, None] * uw
    fixed = (psi_g @ committed_min.reshape(gcount, -1)).reshape(lcount, hcount, window)
    rhs = np.concatenate([
        _per_window(ru[:, None, None] * uw[:, :, :-1]
                    + (su - p_min)[:, None, None] * vw[:, :, 1:]),
        _per_window(-rd[:, None, None] * uw[:, :, :-1]
                    - cw[:, None, None] * ww[:, :, 1:]),
        np.zeros((hcount, gcount * window)),
        -committed_min.sum(axis=0),
        _per_window(xw),
        _per_window(fmax[:, None, None] - fixed),
        _per_window(fmin[:, None, None] - fixed),
    ], axis=1)
    p_ub = p_span[:, None, None] * uw
    pc_ub = np.maximum(0.0, xw)

    p_prev = np.array([g.init_power_above_min for g in instance.dgs])
    u_prev = np.array([float(g.init_committed) for g in instance.dgs])

    runs = []
    bind_p = np.zeros((gcount, t_total))
    bind_c = np.zeros((ncount, t_total))
    bind_lmp = np.zeros((ncount, t_total))

    for h0 in range(hcount):
        lb, ub = lp.lb.copy(), lp.ub.copy()
        ub[p] = p_ub[:, h0]
        ub[pc] = pc_ub[:, h0]
        # First-subperiod ramp limits fold into the bounds of p[:, 0].
        up0 = p_prev + ru * u_prev + (su - p_min) * vw[:, h0, 0]
        lo0 = p_prev - rd * u_prev - cw * ww[:, h0, 0]
        ub[p[:, 0]] = np.minimum(p_ub[:, h0, 0], up0)
        lb[p[:, 0]] = np.maximum(0.0, lo0)

        try:
            sol, duals = milp.solve_lp(lp.with_numbers(rhs=rhs[h0], lb=lb, ub=ub))
        except milp.RelaxationInfeasible as exc:
            raise InfeasibleFmm(
                f"dispatch LP for hour {h0 + 1} failed: {exc}") from exc

        x = sol.x
        p_val = x[p]
        pc_val = x[pc]
        lmp = duals[lmp_rows] / duration  # duals are $ per MW-subperiod; report $/MWh
        u_run = uw[:, h0]
        runs.append(FmmRun(
            start_hour=h0 + 1, commitment=u_run, dispatch=p_val + committed_min[:, h0],
            p_above=p_val, curtailment=pc_val, lmp=lmp,
            objective=sol.objective_value,
            binding_subperiods=binding, horizon_subperiods=window,
        ))
        bind = slice(h0 * kk, h0 * kk + binding)
        bind_p[:, bind] = p_val[:, :binding]
        bind_c[:, bind] = pc_val[:, :binding]
        bind_lmp[:, bind] = lmp[:, :binding]

        p_prev = p_val[:, binding - 1]
        u_prev = u_run[:, binding - 1]

    commitment = u_sub[:, :t_total]
    return FmmTrace(
        realization_id=realization_id,
        runs=runs,
        dispatch=bind_p + p_min[:, None] * commitment,
        p_above=bind_p,
        curtailment=bind_c,
        lmp=bind_lmp,
        commitment=commitment,
    )
