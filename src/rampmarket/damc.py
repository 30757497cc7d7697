"""Hourly day-ahead clearing with ramping-product procurement and pricing.

Four variants are supported:

* ``PROPOSED``  - requirements from the stochastic pass, commitments
  anchored from below to the stochastic solution's hourly commitments.
* ``NF``        - same requirements, no commitment anchoring.
* ``CI95``      - requirements from the hourly net-load confidence
  interval, no anchoring.
* ``WITHOUT``   - no ramping products at all.

Prices come from the standard pricing pass: solve the MILP, fix the
binaries, relax, and read the duals.  The nodal demand-fixing equalities
carry the energy prices; the two system-wide requirement rows carry the
ramping-product prices.  Requirement rows are soft with shortfall
variables penalized at the instance's shortfall price, which therefore
caps both prices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import milp
from .frp import CI95 as CI95_SOURCE
from .frp import SUC_BASED
from .network import active_line_indices
from .suc import add_commitment_logic, _padded_segments, _rows

PROPOSED = "proposed"
NF = "nf"
CI95 = "ci95"
WITHOUT = "without"
VARIANTS = (PROPOSED, NF, CI95, WITHOUT)


class MissingInput(Exception):
    """Variant prerequisites (requirements / commitment anchor) absent."""


@dataclass(eq=False)
class DamModel:
    builder: milp.ModelBuilder
    instance: object
    variant: str
    u_idx: np.ndarray  # (G, 24)
    v_idx: np.ndarray
    w_idx: np.ndarray
    p_idx: np.ndarray
    ps_idx: np.ndarray  # (G, S, 24)
    pc_idx: np.ndarray  # (N, 24)
    d_idx: np.ndarray  # (N, 24)
    r_up_idx: np.ndarray  # (G, 24) or None for WITHOUT
    r_dn_idx: np.ndarray
    sh_up_idx: np.ndarray  # (24,) or None
    sh_dn_idx: np.ndarray
    lmp_handles: np.ndarray  # (N, 24) constraint handles
    frp_up_handles: np.ndarray  # (24,) or None
    frp_dn_handles: np.ndarray
    seg_costs: np.ndarray


@dataclass(eq=False)
class DamResult:
    variant: str
    u: np.ndarray  # (G, 24)
    v: np.ndarray
    w: np.ndarray
    p: np.ndarray  # (G, 24) MW above minimum
    ps: np.ndarray
    pc: np.ndarray  # (N, 24)
    r_up: np.ndarray  # (G, 24), zeros for WITHOUT
    r_down: np.ndarray
    shortfall_up: np.ndarray  # (24,)
    shortfall_down: np.ndarray
    lmp: np.ndarray  # (N, 24) $/MWh
    price_up: np.ndarray  # (24,) $/MWh
    price_down: np.ndarray
    objective: float

    def total_output(self):
        """Scheduled MW per DG per hour including minimum-load output."""
        return self.p + self.u * self._p_min[:, None]

    _p_min: np.ndarray = None


def _needs(variant, req, suc_solution):
    if variant == PROPOSED:
        if req is None or req.source != SUC_BASED:
            raise MissingInput("proposed variant needs stochastic-pass requirements")
        if suc_solution is None:
            raise MissingInput("proposed variant needs the stochastic commitment")
    elif variant == NF:
        if req is None or req.source != SUC_BASED:
            raise MissingInput("nf variant needs stochastic-pass requirements")
    elif variant == CI95:
        if req is None or req.source != CI95_SOURCE:
            raise MissingInput("ci95 variant needs confidence-interval requirements")
    elif variant != WITHOUT:
        raise MissingInput(f"unknown variant {variant!r}")


def build_damc(instance, isf, d_hat, req=None, suc_solution=None, variant=PROPOSED,
               verbatim_ramp_down=False):
    """Assemble the hourly clearing MILP for one variant."""
    _needs(variant, req, suc_solution)
    with_frp = variant != WITHOUT

    HOURS = instance.time_grid.hours_count
    gcount, ncount = instance.n_dgs, instance.n_nodes
    b = milp.ModelBuilder()
    seg_costs, seg_widths = _padded_segments(instance)
    scount = seg_costs.shape[1]

    u = b.add_vars(gcount * HOURS, 0, 1, integer=True).reshape(gcount, HOURS)
    v = b.add_vars(gcount * HOURS, 0, 1, integer=True).reshape(gcount, HOURS)
    w = b.add_vars(gcount * HOURS, 0, 1, integer=True).reshape(gcount, HOURS)
    add_commitment_logic(b, instance, u, v, w, steps_per_hour=1)

    p = b.add_vars(gcount * HOURS).reshape(gcount, HOURS)
    ps = b.add_vars(gcount * scount * HOURS,
                    ub=np.repeat(seg_widths.ravel(), HOURS)
                    ).reshape(gcount, scount, HOURS)
    pc_ub = np.maximum(0.0, d_hat.d_hat).ravel()
    pc = b.add_vars(ncount * HOURS, ub=pc_ub).reshape(ncount, HOURS)
    d = b.add_vars(ncount * HOURS, lb=-np.inf).reshape(ncount, HOURS)

    p_min = np.array([g.p_min for g in instance.dgs])
    p_max = np.array([g.p_max for g in instance.dgs])
    p_span = p_max - p_min
    ru = np.array([g.ramp_up for g in instance.dgs])
    rd = np.array([g.ramp_down for g in instance.dgs])
    su = np.array([g.startup_rate for g in instance.dgs])
    sd = np.array([g.shutdown_rate for g in instance.dgs])
    u0 = np.array([float(g.init_committed) for g in instance.dgs])
    p0 = np.array([g.init_power_above_min for g in instance.dgs])
    cw = (su - ru - p_min) if verbatim_ramp_down else (sd - rd - p_min)

    # Capacity and full-hour ramping (mirrors the subperiod model at K=1).
    m = gcount * HOURS
    _rows(b, [p, u], [1.0, np.repeat(-p_span, HOURS)], milp.LE, np.zeros(m))
    _rows(b, [p[:, 0], v[:, 0]], [1.0, -(su - p_min)], milp.LE, p0 + ru * u0)
    _rows(b, [p[:, 0], w[:, 0]], [1.0, cw], milp.GE, p0 - rd * u0)
    m = gcount * (HOURS - 1)
    _rows(b, [p[:, 1:], p[:, :-1], u[:, :-1], v[:, 1:]],
          [1.0, -1.0, np.repeat(-ru, HOURS - 1), np.repeat(-(su - p_min), HOURS - 1)],
          milp.LE, np.zeros(m))
    _rows(b, [p[:, 1:], p[:, :-1], u[:, :-1], w[:, 1:]],
          [1.0, -1.0, np.repeat(rd, HOURS - 1), np.repeat(cw, HOURS - 1)],
          milp.GE, np.zeros(m))
    m = gcount * HOURS
    _rows(b, [p] + [ps[:, s, :] for s in range(scount)],
          [1.0] + [-1.0] * scount, milp.EQ, np.zeros(m))

    # Nodal balance with demand as a variable, plus the demand-fixing
    # equalities whose duals are the energy prices.
    node_of = np.array([instance.node_index(g.node) for g in instance.dgs])
    _rows(b, [p.T, u.T, pc.T, d.T],
          [1.0, np.tile(p_min, (HOURS, 1)), 1.0, -1.0],
          milp.EQ, np.zeros(HOURS))
    lmp_handles = _rows(b, [d], [1.0], milp.EQ, d_hat.d_hat.ravel()).reshape(
        ncount, HOURS)

    monitored = active_line_indices(isf, instance, d_hat.d_hat)
    psi = isf.psi[monitored]
    lcount = psi.shape[0]
    if lcount:
        psi_g = psi[:, node_of]
        fmax = np.array([ln.flow_max for ln in instance.lines])[monitored]
        fmin = np.array([ln.flow_min for ln in instance.lines])[monitored]
        for sense, lim in ((milp.LE, fmax), (milp.GE, fmin)):
            m = lcount * HOURS
            _rows(
                b,
                [np.broadcast_to(p, (lcount, gcount, HOURS)).transpose(0, 2, 1),
                 np.broadcast_to(u, (lcount, gcount, HOURS)).transpose(0, 2, 1),
                 np.broadcast_to(pc, (lcount, ncount, HOURS)).transpose(0, 2, 1),
                 np.broadcast_to(d, (lcount, ncount, HOURS)).transpose(0, 2, 1)],
                [np.repeat(psi_g, HOURS, axis=0).reshape(lcount, HOURS, gcount),
                 np.repeat(psi_g * p_min, HOURS, axis=0).reshape(lcount, HOURS, gcount),
                 np.repeat(psi, HOURS, axis=0).reshape(lcount, HOURS, ncount),
                 np.repeat(-psi, HOURS, axis=0).reshape(lcount, HOURS, ncount)],
                sense, np.broadcast_to(lim[:, None], (lcount, HOURS)).ravel())

    r_up = r_dn = sh_up = sh_dn = None
    frp_up_handles = frp_dn_handles = None
    if with_frp:
        r_up = b.add_vars(gcount * HOURS, lb=-np.inf).reshape(gcount, HOURS)
        r_dn = b.add_vars(gcount * HOURS, lb=-np.inf).reshape(gcount, HOURS)
        sh_up = b.add_vars(HOURS)
        sh_dn = b.add_vars(HOURS)

        # Hour-25 boundary policy: the next-hour terms for the last hour
        # reuse hour 24's commitment with no startup or shutdown event.
        for h in range(HOURS):
            last = h == HOURS - 1
            u_n = u[:, h] if last else u[:, h + 1]
            for gi in range(gcount):
                v_n = None if last else v[gi, h + 1]
                w_n = None if last else w[gi, h + 1]

                def with_next(cols, vals, vcoef, wcoef):
                    cols, vals = list(cols), list(vals)
                    if v_n is not None and vcoef:
                        cols.append(v_n)
                        vals.append(vcoef)
                    if w_n is not None and wcoef:
                        cols.append(w_n)
                        vals.append(wcoef)
                    return cols, vals

                # Award bounds from commitment around the hour boundary.
                cols, vals = with_next([r_up[gi, h], u_n[gi]], [1.0, -ru[gi]],
                                       -(su[gi] - ru[gi]), 0.0)
                b.add_constr(cols, vals, milp.LE, 0.0)
                cols, vals = with_next([r_up[gi, h], u[gi, h]], [1.0, rd[gi]],
                                       -p_min[gi], -(rd[gi] - sd[gi]))
                b.add_constr(cols, vals, milp.GE, 0.0)
                cols, vals = with_next([r_dn[gi, h], u[gi, h]], [1.0, -rd[gi]],
                                       p_min[gi], -(sd[gi] - rd[gi]))
                b.add_constr(cols, vals, milp.LE, 0.0)
                cols, vals = with_next([r_dn[gi, h], u_n[gi]], [1.0, ru[gi]],
                                       -(ru[gi] - su[gi]), 0.0)
                b.add_constr(cols, vals, milp.GE, 0.0)

                # Joint energy/award capacity around the hour boundary.
                for r_var, r_sign in ((r_up[gi, h], 1.0), (r_dn[gi, h], -1.0)):
                    cols, vals = with_next(
                        [r_var, p[gi, h], u[gi, h]], [r_sign, 1.0, p_min[gi]],
                        -(su[gi] - p_max[gi]), 0.0)
                    b.add_constr(cols, vals, milp.LE, p_max[gi])
                    cols, vals = with_next(
                        [r_var, p[gi, h], u_n[gi]], [r_sign, 1.0, -p_min[gi]],
                        0.0, 0.0)
                    b.add_constr(cols, vals, milp.GE, -p_min[gi])

        frp_up_handles = np.empty(HOURS, dtype=np.int64)
        frp_dn_handles = np.empty(HOURS, dtype=np.int64)
        for h in range(HOURS):
            frp_up_handles[h] = b.add_constr(
                np.append(r_up[:, h], sh_up[h]), np.ones(gcount + 1),
                milp.GE, req.rho_up[h])
            frp_dn_handles[h] = b.add_constr(
                np.append(r_dn[:, h], sh_dn[h]), np.ones(gcount + 1),
                milp.GE, req.rho_down[h])
        b.add_objective_terms(sh_up, np.full(HOURS, instance.frp_shortfall_penalty))
        b.add_objective_terms(sh_dn, np.full(HOURS, instance.frp_shortfall_penalty))

    if variant == PROPOSED:
        kk = instance.time_grid.subperiods_per_hour
        anchor = suc_solution.hourly_commitment(kk)  # (G, 24)
        for gi in range(gcount):
            for h in range(HOURS):
                if anchor[gi, h] > 0.5:
                    b.set_var_bounds(u[gi, h], 1.0, 1.0)

    alpha_u = np.array([g.no_load_cost for g in instance.dgs])
    alpha_v = np.array([g.startup_cost for g in instance.dgs])
    b.add_objective_terms(u, np.repeat(alpha_u, HOURS))
    b.add_objective_terms(v, np.repeat(alpha_v, HOURS))
    b.add_objective_terms(ps, np.repeat(seg_costs.ravel(), HOURS))
    b.add_objective_terms(pc, np.full(pc.size, instance.curtailment_penalty))

    return DamModel(
        builder=b, instance=instance, variant=variant,
        u_idx=u, v_idx=v, w_idx=w, p_idx=p, ps_idx=ps, pc_idx=pc, d_idx=d,
        r_up_idx=r_up, r_dn_idx=r_dn, sh_up_idx=sh_up, sh_dn_idx=sh_dn,
        lmp_handles=lmp_handles,
        frp_up_handles=frp_up_handles, frp_dn_handles=frp_dn_handles,
        seg_costs=seg_costs,
    )


def solve_and_price(model, gap=milp.DEFAULT_GAP, time_limit=None):
    """Solve the clearing MILP, then run the pricing pass for duals.

    Both solves share one assembly of the builder.
    """
    lp = model.builder.assemble()
    sol = milp.solve(lp, gap=gap, time_limit=time_limit)
    if not sol.optimal:
        raise milp.BackendError(f"clearing solve ended {sol.status}")
    _, duals = milp.fix_and_relax_duals(lp, sol, rel_tol=max(1e-5, 10 * gap))

    x = sol.x
    gcount = model.u_idx.shape[0]
    lmp = duals[model.lmp_handles]
    if model.frp_up_handles is not None:
        price_up = duals[model.frp_up_handles]
        price_dn = duals[model.frp_dn_handles]
        r_up = x[model.r_up_idx]
        r_dn = x[model.r_dn_idx]
        sh_up = x[model.sh_up_idx]
        sh_dn = x[model.sh_dn_idx]
    else:
        hcount = model.u_idx.shape[1]
        price_up = np.zeros(hcount)
        price_dn = np.zeros(hcount)
        r_up = np.zeros((gcount, hcount))
        r_dn = np.zeros((gcount, hcount))
        sh_up = np.zeros(hcount)
        sh_dn = np.zeros(hcount)

    res = DamResult(
        variant=model.variant,
        u=np.round(x[model.u_idx]).astype(int),
        v=np.round(x[model.v_idx]).astype(int),
        w=np.round(x[model.w_idx]).astype(int),
        p=x[model.p_idx], ps=x[model.ps_idx], pc=x[model.pc_idx],
        r_up=r_up, r_down=r_dn,
        shortfall_up=sh_up, shortfall_down=sh_dn,
        lmp=lmp, price_up=price_up, price_down=price_dn,
        objective=sol.objective_value,
    )
    res._p_min = np.array([g.p_min for g in model.instance.dgs])
    return res
