"""End-to-end experiment orchestration.

sample -> stochastic commitment -> requirement derivation -> day-ahead
clearing (one or more variants) -> rolling real-time evaluation over the
out-of-sample realizations -> settlement -> comparison report.  All
randomness flows from the single config seed through the scenario
module's counter scheme, so a (instance, config) pair pins every artifact
byte-for-byte in single-threaded solver mode.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import damc as damc_mod
from . import frp as frp_mod
from . import settlement as settle_mod
from .fmm import run_fmm_sequence
from .instance import compute_hourly_bid_demand, instance_to_dict, load_instance
from .milp import DEFAULT_GAP

#: Relative MIP gap for the stochastic commitment pass.  The extensive-form
#: problem has a weak LP relaxation (fractional startups), so proving near-zero
#: gaps costs minutes of branching for commitment decisions that stop changing
#: far earlier; the clearing solves keep the tight default because their duals
#: feed prices.
SUC_DEFAULT_GAP = 3e-2
from .network import compute_isf
from .scenario import IN_SAMPLE, OUT_OF_SAMPLE, sample_scenarios
from .suc import build_suc, solve_suc


class IoError(Exception):
    pass


@dataclass
class RunConfig:
    instance_path: str
    seed: int = 0
    scenarios: int = 100  # in-sample count R
    eval_scenarios: int = 50  # out-of-sample count R'
    variants: tuple = damc_mod.VARIANTS
    solver_gap: float = DEFAULT_GAP
    suc_solver_gap: float = SUC_DEFAULT_GAP
    time_limit: float = None
    verbatim_ramp_mode: bool = False
    out_dir: str = "out"

    def __post_init__(self):
        if self.scenarios < 1 or self.eval_scenarios < 1:
            raise ValueError("scenario counts must be >= 1")
        if not self.variants:
            raise ValueError("at least one variant required")
        for vr in self.variants:
            if vr not in damc_mod.VARIANTS:
                raise ValueError(f"unknown variant {vr!r}")


@dataclass(eq=False)
class VariantOutcome:
    variant: str
    dam: object
    total_payment: float
    total_curtailment: float
    avg_lmp_per_subperiod: np.ndarray  # (96,), bus average, realization mean
    reports: list


@dataclass(eq=False)
class ComparisonReport:
    config: RunConfig
    outcomes: dict  # variant -> VariantOutcome
    suc_expected_cost: float
    requirements: dict  # source tag -> (rho_up, rho_down)


def _suc_cache_key(config, instance):
    payload = json.dumps(
        [instance_to_dict(instance), config.seed, config.scenarios,
         config.verbatim_ramp_mode, config.suc_solver_gap],
        sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _load_cached_suc(path):
    from .suc import SucSolution

    with np.load(path) as z:
        return SucSolution(
            u=z["u"], v=z["v"], w=z["w"], p=z["p"], ps=z["ps"], pc=z["pc"],
            expected_total_cost=float(z["expected_total_cost"]),
            first_stage_cost=float(z["first_stage_cost"]),
            per_scenario_stage2_cost=z["per_scenario_stage2_cost"],
        )


def _store_cached_suc(path, sol):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(
        path, u=sol.u, v=sol.v, w=sol.w, p=sol.p, ps=sol.ps, pc=sol.pc,
        expected_total_cost=sol.expected_total_cost,
        first_stage_cost=sol.first_stage_cost,
        per_scenario_stage2_cost=sol.per_scenario_stage2_cost,
    )


def solve_suc_stage(instance, config, isf=None, use_cache=True):
    """In-sample sampling plus the stochastic commitment solve, hash-cached."""
    isf = isf if isf is not None else compute_isf(instance)
    scen = sample_scenarios(instance, config.scenarios, config.seed, IN_SAMPLE)
    cache_path = os.path.join(
        config.out_dir, "cache", f"suc_{_suc_cache_key(config, instance)}.npz")
    if use_cache and os.path.exists(cache_path):
        return _load_cached_suc(cache_path), scen
    model = build_suc(instance, isf, scen,
                      verbatim_ramp_down=config.verbatim_ramp_mode)
    sol = solve_suc(model, gap=config.suc_solver_gap,
                    time_limit=config.time_limit)
    if use_cache:
        _store_cached_suc(cache_path, sol)
    return sol, scen


def run_experiment(config, use_cache=True):
    """Run the configured variants end to end and assemble the comparison."""
    instance = load_instance(config.instance_path)
    isf = compute_isf(instance)
    d_hat = compute_hourly_bid_demand(instance)
    kk = instance.time_grid.subperiods_per_hour

    needs_suc = any(v in (damc_mod.PROPOSED, damc_mod.NF) for v in config.variants)
    suc_sol = None
    requirements = {}
    suc_req = None
    if needs_suc:
        suc_sol, in_scen = solve_suc_stage(instance, config, isf, use_cache)
        suc_req = frp_mod.compute_frp_requirements(in_scen, suc_sol, kk)
        requirements[frp_mod.SUC_BASED] = suc_req
    ci_req = None
    if damc_mod.CI95 in config.variants:
        ci_req = frp_mod.compute_ci95_requirements(instance, d_hat)
        requirements[frp_mod.CI95] = ci_req

    eval_scen = sample_scenarios(
        instance, config.eval_scenarios, config.seed, OUT_OF_SAMPLE)

    outcomes = {}
    for variant in config.variants:
        req = {damc_mod.PROPOSED: suc_req, damc_mod.NF: suc_req,
               damc_mod.CI95: ci_req, damc_mod.WITHOUT: None}[variant]
        model = damc_mod.build_damc(
            instance, isf, d_hat, req=req,
            suc_solution=suc_sol if variant == damc_mod.PROPOSED else None,
            variant=variant, verbatim_ramp_down=config.verbatim_ramp_mode)
        dam = damc_mod.solve_and_price(
            model, gap=config.solver_gap, time_limit=config.time_limit)

        reports = []
        lmp_accum = np.zeros(instance.time_grid.total_subperiods)
        for i in range(eval_scen.count):
            realization = eval_scen.realizations[i]
            trace = run_fmm_sequence(
                instance, isf, dam, realization, realization_id=i,
                verbatim_ramp_down=config.verbatim_ramp_mode)
            reports.append(settle_mod.settle(dam, trace, instance, realization))
            lmp_accum += trace.lmp.mean(axis=0)
        total_payment, total_curtailment = settle_mod.aggregate(reports)
        outcomes[variant] = VariantOutcome(
            variant=variant, dam=dam,
            total_payment=total_payment,
            total_curtailment=total_curtailment,
            avg_lmp_per_subperiod=lmp_accum / eval_scen.count,
            reports=reports,
        )

    return ComparisonReport(
        config=config,
        outcomes=outcomes,
        suc_expected_cost=suc_sol.expected_total_cost if suc_sol else float("nan"),
        requirements={k: (v.rho_up, v.rho_down) for k, v in requirements.items()},
    )


def sweep_sample_size(config, r_values, use_cache=True):
    """Re-run the proposed variant across in-sample counts; returns totals."""
    from dataclasses import replace

    totals = {}
    for r in r_values:
        cfg = replace(config, scenarios=int(r), variants=(damc_mod.PROPOSED,))
        report = run_experiment(cfg, use_cache=use_cache)
        totals[int(r)] = report.outcomes[damc_mod.PROPOSED].total_payment
    return totals


# -- report emission --------------------------------------------------


def _report_dict(report):
    cfg = asdict(report.config)
    cfg["variants"] = list(cfg["variants"])
    return {
        "config": cfg,
        "suc_expected_cost": report.suc_expected_cost,
        "requirements": {
            k: {"rho_up": up.tolist(), "rho_down": dn.tolist()}
            for k, (up, dn) in report.requirements.items()
        },
        "variants": {
            name: {
                "total_payment": out.total_payment,
                "total_curtailment": out.total_curtailment,
                "damc_objective": out.dam.objective,
                "hourly_commitment": out.dam.u.tolist(),
                "lmp": out.dam.lmp.tolist(),
                "price_up": out.dam.price_up.tolist(),
                "price_down": out.dam.price_down.tolist(),
                "avg_rt_lmp_per_subperiod": out.avg_lmp_per_subperiod.tolist(),
            }
            for name, out in report.outcomes.items()
        },
    }


def emit_report(report, fmt="table", out_dir=None, sweep_totals=None):
    """Write the comparison report; returns the list of files written.

    ``table`` prints to stdout and writes nothing; ``csv`` writes one file
    per figure analogue; ``structured`` writes a single JSON document that
    embeds the run configuration for provenance.
    """
    out_dir = out_dir or report.config.out_dir
    doc = _report_dict(report)
    written = []
    if fmt == "table":
        print(format_table(report))
        return written
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "structured":
        path = os.path.join(out_dir, "report.json")
        try:
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise IoError(str(exc)) from exc
        return [path]
    if fmt == "csv":
        try:
            path = os.path.join(out_dir, "comparison.csv")
            with open(path, "w") as fh:
                fh.write("variant,total_payment,total_curtailment_mw\n")
                for name, out in report.outcomes.items():
                    fh.write(f"{name},{out.total_payment:.2f},"
                             f"{out.total_curtailment:.4f}\n")
            written.append(path)
            path = os.path.join(out_dir, "avg_rt_lmp.csv")
            with open(path, "w") as fh:
                fh.write("subperiod," + ",".join(report.outcomes) + "\n")
                series = np.column_stack(
                    [o.avg_lmp_per_subperiod for o in report.outcomes.values()])
                for t in range(series.shape[0]):
                    fh.write(f"{t + 1}," + ",".join(
                        f"{v:.4f}" for v in series[t]) + "\n")
            written.append(path)
            path = os.path.join(out_dir, "commitment.csv")
            with open(path, "w") as fh:
                fh.write("variant,dg,hour,committed\n")
                for name, out in report.outcomes.items():
                    for gi in range(out.dam.u.shape[0]):
                        for h in range(out.dam.u.shape[1]):
                            fh.write(f"{name},{gi},{h + 1},{out.dam.u[gi, h]}\n")
            written.append(path)
            if sweep_totals:
                path = os.path.join(out_dir, "payment_vs_samples.csv")
                with open(path, "w") as fh:
                    fh.write("sample_count,total_payment\n")
                    for r, total in sorted(sweep_totals.items()):
                        fh.write(f"{r},{total:.2f}\n")
                written.append(path)
        except OSError as exc:
            raise IoError(str(exc)) from exc
        return written
    raise ValueError(f"unknown report format {fmt!r}")


def format_table(report):
    lines = [f"{'variant':<10} {'total payment':>18} {'curtailment (MW)':>18}"]
    for name, out in report.outcomes.items():
        lines.append(
            f"{name:<10} {out.total_payment:>18,.2f} {out.total_curtailment:>18.4f}")
    return "\n".join(lines)
