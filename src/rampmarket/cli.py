"""Command-line entry points for the market simulation pipeline.

Stages write their results into the output directory so later stages (or
re-runs) can pick them up; the stochastic commitment is hash-cached, so
rerunning a downstream stage does not repeat the expensive solve.

Exit codes: 0 success, 2 input/validation error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import damc as damc_mod
from . import frp as frp_mod
from . import milp
from . import pipeline as pipeline_mod
from .fmm import InfeasibleFmm
from .instance import (ParseError, ValidationError, compute_hourly_bid_demand,
                       load_instance)
from .network import SingularNetworkError, compute_isf
from .pipeline import (RunConfig, clear_variant, emit_report, first_pass,
                       run_experiment, solve_suc_stage, sweep_sample_size)
from .scenario import IN_SAMPLE, OUT_OF_SAMPLE, sample_scenarios
from .suc import InfeasibleSuc

VALIDATION_ERRORS = (ParseError, ValidationError, ValueError,
                     damc_mod.MissingInput, frp_mod.DimensionMismatch,
                     SingularNetworkError)
SOLVER_ERRORS = (milp.BackendError, milp.RelaxationInfeasible,
                 InfeasibleSuc, InfeasibleFmm)


def _common(parser):
    parser.add_argument("--instance", required=True, help="instance file path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--solver-gap", type=float, default=milp.DEFAULT_GAP,
                        help="relative MIP gap for the clearing solves")
    parser.add_argument("--suc-solver-gap", type=float,
                        default=pipeline_mod.SUC_DEFAULT_GAP,
                        help="relative MIP gap for the stochastic commitment")
    parser.add_argument("--time-limit", type=float, default=None)
    parser.add_argument("--verbatim-ramps", action="store_true",
                        help="reproduce the original ramp-down coefficients")


def _config(args, variants=None):
    return RunConfig(
        instance_path=args.instance,
        seed=args.seed,
        scenarios=getattr(args, "scenarios", 100),
        eval_scenarios=getattr(args, "eval_scenarios", 50),
        variants=tuple(variants) if variants else damc_mod.VARIANTS,
        solver_gap=args.solver_gap,
        suc_solver_gap=args.suc_solver_gap,
        time_limit=args.time_limit,
        verbatim_ramp_mode=args.verbatim_ramps,
        out_dir=args.out,
    )


def _write_json(path, doc):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)


def cmd_sample(args):
    instance = load_instance(args.instance)
    scen = sample_scenarios(instance, args.scenarios, args.seed, args.purpose)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"scenarios_{args.purpose}.npz")
    np.savez_compressed(path, realizations=scen.realizations,
                        seed=scen.seed, purpose=scen.purpose_tag)
    print(path)


def cmd_suc(args):
    instance = load_instance(args.instance)
    config = _config(args)
    sol, _ = solve_suc_stage(instance, config)
    kk = instance.time_grid.subperiods_per_hour
    _write_json(os.path.join(args.out, "suc_result.json"), {
        "expected_total_cost": sol.expected_total_cost,
        "first_stage_cost": sol.first_stage_cost,
        "per_scenario_stage2_cost": sol.per_scenario_stage2_cost.tolist(),
        "hourly_commitment": sol.hourly_commitment(kk).tolist(),
        "mean_curtailment_mw": float(sol.pc.mean(axis=0).sum()),
    })


def cmd_frp(args):
    instance = load_instance(args.instance)
    config = _config(args)
    sol, scen = solve_suc_stage(instance, config)
    req = frp_mod.compute_frp_requirements(
        scen, sol, instance.time_grid.subperiods_per_hour)
    rows = [{"hour": h + 1, "rho_up": req.rho_up[h], "rho_down": req.rho_down[h],
             "source": req.source} for h in range(req.rho_up.size)]
    _write_json(os.path.join(args.out, "frp_requirements.json"), rows)


def cmd_damc(args):
    instance = load_instance(args.instance)
    config = _config(args, variants=[args.variant])
    isf = compute_isf(instance)
    d_hat = compute_hourly_bid_demand(instance)
    suc_sol, requirements = first_pass(instance, isf, d_hat, config)
    dam = clear_variant(instance, isf, d_hat, args.variant, suc_sol,
                        requirements, config)
    _write_json(os.path.join(args.out, f"damc_{args.variant}.json"), {
        "variant": dam.variant,
        "objective": dam.objective,
        "hourly_commitment": dam.u.tolist(),
        "schedule_mw": dam.p_total.tolist(),
        "lmp": dam.lmp.tolist(),
        "price_up": dam.price_up.tolist(),
        "price_down": dam.price_down.tolist(),
        "shortfall_up": dam.shortfall_up.tolist(),
        "shortfall_down": dam.shortfall_down.tolist(),
    })


def cmd_evaluate(args):
    config = _config(args, variants=[args.variant])
    outcome = run_experiment(config).outcomes[args.variant]
    _write_json(os.path.join(args.out, f"evaluation_{args.variant}.json"), {
        "variant": args.variant,
        "eval_scenarios": config.eval_scenarios,
        "total_payment": outcome.total_payment,
        "total_curtailment_mw": outcome.total_curtailment,
        "per_realization": [
            {"realization": r.realization_id,
             "consumer_payment": r.consumer_payment,
             "curtailment_mw": r.curtailment_mw,
             "uplift_total": float(r.uplift.sum())}
            for r in outcome.reports
        ],
    })


def cmd_run(args):
    config = _config(args, variants=args.variants.split(","))
    report = run_experiment(config)
    emit_report(report, fmt="table")
    for fmt in ("structured", "csv"):
        emit_report(report, fmt=fmt)


def cmd_sweep(args):
    config = _config(args, variants=[damc_mod.PROPOSED])
    r_values = [int(r) for r in args.r_values.split(",")]
    totals = sweep_sample_size(config, r_values)
    _write_json(os.path.join(args.out, "payment_vs_samples.json"), totals)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rampmarket",
        description="Two-pass day-ahead ramping-product market simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw net-load realizations")
    _common(sp)
    sp.add_argument("--scenarios", type=int, default=100)
    sp.add_argument("--purpose", choices=(IN_SAMPLE, OUT_OF_SAMPLE),
                    default=IN_SAMPLE)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("suc", help="solve the stochastic commitment")
    _common(sp)
    sp.add_argument("--scenarios", type=int, default=100)
    sp.set_defaults(func=cmd_suc)

    sp = sub.add_parser("frp", help="derive hourly ramping requirements")
    _common(sp)
    sp.add_argument("--scenarios", type=int, default=100)
    sp.set_defaults(func=cmd_frp)

    sp = sub.add_parser("damc", help="clear the day-ahead market")
    _common(sp)
    sp.add_argument("--scenarios", type=int, default=100)
    sp.add_argument("--variant", choices=damc_mod.VARIANTS, required=True)
    sp.set_defaults(func=cmd_damc)

    sp = sub.add_parser("evaluate", help="rolling real-time evaluation")
    _common(sp)
    sp.add_argument("--scenarios", type=int, default=100)
    sp.add_argument("--eval-scenarios", type=int, default=50)
    sp.add_argument("--variant", choices=damc_mod.VARIANTS, required=True)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("settle", help="alias of evaluate (settled totals)")
    _common(sp)
    sp.add_argument("--scenarios", type=int, default=100)
    sp.add_argument("--eval-scenarios", type=int, default=50)
    sp.add_argument("--variant", choices=damc_mod.VARIANTS, required=True)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("run", help="full pipeline over all variants")
    _common(sp)
    sp.add_argument("--scenarios", type=int, default=100)
    sp.add_argument("--eval-scenarios", type=int, default=50)
    sp.add_argument("--variants", default=",".join(damc_mod.VARIANTS))
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep-r", help="payment vs in-sample count sweep")
    _common(sp)
    sp.add_argument("--eval-scenarios", type=int, default=50)
    sp.add_argument("--r-values", default="5,10,20,50,100")
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
