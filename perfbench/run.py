"""rampmarket benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload case14 --seed 1 --seconds 56 --trace 0

A run is a closed loop with one caller.  After the set-up (imports, the
instance loaded, shift factors computed) it repeats whole rounds until
``--seconds`` have passed.  A round makes ``clears`` clearings, each from
its own draw (``RunConfig.seed = 1000 * seed + clears * round + c``), then
one study on the last of them:

* clear: what ``rampmarket damc --variant proposed`` does -- in-sample
  sampling and the stochastic commitment in a fresh output directory (a
  cache miss), the requirements, then the proposed clearing and its
  pricing pass;
* evaluate: ``run_experiment`` on all four designs in the same directory,
  so the first pass is read back from the hash cache.

With ``--trace 0`` nothing is wrapped and the last stdout line carries the
end-to-end metrics; with ``--trace 1`` every layer is wrapped (see
tracer.py), the per-layer metrics are printed instead, a breakdown goes to
stderr and the spans to ``perfbench/out/``.  See README.md.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time


def process_age():
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "rampmarket", "__init__.py")):
    sys.exit(f"rampmarket sources not found under {SRC}")
sys.path[:0] = [SRC, HERE]

from rampmarket import damc, frp, network, pipeline
from rampmarket import instance as instance_mod

import numpy as np

import checks
import congested
from tracer import END, NAME, RUN, START, Tracer

CASE14 = os.path.join(SRC, "rampmarket", "data", "case14.json")
CONGESTED = os.path.join(ROOT, "perfbench", "data", "congested_grid.json")
OUT = os.path.join(ROOT, "perfbench", "out")

# Pinned so that a change of the program's defaults cannot trade accuracy
# for speed.
SOLVER_GAP = 1e-6
SUC_SOLVER_GAP = 3e-2

WORKLOADS = {
    # Each clearing is one stochastic commitment MILP, which also sets
    # peak_rss_mb; each study is mostly the rolling dispatch, hundreds of
    # small LPs.
    "case14": dict(instance=CASE14, scenarios=4, clears=1,
                   eval_scenarios=8, congested=False),
    # Every line monitored: network rows in the SUC, clearing and dispatch.
    "congested_grid": dict(instance=CONGESTED, scenarios=1, clears=2,
                           eval_scenarios=2, congested=True),
}

MIN_PRICE_SEPARATION = 1.0  # $/MWh across nodes in some hour, congested_grid


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Round:
    """Operations of one round and the ones that failed."""

    def __init__(self, spec):
        self.ops = [f"{op}:{c}" for c in range(spec["clears"])
                    for op in ("first_pass", "clear")]
        self.ops += [f"dam:{v}" for v in damc.VARIANTS]
        self.ops += [f"rt:{v}:{i}" for v in damc.VARIANTS
                     for i in range(spec["eval_scenarios"])]
        self.failed = set()
        self.wrong = []  # check failures: outputs that are not correct

    def check(self, op, messages):
        if messages:
            self.failed.add(op)
            self.wrong += [f"{op}: {m}" for m in messages]

    def abort(self, exc):
        """The program raised: every operation of the round counts as failed."""
        print(f"round aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
        self.failed.update(self.ops)


def clear(instance, isf, config):
    """What ``rampmarket damc --variant proposed`` does after its set-up."""
    suc_sol, scen = pipeline.solve_suc_stage(instance, config, isf)
    req = frp.compute_frp_requirements(scen, suc_sol,
                                       instance.time_grid.subperiods_per_hour)
    d_hat = instance_mod.compute_hourly_bid_demand(instance)
    model = damc.build_damc(instance, isf, d_hat, req=req, suc_solution=suc_sol,
                            variant=damc.PROPOSED)
    dam = damc.solve_and_price(model, gap=config.solver_gap,
                               time_limit=config.time_limit)
    return suc_sol, scen, req, dam


def check_clear(rnd, c, spec, instance, isf, scen, suc_sol, req, dam):
    rho = (req.rho_up, req.rho_down)
    rnd.check(f"first_pass:{c}", checks.first_pass(instance, scen, suc_sol, req))
    rnd.check(f"clear:{c}", checks.clearing(instance, dam, rho)
              + checks.proposed_anchor(instance, dam, suc_sol))
    bid = instance_mod.compute_hourly_bid_demand(instance).d_hat
    monitored = max(len(network.active_line_indices(isf, instance, scen.realizations)),
                    len(network.active_line_indices(isf, instance, bid)))
    separation = checks.price_separation(dam)
    if spec["congested"]:
        ok = monitored > 0 and separation >= MIN_PRICE_SEPARATION
    else:
        ok = monitored == 0 and separation <= 1e-6
    rnd.check(f"clear:{c}", checks.expect(
        ok, f"{monitored} lines monitored, nodal prices {separation:.3g} $/MWh apart"))
    return monitored, separation


def check_evaluate(rnd, instance, report, suc_sol, req, dam, tracer):
    outcomes = report.outcomes
    rho = (req.rho_up, req.rho_down)
    req_of = {damc.PROPOSED: rho, damc.NF: rho, damc.CI95: report.requirements["ci95"],
              damc.WITHOUT: None}
    for variant, outcome in outcomes.items():
        rnd.check(f"dam:{variant}", checks.clearing(instance, outcome.dam, req_of[variant]))
        for r in outcome.reports:
            rnd.check(f"rt:{variant}:{r.realization_id}", checks.settlement(r))
    gap = report.config.solver_gap
    rnd.check("dam:proposed", checks.objective_order(outcomes, gap))
    read_back = (checks.same_objective(outcomes[damc.PROPOSED].dam.objective,
                                       dam.objective, gap)
                 and all(np.array_equal(a, b) for a, b in
                         zip(report.requirements["suc_based"], rho))
                 and report.suc_expected_cost == suc_sol.expected_total_cost)
    rnd.check("dam:proposed", checks.expect(
        read_back, "evaluation disagrees with the clearing it read back from the cache"))
    if tracer:
        for dam_v, realization, trace in tracer.fmm_calls:
            rnd.check(f"rt:{dam_v.variant}:{trace.realization_id}",
                      checks.real_time(instance, dam_v, realization, trace))


def run_round(j, args, spec, instance, isf, tracer, round_dir):
    """One round: ``clears`` clearings, then the study on the last one."""
    rnd = Round(spec)
    if tracer:
        tracer.fmm_calls.clear()
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    record = {"clear_s": []}
    try:
        for c in range(spec["clears"]):
            config = pipeline.RunConfig(
                instance_path=spec["instance"],
                seed=1000 * args.seed + spec["clears"] * j + c,
                scenarios=spec["scenarios"], eval_scenarios=spec["eval_scenarios"],
                variants=damc.VARIANTS, solver_gap=SOLVER_GAP,
                suc_solver_gap=SUC_SOLVER_GAP,
                out_dir=os.path.join(round_dir, f"clear{c}"))
            with span("bench.clear"):
                t0 = time.perf_counter()
                suc_sol, scen, req, dam = clear(instance, isf, config)
                record["clear_s"].append(time.perf_counter() - t0)
            record["monitored"], record["separation"] = check_clear(
                rnd, c, spec, instance, isf, scen, suc_sol, req, dam)
        with span("bench.evaluate"):
            t0 = time.perf_counter()
            report = pipeline.run_experiment(config)
            record["evaluate_s"] = time.perf_counter() - t0
        check_evaluate(rnd, instance, report, suc_sol, req, dam, tracer)
    except Exception as exc:  # a program error fails the round's operations
        rnd.abort(exc)
        return rnd, None
    record["suc_cost"] = suc_sol.expected_total_cost
    record["objectives"] = {v: o.dam.objective for v, o in report.outcomes.items()}
    record["payments"] = {v: o.total_payment for v, o in report.outcomes.items()}
    return rnd, record


def main(argv=None):
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    instance = instance_mod.load_instance(spec["instance"])
    isf = network.compute_isf(instance)
    setup_s = process_age()

    wrong = []
    if spec["congested"] and congested.main(["--check"]) != 0:
        wrong.append("perfbench/data/congested_grid.json differs from congested.py")

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    attempted = failed = 0
    records, round_ids = [], []
    start = time.perf_counter()
    try:
        j = 0
        # Start another round while at least half of it fits in --seconds,
        # so that runs end, on average, at --seconds.
        while j == 0 or (time.perf_counter() - start) * (j + 0.5) / j < args.seconds:
            if tracer:
                tracer.run_id = f"{args.workload}/{args.seed}/{j}"
            round_dir = os.path.join(work_dir, f"round{j}")
            rnd, record = run_round(j, args, spec, instance, isf, tracer, round_dir)
            shutil.rmtree(round_dir, ignore_errors=True)
            attempted += len(rnd.ops)
            failed += len(rnd.failed)
            wrong += rnd.wrong
            if record:
                records.append(record)
                if tracer:
                    round_ids.append(tracer.run_id)
            j += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for msg in wrong:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    if not records:
        print("no round completed", file=sys.stderr)
        return 3

    if tracer:
        values = tracer.layer_metrics(round_ids)
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in values.items()}
        trace_path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")
        tracer.write(trace_path)
        _breakdown(tracer, round_ids, trace_path)
    else:
        # Each clearing and each study sees its own draw.  The mean of the
        # middle half of the run's operations is the time of a typical one;
        # a hard draw or a burst of load from other tenants of the host moves
        # it less than it moves the mean.
        clear_s = middle_mean([t for r in records for t in r["clear_s"]])
        evaluate_s = middle_mean([r["evaluate_s"] for r in records])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "clear_s": {"value": clear_s, "unit": "s"},
            "evaluate_s": {"value": evaluate_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        for r in records:
            print("clear_s " + " ".join(f"{t:.3f}" for t in r["clear_s"])
                  + f" | evaluate_s {r['evaluate_s']:.3f}", file=sys.stderr)
    last = records[-1]
    print(f"rounds={len(records)} lines_monitored={last['monitored']} "
          f"price_separation={last['separation']:.3f} means over rounds: "
          f"suc_cost={statistics.fmean(r['suc_cost'] for r in records):.2f} "
          + " ".join(f"{v}: obj={statistics.fmean(r['objectives'][v] for r in records):.2f} "
                     f"pay={statistics.fmean(r['payments'][v] for r in records):.2f}"
                     for v in last["payments"]), file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def middle_mean(values):
    """Mean of the values left when the lowest and the highest quarter are
    dropped."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


def _unit(name):
    if name.endswith("_s"):
        return "s"
    return "count"


def _breakdown(tracer, round_ids, trace_path):
    """Traced phase times and the share of them their main layers take (stderr)."""
    for phase in ("bench.clear", "bench.evaluate"):
        spans = [s[END] - s[START] for s in tracer.spans
                 if s[NAME] == phase and s[RUN] in round_ids]
        print(f"traced {phase}: mean {statistics.fmean(spans):.4f} s over {len(spans)}",
              file=sys.stderr)
    for part, whole in (("suc.solve", "bench.clear"), ("milp.milp", "bench.clear"),
                        ("fmm.sequence", "bench.evaluate"), ("milp.lp", "bench.evaluate"),
                        ("damc.price", "bench.evaluate")):
        print(f"traced share of {whole} in {part}: "
              f"{tracer.share(round_ids, part, whole):.3f}", file=sys.stderr)
    print(f"trace spans written to {trace_path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
