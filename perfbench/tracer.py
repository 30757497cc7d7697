"""Span recorder that wraps rampmarket's public functions from outside.

Nothing in the package is edited: ``install`` replaces module attributes
with wrappers at the call sites the pipeline actually uses (for example
``fmm.active_line_indices`` rather than ``network.active_line_indices``,
because ``fmm`` imported the name).  Each call becomes one span
``[name, start, end, parent, run_id]`` kept in memory; ``write`` dumps
them when the run ends.  ``layer_metrics`` reduces the spans of the
measured rounds to the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = "setup"
        self.counts = defaultdict(list)  # (run_id, counter) -> values
        self.fmm_calls = []  # (dam, realization, trace) of the current round
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter()

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr, name, note=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), note))

    def count(self, counter, value):
        self.counts[(self.run_id, counter)].append(value)

    def install(self):
        """Wrap every traced call site.  Call once, before the set-up."""
        from rampmarket import (damc, fmm, frp, instance, milp, network,
                                pipeline, settlement, suc)

        self.patch(instance, "load_instance", "instance.load")
        self.patch(pipeline, "load_instance", "instance.load")
        self.patch(network, "compute_isf", "network.isf")
        self.patch(pipeline, "compute_isf", "network.isf")
        for mod in (suc, damc, fmm):
            self.patch(mod, "active_line_indices", "network.screen",
                       lambda a, k, r: self.count("lines_monitored", len(r)))
        self.patch(pipeline, "sample_scenarios", "scenario.sample",
                   lambda a, k, r: self.count("draws", r.count))
        self.patch(pipeline, "_load_cached_suc", "pipeline.cache_read")
        self.patch(pipeline, "build_suc", "suc.build", self._note_suc_size)
        self.patch(pipeline, "solve_suc", "suc.solve")
        self.patch(frp, "compute_frp_requirements", "frp.requirements")
        self.patch(damc, "build_damc", "damc.build",
                   lambda a, k, r: self.count("damc_rows", r.builder.n_constrs))
        self.patch(damc, "solve_and_price", "damc.price")
        self.patch(milp, "solve", "milp.milp")
        self.patch(milp, "solve_lp", "milp.lp")
        self.patch(milp, "fix_and_relax_duals", "milp.lp")
        self.patch(milp, "_scipy_milp", "milp.backend")
        self.patch(milp, "linprog", "milp.backend")
        self.patch(pipeline, "run_fmm_sequence", "fmm.sequence",
                   lambda a, k, r: self.fmm_calls.append((a[2], a[3], r)))
        self.patch(settlement, "settle", "settlement.settle")
        self.patch(pipeline, "run_experiment", "pipeline.run_experiment")

    def _note_suc_size(self, args, kwargs, model):
        b = model.builder
        self.count("suc_vars", b.n_vars)
        self.count("suc_rows", b.n_constrs)
        self.count("suc_nnz", sum(v.size for v in b._vals))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fh)
            fh.write("\n")

    # -- reduction -------------------------------------------------------

    def _durations(self, run_id):
        """Per name: list of span durations, and self time (minus children)."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[RUN] == run_id and s[PARENT] is not None:
                child_time[s[PARENT]] += s[END] - s[START]
        total = defaultdict(list)
        self_time = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[RUN] != run_id:
                continue
            d = s[END] - s[START]
            total[s[NAME]].append(d)
            self_time[s[NAME]] += d - child_time[i]
        return total, self_time

    def layer_metrics(self, round_ids):
        """Per-layer metrics: per-round sums and counts, means over rounds."""
        setup, _ = self._durations("setup")
        per_round = []
        lp_all, seq_all = [], []
        for rid in round_ids:
            total, self_time = self._durations(rid)
            lp_all += total["milp.lp"]
            seq_all += total["fmm.sequence"]

            def s(name):
                return sum(total[name])

            def c(counter, reduce=sum):
                values = self.counts.get((rid, counter), [])
                return reduce(values) if values else 0

            per_round.append({
                "scenario.sample_s": s("scenario.sample"),
                "scenario.draws": c("draws"),
                "suc.build_s": s("suc.build"),
                "suc.solve_s": s("suc.solve"),
                "suc.vars": c("suc_vars", max),
                "suc.rows": c("suc_rows", max),
                "suc.nnz": c("suc_nnz", max),
                "frp.requirements_s": s("frp.requirements"),
                "damc.build_s": s("damc.build"),
                "damc.price_s": s("damc.price"),
                "damc.calls": len(total["damc.price"]),
                "damc.rows": c("damc_rows", max),
                "milp.milp_calls": len(total["milp.milp"]),
                "milp.milp_s": s("milp.milp"),
                "milp.lp_calls": len(total["milp.lp"]),
                "milp.lp_s": s("milp.lp"),
                "milp.backend_s": s("milp.backend"),
                "milp.self_s": self_time["milp.milp"] + self_time["milp.lp"],
                "network.screen_s": s("network.screen"),
                "network.screen_calls": len(total["network.screen"]),
                "network.lines_monitored": c("lines_monitored", max),
                "fmm.sequences": len(total["fmm.sequence"]),
                "fmm.self_s": self_time["fmm.sequence"],
                "settlement.reports": len(total["settlement.settle"]),
                "settlement.settle_s": s("settlement.settle"),
                "pipeline.cache_read_s": s("pipeline.cache_read"),
                "pipeline.self_s": self_time["pipeline.run_experiment"],
            })
        out = {
            "instance.load_s": sum(setup["instance.load"]),
            "network.isf_s": sum(setup["network.isf"]),
        }
        for key in per_round[0]:
            out[key] = statistics.fmean(r[key] for r in per_round)
        out["milp.lp_p50_s"] = _quantile(lp_all, 0.50)
        out["milp.lp_p95_s"] = _quantile(lp_all, 0.95)
        out["fmm.sequence_p50_s"] = _quantile(seq_all, 0.50)
        out["fmm.sequence_p95_s"] = _quantile(seq_all, 0.95)
        return out

    def share(self, round_ids, name, of):
        """Median over rounds of the time in ``name`` spans nested inside
        ``of`` spans, as a share of the time in ``of`` spans."""
        ratios = []
        for rid in round_ids:
            part = whole = 0.0
            for s in self.spans:
                if s[RUN] != rid:
                    continue
                if s[NAME] == of:
                    whole += s[END] - s[START]
                elif s[NAME] == name and self._inside(s, of):
                    part += s[END] - s[START]
            ratios.append(part / whole)
        return statistics.median(ratios)

    def _inside(self, span, name):
        while span[PARENT] is not None:
            span = self.spans[span[PARENT]]
            if span[NAME] == name:
                return True
        return False


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
