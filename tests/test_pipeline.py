"""Orchestration: lazy stages, caching, determinism, reports, and the CLI."""

import json
import os

import numpy as np
import pytest

from rampmarket.cli import main
from rampmarket.damc import CI95, NF, PROPOSED, WITHOUT
from rampmarket.instance import (instance_from_dict, instance_to_dict,
                                 load_instance, save_instance)
from rampmarket.pipeline import (RunConfig, emit_report, format_table,
                                 run_experiment, solve_suc_stage,
                                 sweep_sample_size)

from conftest import make_dg, make_instance, sinusoid_load


def small_instance():
    """Six-hour, single-node system that clears in well under a second."""
    base = sinusoid_load(6, 4, base=60.0, swing=15.0)
    dgs = (
        make_dg(id="g1", node="n1", min_up=1, min_down=1),
        make_dg(id="g2", node="n1", p_max=60.0, p_min=5.0,
                segments=((60.0, 22.0),), no_load_cost=100.0,
                startup_cost=200.0, ramp_up=120.0, ramp_down=120.0,
                startup_rate=60.0, shutdown_rate=60.0, min_up=1, min_down=1,
                init_committed=0, init_power_above_min=0.0, init_hours_off=3),
    )
    return make_instance(("n1",), (), dgs, base[None, :], hours=6,
                         sigma_fraction=0.03)


@pytest.fixture
def inst_path(tmp_path):
    path = tmp_path / "small.json"
    save_instance(small_instance(), path)
    return str(path)


def _config(inst_path, tmp_path, **kw):
    base = dict(instance_path=inst_path, seed=0, scenarios=3,
                eval_scenarios=2, out_dir=str(tmp_path / "out"))
    base.update(kw)
    return RunConfig(**base)


def test_config_validation(inst_path, tmp_path):
    with pytest.raises(ValueError):
        _config(inst_path, tmp_path, scenarios=0)
    with pytest.raises(ValueError):
        _config(inst_path, tmp_path, variants=())
    with pytest.raises(ValueError):
        _config(inst_path, tmp_path, variants=("bogus",))


def test_without_only_skips_suc(inst_path, tmp_path):
    cfg = _config(inst_path, tmp_path, variants=(WITHOUT,))
    report = run_experiment(cfg)
    assert set(report.outcomes) == {WITHOUT}
    assert np.isnan(report.suc_expected_cost)
    cache_dir = os.path.join(cfg.out_dir, "cache")
    assert not os.path.isdir(cache_dir) or not os.listdir(cache_dir)


def test_ci95_only_skips_suc(inst_path, tmp_path):
    cfg = _config(inst_path, tmp_path, variants=(CI95,))
    report = run_experiment(cfg)
    assert set(report.outcomes) == {CI95}
    assert "ci95" in report.requirements
    assert "suc_based" not in report.requirements


def test_suc_stage_caching(inst_path, tmp_path):
    from rampmarket.instance import load_instance

    cfg = _config(inst_path, tmp_path)
    inst = load_instance(inst_path)
    sol1, scen1 = solve_suc_stage(inst, cfg)
    cache_dir = os.path.join(cfg.out_dir, "cache")
    assert len(os.listdir(cache_dir)) == 1
    sol2, scen2 = solve_suc_stage(inst, cfg)
    assert np.array_equal(sol1.u, sol2.u)
    assert sol1.expected_total_cost == sol2.expected_total_cost
    assert np.array_equal(scen1.realizations, scen2.realizations)
    # A different seed must key a different cache entry.
    solve_suc_stage(inst, _config(inst_path, tmp_path, seed=1))
    assert len(os.listdir(cache_dir)) == 2


def test_full_run_all_variants(inst_path, tmp_path):
    cfg = _config(inst_path, tmp_path)
    report = run_experiment(cfg)
    assert set(report.outcomes) == {PROPOSED, NF, CI95, WITHOUT}
    for out in report.outcomes.values():
        assert np.isfinite(out.total_payment)
        assert out.total_curtailment >= 0.0
        assert out.avg_lmp_per_subperiod.shape == (24,)
        assert len(out.reports) == 2


def test_end_to_end_determinism(inst_path, tmp_path):
    cfg = _config(inst_path, tmp_path, variants=(NF, WITHOUT))
    r1 = run_experiment(cfg, use_cache=False)
    r2 = run_experiment(cfg, use_cache=False)
    p1 = emit_report(r1, fmt="structured", out_dir=str(tmp_path / "a"))[0]
    p2 = emit_report(r2, fmt="structured", out_dir=str(tmp_path / "b"))[0]
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_emit_structured_and_csv(inst_path, tmp_path):
    cfg = _config(inst_path, tmp_path, variants=(WITHOUT, CI95))
    report = run_experiment(cfg)
    files = emit_report(report, fmt="structured")
    doc = json.load(open(files[0]))
    assert doc["config"]["seed"] == 0
    assert set(doc["variants"]) == {WITHOUT, CI95}
    files = emit_report(report, fmt="csv")
    names = {os.path.basename(f) for f in files}
    assert {"comparison.csv", "avg_rt_lmp.csv", "commitment.csv"} <= names
    body = open([f for f in files if f.endswith("comparison.csv")][0]).read()
    assert "without" in body
    with pytest.raises(ValueError):
        emit_report(report, fmt="bogus")


def test_format_table_lists_each_variant(inst_path, tmp_path):
    cfg = _config(inst_path, tmp_path, variants=(WITHOUT,))
    report = run_experiment(cfg)
    table = format_table(report)
    assert "without" in table
    assert "total payment" in table


def test_sweep_sample_size(inst_path, tmp_path):
    cfg = _config(inst_path, tmp_path)
    totals = sweep_sample_size(cfg, [2, 4])
    assert sorted(totals) == [2, 4]
    assert all(np.isfinite(v) for v in totals.values())


# -- command-line interface --------------------------------------------


def test_cli_sample_and_prefix(inst_path, tmp_path):
    out = str(tmp_path / "cli")
    rc = main(["sample", "--instance", inst_path, "--out", out,
               "--scenarios", "4", "--seed", "3"])
    assert rc == 0
    with np.load(os.path.join(out, "scenarios_in_sample.npz")) as z:
        assert z["realizations"].shape == (4, 1, 24)


def test_cli_suc_frp_damc(inst_path, tmp_path):
    out = str(tmp_path / "cli")
    common = ["--instance", inst_path, "--out", out, "--scenarios", "3"]
    assert main(["suc"] + common) == 0
    doc = json.load(open(os.path.join(out, "suc_result.json")))
    assert np.isfinite(doc["expected_total_cost"])

    assert main(["frp"] + common) == 0
    rows = json.load(open(os.path.join(out, "frp_requirements.json")))
    assert len(rows) == 6
    assert rows[0]["source"] == "suc_based"

    assert main(["damc", "--variant", "nf"] + common) == 0
    doc = json.load(open(os.path.join(out, "damc_nf.json")))
    assert doc["variant"] == "nf"
    assert len(doc["price_up"]) == 6


def test_cli_evaluate_and_settle_alias(inst_path, tmp_path):
    out = str(tmp_path / "cli")
    common = ["--instance", inst_path, "--out", out, "--scenarios", "3",
              "--eval-scenarios", "2"]
    assert main(["evaluate", "--variant", "without"] + common) == 0
    doc = json.load(open(os.path.join(out, "evaluation_without.json")))
    assert doc["eval_scenarios"] == 2
    assert main(["settle", "--variant", "without"] + common) == 0


def test_cli_run_emits_reports(inst_path, tmp_path, capsys):
    out = str(tmp_path / "cli")
    rc = main(["run", "--instance", inst_path, "--out", out,
               "--scenarios", "3", "--eval-scenarios", "2",
               "--variants", "nf,without"])
    assert rc == 0
    assert "without" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "comparison.csv"))


def test_cli_sweep_r(inst_path, tmp_path):
    out = str(tmp_path / "cli")
    rc = main(["sweep-r", "--instance", inst_path, "--out", out,
               "--eval-scenarios", "2", "--r-values", "2,3"])
    assert rc == 0
    doc = json.load(open(os.path.join(out, "payment_vs_samples.json")))
    assert set(doc) == {"2", "3"}


def test_cli_validation_error_exit_code(tmp_path):
    rc = main(["suc", "--instance", str(tmp_path / "missing.json")])
    assert rc == 2


def test_cli_bad_instance_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    rc = main(["suc", "--instance", str(bad)])
    assert rc == 2


def test_run_experiment_on_half_hour_subperiods(tmp_path):
    # A 6-hour copy of case14 on a 30-minute grid (K=2): the rolling
    # dispatch windows (2K), binding spans (K) and the settlement follow
    # the instance's grid.
    from importlib import resources

    doc = instance_to_dict(load_instance(
        str(resources.files("rampmarket.data") / "case14.json")))
    kk, hours = 2, 6
    k0 = doc["grid"]["subperiods_per_hour"]
    doc["grid"] = {"subperiods_per_hour": kk, "hours": hours}
    doc["mean_net_load"] = {
        node: np.reshape(load[:hours * k0], (hours * kk, -1)).mean(axis=1).tolist()
        for node, load in doc["mean_net_load"].items()}
    path = tmp_path / "case14_k2.json"
    save_instance(instance_from_dict(doc), path)
    cfg = RunConfig(instance_path=str(path), seed=3, scenarios=1,
                    eval_scenarios=1, out_dir=str(tmp_path / "out"))
    report = run_experiment(cfg, use_cache=False)
    for outcome in report.outcomes.values():
        assert outcome.avg_lmp_per_subperiod.shape == (hours * kk,)
        assert np.isfinite(outcome.total_payment)
        assert abs(outcome.reports[0].congestion_residual) < 1e-6 * max(
            1.0, abs(outcome.total_payment))
