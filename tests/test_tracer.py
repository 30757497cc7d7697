"""The benchmark's tracer (perfbench/tracer.py) still finds every name it wraps."""

import os
import subprocess
import sys

from rampmarket.instance import save_instance

from conftest import small_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LP_SCRIPT = """
from tracer import Tracer
from rampmarket import milp

tracer = Tracer()
tracer.install()
b = milp.ModelBuilder()
x = b.add_var()
b.add_constr([x], [1.0], milp.GE, 2.0)
b.add_objective_terms([x], [1.0])
milp.solve_lp(b)
assert [s[0] for s in tracer.spans] == ["milp.lp"], tracer.spans
"""

STUDY_SCRIPT = """
import sys
from collections import Counter
from tracer import Tracer
from rampmarket import pipeline

tracer = Tracer()
tracer.install()
config = pipeline.RunConfig(instance_path=sys.argv[1], seed=0, scenarios=3,
                            eval_scenarios=2, variants=("nf", "without"),
                            out_dir=sys.argv[2])
pipeline.run_experiment(config)
spans = Counter(s[0] for s in tracer.spans)
expected = {"pipeline.run_experiment": 1, "scenario.sample": 2, "suc.build": 1,
            "suc.solve": 1, "frp.requirements": 1, "damc.build": 2,
            "damc.price": 2, "fmm.sequence": 4, "settlement.settle": 4}
assert {k: spans[k] for k in expected} == expected, spans
assert len(tracer.fmm_calls) == 4, tracer.fmm_calls
for dam, realization, trace in tracer.fmm_calls:
    assert dam.variant in ("nf", "without") and realization.shape == (1, 24)
"""


def _run(script, *argv):
    # In a subprocess, so that the patched modules do not leak into the
    # other tests.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    res = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def test_tracer_installs_and_counts_lp_solves():
    _run(LP_SCRIPT)


def test_tracer_sees_every_layer_of_a_study(tmp_path):
    # Each per-layer metric reads spans at the call sites run_experiment
    # uses; a call site that moves would leave its metric at zero.
    path = tmp_path / "small.json"
    save_instance(small_instance(), path)
    _run(STUDY_SCRIPT, str(path), str(tmp_path / "out"))
