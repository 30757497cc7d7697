"""The benchmark's tracer (perfbench/tracer.py) still finds every name it wraps."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
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


def test_tracer_installs_and_counts_lp_solves():
    # In a subprocess, so that the patched modules do not leak into the
    # other tests.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    res = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
