"""Shared fixture builders for the test suite.

All fixtures are built programmatically so each test can tweak the piece
it cares about; ``make_dg``/``make_instance`` provide sensible defaults
and keyword overrides.
"""

import numpy as np
import pytest

from rampmarket.instance import Dg, Line, SystemInstance, TimeGrid


def make_dg(**kw):
    base = dict(
        id="g1",
        node="n1",
        p_max=80.0,
        p_min=10.0,
        segments=((40.0, 18.0), (80.0, 25.0)),
        no_load_cost=300.0,
        startup_cost=800.0,
        ramp_up=40.0,
        ramp_down=40.0,
        startup_rate=30.0,
        shutdown_rate=30.0,
        min_up=2,
        min_down=2,
        init_committed=1,
        init_power_above_min=5.0,
        init_hours_on=6,
        init_hours_off=0,
    )
    base.update(kw)
    return Dg(**base)


def sinusoid_load(hours, k_per_hour, base=60.0, swing=20.0, phase=0.0):
    t = hours * k_per_hour
    x = np.linspace(0.0, 2.0 * np.pi, t, endpoint=False) + phase
    return base + swing * np.sin(x)


def make_instance(nodes, lines, dgs, mean_net_load, k_per_hour=4, hours=24,
                  sigma_fraction=0.05, alpha_c=500.0, alpha_r=450.0,
                  reference_node=None):
    return SystemInstance(
        time_grid=TimeGrid(k_per_hour, hours),
        nodes=tuple(nodes),
        lines=tuple(lines),
        dgs=tuple(dgs),
        mean_net_load=np.asarray(mean_net_load, dtype=float),
        sigma_fraction=sigma_fraction,
        curtailment_penalty=alpha_c,
        frp_shortfall_penalty=alpha_r,
        reference_node=reference_node or nodes[0],
    )


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
def single_node():
    """One node, two DGs, no network; K=4, full day."""
    load = sinusoid_load(24, 4, base=70.0, swing=25.0)[None, :]
    dgs = (
        make_dg(id="g1", node="n1"),
        make_dg(id="g2", node="n1", p_max=60.0, p_min=5.0,
                segments=((60.0, 22.0),), no_load_cost=100.0,
                startup_cost=200.0, ramp_up=120.0, ramp_down=120.0,
                startup_rate=60.0, shutdown_rate=60.0, min_up=1, min_down=1,
                init_committed=0, init_power_above_min=0.0, init_hours_on=0,
                init_hours_off=3),
    )
    return make_instance(("n1",), (), dgs, load)


@pytest.fixture
def two_node():
    """Two nodes joined by one line; K=4, full day."""
    base = sinusoid_load(24, 4, base=60.0, swing=20.0)
    load = np.vstack([0.6 * base, 0.4 * base])
    dgs = (
        make_dg(id="g1", node="a"),
        make_dg(id="g2", node="b", p_max=60.0, p_min=5.0,
                segments=((60.0, 22.0),), no_load_cost=100.0,
                startup_cost=200.0, ramp_up=120.0, ramp_down=120.0,
                startup_rate=60.0, shutdown_rate=60.0, min_up=1, min_down=1,
                init_committed=0, init_power_above_min=0.0, init_hours_on=0,
                init_hours_off=3),
    )
    lines = (Line("l1", "a", "b", 0.1, -70.0, 70.0),)
    return make_instance(("a", "b"), lines, dgs, load)


@pytest.fixture
def ring3():
    """Three-node ring with a tight line, built to congest.

    The cheap generator sits behind the constrained corner so nodal
    prices separate, which the dual-validation tests rely on.
    """
    base = sinusoid_load(24, 4, base=50.0, swing=15.0)
    load = np.vstack([0.2 * base, 0.5 * base, 0.3 * base])
    dgs = (
        make_dg(id="cheap", node="a", p_max=120.0, p_min=10.0,
                segments=((70.0, 12.0), (120.0, 16.0)), ramp_up=80.0,
                ramp_down=80.0, startup_rate=50.0, shutdown_rate=50.0,
                init_power_above_min=40.0),
        make_dg(id="mid", node="b", p_max=70.0, p_min=5.0,
                segments=((70.0, 28.0),), no_load_cost=150.0,
                startup_cost=300.0, ramp_up=70.0, ramp_down=70.0,
                startup_rate=40.0, shutdown_rate=40.0, min_up=1, min_down=1,
                init_power_above_min=10.0),
        make_dg(id="peak", node="c", p_max=50.0, p_min=2.0,
                segments=((50.0, 41.0),), no_load_cost=60.0,
                startup_cost=150.0, ramp_up=100.0, ramp_down=100.0,
                startup_rate=50.0, shutdown_rate=50.0, min_up=1, min_down=1,
                init_committed=0, init_power_above_min=0.0, init_hours_on=0,
                init_hours_off=2),
    )
    lines = (
        Line("ab", "a", "b", 0.1, -28.0, 28.0),
        Line("bc", "b", "c", 0.1, -60.0, 60.0),
        Line("ca", "c", "a", 0.1, -60.0, 60.0),
    )
    return make_instance(("a", "b", "c"), lines, dgs, load, sigma_fraction=0.02)


@pytest.fixture
def oracle_instance():
    """Desk-scale instance for exhaustive enumeration: 1 node, 2 DGs, 3 h, K=2."""
    t = 3 * 2
    load = np.array([[30.0, 45.0, 70.0, 95.0, 80.0, 55.0]])
    assert load.shape[1] == t
    dgs = (
        make_dg(id="base", node="n1", p_max=60.0, p_min=10.0,
                segments=((35.0, 20.0), (60.0, 27.0)), no_load_cost=200.0,
                startup_cost=500.0, ramp_up=30.0, ramp_down=30.0,
                startup_rate=25.0, shutdown_rate=25.0, min_up=2, min_down=1,
                init_committed=1, init_power_above_min=15.0, init_hours_on=4),
        make_dg(id="fast", node="n1", p_max=50.0, p_min=5.0,
                segments=((50.0, 33.0),), no_load_cost=80.0,
                startup_cost=250.0, ramp_up=60.0, ramp_down=60.0,
                startup_rate=40.0, shutdown_rate=40.0, min_up=1, min_down=1,
                init_committed=0, init_power_above_min=0.0, init_hours_off=2),
    )
    return make_instance(("n1",), (), dgs, load, k_per_hour=2, hours=3,
                         sigma_fraction=0.08)
