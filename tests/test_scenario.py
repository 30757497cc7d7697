"""Net-load sampling: determinism, counter indexing, and statistics."""

from statistics import NormalDist

import numpy as np
import pytest

from rampmarket.scenario import (IN_SAMPLE, OUT_OF_SAMPLE, hourly_system_ci,
                                 sample_scenarios)

from conftest import make_dg, make_instance


def flat_instance(mean=100.0, sigma=0.01, n_sub=4, hours=1, k=4):
    load = np.full((1, hours * k), mean)
    return make_instance(("n1",), (),
                         (make_dg(p_max=300.0, segments=((300.0, 18.0),),
                                  p_min=0.0, startup_rate=10.0,
                                  shutdown_rate=10.0),),
                         load, k_per_hour=k, hours=hours, sigma_fraction=sigma)


def test_zero_variance_reproduces_means(two_node):
    inst = make_instance(two_node.nodes, two_node.lines, two_node.dgs,
                         two_node.mean_net_load, sigma_fraction=0.0)
    scen = sample_scenarios(inst, 3, 42)
    assert np.array_equal(scen.realizations,
                          np.broadcast_to(inst.mean_net_load,
                                          (3,) + inst.mean_net_load.shape))


def test_same_seed_bitwise_identical(two_node):
    a = sample_scenarios(two_node, 5, 123)
    b = sample_scenarios(two_node, 5, 123)
    assert np.array_equal(a.realizations, b.realizations)


def test_different_seed_differs(two_node):
    a = sample_scenarios(two_node, 2, 1)
    b = sample_scenarios(two_node, 2, 2)
    assert not np.array_equal(a.realizations, b.realizations)


def test_counter_indexing_is_prefix_stable(two_node):
    """Realization i is identical no matter how many are requested."""
    small = sample_scenarios(two_node, 3, 9)
    large = sample_scenarios(two_node, 10, 9)
    assert np.array_equal(small.realizations, large.realizations[:3])


def test_purpose_streams_are_disjoint(two_node):
    ins = sample_scenarios(two_node, 4, 5, IN_SAMPLE)
    outs = sample_scenarios(two_node, 4, 5, OUT_OF_SAMPLE)
    assert not np.array_equal(ins.realizations, outs.realizations)
    assert ins.purpose_tag == IN_SAMPLE
    assert outs.purpose_tag == OUT_OF_SAMPLE


def test_invalid_purpose_and_count():
    inst = flat_instance()
    with pytest.raises(ValueError):
        sample_scenarios(inst, 0, 1)
    with pytest.raises(ValueError):
        sample_scenarios(inst, 1, 1, purpose="bogus")


def test_law_of_large_numbers():
    # mean 100 MW, sigma 1%: sample mean within 100 +/- 0.02,
    # sample std within 1 +/- 0.02 over 1e5 draws.
    inst = flat_instance(mean=100.0, sigma=0.01, hours=1, k=4)
    draws = sample_scenarios(inst, 25000, 0).realizations.ravel()
    assert draws.size == 100000
    assert abs(draws.mean() - 100.0) < 0.02
    assert abs(draws.std(ddof=1) - 1.0) < 0.02


def test_negative_mean_gets_positive_spread():
    inst = flat_instance(mean=-50.0, sigma=0.1)
    draws = sample_scenarios(inst, 2000, 3).realizations.ravel()
    assert abs(draws.mean() + 50.0) < 0.5
    assert abs(draws.std(ddof=1) - 5.0) < 0.3


def test_lag1_autocorrelation_vanishes():
    inst = flat_instance(mean=100.0, sigma=0.05, hours=24, k=4)
    stream = sample_scenarios(inst, 100, 17).realizations.ravel()
    x = stream - stream.mean()
    n = x.size
    rho = (x[:-1] * x[1:]).sum() / (x * x).sum()
    assert abs(rho) < 3.0 / np.sqrt(n)


def test_ci_collapses_at_zero_sigma(two_node):
    inst = make_instance(two_node.nodes, two_node.lines, two_node.dgs,
                         two_node.mean_net_load, sigma_fraction=0.0)
    lo, hi = hourly_system_ci(inst, 0.95)
    assert np.allclose(lo, hi)


def test_ci_worked_example():
    # One node, K=1, mean 100, sigma 1 MW, 95% confidence -> (98.04, 101.96).
    inst = flat_instance(mean=100.0, sigma=0.01, hours=1, k=1)
    lo, hi = hourly_system_ci(inst, 0.95)
    assert lo[0] == pytest.approx(98.0400, abs=5e-4)
    assert hi[0] == pytest.approx(101.9600, abs=5e-4)


def test_ci_quantile_is_normaldist():
    # Hourly mean 1 MW with unit variance (sigma = 2 MW per draw, four
    # draws averaged), so 1 - lower is the z quantile itself, exactly.
    # NormalDist gives 1.9599639845400536, one ulp below scipy's norm.ppf.
    lo, _ = hourly_system_ci(flat_instance(mean=1.0, sigma=2.0), 0.95)
    assert 1.0 - lo[0] == NormalDist().inv_cdf(0.975) == 1.9599639845400536


def test_ci_width_linear_in_sigma():
    lo1, hi1 = hourly_system_ci(flat_instance(sigma=0.01), 0.95)
    lo3, hi3 = hourly_system_ci(flat_instance(sigma=0.03), 0.95)
    assert np.allclose(hi3 - lo3, 3.0 * (hi1 - lo1))


def test_ci_confidence_bounds_checked():
    inst = flat_instance()
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            hourly_system_ci(inst, bad)


def test_ci_empirical_coverage():
    # The interval should cover the realized hourly system net load at
    # roughly the nominal rate.
    inst = flat_instance(mean=80.0, sigma=0.05, hours=4, k=4)
    lo, hi = hourly_system_ci(inst, 0.95)
    scen = sample_scenarios(inst, 2000, 21)
    hourly = scen.realizations.sum(axis=1).reshape(2000, 4, 4).mean(axis=2)
    inside = ((hourly >= lo) & (hourly <= hi)).mean()
    assert 0.935 < inside < 0.965
