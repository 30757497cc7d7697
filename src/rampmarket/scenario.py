"""Monte Carlo sampling of nodal net-load trajectories.

Each realization draws every (node, subperiod) entry independently from
Normal(mean, |mean| * sigma_fraction).  Streams are counter-keyed: the
draw for realization i uses a Philox generator seeded from the tuple
(seed, purpose_code, i), so realization i is bitwise identical no matter
how many realizations are requested or in what order they are produced.
In-sample and out-of-sample sets live on disjoint purpose codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

IN_SAMPLE = "in_sample"
OUT_OF_SAMPLE = "out_of_sample"
_PURPOSE_CODES = {IN_SAMPLE: 0, OUT_OF_SAMPLE: 1}


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    realizations: np.ndarray  # (count, n_nodes, 24*K) MW
    seed: int
    purpose_tag: str

    @property
    def count(self):
        return self.realizations.shape[0]


def _standard_normals(seed, purpose_code, index, shape):
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(purpose_code, index))
    rng = np.random.Generator(np.random.Philox(seq))
    return rng.standard_normal(shape)


def sample_scenarios(instance, count, seed, purpose=IN_SAMPLE):
    """Draw ``count`` i.i.d. net-load realizations around the instance means."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if purpose not in _PURPOSE_CODES:
        raise ValueError(f"unknown purpose {purpose!r}")
    code = _PURPOSE_CODES[purpose]
    mean = instance.mean_net_load
    sigma = np.abs(mean) * instance.sigma_fraction
    out = np.empty((count,) + mean.shape)
    for i in range(count):
        z = _standard_normals(seed, code, i, mean.shape)
        out[i] = mean + sigma * z
    return ScenarioSet(realizations=out, seed=int(seed), purpose_tag=purpose)


def hourly_system_ci(instance, confidence):
    """Normal confidence interval for hourly system net load.

    Hourly system net load is the subperiod average of the nodal sum; with
    independent Gaussian subperiod draws its variance is the sum of the
    per-draw variances scaled by 1/K^2.  Returns (lower, upper) arrays of
    length 24 in MW.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    kk = instance.time_grid.subperiods_per_hour
    mean = instance.mean_net_load  # (n, 24K)
    hours = instance.time_grid.hours_count
    hourly_mean = mean.reshape(instance.n_nodes, hours, kk).mean(axis=2).sum(axis=0)
    var_draws = (np.abs(mean) * instance.sigma_fraction) ** 2
    hourly_var = var_draws.reshape(instance.n_nodes, hours, kk).sum(axis=(0, 2)) / kk**2
    z = NormalDist().inv_cdf(0.5 * (1.0 + confidence))
    half = z * np.sqrt(hourly_var)
    return hourly_mean - half, hourly_mean + half
