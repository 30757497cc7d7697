"""Write the congested_grid instance: case14 with tightened line limits.

The bundled case14 has 650 MW limits that line screening proves can never
bind, so the network rows of every model are dropped.  This generator
keeps case14's topology, fleet and loads and sets each line's limit to a
multiple of the peak flow a merit-order dispatch of the mean net load
would put on it.  Flows come from shift factors computed here from the
reactances, not from the program; each line's multiple is drawn from
U(1, 1 + HEADROOM) with a fixed seed, so the lines do not all bind in the
same subperiod.

    python3 perfbench/congested.py            # rewrite perfbench/data/congested_grid.json
    python3 perfbench/congested.py --check    # exit 1 if the file is stale
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(HERE, "..", "src", "rampmarket", "data", "case14.json")
TARGET = os.path.join(HERE, "data", "congested_grid.json")
SEED = 14
HEADROOM = 0.1
FLOOR_MW = 10.0  # keeps near-idle lines from becoming near-zero limits


def shift_factors(doc):
    """PTDF[l, n] = (X[from, n] - X[to, n]) / x_l, X the grounded inverse of B."""
    nodes = doc["nodes"]
    idx = {n: i for i, n in enumerate(nodes)}
    ref = idx[doc.get("reference_node", nodes[0])]
    b = np.zeros((len(nodes), len(nodes)))
    for ln in doc["lines"]:
        i, j, y = idx[ln["from"]], idx[ln["to"]], 1.0 / ln["reactance"]
        b[i, i] += y
        b[j, j] += y
        b[i, j] -= y
        b[j, i] -= y
    keep = [i for i in range(len(nodes)) if i != ref]
    x = np.zeros_like(b)
    x[np.ix_(keep, keep)] = np.linalg.inv(b[np.ix_(keep, keep)])
    return np.array([(x[idx[ln["from"]]] - x[idx[ln["to"]]]) / ln["reactance"]
                     for ln in doc["lines"]])


def merit_order_injections(doc):
    """Nodal injections (N, T): cheapest units filled to p_max, then the load."""
    nodes = doc["nodes"]
    load = np.array([doc["mean_net_load"][n] for n in nodes])
    demand = load.sum(axis=0)
    order = sorted(doc["dgs"], key=lambda g: g["segments"][0][1])
    inj = -load
    remaining = demand.copy()
    for g in order:
        out = np.clip(remaining, 0.0, g["p_max"])
        inj[nodes.index(g["node"])] += out
        remaining -= out
    if np.any(remaining > 1e-6):
        raise ValueError("fleet cannot cover the mean net load")
    return inj


def congested(doc, seed=SEED):
    flows = shift_factors(doc) @ merit_order_injections(doc)  # (L, T)
    peak = np.abs(flows).max(axis=1)
    scale = np.random.default_rng(seed).uniform(1.0, 1.0 + HEADROOM, size=peak.size)
    limits = np.maximum(FLOOR_MW, np.round(scale * peak, 1))
    out = json.loads(json.dumps(doc))
    for ln, lim in zip(out["lines"], limits):
        ln["flow_max"] = float(lim)
        ln["flow_min"] = -float(lim)
    return out


def render(doc):
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the stored file instead of writing it")
    args = ap.parse_args(argv)
    with open(SOURCE) as fh:
        text = render(congested(json.load(fh)))
    if args.check:
        with open(TARGET) as fh:
            return 0 if fh.read() == text else 1
    os.makedirs(os.path.dirname(TARGET), exist_ok=True)
    with open(TARGET, "w") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
