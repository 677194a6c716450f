#!/usr/bin/env python3
"""Digests of the reach engine's outputs, to show a change leaves them bit-identical.

Prints one sha256 per run, over the raw bytes of every zonotope's centre and
generator matrix:

- reach-paper: the paper's plate in the criterion-7 configuration (dt 1e-4,
  cell 0 of the 16-way split of x6 in [1.43, 4.29]), one
  branch under each checked-in clone, digested after every reach_step up to
  the branch's failure or 3000 steps;
- reach-glide: the heavy plate from its settled glide, reach_full over four
  cells and three 0.1 s cycles, digested over every checkpoint.

These are the two reach workloads of perfbench/. Run from the repository root:

    PYTHONPATH=src python3 scripts/reach_digest.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from seedwing import mlp, reach
from seedwing.aeromodel import PlateParams

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def _update(h, Z):
    h.update(Z.c.tobytes())
    h.update(Z.G.tobytes())


def reach_paper(clone, horizon=3000):
    p = PlateParams()
    cfg = reach.ReachConfig(dt=1e-4, t_end=0.5, n_splits=16)
    edges = np.linspace(1.43, 4.29, cfg.n_splits + 1)
    net = mlp.embed_normalization(mlp.load(INPUTS / f"{clone}.json"))
    Z = reach.initial_zonotope(float(edges[0]), float(edges[1]))
    h = hashlib.sha256()
    steps, reason = 0, ""
    for k in range(horizon):
        try:
            if k % cfg.steps_per_cycle == 0:
                u = reach.nn_output_set(net, Z, cfg.relu_mode)
            Z = reach.reach_step(Z, u, p, cfg)
        except reach.BranchFailure as exc:
            reason = str(exc)
            break
        steps = k + 1
        _update(h, Z)
    return f"reach-paper {clone}: {steps} steps ({reason or 'horizon'}) {h.hexdigest()}"


def reach_glide():
    with open(INPUTS / "heavy-settled.json") as fh:
        start = json.load(fh)
    base = np.array(start["state"])
    net = mlp.embed_normalization(mlp.load(INPUTS / "naive.json"))
    cfg = reach.ReachConfig(dt=1e-3, dt_control=0.1, t_end=0.3, n_splits=4)
    result = reach.reach_full((base[5] - 0.08, base[5] + 0.08), net,
                              PlateParams(mass=start["mass"]), cfg, base_state=base)
    h = hashlib.sha256()
    for b in result.branches:
        for Z in b.checkpoints:
            _update(h, Z)
    certified = sum(not b.failed for b in result.branches)
    return f"reach-glide: {certified}/{len(result.branches)} branches certified {h.hexdigest()}"


if __name__ == "__main__":
    print(reach_glide(), flush=True)
    for clone in ("naive", "adv"):
        print(reach_paper(clone), flush=True)
