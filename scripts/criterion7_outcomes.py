#!/usr/bin/env python3
"""Outcome of every branch of acceptance criterion 7's reach runs.

Runs reach_full as criterion 7 does (the paper's plate, x6 in [1.43, 4.29]
split into 16 cells, dt 1e-4, 40 control cycles of 0.5 s) under each
checked-in clone (perfbench/inputs/naive.json and adv.json, the networks the
acceptance fixtures train), and prints one line per branch:

    <clone> cell <i>: failed cycle <c> step <s> (<reason>)
    <clone> cell <i>: survived all <n> cycles

followed by the CPU time of each clone's run. A change to the reach step
shows here as branches that fail later or earlier, or for another reason.
Run from the repository root (about 4 minutes of CPU):

    PYTHONPATH=src python3 scripts/criterion7_outcomes.py [naive|adv ...]
"""

import sys
import time
from pathlib import Path

from seedwing import mlp, reach
from seedwing.aeromodel import PlateParams

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
CLONES = ("naive", "adv")


def outcomes(clone):
    """One line per branch of the clone's criterion-7 run, and its CPU time."""
    net = mlp.embed_normalization(mlp.load(INPUTS / f"{clone}.json"))
    cfg = reach.ReachConfig(n_splits=16, dt=1e-4)
    t0 = time.process_time()
    result = reach.reach_full((1.43, 4.29), net, PlateParams(), cfg)
    cpu = time.process_time() - t0
    lines = []
    for b in result.branches:
        if b.failed:
            lines.append(f"{clone} cell {b.index}: failed cycle {b.fail_cycle} "
                         f"step {b.fail_step} ({b.fail_reason})")
        else:
            lines.append(f"{clone} cell {b.index}: survived all {cfg.n_cycles} cycles")
    return lines, cpu


if __name__ == "__main__":
    clones = sys.argv[1:] or CLONES
    unknown = sorted(set(clones) - set(CLONES))
    if unknown:
        sys.exit(f"unknown clone {', '.join(unknown)}; choose from {', '.join(CLONES)}")
    cpus = []
    for clone in clones:
        lines, cpu = outcomes(clone)
        print("\n".join(lines), flush=True)
        cpus.append(f"{clone} {cpu:.1f} s")
    print("cpu: " + ", ".join(cpus))
