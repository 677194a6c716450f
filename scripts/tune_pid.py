#!/usr/bin/env python3
"""Desk-tuning for the PID teacher gains.

Grid-searches (kp, ki, kd) over the nine default starting heights and ranks
by the worst band violation after t=10 s (the |x6+x5| <= 2 target), breaking
ties by mean late tracking error. The winning gains are recorded as
DEFAULT_GAINS in seedwing.closedloop.

Run:  python scripts/tune_pid.py [--fine]
"""

import argparse
import itertools

from seedwing.aeromodel import EX_MAX, EX_MIN, PlateParams, State
from seedwing.closedloop import (PidController, PidGains, SimConfig,
                                 simulate_closed_loop, target_error)


def evaluate(gains: PidGains, cfg: SimConfig, p: PlateParams):
    worst_late = 0.0
    mean_late = 0.0
    us = []
    for x6_0 in cfg.x6_starts:
        s0 = State(1.0, 0.0, 0.0, 0.0, 0.0, x6_0)
        tr = simulate_closed_loop(s0, PidController(gains, cfg.dt_control), cfg, p)
        late = [abs(target_error(s)) for t, s in zip(tr.times, tr.states) if t >= 10.0]
        worst_late = max(worst_late, max(late))
        mean_late += sum(late) / len(late) / len(cfg.x6_starts)
        us.extend(tr.e_x[:: cfg.steps_per_control])
    sat = sum(1 for u in us if u <= EX_MIN + 1e-9 or u >= EX_MAX - 1e-9) / len(us)
    return worst_late, mean_late, sat


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fine", action="store_true", help="refine around the coarse optimum")
    args = ap.parse_args()

    p = PlateParams()
    cfg = SimConfig()
    if args.fine:
        kps = [-0.004, -0.003, -0.002, -0.001, 0.0, 0.001, 0.002]
        kis = [0.002, 0.003, 0.005, 0.008, 0.012]
        kds = [-0.01, -0.005, 0.0, 0.005, 0.01]
    else:
        kps = [-0.05, -0.02, -0.01, -0.002, 0.0, 0.002, 0.01, 0.02, 0.05]
        kis = [-0.005, -0.001, 0.0, 0.001, 0.005, 0.01]
        kds = [-0.02, -0.005, 0.0, 0.005, 0.02]

    results = []
    for kp, ki, kd in itertools.product(kps, kis, kds):
        gains = PidGains(kp=kp, ki=ki, kd=kd)
        worst, mean, sat = evaluate(gains, cfg, p)
        results.append((worst, mean, sat, kp, ki, kd))
    results.sort()
    print("worst|e| t>=10   mean|e|   sat%    kp       ki       kd")
    for worst, mean, sat, kp, ki, kd in results[:15]:
        print(f"{worst:12.4f}  {mean:8.4f}  {sat*100:5.1f}  {kp:+.4f}  {ki:+.4f}  {kd:+.4f}")
    print("\nNote: the shipped DEFAULT_GAINS additionally require kp > 0 (the cloned"
          "\nnetwork must command a larger offset above the line) and prefer pure-P"
          "\nteachers whose command is an exact function of the queried state.")


if __name__ == "__main__":
    main()
