"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload train-verify --seed 1 --seconds 24 --trace 0

Set-up is timed in fresh interpreters (`setup_s`, the median of several).
Then an untimed warm-up runs (a whole round; on reach-paper the first steps
of its branches), and as many whole rounds as fit the round time it shows
into --seconds (at least one); each metric is the median over rounds. The first timed round is checked against independent computations,
and every later round must repeat its verdicts, counts and step numbers.
With --trace 1 one untraced and one traced round run instead, and the
per-layer metrics are printed: the stages' rates (from the untraced round)
and the traced round's spans and counts. The last line of standard output is the
result object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

from common import OUT, use_checkout

SETUP_PROBES = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=int, default=None,
                    help=argparse.SUPPRESS)   # internal: time one set-up
    return ap.parse_args(argv)


def _setup_seconds(args):
    """Median reference-CPU time of a fresh interpreter that imports and
    sets up."""
    times = []
    for k in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--setup-probe", str(k)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    args = _parse(argv)
    use_checkout()
    from speed import SpeedMeter
    meter = SpeedMeter()
    if args.setup_probe is not None:
        meter.start()
    from workloads import STAGE_METRICS, WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    out_dir = OUT / args.workload
    if args.setup_probe is not None:
        wl = WORKLOADS[args.workload](args.seed, out_dir / f"probe-{args.setup_probe}", meter)
        wl.setup()
        print(meter.seconds(0, meter.now()))
        meter.stop()
        wl.close()
        return 0

    import numpy as np
    from checks import CheckError, check_repeat
    from tracing import Tracer

    shutil.rmtree(out_dir, ignore_errors=True)
    setup_s = _setup_seconds(args)
    meter.start()
    wl = WORKLOADS[args.workload](args.seed, out_dir / "run", meter)
    wl.setup()
    rng = np.random.default_rng(args.seed)
    problems = []
    try:
        round_s = wl.warm_up()
        n_rounds = 1 if args.trace else max(1, int(args.seconds // round_s))
        rounds = [wl.round() for _ in range(n_rounds)]
        try:
            wl.check(rounds[0], rng)
            for later in rounds[1:]:
                check_repeat(rounds[0].signature, later.signature, args.workload)
        except CheckError as exc:
            problems.append(str(exc))
        if args.trace:
            tracer = Tracer()
            tracer.install_all()
            try:
                wall0 = time.perf_counter_ns()
                traced = wl.round()
                wall = time.perf_counter_ns() - wall0
            finally:
                tracer.close()
            try:
                check_repeat(rounds[0].signature, traced.signature, args.workload)
            except CheckError as exc:
                problems.append(str(exc))
            metrics = {name: (0.0, unit) for name, unit in STAGE_METRICS.items()}
            metrics.update(wl.stage_metrics(rounds))
            metrics.update(tracer.metrics(traced.total_s, rounds[0].total_s, wall))
            rounds.append(traced)
        else:
            metrics = wl.end_to_end(rounds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        for line in wl.report(rounds[0]):
            print(f"{args.workload}: {line}", file=sys.stderr)
    finally:
        wl.close()
        meter.stop()
    for p in problems:
        print(f"{args.workload}: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
