"""Regenerate the benchmark's checked-in inputs from fixed seeds.

    python3 perfbench/make_inputs.py            # rewrite perfbench/inputs
    python3 perfbench/make_inputs.py --check    # regenerate apart, compare bytes

The inputs are: the teacher dataset, the naive and adversarial clones (2000
epochs each, as the CLI trains them), a random 28-ReLU 6-12-12-4-1 network
with its deep robustness queries, and the heavy plate's settled start.
Verification and reach run on these files, so a later change to training
numerics cannot change the work they measure.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import shutil
import sys
from pathlib import Path

from common import INPUTS, OUT, use_checkout

use_checkout()

import numpy as np  # noqa: E402

from seedwing import mlp  # noqa: E402
from seedwing.aeromodel import PlateParams, State, rk4_step  # noqa: E402
from seedwing.cli import main as cli_main  # noqa: E402
from seedwing.closedloop import (dataset_from_csv, fit_norm,  # noqa: E402
                                 rows_to_arrays)
from seedwing.verifier import Budget, bab_verify, encode_robustness  # noqa: E402

TRAIN_SEED = 0          # the CLI default, as the paper's clones use
TRAIN_EPOCHS = 2000
DEEP_NET_SEED = 1       # init_network seed of the 28-ReLU net
DEEP_POINT_SEED = 2     # order in which dataset rows are tried as centres
DEEP_WIDTHS = (6, 12, 12, 4, 1)
DEEP_EPS = 0.2
DEEP_MARGIN = 0.02      # L* sits 2% above (verified) / below (falsified) the bound
DEEP_POINTS = 2
DEEP_NODES = (40, 110)  # accepted node range of the verified query
HEAVY_MASS = 0.02
SETTLE = {"start": [1.0, 0.0, 0.0, 0.0, 0.0, 2.0], "e_x": 0.187, "dt": 0.01,
          "steps": 500}

FILES = ("dataset.csv", "naive.json", "adv.json", "deep-net.json",
         "deep-queries.json", "heavy-settled.json")


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"seedwing {' '.join(argv)} exited {rc}")


def _deviation_bound(net, x0, box):
    """Bracket max |f(x) - f(x0)| over the DEEP_EPS ball by bisection on L*;
    None when a probe needs more than 4 x DEEP_NODES[1] nodes."""
    budget = Budget(max_seconds=1e9, max_nodes=4 * DEEP_NODES[1])

    def status(dev):
        return bab_verify(net, encode_robustness(net, x0, DEEP_EPS, dev * DEEP_EPS,
                                                 box), budget).status
    lo, hi = 0.0, 1.0
    while (s := status(hi)) == "falsified":
        lo, hi = hi, 2.0 * hi
    for _ in range(16):
        if s == "timeout":
            return None
        mid = 0.5 * (lo + hi)
        s = status(mid)
        lo, hi = (lo, mid) if s == "verified" else (mid, hi)
    return None if s == "timeout" else (lo, hi)


def _deep_queries(net, X):
    box = tuple((0.0, 1.0) for _ in range(X.shape[1]))
    budget = Budget(max_seconds=1e9, max_nodes=10 ** 9)
    queries = []
    order = np.random.default_rng(DEEP_POINT_SEED).permutation(X.shape[0])
    for k in order:
        bracket = _deviation_bound(net, X[k], box)
        if bracket is None:
            continue
        lo, hi = bracket
        pair = []
        for dev in (hi * (1 + DEEP_MARGIN), lo * (1 - DEEP_MARGIN)):
            spec = encode_robustness(net, X[k], DEEP_EPS, dev * DEEP_EPS, box)
            pair.append((spec, bab_verify(net, spec, budget)))
        (_, ver), (_, fal) = pair
        # a flat neighbourhood (lo == 0) gives no falsifiable query
        if ver.verified and fal.status == "falsified" \
                and DEEP_NODES[0] <= ver.nodes <= DEEP_NODES[1] and fal.nodes >= 5:
            for spec, _ in pair:
                queries.append({"row": int(k), "spec": json.loads(spec.to_json())})
        if len(queries) == 2 * DEEP_POINTS:
            return queries
    raise RuntimeError("too few dataset rows give deep queries")


def generate(dest: Path) -> None:
    dest.mkdir(parents=True, exist_ok=True)
    work = dest / "work"
    work.mkdir(exist_ok=True)
    _cli(["gen-data", "--out", str(work / "dataset.csv"),
          "--norm-out", str(work / "norm.json")])
    shutil.copyfile(work / "dataset.csv", dest / "dataset.csv")
    for cmd, name in (("train", "naive.json"), ("train-adv", "adv.json")):
        _cli([cmd, "--data", str(dest / "dataset.csv"), "--out", str(work / name),
              "--seed", str(TRAIN_SEED), "--epochs", str(TRAIN_EPOCHS)])
        shutil.copyfile(work / name, dest / name)
    shutil.rmtree(work)

    rows = dataset_from_csv(dest / "dataset.csv")
    X, _ = rows_to_arrays(rows, fit_norm(rows))
    deep = mlp.init_network(DEEP_WIDTHS, seed=DEEP_NET_SEED)
    mlp.save(deep, dest / "deep-net.json")
    with open(dest / "deep-queries.json", "w") as fh:
        json.dump({"seed": DEEP_POINT_SEED, "epsilon": DEEP_EPS,
                   "margin": DEEP_MARGIN, "queries": _deep_queries(deep, X)},
                  fh, indent=1)

    p = PlateParams(mass=HEAVY_MASS)
    s = State(*SETTLE["start"])
    for k in range(SETTLE["steps"]):
        s = rk4_step(s, SETTLE["e_x"], p, SETTLE["dt"], t=k * SETTLE["dt"])
    with open(dest / "heavy-settled.json", "w") as fh:
        json.dump(dict(SETTLE, mass=HEAVY_MASS, state=list(s.as_tuple())), fh,
                  indent=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="regenerate into the output directory and compare bytes")
    args = ap.parse_args(argv)
    if not args.check:
        generate(INPUTS)
        return 0
    regen = OUT / "regen"
    shutil.rmtree(regen, ignore_errors=True)
    generate(regen)
    differ = [f for f in FILES if not filecmp.cmp(INPUTS / f, regen / f, shallow=False)]
    for f in differ:
        print(f"differs: {f}")
    print("inputs reproduce" if not differ else f"{len(differ)} input(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
