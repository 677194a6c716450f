#!/usr/bin/env python3
"""Digests of the CLI pipeline's artifacts, to show a change leaves them bit-identical.

Runs, in a temporary directory:

- `gen-data` (dataset and normalization);
- `train --epochs 200`, `train-adv --epochs 50` and `train-adv --epochs 20
  --restarts 3 --pgd-steps 4` (more than two PGD restarts) on that dataset;
- `critical-ystar` at its defaults, `critical-ystar --resolution 0.25
  --search-max 0.9` (a search_max off the grid and near the thresholds,
  so that the search's closing probe counts) and a short `robust-sweep`
  (8 cells x 25 points) on each checked-in clone
  (perfbench/inputs/naive.json and adv.json);
- `verify` on the first perfbench deep query (28-ReLU net);
- `simulate`, open loop and closed loop under the naive clone (CSV and SVG);
- `verify --property 1` on the naive clone;
- `reach --splits 2 --t-end 1` on the naive clone (CSV and SVG).

The last three run every setting they do not name at its default, so they
show that moving a default leaves its value unchanged. At reach's default
dt of 0.01 both branches fail before their first checkpoint, so the reach
artifacts hold only the t = 0 sets and cannot show a change to the reach
step; `scripts/reach_digest.py` is the digest that does.

Prints one sha256 per artifact. CSVs are hashed without their `seconds`
column, which holds wall-clock times. Run from the repository root:

    PYTHONPATH=src python3 scripts/pipeline_digest.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from seedwing.cli import main

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
CLONES = ("naive", "adv")


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _digest(path):
    lines = path.read_text().splitlines()
    if path.suffix == ".csv" and "seconds" in lines[0].split(","):
        drop = lines[0].split(",").index("seconds")
        lines = [",".join(v for i, v in enumerate(line.split(",")) if i != drop)
                 for line in lines]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def pipeline(d):
    """(exit code, artifacts) per CLI call, in pipeline order."""
    data = str(d / "dataset.csv")
    calls = [(["gen-data", "--out", data, "--norm-out", str(d / "norm.json")],
              ("dataset.csv", "norm.json")),
             (["train", "--data", data, "--epochs", "200", "--out", str(d / "net.json")],
              ("net.json",)),
             (["train-adv", "--data", data, "--epochs", "50", "--out", str(d / "net-adv.json")],
              ("net-adv.json",)),
             (["train-adv", "--data", data, "--epochs", "20", "--restarts", "3",
               "--pgd-steps", "4", "--out", str(d / "net-adv3.json")],
              ("net-adv3.json",))]
    for clone in CLONES:
        net = str(INPUTS / f"{clone}.json")
        calls.append((["critical-ystar", "--net", net,
                       "--out", str(d / f"critical-{clone}.csv")], (f"critical-{clone}.csv",)))
        calls.append((["critical-ystar", "--net", net, "--resolution", "0.25",
                       "--search-max", "0.9", "--out", str(d / f"critical-offgrid-{clone}.csv")],
                      (f"critical-offgrid-{clone}.csv",)))
        # a grid where the two clones' rates differ and some are fractional
        calls.append((["robust-sweep", "--net", net, "--data", data, "--points", "25",
                       "--eps-list", "0.01,0.05", "--lstar-list", "1e-4,2e-4,5e-3,2e-2",
                       "--out", str(d / f"sweep-{clone}.csv")], (f"sweep-{clone}.csv",)))
    with open(INPUTS / "deep-queries.json") as fh:
        spec = json.load(fh)["queries"][0]["spec"]
    (d / "deep-query.json").write_text(json.dumps(spec))
    calls.append((["verify", "--net", str(INPUTS / "deep-net.json"),
                   "--spec", str(d / "deep-query.json"), "--out", str(d / "deep.csv")],
                  ("deep.csv",)))
    naive = str(INPUTS / "naive.json")
    for mode in ("open", "closed"):
        calls.append((["simulate", "--mode", mode, "--out", str(d / f"sim-{mode}.csv"),
                       "--svg", str(d / f"sim-{mode}.svg")]
                      + (["--net", naive] if mode == "closed" else []),
                      (f"sim-{mode}.csv", f"sim-{mode}.svg")))
    calls.append((["verify", "--net", naive, "--property", "1",
                   "--out", str(d / "verify-p1.csv")], ("verify-p1.csv",)))
    calls.append((["reach", "--net", naive, "--splits", "2", "--t-end", "1",
                   "--out", str(d / "reach.csv"), "--svg", str(d / "reach.svg")],
                  ("reach.csv", "reach.svg")))
    for argv, artifacts in calls:
        yield _run(argv), artifacts


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for code, artifacts in pipeline(d):
            for name in artifacts:
                print(f"{name}: exit {code} {_digest(d / name)}", flush=True)
