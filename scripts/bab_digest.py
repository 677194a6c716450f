#!/usr/bin/env python3
"""Digests of branch-and-bound verdicts, to show a change to the verifier leaves them bit-identical.

Prints three sha256 per group of queries, in query order: the first over
each query's status, vacuous flag, witness bytes, node count and LP count;
the second over its status and vacuous flag only, so that a change which
moves node counts or witnesses can show that its verdicts did not move;
the third over all of the first but the LP count, so that a change which
moves LP counts only can show that:

- random: seeded random ReLU nets (1-3 inputs, at most 8 ReLUs) with
  premises and conclusions of all three relations (`<=`, `>=`, `=`),
  one- and two-row conclusions;
- edge: premises whose bound sits at the box's extreme value of the
  premise row, shifted by 0 or +-1e-12/1e-10/1e-8: vacuous, emptied by
  the box contraction although the LP finds them feasible, or barely
  feasible;
- properties: the four trajectory properties on each checked-in clone
  (perfbench/inputs/naive.json and adv.json) over a grid of ystar;
- deep: the perfbench deep queries on the 28-ReLU net.

No budget binds (no query times out). Run from the repository root:

    PYTHONPATH=src python3 scripts/bab_digest.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from seedwing import mlp
from seedwing.mlp import Layer, Network
from seedwing.verifier import (Budget, LinConstraint, PropertySpec, bab_verify,
                               encode_property, input_rows, tighten_box)

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
BUDGET = Budget(max_nodes=200000, max_seconds=1e9)
RELS = ("<=", ">=", "=")


def rand_net(rng):
    n_in = int(rng.integers(1, 4))
    w1 = int(rng.integers(1, 5))
    w2 = int(rng.integers(1, 9 - w1))
    net = mlp.init_network((n_in, w1, w2, 1), seed=int(rng.integers(0, 10 ** 6)))
    layers = tuple(Layer(layer.w * rng.choice([-1.0, 1.0], size=layer.w.shape),
                         rng.normal(scale=0.3, size=layer.b.shape), layer.act)
                   for layer in net.layers)
    return Network(layers)


def rand_box(rng, n):
    return tuple(tuple(sorted(rng.uniform(-1.5, 1.5, size=2))) for _ in range(n))


def random_query(rng):
    """A premise of 0-2 rows and a conclusion of 1-2 rows, relations drawn
    uniformly; thresholds are quantiles of sampled values."""
    net = rand_net(rng)
    n = net.n_in
    box = rand_box(rng, n)
    X = rng.uniform([lo for lo, _ in box], [hi for _, hi in box], size=(300, n))
    premise = []
    for _ in range(int(rng.integers(0, 3))):
        a = rng.normal(size=n).round(2)
        if not a.any():
            continue
        rel = RELS[int(rng.integers(0, 3))]
        premise.append(LinConstraint(tuple(a), (0.0,), rel,
                                     float(np.quantile(X @ a, rng.uniform(0.2, 0.8)))))
    Y = mlp.forward_batch(net, X)
    conclusion = []
    for _ in range(int(rng.integers(1, 3))):
        ic = rng.normal(size=n).round(2) * (rng.random() < 0.3)
        vals = X @ ic + Y
        rel = RELS[int(rng.integers(0, 3))]
        conclusion.append(LinConstraint(tuple(ic), (1.0,), rel,
                                        float(np.quantile(vals, rng.uniform(0.05, 0.95)))))
    return net, PropertySpec("random", box, tuple(premise), tuple(conclusion))


def edge_query(rng, shift):
    """One premise row at the box's extreme of that row, shifted outward
    (negative: vacuous side) or inward by `shift`."""
    net = rand_net(rng)
    n = net.n_in
    box = rand_box(rng, n)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    a = rng.normal(size=n).round(2)
    a[a == 0.0] = 1.0
    rel = RELS[int(rng.integers(0, 3))]
    if rel == ">=":
        rhs = float(np.where(a > 0, a * hi, a * lo).sum()) - shift
    else:
        rhs = float(np.where(a > 0, a * lo, a * hi).sum()) + shift
    rel_c = RELS[int(rng.integers(0, 2))]
    conclusion = (LinConstraint((0.0,) * n, (1.0,), rel_c, float(rng.normal(scale=0.5))),)
    return net, PropertySpec("edge", box, (LinConstraint(tuple(a), (0.0,), rel, rhs),),
                             conclusion)


def random_group():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        yield random_query(rng)


def edge_group():
    rng = np.random.default_rng(77)
    for shift in (-1e-8, -1e-10, -1e-12, 0.0, 1e-12, 1e-10, 1e-8):
        for _ in range(20):
            yield edge_query(rng, shift)


def property_group():
    for clone in ("naive", "adv"):
        net = mlp.load(INPUTS / f"{clone}.json")
        box = tuple(zip(net.norm.in_min, net.norm.in_max))
        target = mlp.embed_normalization(net)
        for kind in (1, 2, 3, 4):
            for ystar in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0):
                yield target, encode_property(kind, ystar, box)


def deep_group():
    net = mlp.load(INPUTS / "deep-net.json")
    target = mlp.embed_normalization(net) if net.norm is not None else net
    with open(INPUTS / "deep-queries.json") as fh:
        for q in json.load(fh)["queries"]:
            yield target, PropertySpec.from_json(json.dumps(q["spec"]))


def digest(queries):
    h = hashlib.sha256()
    h_verdict = hashlib.sha256()
    h_no_lp = hashlib.sha256()
    counts = {"verified": 0, "falsified": 0, "timeout": 0, "vacuous": 0, "emptied": 0}
    for net, spec in queries:
        v = bab_verify(net, spec, BUDGET)
        h.update(f"{v.status},{int(v.vacuous)},{v.nodes},{v.lp_calls};".encode())
        h_verdict.update(f"{v.status},{int(v.vacuous)};".encode())
        h_no_lp.update(f"{v.status},{int(v.vacuous)},{v.nodes};".encode())
        if v.witness is not None:
            witness = np.asarray(v.witness, dtype=float).tobytes()
            h.update(witness)
            h_no_lp.update(witness)
        counts[v.status] += 1
        counts["vacuous"] += v.vacuous
        # a premise the vacuity LP accepts but the box contraction empties
        _, _, empty = tighten_box(spec.input_box, *input_rows(spec.premise, spec.n_in))
        counts["emptied"] += bool(v.verified and not v.vacuous and empty)
    return counts, h.hexdigest(), h_verdict.hexdigest(), h_no_lp.hexdigest()


if __name__ == "__main__":
    for name, group in (("random", random_group), ("edge", edge_group),
                        ("properties", property_group), ("deep", deep_group)):
        counts, full, verdicts, no_lp = digest(group())
        summary = " ".join(f"{k}={v}" for k, v in counts.items())
        print(f"{name}: {sum(counts[k] for k in ('verified', 'falsified', 'timeout'))} "
              f"queries ({summary}) {full}", flush=True)
        print(f"{name} verdicts: {verdicts}", flush=True)
        print(f"{name} without LP counts: {no_lp}", flush=True)
