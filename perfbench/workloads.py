"""The benchmark's three workloads: set-up, one round, checks and metrics.

Every stage is timed in exactly one workload. A round passes once through
all of a workload's stages; rates are work per reference-CPU second (see
speed.py and README.md for why). CLI stages call `seedwing.cli.main`
in-process, so parsing, file I/O, manifests and SVG are part of the
measured work; the library is called directly only where the CLI cannot
express the case.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
from dataclasses import dataclass, field

import numpy as np

import checks
import plate
from checks import NumpyNet, require
from common import INPUTS

import seedwing.cli as cli
import seedwing.lp as lpmod
import seedwing.mlp as mlp
import seedwing.reach as reach
import seedwing.verifier as verifier
from seedwing.aeromodel import PlateParams, State, rk4_step
from tracing import Tracer

NEVER = "1e9"   # verification budgets, in seconds, that never bind

# Each stage's own figures, printed with the per-layer metrics (--trace 1):
# every stage is timed in exactly one workload, and reads 0 in the others.
STAGE_METRICS = {"sim_steps_per_s": "steps/s", "train_epochs_per_s": "epochs/s",
                 "adv_epochs_per_s": "epochs/s", "table_queries_per_s": "queries/s",
                 "deep_queries_per_s": "queries/s", "reach_steps_per_s": "steps/s",
                 "reach_certified_s": "sim_s"}


@dataclass
class Round:
    """What one round did: stage times, work counts and outputs."""

    seconds: dict = field(default_factory=dict)    # stage -> reference-CPU s
    work: dict = field(default_factory=dict)       # stage -> operations done
    attempted: int = 0
    failed: int = 0
    signature: dict = field(default_factory=dict)  # must repeat every round
    outputs: dict = field(default_factory=dict)    # for the checks

    @property
    def total_s(self):
        return sum(self.seconds.values())


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _csv_without(path, column):
    """CSV text without one column (wall-clock fields vary by design)."""
    lines = path.read_text().splitlines()
    drop = lines[0].split(",").index(column)
    return tuple(",".join(v for i, v in enumerate(line.split(",")) if i != drop)
                 for line in lines)


class Workload:
    name = ""
    # stage -> (its rate in STAGE_METRICS, reference rate): the units of work
    # per reference-CPU second the stage ran at when the benchmark was made
    STAGES = {}

    def __init__(self, seed, out_dir, meter):
        self.seed = seed
        self.out = out_dir
        self.meter = meter
        self.counter = Tracer()

    def setup(self):
        """Load inputs and count verifier queries, nodes and LPs."""
        self.out.mkdir(parents=True, exist_ok=True)

        def verdict(tr, args, kw, v):
            tr.counts["queries"] += 1
            tr.counts["nodes"] += v.nodes
            tr.counts["lp_calls"] += v.lp_calls
        self.counter.count(verifier, "bab_verify", verdict)

    def close(self):
        self.counter.close()

    def report(self, r):
        """Lines about a round for standard error."""
        return []

    def warm_up(self):
        """One untimed round; returns its reference-CPU seconds."""
        return self.round().total_s

    def stage_metrics(self, rounds):
        """Each stage's rate, the median over rounds."""
        return {name: (statistics.median(r.work[s] / r.seconds[s] for r in rounds),
                       STAGE_METRICS[name])
                for s, (name, _) in self.STAGES.items()}

    def end_to_end(self, rounds):
        """Speeds relative to the reference rates, medians over rounds.

        `round_speed` is the round's work at the reference rates over the
        round's time, so it does not move when a round does more or less
        work; `slowest_stage_speed` keeps a slower stage from hiding behind
        faster ones.
        """
        def speed(r):
            return sum(r.work[s] / ref for s, (_, ref) in self.STAGES.items()) / r.total_s

        def slowest(r):
            return min(r.work[s] / r.seconds[s] / ref for s, (_, ref) in self.STAGES.items())
        return {"round_speed": (statistics.median(map(speed, rounds)), "x"),
                "slowest_stage_speed": (statistics.median(map(slowest, rounds)), "x")}

    def _timed(self, rnd, stage, fn, *args, **kw):
        """Call fn; its reference-CPU seconds are added to the stage."""
        t0 = self.meter.now()
        result = fn(*args, **kw)
        spent = self.meter.seconds(t0, self.meter.now())
        rnd.seconds[stage] = rnd.seconds.get(stage, 0.0) + spent
        return result

    def _cli(self, rnd, stage, argv, expect=(0,)):
        """One in-process CLI call, timed as part of the stage."""
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self._timed(rnd, stage, cli.main, argv)
        rnd.attempted += 1
        if rc not in expect:
            rnd.failed += 1
        return rc


# ---------------------------------------------------------------------------

class TrainVerify(Workload):
    """gen-data -> train -> train-adv -> tables on both clones -> deep set."""

    name = "train-verify"
    TRAIN_EPOCHS = 2000
    ADV_EPOCHS = 50
    SIM_STEPS = 9 * 2000          # 9 starts x 20 s at dt 0.01
    SWEEP_POINTS = 50
    CLONES = ("naive", "adv")
    STAGES = {"gen-data": ("sim_steps_per_s", 18000.0),
              "train": ("train_epochs_per_s", 800.0),
              "train-adv": ("adv_epochs_per_s", 45.0),
              "tables": ("table_queries_per_s", 840.0),
              "deep": ("deep_queries_per_s", 1.2)}

    def setup(self):
        super().setup()
        lines = (INPUTS / "dataset.csv").read_text().splitlines()
        order = np.random.default_rng(self.seed).permutation(len(lines) - 1)
        self.sweep_data = self.out / "sweep-data.csv"
        self.sweep_data.write_text("\n".join([lines[0]] + [lines[1 + i] for i in order]) + "\n")
        self.data = checks.read_dataset(self.sweep_data)
        self.clones = {c: NumpyNet.load(INPUTS / f"{c}.json") for c in self.CLONES}
        self.deep_net = NumpyNet.load(INPUTS / "deep-net.json")
        with open(INPUTS / "deep-queries.json") as fh:
            self.deep = [q["spec"] for q in json.load(fh)["queries"]]
        self.deep_specs = []
        for i, spec in enumerate(self.deep):
            path = self.out / f"deep-query-{i}.json"
            path.write_text(json.dumps(spec))
            self.deep_specs.append(path)
        self.rounds = self.out / "round"
        self.rounds.mkdir(exist_ok=True)

    def round(self):
        r = Round()
        d = self.rounds
        c = self.counter.counts
        self._cli(r, "gen-data", ["gen-data", "--out", str(d / "dataset.csv"),
                                  "--norm-out", str(d / "norm.json")])
        r.work["gen-data"] = self.SIM_STEPS
        self._cli(r, "train", ["train", "--data", str(d / "dataset.csv"), "--seed", "0",
                               "--epochs", str(self.TRAIN_EPOCHS),
                               "--out", str(d / "naive.json")])
        r.work["train"] = self.TRAIN_EPOCHS
        self._cli(r, "train-adv", ["train-adv", "--data", str(d / "dataset.csv"),
                                   "--seed", "0", "--epochs", str(self.ADV_EPOCHS),
                                   "--out", str(d / "adv.json")])
        r.work["train-adv"] = self.ADV_EPOCHS

        before = dict(c)
        for clone in self.CLONES:
            net = str(INPUTS / f"{clone}.json")
            self._cli(r, "tables", ["critical-ystar", "--net", net, "--budget-s", NEVER,
                                    "--properties", "1,2,3,4",
                                    "--out", str(d / f"critical-{clone}.csv")])
            self._cli(r, "tables", ["robust-sweep", "--net", net,
                                    "--data", str(self.sweep_data),
                                    "--points", str(self.SWEEP_POINTS),
                                    "--query-budget-s", NEVER, "--cell-budget-s", NEVER,
                                    "--out", str(d / f"sweep-{clone}.csv")])
        r.work["tables"] = c["queries"] - before.get("queries", 0)
        r.signature["tables.nodes"] = c["nodes"] - before.get("nodes", 0)
        r.signature["tables.lp_calls"] = c["lp_calls"] - before.get("lp_calls", 0)

        before = dict(c)
        codes = []
        for i, spec in enumerate(self.deep_specs):
            codes.append(self._cli(r, "deep", ["verify", "--net", str(INPUTS / "deep-net.json"),
                                               "--spec", str(spec), "--budget-s", NEVER,
                                               "--out", str(d / f"deep-{i}.csv")],
                                   expect=(cli.EXIT_OK, cli.EXIT_FALSIFIED)))
        r.work["deep"] = len(self.deep_specs)
        r.signature["deep.nodes"] = c["nodes"] - before.get("nodes", 0)
        r.signature["deep.lp_calls"] = c["lp_calls"] - before.get("lp_calls", 0)
        r.signature["deep.exit_codes"] = tuple(codes)

        for f in ("dataset.csv", "naive.json", "adv.json"):
            r.signature[f] = _digest(d / f)
        for clone in self.CLONES:
            r.signature[f"critical-{clone}"] = (d / f"critical-{clone}.csv").read_text()
            r.signature[f"sweep-{clone}"] = _csv_without(d / f"sweep-{clone}.csv", "seconds")
        for i in range(len(self.deep_specs)):
            r.signature[f"deep-{i}"] = _csv_without(d / f"deep-{i}.csv", "seconds")
        r.outputs["deep_codes"] = codes
        return r

    def check(self, r, rng):
        d = self.rounds
        require(r.failed == 0, f"{r.failed} CLI call(s) ended with an unexpected exit code")
        checks.check_dataset(checks.read_dataset(d / "dataset.csv"))

        naive, adv = NumpyNet.load(d / "naive.json"), NumpyNet.load(d / "adv.json")
        starts = rng.uniform(1.43, 4.29, size=9)
        HX, HU = checks.teacher_rows(starts)
        for label, net in (("trained naive", naive), ("checked-in naive", self.clones["naive"])):
            checks.check_heldout_rmse(net, HX, HU, label)
        Xn = (self.data[:, :6] - naive.in_lo) / naive.in_scale
        lip_seed = int(rng.integers(2 ** 31))
        checks.check_lipschitz(
            checks.sampled_lipschitz(adv, Xn, np.random.default_rng(lip_seed)),
            checks.sampled_lipschitz(naive, Xn, np.random.default_rng(lip_seed)),
            "trained clones")

        for clone, net in self.clones.items():
            embedded = mlp.embed_normalization(mlp.load(INPUTS / f"{clone}.json"))
            box = tuple(zip(*net.box))

            def verify(kind, ystar, embedded=embedded, box=box):
                v = verifier.bab_verify(embedded, verifier.encode_property(kind, ystar, box),
                                        verifier.Budget(max_seconds=float(NEVER)))
                require(v.status != "timeout", f"{clone}: P{kind}@{ystar} timed out")
                return v.verified, None if v.witness is None else list(v.witness)
            checks.check_critical_table(checks.read_critical_table(d / f"critical-{clone}.csv"),
                                        net, verify, rng, clone)
            Xc = (self.data[:, :6] - net.in_lo) / net.in_scale
            checks.check_sweep(checks.read_sweep(d / f"sweep-{clone}.csv"), net, Xc,
                               self.SWEEP_POINTS, rng, clone)

        for i, (spec, code) in enumerate(zip(self.deep, r.outputs["deep_codes"])):
            verdict, witness = _read_verdict(d / f"deep-{i}.csv")
            label = f"deep query {i}"
            require(verdict == {cli.EXIT_OK: "verified", cli.EXIT_FALSIFIED: "falsified"}[code],
                    f"{label}: exit code {code} but verdict {verdict}")
            if verdict == "falsified":
                checks.check_witness(self.deep_net, spec, witness, label)
            else:
                checks.probe_verified(self.deep_net, spec, rng, label)
        self._check_node_lps(rng)

    def _check_node_lps(self, rng, n_sample=24):
        """Re-solve a sample of one deep query's node LPs with HiGHS."""
        spec = verifier.PropertySpec.from_json(json.dumps(self.deep[0]))
        net = mlp.load(INPUTS / "deep-net.json")
        seen = []
        rec = Tracer()
        rec.count(lpmod, "solve_lp", lambda tr, args, kw, res: seen.append((args, kw, res)))
        try:
            verifier.bab_verify(net, spec, verifier.Budget(max_seconds=float(NEVER)))
        finally:
            rec.close()
        for k in sorted(rng.choice(len(seen), size=min(n_sample, len(seen)), replace=False)):
            args, kw, res = seen[k]
            objective = kw.get("objective", args[5] if len(args) > 5 else None)
            checks.check_lp(*args[:5], objective, res, f"node LP {k}")


def _read_verdict(path):
    lines = path.read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    wit = [float(v) for v in row["witness"].split(";")] if row["witness"] else None
    return row["verdict"], wit


# ---------------------------------------------------------------------------

def _hull(Z):
    r = np.abs(Z.G).sum(axis=1)
    return np.stack([Z.c - r, Z.c + r])


class ReachWorkload(Workload):
    """One stage, `reach`: branch-steps, and the simulated time they certify."""

    STAGES = {"reach": ("reach_steps_per_s", 160.0)}

    def stage_metrics(self, rounds):
        m = super().stage_metrics(rounds)
        m["reach_certified_s"] = (statistics.median(r.work["reach"] * self.cfg.dt
                                                    for r in rounds), "sim_s")
        return m


class ReachGlide(ReachWorkload):
    """The heavy plate on its settled glide, four x6 cells, three cycles."""

    name = "reach-glide"
    HALF_WIDTH = 0.08
    CFG = dict(dt=1e-3, dt_control=0.1, t_end=0.3, n_splits=4, exact_alpha=True)
    SAMPLES = 8

    def setup(self):
        super().setup()
        with open(INPUTS / "heavy-settled.json") as fh:
            start = json.load(fh)
        self.params = PlateParams(mass=start["mass"])
        s = State(*start["start"])
        for k in range(start["steps"]):
            s = rk4_step(s, start["e_x"], self.params, start["dt"], t=k * start["dt"])
        self.base = np.array(start["state"])
        require(np.allclose(s.as_tuple(), self.base, rtol=1e-12, atol=1e-12),
                "the heavy plate no longer settles onto the checked-in start")
        self.net = NumpyNet.load(INPUTS / "naive.json")
        self.embedded = mlp.embed_normalization(mlp.load(INPUTS / "naive.json"))
        self.cfg = reach.ReachConfig(**self.CFG)
        x6 = self.base[5]
        self.interval = (x6 - self.HALF_WIDTH, x6 + self.HALF_WIDTH)

    def round(self):
        r = Round()
        result = self._timed(r, "reach", reach.reach_full, self.interval, self.embedded,
                             self.params, self.cfg, base_state=self.base)
        spc = self.cfg.steps_per_cycle
        steps = [(len(b.checkpoints) - 1) * spc for b in result.branches]
        r.work["reach"] = sum(steps)
        r.attempted = len(result.branches)
        r.failed = sum(b.failed for b in result.branches)
        r.signature["branches"] = tuple((b.index, b.failed, b.fail_reason, s)
                                        for b, s in zip(result.branches, steps))
        r.signature["hulls"] = tuple(_hull(b.checkpoints[-1]).tobytes()
                                     for b in result.branches)
        r.outputs["result"] = result
        r.outputs["steps"] = steps
        return r

    def check(self, r, rng):
        result = r.outputs["result"]
        cfg = self.cfg
        horizon = cfg.n_cycles * cfg.steps_per_cycle
        require(len(result.branches) == cfg.n_splits, "branch count")
        for b, steps in zip(result.branches, r.outputs["steps"]):
            label = f"branch {b.index}"
            checks.check_branch(steps, b.failed, b.fail_reason, horizon, steps * cfg.dt,
                                cfg.dt, label)
            X0 = np.tile(self.base, (self.SAMPLES, 1))
            X0[:, 5] = rng.uniform(*b.x6_cell, size=self.SAMPLES)
            traj = checks.closed_loop_samples(self.net, X0, cfg.dt, cfg.steps_per_cycle,
                                              steps, cfg.steps_per_cycle, self.params.mass)
            hulls = [_hull(Z) for Z in b.checkpoints]
            require(hulls[0][0][5] <= b.x6_cell[0] + checks.TOL
                    and hulls[0][1][5] >= b.x6_cell[1] - checks.TOL,
                    f"{label}: initial set misses its cell")
            checks.check_containment(hulls, traj, label)


class ReachPaper(ReachWorkload):
    """Criterion-7 configuration, cell 0 of 16, one branch per clone."""

    name = "reach-paper"
    CLONES = ("naive", "adv")
    CFG = dict(dt=1e-4, t_end=0.5, n_splits=16, exact_alpha=True)
    HORIZON_STEPS = 3000       # 0.3 s: a round stays bounded once branches survive
    WARM_STEPS = 200           # a whole round would double the run; a step's cost is steady
    CHECKPOINT = 100
    SAMPLES = 8

    def setup(self):
        super().setup()
        self.params = PlateParams()
        self.cfg = reach.ReachConfig(**self.CFG)
        edges = np.linspace(1.43, 4.29, self.cfg.n_splits + 1)
        self.cell = (float(edges[0]), float(edges[1]))
        self.nets = {c: NumpyNet.load(INPUTS / f"{c}.json") for c in self.CLONES}
        self.embedded = {c: mlp.embed_normalization(mlp.load(INPUTS / f"{c}.json"))
                         for c in self.CLONES}

    def warm_up(self):
        """WARM_STEPS of each branch, untimed; returns a round's time at that
        pace up to the horizon, at least what a round takes."""
        r = Round()
        self._timed(r, "reach", lambda: [self._branch(self.embedded[c], self.WARM_STEPS)
                                         for c in self.CLONES])
        return r.total_s * self.HORIZON_STEPS / self.WARM_STEPS

    def _branch(self, net, horizon=HORIZON_STEPS):
        cfg, spc = self.cfg, self.cfg.steps_per_cycle
        Z = reach.initial_zonotope(*self.cell)
        kept = [Z]
        reason = ""
        steps = 0
        for k in range(horizon):
            try:
                if k % spc == 0:
                    u = reach.nn_output_set(net, Z, cfg.relu_mode)
                Z = reach.reach_step(Z, u, self.params, cfg)
            except reach.BranchFailure as exc:
                reason = str(exc)
                break
            steps = k + 1
            if steps % self.CHECKPOINT == 0:
                kept.append(Z)
        return steps, reason, kept

    def round(self):
        r = Round()
        branches = self._timed(r, "reach", lambda: {c: self._branch(self.embedded[c])
                                                    for c in self.CLONES})
        r.work["reach"] = sum(b[0] for b in branches.values())
        r.attempted = len(branches)
        r.failed = sum(1 for steps, reason, _ in branches.values() if reason)
        for clone, (steps, reason, kept) in branches.items():
            r.signature[clone] = (steps, reason, _hull(kept[-1]).tobytes())
        r.outputs["branches"] = branches
        return r

    def check(self, r, rng):
        cfg = self.cfg
        for clone, (steps, reason, kept) in r.outputs["branches"].items():
            checks.check_branch(steps, bool(reason), reason, self.HORIZON_STEPS,
                                steps * cfg.dt, cfg.dt, clone)
            X0 = np.zeros((self.SAMPLES, 6))
            X0[:, 0] = 1.0
            X0[:, 5] = rng.uniform(*self.cell, size=self.SAMPLES)
            traj = checks.closed_loop_samples(self.nets[clone], X0, cfg.dt,
                                              cfg.steps_per_cycle, steps, self.CHECKPOINT,
                                              plate.MASS)
            checks.check_containment([_hull(Z) for Z in kept], traj, clone)

    def report(self, r):
        return [f"{clone}: {'failed' if reason else 'certified'} after {steps} steps "
                f"(t = {steps * self.cfg.dt:.4f} s){': ' + reason if reason else ''}"
                for clone, (steps, reason, _) in r.outputs["branches"].items()]


WORKLOADS = {w.name: w for w in (TrainVerify, ReachGlide, ReachPaper)}
