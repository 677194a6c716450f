"""Each correctness check fails when fed a deliberately corrupted output.

    python3 -m pytest perfbench/test_checks.py
"""

from common import INPUTS, use_checkout

use_checkout()

import json  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import plate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, NumpyNet  # noqa: E402
from seedwing import lp as lpmod  # noqa: E402
from seedwing import mlp, reach, verifier  # noqa: E402
from seedwing.aeromodel import PlateParams  # noqa: E402


@pytest.fixture(scope="module")
def deep():
    with open(INPUTS / "deep-queries.json") as fh:
        queries = json.load(fh)["queries"]
    return NumpyNet.load(INPUTS / "deep-net.json"), mlp.load(INPUTS / "deep-net.json"), queries


def _solve(net, spec):
    return verifier.bab_verify(net, verifier.PropertySpec.from_json(json.dumps(spec)),
                               verifier.Budget(max_seconds=1e9))


def test_plate_transcription_matches_program():
    from seedwing.aeromodel import _deriv_raw
    rng = np.random.default_rng(0)
    X = rng.uniform([0.05, -0.5, -8, -3, -5, -5], [1.2, 0.5, 8, 1, 5, 5], size=(50, 6))
    for mass in (plate.MASS, 0.02):
        p = PlateParams(mass=mass)
        ref = np.array([_deriv_raw(tuple(x), 0.187, p) for x in X])
        got = plate.derivative(X, 0.187, mass)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_flipped_deep_verdicts_fail(deep):
    net, prog_net, queries = deep
    rng = np.random.default_rng(1)
    for q in queries:
        v = _solve(prog_net, q["spec"])
        if v.status == "verified":
            # claimed falsified: no witness replays
            with pytest.raises(CheckError):
                checks.check_witness(net, q["spec"], None, "flipped")
            with pytest.raises(CheckError):
                checks.check_witness(net, q["spec"], q["spec"]["input_box"][0][:1] * 6,
                                     "flipped")
        else:
            checks.check_witness(net, q["spec"], v.witness, "genuine")
    # a query violated almost everywhere, claimed verified
    spec = dict(queries[0]["spec"])
    f0 = spec["conclusion"][0]["rhs"] - 1e-9
    spec["conclusion"] = [{"in": [0.0] * 6, "out": [1.0], "rel": "<=", "rhs": f0 - 1.0}]
    with pytest.raises(CheckError):
        checks.probe_verified(net, spec, rng, "flipped")


def test_perturbed_witness_fails(deep):
    net, prog_net, queries = deep
    q = next(q for q in queries if _solve(prog_net, q["spec"]).status == "falsified")
    w = _solve(prog_net, q["spec"]).witness
    checks.check_witness(net, q["spec"], w, "genuine")
    lo, hi = checks.spec_box(q["spec"])
    with pytest.raises(CheckError):
        checks.check_witness(net, q["spec"], hi + 0.01, "outside the ball")
    with pytest.raises(CheckError):
        checks.check_witness(net, q["spec"], 0.5 * (lo + hi), "moved to the centre")


def test_shrunken_hull_fails():
    cfg = reach.ReachConfig(dt=1e-4, t_end=0.5, n_splits=16, exact_alpha=True)
    net = NumpyNet.load(INPUTS / "naive.json")
    emb = mlp.embed_normalization(mlp.load(INPUTS / "naive.json"))
    cell = (1.43, 1.43 + 2.86 / 16)
    Z = reach.initial_zonotope(*cell)
    u = reach.nn_output_set(emb, Z, cfg.relu_mode)
    hulls = [Z]
    for _ in range(40):
        Z = reach.reach_step(Z, u, PlateParams(), cfg)
    hulls.append(Z)
    hulls = [np.stack([h.c - np.abs(h.G).sum(1), h.c + np.abs(h.G).sum(1)]) for h in hulls]
    X0 = np.zeros((16, 6))
    X0[:, 0] = 1.0
    X0[:, 5] = np.linspace(*cell, 16)
    traj = checks.closed_loop_samples(net, X0, cfg.dt, cfg.steps_per_cycle, 40, 40,
                                      plate.MASS)
    checks.check_containment(hulls, traj, "genuine")
    lo, hi = hulls[-1]
    shrunk = hulls[:-1] + [np.stack([lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)])]
    with pytest.raises(CheckError):
        checks.check_containment(shrunk, traj, "shrunken")


def test_wrong_step_count_fails():
    checks.check_branch(2145, True, "cause", 3000, 0.2145, 1e-4, "genuine")
    checks.check_branch(300, False, "", 300, 0.3, 1e-3, "genuine")
    with pytest.raises(CheckError):
        checks.check_branch(2145, True, "cause", 3000, 0.2146, 1e-4, "certified")
    with pytest.raises(CheckError):
        checks.check_branch(299, False, "", 300, 0.299, 1e-3, "short, no failure")
    with pytest.raises(CheckError):
        checks.check_branch(2145, True, "", 3000, 0.2145, 1e-4, "no cause")
    with pytest.raises(CheckError):
        checks.check_repeat({"naive": (2145, "x")}, {"naive": (2146, "x")}, "rounds")


def test_corrupted_teacher_rows_fail():
    data = checks.read_dataset(INPUTS / "dataset.csv")
    checks.check_dataset(data)
    for row, col, delta in ((5, 7, 1e-6), (30, 5, 1e-6), (100, 6, 1e-3)):
        bad = data.copy()
        bad[row, col] += delta
        with pytest.raises(CheckError):
            checks.check_dataset(bad)


def test_flipped_critical_threshold_fails():
    net = NumpyNet.load(INPUTS / "naive.json")
    emb = mlp.embed_normalization(mlp.load(INPUTS / "naive.json"))
    box = tuple(zip(*net.box))

    def verify(kind, ystar):
        v = verifier.bab_verify(emb, verifier.encode_property(kind, ystar, box))
        return v.verified, None if v.witness is None else list(v.witness)
    rng = np.random.default_rng(2)
    table = {k: dict(value=v, timeout=False)
             for k, v in ((1, 2.0), (2, 2.0), (3, None), (4, 0.0))}
    checks.check_critical_table(table, net, verify, rng, "genuine")
    for kind, wrong in ((1, 1.0), (2, 3.0), (3, 1.0)):
        bad = {k: dict(v) for k, v in table.items()}
        bad[kind]["value"] = wrong
        with pytest.raises(CheckError):
            checks.check_critical_table(bad, net, verify, rng, f"P{kind}={wrong}")


def test_corrupted_sweep_fails():
    net = NumpyNet.load(INPUTS / "naive.json")
    data = checks.read_dataset(INPUTS / "dataset.csv")
    X = (data[:, :6] - net.in_lo) / net.in_scale
    rng = np.random.default_rng(3)
    eps, ls = (1e-3, 1e-2), (1e-3, 1e-2)
    cells = [dict(eps=e, lstar=l, rate=1.0, n_verified=10, n_done=10, timeouts=0)
             for e in eps for l in ls]
    checks.check_sweep(cells, net, X, 10, rng, "genuine")
    bad = [dict(c) for c in cells]
    bad[0].update(rate=0.5, n_verified=5)      # eps 1e-3 row now rises with eps
    with pytest.raises(CheckError):
        checks.check_sweep(bad, net, X, 10, rng, "non-monotone")
    tiny = [dict(c, lstar=c["lstar"] * 1e-6) for c in cells]
    with pytest.raises(CheckError):
        checks.check_sweep(tiny, net, X, 10, rng, "verified claim too strong")


def test_wrong_lp_result_fails(deep):
    _, prog_net, queries = deep
    seen = []
    rec = tracing.Tracer()
    rec.count(lpmod, "solve_lp", lambda tr, args, kw, res: seen.append((args, kw, res)))
    try:
        _solve(prog_net, queries[0]["spec"])
    finally:
        rec.close()
    args, objective, res = next((a, kw["objective"], r) for a, kw, r in seen
                                if kw.get("objective") is not None and r.feasible)
    checks.check_lp(*args[:5], objective, res, "genuine")
    wrong = lpmod.LpSolution(True, res.x, res.objective + 1e-3)
    with pytest.raises(CheckError):
        checks.check_lp(*args[:5], objective, wrong, "objective")
    with pytest.raises(CheckError):
        checks.check_lp(*args[:5], objective, lpmod.LpSolution(False), "feasibility")


def test_clone_quality_checks_fail():
    naive = NumpyNet.load(INPUTS / "naive.json")
    HX, HU = checks.teacher_rows([2.0, 3.5])
    checks.check_heldout_rmse(naive, HX, HU, "genuine")
    with pytest.raises(CheckError):
        checks.check_heldout_rmse(naive, HX, HU + 0.2 * naive.out_scale, "shifted")
    with pytest.raises(CheckError):
        checks.check_lipschitz(3.0, 2.0, "adversarial rougher")
    with pytest.raises(CheckError):
        checks.check_lipschitz(0.0, 2.0, "constant clone")


def _listed(kind):
    with open(INPUTS.parent.parent / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"], m["better"]) for m in json.load(fh)[kind]]


def test_per_layer_names_match_benchmark_file():
    stages = [(name, unit, "higher") for name, unit in workloads.STAGE_METRICS.items()]
    assert _listed("per_layer") == stages + tracing.per_layer_names()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_prints_every_end_to_end_metric(name, tmp_path):
    wl = workloads.WORKLOADS[name](0, tmp_path, None)
    r = workloads.Round(seconds={s: 1.0 for s in wl.STAGES},
                        work={s: ref for s, (_, ref) in wl.STAGES.items()})
    printed = {k: u for k, (_, u) in wl.end_to_end([r]).items()}
    printed.update(setup_s="s", peak_rss_mb="MB")     # added by run.py
    assert printed == {n: u for n, u, _ in _listed("end_to_end")}
    assert wl.end_to_end([r])["round_speed"][0] == pytest.approx(1.0)
