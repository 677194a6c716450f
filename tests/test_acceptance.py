"""Acceptance suite: one test per criterion, one printed line per check.

Three checks are known to be unattainable with the tabulated plate constants
(the model is stiff, phase-sensitive and passes next to its own zero-speed
singularity in free flight); they are asserted faithfully and fail with the
measured values. See README "Known limitations" for the analysis.
"""

import time

import numpy as np

from oracles import enumerate_verify
from seedwing import mlp, robust
from seedwing.aeromodel import State, simulate_open_loop, \
    mean_glide_slope, state_derivative
from seedwing.closedloop import (DEFAULT_GAINS, PidController, SimConfig,
                                 simulate_closed_loop, target_error)
from seedwing.mlp import embed_normalization, forward, forward_batch, init_network
from seedwing.reach import ReachConfig, goal_check, reach_full
from seedwing.verifier import (Budget, bab_verify, encode_property,
                               find_critical_ystar, premise_holds,
                               constraint_violation, robustness_sweep)
from seedwing.zono import Zonotope, zono_hull, zono_max_linear, zono_sample
from test_verifier import rand_net, rand_spec

REPORT = []


def check(lines, name, ok, detail):
    line = f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    lines.append((ok, line))
    print(line)
    return ok


def finish(criterion, lines):
    ok = all(o for o, _ in lines)
    verdict = "PASS" if ok else "FAIL"
    REPORT.append(f"criterion {criterion}: {verdict}")
    REPORT.extend(line for _, line in lines)
    print(f"criterion {criterion}: {verdict}")
    assert ok, f"criterion {criterion} failed:\n" + \
        "\n".join(line for o, line in lines if not o)


def test_criterion_1_dynamics_fidelity(params):
    lines = []
    t0 = time.perf_counter()
    s0 = State(1, 0, 0, 0, 0, 0)
    coarse = simulate_open_loop(s0, 0.19, params, 20.0, 0.01)
    fine = simulate_open_loop(s0, 0.19, params, 20.0, 0.001)
    Xc = np.array([s.as_tuple() for s in coarse.states])
    Xf = np.array([s.as_tuple() for s in fine.states])[::10]
    rel = (np.abs(Xc - Xf) / np.maximum(np.abs(Xf), 1.0)).max()
    check(lines, "dt=0.01 vs dt=0.001 within 1e-3 relative", rel <= 1e-3,
          f"max relative deviation {rel:.3e} (stiff stall transitions, "
          f"|lambda|*dt >> 1 at the 0.01 s step; see README)")

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100000):
        s = State(rng.uniform(0.05, 1.2), rng.uniform(-0.5, 0.5),
                  rng.uniform(-8, 8), rng.uniform(-3, 1),
                  rng.uniform(-5, 5), rng.uniform(-5, 5))
        d = state_derivative(s, 0.187, params)
        lhs = d.dx5 ** 2 + d.dx6 ** 2
        rhs = s.x1 ** 2 + s.x2 ** 2
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-30))
    check(lines, "rotation identity at 1e5 random states", worst <= 1e-12,
          f"worst relative defect {worst:.2e}")

    elapsed = time.perf_counter() - t0
    check(lines, "runtime < 10 s", elapsed < 10.0, f"{elapsed:.1f}s")
    finish(1, lines)


def test_criterion_2_open_loop_directional(params):
    lines = []
    s0 = State(1, 0, 0, 0, 0, 0)
    slopes = {}
    for e_x in (0.181, 0.193):
        tr = simulate_open_loop(s0, e_x, params, 20.0, 0.01)
        slopes[e_x] = mean_glide_slope(tr, 10.0)
    rel = abs(slopes[0.181] - slopes[0.193]) / max(abs(v) for v in slopes.values())
    check(lines, "mean glide slope differs >= 10% between offset extremes",
          rel >= 0.10,
          f"slopes {slopes[0.181]:+.3f} vs {slopes[0.193]:+.3f} ({100*rel:.0f}%)")
    finish(2, lines)


def test_criterion_3_teacher_and_cloning(params, dataset, norm_spec, data_arrays):
    lines = []
    t0 = time.perf_counter()
    cfg = SimConfig()
    worst = 0.0
    for x6_0 in cfg.x6_starts:
        tr = simulate_closed_loop(State(1, 0, 0, 0, 0, x6_0),
                                  PidController(DEFAULT_GAINS, 0.5), cfg, params)
        late = [abs(target_error(s)) for t, s in zip(tr.times, tr.states) if t >= 10.0]
        worst = max(worst, max(late))
    check(lines, "PID keeps |x6+x5| <= 2 for t >= 10 s from all 9 starts",
          worst <= 2.0,
          f"worst late band error {worst:.3f} (uncontrollable descent rate "
          f"~0.21 m/s relative to the line; tuner floor 2.65, see README)")

    X, Y = data_arrays
    rng = np.random.default_rng(123)
    idx = rng.permutation(len(X))
    tr_idx, te_idx = idx[:173], idx[173:]
    net = mlp.train(init_network(seed=0, norm=norm_spec), X[tr_idx], Y[tr_idx],
                    epochs=2000, lr=0.02, seed=0)
    held = mlp.rmse(net, X[te_idx], Y[te_idx])
    check(lines, "held-out normalized RMSE <= 0.05", held <= 0.05, f"{held:.4f}")

    elapsed = time.perf_counter() - t0
    check(lines, "pipeline < 5 min", elapsed < 300.0, f"{elapsed:.0f}s")
    finish(3, lines)


def test_criterion_4_verifier_soundness_completeness():
    lines = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_fals = n_ver = 0
    mismatches = []
    witness_fail = 0
    fuzz_fail = 0
    for trial in range(200):
        net = rand_net(rng)
        spec = rand_spec(rng, net)
        v = bab_verify(net, spec, Budget(max_nodes=200000, max_seconds=60))
        want, _ = enumerate_verify(net, spec)
        if v.status != want:
            mismatches.append(trial)
            continue
        if v.status == "falsified":
            n_fals += 1
            y = forward_batch(net, v.witness[None, :])[0]
            ok = premise_holds(spec, v.witness) and max(
                constraint_violation(c, v.witness, y) for c in spec.conclusion) > 1e-9
            witness_fail += 0 if ok else 1
        elif not v.vacuous:
            n_ver += 1
            lo = np.array([b[0] for b in spec.input_box])
            hi = np.array([b[1] for b in spec.input_box])
            S = rng.uniform(lo, hi, size=(100000, len(lo)))
            keep = np.ones(len(S), bool)
            for c in spec.premise:
                keep &= S @ np.array(c.in_coef) <= c.rhs + 1e-12
            Yv = forward_batch(net, S[keep])
            for c in spec.conclusion:
                vals = S[keep] @ np.array(c.in_coef) + np.outer(Yv, c.out_coef)[:, 0]
                viol = (vals - c.rhs).max() if c.rel == "<=" else (c.rhs - vals).max()
                if viol > 1e-7:
                    fuzz_fail += 1
    check(lines, "verdict equality with the enumeration oracle (200 nets)",
          not mismatches, f"mismatches: {mismatches or 'none'} "
          f"({n_fals} falsified / {n_ver} verified non-vacuous)")
    check(lines, "every falsified witness replays", witness_fail == 0,
          f"{witness_fail} bad witnesses")
    check(lines, "every verified spec survives 1e5-sample fuzzing",
          fuzz_fail == 0, f"{fuzz_fail} fuzz violations")
    elapsed = time.perf_counter() - t0
    check(lines, "runtime < 10 min", elapsed < 600.0, f"{elapsed:.0f}s")
    finish(4, lines)


def test_criterion_5_critical_ystar_table(naive_net, adv_net, norm_spec):
    lines = []
    budget = Budget(max_nodes=50000, max_seconds=30.0)
    box = tuple(zip(norm_spec.in_min, norm_spec.in_max))
    table = {}
    for name, net in (("naive", naive_net), ("adversarial", adv_net)):
        emb = embed_normalization(net)
        for kind in (1, 2, 3, 4):
            res = find_critical_ystar(emb, kind, box, resolution=1.0,
                                      search_max=20.0, budget=budget)
            table[(name, kind)] = res
    rows = []
    for kind in (1, 2, 3, 4):
        vals = []
        for name in ("naive", "adversarial"):
            r = table[(name, kind)]
            vals.append("Failed" if r.failed else
                        f"{r.value:g}" + (" (vacuous)" if r.vacuous else ""))
        rows.append(f"P{kind}: naive={vals[0]} adversarial={vals[1]}")
    check(lines, "table produced for naive/adversarial x P1-P4", len(table) == 8,
          "; ".join(rows))

    mono_ok = True
    details = []
    for (name, kind), res in table.items():
        if kind == 3 or res.failed:
            continue
        net = embed_normalization(naive_net if name == "naive" else adv_net)
        v_up = bab_verify(net, encode_property(kind, res.value + 1.0, box), budget)
        if not v_up.verified:
            mono_ok = False
            details.append(f"{name} P{kind}")
    check(lines, "monotonicity: verified at critical ystar implies at +1 (P1/P2/P4)",
          mono_ok, "violations: " + (", ".join(details) or "none"))

    p4_ok = True
    p4_detail = []
    for name, net in (("naive", naive_net), ("adversarial", adv_net)):
        emb = embed_normalization(net)
        wide = bab_verify(emb, encode_property(4, 20.0, box), budget)
        res = table[(name, 4)]
        if wide.verified and not (not res.failed and res.value == 0.0):
            p4_ok = False
        p4_detail.append(f"{name}: premise-wide bound "
                         f"{'holds' if wide.verified else 'fails'}, critical="
                         f"{'Failed' if res.failed else res.value}")
    check(lines, "P4 evaluates at ystar=0 when the premise-wide bound holds",
          p4_ok, "; ".join(p4_detail))

    r1n, r1a = table[("naive", 1)], table[("adversarial", 1)]
    if not r1n.failed and not r1a.failed:
        direction = f"adversarial {r1a.value:g} vs naive {r1n.value:g} " \
                    f"({'<=' if r1a.value <= r1n.value else '>'})"
    else:
        direction = f"naive={'Failed' if r1n.failed else r1n.value:g}, " \
                    f"adversarial={'Failed' if r1a.failed else r1a.value:g}"
    print(f"  [REPORT] P1 directional claim (adversarial <= naive): {direction}")
    finish(5, lines)


def test_criterion_6_robustness_grid(naive_net, data_arrays):
    lines = []
    t0 = time.perf_counter()
    X, _ = data_arrays
    eps_list = (1e-5, 1e-4, 1e-3, 1e-2)
    l_list = (1e-5, 1e-4, 1e-3, 1e-2)
    grid = robustness_sweep(naive_net, X, eps_list, l_list, n_points=100,
                            per_query_budget=Budget(max_nodes=20000, max_seconds=5.0),
                            cell_budget_s=60.0)
    for eps in eps_list:
        cells = ["  - " if grid[(eps, l)].rate is None
                 else f"{100*grid[(eps, l)].rate:4.0f}" for l in l_list]
        print(f"  [GRID] eps={eps:g}: {' '.join(cells)}")
    loosest = grid[(1e-5, 1e-2)]
    check(lines, "loosest cell rate is 100%",
          loosest.rate == 1.0, f"rate {loosest.rate}")
    mono = True
    for eps in eps_list:
        rates = [grid[(eps, l)].rate for l in l_list]
        known = [r for r in rates if r is not None]
        filt = [r for r in rates if r is not None]
        if any(b < a - 1e-12 for a, b in zip(filt, filt[1:])):
            mono = False
    check(lines, "rates non-decreasing along L* at fixed eps", mono, "checked 4 rows")
    absent = sum(1 for c in grid.values() if c.rate is None)
    check(lines, "per-query budget honoured, absent cells mirrored",
          all(c.seconds <= 60.0 + 5.5 for c in grid.values()),
          f"{absent} absent cells")
    elapsed = time.perf_counter() - t0
    check(lines, "runtime < 20 min", elapsed < 1200.0, f"{elapsed:.0f}s")
    finish(6, lines)


def _closed_loop_traj(net, params, x6_0, n_cycles):
    """Checkpoint states of the dt=0.01 closed loop under the embedded net."""
    emb = embed_normalization(net) if net.norm is not None else net
    from seedwing.aeromodel import rk4_step
    s = State(1.0, 0.0, 0.0, 0.0, 0.0, x6_0)
    out = [np.array(s.as_tuple())]
    for _ in range(n_cycles):
        u = float(min(max(forward(emb, np.array(s.as_tuple())), 0.181), 0.193))
        for _ in range(50):
            s = rk4_step(s, u, params, 0.01)
        out.append(np.array(s.as_tuple()))
    return out


def test_criterion_7_reachability_containment(params, naive_net, adv_net):
    lines = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    results = {}
    contained_all = True
    details = []
    for name, net in (("naive", naive_net), ("adversarial", adv_net)):
        emb = embed_normalization(net)
        # dt refined to 1e-4 because at the 0.01 s default the a-priori
        # (Picard) enclosure validates the first step from the 1 m/s start
        # and fails to converge on the second
        cfg = ReachConfig(n_splits=16, dt=1e-4)
        result = reach_full((1.43, 4.29), emb, params, cfg)
        results[name] = result
        n_failed = sum(1 for b in result.branches if b.failed)
        first = next((b for b in result.branches if b.failed), None)
        ok_here = True
        n_checked = 0
        for _ in range(50):
            x6_0 = rng.uniform(1.43, 4.29)
            br = next(b for b in result.branches
                      if b.x6_cell[0] - 1e-12 <= x6_0 <= b.x6_cell[1] + 1e-12)
            traj = _closed_loop_traj(net, params, x6_0, cfg.n_cycles)
            if br.failed or len(br.checkpoints) < cfg.n_cycles + 1:
                ok_here = False
                continue
            n_checked += 1
            for k in range(1, cfg.n_cycles + 1):
                lo, hi = zono_hull(br.checkpoints[k])
                v = traj[k]
                if not (np.all(v >= lo - 1e-9) and np.all(v <= hi + 1e-9)):
                    ok_here = False
        contained_all &= ok_here
        details.append(
            f"{name}: {n_failed}/{len(result.branches)} branches failed"
            + (f" (first: cycle {first.fail_cycle}, {first.fail_reason})" if first else ""))
    check(lines, "100 sampled trajectories contained at all 40 checkpoints "
          "(both networks)", contained_all,
          "; ".join(details) + " — free flight passes within 6e-3 of the "
          "zero-relative-flow singularity, where no enclosure exists (README)")
    elapsed = time.perf_counter() - t0
    check(lines, "runtime < 30 min with 16 splits", elapsed < 1800.0, f"{elapsed:.0f}s")
    test_criterion_7_reachability_containment.results = results
    finish(7, lines)


def test_criterion_8_goal_check(params, naive_net, adv_net):
    lines = []
    # goal outcomes for the criterion-7 runs are reported, not asserted
    results = getattr(test_criterion_7_reachability_containment, "results", None)
    if results is None:
        results = {}
        for name, net in (("naive", naive_net), ("adversarial", adv_net)):
            emb = embed_normalization(net)
            results[name] = reach_full((1.43, 4.29), emb, params,
                                       ReachConfig(n_splits=4))
    for name, result in results.items():
        verdict = goal_check(result, 2.0)
        print(f"  [REPORT] {name} goal |x6+x5| <= 2 at 20 s: {verdict.status}")

    rng = np.random.default_rng(8)
    worst_gap = 0.0
    sound = True
    for _ in range(20):
        Z = Zonotope(rng.normal(size=6), rng.normal(scale=0.5, size=(6, 10)))
        w = np.array([0, 0, 0, 0, 1.0, 1.0])
        exact = zono_max_linear(Z, w)
        vals = zono_sample(Z, 100000, rng) @ w
        if vals.max() > exact + 1e-9:
            sound = False
        xi = np.sign(w @ Z.G)
        attained = float(w @ (Z.c + Z.G @ xi))
        worst_gap = max(worst_gap, abs(attained - exact))
    check(lines, "band functional maximization exact (closed form vs 1e5 samples)",
          sound and worst_gap <= 1e-9,
          f"sampling never exceeds closed form; vertex gap {worst_gap:.1e}")
    finish(8, lines)


def test_criterion_9_training_properties(naive_net, adv_net, data_arrays):
    lines = []
    X, Y = data_arrays
    rng = np.random.default_rng(9)
    ratio_ok = True
    worst_ratio = np.inf
    for seed in range(5):
        net = init_network((2, 3, 2, 1), seed=seed)
        x = rng.uniform(0.2, 0.8, size=2)
        y = forward(net, x) + rng.uniform(-0.3, 0.3)
        eps = 0.15
        cfg = robust.AttackConfig(epsilon=eps, steps=30, step_size=eps / 8, restarts=4)
        adv = robust.pgd_attack_batch(net, x[None, :], np.array([y]), cfg,
                                      ((0.0, 0.0), (1.0, 1.0)),
                                      np.random.default_rng(seed))[0]
        pgd_loss = (forward(net, adv) - y) ** 2
        g = np.linspace(-eps, eps, 100)
        gx, gy = np.meshgrid(g, g)
        pts = np.clip(x + np.stack([gx.ravel(), gy.ravel()], axis=1), 0.0, 1.0)
        grid_loss = ((forward_batch(net, pts) - y) ** 2).max()
        worst_ratio = min(worst_ratio, pgd_loss / grid_loss)
        ratio_ok &= pgd_loss >= 0.95 * grid_loss
    check(lines, "PGD >= 0.95 x grid-search oracle on tiny nets", ratio_ok,
          f"worst ratio {worst_ratio:.3f}")

    from test_mlp import fd_gradient
    net = init_network(seed=7)
    Xb = np.random.default_rng(10).uniform(0.05, 0.95, size=(12, 6))
    Yb = np.random.default_rng(11).uniform(0, 1, size=12)
    g = mlp.gradient(net, Xb, Yb)
    ref = fd_gradient(net, Xb, Yb)
    worst = float(np.max(np.abs(g - ref) / np.maximum(np.abs(ref), 1e-4)))
    check(lines, "backprop matches finite differences to 1e-4 relative",
          worst < 1e-4, f"worst relative deviation {worst:.2e}")

    probe = robust.AttackConfig(epsilon=1e-2)
    box = (np.zeros(6), np.ones(6))
    lip_n = robust.empirical_lipschitz(naive_net, X, probe, box, seed=7)
    lip_a = robust.empirical_lipschitz(adv_net, X, probe, box, seed=7)
    check(lines, "adversarial empirical Lipschitz <= naive (same seed/schedule)",
          lip_a <= lip_n, f"adversarial {lip_a:.3f} vs naive {lip_n:.3f}")
    finish(9, lines)


def test_print_acceptance_report(pytestconfig, tmp_path_factory):
    report = "\n".join(REPORT)
    print("\n================ acceptance report ================")
    print(report)
    print("===================================================")
    # into pytest's cache directory, which is not part of the checkout, or a
    # temporary directory when the cache plugin is off (-p no:cacheprovider)
    cache = getattr(pytestconfig, "cache", None)
    folder = cache.mkdir("acceptance") if cache is not None else \
        tmp_path_factory.mktemp("acceptance")
    path = folder / "acceptance_report.txt"
    path.write_text(report + "\n")
    print(f"acceptance report written to {path}")
