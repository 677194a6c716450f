"""Batch front-end: simulate -> dataset -> train -> verify -> reach.

Configuration comes from an optional JSON file plus flags (flags win). Each
command only computes and returns its exit code, inputs and outputs; `main`
checks every output path before the command runs, times it, writes its
manifest next to its first output and maps every input it rejects to one
`error:` line. Exit codes: 0 success, 1 usage error, 2 falsified / goal
failure, 3 timeout or unknown.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
import time
import warnings

from . import __version__, mlp, robust
from .aeromodel import (U_CENTER, AlphaRegionError, IntegrationDivergedError,
                        PlateParams, State)
from .closedloop import (DEFAULT_GAINS, X6_RANGE, NetworkController,
                         PidController, SimConfig, dataset_from_csv,
                         dataset_to_csv, fit_norm, generate_dataset,
                         rows_to_arrays, simulate_closed_loop,
                         simulate_open_loop)
from .reach import GOAL_YSTAR, ReachConfig, goal_check, reach_full, reach_to_csv
from .svgplot import plot_reach, plot_trajectories
from .verifier import (SWEEP_QUERY_BUDGET, Budget, PropertySpec, bab_verify,
                       encode_property, find_critical_ystar,
                       results_to_csv, robustness_sweep)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSIFIED = 2
EXIT_UNKNOWN = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting. `options` maps each setting
    (an argument's dest) to its action, so that a config value can be
    parsed as its flag; `outputs` maps each output-path setting to its
    default path (None: not written unless given), the first being the
    path the manifest goes next to."""

    def __init__(self, *args, **kw):
        self.options = {}
        self.outputs = {}
        super().__init__(*args, **kw)

    def add_output(self, flag, default=None):
        action = self.add_argument(flag)
        self.outputs[action.dest] = default
        return action

    def add_argument(self, *names, **kw):
        action = super().add_argument(*names, **kw)
        if action.dest not in ("help", "config"):
            self.options[action.dest] = action
        return action

    def error(self, message):
        raise UsageError(message)


def _write_manifest(path, args_ns, inputs, outputs, wall):
    doc = {
        "command": args_ns.command,
        "config": getattr(args_ns, "config", None),
        "seed": getattr(args_ns, "seed", None),
        "args": {k: v for k, v in sorted(vars(args_ns).items())
                 if k not in ("func",)},
        "inputs": list(inputs),
        "outputs": list(outputs),
        "version": __version__,
        "wall_time_s": wall,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _check_writable(path):
    """Raise the OSError that opening path for writing would, without
    creating it: path is a directory, its parent is missing or not a
    directory, or it cannot be written."""
    if os.path.isdir(path):
        code = errno.EISDIR
    else:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            return
    raise OSError(code, os.strerror(code), path)


def _parse(argv):
    """The command's settings from its flags, then its config; each output
    path no flag or config gave takes its default, and every path to be
    written, the manifest's too, is checked before the command computes
    anything."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = parser.commands[args.command]
    _apply_config(args, command)
    paths = []
    for dest, default in command.outputs.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        if getattr(args, dest) is not None:
            paths.append(getattr(args, dest))
    for path in paths + [paths[0] + ".manifest.json"]:
        _check_writable(path)
    return args


def _apply_config(args, parser):
    """Fill the settings no flag gave from the JSON config (flags win).

    Each config value is parsed by the command's parser as the flag of the
    same setting would be, with the same type, choices and errors (a JSON
    list as its items joined by commas); keys that name no setting of the
    command are ignored, so one flat config can serve every command.
    """
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        try:
            conf = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {args.config}: invalid JSON: {exc}") from exc
    section = conf.get(args.command, conf) if isinstance(conf, dict) else conf
    if not isinstance(section, dict):
        raise UsageError(f"config {args.config}: expected a JSON object")
    tokens = []
    for key, val in section.items():
        action = parser.options.get(key)
        if action is None or val is None:
            continue
        opt = action.option_strings[-1]
        if isinstance(val, list):       # items joined as a list flag takes them
            val = ",".join(map(str, val))
        if action.nargs != 0:
            tokens.append(f"{opt}={val}")
        elif val is not False:          # a switch: true gives it, false leaves it off
            tokens.append(opt if val is True else f"{opt}={val}")
    try:
        given = parser.parse_args(tokens)
    except UsageError as exc:
        raise UsageError(f"config {args.config}: {exc}") from exc
    for key, val in vars(given).items():
        if val is not None and getattr(args, key) is None:
            setattr(args, key, val)


def _given(args, *names, **renamed):
    """The settings the user gave, by flag or config, as library keyword
    arguments; the library owns every other default. A name in `names` is
    both keyword and dest; `renamed` maps keyword=dest."""
    pairs = [(n, n) for n in names] + list(renamed.items())
    return {kw: getattr(args, dest) for kw, dest in pairs
            if getattr(args, dest) is not None}


def _d(args, name, default):
    v = getattr(args, name, None)
    return default if v is None else v


# argparse types of the number, list and count flags: a bad value is a
# usage error before any work starts

def finite_float(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def float_list(text) -> tuple:
    return tuple(finite_float(v) for v in text.split(","))


def positive_float(text) -> float:
    value = finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def positive_float_list(text) -> tuple:
    vals = float_list(text)
    if min(vals) <= 0:
        raise argparse.ArgumentTypeError(f"values must be > 0, got {text}")
    return vals


def property_kinds(text) -> tuple:
    kinds = tuple(int(v) for v in text.split(","))
    if not set(kinds) <= {1, 2, 3, 4}:
        raise argparse.ArgumentTypeError(f"takes kinds 1..4, got {text}")
    return kinds


def positive_int(text) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def non_negative_int(text) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args):
    p = PlateParams()
    mode = args.mode or "open"
    s0 = State(1.0, 0.0, 0.0, 0.0, 0.0, _d(args, "x6_start", 2.86))
    out, svg = args.out, args.svg
    inputs = []
    if mode == "open":
        tr = simulate_open_loop(s0, _d(args, "ex", U_CENTER), p,
                                **_given(args, "t_end", "dt", "strict"))
    else:
        cfg = SimConfig(x6_starts=(s0.x6,), record_skip=0,
                        **_given(args, "t_end", "dt_control", dt_model="dt"))
        if args.net:
            ctrl = NetworkController(mlp.load(args.net))
            inputs.append(args.net)
        else:
            ctrl = PidController(DEFAULT_GAINS, cfg.dt_control)
        tr = simulate_closed_loop(s0, ctrl, cfg, p, **_given(args, "strict"))
    tr.to_csv(out)
    plot_trajectories([tr], svg, f"{mode}-loop trajectory", GOAL_YSTAR)
    print(f"wrote {out} ({len(tr)} samples) and {svg}")
    return EXIT_OK, inputs, [out, svg]


def cmd_gen_data(args):
    cfg = SimConfig(**_given(args, "record_skip"))
    gains = dataclasses.replace(DEFAULT_GAINS, **_given(args, "kp", "ki", "kd"))
    rows = generate_dataset(cfg, gains, PlateParams())
    out, norm_out = args.out, args.norm_out
    dataset_to_csv(rows, out)
    spec = fit_norm(rows)
    with open(norm_out, "w") as fh:
        fh.write(spec.to_json())
    print(f"wrote {len(rows)} rows to {out}; normalization to {norm_out}")
    return EXIT_OK, [], [out, norm_out]


def cmd_train(args):
    """`train`, or `train-adv` when that is the command."""
    adversarial = args.command == "train-adv"
    data = _d(args, "data", "dataset.csv")
    rows = dataset_from_csv(data)
    spec = fit_norm(rows)
    X, Y = rows_to_arrays(rows, spec)
    settings = _given(args, "epochs", "lr", "seed", "batch_size")
    net0 = mlp.init_network(norm=spec, **_given(args, "seed"))
    if adversarial:
        rcfg = robust.RobustTrainConfig(
            attack=robust.AttackConfig(**_given(args, "epsilon", "restarts",
                                                steps="pgd_steps")),
            **_given(args, "lambda_lip"), **settings)
        net = robust.train_adversarial(net0, X, Y, rcfg)
    else:
        net = mlp.train(net0, X, Y, **settings)
    out = args.out
    mlp.save(net, out)
    outputs = [out]
    if args.embedded_out:
        mlp.save(mlp.embed_normalization(net), args.embedded_out)
        outputs.append(args.embedded_out)
    print(f"trained {'adversarial' if adversarial else 'naive'} network -> {out} "
          f"(train RMSE {net.meta['train_rmse']:.5f})")
    return EXIT_OK, [data], outputs


def _verdict_exit(status: str) -> int:
    return {"verified": EXIT_OK, "falsified": EXIT_FALSIFIED,
            "timeout": EXIT_UNKNOWN}[status]


def _box_from_net(net):
    if net.norm is None:
        raise UsageError("network carries no normalization bounds; "
                         "provide --spec with an explicit input box")
    return tuple(zip(net.norm.in_min, net.norm.in_max))


def cmd_verify(args):
    if not args.net:
        raise UsageError("--net is required")
    net = mlp.load(args.net)
    inputs = [args.net]
    budget = Budget(**_given(args, max_seconds="budget_s"))
    if args.spec:
        with open(args.spec) as fh:
            try:
                spec = PropertySpec.from_json(fh.read())
            except ValueError as exc:
                raise UsageError(f"spec {args.spec}: {exc}") from exc
        inputs.append(args.spec)
        target = mlp.embed_normalization(net) if net.norm is not None else net
        param = spec.params.get("ystar", "")
    else:
        if args.prop is None:
            raise UsageError("--property (1..4) or --spec is required")
        ystar = _d(args, "ystar", 2.0)
        spec = encode_property(args.prop, ystar, _box_from_net(net))
        target = mlp.embed_normalization(net)
        param = ystar
    v = bab_verify(target, spec, budget)
    out = args.out
    results_to_csv([(spec.name, param, v)], out)
    extra = " (vacuous premise)" if v.vacuous else ""
    print(f"{spec.name}: {v.status}{extra} nodes={v.nodes} lp={v.lp_calls} "
          f"[{v.seconds:.2f}s] -> {out}")
    return _verdict_exit(v.status), inputs, [out]


def cmd_critical_ystar(args):
    if not args.net:
        raise UsageError("--net is required")
    net = mlp.load(args.net)
    target = mlp.embed_normalization(net)
    box = _box_from_net(net)
    budget = Budget(max_seconds=_d(args, "budget_s", 30.0))
    settings = _given(args, "resolution", "search_max")
    out = args.out
    lines = ["property,critical_ystar,failed,vacuous,timeout_flag"]
    for kind in _d(args, "properties", (1, 2, 3, 4)):
        res = find_critical_ystar(target, kind, box, budget=budget, **settings)
        val = "" if res.failed else format(res.value, ".17g")
        lines.append(f"{kind},{val},{int(res.failed)},{int(res.vacuous)},"
                     f"{int(res.flagged_timeout)}")
        shown = "Failed" if res.failed else f"{res.value:g}"
        print(f"property {kind}: critical ystar = {shown}"
              + (" (vacuous)" if res.vacuous else "")
              + (" [timeout bound]" if res.flagged_timeout else ""))
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK, [args.net], [out]


def cmd_robust_sweep(args):
    if not args.net:
        raise UsageError("--net is required")
    if not args.data:
        raise UsageError("--data is required")
    net = mlp.load(args.net)
    if net.norm is None:
        raise UsageError("robustness sweep needs a network with normalization")
    rows = dataset_from_csv(args.data)
    X, _ = rows_to_arrays(rows, net.norm)
    core = mlp.Network(net.layers, norm=None, meta=dict(net.meta))
    sweep_kw = _given(args, "eps_list", "lstar_list", "cell_budget_s",
                      n_points="points")
    if args.query_budget_s is not None:
        sweep_kw["per_query_budget"] = dataclasses.replace(
            SWEEP_QUERY_BUDGET, max_seconds=args.query_budget_s)
    grid = robustness_sweep(core, X, **sweep_kw)
    out = args.out
    with open(out, "w") as fh:
        fh.write("epsilon,lstar,rate,n_verified,n_done,seconds,timeouts\n")
        for (eps, ls), cell in grid.items():
            rate = "" if cell.rate is None else format(cell.rate, ".4f")
            fh.write(f"{eps},{ls},{rate},{cell.n_verified},{cell.n_done},"
                     f"{cell.seconds:.2f},{cell.timeouts}\n")
    print(f"wrote {out}")
    l_list = dict.fromkeys(ls for _, ls in grid)
    for eps in dict.fromkeys(e for e, _ in grid):
        row = []
        for ls in l_list:
            cell = grid[(eps, ls)]
            row.append(" -  " if cell.rate is None else f"{100*cell.rate:4.0f}")
        print(f"eps={eps:g}: " + " ".join(row))
    return EXIT_OK, [args.net, args.data], [out]


def cmd_reach(args):
    if not args.net:
        raise UsageError("--net is required")
    net = mlp.load(args.net)
    target = mlp.embed_normalization(net) if net.norm is not None else net
    cfg = ReachConfig(**_given(args, "dt", "t_end", "max_order", n_splits="splits"))
    x6_interval = (_d(args, "x6_lo", X6_RANGE[0]), _d(args, "x6_hi", X6_RANGE[1]))
    result = reach_full(x6_interval, target, PlateParams(), cfg, **_given(args, "jobs"))
    ystar = _d(args, "goal_ystar", GOAL_YSTAR)
    verdict = goal_check(result, ystar)
    out, svg = args.out, args.svg
    reach_to_csv(result, out)
    plot_reach(result, svg, "reachable sets", ystar)
    n_fail = sum(1 for b in result.branches if b.failed)
    print(f"reach: {len(result.branches)} branches ({n_fail} failed); "
          f"goal |x6+x5| <= {ystar:g}: {verdict.status}"
          + (f" (band [{verdict.band_min:.3f}, {verdict.band_max:.3f}])"
             if verdict.band_max is not None else ""))
    if result.inconclusive:
        for b in result.branches:
            if b.failed:
                t = (b.fail_cycle * cfg.steps_per_cycle + b.fail_step) * cfg.dt
                print(f"  branch {b.index} x6 in [{b.x6_cell[0]:.3f}, {b.x6_cell[1]:.3f}]"
                      f" failed at cycle {b.fail_cycle}, step {b.fail_step} "
                      f"(t = {t:.4f} s): {b.fail_reason}")
                break
    code = {"success": EXIT_OK, "failure": EXIT_FALSIFIED,
            "unknown": EXIT_UNKNOWN}[verdict.status]
    return code, [args.net], [out, svg]


def build_parser() -> _Parser:
    """Every setting defaults to None, meaning "not given": a command passes
    the library only the settings given, and the library owns the rest."""
    ap = _Parser(prog="seedwing", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = sub.choices

    def config(sp):
        sp.add_argument("--config", help="JSON config file (flags win)")

    sp = sub.add_parser("simulate", help="open- or closed-loop trajectory")
    sp.add_argument("--mode", choices=("open", "closed"), help="default open")
    sp.add_argument("--ex", type=finite_float, help="fixed actuation (open loop)")
    sp.add_argument("--net", help="network controller (closed loop)")
    sp.add_argument("--x6-start", dest="x6_start", type=finite_float)
    sp.add_argument("--t-end", dest="t_end", type=finite_float)
    sp.add_argument("--dt", type=finite_float)
    sp.add_argument("--dt-control", dest="dt_control", type=finite_float)
    sp.add_output("--out", "trace.csv")
    sp.add_output("--svg", "trace.svg")
    sp.add_argument("--strict", action="store_true", default=None,
                    help="an angle of attack outside [-pi/2, 0] is an error")
    config(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("gen-data", help="behaviour-cloning dataset from the PID teacher")
    sp.add_argument("--kp", type=finite_float)
    sp.add_argument("--ki", type=finite_float)
    sp.add_argument("--kd", type=finite_float)
    sp.add_argument("--record-skip", dest="record_skip", type=int)
    sp.add_output("--out", "dataset.csv")
    sp.add_output("--norm-out", "norm.json")
    config(sp)
    sp.set_defaults(func=cmd_gen_data)

    for name in ("train", "train-adv"):
        sp = sub.add_parser(name)
        sp.add_argument("--data")
        sp.add_output("--out", "net-adv.json" if name == "train-adv" else "net.json")
        sp.add_output("--embedded-out")
        sp.add_argument("--epochs", type=positive_int)
        sp.add_argument("--lr", type=finite_float)
        sp.add_argument("--batch-size", dest="batch_size", type=positive_int)
        sp.add_argument("--seed", type=non_negative_int)
        if name == "train-adv":
            sp.add_argument("--epsilon", type=finite_float)
            sp.add_argument("--pgd-steps", dest="pgd_steps", type=int)
            sp.add_argument("--restarts", type=positive_int)
            sp.add_argument("--lambda-lip", dest="lambda_lip", type=finite_float)
        config(sp)
        sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("verify", help="verify one property")
    sp.add_argument("--net")
    sp.add_argument("--property", dest="prop", type=int, choices=(1, 2, 3, 4))
    sp.add_argument("--ystar", type=finite_float)
    sp.add_argument("--spec", help="PropertySpec JSON file")
    sp.add_argument("--budget-s", dest="budget_s", type=positive_float)
    sp.add_output("--out", "verify.csv")
    config(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("critical-ystar", help="critical threshold per property")
    sp.add_argument("--net")
    sp.add_argument("--properties", type=property_kinds)
    sp.add_argument("--resolution", type=finite_float)
    sp.add_argument("--search-max", dest="search_max", type=finite_float)
    sp.add_argument("--budget-s", dest="budget_s", type=positive_float)
    sp.add_output("--out", "critical-ystar.csv")
    config(sp)
    sp.set_defaults(func=cmd_critical_ystar)

    sp = sub.add_parser("robust-sweep", help="robustness success-rate grid")
    sp.add_argument("--net")
    sp.add_argument("--data")
    sp.add_argument("--eps-list", dest="eps_list", type=positive_float_list)
    sp.add_argument("--lstar-list", dest="lstar_list", type=float_list)
    sp.add_argument("--points", type=positive_int)
    sp.add_argument("--query-budget-s", dest="query_budget_s", type=positive_float)
    sp.add_argument("--cell-budget-s", dest="cell_budget_s", type=positive_float)
    sp.add_output("--out", "robust-sweep.csv")
    config(sp)
    sp.set_defaults(func=cmd_robust_sweep)

    sp = sub.add_parser("reach", help="closed-loop reachable sets and goal check")
    sp.add_argument("--net")
    sp.add_argument("--splits", type=int)
    sp.add_argument("--goal-ystar", dest="goal_ystar", type=finite_float)
    sp.add_argument("--x6-lo", dest="x6_lo", type=finite_float)
    sp.add_argument("--x6-hi", dest="x6_hi", type=finite_float)
    sp.add_argument("--dt", type=finite_float)
    sp.add_argument("--t-end", dest="t_end", type=finite_float)
    sp.add_argument("--max-order", dest="max_order", type=finite_float)
    sp.add_output("--out", "reach.csv")
    sp.add_output("--svg", "reach.svg")
    config(sp)
    sp.add_argument("--jobs", type=positive_int, help="worker processes (default 1)")
    sp.set_defaults(func=cmd_reach)
    return ap


def main(argv=None) -> int:
    """Run one command, write its manifest, and map every input it rejects
    (a ValueError covers the settings, files and configs the library
    rejects; an OSError, a path that cannot be read or written) to one
    `error:` line and exit 1. An output path that cannot be written is
    rejected before the command runs, so nothing is computed or written."""
    try:
        args = _parse(argv)
        t0 = time.perf_counter()
        # warnings (numpy's, as a training run diverges) are silenced for
        # this command only
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, inputs, outputs = args.func(args)
        _write_manifest(outputs[0] + ".manifest.json", args, inputs, outputs,
                        time.perf_counter() - t0)
        return code
    except (UsageError, ValueError, OSError, mlp.TrainingError,
            AlphaRegionError, IntegrationDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
