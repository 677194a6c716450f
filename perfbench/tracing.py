"""Spans and counters recorded around calls into the program's layers.

The benchmark wraps the program's public functions from outside: every
module-level name bound to a wrapped function (in any `seedwing` module) is
replaced for the duration of a traced round and restored afterwards. Spans
are kept in memory as (name, start_ns, end_ns, parent); a layer's self time
is its spans' duration minus the part its child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

# (module, function) pairs traced per layer, in report order
LAYERS = (
    ("aeromodel", "rk4_step"),
    ("closedloop", "simulate_closed_loop"),
    ("mlp", "gradient"),
    ("mlp", "apply_gradient"),
    ("mlp", "forward_batch"),
    ("mlp", "input_gradient"),
    ("robust", "pgd_attack_batch"),
    ("verifier", "bab_verify"),
    ("verifier", "interval_bounds"),
    ("verifier", "tighten_box"),
    ("lp", "solve_lp"),
    ("zono", "zono_reduce"),
    ("zono", "zono_hull"),
    ("reach", "reach_full"),
    ("reach", "reach_step"),
    ("reach", "interval_jacobian"),
    ("reach", "interval_derivative"),
    ("reach", "point_jacobian"),
    ("reach", "nn_output_set"),
    ("cli", "main"),
)

# per-layer ratios and counts derived from arguments and return values
DERIVED = (
    ("verifier.nodes", "count", "lower"),
    ("verifier.lp_calls", "count", "lower"),
    ("verifier.nodes_per_query", "nodes", "lower"),
    ("verifier.lp_calls_per_node", "calls", "lower"),
    ("lp.solve_lp.rows_mean", "rows", "lower"),
    ("lp.solve_lp.cols_mean", "cols", "lower"),
    ("zono.zono_reduce.generators_in_mean", "generators", "lower"),
    ("reach.interval_derivative.calls_per_step", "calls", "lower"),
    ("reach.jacobian_width_max", "width", "lower"),
    ("reach.hull_width_max", "width", "lower"),
    ("intervals.ops_per_step", "ops", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.accounted_pct", "%", "higher"),
)

OPERATORS = ("__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__pow__")


def per_layer_names():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for mod, fn in LAYERS:
        out += [(f"{mod}.{fn}.calls", "count", "lower"),
                (f"{mod}.{fn}.self_s", "s", "lower"),
                (f"{mod}.{fn}.us_per_call", "us", "lower")]
    return out + list(DERIVED)


def _verdict(tr, args, kw, v):
    tr.counts["verifier.nodes"] += v.nodes
    tr.counts["verifier.lp_calls"] += v.lp_calls


def _lp_args(tr, args, kw, _):
    tr.counts["lp.rows"] += len(args[2])
    tr.counts["lp.cols"] += len(args[3])


def _reduce_args(tr, args, kw, _):
    tr.counts["zono.generators_in"] += args[0].n_gen


def _hull_width(tr, args, kw, Z):
    tr.peak("reach.hull_width_max", float(2.0 * abs(Z.G).sum(axis=1).max()))


def _jacobian_width(tr, args, kw, J):
    tr.peak("reach.jacobian_width_max", max(v.hi - v.lo for row in J for v in row))


HOOKS = {"verifier.bab_verify": _verdict, "lp.solve_lp": _lp_args,
         "zono.zono_reduce": _reduce_args, "reach.reach_step": _hull_width,
         "reach.interval_jacobian": _jacobian_width}


class Tracer:
    """Installs wrappers, records spans and counts, and restores on close."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.peaks = {}
        self._stack = []
        self._undo = []

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    # -- installation -------------------------------------------------------
    def _rebind(self, fn, wrapper):
        for name, mod in list(sys.modules.items()):
            if not name.startswith("seedwing"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def count(self, module, fn_name, hook):
        """Run `hook(tracer, args, kwargs, result)` after each call; no span."""
        fn = getattr(module, fn_name)

        def counted(*args, **kw):
            result = fn(*args, **kw)
            hook(self, args, kw, result)
            return result
        self._rebind(fn, counted)

    def trace(self, module, fn_name, hook=None):
        """Record a span around each call, then run the hook."""
        fn = getattr(module, fn_name)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{fn_name}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kw):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kw)
            finally:
                spans[idx] = (label, t0, perf_counter_ns(), parent)
                stack.pop()
            if hook is not None:
                hook(self, args, kw, result)
            return result
        self._rebind(fn, traced)

    def count_operators(self, cls, key):
        for op in OPERATORS:
            orig = cls.__dict__.get(op)
            if orig is None:
                continue

            def counted(*args, _orig=orig):
                self.counts[key] += 1
                return _orig(*args)
            setattr(cls, op, counted)
            self._undo.append((cls, op, orig))

    def install_all(self):
        import seedwing.intervals as iv
        for mod, fn in LAYERS:
            module = sys.modules[f"seedwing.{mod}"]
            self.trace(module, fn, HOOKS.get(f"{mod}.{fn}"))
        self.count_operators(iv.Interval, "intervals.ops")
        self.count_operators(iv.Dual, "intervals.ops")

    def close(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reduction ----------------------------------------------------------
    def layer_times(self):
        """{label: [calls, total_ns, self_ns]} over the recorded spans."""
        child = [0] * len(self.spans)
        for label, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (label, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(label, [0, 0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return out

    def metrics(self, traced_s, untraced_s, traced_wall_ns):
        """Every per-layer metric, {name: (value, unit)}."""
        times = self.layer_times()
        c = self.counts
        m = {}
        for mod, fn in LAYERS:
            calls, total, own = times.get(f"{mod}.{fn}", (0, 0, 0))
            m[f"{mod}.{fn}.calls"] = (calls, "count")
            m[f"{mod}.{fn}.self_s"] = (own * 1e-9, "s")
            m[f"{mod}.{fn}.us_per_call"] = (total * 1e-3 / calls if calls else 0.0, "us")

        def ratio(a, b):
            return a / b if b else 0.0
        queries = times.get("verifier.bab_verify", (0,))[0]
        lps = times.get("lp.solve_lp", (0,))[0]
        steps = times.get("reach.reach_step", (0,))[0]
        m["verifier.nodes"] = (c["verifier.nodes"], "count")
        m["verifier.lp_calls"] = (c["verifier.lp_calls"], "count")
        m["verifier.nodes_per_query"] = (ratio(c["verifier.nodes"], queries), "nodes")
        m["verifier.lp_calls_per_node"] = (ratio(c["verifier.lp_calls"], c["verifier.nodes"]),
                                           "calls")
        m["lp.solve_lp.rows_mean"] = (ratio(c["lp.rows"], lps), "rows")
        m["lp.solve_lp.cols_mean"] = (ratio(c["lp.cols"], lps), "cols")
        m["zono.zono_reduce.generators_in_mean"] = (
            ratio(c["zono.generators_in"], times.get("zono.zono_reduce", (0,))[0]),
            "generators")
        m["reach.interval_derivative.calls_per_step"] = (
            ratio(times.get("reach.interval_derivative", (0,))[0], steps), "calls")
        m["reach.jacobian_width_max"] = (self.peaks.get("reach.jacobian_width_max", 0.0), "width")
        m["reach.hull_width_max"] = (self.peaks.get("reach.hull_width_max", 0.0), "width")
        m["intervals.ops_per_step"] = (ratio(c["intervals.ops"], steps), "ops")
        m["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
        own_total = sum(row[2] for row in times.values())
        m["trace.accounted_pct"] = (100.0 * own_total / traced_wall_ns, "%")
        return m
