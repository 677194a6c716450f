"""Minimal feed-forward ReLU regression network with exact backprop.

Default architecture 6-6-4-1-1: three ReLU hidden layers and an identity
output. Networks are treated as immutable once built. Training steps a
private flat copy of the parameters in place, on a working network whose
layers are views of it, and returns a new network on a copy of that vector.
The JSON file format stores every float with 17 significant digits, which
round-trips 64-bit values exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .closedloop import NormSpec
from .zono import Zonotope, zono_hull

DEFAULT_WIDTHS = (6, 6, 4, 1, 1)
# training settings shared by plain and adversarial training
EPOCHS = 2000
LR = 0.02
BATCH_SIZE = 32


class NetworkFormatError(ValueError):
    pass


class TrainingError(RuntimeError):
    """Training ended without a usable network."""


class TrainingDivergedError(TrainingError):
    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training loss diverged at epoch {epoch}")


class TrainingCollapsedError(TrainingError):
    def __init__(self, value: float):
        super().__init__(f"training collapsed to a constant network "
                         f"(output {value:.8g} on every training input)")


@dataclass(frozen=True)
class Layer:
    w: np.ndarray          # (out, in)
    b: np.ndarray          # (out,)
    act: str               # "relu" | "id"

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.w.ndim != 2 or self.b.ndim != 1 or self.w.shape[0] != self.b.shape[0]:
            raise NetworkFormatError("layer shape mismatch")
        if self.act not in ("relu", "id"):
            raise NetworkFormatError(f"unknown activation {self.act!r}")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise NetworkFormatError("non-finite layer parameters")


@dataclass(frozen=True)
class Network:
    layers: tuple
    norm: NormSpec | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        for a, b in zip(self.layers, self.layers[1:]):
            if b.w.shape[1] != a.w.shape[0]:
                raise NetworkFormatError("adjacent layer widths disagree")
        if self.norm is not None and len(self.norm.in_min) != self.n_in:
            raise NetworkFormatError(f"'norm.in_min' has {len(self.norm.in_min)} bounds "
                                     f"for {self.n_in} network inputs")

    @property
    def widths(self) -> tuple:
        return (self.layers[0].w.shape[1],) + tuple(l.w.shape[0] for l in self.layers)

    @property
    def n_in(self) -> int:
        return self.layers[0].w.shape[1]

    @property
    def n_relu(self) -> int:
        return sum(l.w.shape[0] for l in self.layers if l.act == "relu")

    @cached_property
    def _param_layout(self) -> tuple:
        """The layout of a flat parameter vector: w then b of each layer."""
        return _layout([s for l in self.layers for s in (l.w.shape, l.b.shape)])


def init_network(widths=DEFAULT_WIDTHS, seed: int = 0, norm: NormSpec | None = None) -> Network:
    """Seeded uniform +-sqrt(6/(fan_in+fan_out)) weights; ReLU everywhere but
    the identity output layer.

    Hidden biases start at +0.01, and a single-neuron ReLU layer draws
    nonnegative incoming weights: its inputs are ReLU outputs, so the
    preactivation starts positive. With zero-mean weights such a bottleneck
    is born dead (zero gradient, permanently constant network) for roughly
    half of all seeds.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for i, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        bound = math.sqrt(6.0 / (n_in + n_out))
        w = rng.uniform(-bound, bound, size=(n_out, n_in))
        act = "id" if i == len(widths) - 2 else "relu"
        if act == "relu" and n_out == 1 and i > 0:
            w = np.abs(w)
        b = np.zeros(n_out) if act == "id" else np.full(n_out, 0.01)
        layers.append(Layer(w, b, act))
    return Network(tuple(layers), norm=norm, meta={"seed": seed})


# ---------------------------------------------------------------------------
# evaluation

def forward(net: Network, x):
    """Scalar output for a single input vector (vector if n_out > 1): the
    one-row case of forward_batch."""
    y = forward_batch(net, np.asarray(x, dtype=float)[None])[0]
    return float(y) if np.ndim(y) == 0 else y


def forward_batch(net: Network, X: np.ndarray) -> np.ndarray:
    """(..., n) outputs for single-output nets, else (..., n, n_out), of
    (..., n, d) inputs, in the network's own units."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = _forward_trace(net, X)[0][-1]
    return Y[..., 0] if Y.shape[-1] == 1 else Y


def interval_preact(layer: Layer, lo: np.ndarray, hi: np.ndarray):
    """Pre-activation interval (lo, hi) of one layer over the input box
    [lo, hi], in midpoint-radius form: w c + b -+ |w| r."""
    c = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    pc = layer.w @ c + layer.b
    pr = np.abs(layer.w) @ r
    return pc - pr, pc + pr


def propagate_bounds(net: Network, Z: Zonotope, phases=None) -> dict:
    """The one ReLU bound propagator: Z through the zonotope ReLU abstraction
    (DeepZ), each layer's hull intersected with interval_preact of the
    running interval. Active rows ('A', lower bound >= 0) pass, inactive ('I',
    upper <= 0) zero, unstable ('U') scale by lam = u/(u-l), shift by
    mu = -lam*l/2 and add one generator mu each, in neuron order. phases maps
    (layer, idx) to 1 (row passes, interval clipped at 0) or 0 (row zeroed);
    one the bounds contradict by more than 1e-12 empties the node. Returns
    {pre: per layer (lo, hi), status: per ReLU layer an 'A'/'I'/'U' string,
    empty} plus, unless empty, out (c, G) and its running interval out_box.
    """
    phases = phases or {}
    c, G = Z.c, Z.G
    a_lo, a_hi = zono_hull(Z)
    pre, status = [], []
    for li, layer in enumerate(net.layers):
        c = layer.w @ c + layer.b
        G = layer.w @ G
        p_lo, p_hi = interval_preact(layer, a_lo, a_hi)
        r = np.abs(G).sum(axis=1)
        lo = np.maximum(c - r, p_lo)
        hi = np.minimum(c + r, p_hi)
        pre.append((lo, hi))
        if layer.act != "relu":
            status.append(None)
            a_lo, a_hi = lo, hi
            continue
        a_lo, a_hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        rows, fresh = [], []           # per neuron (status, scale, shift)
        for j, (l, u) in enumerate(zip(lo.tolist(), hi.tolist())):
            phase = phases.get((li, j))
            if phase is not None and (u < -1e-12 if phase else l > 1e-12):
                return {"pre": pre, "status": status, "empty": True}
            if phase == 1 or (phase is None and l >= 0.0):
                rows.append(("A", 1.0, 0.0))
            elif phase == 0 or u <= 0.0:
                rows.append(("I", 0.0, 0.0))
                a_lo[j] = a_hi[j] = 0.0
            else:
                lam = u / (u - l)
                rows.append(("U", lam, -lam * l / 2.0))
                fresh.append(j)
        st, scale, shift = zip(*rows)
        status.append("".join(st))
        scale, shift = np.array(scale), np.array(shift)
        c = scale * c + shift
        G = G * scale[:, None]
        if fresh:
            G = np.concatenate((G, np.diag(shift)[:, fresh]), axis=1)
    return {"pre": pre, "status": status, "empty": False,
            "out": (c, G), "out_box": (a_lo, a_hi)}


def _forward_trace(net: Network, X: np.ndarray):
    """The one walk over the layers, on a float array of raw (n, d) inputs
    or a stack (..., n, d) of them: returns the activations per layer
    (inputs first, outputs last) and the pre-activations, which backprop
    needs. matmul runs the 2-D kernel on each (n, d) slice of a stack, so a
    slice's values have the bits of its own 2-D trace; stacking as rows
    would not (BLAS picks its kernel by the row count)."""
    acts = [X]
    pres = []
    for layer in net.layers:
        z = acts[-1] @ layer.w.T + layer.b
        pres.append(z)
        acts.append(np.maximum(z, 0.0) if layer.act == "relu" else z)
    return acts, pres


def _layout(shapes) -> tuple:
    """(start, stop, shape) of each array of `shapes`, laid end to end in
    one flat vector."""
    out, k = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append((k, k + size, shape))
        k += size
    return tuple(out)


def _views(flat: np.ndarray, layout) -> list:
    """Each array of `layout` as a view of the last axis of `flat`."""
    lead = flat.shape[:-1]
    return [flat[..., start:stop].reshape(lead + shape) for start, stop, shape in layout]


def _backprop_from_output(net: Network, acts, pres, dL_dy: np.ndarray) -> np.ndarray:
    """Parameter gradient given dL/d(output) of shape (..., n, n_out), as one
    flat vector per (n, n_out) slice in the layout of the training buffer
    (w then b of each layer): each layer's sums written into its views, then
    one division by n."""
    lead = dL_dy.shape[:-2]
    g = np.empty(lead + (net._param_layout[-1][1],))
    views = _views(g, net._param_layout)
    delta = dL_dy
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if layer.act == "relu":
            delta = delta * (pres[i] > 0.0)
        np.matmul(delta.swapaxes(-1, -2), acts[i], out=views[2 * i])
        delta.sum(axis=-2, out=views[2 * i + 1])
        if i > 0:
            delta = delta @ layer.w
    g /= dL_dy.shape[-2]
    return g


def mse(net: Network, X: np.ndarray, Y: np.ndarray) -> float:
    pred = forward_batch(net, X)
    return float(np.mean((pred - np.asarray(Y, dtype=float)) ** 2))


def rmse(net: Network, X: np.ndarray, Y: np.ndarray) -> float:
    return math.sqrt(mse(net, X, Y))


def final_rmse(net: Network, X: np.ndarray, Y: np.ndarray, epochs: int) -> float:
    """Train RMSE of a finished run of `epochs` epochs.

    Raises TrainingDivergedError when it is not finite, and
    TrainingCollapsedError when the network gives one output on training
    inputs that differ (every ReLU of a layer dead)."""
    pred = forward_batch(net, X)
    final = math.sqrt(float(np.mean((pred - np.asarray(Y, dtype=float)) ** 2)))
    if not math.isfinite(final):
        raise TrainingDivergedError(epochs - 1)
    if np.ptp(pred) == 0.0 and np.ptp(X, axis=0).any():
        raise TrainingCollapsedError(float(pred[0]))
    return final


def gradient(net: Network, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Exact gradient of the batch mean squared error, as a flat vector in
    the layout of the network's parameters (mlp._views splits it); ReLU
    subgradient 0 at kinks. A stack X of shape (..., n, d) against the n
    targets Y gives one flat vector per (n, d) slice."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float).reshape(-1)
    if X.shape[-2] == 0:
        raise ValueError("empty batch")
    acts, pres = _forward_trace(net, X)
    resid = acts[-1][..., 0] - Y
    # d(mean(r^2))/dy = 2 r / n, the 1/n lives in _backprop_from_output
    return _backprop_from_output(net, acts, pres, (2.0 * resid)[..., None])


def input_gradient(net: Network, X: np.ndarray, Y: np.ndarray):
    """d/dx of the per-sample squared error (f(x)-y)^2, shape (..., n, d),
    and the outputs f(x), shape (..., n), of the forward trace it walks
    back; the n targets Y serve every (n, d) slice of a stack X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float).reshape(-1)
    acts, pres = _forward_trace(net, X)
    out = acts[-1][..., 0]
    delta = 2.0 * (out - Y)[..., None]
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if layer.act == "relu":
            delta = delta * (pres[i] > 0.0)
        delta = delta @ layer.w
    return delta, out


def apply_gradient(params: np.ndarray, g: np.ndarray, lr: float) -> bool:
    """One descent step on the flat parameter vector `params` along the flat
    gradient `g`, in place; False when the step leaves a parameter that is
    not finite."""
    params -= lr * g
    return bool(np.isfinite(params).all())


def train(net: Network, X: np.ndarray, Y: np.ndarray, epochs: int = EPOCHS,
          lr: float = LR, seed: int = 0, batch_size: int = BATCH_SIZE) -> Network:
    """Plain mini-batch gradient descent on the MSE; deterministic in seed.

    Expects normalized data (inputs and outputs in the unit box). The result
    carries training settings and the final train RMSE in meta.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float).reshape(-1)
    meta = {"kind": net.meta.get("kind", "naive"), "epochs": epochs, "lr": lr,
            "seed": seed, "batch_size": batch_size}
    return _descend(net, X, Y, gradient, epochs, lr, seed, batch_size, meta)


def _on_params(net: Network, flat: np.ndarray, meta=None) -> Network:
    """A network like `net` whose weights and biases are views of the flat
    parameter vector `flat`."""
    views = _views(flat, net._param_layout)
    layers = tuple(Layer(w, b, l.act)
                   for l, w, b in zip(net.layers, views[0::2], views[1::2]))
    return Network(layers, norm=net.norm, meta=meta or {})


def _descend(net: Network, X: np.ndarray, Y: np.ndarray, batch_gradient,
             epochs: int, lr: float, seed: int, batch_size: int, meta: dict) -> Network:
    """The training loop of every objective: seeded mini-batch descent on
    batch_gradient(work, X_batch, Y_batch). `work` is a private network on
    one flat parameter vector, which each step updates in place. Raises
    TrainingDivergedError(epoch) at a step that leaves a non-finite
    parameter: a forward pass that overflows makes the gradient of the next
    batch holding its rows non-finite. final_rmse checks the last step. The
    settings in `meta` plus the final train RMSE are added to the result's."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    params = np.concatenate([a.ravel() for l in net.layers for a in (l.w, l.b)])
    work = _on_params(net, params)
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if not apply_gradient(params, batch_gradient(work, X[idx], Y[idx]), lr):
                raise TrainingDivergedError(epoch)
    final = final_rmse(work, X, Y, epochs)
    out = dict(net.meta)
    out.update(meta)
    out["train_rmse"] = final
    return _on_params(net, params.copy(), out)


# ---------------------------------------------------------------------------
# structural transforms

def embed_normalization(net: Network) -> Network:
    """Fold the NormSpec into the first and last layers.

    The returned network takes raw inputs and yields raw outputs:
    forward(embedded, x) equals the net applied to the normalized x, its
    output denormalized, up to rounding.
    A one-layer network stays one layer, carrying both foldings.
    """
    if net.norm is None:
        raise ValueError("network has no NormSpec to embed")
    spec = net.norm
    lo = np.array(spec.in_min)
    scale = 1.0 / (np.array(spec.in_max) - lo)

    first = net.layers[0]
    w0 = first.w * scale[None, :]
    b0 = first.b - first.w @ (lo * scale)
    layers = (Layer(w0, b0, first.act),) + net.layers[1:]
    out_range = spec.out_max - spec.out_min
    last = layers[-1]
    if last.act != "id":
        raise ValueError("output layer must be identity to embed denormalization")
    wl = last.w * out_range
    bl = last.b * out_range + spec.out_min

    layers = layers[:-1] + (Layer(wl, bl, last.act),)
    meta = dict(net.meta)
    meta["normalization"] = "embedded"
    return Network(layers, norm=None, meta=meta)


# ---------------------------------------------------------------------------
# file format

def _f17(v: float) -> float:
    return float(format(v, ".17g"))


def save(net: Network, path):
    doc = {
        "widths": list(net.widths),
        "layers": [{"w": [[_f17(v) for v in row] for row in l.w],
                    "b": [_f17(v) for v in l.b],
                    "act": l.act} for l in net.layers],
        "norm": None if net.norm is None else {
            "in_min": [_f17(v) for v in net.norm.in_min],
            "in_max": [_f17(v) for v in net.norm.in_max],
            "out_min": _f17(net.norm.out_min),
            "out_max": _f17(net.norm.out_max),
        },
        "meta": net.meta,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _floats(name: str, value, ndim: int) -> np.ndarray:
    """A field's value as a finite float array of ndim dimensions."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.ndim != ndim or not np.isfinite(a).all():
        kind = ("a finite number", "a list of finite numbers",
                "a matrix of finite numbers")[ndim]
        raise NetworkFormatError(f"'{name}' must be {kind}")
    return a


def load(path) -> Network:
    """The network of a file `save` wrote; NetworkFormatError naming the
    field at fault when the file does not hold one."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NetworkFormatError("expected a JSON object")
    for key in ("widths", "layers"):
        if key not in doc:
            raise NetworkFormatError(f"missing field '{key}'")
    if not isinstance(doc["layers"], list) or not doc["layers"]:
        raise NetworkFormatError("'layers' must be a non-empty list")
    layers = []
    for i, ld in enumerate(doc["layers"]):
        if not isinstance(ld, dict):
            raise NetworkFormatError(f"'layers[{i}]' must be an object")
        for key in ("w", "b", "act"):
            if key not in ld:
                raise NetworkFormatError(f"missing field 'layers[{i}].{key}'")
        layers.append(Layer(_floats(f"layers[{i}].w", ld["w"], 2),
                            _floats(f"layers[{i}].b", ld["b"], 1), ld["act"]))
    norm = None
    if doc.get("norm") is not None:
        nd = doc["norm"]
        if not isinstance(nd, dict):
            raise NetworkFormatError("'norm' must be an object")
        vals = []
        for key, ndim in (("in_min", 1), ("in_max", 1), ("out_min", 0), ("out_max", 0)):
            if key not in nd:
                raise NetworkFormatError(f"missing field 'norm.{key}'")
            vals.append(_floats(f"norm.{key}", nd[key], ndim).tolist())
        in_min, in_max, out_min, out_max = vals
        try:
            norm = NormSpec(tuple(in_min), tuple(in_max), out_min, out_max)
        except ValueError as exc:
            raise NetworkFormatError(f"'norm': {exc}") from exc
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise NetworkFormatError("'meta' must be an object")
    net = Network(tuple(layers), norm=norm, meta=meta)
    if doc["widths"] != list(net.widths):
        raise NetworkFormatError("declared widths do not match layer shapes")
    return net
