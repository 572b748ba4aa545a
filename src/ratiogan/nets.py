"""Minimal dense feed-forward nets with exact reverse-mode gradients.

Covers exactly what adversarial training here needs: affine-activation
chains, gradients with respect to parameters and inputs, bias-corrected
Adam, and an exact second-order pass (forward-over-reverse) for the
parameter gradient of input-gradient-norm penalties.  Summation order is
fixed (layer-major, then sample-major) so runs are reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .losses import CANONICAL_RANGES, SquashDescriptor, output_squashing_for

__all__ = [
    "NetSpec",
    "DenseNet",
    "AdamState",
    "init_net",
    "init_adam",
    "forward",
    "backward",
    "adam_step",
    "input_gradients",
    "penalty_from_norms",
    "penalty_coefficients",
    "input_grad_norm_and_hvp",
    "net_to_json",
    "net_from_json",
]

SMOOTH_LEAKY_SLOPE = 0.2

ACTIVATION_NAMES = ("smooth_leaky", "tanh", "relu")


def _act_eval(name: str, z: np.ndarray, want_second: bool = False):
    """Activation value and derivatives in one pass.

    The smooth-leaky unit is slope*z + (1-slope)*softplus(z); softplus,
    its sigmoid derivative, and the second derivative all share one
    exponential evaluation.
    """
    if name == "smooth_leaky":
        s = np.exp(-np.abs(z))
        t = 1.0 / (1.0 + s)
        sig = np.where(z >= 0.0, t, 1.0 - t)
        softplus = np.maximum(z, 0.0) + np.log1p(s)
        a = SMOOTH_LEAKY_SLOPE * z + (1.0 - SMOOTH_LEAKY_SLOPE) * softplus
        d1 = SMOOTH_LEAKY_SLOPE + (1.0 - SMOOTH_LEAKY_SLOPE) * sig
        d2 = (1.0 - SMOOTH_LEAKY_SLOPE) * sig * (1.0 - sig) if want_second else None
        return a, d1, d2
    if name == "tanh":
        a = np.tanh(z)
        d1 = 1.0 - a * a
        d2 = -2.0 * a * d1 if want_second else None
        return a, d1, d2
    if name == "relu":
        a = np.maximum(z, 0.0)
        d1 = (z > 0.0).astype(float)
        return a, d1, None  # second derivative vanishes a.e.
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class NetSpec:
    widths: tuple
    hidden: str = "smooth_leaky"
    squash: Optional[SquashDescriptor] = None  # None = identity output
    seed: int = 0

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ValueError("need at least one hidden layer")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be >= 1")
        if self.hidden not in ACTIVATION_NAMES:
            raise ValueError(f"unknown activation {self.hidden!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))


@dataclass
class DenseNet:
    weights: List[np.ndarray]
    biases: List[np.ndarray]
    spec: NetSpec

    @property
    def n_layers(self):
        return len(self.weights)


def init_net(spec: NetSpec) -> DenseNet:
    """Zero-mean normal weights scaled by 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(spec.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in)) / math.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return DenseNet(weights=weights, biases=biases, spec=spec)


def _squash_eval(net: DenseNet, z: np.ndarray, want_second: bool = False):
    squash = net.spec.squash
    if squash is None:
        d2 = np.zeros_like(z) if want_second else None
        return z, np.ones_like(z), d2
    d2 = squash.second_deriv(z) if want_second else None
    return squash.fn(z), squash.deriv(z), d2


def _layer_eval(net: DenseNet, layer: int, z: np.ndarray, want_second: bool = False):
    if layer < net.n_layers - 1:
        return _act_eval(net.spec.hidden, z, want_second)
    return _squash_eval(net, z, want_second)


def forward(net: DenseNet, batch: np.ndarray, with_derivs: bool = False):
    """Affine-activation chain; the cache holds what backward needs.

    ``with_derivs`` also caches activation slopes so a following backward
    pass skips recomputing them.
    """
    a = np.asarray(batch, dtype=float)
    if a.ndim != 2 or a.shape[1] != net.spec.widths[0]:
        raise ValueError(
            f"batch shape {a.shape} does not match input width {net.spec.widths[0]}"
        )
    inputs, pre, d1s = [], [], []
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        inputs.append(a)
        pre.append(z)
        if with_derivs:
            a, d1, _ = _layer_eval(net, layer, z)
            d1s.append(d1)
        else:
            a = _layer_eval(net, layer, z)[0]
    cache = {"inputs": inputs, "pre": pre}
    if with_derivs:
        cache["d1"] = d1s
    return a, cache


def backward(net: DenseNet, cache: dict, output_grads: np.ndarray):
    """Exact reverse-mode gradients for the scalar whose output grads are given.

    Returns ([(dW, db)] per layer, d loss / d batch).
    """
    g = np.asarray(output_grads, dtype=float)
    if g.shape != cache["pre"][-1].shape:
        raise ValueError(f"output_grads shape {g.shape} does not match cached forward")
    d1s = cache.get("d1")
    grads = [None] * net.n_layers
    for layer in range(net.n_layers - 1, -1, -1):
        d1 = d1s[layer] if d1s is not None else _layer_eval(net, layer, cache["pre"][layer])[1]
        delta = g * d1
        grads[layer] = (delta.T @ cache["inputs"][layer], delta.sum(axis=0))
        g = delta @ net.weights[layer]
    return grads, g


@dataclass
class AdamState:
    m: list
    v: list
    step_count: int
    learning_rate: float
    beta1: float
    beta2: float
    eps: float


def init_adam(net: DenseNet, learning_rate: float = 1e-4, beta1: float = 0.5, beta2: float = 0.9, eps: float = 1e-8) -> AdamState:
    zeros = lambda: [
        (np.zeros_like(w), np.zeros_like(b)) for w, b in zip(net.weights, net.biases)
    ]
    return AdamState(
        m=zeros(), v=zeros(), step_count=0,
        learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps,
    )


def adam_step(state: AdamState, net: DenseNet, grads: list) -> None:
    """Bias-corrected Adam update, in place on the net and state."""
    for layer, (gw, gb) in enumerate(grads):
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise ValueError(f"non-finite gradient in layer {layer}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1**t
    inv_sqrt_corr2 = 1.0 / math.sqrt(1.0 - b2**t)
    lr_eff = state.learning_rate / corr1
    for layer, (gw, gb) in enumerate(grads):
        for slot, g, param in ((0, gw, net.weights[layer]), (1, gb, net.biases[layer])):
            m = state.m[layer][slot]
            v = state.v[layer][slot]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            denom = np.sqrt(v)
            denom *= inv_sqrt_corr2
            denom += state.eps
            param -= lr_eff * m / denom


def input_gradients(net: DenseNet, batch: np.ndarray):
    """Discriminator outputs and per-sample input gradients (scalar output)."""
    out, cache = forward(net, batch, with_derivs=True)
    if out.shape[1] != 1:
        raise ValueError("input gradients are defined for scalar-output nets")
    _, input_grads = backward(net, cache, np.ones_like(out))
    return out, input_grads


def penalty_from_norms(norms: np.ndarray, lam: float, variant: str) -> float:
    """One-sided unit-norm penalty: batch-max variant or batch-mean variant."""
    excess = np.maximum(norms - 1.0, 0.0)
    if variant == "max":
        return float(lam * excess.max() ** 2)
    if variant == "mean":
        return float(lam * np.mean(excess**2))
    raise ValueError(f"unknown penalty variant {variant!r}")


def penalty_coefficients(norms: np.ndarray, lam: float, variant: str) -> np.ndarray:
    """d penalty / d norms, with the first argmax taking the max subgradient."""
    excess = np.maximum(norms - 1.0, 0.0)
    coeffs = np.zeros_like(norms)
    if variant == "max":
        k = int(np.argmax(norms))
        coeffs[k] = 2.0 * lam * excess[k]
    elif variant == "mean":
        coeffs = 2.0 * lam * excess / len(norms)
    else:
        raise ValueError(f"unknown penalty variant {variant!r}")
    return coeffs


def weighted_norm_param_grads(net: DenseNet, batch: np.ndarray, coeffs_fn):
    """Per-sample input-gradient norms and exact parameter gradients of
    sum_i coeffs_i * ||grad_x D(x_i)|| for coeffs = coeffs_fn(norms).

    Forward-over-reverse: the per-sample input-gradient direction is
    frozen (the chain rule for a vector norm needs only its value), a
    tangent forward pass propagates it, and one reverse pass over the
    primal and tangent variables yields the parameter gradients.  Needs
    a twice-differentiable hidden activation.
    """
    if net.spec.hidden == "relu":
        raise ValueError(
            "exact penalty pass needs a twice-differentiable hidden activation; "
            "use smooth_leaky (or tanh)"
        )
    x = np.asarray(batch, dtype=float)
    a = x
    inputs, d1s, d2s = [], [], []
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        inputs.append(a)
        a, d1, d2 = _layer_eval(net, layer, z, want_second=True)
        d1s.append(d1)
        d2s.append(d2)

    # reverse pass for the per-sample input gradients
    g = np.ones((len(x), 1))
    for layer in range(net.n_layers - 1, -1, -1):
        g = (g * d1s[layer]) @ net.weights[layer]
    norms = np.sqrt((g**2).sum(axis=1))
    coeffs = np.asarray(coeffs_fn(norms), dtype=float)
    safe = np.where(norms > 0.0, norms, 1.0)
    u = (coeffs / safe)[:, None] * g  # zero rows where the norm vanishes

    # tangent forward: directional derivative of the chain along u
    a_dot = u
    pre_dot, act_dot = [], []
    for layer, w in enumerate(net.weights):
        z_dot = a_dot @ w.T
        pre_dot.append(z_dot)
        a_dot = d1s[layer] * z_dot
        act_dot.append(a_dot)

    # reverse over primal + tangent variables
    grads = [None] * net.n_layers
    a_bar = np.zeros((len(x), 1))
    a_dot_bar = np.ones((len(x), 1))
    for layer in range(net.n_layers - 1, -1, -1):
        z_dot_bar = a_dot_bar * d1s[layer]
        z_bar = a_bar * d1s[layer] + a_dot_bar * pre_dot[layer] * d2s[layer]
        a_in = inputs[layer]
        a_in_dot = u if layer == 0 else act_dot[layer - 1]
        dw = z_dot_bar.T @ a_in_dot + z_bar.T @ a_in
        db = z_bar.sum(axis=0)
        grads[layer] = (dw, db)
        a_bar = z_bar @ net.weights[layer]
        a_dot_bar = z_dot_bar @ net.weights[layer]
    return norms, grads


def _penalty_param_grads_fd(net: DenseNet, batch: np.ndarray, lam: float, variant: str, h: float = 1e-5):
    """Finite-difference fallback: central differences over every parameter."""

    def penalty_value():
        _, gx = input_gradients(net, batch)
        return penalty_from_norms(np.sqrt((gx**2).sum(axis=1)), lam, variant)

    grads = []
    for w, b in zip(net.weights, net.biases):
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for arr, out in ((w, gw), (b, gb)):
            flat = arr.ravel()
            gout = out.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                hi = penalty_value()
                flat[k] = orig - h
                lo = penalty_value()
                flat[k] = orig
                gout[k] = (hi - lo) / (2.0 * h)
        grads.append((gw, gb))
    return grads


def input_grad_norm_and_hvp(
    net: DenseNet,
    batch: np.ndarray,
    lam: float = 10.0,
    variant: str = "max",
    mode: str = "exact",
):
    """Per-sample input-gradient norms and the penalty's parameter gradient.

    ``mode='exact'`` runs the forward-over-reverse pass; ``mode='fd'``
    cross-checks with central finite differences over the parameters.
    """
    if mode == "exact":
        return weighted_norm_param_grads(
            net, batch, lambda norms: penalty_coefficients(norms, lam, variant)
        )
    if mode == "fd":
        _, gx = input_gradients(net, batch)
        norms = np.sqrt((gx**2).sum(axis=1))
        return norms, _penalty_param_grads_fd(net, batch, lam, variant)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Checkpoints: structured text, byte-stable for identical state.

_RANGE_BY_LABEL = {r.label: r for r in CANONICAL_RANGES}


def net_to_json(net: DenseNet, adam: Optional[AdamState] = None) -> str:
    doc = {
        "spec": {
            "widths": list(net.spec.widths),
            "hidden": net.spec.hidden,
            "squash": None if net.spec.squash is None else net.spec.squash.range.label,
            "seed": net.spec.seed,
        },
        "layers": [
            {"w": w.ravel().tolist(), "b": b.tolist()}
            for w, b in zip(net.weights, net.biases)
        ],
    }
    if adam is not None:
        doc["adam"] = {
            "step_count": adam.step_count,
            "learning_rate": adam.learning_rate,
            "beta1": adam.beta1,
            "beta2": adam.beta2,
            "eps": adam.eps,
            "m": [[mw.ravel().tolist(), mb.tolist()] for mw, mb in adam.m],
            "v": [[vw.ravel().tolist(), vb.tolist()] for vw, vb in adam.v],
        }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def net_from_json(text: str):
    doc = json.loads(text)
    spec_doc = doc["spec"]
    squash = (
        None
        if spec_doc["squash"] is None
        else output_squashing_for(_RANGE_BY_LABEL[spec_doc["squash"]])
    )
    spec = NetSpec(
        widths=tuple(spec_doc["widths"]),
        hidden=spec_doc["hidden"],
        squash=squash,
        seed=spec_doc["seed"],
    )
    shapes = list(zip(spec.widths[1:], spec.widths[:-1]))
    weights = [
        np.asarray(layer["w"], dtype=float).reshape(shape)
        for layer, shape in zip(doc["layers"], shapes)
    ]
    biases = [np.asarray(layer["b"], dtype=float) for layer in doc["layers"]]
    net = DenseNet(weights=weights, biases=biases, spec=spec)

    adam = None
    if "adam" in doc:
        a = doc["adam"]
        unpack = lambda entry, shape: (
            np.asarray(entry[0], dtype=float).reshape(shape),
            np.asarray(entry[1], dtype=float),
        )
        adam = AdamState(
            m=[unpack(entry, shape) for entry, shape in zip(a["m"], shapes)],
            v=[unpack(entry, shape) for entry, shape in zip(a["v"], shapes)],
            step_count=a["step_count"],
            learning_rate=a["learning_rate"],
            beta1=a["beta1"],
            beta2=a["beta2"],
            eps=a["eps"],
        )
    return net, adam
