"""Minimal dense feed-forward nets with exact reverse-mode gradients.

Covers exactly what adversarial training here needs: affine-activation
chains, gradients with respect to parameters and inputs, bias-corrected
Adam, and an exact second-order pass (forward-over-reverse) that takes
fixed per-sample directions and gives the parameter gradient of the
input gradients projected on them; ``training.gradient_penalty`` builds
the penalty on it.  This module owns
every elementwise unit: the hidden activations, and the output unit
that keeps a discriminator inside its loss's range J, chosen by J's
label.  A net's weights and biases are views into one flat vector;
gradients and Adam moments are flat vectors in the same layout.
Summation order is fixed (layer-major, then sample-major) so runs are
reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .losses import CANONICAL_RANGES, NONNEGATIVE, REALS, SYMMETRIC_UNIT, UNIT, _sigmoid

__all__ = [
    "NetSpec",
    "DenseNet",
    "AdamState",
    "init_net",
    "init_adam",
    "forward",
    "backward",
    "adam_step",
    "weighted_norm_param_grads",
    "net_to_json",
    "net_from_json",
]

SMOOTH_LEAKY_SLOPE = 0.2

ACTIVATION_NAMES = ("smooth_leaky", "tanh", "relu")

# Output unit per discriminator range label; a generator (label None) is linear.
OUTPUT_UNITS = {
    None: "identity",
    NONNEGATIVE.label: "softplus",
    UNIT.label: "logistic",
    REALS.label: "identity",
    SYMMETRIC_UNIT.label: "tanh",
}


def _act_eval(name: str, z: np.ndarray, second_from: Optional[int] = None):
    """Unit value, slope, and (``second_from`` given) the second
    derivative of the rows from ``second_from`` on, in one pass.

    The smooth-leaky unit is slope*z + (1-slope)*softplus(z); softplus,
    its sigmoid derivative, and the second derivative all share one
    exponential evaluation.  t = 1/(1+e^-|z|) lies in [0.5, 1], so
    t - 0.5 and 1 - t are exact and 0.5 + copysign(t - 0.5, z) is the
    sigmoid bit for bit, without a data-dependent branch per element.
    """
    if name == "smooth_leaky":
        s = np.abs(z)
        np.exp(np.negative(s, out=s), out=s)
        sig = s + 1.0
        np.divide(1.0, sig, out=sig)  # t
        sig -= 0.5
        np.copysign(sig, z, out=sig)
        sig += 0.5
        a = np.maximum(z, 0.0)
        a += np.log1p(s, out=s)  # softplus
        a *= 1.0 - SMOOTH_LEAKY_SLOPE
        a += np.multiply(z, SMOOTH_LEAKY_SLOPE, out=s)
        d1 = sig * (1.0 - SMOOTH_LEAKY_SLOPE)
        d2 = None if second_from is None else d1[second_from:] * (1.0 - sig[second_from:])
        d1 += SMOOTH_LEAKY_SLOPE
        return a, d1, d2
    if name == "tanh":
        a = np.tanh(z)
        d1 = a * a
        np.subtract(1.0, d1, out=d1)
        if second_from is None:
            return a, d1, None
        d2 = a[second_from:] * -2.0
        d2 *= d1[second_from:]
        return a, d1, d2
    if name == "relu":
        if second_from is not None:  # the second derivative vanishes a.e.: no penalty pass to feed
            raise ValueError(
                "exact penalty pass needs a twice-differentiable hidden activation; "
                "use smooth_leaky (or tanh)"
            )
        a = np.maximum(z, 0.0)
        d1 = (z > 0.0).astype(float)
        return a, d1, None
    if name in ("softplus", "logistic"):
        # the sigmoid in tanh form, once; not the copysign form above,
        # which can differ from it in the last bit
        sig = _sigmoid(z)
        if name == "softplus":
            a, d1 = np.logaddexp(0.0, z), sig
            d2 = None if second_from is None else d1[second_from:] * (1.0 - d1[second_from:])
        else:
            a, d1 = sig, sig * (1.0 - sig)
            d2 = None if second_from is None else d1[second_from:] * (1.0 - 2.0 * sig[second_from:])
        return a, d1, d2
    if name == "identity":
        d2 = None if second_from is None else np.zeros_like(z[second_from:])
        return z, np.ones_like(z), d2
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class NetSpec:
    widths: tuple
    hidden: str = "smooth_leaky"
    squash: Optional[str] = None  # discriminator range label; None = generator
    seed: int = 0

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ValueError("need at least one hidden layer")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be >= 1")
        if self.hidden not in ACTIVATION_NAMES:
            raise ValueError(f"unknown activation {self.hidden!r}")
        if self.squash not in OUTPUT_UNITS:
            raise ValueError(
                f"no output squashing for non-canonical range {self.squash!r}; "
                f"canonical ranges are {[r.label for r in CANONICAL_RANGES]}"
            )
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    @property
    def n_params(self) -> int:
        return sum((i + 1) * o for i, o in zip(self.widths[:-1], self.widths[1:]))


class DenseNet:
    """Parameters in one flat vector: each layer's row-major weight
    matrix, then its bias, layer after layer.  ``weights`` and
    ``biases`` are views into ``params``.
    """

    def __init__(self, spec: NetSpec, params: Optional[np.ndarray] = None):
        self.spec = spec
        self.params = np.zeros(spec.n_params) if params is None else params
        if self.params.shape != (spec.n_params,):
            raise ValueError(f"need {spec.n_params} parameters, got shape {self.params.shape}")
        layers = self.layers(self.params)
        self.weights = [w for w, _ in layers]
        self.biases = [b for _, b in layers]

    @property
    def n_layers(self):
        return len(self.weights)

    def layers(self, flat: np.ndarray) -> list:
        """(weight, bias) views of a flat vector in this net's layout."""
        out, pos = [], 0
        for fan_in, fan_out in zip(self.spec.widths[:-1], self.spec.widths[1:]):
            w = flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in)
            pos += fan_out * fan_in
            out.append((w, flat[pos : pos + fan_out]))
            pos += fan_out
        return out


def init_net(spec: NetSpec) -> DenseNet:
    """Zero-mean normal weights scaled by 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(spec.seed)
    net = DenseNet(spec)
    for w in net.weights:
        w[:] = rng.standard_normal(w.shape) / math.sqrt(w.shape[1])
    return net


def forward(net: DenseNet, batch: np.ndarray, second_from: Optional[int] = None):
    """Affine-activation chain; the cache holds what backward needs: layer
    inputs and activation slopes.  ``second_from`` also caches the second
    derivatives of the rows from that index on, the rows a penalty pass
    differentiates twice; a relu net, which has none, is refused.
    """
    a = np.asarray(batch, dtype=float)
    if a.ndim != 2 or a.shape[1] != net.spec.widths[0]:
        raise ValueError(
            f"batch shape {a.shape} does not match input width {net.spec.widths[0]}"
        )
    units = [net.spec.hidden] * (net.n_layers - 1) + [OUTPUT_UNITS[net.spec.squash]]
    inputs, d1s, d2s = [], [], []
    for w, b, unit in zip(net.weights, net.biases, units):
        z = a @ w.T
        z += b
        inputs.append(a)
        a, d1, d2 = _act_eval(unit, z, second_from)
        d1s.append(d1)
        d2s.append(d2)
    cache = {"inputs": inputs, "d1": d1s}
    if second_from is not None:
        cache["second_from"] = second_from
        cache["d2"] = d2s
    return a, cache


def backward(net: DenseNet, cache: dict, output_grads: np.ndarray, param_rows: Optional[int] = None,
             batch_grad: bool = True):
    """Exact reverse-mode gradients for the scalar whose output grads are given.

    Returns (flat parameter gradient, d loss / d batch).  ``param_rows``
    restricts the parameter sums to the first rows of the batch (0: none,
    a zero gradient); the batch gradient covers every row, or is None,
    its first-layer product skipped, with ``batch_grad=False``.
    """
    g = np.asarray(output_grads, dtype=float)
    if g.shape != cache["d1"][-1].shape:
        raise ValueError(f"output_grads shape {g.shape} does not match cached forward")
    n = len(g) if param_rows is None else param_rows
    grads = np.empty_like(net.params)
    views = net.layers(grads)
    for layer in range(net.n_layers - 1, -1, -1):
        delta = g * cache["d1"][layer]
        gw, gb = views[layer]
        np.matmul(delta[:n].T, cache["inputs"][layer][:n], out=gw)
        np.sum(delta[:n], axis=0, out=gb)
        if layer or batch_grad:
            g = delta @ net.weights[layer]
    return grads, (g if batch_grad else None)


@dataclass
class AdamState:
    m: np.ndarray  # first moments, in the net's flat parameter layout
    v: np.ndarray  # second moments, same layout
    step_count: int
    learning_rate: float
    beta1: float
    beta2: float
    eps: float


def init_adam(net: DenseNet, learning_rate: float = 1e-4, beta1: float = 0.5, beta2: float = 0.9, eps: float = 1e-8) -> AdamState:
    return AdamState(
        m=np.zeros_like(net.params), v=np.zeros_like(net.params), step_count=0,
        learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps,
    )


def adam_step(state: AdamState, net: DenseNet, grads: np.ndarray) -> None:
    """Bias-corrected Adam update, in place on the net and state."""
    finite = np.isfinite(grads)
    if not finite.all():
        first_bad = int(np.argmin(finite))
        ends = np.cumsum([w.size + b.size for w, b in net.layers(grads)])
        layer = int(np.searchsorted(ends, first_bad, side="right"))
        raise ValueError(f"non-finite gradient in layer {layer}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1**t
    inv_sqrt_corr2 = 1.0 / math.sqrt(1.0 - b2**t)
    lr_eff = state.learning_rate / corr1
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads * grads
    denom = np.sqrt(v)
    denom *= inv_sqrt_corr2
    denom += state.eps
    net.params -= lr_eff * m / denom


def weighted_norm_param_grads(net: DenseNet, cache: dict, directions: np.ndarray):
    """Exact flat parameter gradient of sum_i u_i . grad_x D(x_i) for fixed
    directions u, one per row a ``forward(..., second_from=s)`` cache holds
    second derivatives for.  With u_i = (c_i / ||g_i||) g_i (zero where the
    input gradient g_i vanishes) it is that of sum_i c_i ||g_i||.

    Forward-over-reverse: a tangent forward pass propagates u, and one
    reverse pass over the primal and tangent variables yields the
    gradient.  Needs a twice-differentiable hidden activation.
    """
    s = cache["second_from"]
    d1s = [d1[s:] for d1 in cache["d1"]]
    d2s = cache["d2"]

    # tangent forward: directional derivative of the chain along u
    a_dot = directions
    pre_dot, act_dot = [], []
    for layer, w in enumerate(net.weights):
        z_dot = a_dot @ w.T
        pre_dot.append(z_dot)
        a_dot = d1s[layer] * z_dot
        act_dot.append(a_dot)

    # reverse over primal + tangent variables
    grads = np.empty_like(net.params)
    views = net.layers(grads)
    a_bar = np.zeros((len(directions), 1))
    a_dot_bar = np.ones((len(directions), 1))
    for layer in range(net.n_layers - 1, -1, -1):
        z_dot_bar = a_dot_bar * d1s[layer]
        z_bar = a_bar * d1s[layer]
        curv = a_dot_bar * pre_dot[layer]
        curv *= d2s[layer]
        z_bar += curv
        a_in = cache["inputs"][layer][s:]
        a_in_dot = directions if layer == 0 else act_dot[layer - 1]
        gw, gb = views[layer]
        np.matmul(z_dot_bar.T, a_in_dot, out=gw)
        gw += z_bar.T @ a_in
        np.sum(z_bar, axis=0, out=gb)
        if layer > 0:
            a_bar = z_bar @ net.weights[layer]
            a_dot_bar = z_dot_bar @ net.weights[layer]
    return grads


# ---------------------------------------------------------------------------
# Checkpoints: structured text, byte-stable for identical state.


def net_to_json(net: DenseNet, adam: Optional[AdamState] = None) -> str:
    doc = {
        "spec": {
            "widths": list(net.spec.widths),
            "hidden": net.spec.hidden,
            "squash": net.spec.squash,
            "seed": net.spec.seed,
        },
        "layers": [{"w": w.ravel().tolist(), "b": b.tolist()} for w, b in net.layers(net.params)],
    }
    if adam is not None:
        doc["adam"] = {
            "step_count": adam.step_count,
            "learning_rate": adam.learning_rate,
            "beta1": adam.beta1,
            "beta2": adam.beta2,
            "eps": adam.eps,
            "m": [[w.ravel().tolist(), b.tolist()] for w, b in net.layers(adam.m)],
            "v": [[w.ravel().tolist(), b.tolist()] for w, b in net.layers(adam.v)],
        }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def net_from_json(text: str):
    doc = json.loads(text)
    spec_doc = doc["spec"]
    spec = NetSpec(
        widths=tuple(spec_doc["widths"]),
        hidden=spec_doc["hidden"],
        squash=spec_doc["squash"],
        seed=spec_doc["seed"],
    )
    flat = lambda pairs: np.asarray([v for w, b in pairs for v in (*w, *b)], dtype=float)
    net = DenseNet(spec, flat((layer["w"], layer["b"]) for layer in doc["layers"]))

    adam = None
    if "adam" in doc:
        a = doc["adam"]
        adam = AdamState(
            m=flat(a["m"]),
            v=flat(a["v"]),
            step_count=a["step_count"],
            learning_rate=a["learning_rate"],
            beta1=a["beta1"],
            beta2=a["beta2"],
            eps=a["eps"],
        )
    return net, adam
