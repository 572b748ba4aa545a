"""Shared test helpers and oracles."""

import concurrent.futures
import math

import numpy as np

from ratiogan import training
from ratiogan.densities import sample
from ratiogan.nets import (
    SMOOTH_LEAKY_SLOPE,
    NetSpec,
    backward,
    forward,
    init_net,
    penalty_coefficients,
    penalty_from_norms,
    weighted_norm_param_grads,
)


def quasi_linear_net(w_hidden, w_out, bias_shift=30.0):
    """[d,k,1] smooth-leaky net pushed deep into its unit-slope asymptote.

    With a large positive hidden bias the smooth-leaky unit is linear to
    within e^-30, so D(x) ~ w_out @ (w_hidden x + shift) and the input
    gradient is the constant w_out @ w_hidden.
    """
    k, d = w_hidden.shape
    spec = NetSpec(widths=(d, k, 1), hidden="smooth_leaky", squash=None, seed=0)
    net = init_net(spec)
    net.weights[0][:] = w_hidden
    net.biases[0][:] = bias_shift
    net.weights[1][:] = w_out
    net.biases[1][:] = 0.0
    return net


def _pooled_sq_dists(x, y):
    x_sq = (x**2).sum(axis=1)[:, None]
    y_sq = (y**2).sum(axis=1)[None, :]
    return np.maximum(x_sq + y_sq - 2.0 * (x @ y.T), 0.0)


def pooled_mmd_rbf(x, y, bandwidth="median"):
    """Oracle for metrics.mmd_rbf: the bandwidth from the pooled matrix.

    The median-heuristic bandwidth is the median of the strict upper
    triangle of the full (m+n)^2 distance matrix of the pooled sample;
    the three kernel blocks are then built from scratch.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    m, n = len(x), len(y)
    if bandwidth == "median":
        pooled = np.vstack([x, y])
        d = _pooled_sq_dists(pooled, pooled)
        bw = float(np.sqrt(np.median(d[np.triu_indices(len(pooled), k=1)])))
    else:
        bw = float(bandwidth)
    if bw <= 0:
        raise ValueError("degenerate bandwidth")
    gamma = 1.0 / (2.0 * bw * bw)
    k_xx = np.exp(-gamma * _pooled_sq_dists(x, x))
    k_yy = np.exp(-gamma * _pooled_sq_dists(y, y))
    k_xy = np.exp(-gamma * _pooled_sq_dists(x, y))
    sum_xx = k_xx.sum() - np.trace(k_xx)
    sum_yy = k_yy.sum() - np.trace(k_yy)
    return float(sum_xx / (m * (m - 1)) + sum_yy / (n * (n - 1)) - 2.0 * k_xy.mean())


def input_gradients(net, batch):
    """Discriminator outputs and per-sample input gradients (scalar output)."""
    out, cache = forward(net, batch)
    _, input_grads = backward(net, cache, np.ones_like(out))
    return out, input_grads


def penalty_pass(net, batch, coeffs_fn):
    """nets.weighted_norm_param_grads over every row of batch, fed the way
    training.critic_grads feeds it: one forward with second derivatives,
    one reverse pass with unit output grads."""
    out, cache = forward(net, batch, second_from=0)
    _, input_grads = backward(net, cache, np.ones_like(out))
    return weighted_norm_param_grads(net, cache, input_grads, coeffs_fn)


def exact_penalty_grads(net, batch, lam, variant):
    """Input-gradient norms and the exact parameter gradient of the penalty."""
    return penalty_pass(net, batch, lambda norms: penalty_coefficients(norms, lam, variant))


def penalty_param_grads_fd(net, batch, lam, variant, h=1e-5):
    """Central differences of the penalty over every parameter (flat): the
    oracle for the exact forward-over-reverse pass."""

    def penalty_value():
        _, gx = input_gradients(net, batch)
        return penalty_from_norms(np.sqrt((gx**2).sum(axis=1)), lam, variant)

    grads = np.zeros_like(net.params)
    for k in range(net.params.size):
        orig = net.params[k]
        net.params[k] = orig + h
        hi = penalty_value()
        net.params[k] = orig - h
        lo = penalty_value()
        net.params[k] = orig
        grads[k] = (hi - lo) / (2.0 * h)
    return grads


# ---------------------------------------------------------------------------
# The unfused training step, kept as the bitwise oracle for training.train:
# per critic step its own generator forward, a discriminator forward over
# [x; y], a second full forward over the interpolates inside the penalty
# pass, and a per-layer Adam update, all on per-layer weight lists.


def old_sigmoid_terms(z):
    """The smooth-leaky unit's value, slope and curvature as first written
    (sigmoid through np.where)."""
    s = np.exp(-np.abs(z))
    t = 1.0 / (1.0 + s)
    sig = np.where(z >= 0.0, t, 1.0 - t)
    softplus = np.maximum(z, 0.0) + np.log1p(s)
    slope = SMOOTH_LEAKY_SLOPE
    a = slope * z + (1.0 - slope) * softplus
    return a, slope + (1.0 - slope) * sig, (1.0 - slope) * sig * (1.0 - sig)


def _old_tanh_sigmoid(u):
    return 0.5 * (1.0 + np.tanh(0.5 * u))


def old_squash_terms(label, u):
    """The discriminator output unit for a range label (None: the
    generator's linear output) as first written: value, slope, curvature."""
    s = _old_tanh_sigmoid
    if label in (None, "R"):
        return u, np.ones_like(u), np.zeros_like(u)
    if label == "[0,inf)":
        return np.logaddexp(0.0, u), s(u), s(u) * (1.0 - s(u))
    if label == "[0,1]":
        return s(u), s(u) * (1.0 - s(u)), s(u) * (1.0 - s(u)) * (1.0 - 2.0 * s(u))
    if label == "[-1,1]":
        return np.tanh(u), 1.0 - np.tanh(u) ** 2, -2.0 * np.tanh(u) * (1.0 - np.tanh(u) ** 2)
    raise ValueError(f"no output unit for {label!r}")


def _old_layer(spec, layer, n_layers, z):
    if layer < n_layers - 1:
        if spec.hidden == "smooth_leaky":
            return old_sigmoid_terms(z)
        a = np.tanh(z)
        d1 = 1.0 - a * a
        return a, d1, -2.0 * a * d1
    return old_squash_terms(spec.squash, z)


def _old_forward(layers, spec, batch):
    a = batch
    inputs, d1s, d2s = [], [], []
    for layer, (w, b) in enumerate(layers):
        z = a @ w.T + b
        inputs.append(a)
        a, d1, d2 = _old_layer(spec, layer, len(layers), z)
        d1s.append(d1)
        d2s.append(d2)
    return a, (inputs, d1s, d2s)


def _old_backward(layers, cache, output_grads):
    inputs, d1s, _ = cache
    g = output_grads
    grads = [None] * len(layers)
    for layer in range(len(layers) - 1, -1, -1):
        delta = g * d1s[layer]
        grads[layer] = (delta.T @ inputs[layer], delta.sum(axis=0))
        g = delta @ layers[layer][0]
    return grads, g


def _old_penalty(layers, spec, interp, lam, variant):
    _, (inputs, d1s, d2s) = _old_forward(layers, spec, interp)
    g = np.ones((len(interp), 1))
    for layer in range(len(layers) - 1, -1, -1):
        g = (g * d1s[layer]) @ layers[layer][0]
    norms = np.sqrt((g**2).sum(axis=1))
    coeffs = penalty_coefficients(norms, lam, variant)
    safe = np.where(norms > 0.0, norms, 1.0)
    u = (coeffs / safe)[:, None] * g
    a_dot = u
    pre_dot, act_dot = [], []
    for layer, (w, _) in enumerate(layers):
        z_dot = a_dot @ w.T
        pre_dot.append(z_dot)
        a_dot = d1s[layer] * z_dot
        act_dot.append(a_dot)
    grads = [None] * len(layers)
    a_bar = np.zeros((len(interp), 1))
    a_dot_bar = np.ones((len(interp), 1))
    for layer in range(len(layers) - 1, -1, -1):
        z_dot_bar = a_dot_bar * d1s[layer]
        z_bar = a_bar * d1s[layer] + a_dot_bar * pre_dot[layer] * d2s[layer]
        a_in_dot = u if layer == 0 else act_dot[layer - 1]
        grads[layer] = (z_dot_bar.T @ a_in_dot + z_bar.T @ inputs[layer], z_bar.sum(axis=0))
        a_bar = z_bar @ layers[layer][0]
        a_dot_bar = z_dot_bar @ layers[layer][0]
    return grads


class _OldAdam:
    def __init__(self, layers, config):
        self.m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
        self.v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
        self.step_count = 0
        self.lr, self.b1, self.b2, self.eps = config.learning_rate, config.beta1, config.beta2, 1e-8

    def step(self, layers, grads):
        self.step_count += 1
        t = self.step_count
        corr1 = 1.0 - self.b1**t
        inv_sqrt_corr2 = 1.0 / math.sqrt(1.0 - self.b2**t)
        lr_eff = self.lr / corr1
        for layer, (gw, gb) in enumerate(grads):
            for slot, g in ((0, gw), (1, gb)):
                m, v, param = self.m[layer][slot], self.v[layer][slot], layers[layer][slot]
                m *= self.b1
                m += (1.0 - self.b1) * g
                v *= self.b2
                v += (1.0 - self.b2) * g * g
                denom = np.sqrt(v)
                denom *= inv_sqrt_corr2
                denom += self.eps
                param -= lr_eff * m / denom


def flatten_layers(layers):
    """Per-layer (W, b) pairs in the flat parameter layout of nets.DenseNet."""
    return np.concatenate([part.ravel() for pair in layers for part in pair])


def unfused_train(config, loss):
    """Parameters and Adam states of (generator, discriminator) after
    config.total_generator_iters iterations of the unfused loop, as
    (params, m, v, step_count) per net, flat.  No eval, no abort."""
    gen_net, disc_net, train_seed, _ = training.build_networks(config, loss)
    gen = [(w.copy(), b.copy()) for w, b in zip(gen_net.weights, gen_net.biases)]
    disc = [(w.copy(), b.copy()) for w, b in zip(disc_net.weights, disc_net.biases)]
    gen_adam, disc_adam = _OldAdam(gen, config), _OldAdam(disc, config)
    rng = np.random.default_rng(train_seed)
    b = config.batch_size
    for _ in range(config.total_generator_iters):
        for _ in range(config.critic_iters):
            x = sample(config.f_spec, b, rng)
            z = sample(config.h_spec, b, rng)
            y, _ = _old_forward(gen, gen_net.spec, z)
            d_both, cache = _old_forward(disc, disc_net.spec, np.vstack([x, y]))
            out_grads = np.vstack([-loss.phi_prime(d_both[:b]) / b, -loss.psi_prime(d_both[b:]) / b])
            grads, _ = _old_backward(disc, cache, out_grads)
            if config.lam > 0.0:
                u = rng.random((b, 1))
                interp = u * x + (1.0 - u) * y
                p_grads = _old_penalty(disc, disc_net.spec, interp, config.lam, config.penalty_variant)
                for (tw, tb), (ew, eb) in zip(grads, p_grads):
                    tw += 1.0 * ew
                    tb += 1.0 * eb
            disc_adam.step(disc, grads)
        z = sample(config.h_spec, b, rng)
        y, gen_cache = _old_forward(gen, gen_net.spec, z)
        d_fake, disc_cache = _old_forward(disc, disc_net.spec, y)
        _, input_grads = _old_backward(disc, disc_cache, loss.psi_prime(d_fake) / b)
        gen_grads, _ = _old_backward(gen, gen_cache, input_grads)
        gen_adam.step(gen, gen_grads)
    return tuple(
        (flatten_layers(layers), flatten_layers(adam.m), flatten_layers(adam.v), adam.step_count)
        for layers, adam in ((gen, gen_adam), (disc, disc_adam))
    )


class _InlineExecutor:
    """Stands in for training's eval executor: each submitted eval runs at
    once on the calling thread and its future is already done."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def serial_train(config, loss=None):
    """training.train with every eval run inline, where the loop stops for
    it: the serial loop the eval thread must reproduce."""
    threaded = training.ThreadPoolExecutor
    training.ThreadPoolExecutor = _InlineExecutor
    try:
        return training.train(config, loss)
    finally:
        training.ThreadPoolExecutor = threaded
