"""Shared test helpers and oracles."""

import concurrent.futures
import math
from dataclasses import asdict

import numpy as np

from ratiogan import training
from ratiogan.densities import sample
from ratiogan.grid_solver import (
    PROJECTION_MAX_ITERS,
    PROJECTION_RESIDUAL,
    RatioField,
    SolverDiverged,
    SolveTrace,
)
from ratiogan.losses import INTERIOR_EPS, concentrated, normalize_psi
from ratiogan.nets import (
    SMOOTH_LEAKY_SLOPE,
    NetSpec,
    backward,
    forward,
    init_net,
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


def pooled_mmd_rbf(x, y, bandwidth):
    """Oracle for metrics.mmd_rbf: the three kernel blocks built from
    scratch, each as one whole matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    m, n = len(x), len(y)
    if not bandwidth > 0:
        raise ValueError("degenerate bandwidth")
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
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


def penalty_from_norms(norms, lam, variant):
    """The penalty's value as first written, apart from its slope: the
    oracle for training.gradient_penalty."""
    excess = np.maximum(norms - 1.0, 0.0)
    if variant == "max":
        return float(lam * excess.max() ** 2)
    if variant == "mean":
        return float(lam * np.mean(excess**2))
    raise ValueError(f"unknown penalty variant {variant!r}")


def penalty_coefficients(norms, lam, variant):
    """d penalty / d norms as first written, the first argmax taking the
    max subgradient."""
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


def norm_directions(input_grads, coeffs):
    """(coeffs_i / ||g_i||) g_i, zero rows where the norm vanishes: the
    directions along which the second-order pass differentiates
    sum_i coeffs_i ||g_i||."""
    norms = np.sqrt((input_grads**2).sum(axis=1))
    safe = np.where(norms > 0.0, norms, 1.0)
    return (coeffs / safe)[:, None] * input_grads


def old_gradient_penalty(net, cache, input_grads, variant, lam):
    """training.gradient_penalty as two functions with the coefficients fed
    to the second-order pass, as before they were merged."""
    norms = np.sqrt((input_grads**2).sum(axis=1))
    directions = norm_directions(input_grads, penalty_coefficients(norms, lam, variant))
    return penalty_from_norms(norms, lam, variant), weighted_norm_param_grads(net, cache, directions)


def penalty_feed(net, batch):
    """What training.critic_grads feeds the penalty for every row of batch:
    the cache of one forward with second derivatives and the input
    gradients of one reverse pass with unit output grads."""
    out, cache = forward(net, batch, second_from=0)
    _, input_grads = backward(net, cache, np.ones_like(out))
    return cache, input_grads


def penalty_pass(net, batch, coeffs):
    """Parameter gradient of sum_i coeffs_i ||grad_x D(x_i)|| over every row
    of batch, from nets.weighted_norm_param_grads."""
    cache, input_grads = penalty_feed(net, batch)
    return weighted_norm_param_grads(net, cache, norm_directions(input_grads, coeffs))


def exact_penalty_grads(net, batch, lam, variant):
    """training.gradient_penalty over every row of batch: value and flat gradient."""
    return training.gradient_penalty(net, *penalty_feed(net, batch), variant, lam)


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


# ---------------------------------------------------------------------------
# The solve and verify path before its per-call overheads were cut, kept as
# the bitwise oracle: np.clip for the interior clamp, a projection that
# copies its input and tests both violations before the movement, an error
# state entered per candidate, and records built with dataclasses.asdict.


def old_clamp_interior(interval, z):
    """RangeInterval.clamp_interior as np.clip."""
    lo = interval.lower + INTERIOR_EPS if math.isfinite(interval.lower) else -np.inf
    hi = interval.upper - INTERIOR_EPS if math.isfinite(interval.upper) else np.inf
    return np.clip(z, lo, hi)


def old_project_feasible(values, mass):
    """grid_solver.project_feasible as first written."""
    m = np.asarray(mass, dtype=float)
    m_sq = float(m @ m)
    x = np.asarray(values, dtype=float).copy()
    scale = max(1.0, float(np.abs(x).max()))
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    prev = x
    for _ in range(PROJECTION_MAX_ITERS):
        y = np.maximum(x + p, 0.0)
        p = x + p - y
        w = y + q
        x = w + (1.0 - float(m @ w)) / m_sq * m
        q = w - x
        orthant_violation = max(0.0, -float(x.min()))
        plane_violation = abs(float(m @ np.maximum(x, 0.0)) - 1.0)
        moved = float(np.abs(x - prev).max())
        if (
            max(orthant_violation, plane_violation) <= PROJECTION_RESIDUAL
            and moved <= 1e-12 * scale
        ):
            break
        prev = x
    return np.maximum(x, 0.0)


def old_solve_minmax_grid(loss, f, r_init, max_iters=20000, tol=1e-10, log_every=1):
    """grid_solver.solve_minmax_grid as first written, on old_project_feasible."""
    if not loss.ratio_invertible:
        raise ValueError(f"ideal solver requires invertible omega; {loss.name} has none")
    r_init.validate_against(f)

    normalized = normalize_psi(loss)
    mass = f.mass

    def objective_and_grad(r):
        with np.errstate(all="ignore"):  # r may hold zeros: an inf or NaN candidate is rejected
            cost, slope = concentrated(normalized, r)
            return float(mass @ cost), mass * slope

    base_step = 0.1 / float(mass.max())

    r = np.asarray(r_init.values, dtype=float).copy()
    trace = SolveTrace()
    obj, grad = objective_and_grad(r)
    residual = abs(float(mass @ r) - 1.0)
    trace.log(0, obj, np.abs(r - 1.0).max(), residual)

    consecutive_increases = 0
    for it in range(1, max_iters + 1):
        s = base_step
        candidate = old_project_feasible(r - s * grad, mass)
        cand_obj, cand_grad = objective_and_grad(candidate)
        halvings = 0
        # a non-finite objective counts as an increase
        while not (cand_obj <= obj and math.isfinite(cand_obj)) and halvings < 30:
            s *= 0.5
            halvings += 1
            candidate = old_project_feasible(r - s * grad, mass)
            cand_obj, cand_grad = objective_and_grad(candidate)

        if not (cand_obj <= obj and math.isfinite(cand_obj)):
            consecutive_increases += 1
            if consecutive_increases >= 50:
                raise SolverDiverged(
                    f"objective increased for {consecutive_increases} consecutive "
                    f"iterations (step {base_step:g})",
                    trace,
                )
        else:
            consecutive_increases = 0

        if math.isfinite(cand_obj):
            delta = np.abs(candidate - r).max()
            r, obj, grad = candidate, cand_obj, cand_grad
        else:
            delta = math.inf  # a non-finite candidate is never taken: keep r
        if it % log_every == 0 or delta < tol or it == max_iters:
            residual = abs(float(mass @ r) - 1.0)
            trace.log(it, obj, np.abs(r - 1.0).max(), residual)
        if delta < tol:
            trace.converged = True
            break

    result = RatioField(r)
    result.validate_against(f)
    return result, trace


def old_trace_to_text(trace):
    """grid_solver's trace text as first written: every line built, joined
    into one string, then written whole; the byte oracle of write_trace."""
    lines = ["iteration\tobjective\tlinf_to_one\tconstraint_residual"]
    for it, obj, linf, res in zip(
        trace.iterations, trace.objectives, trace.linf_to_one, trace.constraint_residuals
    ):
        lines.append(f"{it}\t{obj!r}\t{linf!r}\t{res!r}")
    return "\n".join(lines) + "\n"


def old_reports_to_records(reports):
    """verify.reports_to_records with each row deep-copied by asdict."""
    records = []
    for rep in reports:
        if rep.skipped:
            records.append({"loss": rep.loss_name, "check": "all", "skipped": rep.skipped})
            continue
        records.extend({"loss": rep.loss_name, **asdict(row)} for row in rep.checks)
    return records
