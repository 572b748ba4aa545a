"""Adversarial training on synthetic densities with online ratio monitoring.

Each generator iteration runs ``critic_iters`` discriminator ascent
steps on mean(phi(D(x))) + mean(psi(D(G(z)))) minus the gradient
penalty, then one generator descent step on mean(psi(D(G(z)))) (only
the psi term depends on the generator).  Every ``eval_every`` iterations
a snapshot is taken on fresh evaluation batches: objectives, the
discriminator-implied likelihood-ratio statistics (for invertible
losses; both fresh-batch and training-batch variants are recorded), and
two-sample distances between generated and target samples.

Each snapshot runs on one eval thread while training goes on, on copies
of the nets and with its own random generator, so records are as if run
inline; it keeps none of its net passes' backward caches.  At most one
is in flight: the next eval, an abort and the return wait for it and
append its record; an exception in it is raised from train.
"""

from __future__ import annotations

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import List, Optional

import numpy as np

from .catalogue import catalogue_lookup
from .densities import DensitySpec, sample
from .losses import LossPair, ratio_from_discriminator
from .metrics import mmd_rbf, sliced_wasserstein
from .nets import (
    AdamState,
    net_to_json,
    DenseNet,
    NetSpec,
    adam_step,
    backward,
    forward,
    init_adam,
    init_net,
    weighted_norm_param_grads,
)

__all__ = [
    "TrainConfig",
    "MetricRecord",
    "TrainResult",
    "train",
    "critic_batches",
    "critic_grads",
    "gradient_penalty",
    "likelihood_ratio_metric",
    "metrics_to_text",
    "METRIC_COLUMNS",
]

DEFAULT_HIDDEN_WIDTHS = (64, 64)


@dataclass(frozen=True)
class TrainConfig:
    loss_name: str
    f_spec: DensitySpec  # target density; kind "file" holds a CSV sample file's rows
    h_spec: DensitySpec  # origin density feeding the generator
    lam: float = 10.0
    penalty_variant: str = "max"
    critic_iters: int = 5
    batch_size: int = 64
    learning_rate: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.9
    total_generator_iters: int = 20000
    eval_every: int = 500
    eval_batch: int = 2048
    gen_hidden_widths: tuple = DEFAULT_HIDDEN_WIDTHS
    disc_hidden_widths: tuple = DEFAULT_HIDDEN_WIDTHS
    gen_hidden: str = "tanh"
    disc_hidden: str = "smooth_leaky"
    seed: int = 0
    checkpoint_every: int = 0  # 0 = final checkpoint only

    @property
    def seeds(self) -> tuple:
        """The run's five seeds, from one SeedSequence: generator init,
        discriminator init, training draws, eval draws, final samples."""
        return tuple(int(s) for s in np.random.SeedSequence(self.seed).generate_state(5))

    def validate(self):
        if self.critic_iters < 1:
            raise ValueError("critic_iters must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lambda must be nonnegative and finite")
        if self.total_generator_iters < 1:
            raise ValueError("total_generator_iters must be >= 1")
        if self.penalty_variant not in ("max", "mean"):
            raise ValueError(f"unknown penalty variant {self.penalty_variant!r}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.eval_batch < 2:
            raise ValueError("eval_batch must be >= 2")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        for role, widths, hidden in (
            ("generator", self.gen_hidden_widths, self.gen_hidden),
            ("discriminator", self.disc_hidden_widths, self.disc_hidden),
        ):
            try:  # the net's own checks: hidden unit name, widths >= 1
                NetSpec(widths=(1, *widths, 1), hidden=hidden)
            except ValueError as exc:
                raise ValueError(f"{role}: {exc}") from None
        if self.disc_hidden == "relu" and self.lam > 0:
            raise ValueError(
                "discriminator.hidden = relu has no second derivative for the gradient "
                "penalty; use smooth_leaky or tanh, or set lambda = 0"
            )


@dataclass(frozen=True)
class MetricRecord:
    generator_iteration: int
    disc_objective: float
    gen_objective: float
    penalty: float
    lr_real_mean: Optional[float]
    lr_real_std: Optional[float]
    lr_gen_mean: Optional[float]
    lr_gen_std: Optional[float]
    lr_real_mean_train: Optional[float]
    lr_gen_mean_train: Optional[float]
    mmd: float
    swd: float


METRIC_COLUMNS = tuple(f.name for f in fields(MetricRecord))


@dataclass
class TrainResult:
    """A run's nets and Adam states (on an abort, those of the last eval),
    its eval records and periodic (iteration, gen_json, disc_json) checkpoints."""

    generator: DenseNet
    discriminator: DenseNet
    records: List[MetricRecord]
    gen_state: AdamState
    disc_state: AdamState
    checkpoints: list
    abort_reason: Optional[str] = None  # set on a non-finite step

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


def gradient_penalty(disc: DenseNet, cache: dict, input_grads: np.ndarray, variant: str, lam: float):
    """One-sided unit-gradient penalty on the rows a fused critic pass holds
    second derivatives for, and its exact flat parameter gradient: with
    e_i = max(||g_i|| - 1, 0) over their input gradients g_i, lam * max e_i^2
    ("max", the first argmax taking the slope) or lam * mean e_i^2 ("mean")."""
    norms = np.sqrt((input_grads**2).sum(axis=1))
    excess = np.maximum(norms - 1.0, 0.0)
    if variant == "max":
        k = int(np.argmax(norms))
        value = lam * excess[k] ** 2
        coeffs = np.zeros_like(norms)
        coeffs[k] = 2.0 * lam * excess[k]
    else:  # "mean"; TrainConfig.validate admits no other name
        value = lam * np.mean(excess**2)
        coeffs = 2.0 * lam * excess / len(norms)
    safe = np.where(norms > 0.0, norms, 1.0)
    directions = (coeffs / safe)[:, None] * input_grads  # zero rows where the norm vanishes
    return float(value), weighted_norm_param_grads(disc, cache, directions)


def critic_grads(
    disc: DenseNet,
    loss: LossPair,
    real_batch: np.ndarray,
    fake_batch: np.ndarray,
    u: Optional[np.ndarray],
    variant: str,
    lam: float,
):
    """One critic step from one discriminator pass over [x; y; interp],
    interp = u*x + (1-u)*y, with second derivatives on the interp rows only.

    One reverse pass gives the gradient of the negated phi/psi terms (summed
    over the x and y rows) and the interp rows' input gradients, which the
    penalty pass reuses.  A zero lambda skips the interp rows and the penalty
    path (u may be None).  Returns (D(x), D(y), penalty, flat gradient to descend).
    """
    if real_batch.shape != fake_batch.shape:
        raise ValueError("real and fake batches must have identical shapes")
    b = len(real_batch)
    rows, second_from = [real_batch, fake_batch], None
    if lam > 0.0:
        rows.append(u * real_batch + (1.0 - u) * fake_batch)
        second_from = 2 * b
    d, cache = forward(disc, np.vstack(rows), second_from)
    d_real, d_fake = d[:b], d[b : 2 * b]
    out_grads = np.ones_like(d)  # unit grads on the interp rows: their input gradients
    out_grads[:b] = -loss.phi_prime(d_real) / b  # ascend: gradients of the negative
    out_grads[b : 2 * b] = -loss.psi_prime(d_fake) / b
    grads, input_grads = backward(disc, cache, out_grads, param_rows=2 * b)
    if second_from is None:
        return d_real, d_fake, 0.0, grads
    penalty_value, p_grads = gradient_penalty(disc, cache, input_grads[second_from:], variant, lam)
    grads += p_grads
    return d_real, d_fake, penalty_value, grads


def likelihood_ratio_metric(loss: LossPair, disc: DenseNet, real_batch, fake_batch):
    """Mean/std of the discriminator-implied ratio on both batches."""
    d_real, _ = forward(disc, np.asarray(real_batch, dtype=float))
    d_fake, _ = forward(disc, np.asarray(fake_batch, dtype=float))
    return _ratio_stats(loss, d_real, d_fake)


def _ratio_stats(loss: LossPair, d_real: np.ndarray, d_fake: np.ndarray) -> tuple:
    r_real = ratio_from_discriminator(loss, d_real[:, 0])
    r_fake = ratio_from_discriminator(loss, d_fake[:, 0])
    return float(r_real.mean()), float(r_real.std()), float(r_fake.mean()), float(r_fake.std())


def _snapshot(net: DenseNet, state: AdamState):
    """Independent copies of a net and its optimizer state, taken together."""
    return DenseNet(net.spec, net.params.copy()), replace(state, m=state.m.copy(), v=state.v.copy())


def critic_batches(config: TrainConfig, rng: np.random.Generator) -> list:
    """One generator iteration's critic batches (x, z, u), drawn in stream
    order: per step the real batch, the generator input, then the
    interpolation weights, which a zero lambda does not draw (u is None)."""
    b = config.batch_size
    batches = []
    for _ in range(config.critic_iters):
        x = sample(config.f_spec, b, rng)
        z = sample(config.h_spec, b, rng)
        batches.append((x, z, rng.random((b, 1)) if config.lam > 0.0 else None))
    return batches


def build_networks(config: TrainConfig, loss: LossPair):
    """Generator (identity output) and discriminator (loss-prescribed squash)."""
    d_x = config.f_spec.dim
    gen_seed, disc_seed, train_seed, eval_seed, _ = config.seeds
    gen_spec = NetSpec(
        widths=(config.h_spec.dim, *config.gen_hidden_widths, d_x),
        hidden=config.gen_hidden,
        squash=None,
        seed=gen_seed,
    )
    disc_spec = NetSpec(
        widths=(d_x, *config.disc_hidden_widths, 1),
        hidden=config.disc_hidden,
        squash=loss.range.label,
        seed=disc_seed,
    )
    return init_net(gen_spec), init_net(disc_spec), train_seed, eval_seed


def train(config: TrainConfig, loss: Optional[LossPair] = None) -> TrainResult:
    """Run the adversarial loop; deterministic given the config seed."""
    with ThreadPoolExecutor(max_workers=1) as evaluator:
        return _train(config, loss, evaluator)


def _train(config: TrainConfig, loss: Optional[LossPair], evaluator: ThreadPoolExecutor) -> TrainResult:
    config.validate()
    if loss is None:
        loss = catalogue_lookup(config.loss_name).loss
    phi_v, psi_v = loss.values()

    generator, discriminator, train_seed, eval_seed = build_networks(config, loss)
    gen_state = init_adam(generator, config.learning_rate, config.beta1, config.beta2)
    disc_state = init_adam(discriminator, config.learning_rate, config.beta1, config.beta2)
    train_rng = np.random.default_rng(train_seed)
    eval_rng = np.random.default_rng(eval_seed)
    swd_seed = eval_seed  # fixed directions: snapshots stay comparable

    # A critic step frees about 1 MB of arrays at once, and glibc's malloc
    # returns a freed heap top above its trim threshold to the OS: 128 KiB
    # until a larger mmap-served block is freed, then twice that block
    # (mallopt(3)).  Freeing one 2 MiB block here spares each step the page
    # faults of taking its memory back; other allocators are unaffected.
    np.empty(1 << 18)

    records: List[MetricRecord] = []
    checkpoints: list = []
    last_good = (_snapshot(generator, gen_state), _snapshot(discriminator, disc_state))
    last_penalty = 0.0
    last_train_lr = (None, None)
    pending = None  # the eval in flight: at most one
    b = config.batch_size

    def evaluate(iteration: int, generator, discriminator, penalty, train_lr) -> MetricRecord:
        x_eval = sample(config.f_spec, config.eval_batch, eval_rng)
        z_eval = sample(config.h_spec, config.eval_batch, eval_rng)
        # [0]: each backward cache is freed at once, not kept alive through mmd_rbf
        y_eval = forward(generator, z_eval)[0]
        d_real = forward(discriminator, x_eval)[0]
        d_fake = forward(discriminator, y_eval)[0]
        disc_obj = float(np.mean(phi_v(d_real[:, 0])) + np.mean(psi_v(d_fake[:, 0])))
        gen_obj = float(np.mean(psi_v(d_fake[:, 0])))
        lr_fields = _ratio_stats(loss, d_real, d_fake) if loss.ratio_invertible else (None,) * 4
        return MetricRecord(
            generator_iteration=iteration,
            disc_objective=disc_obj,
            gen_objective=gen_obj,
            penalty=penalty,
            lr_real_mean=lr_fields[0],
            lr_real_std=lr_fields[1],
            lr_gen_mean=lr_fields[2],
            lr_gen_std=lr_fields[3],
            lr_real_mean_train=train_lr[0],
            lr_gen_mean_train=train_lr[1],
            mmd=mmd_rbf(y_eval, x_eval, "median"),
            swd=sliced_wasserstein(y_eval, x_eval, 64, seed=swd_seed),
        )

    def collect():
        """Wait for the eval in flight, if any, and append its record."""
        nonlocal pending
        if pending is not None:
            future, pending = pending, None
            records.append(future.result())

    def finish(players, abort_reason: Optional[str] = None) -> TrainResult:
        """Wait for the eval in flight; the result with players ((generator, Adam
        state), (discriminator, Adam state)): live at the end, last_good on an abort."""
        collect()
        (gen, gen_st), (disc, disc_st) = players
        return TrainResult(gen, disc, records, gen_st, disc_st, checkpoints, abort_reason)

    for iteration in range(1, config.total_generator_iters + 1):
        # -- critic phase -------------------------------------------------
        batches = critic_batches(config, train_rng)
        # the abort path checks each step's results: numpy need not warn too
        with np.errstate(all="ignore"):
            # the generator is fixed during the critic phase: one pass for all steps
            ys, _ = forward(generator, np.vstack([z for _, z, _ in batches]))
            for step, (x, _, u) in enumerate(batches):
                y = ys[step * b : (step + 1) * b]
                d_real, d_fake, penalty_value, grads = critic_grads(
                    discriminator, loss, x, y, u, config.penalty_variant, config.lam
                )
                disc_obj = float(
                    np.mean(phi_v(d_real[:, 0])) + np.mean(psi_v(d_fake[:, 0])) - penalty_value
                )
                if not math.isfinite(disc_obj):
                    return finish(last_good, f"non-finite discriminator objective at iteration {iteration}")
                if not np.isfinite(grads).all():
                    return finish(last_good, f"non-finite discriminator gradient at iteration {iteration}")
                adam_step(disc_state, discriminator, grads)
                last_penalty = penalty_value

        will_evaluate = (
            iteration % config.eval_every == 0
            or iteration == config.total_generator_iters
        )
        if will_evaluate and loss.ratio_invertible:
            # training-batch variant of the ratio metric (last critic batch)
            lr = likelihood_ratio_metric(loss, discriminator, x, y)
            last_train_lr = (lr[0], lr[2])

        # -- generator phase ----------------------------------------------
        with np.errstate(all="ignore"):
            z = sample(config.h_spec, b, train_rng)
            y, gen_cache = forward(generator, z)
            d_fake, disc_cache = forward(discriminator, y)
            gen_obj = float(np.mean(psi_v(d_fake[:, 0])))
            if not math.isfinite(gen_obj):
                return finish(last_good, f"non-finite generator objective at iteration {iteration}")
            # only the input gradient is needed: no parameter sums
            _, input_grads = backward(discriminator, disc_cache, loss.psi_prime(d_fake) / b, param_rows=0)
            gen_grads, _ = backward(generator, gen_cache, input_grads)
            if not np.isfinite(gen_grads).all():
                return finish(last_good, f"non-finite generator gradient at iteration {iteration}")
            adam_step(gen_state, generator, gen_grads)

        if will_evaluate:
            collect()
            last_good = (_snapshot(generator, gen_state), _snapshot(discriminator, disc_state))
            # copy_context: the eval runs under the caller's numpy error state
            pending = evaluator.submit(contextvars.copy_context().run, evaluate, iteration,
                                       last_good[0][0], last_good[1][0], last_penalty, last_train_lr)
        if config.checkpoint_every > 0 and iteration % config.checkpoint_every == 0:
            checkpoints.append(
                (iteration, net_to_json(generator, gen_state), net_to_json(discriminator, disc_state))
            )
    return finish(((generator, gen_state), (discriminator, disc_state)))


def _cell(value) -> str:
    return "" if value is None else repr(value)


def metrics_to_text(records: List[MetricRecord]) -> str:
    """Tab-separated metric table in the documented column order."""
    lines = ["\t".join(METRIC_COLUMNS)]
    for rec in records:
        lines.append("\t".join(_cell(getattr(rec, col)) for col in METRIC_COLUMNS))
    return "\n".join(lines) + "\n"


def metrics_from_text(text: str) -> List[MetricRecord]:
    """Parse a metrics table written by metrics_to_text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty metrics file")
    header = tuple(lines[0].split("\t"))
    if header != METRIC_COLUMNS:
        raise ValueError(f"unexpected metrics columns: {header}")
    records = []
    for ln in lines[1:]:
        cells = ln.split("\t")
        if len(cells) != len(METRIC_COLUMNS):
            raise ValueError(f"bad metrics row: {ln!r}")
        values = {}
        for col, cell in zip(METRIC_COLUMNS, cells):
            if cell == "":
                values[col] = None
            elif col == "generator_iteration":
                values[col] = int(cell)
            else:
                values[col] = float(cell)
        records.append(MetricRecord(**values))
    return records
