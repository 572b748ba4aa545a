"""The adversarial loop: accounting, penalty, metrics, determinism, aborts."""

import copy
import dataclasses
import math
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

import ratiogan.training as training
from ratiogan.catalogue import catalogue_lookup
from ratiogan.cli import _preset_text, main
from ratiogan.config import apply_overrides, train_config_from_text, train_config_to_text
from ratiogan.densities import gaussian, ring, sample, sample_file
from ratiogan.losses import (
    LossPair,
    NONNEGATIVE,
    REALS,
    SYMMETRIC_UNIT,
    OmegaTransform,
    make_loss_pair,
)
from ratiogan.nets import NetSpec, adam_step, backward, forward, init_adam, init_net, net_from_json
from ratiogan.training import (
    TrainConfig,
    TrainResult,
    critic_batches,
    critic_grads,
    critic_phase,
    generator_step,
    metrics_from_text,
    metrics_to_text,
    train,
)
from helpers import old_gradient_penalty, penalty_feed, quasi_linear_net, serial_train, unfused_train


def shift_config(**overrides):
    base = dict(
        loss_name="MSE",
        f_spec=gaussian([4.0], [[1.0]]),
        h_spec=gaussian([0.0], [[1.0]]),
        total_generator_iters=20,
        eval_every=10,
        eval_batch=64,
        seed=11,
    )
    base.update(overrides)
    return TrainConfig(**base)


BAD_VALUES = [
    ("critic_iters", 0, "critic_iters"),
    ("batch_size", 1, "batch_size"),
    ("lam", -1.0, "lambda"),
    ("total_generator_iters", 0, "total_generator_iters"),
    ("penalty_variant", "soft", "variant"),
    ("eval_batch", 1, "eval_batch must be >= 2"),
    ("disc_hidden", "swish", "discriminator: unknown activation 'swish'"),
    ("gen_hidden_widths", (0,), "generator: layer widths must be >= 1"),
    ("disc_hidden_widths", (), "discriminator: need at least one hidden layer"),
    ("beta2", 1.0, r"beta2 must be in \[0, 1\)"),
    ("beta1", 1.5, r"beta1 must be in \[0, 1\)"),
    ("learning_rate", -1.0, "learning_rate must be positive"),
    ("learning_rate", 0.0, "learning_rate must be positive"),
    ("seed", -1, "seed must be >= 0"),
    ("lam", math.nan, "lambda must be nonnegative and finite"),
    ("lam", math.inf, "lambda must be nonnegative and finite"),
    ("learning_rate", math.inf, "learning_rate must be positive and finite"),
    ("checkpoint_every", -5, "checkpoint_every must be >= 0"),
]


class TestConfigValidation:
    @pytest.mark.parametrize("field,value,msg", BAD_VALUES)
    def test_rejects_bad_values(self, field, value, msg):
        with pytest.raises(ValueError, match=msg):
            shift_config(**{field: value})

    @pytest.mark.parametrize("field,value,msg", BAD_VALUES)
    def test_replace_rejects_bad_values(self, field, value, msg):
        """dataclasses.replace builds a new config, so it is checked again."""
        config = shift_config()
        with pytest.raises(ValueError, match=msg):
            dataclasses.replace(config, **{field: value})

    def test_rejects_rectifier_with_penalty(self):
        with pytest.raises(ValueError, match="relu"):
            shift_config(disc_hidden="relu", lam=10.0)

    def test_accepts_rectifier_without_penalty(self):
        shift_config(disc_hidden="relu", lam=0.0)


class TestSeeds:
    def test_first_five_seeds_kept(self):
        """The sixth seed, the MMD reference draw's, moves none of the others."""
        seeds = shift_config(seed=20260811).seeds
        assert len(seeds) == 6
        assert seeds[:5] == (1770542308, 259286681, 4289647316, 1497963579, 2331888737)


class TestRunConstants:
    def test_one_bandwidth_draw_per_cli_run(self, tmp_path, monkeypatch):
        """The construction check draws the bandwidth; four evals read it."""
        calls = []
        median = training.median_pair_distance

        def spy(sample_):
            calls.append(len(sample_))
            return median(sample_)

        monkeypatch.setattr(training, "median_pair_distance", spy)
        overrides = ["train.total_generator_iters=8", "train.eval_every=2", "train.eval_batch=64",
                     "train.lambda=0.0"]
        argv = ["--out", str(tmp_path / "out"), "train", "--preset", "ring2d-B2"]
        assert main([*argv, *(arg for o in overrides for arg in ("--set", o))]) == 0
        metrics = metrics_from_text((tmp_path / "out" / "ring2d-B2" / "metrics.tsv").read_text())
        assert [r.generator_iteration for r in metrics] == [2, 4, 6, 8]
        assert calls == [2 * training.MMD_REFERENCE_PAIRS]

    def test_pickle_keeps_run_constants(self, monkeypatch):
        """A --jobs worker unpickles the config's seeds and bandwidth; it draws none."""
        config = shift_config()
        monkeypatch.setattr(training, "median_pair_distance", None)  # a draw would fail
        copy_ = pickle.loads(pickle.dumps(config))
        assert copy_ == config
        assert vars(copy_)["seeds"] == config.seeds
        assert vars(copy_)["mmd_bandwidth"] == config.mmd_bandwidth


class TestLoopAccounting:
    def test_step_counters(self):
        """One generator iteration is critic_iters discriminator steps plus one."""
        cfg = shift_config(total_generator_iters=7, critic_iters=3, eval_every=100)
        result = train(cfg)
        assert result.disc_state.step_count == 7 * 3
        assert result.gen_state.step_count == 7

    def test_metric_schedule(self):
        cfg = shift_config(total_generator_iters=25, eval_every=10)
        result = train(cfg)
        assert [r.generator_iteration for r in result.records] == [10, 20, 25]


class TestGradientPenalty:
    MSE = catalogue_lookup("MSE").loss

    def test_lambda_zero_short_circuits(self, monkeypatch):
        """No interpolation weights are drawn and the penalty path is never entered."""
        cfg = shift_config(lam=0.0, critic_iters=3, batch_size=4)
        rng = np.random.default_rng(0)
        batches = critic_batches(cfg, rng)
        plain = np.random.default_rng(0)
        for _ in range(3):
            sample(cfg.f_spec, 4, plain)
            sample(cfg.h_spec, 4, plain)
        assert rng.bit_generator.state == plain.bit_generator.state  # no randomness for u
        assert all(u is None for _, _, u in batches)

        def forbidden(*args, **kwargs):
            raise AssertionError("penalty path entered with lambda = 0")

        monkeypatch.setattr(training, "gradient_penalty", forbidden)
        net = init_net(NetSpec(widths=(1, 4, 1), seed=0))
        x, y = np.ones((4, 1)), np.zeros((4, 1))
        _, _, value, grads = critic_grads(net, self.MSE, x, y, None, "max", 0.0)
        assert value == 0.0
        d, cache = forward(net, np.vstack([x, y]))
        out_grads = np.vstack([-self.MSE.phi_prime(d[:4]) / 4, -self.MSE.psi_prime(d[4:]) / 4])
        np.testing.assert_array_equal(grads, backward(net, cache, out_grads)[0])

    def test_linear_discriminator_known_value(self):
        """A (quasi-)linear discriminator with ||w|| = 3 pays 10 (3-1)^2 = 40."""
        w_hidden = np.array([[1.0, 0.0], [0.0, 1.0]])
        w_out = np.array([[3.0, 0.0]])
        net = quasi_linear_net(w_hidden, w_out)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 2)) * 0.1
        y = rng.standard_normal((8, 2)) * 0.1
        u = np.random.default_rng(2).random((8, 1))
        for variant in ("max", "mean"):
            _, _, value, _ = critic_grads(net, self.MSE, x, y, u, variant, 10.0)
            assert value == pytest.approx(40.0, rel=1e-8), variant

    def test_small_weight_discriminator_pays_nothing(self):
        w_hidden = np.array([[0.5, 0.0], [0.0, 0.5]])
        w_out = np.array([[0.6, 0.6]])  # effective norm ~0.42
        net = quasi_linear_net(w_hidden, w_out)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 2)) * 0.1
        y = rng.standard_normal((8, 2)) * 0.1
        u = np.random.default_rng(4).random((8, 1))
        _, _, _, unpenalized = critic_grads(net, self.MSE, x, y, None, "max", 0.0)
        for variant in ("max", "mean"):
            _, _, value, grads = critic_grads(net, self.MSE, x, y, u, variant, 10.0)
            assert value == 0.0
            np.testing.assert_array_equal(grads, unpenalized)  # penalty gradient is zero

    def test_shape_mismatch(self):
        net = init_net(NetSpec(widths=(2, 4, 1), seed=0))
        with pytest.raises(ValueError, match="identical shapes"):
            critic_grads(net, self.MSE, np.ones((4, 2)), np.ones((3, 2)), np.ones((4, 1)), "max", 1.0)

    @staticmethod
    def penalty_case(case):
        """A steep critic's penalty feed over 16 rows, its input gradients
        edited to make the named case."""
        net = init_net(NetSpec(widths=(2, 16, 16, 1), squash="[0,inf)", seed=5))
        net.params *= 3.0
        cache, input_grads = penalty_feed(net, np.random.default_rng(6).standard_normal((16, 2)))
        norms = np.sqrt((input_grads**2).sum(axis=1))
        if case == "none_above_one":
            input_grads = input_grads / (2.0 * norms.max())
        elif case == "tied_max":
            input_grads[11] = input_grads[int(np.argmax(norms))]
        elif case == "zero_row":
            input_grads[3] = 0.0
        return net, cache, input_grads

    @pytest.mark.parametrize("case", ["steep", "none_above_one", "tied_max", "zero_row"])
    @pytest.mark.parametrize("variant", ["max", "mean"])
    def test_equals_two_function_oracle_bitwise(self, variant, case):
        """One branch gives the value and the slope exactly as the separate
        value and coefficient functions did."""
        net, cache, input_grads = self.penalty_case(case)
        value, grads = training.gradient_penalty(net, cache, input_grads, variant, 10.0)
        want_value, want_grads = old_gradient_penalty(net, cache, input_grads, variant, 10.0)
        assert value == want_value
        assert (value == 0.0) == (case == "none_above_one")
        np.testing.assert_array_equal(grads.view(np.int64), want_grads.view(np.int64))

    def test_tied_max_takes_the_first_argmax(self):
        net, cache, input_grads = self.penalty_case("tied_max")
        first = int(np.argmax(np.sqrt((input_grads**2).sum(axis=1))))
        assert first < 11
        value, grads = training.gradient_penalty(net, cache, input_grads, "max", 10.0)
        keep = np.zeros((16, 1))
        keep[first] = 1.0
        _, alone = training.gradient_penalty(net, cache, input_grads * keep, "max", 10.0)
        np.testing.assert_array_equal(grads, alone)


class TestPenaltySkip:
    """gradient_penalty skips the second-order pass when no row is penalised."""

    @pytest.mark.parametrize("variant", ["max", "mean"])
    @pytest.mark.parametrize("case,passes", [("none_above_one", 0), ("steep", 1)])
    def test_pass_runs_only_when_a_row_is_above_one(self, variant, case, passes, monkeypatch):
        calls = []
        real = training.weighted_norm_param_grads

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(training, "weighted_norm_param_grads", counting)
        net, cache, input_grads = TestGradientPenalty.penalty_case(case)
        value, grads = training.gradient_penalty(net, cache, input_grads, variant, 10.0)
        assert len(calls) == passes
        if passes == 0:
            assert value == 0.0 and grads.shape == net.params.shape
            assert not grads.view(np.int64).any()  # +0.0 in every entry, as the full pass gives


class TestFusedMatchesUnfused:
    """train's fused critic pass, flat parameters and flat Adam reproduce the
    unfused per-layer loop (tests/helpers.unfused_train) bit for bit."""

    # one loss per discriminator squash: softplus, logistic, identity, tanh
    SQUASH_LOSSES = {
        "softplus": catalogue_lookup("MSE").loss,
        "logistic": catalogue_lookup("C2").loss,
        "identity": catalogue_lookup("B2").loss,
        "tanh": dataclasses.replace(
            catalogue_lookup("Wasserstein").loss,
            omega=dataclasses.replace(catalogue_lookup("Wasserstein").loss.omega, range=SYMMETRIC_UNIT),
        ),
    }

    def assert_matches(self, cfg, loss, monkeypatch):
        build = training.build_networks

        def steep_critic(config, loss):
            # input-gradient norms above 1, so the penalty binds from the first step
            gen, disc, train_seed, eval_seed = build(config, loss)
            disc.params *= 3.0
            return gen, disc, train_seed, eval_seed

        monkeypatch.setattr(training, "build_networks", steep_critic)
        result = train(cfg, loss=loss)
        assert not result.aborted
        assert (result.records[-1].penalty > 0.0) == (cfg.lam > 0.0)
        gen, disc = unfused_train(cfg, loss)
        for net, state, (params, m, v, steps) in (
            (result.generator, result.gen_state, gen),
            (result.discriminator, result.disc_state, disc),
        ):
            np.testing.assert_array_equal(net.params, params)
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)
            assert state.step_count == steps

    @pytest.mark.parametrize("squash", sorted(SQUASH_LOSSES))
    @pytest.mark.parametrize("hidden", ["smooth_leaky", "tanh"])
    @pytest.mark.parametrize("lam,variant", [(0.0, "max"), (10.0, "max"), (10.0, "mean")])
    def test_shift1d(self, squash, hidden, lam, variant, monkeypatch):
        cfg = shift_config(
            total_generator_iters=3, eval_every=100, lam=lam, penalty_variant=variant, disc_hidden=hidden
        )
        self.assert_matches(cfg, self.SQUASH_LOSSES[squash], monkeypatch)

    def test_ring2d_with_penalty(self, monkeypatch):
        cfg = shift_config(
            f_spec=ring(8, 2.0, 0.02), h_spec=gaussian([0.0, 0.0], np.eye(2)),
            total_generator_iters=3, eval_every=100, critic_iters=3,
        )
        self.assert_matches(cfg, self.SQUASH_LOSSES["logistic"], monkeypatch)


class TestPhases:
    """critic_phase and generator_step, called on inputs of the test's choosing."""

    MSE = catalogue_lookup("MSE").loss

    @staticmethod
    def steep_critic():
        disc = init_net(NetSpec(widths=(1, 16, 16, 1), squash="[0,inf)", seed=5))
        disc.params *= 3.0  # input-gradient norms above 1: the penalty binds
        return disc, init_adam(disc, 1e-3, 0.5, 0.9)

    @pytest.mark.parametrize("lam,variant", [(0.0, "max"), (10.0, "max"), (10.0, "mean")])
    def test_critic_phase_on_an_analytic_g_equals_a_hand_rolled_loop(self, lam, variant):
        """Fake rows drawn from g = N(1, 1) directly, with no generator: the
        phase is critic_grads and adam_step per step, bit for bit."""
        rng = np.random.default_rng(8)
        steps = [
            (rng.normal(4.0, 1.0, (32, 1)), rng.normal(1.0, 1.0, (32, 1)), rng.random((32, 1)) if lam else None)
            for _ in range(5)
        ]
        disc, state = self.steep_critic()
        penalty, (x, y) = critic_phase(self.MSE, disc, state, variant, lam, iter(steps))
        want, want_state = self.steep_critic()
        for step_x, step_y, u in steps:
            _, _, want_penalty, grads = critic_grads(want, self.MSE, step_x, step_y, u, variant, lam)
            adam_step(want_state, want, grads)
        assert (penalty > 0.0) == (lam > 0.0)
        assert penalty == want_penalty and x is steps[-1][0] and y is steps[-1][1]
        for got, expected in ((disc.params, want.params), (state.m, want_state.m), (state.v, want_state.v)):
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        assert state.step_count == want_state.step_count == 5

    def test_generator_step_against_a_frozen_discriminator(self):
        gen = init_net(NetSpec(widths=(1, 8, 1), hidden="tanh", seed=2))
        gen_state = init_adam(gen, 1e-3, 0.5, 0.9)
        disc, _ = self.steep_critic()
        frozen = disc.params.copy()
        z = np.random.default_rng(9).standard_normal((32, 1))
        want = init_net(NetSpec(widths=(1, 8, 1), hidden="tanh", seed=2))
        want_state = init_adam(want, 1e-3, 0.5, 0.9)
        y, gen_cache = forward(want, z)
        d_fake, disc_cache = forward(disc, y)
        _, input_grads = backward(disc, disc_cache, self.MSE.psi_prime(d_fake) / 32, param_rows=0)
        adam_step(want_state, want, backward(want, gen_cache, input_grads, batch_grad=False)[0])
        assert generator_step(self.MSE, gen, gen_state, disc, z) is None
        np.testing.assert_array_equal(disc.params.view(np.int64), frozen.view(np.int64))
        for got, expected in ((gen.params, want.params), (gen_state.m, want_state.m), (gen_state.v, want_state.v)):
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        assert gen_state.step_count == 1
        assert not np.array_equal(gen.params, init_net(gen.spec).params)


class TestEvaluate:
    """training.evaluate, the one eval snapshot, called on inputs of the test's choosing."""

    def evaluate(self, loss, disc, train_batch):
        cfg = shift_config(eval_batch=32)
        gen = init_net(NetSpec(widths=(1, 4, 1), seed=1))
        return training.evaluate(cfg, loss, 7, gen, disc, np.random.default_rng(0), 0.5, train_batch)

    def assert_ratio_fields(self, rec, ratio, std):
        assert (rec.generator_iteration, rec.penalty) == (7, 0.5)
        for field in ("lr_real_mean", "lr_gen_mean", "lr_real_mean_train", "lr_gen_mean_train"):
            assert getattr(rec, field) == pytest.approx(ratio, rel=1e-12), field
        for field in ("lr_real_std", "lr_gen_std"):
            assert getattr(rec, field) == pytest.approx(0.0, abs=std), field

    def test_constant_output_at_matched_level(self):
        """A discriminator stuck at omega(1) reports ratio exactly 1 on every batch."""
        loss = catalogue_lookup("CrossEntropy").loss
        net = init_net(NetSpec(widths=(1, 4, 1), squash=loss.range.label, seed=0))
        for w in net.weights:
            w[:] = 0.0  # logistic(0) = 0.5 = omega(1)
        x = np.random.default_rng(0).standard_normal((32, 1))
        rec = self.evaluate(loss, net, (x, x + 1))
        self.assert_ratio_fields(rec, 1.0, 0.0)

    def test_cross_entropy_at_08(self):
        loss = catalogue_lookup("CrossEntropy").loss
        net = init_net(NetSpec(widths=(1, 1, 1), hidden="tanh", squash=loss.range.label, seed=0))
        net.weights[0][:] = 0.0
        net.weights[1][:] = 0.0
        # logistic(b) = 0.8  =>  b = log 4
        net.biases[1][:] = np.log(4.0)
        x = np.zeros((8, 1))
        rec = self.evaluate(loss, net, (x, x + 3))
        self.assert_ratio_fields(rec, 4.0, 1e-12)

    def test_replays_the_records_of_a_run(self, monkeypatch):
        """Each eval of a run is evaluate on the arguments train passed it,
        with the eval stream as it stood at the call."""
        calls = []
        real = training.evaluate

        def spy(*args):
            calls.append(args[:5] + (copy.deepcopy(args[5]),) + args[6:])
            return real(*args)

        monkeypatch.setattr(training, "evaluate", spy)
        result = train(shift_config(total_generator_iters=12, eval_every=4))
        assert [args[2] for args in calls] == [4, 8, 12]
        assert [real(*args) for args in calls] == result.records


class TestFinalSamples:
    def test_equal_the_sample_file_a_train_command_writes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(train_config_to_text(shift_config(total_generator_iters=6, eval_every=3, eval_batch=48)))
        assert main(["--out", str(tmp_path / "out"), "train", "--config", str(cfg)]) == 0
        rundir = tmp_path / "out" / "run"
        config = train_config_from_text((rundir / "config.cfg").read_text())
        generator, _ = net_from_json((rundir / "gen_final.json").read_text())
        lines = (rundir / "samples_final.csv").read_text().splitlines()
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert rows.shape == (48, 1)
        np.testing.assert_array_equal(training.final_samples(config, generator), rows)


class TestDeterminism:
    def test_identical_configs_reproduce_bitwise(self):
        cfg = shift_config(total_generator_iters=30, eval_every=10)
        a, b = train(cfg), train(cfg)
        assert metrics_to_text(a.records) == metrics_to_text(b.records)
        for wa, wb in zip(a.generator.weights, b.generator.weights):
            np.testing.assert_array_equal(wa, wb)
        for wa, wb in zip(a.discriminator.weights, b.discriminator.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_lambda_zero_matches_penalty_free_build(self, monkeypatch):
        """Disabled penalty leaves results identical to a build without the code path."""
        cfg = shift_config(total_generator_iters=15, eval_every=5, lam=0.0)
        baseline = train(cfg)

        def forbidden(*args, **kwargs):
            raise AssertionError("penalty path entered with lambda = 0")

        monkeypatch.setattr(training, "gradient_penalty", forbidden)
        stripped = train(cfg)
        assert metrics_to_text(baseline.records) == metrics_to_text(stripped.records)
        for wa, wb in zip(baseline.generator.weights, stripped.generator.weights):
            np.testing.assert_array_equal(wa, wb)


class TestLimitLossRuns:
    @pytest.mark.parametrize("name", ["Hinge", "Wasserstein"])
    def test_runs_without_ratio_fields(self, name, monkeypatch):
        calls = []
        real = training.ratio_from_discriminator

        def spy(loss, d):
            calls.append(loss.name)
            return real(loss, d)

        monkeypatch.setattr(training, "ratio_from_discriminator", spy)
        cfg = shift_config(loss_name=name, total_generator_iters=12, eval_every=6)
        result = train(cfg)
        assert not result.aborted
        assert calls == []  # ratio inversion never attempted
        for rec in result.records:
            assert rec.lr_real_mean is None and rec.lr_gen_mean is None
            assert rec.lr_real_mean_train is None


def _mse_with(phi_prime, phi=None):
    mse = catalogue_lookup("MSE").loss
    return dataclasses.replace(mse, phi_prime=phi_prime, phi=phi or mse.phi)


class TestAbort:
    def test_non_finite_objective_keeps_last_good_checkpoint(self):
        omega = OmegaTransform(
            forward=lambda r: np.asarray(r, dtype=float),
            inverse=lambda z: NONNEGATIVE.clamp_interior(z),
            range=NONNEGATIVE,
            description="r",
        )
        poisoned = LossPair(
            name="poisoned",
            phi=lambda z: np.full_like(np.asarray(z, dtype=float), np.nan),
            phi_prime=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
            psi=lambda z: np.asarray(z, dtype=float),
            psi_prime=lambda z: np.ones_like(np.asarray(z, dtype=float)),
            omega=omega,
        )
        cfg = shift_config(total_generator_iters=5, eval_every=2)
        result = train(cfg, loss=poisoned)
        assert result.aborted
        assert "non-finite" in result.abort_reason and "iteration 1" in result.abort_reason
        # last-good is the initialization
        init_gen, _, _, _ = training.build_networks(cfg, poisoned)
        for wa, wb in zip(result.generator.weights, init_gen.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_diverging_run_returns_initial_optimizer_state(self):
        """A step that blows the weights up aborts before any eval: the saved
        nets and Adam states are the initial ones, not weights from one step
        paired with moments from another."""
        cfg = shift_config(loss_name="B1a", learning_rate=10.0)
        with np.errstate(all="ignore"):
            result = train(cfg)
        assert result.aborted and "iteration 1" in result.abort_reason
        init_gen, init_disc, _, _ = training.build_networks(cfg, catalogue_lookup("B1a").loss)
        for net, state, init in (
            (result.generator, result.gen_state, init_gen),
            (result.discriminator, result.disc_state, init_disc),
        ):
            np.testing.assert_array_equal(net.params, init.params)
            assert state.step_count == 0
            assert not state.m.any() and not state.v.any()

    def test_non_finite_gradient_aborts_with_state_of_last_eval(self):
        """A finite objective with an infinite phi' aborts cleanly, and the
        nets and Adam states come from the same (last-eval) step."""
        calls = []
        mse_phi_prime = catalogue_lookup("MSE").loss.phi_prime

        def phi_prime(z):
            calls.append(None)
            out = mse_phi_prime(z)
            return np.full_like(out, np.inf) if len(calls) > 15 else out

        cfg = shift_config(total_generator_iters=10, eval_every=2, critic_iters=5)
        with np.errstate(all="ignore"):
            result = train(cfg, loss=_mse_with(phi_prime))
        assert result.aborted
        # 15 clean critic steps = 3 iterations; the last eval was at iteration 2
        assert result.abort_reason == "non-finite discriminator gradient at iteration 4"
        clean = train(dataclasses.replace(cfg, total_generator_iters=2))
        assert result.records == clean.records
        for got, want in (
            ((result.generator, result.gen_state), (clean.generator, clean.gen_state)),
            ((result.discriminator, result.disc_state), (clean.discriminator, clean.disc_state)),
        ):
            np.testing.assert_array_equal(got[0].params, want[0].params)
            np.testing.assert_array_equal(got[1].m, want[1].m)
            np.testing.assert_array_equal(got[1].v, want[1].v)
            assert got[1].step_count == want[1].step_count


def log_omega_exp_weight():
    """The paper's construction from log-omega and rho = e^-z: a
    derivative-only pair, whose phi and psi come from quadrature."""
    omega = OmegaTransform(forward=np.log, inverse=np.exp, range=REALS, description="log r")
    return make_loss_pair(omega, lambda z: np.exp(-np.asarray(z, dtype=float)), name="log-exp")


class TestDerivativeOnlyPair:
    def test_short_run_finishes_with_finite_metrics(self):
        loss = log_omega_exp_weight()
        result = train(shift_config(total_generator_iters=12, eval_every=6), loss=loss)
        assert not result.aborted
        assert [r.generator_iteration for r in result.records] == [6, 12]
        for rec in result.records:
            values = [getattr(rec, col) for col in training.METRIC_COLUMNS]
            assert all(math.isfinite(v) for v in values)

    def test_non_finite_real_batch_ends_the_critic_phase(self):
        """A NaN real row gives a NaN discriminator output; the quadrature phi
        maps it to NaN at once, so the phase returns its reason."""
        loss = log_omega_exp_weight()
        disc = init_net(NetSpec(widths=(1, 8, 1), squash=loss.range.label, seed=5))
        state = init_adam(disc, 1e-3, 0.5, 0.9)
        x = np.random.default_rng(3).normal(4.0, 1.0, (16, 1))
        x[7, 0] = np.nan
        y = np.zeros((16, 1))
        before = disc.params.copy()
        assert critic_phase(loss, disc, state, "max", 0.0, iter([(x, y, None)])) == (
            "non-finite discriminator objective"
        )
        np.testing.assert_array_equal(disc.params, before)
        assert state.step_count == 0


class TestAbortMessages:
    """A non-finite objective ends the run with its exact reason, and the
    nets and Adam states of the last eval, as the gradient aborts do."""

    @staticmethod
    def poisoned_at(name, call):
        """MSE whose phi or psi gives NaN on its call-th call with a training
        batch's 64 rows (eval batches here have 128 rows, so evals never count)."""
        mse = catalogue_lookup("MSE").loss
        clean = getattr(mse, name)
        calls = []

        def values(z):
            out = clean(z)
            if len(z) == 64:
                calls.append(None)
                if len(calls) == call:
                    return np.full_like(out, np.nan)
            return out

        return dataclasses.replace(mse, **{name: values})

    # 5 critic steps and one generator step an iteration: phi is called once a
    # critic step, psi once a critic step and once a generator step
    @pytest.mark.parametrize("name,call,reason", [
        ("phi", 16, "non-finite discriminator objective at iteration 4"),
        ("psi", 24, "non-finite generator objective at iteration 4"),
    ])
    def test_objective_abort_keeps_the_state_of_the_last_eval(self, name, call, reason):
        cfg = shift_config(total_generator_iters=10, eval_every=2, critic_iters=5, eval_batch=128)
        with np.errstate(all="ignore"):
            result = train(cfg, loss=self.poisoned_at(name, call))
        assert result.abort_reason == reason
        clean = train(dataclasses.replace(cfg, total_generator_iters=2))
        assert [r.generator_iteration for r in result.records] == [2]
        assert_same_run(result, dataclasses.replace(clean, abort_reason=reason))


class TestTrainResult:
    @pytest.mark.parametrize("reason", [None, "non-finite generator gradient at iteration 3"])
    def test_aborted_follows_abort_reason(self, reason):
        net = init_net(NetSpec(widths=(1, 2, 1)))
        state = init_adam(net)
        result = TrainResult(net, net, [], state, state, [], reason)
        assert result.aborted == (reason is not None)
        assert "aborted" not in {f.name for f in dataclasses.fields(TrainResult)}


def assert_same_run(got, want):
    assert got.records == want.records
    assert (got.aborted, got.abort_reason) == (want.aborted, want.abort_reason)
    assert got.checkpoints == want.checkpoints
    for net, state, want_net, want_state in (
        (got.generator, got.gen_state, want.generator, want.gen_state),
        (got.discriminator, got.disc_state, want.discriminator, want.disc_state),
    ):
        np.testing.assert_array_equal(net.params, want_net.params)
        np.testing.assert_array_equal(state.m, want_state.m)
        np.testing.assert_array_equal(state.v, want_state.v)
        assert state.step_count == want_state.step_count


class TestEvalThread:
    """Evals run on one worker thread, at most one at a time, and the run
    equals the serial loop (tests/helpers.serial_train) bit for bit."""

    def test_matches_serial_loop(self):
        cfg = shift_config(total_generator_iters=12, eval_every=1, eval_batch=256, checkpoint_every=5)
        assert_same_run(train(cfg), serial_train(cfg))

    def test_ring_with_penalty_matches_serial_loop(self):
        cfg = shift_config(
            loss_name="C2", f_spec=ring(8, 2.0, 0.02), h_spec=gaussian([0.0, 0.0], np.eye(2)),
            total_generator_iters=6, eval_every=2, eval_batch=512, critic_iters=3,
        )
        assert_same_run(train(cfg), serial_train(cfg))

    def test_aborting_run_matches_serial_loop(self):
        cfg = shift_config(loss_name="B1a", learning_rate=10.0, eval_every=1)
        with np.errstate(all="ignore"):
            got, want = train(cfg), serial_train(cfg)
        assert got.aborted
        assert_same_run(got, want)

    def test_abort_waits_for_the_eval_in_flight(self):
        """An abort right after an eval returns that eval's record."""
        calls = []
        mse_phi_prime = catalogue_lookup("MSE").loss.phi_prime

        def phi_prime(z):
            calls.append(None)
            out = mse_phi_prime(z)
            return np.full_like(out, np.inf) if len(calls) > 15 else out

        cfg = shift_config(total_generator_iters=10, eval_every=3, critic_iters=5, eval_batch=1024)
        with np.errstate(all="ignore"):
            got = train(cfg, loss=_mse_with(phi_prime))
            calls.clear()
            want = serial_train(cfg, loss=_mse_with(phi_prime))
        assert got.abort_reason == "non-finite discriminator gradient at iteration 4"
        assert [r.generator_iteration for r in got.records] == [3]
        assert_same_run(got, want)

    def test_non_finite_eval_matches_serial_loop(self):
        """A non-finite eval record ends the run at that eval's iteration, with
        that eval's nets, threaded as inline; NaN cells are compared as text."""
        cfg = shift_config(loss_name="B2", learning_rate=1e20, critic_iters=1, eval_every=1,
                           total_generator_iters=3, eval_batch=256)
        got, want = train(cfg), serial_train(cfg)
        one = train(dataclasses.replace(cfg, total_generator_iters=1))  # its one eval is the same
        assert got.abort_reason == "non-finite lr_real_mean at iteration 1"
        assert [r.generator_iteration for r in got.records] == [1]
        for other in (want, one):
            assert metrics_to_text(got.records) == metrics_to_text(other.records)
            assert_same_run(dataclasses.replace(got, records=[]), dataclasses.replace(other, records=[]))

    def test_evals_run_off_the_training_thread_under_its_error_state(self, monkeypatch):
        seen = []
        mmd = training.mmd_rbf

        def spy(x, y, bandwidth):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()["divide"], bandwidth))
            return mmd(x, y, bandwidth)

        monkeypatch.setattr(training, "mmd_rbf", spy)
        config = shift_config()
        with np.errstate(divide="ignore"):
            train(config)
        assert seen == [(False, "ignore", config.mmd_bandwidth)] * 2  # one kernel for every eval

    def test_eval_exception_propagates_and_leaves_no_thread(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("mmd failed")

        monkeypatch.setattr(training, "mmd_rbf", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="mmd failed"):
            train(shift_config())
        assert threading.active_count() == before


def _one_iteration_peak(preset):
    """Traced peak of a one-iteration run of a preset (eval_batch 2048)."""
    text = apply_overrides(_preset_text(preset)[0][1], ["train.total_generator_iters=1"])
    cfg = train_config_from_text(text)
    assert cfg.eval_batch == 2048
    tracemalloc.start()
    try:
        serial_train(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEvalMemory:
    @pytest.mark.parametrize("preset", ["ring2d-B2", "shift1d-MSE"])
    def test_snapshot_peak_is_mmd_blocks_plus_little(self, preset):
        """At eval_batch 2048 the traced peak of a one-iteration run stays
        below 12 MiB, under half of one 2048x2048 float64 matrix: MMD reads
        its xx, yy and xy blocks one band of rows at a time, and the eval's
        net passes keep no backward cache alive through it."""
        assert _one_iteration_peak(preset) < 12 * 2**20


class TestMetricsIO:
    def test_round_trip(self):
        cfg = shift_config(total_generator_iters=10, eval_every=5)
        result = train(cfg)
        text = metrics_to_text(result.records)
        parsed = metrics_from_text(text)
        assert parsed == result.records

    def test_round_trip_with_absent_lr_fields(self):
        cfg = shift_config(loss_name="Wasserstein", total_generator_iters=6, eval_every=3)
        result = train(cfg)
        parsed = metrics_from_text(metrics_to_text(result.records))
        assert parsed == result.records
        assert parsed[0].lr_real_mean is None

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            metrics_from_text("a\tb\n1\t2\n")


class TestCheckpointCadence:
    def test_periodic_checkpoints_collected(self):
        cfg = shift_config(total_generator_iters=20, eval_every=10, checkpoint_every=10)
        result = train(cfg)
        assert [it for it, _, _ in result.checkpoints] == [10, 20]


class TestSampleFileTarget:
    def test_training_draws_from_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(4.0, 1.0, size=(500, 1))
        path = tmp_path / "target.csv"
        path.write_text("\n".join(repr(float(v)) for v in data[:, 0]) + "\n")
        cfg = shift_config(f_spec=sample_file(path), total_generator_iters=10, eval_every=5)
        result = train(cfg)
        assert not result.aborted
        assert len(result.records) == 2
