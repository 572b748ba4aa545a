"""The adversarial loop: accounting, penalty, metrics, determinism, aborts."""

import numpy as np
import pytest

import ratiogan.training as training
from ratiogan.catalogue import catalogue_lookup
from ratiogan.densities import gaussian
from ratiogan.losses import (
    LossPair,
    NONNEGATIVE,
    OmegaTransform,
    RatioNotRecoverableError,
)
from ratiogan.nets import NetSpec, forward, init_net
from ratiogan.training import (
    TrainConfig,
    gradient_penalty,
    likelihood_ratio_metric,
    metrics_from_text,
    metrics_to_text,
    train,
)
from helpers import quasi_linear_net


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


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value,msg",
        [
            ("critic_iters", 0, "critic_iters"),
            ("batch_size", 1, "batch_size"),
            ("lam", -1.0, "lambda"),
            ("total_generator_iters", 0, "total_generator_iters"),
            ("penalty_variant", "soft", "variant"),
        ],
    )
    def test_rejects_bad_values(self, field, value, msg):
        with pytest.raises(ValueError, match=msg):
            shift_config(**{field: value}).validate()

    def test_rejects_rectifier_with_penalty(self):
        with pytest.raises(ValueError, match="relu"):
            shift_config(disc_hidden="relu", lam=10.0).validate()

    def test_accepts_rectifier_without_penalty(self):
        shift_config(disc_hidden="relu", lam=0.0).validate()


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
    def test_lambda_zero_short_circuits(self):
        net = init_net(NetSpec(widths=(1, 4, 1), seed=0))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        value, grads = gradient_penalty(net, np.ones((4, 1)), np.zeros((4, 1)), "max", 0.0, rng)
        assert value == 0.0
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)
        assert rng.bit_generator.state == before  # no randomness consumed

    def test_linear_discriminator_known_value(self):
        """A (quasi-)linear discriminator with ||w|| = 3 pays 10 (3-1)^2 = 40."""
        w_hidden = np.array([[1.0, 0.0], [0.0, 1.0]])
        w_out = np.array([[3.0, 0.0]])
        net = quasi_linear_net(w_hidden, w_out)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 2)) * 0.1
        y = rng.standard_normal((8, 2)) * 0.1
        for variant in ("max", "mean"):
            value, _ = gradient_penalty(net, x, y, variant, 10.0, np.random.default_rng(2))
            assert value == pytest.approx(40.0, rel=1e-8), variant

    def test_small_weight_discriminator_pays_nothing(self):
        w_hidden = np.array([[0.5, 0.0], [0.0, 0.5]])
        w_out = np.array([[0.6, 0.6]])  # effective norm ~0.42
        net = quasi_linear_net(w_hidden, w_out)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 2)) * 0.1
        y = rng.standard_normal((8, 2)) * 0.1
        for variant in ("max", "mean"):
            value, grads = gradient_penalty(net, x, y, variant, 10.0, np.random.default_rng(4))
            assert value == 0.0
            assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)

    def test_shape_mismatch(self):
        net = init_net(NetSpec(widths=(2, 4, 1), seed=0))
        with pytest.raises(ValueError, match="identical shapes"):
            gradient_penalty(net, np.ones((4, 2)), np.ones((3, 2)), "max", 1.0, np.random.default_rng(0))


class TestLikelihoodRatioMetric:
    def test_constant_output_at_matched_level(self):
        """A discriminator stuck at omega(1) reports ratio exactly 1."""
        loss = catalogue_lookup("CrossEntropy").loss
        net = init_net(NetSpec(widths=(1, 4, 1), squash=loss.squashing(), seed=0))
        for w in net.weights:
            w[:] = 0.0  # logistic(0) = 0.5 = omega(1)
        x = np.random.default_rng(0).standard_normal((32, 1))
        mean_r, std_r, mean_g, std_g = likelihood_ratio_metric(loss, net, x, x + 1)
        assert mean_r == pytest.approx(1.0) and std_r == 0.0
        assert mean_g == pytest.approx(1.0) and std_g == 0.0

    def test_cross_entropy_at_08(self):
        loss = catalogue_lookup("CrossEntropy").loss
        net = init_net(NetSpec(widths=(1, 1, 1), hidden="tanh", squash=loss.squashing(), seed=0))
        net.weights[0][:] = 0.0
        net.weights[1][:] = 0.0
        # logistic(b) = 0.8  =>  b = log 4
        net.biases[1][:] = np.log(4.0)
        x = np.zeros((8, 1))
        mean_r, _, _, _ = likelihood_ratio_metric(loss, net, x, x)
        assert mean_r == pytest.approx(4.0, rel=1e-12)

    def test_limit_loss_raises(self):
        loss = catalogue_lookup("Wasserstein").loss
        net = init_net(NetSpec(widths=(1, 4, 1), seed=0))
        with pytest.raises(RatioNotRecoverableError):
            likelihood_ratio_metric(loss, net, np.ones((4, 1)), np.ones((4, 1)))


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


class TestAbort:
    def test_non_finite_objective_keeps_last_good_checkpoint(self):
        omega = OmegaTransform(
            forward=lambda r: np.asarray(r, dtype=float),
            inverse=lambda z: NONNEGATIVE.clamp_interior(z),
            range=NONNEGATIVE,
            invertible=True,
            description="r",
        )
        poisoned = LossPair(
            name="poisoned",
            phi=lambda z: np.full_like(np.asarray(z, dtype=float), np.nan),
            phi_prime=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
            psi=lambda z: np.asarray(z, dtype=float),
            psi_prime=lambda z: np.ones_like(np.asarray(z, dtype=float)),
            omega=omega,
            range=NONNEGATIVE,
            ratio_invertible=True,
        )
        cfg = shift_config(total_generator_iters=5, eval_every=2)
        result = train(cfg, loss=poisoned)
        assert result.aborted
        assert "non-finite" in result.abort_reason and "iteration 1" in result.abort_reason
        # last-good is the initialization
        init_gen, _, _, _ = training.build_networks(cfg, poisoned)
        for wa, wb in zip(result.generator.weights, init_gen.weights):
            np.testing.assert_array_equal(wa, wb)


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
        cfg = shift_config(f_spec=str(path), total_generator_iters=10, eval_every=5)
        result = train(cfg)
        assert not result.aborted
        assert len(result.records) == 2
