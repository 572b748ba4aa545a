"""Dense nets: units, exact gradients, Adam, the second-order penalty pass, checkpoints."""

import math
from pathlib import Path

import numpy as np
import pytest

from ratiogan.losses import CANONICAL_RANGES, NONNEGATIVE, SYMMETRIC_UNIT, UNIT
from ratiogan.nets import (
    OUTPUT_UNITS,
    AdamState,
    NetSpec,
    _act_eval,
    adam_step,
    backward,
    forward,
    init_adam,
    init_net,
    net_from_json,
    net_to_json,
    weighted_norm_param_grads,
)
from ratiogan.training import gradient_penalty

from helpers import (
    exact_penalty_grads,
    input_gradients,
    old_sigmoid_terms,
    old_squash_terms,
    penalty_feed,
    penalty_param_grads_fd,
    penalty_pass,
    quasi_linear_net,
)

SQUASHES = [None, NONNEGATIVE.label, UNIT.label, SYMMETRIC_UNIT.label]


def assert_bitwise(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def fd_param_grads(net, x, scalar_fn, h=1e-6):
    grads = []
    for w, b in zip(net.weights, net.biases):
        gw, gb = np.zeros_like(w), np.zeros_like(b)
        for arr, out in ((w, gw), (b, gb)):
            flat, gout = arr.ravel(), out.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                hi = scalar_fn()
                flat[k] = orig - h
                lo = scalar_fn()
                flat[k] = orig
                gout[k] = (hi - lo) / (2.0 * h)
        grads.append((gw, gb))
    return grads


class TestInit:
    def test_deterministic_given_seed(self):
        spec = NetSpec(widths=(3, 16, 1), seed=42)
        a, b = init_net(spec), init_net(spec)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_shapes_chain(self):
        net = init_net(NetSpec(widths=(2, 64, 64, 1), seed=0))
        assert [w.shape for w in net.weights] == [(64, 2), (64, 64), (1, 64)]
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_fanin_scaled_variance(self):
        """First-layer weights have variance about 1/fan_in."""
        net = init_net(NetSpec(widths=(64, 64, 1), seed=7))
        target = 1.0 / 64
        assert abs(net.weights[0].var() - target) < 0.2 * target

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="hidden layer"):
            NetSpec(widths=(2, 1))
        with pytest.raises(ValueError, match="widths"):
            NetSpec(widths=(2, 0, 1))
        with pytest.raises(ValueError, match="activation"):
            NetSpec(widths=(2, 4, 1), hidden="gelu")


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = init_net(NetSpec(widths=(2, 8, 1), seed=0))
        for w in net.weights:
            w[:] = 0.0
        out, _ = forward(net, np.ones((5, 2)))
        np.testing.assert_array_equal(out, np.zeros((5, 1)))

    def test_two_layer_hand_computation(self):
        """Single input through a tanh [1,1,1] chain matches manual arithmetic."""
        net = init_net(NetSpec(widths=(1, 1, 1), hidden="tanh", squash=None, seed=0))
        net.weights[0][:] = 2.0
        net.biases[0][:] = -1.0
        net.weights[1][:] = 3.0
        net.biases[1][:] = 0.25
        out, _ = forward(net, np.array([[0.75]]))
        expected = 3.0 * math.tanh(2.0 * 0.75 - 1.0) + 0.25
        assert out[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_logistic_squash_containment(self):
        spec = NetSpec(widths=(2, 8, 1), squash=UNIT.label, seed=3)
        net = init_net(spec)
        out, _ = forward(net, np.random.default_rng(0).standard_normal((100, 2)) * 10)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_shape_mismatch_rejected(self):
        net = init_net(NetSpec(widths=(2, 4, 1), seed=0))
        with pytest.raises(ValueError, match="batch shape"):
            forward(net, np.ones((5, 3)))


class TestBackward:
    @pytest.mark.parametrize("hidden", ["smooth_leaky", "tanh", "relu"])
    @pytest.mark.parametrize("squash_idx", [0, 1, 2, 3])
    def test_param_grads_match_finite_differences(self, hidden, squash_idx):
        """Every activation/squashing combination within 1e-4 max relative error."""
        rng = np.random.default_rng(99)
        spec = NetSpec(widths=(2, 8, 1), hidden=hidden, squash=SQUASHES[squash_idx], seed=5)
        net = init_net(spec)
        x = rng.standard_normal((6, 2))
        c = rng.standard_normal((6, 1))

        def scalar_fn():
            out, _ = forward(net, x)
            return float((c * out).sum())

        out, cache = forward(net, x)
        grads, _ = backward(net, cache, c)
        fd = fd_param_grads(net, x, scalar_fn)
        for (gw, gb), (fw, fb) in zip(net.layers(grads), fd):
            for got, want in ((gw, fw), (gb, fb)):
                rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-8)
                assert rel.max() < 1e-4

    def test_input_grads_match_finite_differences(self):
        rng = np.random.default_rng(31)
        net = init_net(NetSpec(widths=(3, 8, 1), seed=1))
        x = rng.standard_normal((5, 3))
        c = rng.standard_normal((5, 1))
        out, cache = forward(net, x)
        _, gin = backward(net, cache, c)
        h = 1e-6
        fd = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                orig = x[i, j]
                x[i, j] = orig + h
                hi = float((c * forward(net, x)[0]).sum())
                x[i, j] = orig - h
                lo = float((c * forward(net, x)[0]).sum())
                x[i, j] = orig
                fd[i, j] = (hi - lo) / (2 * h)
        rel = np.abs(gin - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-4

    def test_zero_output_grads_give_zero_grads(self):
        net = init_net(NetSpec(widths=(2, 4, 1), seed=2))
        x = np.random.default_rng(3).standard_normal((4, 2))
        out, cache = forward(net, x)
        grads, gin = backward(net, cache, np.zeros_like(out))
        assert np.all(grads == 0)
        assert np.all(gin == 0)

    def test_param_rows_match_a_pass_over_those_rows(self):
        """Parameter sums over the first rows of a stacked batch equal a
        separate pass over those rows bit for bit (none: a zero gradient);
        input gradients cover all.  Also with a width-1 input layer."""
        rng = np.random.default_rng(5)
        for width, head in ((2, 128), (2, 0), (1, 128)):
            net = init_net(NetSpec(widths=(width, 64, 64, 1), squash=SQUASHES[2], seed=6))
            x = rng.standard_normal((192, width))
            c = rng.standard_normal((192, 1))
            _, cache = forward(net, x)
            grads, gin = backward(net, cache, c, param_rows=head)
            _, head_cache = forward(net, x[:head])
            head_grads, head_gin = backward(net, head_cache, c[:head])
            _, tail_cache = forward(net, x[head:])
            _, tail_gin = backward(net, tail_cache, c[head:])
            assert_bitwise(grads, head_grads)
            assert_bitwise(gin, np.vstack([head_gin, tail_gin]))
            if head == 0:
                assert not grads.any()

    def test_skipping_the_batch_gradient_keeps_parameter_bits(self):
        """batch_grad=False returns None for the batch gradient and the same
        parameter gradient bits, for every param_rows and input width, a
        generator-shaped net included."""
        rng = np.random.default_rng(8)
        for widths, squash in (((2, 64, 64, 1), SQUASHES[2]), ((1, 32, 1), None), ((3, 16, 16, 2), None)):
            net = init_net(NetSpec(widths=widths, squash=squash, seed=9))
            x = rng.standard_normal((96, widths[0]))
            out, cache = forward(net, x)
            c = rng.standard_normal(out.shape)
            for head in (None, 64, 0):
                grads, gin = backward(net, cache, c, param_rows=head)
                skipped, none = backward(net, cache, c, param_rows=head, batch_grad=False)
                assert none is None and gin.shape == x.shape
                assert_bitwise(skipped, grads)

    def test_stale_cache_rejected(self):
        net = init_net(NetSpec(widths=(2, 4, 1), seed=2))
        _, cache = forward(net, np.ones((4, 2)))
        with pytest.raises(ValueError, match="output_grads shape"):
            backward(net, cache, np.ones((3, 1)))

    def test_deriv_cache_matches_plain_backward(self):
        """Caching second derivatives for some rows leaves first-order results alone."""
        net = init_net(NetSpec(widths=(2, 8, 1), seed=4))
        x = np.random.default_rng(0).standard_normal((6, 2))
        c = np.random.default_rng(1).standard_normal((6, 1))
        out1, cache1 = forward(net, x)
        out2, cache2 = forward(net, x, second_from=3)
        np.testing.assert_array_equal(out1, out2)
        g1, i1 = backward(net, cache1, c)
        g2, i2 = backward(net, cache2, c)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(g1, g2)


class TestSmoothLeakyUnit:
    def test_copysign_sigmoid_matches_branch_form_bitwise(self):
        """0.5 + copysign(t - 0.5, z) is np.where(z >= 0, t, 1 - t) bit for bit:
        edge values and random bit patterns, through value, slope and curvature."""
        edges = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                          1e-300, -1e-300, 0.5, -0.5, 36.7, -36.7, 745.2, -745.2, 1e308, -1e308])
        bits = np.random.default_rng(0).integers(0, 2**64, size=1 << 18, dtype=np.uint64)
        z = np.concatenate([edges, bits.view(np.float64)])
        with np.errstate(all="ignore"):  # signalling NaNs among the bit patterns
            got = _act_eval("smooth_leaky", z[None, :], second_from=0)
            want = old_sigmoid_terms(z[None, :])
        nan = np.isnan(z)
        for g, w in zip(got, want):
            g, w = g[0], w[0]
            np.testing.assert_array_equal(g[~nan].view(np.int64), w[~nan].view(np.int64))
            assert np.isnan(g[nan]).all() and np.isnan(w[nan]).all()


class TestOutputUnits:
    @pytest.mark.parametrize("label", [None, *(r.label for r in CANONICAL_RANGES)])
    def test_match_first_written_squashes_bitwise(self, label):
        """Each output unit equals its squash formula as first written, bit
        for bit; for [-1,1] that means the tanh hidden unit's 1 - a*a form
        equals 1 - tanh(z)**2.  Edge values and random bit patterns, through
        value, slope and curvature."""
        edges = np.array([0.0, -0.0, 709.0, -709.0, 709.8, -709.8, 745.0, -745.0, 745.2, -745.2,
                          np.inf, -np.inf, 5e-324, -5e-324, 1e-300, -1e-300, 36.7, -36.7, 1e308, -1e308])
        bits = np.random.default_rng(1).integers(0, 2**64, size=1 << 16, dtype=np.uint64)
        z = np.concatenate([edges, bits.view(np.float64)])[None, :]
        with np.errstate(all="ignore"):  # signalling NaNs among the bit patterns
            got = _act_eval(OUTPUT_UNITS[label], z, second_from=0)
            want = old_squash_terms(label, z)
        for g, w in zip(got, want):
            nan = np.isnan(w)
            np.testing.assert_array_equal(np.isnan(g), nan)
            np.testing.assert_array_equal(g[~nan].view(np.int64), w[~nan].view(np.int64))


class TestAdam:
    def test_zero_gradients_leave_params(self):
        net = init_net(NetSpec(widths=(2, 4, 1), seed=0))
        state = init_adam(net)
        before = [w.copy() for w in net.weights]
        adam_step(state, net, np.zeros_like(net.params))
        assert state.step_count == 1
        for w, prev in zip(net.weights, before):
            np.testing.assert_array_equal(w, prev)

    def test_first_step_hand_value(self):
        """Bias-corrected first step is -lr * g/(|g| + eps) for any gradient scale."""
        net = init_net(NetSpec(widths=(1, 1, 1), hidden="tanh", seed=0))
        state = init_adam(net, learning_rate=0.1, beta1=0.5, beta2=0.9)
        w0 = net.weights[0].copy()
        grads = np.zeros_like(net.params)
        net.layers(grads)[0][0][:] = 1.0
        adam_step(state, net, grads)
        delta = float(net.weights[0][0, 0] - w0[0, 0])
        assert delta == pytest.approx(-0.1, rel=1e-6)

    def test_constant_gradient_monotone_drift(self):
        net = init_net(NetSpec(widths=(1, 1, 1), hidden="tanh", seed=0))
        state = init_adam(net, learning_rate=1e-3)
        grads = np.zeros_like(net.params)
        net.layers(grads)[0][0][:] = 2.5
        prev = float(net.weights[0][0, 0])
        for _ in range(1000):
            adam_step(state, net, grads)
            cur = float(net.weights[0][0, 0])
            assert cur < prev
            prev = cur

    def test_scale_invariant_first_step_direction(self):
        """Positive rescaling of the loss leaves the first Adam step unchanged."""
        for scale in (1.0, 10.0, 1000.0):
            net = init_net(NetSpec(widths=(1, 1, 1), hidden="tanh", seed=0))
            state = init_adam(net, learning_rate=0.1, beta1=0.5, beta2=0.9)
            w0 = float(net.weights[0][0, 0])
            grads = np.zeros_like(net.params)
            net.layers(grads)[0][0][:] = scale
            adam_step(state, net, grads)
            assert float(net.weights[0][0, 0]) - w0 == pytest.approx(-0.1, rel=1e-5)

    def test_non_finite_gradient_names_layer(self):
        net = init_net(NetSpec(widths=(2, 4, 1), seed=0))
        state = init_adam(net)
        grads = np.zeros_like(net.params)
        net.layers(grads)[1][0][:] = np.nan
        with pytest.raises(ValueError, match="layer 1"):
            adam_step(state, net, grads)


class TestPenaltyPass:
    def test_quasi_linear_net_norms_equal_weight_norm(self):
        """For an (asymptotically) linear discriminator the input-gradient norm is ||w||."""
        rng = np.random.default_rng(12)
        w_hidden = rng.standard_normal((4, 2))
        w_out = rng.standard_normal((1, 4))
        net = quasi_linear_net(w_hidden, w_out)
        w_eff = (w_out @ w_hidden).ravel()
        x = rng.standard_normal((7, 2)) * 0.5
        _, gx = input_gradients(net, x)
        norms = np.sqrt((gx**2).sum(axis=1))
        np.testing.assert_allclose(norms, np.linalg.norm(w_eff), rtol=1e-9)

    def test_zero_net_zero_penalty_gradient(self):
        net = init_net(NetSpec(widths=(2, 8, 1), seed=1))
        for w in net.weights:
            w[:] = 0.0
        _, gx = input_gradients(net, np.ones((4, 2)))
        np.testing.assert_array_equal(np.sqrt((gx**2).sum(axis=1)), np.zeros(4))
        value, grads = exact_penalty_grads(net, np.ones((4, 2)), lam=10.0, variant="max")
        assert value == 0.0
        assert np.all(grads == 0)

    @pytest.mark.parametrize("variant", ["max", "mean"])
    def test_exact_matches_fd_fallback(self, variant):
        rng = np.random.default_rng(7)
        net = init_net(NetSpec(widths=(2, 8, 1), seed=11))
        for w in net.weights:
            w *= 3.0  # push gradient norms above 1 so the hinge is active
        x = rng.standard_normal((6, 2))
        _, exact = exact_penalty_grads(net, x, 10.0, variant)
        fallback = penalty_param_grads_fd(net, x, 10.0, variant)
        for (ew, eb), (fw, fb) in zip(net.layers(exact), net.layers(fallback)):
            for got, want in ((ew, fw), (eb, fb)):
                rel = np.abs(got - want) / max(np.abs(want).max(), 1e-10)
                assert rel.max() < 1e-3

    def test_exact_matches_fd_with_tanh_hidden(self):
        rng = np.random.default_rng(8)
        net = init_net(NetSpec(widths=(2, 6, 1), hidden="tanh", seed=2))
        for w in net.weights:
            w *= 4.0
        x = rng.standard_normal((5, 2))
        _, exact = exact_penalty_grads(net, x, 1.0, "mean")
        fallback = penalty_param_grads_fd(net, x, 1.0, "mean")
        for (ew, eb), (fw, fb) in zip(net.layers(exact), net.layers(fallback)):
            rel = np.abs(ew - fw) / max(np.abs(fw).max(), 1e-10)
            assert rel.max() < 1e-3

    def test_needs_no_backward_on_its_cache(self):
        """The penalty pass reads only its arguments: on a fresh cache, with
        input gradients from a separate pass, it equals the fused feed bit
        for bit."""
        rng = np.random.default_rng(9)
        net = init_net(NetSpec(widths=(2, 16, 16, 1), seed=3))
        x = rng.standard_normal((12, 2))
        _, input_grads = input_gradients(net, x)
        _, cache = forward(net, x, second_from=0)
        value, grads = gradient_penalty(net, cache, input_grads, "mean", 10.0)
        want_value, want_grads = gradient_penalty(net, *penalty_feed(net, x), "mean", 10.0)
        assert value == want_value
        assert_bitwise(grads, want_grads)

    def test_rectifier_refused_in_exact_mode(self):
        net = init_net(NetSpec(widths=(2, 4, 1), hidden="relu", seed=0))
        with pytest.raises(ValueError, match="smooth_leaky"):
            exact_penalty_grads(net, np.ones((3, 2)), 10.0, "max")

    def test_weighted_norm_grads_match_fd_for_arbitrary_coeffs(self):
        """The forward-over-reverse pass is exact for any fixed coefficient vector."""
        rng = np.random.default_rng(23)
        net = init_net(NetSpec(widths=(3, 6, 1), seed=4))
        x = rng.standard_normal((5, 3))
        coeffs = rng.standard_normal(5)

        def scalar_fn():
            _, gx = input_gradients(net, x)
            return float(coeffs @ np.sqrt((gx**2).sum(axis=1)))

        grads = penalty_pass(net, x, coeffs)
        fd = fd_param_grads(net, x, scalar_fn, h=1e-6)
        for (gw, gb), (fw, fb) in zip(net.layers(grads), fd):
            for got, want in ((gw, fw), (gb, fb)):
                rel = np.abs(got - want) / max(np.abs(want).max(), 1e-9)
                assert rel.max() < 1e-5

    @pytest.mark.parametrize("hidden", ["smooth_leaky", "tanh"])
    def test_fixed_directions_match_fd(self, hidden):
        """The pass differentiates sum_i u_i . grad_x D(x_i) for any fixed
        directions u, whatever their relation to the input gradients."""
        rng = np.random.default_rng(24)
        net = init_net(NetSpec(widths=(2, 5, 4, 1), hidden=hidden, squash=UNIT.label, seed=6))
        x = rng.standard_normal((4, 2))
        directions = rng.standard_normal((4, 2))
        directions[2] = 0.0

        def scalar_fn():
            return float((directions * input_gradients(net, x)[1]).sum())

        _, cache = forward(net, x, second_from=0)
        grads = weighted_norm_param_grads(net, cache, directions)
        fd = fd_param_grads(net, x, scalar_fn, h=1e-6)
        for (gw, gb), (fw, fb) in zip(net.layers(grads), fd):
            for got, want in ((gw, fw), (gb, fb)):
                rel = np.abs(got - want) / max(np.abs(want).max(), 1e-9)
                assert rel.max() < 1e-5

    def test_penalty_values(self):
        """The value reads only the input gradients' norms, here 3, 1 and 0.5."""
        net = init_net(NetSpec(widths=(1, 4, 1), seed=0))
        _, cache = forward(net, np.zeros((3, 1)), second_from=0)
        g = np.array([[3.0], [-1.0], [0.5]])
        assert gradient_penalty(net, cache, g, "max", 10.0)[0] == pytest.approx(40.0)
        assert gradient_penalty(net, cache, g, "mean", 10.0)[0] == pytest.approx(10.0 * 4.0 / 3.0)
        assert gradient_penalty(net, cache, g * 0.3, "max", 10.0)[0] == 0.0


class TestCheckpoints:
    def test_round_trip_bytes(self):
        spec = NetSpec(widths=(2, 4, 1), squash=UNIT.label, seed=5)
        net = init_net(spec)
        state = init_adam(net)
        blob = net_to_json(net, state)
        net2, state2 = net_from_json(blob)
        assert net_to_json(net2, state2) == blob

    def test_round_trip_values(self):
        net = init_net(NetSpec(widths=(3, 5, 2), hidden="tanh", seed=9))
        net2, state2 = net_from_json(net_to_json(net))
        assert state2 is None
        assert net2.spec == net.spec
        for a, b in zip(net.weights, net2.weights):
            np.testing.assert_array_equal(a, b)

    # forward outputs at x = -2, 0.5, 3 of each file in tests/data, recorded
    # when the file was written, while the squash units lived in losses
    WRITTEN_OUTPUTS = {
        "generator": [0.5895102343396209, 0.13259772208409573, -0.23814485017897163],
        "nonnegative": [1.0307277521933071, 0.7616422083265768, 0.5811472008026692],
        "unit": [0.6432527621458322, 0.5331009466583528, 0.44074357583318624],
        "reals": [0.5895102343396209, 0.13259772208409573, -0.23814485017897163],
        "symmetric_unit": [0.529543271684716, 0.13182603066136137, -0.23374271990568954],
    }

    @pytest.mark.parametrize("name", sorted(WRITTEN_OUTPUTS))
    def test_earlier_checkpoints_reload_unchanged(self, name):
        """A checkpoint per squash label, written by an earlier version,
        re-serialises byte for byte and reloads to the same outputs."""
        blob = (Path(__file__).parent / "data" / f"checkpoint_{name}.json").read_text()
        net, state = net_from_json(blob)
        assert net_to_json(net, state) == blob
        out, _ = forward(net, np.array([[-2.0], [0.5], [3.0]]))
        assert out.ravel().tolist() == self.WRITTEN_OUTPUTS[name]

    def test_byte_stable_across_runs(self):
        spec = NetSpec(widths=(2, 8, 1), seed=13)
        assert net_to_json(init_net(spec)) == net_to_json(init_net(spec))
