"""Loss-pair construction, ranges and the output unit that keeps a
discriminator in each, and ratio readback."""

import math

import numpy as np
import pytest

from ratiogan.losses import (
    CANONICAL_RANGES,
    NONNEGATIVE,
    REALS,
    SYMMETRIC_UNIT,
    UNIT,
    LossPair,
    OmegaTransform,
    RangeInterval,
    RatioNotRecoverableError,
    antiderivative_from,
    concentrated,
    make_loss_pair,
    make_monotone_loss,
    normalize_psi,
    probe_points,
    ratio_from_discriminator,
)
from ratiogan.catalogue import catalogue_lookup, iter_catalogue
from ratiogan.nets import OUTPUT_UNITS, NetSpec, _act_eval

from helpers import old_clamp_interior


def log_omega():
    return OmegaTransform(
        forward=np.log, inverse=np.exp, range=REALS, description="log r"
    )


def identity_omega():
    return OmegaTransform(
        forward=lambda r: np.asarray(r, dtype=float),
        inverse=lambda z: NONNEGATIVE.clamp_interior(z),
        range=NONNEGATIVE,
        description="r",
    )


class TestRangeInterval:
    def test_membership_respects_openness(self):
        assert UNIT.contains(0.0) and UNIT.contains(1.0)
        assert REALS.contains(-1e300)
        assert NONNEGATIVE.contains(0.0)
        assert not NONNEGATIVE.contains(-1e-12)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            RangeInterval(1.0, 1.0, "bad")

    @pytest.mark.parametrize("interval", CANONICAL_RANGES, ids=lambda i: i.label)
    def test_finite_ends_belong_and_infinite_ends_do_not(self, interval):
        """A finite end is in the range and the next float beyond it is not;
        an infinite end and NaN are never in it."""
        lo, hi = interval.lower, interval.upper
        for end, outward in ((lo, -math.inf), (hi, math.inf)):
            if math.isfinite(end):
                assert interval.contains(end)
                assert not interval.contains(np.nextafter(end, outward))
            else:
                assert not interval.contains(end)
                assert interval.contains(np.nextafter(end, -outward))
        assert not interval.contains(math.nan)
        assert not interval.contains(np.array([0.5 * (max(lo, -1.0) + min(hi, 1.0)), math.nan]))

    def test_clamp_interior_is_inside(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-100, 100, size=1000)
        for interval in CANONICAL_RANGES:
            clamped = interval.clamp_interior(z)
            assert interval.contains(clamped)

    @pytest.mark.parametrize("interval", CANONICAL_RANGES, ids=str)
    def test_clamp_interior_is_np_clip_bit_for_bit(self, interval):
        """The ufunc clamp against np.clip (tests/helpers.py): same bits and
        same type, for arrays, 0-d arrays, numpy and Python scalars, and lists."""
        tiny, sub = np.finfo(float).tiny, 5e-324
        special = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, tiny, -tiny, sub, -sub, 0.5, -0.5]
        for end in (interval.lower, interval.upper):
            if math.isfinite(end):
                inner = [end + 1e-6, end - 1e-6]
                special += [end, np.nextafter(end, -math.inf), np.nextafter(end, math.inf)] + inner
                special += [np.nextafter(v, d) for v in inner for d in (-math.inf, math.inf)]
        values = np.array(special + list(np.random.default_rng(1).uniform(-3.0, 3.0, 40)))
        cases = [values, np.stack([values, values[::-1]]), list(values)]
        cases += [np.array(v) for v in values] + [np.float64(v) for v in values] + [float(v) for v in values]
        for z in cases:
            ours, oracle = interval.clamp_interior(z), old_clamp_interior(interval, z)
            assert type(ours) is type(oracle)
            np.testing.assert_array_equal(np.asarray(ours).view(np.int64), np.asarray(oracle).view(np.int64))


def output_unit(interval, z):
    """Value, slope and curvature of the discriminator output unit that
    nets assigns to a range."""
    return _act_eval(OUTPUT_UNITS[interval.label], np.atleast_1d(np.asarray(z, dtype=float)), 0)


class TestOutputSquashing:
    def test_identity_for_reals(self):
        x = np.linspace(-50, 50, 101)
        value, slope, _ = output_unit(REALS, x)
        np.testing.assert_array_equal(value, x)
        np.testing.assert_array_equal(slope, np.ones_like(x))

    def test_logistic_midpoint(self):
        assert output_unit(UNIT, 0.0)[0][0] == pytest.approx(0.5)

    def test_containment_over_preactivation_window(self):
        """Squashed values stay inside the range for pre-activations in [-50, 50]."""
        x = np.linspace(-50.0, 50.0, 2001)
        for interval in CANONICAL_RANGES:
            assert interval.contains(output_unit(interval, x)[0]), interval.label

    def test_softplus_tail_stays_positive(self):
        low, high = output_unit(NONNEGATIVE, [-10.0, 10.0])[0]
        assert 0.0 < low < 1e-4
        assert NONNEGATIVE.contains(low) and NONNEGATIVE.contains(high)

    def test_derivatives_match_finite_differences(self):
        x = np.linspace(-8, 8, 201)
        h = 1e-6
        for interval in CANONICAL_RANGES:
            value_hi, slope_hi, _ = output_unit(interval, x + h)
            value_lo, slope_lo, _ = output_unit(interval, x - h)
            _, slope, curvature = output_unit(interval, x)
            np.testing.assert_allclose(slope, (value_hi - value_lo) / (2 * h), atol=1e-8)
            np.testing.assert_allclose(curvature, (slope_hi - slope_lo) / (2 * h), atol=1e-8)

    def test_non_canonical_range_rejected(self):
        with pytest.raises(ValueError, match="canonical"):
            NetSpec(widths=(1, 2, 1), squash=RangeInterval(0.0, 2.0, "[0,2]").label)


class TestOmegaTransform:
    def test_monotone_probe_accepts_increasing(self):
        log_omega().validate()

    def test_decreasing_rejected(self):
        bad = OmegaTransform(
            forward=lambda r: -np.asarray(r, dtype=float),
            inverse=lambda z: -z,
            range=REALS,
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            bad.validate()

    def test_bad_inverse_rejected(self):
        bad = OmegaTransform(
            forward=np.log, inverse=lambda z: np.exp(z) * 1.001, range=REALS
        )
        with pytest.raises(ValueError, match="round-trip"):
            bad.validate()


class TestMakeLossPair:
    def test_identity_omega_unit_rho(self):
        """omega(r)=r with rho=1 gives phi'(z) = -z, psi'(z) = 1."""
        pair = make_loss_pair(identity_omega(), lambda z: np.ones_like(np.asarray(z, dtype=float)))
        z = np.linspace(0.1, 20.0, 50)
        np.testing.assert_allclose(pair.phi_prime(z), -z, rtol=1e-12)
        np.testing.assert_allclose(pair.psi_prime(z), np.ones_like(z), rtol=1e-12)
        assert pair.phi_prime(0.0) == pytest.approx(0.0, abs=1e-6)

    def test_log_omega_exponential_rho(self):
        """omega(r)=log r with rho=e^-z gives phi' = -1 identically."""
        pair = make_loss_pair(log_omega(), lambda z: np.exp(-np.asarray(z, dtype=float)))
        z = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(pair.phi_prime(z), -np.ones_like(z), rtol=1e-12)
        np.testing.assert_allclose(pair.psi_prime(z), np.exp(-z), rtol=1e-12)

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            make_loss_pair(log_omega(), lambda z: np.asarray(z, dtype=float))

    def test_nonmonotone_omega_rejected(self):
        shaky = OmegaTransform(
            forward=lambda r: np.sin(np.asarray(r, dtype=float)),
            inverse=None,
            range=SYMMETRIC_UNIT,
        )
        with pytest.raises(ValueError):
            make_loss_pair(shaky, lambda z: np.ones_like(np.asarray(z, dtype=float)))

    def test_recipe_identity_on_log_grid(self):
        """phi'(z) + omega_inverse(z) * psi'(z) = 0 at 200 log-spaced points."""
        pairs = [
            make_loss_pair(identity_omega(), lambda z: 1.0 / (1.0 + np.asarray(z, dtype=float))),
            make_loss_pair(log_omega(), lambda z: np.exp(-0.5 * np.asarray(z, dtype=float))),
            make_monotone_loss(3.0, lambda z: np.ones_like(np.asarray(z, dtype=float))),
        ]
        for pair in pairs:
            z = probe_points(pair, 200)
            resid = pair.phi_prime(z) + pair.omega.inverse(z) * pair.psi_prime(z)
            scale = np.maximum(np.abs(pair.phi_prime(z)), 1e-12)
            assert np.max(np.abs(resid) / scale) < 1e-9

    def test_constructor_derives_the_derivatives_from_rho(self):
        """Given rho, psi' = rho and phi' = -omega_inverse * rho on the clamped interior."""
        omega = identity_omega()
        rho = lambda z: 1.0 / (1.0 + np.asarray(z, dtype=float))
        pair = LossPair(name="derived", omega=omega, rho=rho)
        z = np.array([-1.0, 0.0, 1e-9, 0.5, 3.0, 1e6])
        zc = NONNEGATIVE.clamp_interior(z)
        assert np.array_equal(pair.psi_prime(z), rho(zc))
        assert np.array_equal(pair.phi_prime(z), -zc * rho(zc))
        assert pair.range is NONNEGATIVE and pair.ratio_invertible

    def test_constructor_needs_rho_or_derivatives(self):
        with pytest.raises(ValueError, match="rho"):
            LossPair(name="bare", omega=identity_omega())
        with pytest.raises(ValueError, match="inverse"):
            LossPair(
                name="no-inverse",
                omega=OmegaTransform(np.tanh, None, SYMMETRIC_UNIT),
                rho=lambda z: np.ones_like(np.asarray(z, dtype=float)),
            )

    def test_values_fall_back_to_quadrature(self):
        """A derivative-only pair's (phi, psi) are antiderivatives anchored at omega(1)."""
        pair = make_loss_pair(log_omega(), lambda z: np.exp(-np.asarray(z, dtype=float)))
        phi, psi = pair.values()
        assert float(phi(0.0)) == 0.0 and float(psi(0.0)) == 0.0
        z = np.array([-2.0, -0.5, 1.0, 3.0])
        np.testing.assert_allclose(phi(z), -z, rtol=1e-8)  # phi' = -e^z * e^-z = -1
        np.testing.assert_allclose(psi(z), 1.0 - np.exp(-z), rtol=1e-8)


class TestMonotoneLoss:
    def test_omega_at_one_is_zero(self):
        for c in (0.5, 1.0, 7.0):
            pair = make_monotone_loss(c, lambda z: np.ones_like(np.asarray(z, dtype=float)))
            assert pair.omega.forward(1.0) == pytest.approx(0.0)

    def test_known_values(self):
        pair = make_monotone_loss(1.0, lambda z: np.ones_like(np.asarray(z, dtype=float)))
        assert float(pair.phi_prime(0.5)) == pytest.approx(-3.0)
        pair2 = make_monotone_loss(2.0, lambda z: np.ones_like(np.asarray(z, dtype=float)))
        assert float(pair2.omega.forward(3.0)) == pytest.approx(0.8)

    def test_sharpens_toward_sign_of_log(self):
        """omega(r) approaches sign(log r) monotonically in magnitude as c grows."""
        rho = lambda z: np.ones_like(np.asarray(z, dtype=float))
        for r in (0.1, 0.5, 2.0, 10.0):
            target = math.copysign(1.0, math.log(r))
            prev = 0.0
            for c in (1.0, 10.0, 100.0):
                val = float(make_monotone_loss(c, rho).omega.forward(r))
                assert math.copysign(1.0, val) == target
                assert abs(val) > prev
                prev = abs(val)
            assert abs(prev - 1.0) < 1e-6

    def test_invalid_c_rejected(self):
        rho = lambda z: np.ones_like(np.asarray(z, dtype=float))
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                make_monotone_loss(bad, rho)


class TestNormalizePsi:
    def test_mse_shift(self):
        loss = normalize_psi(catalogue_lookup("MSE").loss)
        assert float(loss.psi(1.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(loss.psi(3.0)) == pytest.approx(2.0)

    def test_wasserstein_already_normalized(self):
        raw = catalogue_lookup("Wasserstein").loss
        loss = normalize_psi(raw)
        assert float(loss.psi(0.0)) == 0.0
        assert loss.psi is raw.psi  # no shift needed

    def test_cross_entropy_reference_point(self):
        loss = normalize_psi(catalogue_lookup("CrossEntropy").loss)
        assert float(loss.psi(0.5)) == pytest.approx(0.0, abs=1e-12)
        assert float(loss.psi(np.exp(-1) / (1 + np.exp(-1)))) == pytest.approx(
            math.log(np.exp(-1) / (1 + np.exp(-1))) - math.log(0.5)
        )

    def test_derivative_only_pair_gets_quadrature_surrogate(self):
        pair = make_loss_pair(log_omega(), lambda z: np.exp(-np.asarray(z, dtype=float)))
        norm = normalize_psi(pair)
        assert float(norm.psi(0.0)) == pytest.approx(0.0, abs=1e-10)
        # integral of e^-t from 0 to 1 is 1 - e^-1
        assert float(norm.psi(1.0)) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)
        # derivatives untouched
        np.testing.assert_allclose(norm.psi_prime(0.7), pair.psi_prime(0.7))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestConcentrated:
    @pytest.mark.parametrize(
        "loss", [e.loss for e in iter_catalogue() if e.loss.ratio_invertible], ids=lambda loss: loss.name
    )
    def test_cost_and_slope_by_hand(self, loss):
        """At the ratios whose images are the probe points, the cost is
        phi(z) + r*psi_tilde(z) and the slope psi_tilde(z), z = clamp(omega(r)),
        bit for bit."""
        normalized = normalize_psi(loss)
        r = loss.omega.inverse(probe_points(loss))
        z = loss.range.clamp_interior(loss.omega.forward(r))
        psi_tilde = np.asarray(normalized.psi(z), dtype=float)
        cost, slope = concentrated(normalized, r)
        np.testing.assert_array_equal(_bits(slope), _bits(psi_tilde))
        np.testing.assert_array_equal(_bits(cost), _bits(loss.phi(z) + r * psi_tilde))

    def test_raw_psi_gives_the_saddle_value_at_one(self):
        for name in ("MSE", "B2", "CrossEntropy"):
            loss = catalogue_lookup(name).loss
            z1 = loss.omega_at_one
            cost, slope = concentrated(loss, np.ones(3))
            np.testing.assert_array_equal(cost, np.full(3, loss.phi(z1) + loss.psi(z1)))
            np.testing.assert_array_equal(slope, np.full(3, loss.psi(z1)))


class TestAntiderivative:
    def test_matches_closed_form(self):
        F = antiderivative_from(lambda t: 3.0 * t**2, 1.0)
        for z in (-2.0, 0.0, 0.5, 4.0):
            assert float(F(z)) == pytest.approx(z**3 - 1.0, abs=1e-8)

    def test_vectorized(self):
        F = antiderivative_from(lambda t: np.cos(t), 0.0)
        z = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(F(z), np.sin(z), atol=1e-8)

    def test_scalar_in_float_out_and_zero_at_the_anchor(self):
        F = antiderivative_from(lambda t: np.exp(-t), 0.5)
        assert type(F(2.0)) is float and F(0.5) == 0.0
        assert F(np.array([[0.5, 2.0]])).shape == (1, 2)

    def test_non_finite_points_give_nan_without_evaluating_them(self):
        """NaN and +-inf map to NaN with no numpy warning (warnings are errors
        here), and the derivative never sees a non-finite node."""
        seen = []

        def deriv(t):
            seen.append(np.isfinite(t).all())
            return 1.0 / (t * t)

        F = antiderivative_from(deriv, 1.0)
        out = F(np.array([np.nan, 2.0, np.inf, -np.inf, 0.5]))
        assert np.isnan(out[[0, 2, 3]]).all()
        np.testing.assert_allclose(out[[1, 4]], [0.5, -1.0], rtol=1e-12)
        assert math.isnan(F(np.nan)) and math.isnan(F(-np.inf))
        assert all(seen)

    def test_many_points_match_one_at_a_time(self):
        """Points are integrated in blocks; a point's value does not depend
        on the block it falls in."""
        F = antiderivative_from(lambda t: np.exp(-t), 0.0)
        z = np.linspace(-3.0, 6.0, 1100)
        many = F(z)
        np.testing.assert_array_equal(many[[0, 511, 512, 1099]], [F(z[0]), F(z[511]), F(z[512]), F(z[1099])])
        np.testing.assert_allclose(many, 1.0 - np.exp(-z), rtol=1e-13, atol=1e-15)


INVERTIBLE_ROWS = [e.loss for e in iter_catalogue() if e.loss.ratio_invertible]


class TestCatalogueRebuiltFromOmegaRho:
    @pytest.mark.parametrize("row", INVERTIBLE_ROWS, ids=lambda loss: loss.name)
    def test_quadrature_values_match_the_closed_forms(self, row):
        """make_loss_pair(omega, rho) of each invertible row gives phi and psi
        equal to the row's closed forms less their value at omega(1), on the
        probe grid and at the clamped interior of each finite range end, where
        rho may spike (z^-2, 1/(1-z))."""
        assert len(INVERTIBLE_ROWS) == 11
        rebuilt = make_loss_pair(row.omega, row.rho)
        ends = [end + step for end, step in ((row.range.lower, 1e-6), (row.range.upper, -1e-6)) if math.isfinite(end)]
        z = np.concatenate([probe_points(row, 200), ends])
        z1 = row.omega_at_one
        for got, closed in zip(rebuilt.values(), (row.phi, row.psi)):
            ref = closed(z) - closed(z1)
            assert np.max(np.abs(got(z) - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-10


class TestRatioFromDiscriminator:
    def test_posterior_readback(self):
        ce = catalogue_lookup("CrossEntropy").loss
        assert ratio_from_discriminator(ce, 0.5) == pytest.approx(1.0)
        assert ratio_from_discriminator(ce, 0.8) == pytest.approx(4.0)

    def test_log_readback(self):
        expo = catalogue_lookup("Exponential").loss
        assert ratio_from_discriminator(expo, 0.0) == pytest.approx(1.0)

    def test_square_readback(self):
        a2 = catalogue_lookup("A2").loss
        assert ratio_from_discriminator(a2, 3.0) == pytest.approx(9.0)

    def test_limit_losses_raise(self):
        for name in ("Hinge", "Wasserstein"):
            loss = catalogue_lookup(name).loss
            with pytest.raises(RatioNotRecoverableError, match="ratio not recoverable"):
                ratio_from_discriminator(loss, 0.3)

    def test_round_trip_over_six_decades(self):
        """ratio -> omega -> readback is the identity within 1e-8 relative."""
        r = np.logspace(-3, 3, 25)
        for name in ("A1a", "A1b", "A2", "A3", "MSE", "B1a", "B1b", "Exponential", "B2", "CrossEntropy", "C2"):
            loss = catalogue_lookup(name).loss
            d = loss.omega.forward(r)
            back = ratio_from_discriminator(loss, d)
            np.testing.assert_allclose(back, r, rtol=1e-8, err_msg=name)

    def test_boundary_output_is_clamped(self):
        ce = catalogue_lookup("CrossEntropy").loss
        assert np.isfinite(ratio_from_discriminator(ce, 1.0))

    def test_output_outside_range_is_rejected_before_clamping(self):
        ce = catalogue_lookup("CrossEntropy").loss
        with pytest.raises(ValueError, match=r"outside \[0,1\]"):
            ratio_from_discriminator(ce, 7.0)
        with pytest.raises(ValueError, match=r"outside \[0,inf\)"):
            ratio_from_discriminator(catalogue_lookup("A1a").loss, np.array([1.0, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_is_named(self, bad):
        for name in ("CrossEntropy", "Exponential"):
            with pytest.raises(ValueError, match="non-finite discriminator output"):
                ratio_from_discriminator(catalogue_lookup(name).loss, np.array([0.5, bad]))
