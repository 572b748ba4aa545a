"""Synthetic densities: samplers, pdfs, the ratio oracle, file ingestion."""

import math

import numpy as np
import pytest

from ratiogan.densities import (
    gaussian,
    load_samples,
    mixture,
    pdf,
    ring,
    ring_centers,
    sample,
    sample_file,
    true_log_ratio,
    uniform,
)


class TestSpecValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            mixture([(0.5, gaussian([0.0], [[1.0]])), (0.4, gaussian([1.0], [[1.0]]))])

    def test_covariance_must_be_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_covariance_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            gaussian([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            ring(8, 2.0, 0.0)

    def test_box_volume(self):
        with pytest.raises(ValueError, match="volume"):
            uniform([0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda bad: gaussian([bad], [[1.0]]), "gaussian mean and covariance must be finite"),
            (lambda bad: gaussian([0.0, bad], np.eye(2)), "gaussian mean and covariance must be finite"),
            (lambda bad: gaussian([0.0], [[bad]]), "gaussian mean and covariance must be finite"),
            (lambda bad: gaussian([0.0, 0.0], [[1.0, bad], [bad, 1.0]]), "gaussian mean and covariance must be finite"),
            (lambda bad: ring(8, bad, 0.1), "radius must be finite"),
            (lambda bad: ring(8, 2.0, bad), "sigma must be positive and finite"),
            (lambda bad: uniform([bad], [1.0]), "box corners must be finite"),
            (lambda bad: uniform([0.0, 0.0], [1.0, bad]), "box corners must be finite"),
            (lambda bad: mixture([(bad, gaussian([0.0], [[1.0]])), (0.5, gaussian([1.0], [[1.0]]))]),
             "mixture weights must"),
        ],
        ids=["gaussian-mean", "gaussian-mean-2d", "gaussian-cov", "gaussian-cov-offdiag", "ring-radius",
             "ring-sigma", "uniform-low", "uniform-high", "mixture-weight"],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, make, message, bad):
        with pytest.raises(ValueError, match=message):
            make(bad)

    def test_dimension_limit(self):
        with pytest.raises(ValueError, match="1D and 2D"):
            gaussian([0.0, 0.0, 0.0], np.eye(3))


class TestSampler:
    def test_deterministic_per_seed(self):
        spec = gaussian([0.0, 0.0], np.eye(2))
        np.testing.assert_array_equal(sample(spec, 100, 7), sample(spec, 100, 7))
        assert not np.array_equal(sample(spec, 100, 7), sample(spec, 100, 8))

    def test_standard_2d_moments(self):
        """Sample mean within 0.02 and covariance within 0.05 at n = 1e5."""
        x = sample(gaussian([0.0, 0.0], np.eye(2)), 100_000, 12345)
        assert np.abs(x.mean(axis=0)).max() < 0.02
        cov = np.cov(x.T)
        assert np.abs(cov - np.eye(2)).max() < 0.05

    def test_shifted_gaussian_with_covariance(self):
        cov = [[2.0, 0.6], [0.6, 1.0]]
        x = sample(gaussian([3.0, -1.0], cov), 200_000, 5)
        np.testing.assert_allclose(x.mean(axis=0), [3.0, -1.0], atol=0.02)
        np.testing.assert_allclose(np.cov(x.T), cov, atol=0.05)

    def test_uniform_box_containment(self):
        x = sample(uniform([0.0, 0.0], [1.0, 1.0]), 10_000, 3)
        assert np.all((x >= 0.0) & (x <= 1.0))

    def test_ring_mode_balance(self):
        """Nearest-mode assignment splits 8000 draws between 8% and 17% per mode."""
        spec = ring(8, 2.0, 0.02)
        x = sample(spec, 8000, 77)
        centers = ring_centers(spec)
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        counts = np.bincount(d2.argmin(axis=1), minlength=8) / len(x)
        assert counts.min() >= 0.08 and counts.max() <= 0.17

    def test_mixture_component_split(self):
        spec = mixture([(0.25, gaussian([-5.0], [[0.1]])), (0.75, gaussian([5.0], [[0.1]]))])
        x = sample(spec, 40_000, 21)
        right = float((x[:, 0] > 0).mean())
        assert right == pytest.approx(0.75, abs=0.01)

    def test_1d_output_shape(self):
        x = sample(gaussian([0.0], [[1.0]]), 50, 0)
        assert x.shape == (50, 1)


class TestPdf:
    def test_standard_normal_at_zero(self):
        assert pdf(gaussian([0.0], [[1.0]]), 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_uniform_inside_and_outside(self):
        spec = uniform([0.0], [1.0])
        assert pdf(spec, 0.5) == pytest.approx(1.0)
        assert pdf(spec, 1.5) == 0.0

    def test_mixture_at_origin(self):
        spec = mixture([(0.5, gaussian([-2.0], [[1.0]])), (0.5, gaussian([2.0], [[1.0]]))])
        expected = math.exp(-2.0) / math.sqrt(2 * math.pi)
        assert pdf(spec, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_integrates_to_one_1d(self):
        """Trapezoid quadrature over +-8 sigma within 1e-3."""
        specs = [
            gaussian([1.0], [[2.0]]),
            mixture([(0.3, gaussian([-2.0], [[1.0]])), (0.7, gaussian([2.0], [[0.5]]))]),
            uniform([-1.0], [3.0]),
        ]
        for spec in specs:
            grid = np.linspace(-20.0, 20.0, 40001)
            vals = pdf(spec, grid.reshape(-1, 1))
            total = np.trapezoid(vals, grid)
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_integrates_to_one_2d_ring(self):
        spec = ring(8, 2.0, 0.1)
        g = np.linspace(-3.5, 3.5, 301)
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        vals = pdf(spec, pts).reshape(xx.shape)
        cell = (g[1] - g[0]) ** 2
        assert vals.sum() * cell == pytest.approx(1.0, abs=1e-3)

    def test_sampler_agrees_with_cdf(self):
        """KS statistic of 1e4 draws stays under the 1% critical value."""
        from scipy.stats import kstest, norm

        x = sample(gaussian([1.0], [[4.0]]), 10_000, 2026)[:, 0]
        stat, _ = kstest(x, norm(loc=1.0, scale=2.0).cdf)
        assert stat < 1.628 / math.sqrt(len(x))

    def test_ring_radial_concentration(self):
        spec = ring(8, 2.0, 0.02)
        x = sample(spec, 5000, 4)
        radius = np.linalg.norm(x, axis=1)
        assert np.abs(radius - 2.0).mean() < 0.05


class TestTrueLogRatio:
    def test_identical_densities_give_zero(self):
        spec = gaussian([0.3], [[1.5]])
        for x in (-2.0, 0.0, 3.3):
            assert true_log_ratio(spec, spec, x) == 0.0

    def test_gaussian_shift_formula(self):
        """log N(x; mu, 1) - log N(x; 0, 1) = mu x - mu^2 / 2."""
        f = gaussian([0.0], [[1.0]])
        mu = 1.7
        g = gaussian([mu], [[1.0]])
        for x in (-1.0, 0.0, 0.5, 2.0):
            assert true_log_ratio(f, g, x) == pytest.approx(mu * x - mu**2 / 2, rel=1e-12)

    def test_variance_ratio_at_origin(self):
        sigma = 2.5
        f = gaussian([0.0], [[1.0]])
        g = gaussian([0.0], [[sigma**2]])
        assert true_log_ratio(f, g, 0.0) == pytest.approx(-math.log(sigma), rel=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        f = gaussian([0.0], [[1.0]])
        g = mixture([(0.5, gaussian([-2.0], [[1.0]])), (0.5, gaussian([2.0], [[1.0]]))])
        for x in rng.uniform(-3, 3, size=20):
            assert true_log_ratio(f, g, x) == pytest.approx(-true_log_ratio(g, f, x), rel=1e-12)

    def test_vanishing_target_density_is_an_error(self):
        f = uniform([0.0], [1.0])
        g = gaussian([0.0], [[1.0]])
        with pytest.raises(ValueError, match="vanishes"):
            true_log_ratio(f, g, 2.0)

    def test_vanishing_generator_density_gives_neg_inf(self):
        f = gaussian([0.0], [[1.0]])
        g = uniform([0.0], [1.0])
        assert true_log_ratio(f, g, 2.0) == -math.inf

    def test_mean_ratio_under_target_is_one(self):
        """E_f[g/f] = 1: the defining property of a likelihood-ratio field."""
        f = gaussian([0.0], [[1.0]])
        gs = [
            gaussian([1.0], [[1.0]]),
            gaussian([0.0], [[0.25]]),
            mixture([(0.5, gaussian([-1.0], [[1.0]])), (0.5, gaussian([1.0], [[1.0]]))]),
        ]
        x = sample(f, 100_000, 314)
        for g in gs:
            ratios = pdf(g, x) / pdf(f, x)
            assert ratios.mean() == pytest.approx(1.0, abs=0.02)


class TestLoadSamples:
    def test_basic_matrix(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(load_samples(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty dataset"):
            load_samples(p)

    def test_ragged_rows_name_the_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_samples(p)

    def test_non_numeric_field(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,x\n")
        with pytest.raises(ValueError, match="non-numeric.*line 2"):
            load_samples(p)


class TestSampleFile:
    def test_rows_read_once_and_read_only(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2\n3,4\n5,6\n")
        spec = sample_file(p)
        p.unlink()
        assert (spec.kind, spec.dim, spec.path) == ("file", 2, str(p))
        np.testing.assert_array_equal(spec.rows, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert not spec.rows.flags.writeable
        assert sample(spec, 4, 0).shape == (4, 2)

    def test_draw_is_one_integers_call(self, tmp_path):
        """Each sample is the row at one rng.integers index, in stream order."""
        p = tmp_path / "data.csv"
        p.write_text("".join(f"{float(v)!r}\n" for v in np.linspace(-1.0, 1.0, 37)))
        spec = sample_file(p)
        rng, plain = np.random.default_rng(5), np.random.default_rng(5)
        for n in (8, 1, 64):
            np.testing.assert_array_equal(sample(spec, n, rng), spec.rows[plain.integers(0, 37, size=n)])
        assert rng.bit_generator.state == plain.bit_generator.state

    def test_equality_ignores_rows(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1\n2\n")
        first = sample_file(p)
        p.write_text("7\n")
        second = sample_file(p)
        assert first == second and hash(first) == hash(second)
        assert "rows=" not in repr(first)
