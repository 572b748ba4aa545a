"""Two-sample distances: unbiased MMD and sliced Wasserstein."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from helpers import pooled_mmd_rbf
from ratiogan.densities import gaussian, ring, sample
from ratiogan.metrics import _BAND, kernel_gamma, median_pair_distance, mmd_rbf, sliced_wasserstein

# |mmd_rbf - pooled_mmd_rbf| on every float case: kernel values are at
# most 1, and the measured differences are below 1e-15
ORACLE_TOL = 1e-14


def kernel_width(bandwidth, target):
    """A test's bandwidth: the number given, or for "median" the median
    pair distance of the target sample, as a training run fixes its own."""
    return median_pair_distance(target) if bandwidth == "median" else bandwidth


class TestMmd:
    def test_identical_sample_sets(self):
        """The unbiased estimator on X = Y is nonpositive up to roundoff."""
        x = sample(gaussian([0.0, 0.0], np.eye(2)), 500, 1)
        assert mmd_rbf(x, x, 1.0) <= 1e-12

    def test_null_scale_at_one_thousand(self):
        f = gaussian([0.0], [[1.0]])
        x = sample(f, 1000, 10)
        y = sample(f, 1000, 11)
        assert abs(mmd_rbf(x, y, 1.0)) <= 0.01

    def test_separated_gaussians(self):
        x = sample(gaussian([0.0], [[1.0]]), 1000, 20)
        y = sample(gaussian([5.0], [[1.0]]), 1000, 21)
        assert mmd_rbf(x, y, 1.0) >= 0.5

    def test_median_heuristic_runs(self):
        x = sample(gaussian([0.0], [[1.0]]), 200, 1)
        y = sample(gaussian([2.0], [[1.0]]), 200, 2)
        val = mmd_rbf(x, y, median_pair_distance(y))
        assert 0.0 < val < 2.0

    def test_degenerate_bandwidth_rejected(self):
        """1/(2 bandwidth^2) must be finite and > 0: 1e-200 once raised
        ZeroDivisionError, and inf gave 0.0 for any samples."""
        x = np.zeros((10, 1))
        with pytest.raises(ValueError, match="bandwidth"):
            mmd_rbf(x, x, 0.0)
        with pytest.raises(ValueError, match="bandwidth"):
            mmd_rbf(x, x, median_pair_distance(x))  # all-equal points give median distance 0
        for bandwidth in (1e-160, 1e-200, np.float64(1e-200), math.inf, 1e200, math.nan):
            with pytest.raises(ValueError, match="degenerate bandwidth"):
                mmd_rbf(x, x + 1.0, bandwidth)
            with pytest.raises(ValueError, match="degenerate bandwidth"):
                kernel_gamma(bandwidth)
        assert kernel_gamma(np.float64(1e-150)) == 0.5 / 1e-150 / 1e-150  # near the top of the range

    def test_string_bandwidth_rejected(self):
        """The bandwidth is a number: there is no per-call heuristic."""
        x = np.arange(10.0).reshape(5, 2)
        with pytest.raises(TypeError):
            mmd_rbf(x, x + 1.0, "median")

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            mmd_rbf(np.ones((1, 1)), np.ones((5, 1)), 1.0)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            mmd_rbf(np.ones((5, 1)), np.ones((5, 2)), 1.0)


class TestMedianPairDistance:
    def test_pairs_rows_across_halves(self):
        """Rows i and h + i are paired; an odd last row is left out."""
        sample_ = np.array([[0.0], [0.0], [1.0], [3.0], [4.0], [100.0]])
        assert median_pair_distance(sample_) == 4.0  # distances 3, 4 and 99
        assert median_pair_distance(sample_[:5]) == 2.0  # distances 1 and 3; row 4 unpaired

    def test_euclidean_distance(self):
        sample_ = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert median_pair_distance(sample_) == 5.0


class TestMmdMatchesPooledOracle:
    """The banded sums agree with the pooled-matrix numbers to ORACLE_TOL."""

    @pytest.mark.parametrize("bandwidth", ["median", 0.7])
    @pytest.mark.parametrize(
        "m,n,dim",
        [
            (2, 2, 1),
            (2, 3, 2),
            (3, 4, 1),
            (300, 451, 1),
            (300, 452, 2),
            (517, 80, 2),
            (_BAND - 1, 130, 2),  # one short band on the x side
            (_BAND, 130, 2),  # the band boundary hit exactly
            (_BAND + 1, 130, 2),  # one row past it
            (130, _BAND + 1, 1),  # ... and on the y side
            (2048, 2048, 1),  # the shift1d eval shape
            (2048, 2048, 2),
            (2047, 2049, 1),
            (1000, 3000, 1),
            (2049, 2047, 2),
            (1000, 129, 2),  # m > n: the buffer is as wide as xx
            (129, 1000, 2),  # m < n: as wide as yy and xy
            (301, 257, 3),
        ],
    )
    def test_equal_to_oracle(self, m, n, dim, bandwidth):
        rng = np.random.default_rng(m * 7 + n * 3 + dim)
        x = rng.standard_normal((m, dim)) * 1.5
        y = rng.standard_normal((n, dim)) + 0.4
        bandwidth = kernel_width(bandwidth, y)
        assert abs(mmd_rbf(x, y, bandwidth) - pooled_mmd_rbf(x, y, bandwidth)) <= ORACLE_TOL

    def test_ring_eval_shape(self):
        """The ring2d eval call: 2048 generated vs 2048 target points, at
        the target's median pair distance."""
        x = sample(ring(8, 2.0, 0.02), 2048, 5)
        y = sample(gaussian([0.0, 0.0], np.eye(2)), 2048, 6)
        bandwidth = median_pair_distance(x)
        assert abs(mmd_rbf(y, x, bandwidth) - pooled_mmd_rbf(y, x, bandwidth)) <= ORACLE_TOL

    def test_ring_eval_peak_memory(self):
        """The ring2d eval call holds less than 4 MiB at once: one buffer of
        _BAND rows of 2048 (1 MiB), which every band of every sum reuses."""
        x = sample(ring(8, 2.0, 0.02), 2048, 5)
        y = sample(gaussian([0.0, 0.0], np.eye(2)), 2048, 6)
        bandwidth = median_pair_distance(x)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            mmd_rbf(y, x, bandwidth)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("bandwidth", ["median", 0.7])
    def test_blocks_freed_without_cycle_collector(self, bandwidth):
        """The call's buffer goes when it returns, not at the next gc run."""
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((1000, 2)), rng.standard_normal((1000, 2))
        bandwidth = kernel_width(bandwidth, y)
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mmd_rbf(x, y, bandwidth)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < 2**20

    @pytest.mark.parametrize("bandwidth", ["median", 0.0, -1.0])
    def test_degenerate_bandwidth_like_oracle(self, bandwidth):
        x = np.zeros((6, 2))
        bandwidth = kernel_width(bandwidth, x)  # all-equal points give median distance 0
        for fn in (mmd_rbf, pooled_mmd_rbf):
            with pytest.raises(ValueError, match="degenerate bandwidth"):
                fn(x, x, bandwidth)

    @pytest.mark.parametrize("bandwidth", ["median", 1.0])
    def test_nan_input_like_oracle(self, bandwidth):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal((30, 2))
        x[7, 1] = np.nan
        bandwidth = kernel_width(bandwidth, y)
        assert math.isnan(pooled_mmd_rbf(x, y, bandwidth))
        assert math.isnan(mmd_rbf(x, y, bandwidth))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("side", ["x", "y"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_non_finite_input_gives_nan(self, dim, side, value):
        """NaN, without a warning, for any non-finite coordinate: for one
        column the differences x - y would give a finite value beside an
        infinity, where the pooled formula's inf - inf gives NaN."""
        rng = np.random.default_rng(dim)
        x, y = rng.standard_normal((90, dim)), rng.standard_normal((70, dim))
        (x if side == "x" else y)[_BAND + 3, dim - 1] = value
        with np.errstate(all="ignore"):
            assert math.isnan(pooled_mmd_rbf(x, y, 1.0))
        assert math.isnan(mmd_rbf(x, y, 1.0))  # a RuntimeWarning would fail here

    def test_seeded_fuzz(self):
        """Random shapes (m != n), dimensions, kinds of input and
        bandwidths: a float within ORACLE_TOL of the oracle's, or the same
        NaN or error."""
        rng = np.random.default_rng(20)

        def outcome(fn, x, y, bandwidth):
            try:
                return fn(x, y, bandwidth)
            except ValueError as err:
                return str(err)

        for case in range(40):
            dim, kind = 1 + case % 3, case % 5
            m, n = rng.choice(np.arange(2, 600), size=2, replace=False)
            x = rng.standard_normal((m, dim)) * rng.uniform(0.2, 4.0)
            y = rng.standard_normal((n, dim)) + rng.uniform(-1.0, 1.0)
            if kind == 1:  # integers: many tied distances
                x, y = np.round(x), np.round(y)
            elif kind == 2:
                x[rng.integers(0, m, 3)], y[rng.integers(0, n, 3)] = 0.0, -0.0
            elif kind == 3:
                x[rng.integers(0, m), rng.integers(0, dim)] = np.nan
            elif kind == 4:
                y[rng.integers(0, n), rng.integers(0, dim)] = rng.choice([np.inf, -np.inf])
            bandwidth = median_pair_distance(y) if case % 2 else float(rng.uniform(0.3, 3.0))
            with np.errstate(all="ignore"):  # the oracle's inf - inf
                want = outcome(pooled_mmd_rbf, x, y, bandwidth)
            got = outcome(mmd_rbf, x, y, bandwidth)
            if isinstance(want, float) and not math.isnan(want):
                assert abs(got - want) <= ORACLE_TOL, (case, m, n, dim, kind, bandwidth)
            else:
                assert repr(got) == repr(want), (case, m, n, dim, kind, bandwidth)


class TestSlicedWasserstein:
    def test_identical_sets_give_zero(self):
        x = sample(gaussian([0.0, 0.0], np.eye(2)), 400, 3)
        assert sliced_wasserstein(x, x, 32, seed=0) == 0.0

    def test_translation_in_1d_is_exact(self):
        x = sample(gaussian([0.0], [[1.0]]), 500, 5)
        for c in (-2.0, 0.5, 3.0):
            assert sliced_wasserstein(x, x + c, 16, seed=1) == pytest.approx(abs(c), rel=1e-12)

    def test_2d_gaussians_match_quadrature_oracle(self):
        """Monte Carlo projections agree with averaging the analytic 1D distance.

        Equal isotropic Gaussians at separation d project to unit-variance
        Gaussians whose means differ by d cos(angle), so the analytic 1D
        2-Wasserstein distance is |d cos(angle)|, averaged over the circle
        by quadrature.
        """
        d = 3.0
        x = sample(gaussian([0.0, 0.0], np.eye(2)), 10_000, 8)
        y = sample(gaussian([d, 0.0], np.eye(2)), 10_000, 9)
        estimate = sliced_wasserstein(x, y, 64, seed=4)
        angles = np.linspace(0.0, 2.0 * math.pi, 20001)
        oracle = np.trapezoid(np.abs(d * np.cos(angles)), angles) / (2.0 * math.pi)
        assert abs(estimate - oracle) / oracle < 0.15

    def test_seeded_directions_reproducible(self):
        x = sample(gaussian([0.0, 0.0], np.eye(2)), 300, 1)
        y = sample(gaussian([1.0, 0.0], np.eye(2)), 300, 2)
        assert sliced_wasserstein(x, y, 16, seed=7) == sliced_wasserstein(x, y, 16, seed=7)
        assert sliced_wasserstein(x, y, 16, seed=7) != sliced_wasserstein(x, y, 16, seed=8)

    def test_unequal_sample_counts_raise(self):
        x = sample(gaussian([0.0], [[1.0]]), 400, 1)
        y = sample(gaussian([2.0], [[1.0]]), 700, 2)
        with pytest.raises(ValueError, match="equal size, not 400 and 700"):
            sliced_wasserstein(x, y, 8, seed=0)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            sliced_wasserstein(np.ones((5, 1)), np.ones((5, 2)))

    def test_needs_a_projection(self):
        with pytest.raises(ValueError, match="projection"):
            sliced_wasserstein(np.ones((5, 2)), np.ones((5, 2)), 0)
