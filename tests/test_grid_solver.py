"""Ideal min-max solve on discrete supports."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ratiogan import grid_solver
from ratiogan.catalogue import catalogue_lookup, iter_catalogue
from ratiogan.densities import gaussian, mixture, pdf, ring
from ratiogan.grid_solver import (
    FULL_COVERAGE,
    DiscreteDensity,
    RatioField,
    SolveTrace,
    SolverDiverged,
    discretize,
    feasible_from,
    field_to_text,
    minmax_value,
    project_feasible,
    solve_minmax_grid,
    write_trace,
)
from ratiogan.losses import RangeInterval

from helpers import (
    old_clamp_interior,
    old_project_feasible,
    old_solve_minmax_grid,
    old_trace_to_text,
)

INVERTIBLE = [e.loss for e in iter_catalogue() if e.loss.ratio_invertible]


def uniform_density(n=64):
    return DiscreteDensity(support=np.linspace(0.0, 1.0, n), mass=np.full(n, 1.0 / n))


class TestDiscreteDensity:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError, match="not 1"):
            DiscreteDensity(support=np.arange(3.0), mass=np.array([0.5, 0.4, 0.2]))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteDensity(support=np.arange(3.0), mass=np.array([0.5, 0.6, -0.1]))

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            DiscreteDensity(support=np.array([0.0, 1.0, 1.0]), mass=np.full(3, 1 / 3))

    @pytest.mark.parametrize(
        "rows, distinct",
        [
            ([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], False),  # duplicates not next to each other
            ([[0.0, 1.0], [-0.0, 1.0]], False),  # ±0 compare equal
            ([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], True),  # rows share coordinates, not all of them
            ([[np.nan, 1.0], [np.nan, 1.0]], True),  # a NaN row equals no row, as with np.unique
        ],
    )
    def test_duplicate_rows_rejected_in_2d(self, rows, distinct):
        support = np.array(rows)
        mass = np.full(len(rows), 1 / len(rows))
        if distinct:
            assert len(DiscreteDensity(support=support, mass=mass)) == len(rows)
        else:
            with pytest.raises(ValueError, match="distinct"):
                DiscreteDensity(support=support, mass=mass)


class TestRatioField:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            RatioField(np.array([1.0, -0.1]))

    def test_non_finite_values_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                RatioField(np.array([1.0, bad]))
        # an array changed in place is caught on validation
        field = RatioField(np.ones(4))
        field.values[:] = np.nan
        with pytest.raises(ValueError, match="finite"):
            field.validate_against(uniform_density(4))

    def test_constraint_validation(self):
        f = uniform_density(4)
        RatioField(np.array([1.0, 1.0, 1.0, 1.0])).validate_against(f)
        with pytest.raises(ValueError, match="mean-one"):
            RatioField(np.array([2.0, 2.0, 2.0, 2.0])).validate_against(f)


class TestDiscretize:
    def test_gaussian_symmetric(self):
        d = discretize(gaussian([0.0], [[1.0]]), 64, -5.0, 5.0)
        assert d.mass.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(d.mass, d.mass[::-1], atol=1e-12)

    def test_uniform_equal_masses(self):
        from ratiogan.densities import uniform

        d = discretize(uniform([0.0], [1.0]), 10, 0.0, 1.0)
        np.testing.assert_allclose(d.mass, 0.1, rtol=1e-12)

    def test_mixture_mass_split(self):
        spec = mixture([(0.5, gaussian([-2.0], [[1.0]])), (0.5, gaussian([2.0], [[1.0]]))])
        d = discretize(spec, 128, -8.0, 8.0)
        left = d.mass[d.support < 0.0].sum()
        assert left == pytest.approx(0.5, abs=1e-6)

    def test_low_coverage_is_recorded(self):
        d = discretize(gaussian([0.0], [[1.0]]), 64, -1.0, 1.0)
        assert d.coverage == pytest.approx(0.69, abs=0.01)  # below FULL_COVERAGE: solve-grid reports it
        assert d.coverage < FULL_COVERAGE

    def test_very_low_coverage_errors(self):
        with pytest.raises(ValueError, match="captures"):
            discretize(gaussian([0.0], [[1.0]]), 64, 4.0, 5.0)

    @pytest.mark.parametrize(
        "spec,window",
        [
            (gaussian([0.5], [[2.0]]), (-6.0, 7.0)),
            (gaussian([0.0, 1.0], [[1.0, 0.3], [0.3, 2.0]]), (-6.0, 7.0)),
            (ring(8, 2.0, 0.2), (-4.0, 4.0)),
            (mixture([(0.3, gaussian([-1.0], [[0.5]])), (0.7, gaussian([2.0], [[1.5]]))]), (-6.0, 8.0)),
        ],
        ids=["gaussian", "gaussian2d", "ring", "mixture"],
    )
    def test_batched_masses_equal_per_point_loop(self, spec, window):
        """The one pdf call on the grid gives each node its one-point value."""
        support = discretize(spec, 64, *window).support
        assert np.array_equal(pdf(spec, support), [pdf(spec, p) for p in support])

    def test_grid_is_1d_or_2d(self):
        with pytest.raises(ValueError, match="grids are 1-D or 2-D only, not 3-D"):
            discretize(gaussian(np.zeros(3), np.eye(3)), 8, -1.0, 1.0)

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (1.0, -1.0), (math.nan, 1.0)], ids=["empty", "reversed", "nan"])
    def test_window_needs_lo_below_hi(self, lo, hi):
        with pytest.raises(ValueError, match="must have lo < hi"):
            discretize(gaussian([0.0], [[1.0]]), 8, lo, hi)

    def test_2d_grid(self):
        """The one interval is laid on both axes; a cell is 0.5 x 0.5."""
        spec = gaussian([0.0, 0.0], np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = discretize(spec, 21, -5.0, 5.0)
        axis = np.linspace(-5.0, 5.0, 21)
        assert np.array_equal(d.support, [[x, y] for x in axis for y in axis])
        assert d.coverage == float(pdf(spec, d.support).sum() * 0.25)
        assert d.mass.sum() == pytest.approx(1.0, abs=1e-12)


class TestProjection:
    def test_feasible_after_projection(self):
        """Projection lands in {r >= 0, <mass, r> = 1} within the residual cap."""
        rng = np.random.default_rng(3)
        f = uniform_density(32)
        for _ in range(50):
            raw = rng.standard_normal(32) * 5.0
            proj = project_feasible(raw, f.mass)
            assert np.all(proj >= 0.0)
            assert abs(proj @ f.mass - 1.0) <= 1e-8

    def test_projection_of_feasible_point_is_identity(self):
        f = uniform_density(16)
        r = np.ones(16)
        np.testing.assert_allclose(project_feasible(r, f.mass), r, atol=1e-12)

    def test_matches_scipy_projection(self):
        """Dykstra agrees with a quadratic-programming oracle for the projection."""
        from scipy.optimize import minimize

        rng = np.random.default_rng(11)
        f = DiscreteDensity(
            support=np.arange(12.0),
            mass=rng.dirichlet(np.ones(12)),
        )
        for _ in range(5):
            raw = rng.standard_normal(12) * 3.0
            ours = project_feasible(raw, f.mass)
            res = minimize(
                lambda r: 0.5 * np.sum((r - raw) ** 2),
                np.ones(12),
                jac=lambda r: r - raw,
                bounds=[(0.0, None)] * 12,
                constraints={"type": "eq", "fun": lambda r: r @ f.mass - 1.0},
                method="SLSQP",
                options={"maxiter": 500, "ftol": 1e-14},
            )
            np.testing.assert_allclose(ours, res.x, atol=5e-6)


def broken_pair():
    """A pair violating the derivative rule: its per-point gradient is not a
    descent direction, so the solve ascends and diverges."""
    from ratiogan.losses import LossPair, OmegaTransform, NONNEGATIVE

    omega = OmegaTransform(
        forward=lambda r: np.asarray(r, dtype=float),
        inverse=lambda z: NONNEGATIVE.clamp_interior(z),
        range=NONNEGATIVE,
        description="r",
    )
    return LossPair(
        name="broken",
        phi=lambda z: 2.0 * np.asarray(z, dtype=float) ** 2,
        phi_prime=lambda z: 4.0 * np.asarray(z, dtype=float),
        psi=lambda z: 1.0 - np.asarray(z, dtype=float),
        psi_prime=lambda z: -np.ones_like(np.asarray(z, dtype=float)),
        omega=omega,
    )


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def assert_written_as_before(trace, tmp_path):
    """write_trace's file equals the first-written text, written whole by
    Path.write_text, byte for byte."""
    write_trace(trace, tmp_path / "ours.tsv")
    (tmp_path / "oracle.tsv").write_text(old_trace_to_text(trace))
    assert (tmp_path / "ours.tsv").read_bytes() == (tmp_path / "oracle.tsv").read_bytes()


def assert_same_trace(ours, oracle):
    for name in ("objectives", "linf_to_one", "constraint_residuals"):
        np.testing.assert_array_equal(bits(getattr(ours, name)), bits(getattr(oracle, name)))
    assert ours.iterations == oracle.iterations
    assert ours.converged == oracle.converged


class TestMatchesFirstWrittenPath:
    """The solve path against its first-written form (tests/helpers.py), bit
    for bit: the projection, the solver loop, and the interior clamp."""

    def test_projection_bits_and_input_untouched(self):
        rng = np.random.default_rng(12)
        f = discretize(gaussian([0.0], [[1.0]]), 64, -4.0, 4.0)
        for scale in (0.1, 1.0, 5.0, 100.0):
            for _ in range(20):
                raw = rng.standard_normal(64) * scale + rng.uniform(-1.0, 2.0)
                before = raw.copy()
                ours = project_feasible(raw, f.mass)
                np.testing.assert_array_equal(bits(ours), bits(old_project_feasible(raw, f.mass)))
                np.testing.assert_array_equal(bits(raw), bits(before))

    @pytest.mark.parametrize("init_seed", [0, 4, 1000])
    @pytest.mark.parametrize("name", ["MSE", "B1b", "C2"])
    def test_cli_default_problem(self, monkeypatch, name, init_seed):
        """solve-grid's default problem (N(0,1), 64 points on [-4, 4], random
        init), over 300 iterations: same trace and same field bits."""
        loss = catalogue_lookup(name).loss
        f = discretize(gaussian([0.0], [[1.0]]), 64, -4.0, 4.0)
        r0 = feasible_from(np.abs(np.random.default_rng(init_seed).standard_normal(64)), f)
        r, trace = solve_minmax_grid(loss, f, r0, max_iters=300, log_every=7)
        monkeypatch.setattr(RangeInterval, "clamp_interior", old_clamp_interior)
        r_old, trace_old = old_solve_minmax_grid(loss, f, r0, max_iters=300, log_every=7)
        assert_same_trace(trace, trace_old)
        np.testing.assert_array_equal(bits(r.values), bits(r_old.values))

    def test_divergence_stop(self, tmp_path):
        f = uniform_density(16)
        r0 = feasible_from(1.0 + np.abs(np.random.default_rng(1).standard_normal(16)), f)
        with pytest.raises(SolverDiverged) as ours:
            solve_minmax_grid(broken_pair(), f, r0, max_iters=200, tol=0.0)
        with pytest.raises(SolverDiverged) as oracle:
            old_solve_minmax_grid(broken_pair(), f, r0, max_iters=200, tol=0.0)
        assert str(ours.value) == str(oracle.value)
        assert_same_trace(ours.value.trace, oracle.value.trace)
        assert_written_as_before(ours.value.trace, tmp_path)

    def test_convergence_stop(self, tmp_path):
        loss = catalogue_lookup("MSE").loss
        f = uniform_density()
        r0 = feasible_from(np.abs(np.random.default_rng(3).standard_normal(64)), f)
        r, trace = solve_minmax_grid(loss, f, r0, max_iters=50000, tol=1e-10)
        r_old, trace_old = old_solve_minmax_grid(loss, f, r0, max_iters=50000, tol=1e-10)
        assert trace.converged
        assert_same_trace(trace, trace_old)
        np.testing.assert_array_equal(bits(r.values), bits(r_old.values))
        assert_written_as_before(trace, tmp_path)


class TestWriteTrace:
    """write_trace against the first-written text (tests/helpers.py), and
    what it holds at once."""

    @pytest.mark.parametrize("log_every", [1, 7])
    @pytest.mark.parametrize("init_seed", [0, 4, 1000])
    @pytest.mark.parametrize("name", ["MSE", "B1b", "C2"])
    def test_cli_default_problem(self, tmp_path, name, init_seed, log_every):
        loss = catalogue_lookup(name).loss
        f = discretize(gaussian([0.0], [[1.0]]), 64, -4.0, 4.0)
        r0 = feasible_from(np.abs(np.random.default_rng(init_seed).standard_normal(64)), f)
        _, trace = solve_minmax_grid(loss, f, r0, max_iters=300, log_every=log_every)
        assert_written_as_before(trace, tmp_path)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 42, 43, 44])
    def test_chunk_boundaries(self, tmp_path, monkeypatch, chunk_rows):
        """43 rows, written in chunks that divide them, leave one over, or
        exceed them."""
        monkeypatch.setattr(grid_solver, "TRACE_CHUNK_ROWS", chunk_rows)
        f = uniform_density(8)
        r0 = feasible_from(np.abs(np.random.default_rng(0).standard_normal(8)), f)
        _, trace = solve_minmax_grid(catalogue_lookup("MSE").loss, f, r0, max_iters=42, tol=0.0)
        assert len(trace.iterations) == 43
        assert_written_as_before(trace, tmp_path)

    def test_logged_values_kept_exactly(self, tmp_path):
        """Non-finite values, signed zeros, subnormals and numpy scalars read
        back and print as the values that were logged."""
        values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                  0.1 + 0.2, np.float64(1.0) / 3.0, 7]
        trace = SolveTrace()
        for i, v in enumerate(values):
            trace.log(np.int64(i * 1000), v, v, v)
        assert_written_as_before(trace, tmp_path)
        assert list(trace.iterations) == [i * 1000 for i in range(len(values))]
        np.testing.assert_array_equal(bits(trace.objectives), bits(values))
        assert type(trace.iterations[-1]) is int and type(trace.objectives[-1]) is float

    def test_peak_memory(self, tmp_path):
        """A 10000-iteration solve that logs every step, then writing its
        trace, holds at most 32 B per row beyond 1 MiB: the columns are
        compact and the text is formatted and written one chunk at a time."""
        f = uniform_density(16)
        r0 = feasible_from(np.abs(np.random.default_rng(0).standard_normal(16)), f)
        loss = catalogue_lookup("MSE").loss
        rows = 10001
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _, trace = solve_minmax_grid(loss, f, r0, max_iters=rows - 1, tol=0.0)
            write_trace(trace, tmp_path / "trace.tsv")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(trace.iterations) == rows
        assert peak < rows * 32 + 2**20


class TestSolver:
    def test_unit_field_is_fixed_point(self):
        """The constant field 1 has zero gradient and returns immediately."""
        f = uniform_density()
        for loss in INVERTIBLE:
            r, trace = solve_minmax_grid(loss, f, RatioField(np.ones(64)), max_iters=50)
            assert np.abs(r.values - 1.0).max() < 1e-12, loss.name
            assert trace.iterations[-1] <= 1

    def test_converges_from_random_feasible_inits(self):
        f = uniform_density()
        rng = np.random.default_rng(0)
        for loss in INVERTIBLE:
            r0 = feasible_from(np.abs(rng.standard_normal(64)), f)
            r, trace = solve_minmax_grid(loss, f, r0, max_iters=50000, tol=1e-13)
            assert np.abs(r.values - 1.0).max() <= 1e-3, loss.name

    def test_mse_against_convex_programming_oracle(self):
        """SLSQP on the concentrated cost agrees with the projected-descent solve."""
        from scipy.optimize import minimize

        loss = catalogue_lookup("MSE").loss
        rng = np.random.default_rng(5)
        f = uniform_density()
        r0 = feasible_from(np.abs(rng.standard_normal(64)), f)
        ours, _ = solve_minmax_grid(loss, f, r0, max_iters=50000, tol=1e-13)

        # concentrated cost for the squared-error pair: sum f_i (r_i^2/2 - r_i)
        def objective(r):
            return float(f.mass @ (0.5 * r**2 - r))

        res = minimize(
            objective,
            r0.values,
            jac=lambda r: f.mass * (r - 1.0),
            bounds=[(0.0, None)] * 64,
            constraints={"type": "eq", "fun": lambda r: r @ f.mass - 1.0},
            method="SLSQP",
            options={"maxiter": 1000, "ftol": 1e-16},
        )
        np.testing.assert_allclose(ours.values, res.x, atol=1e-5)
        np.testing.assert_allclose(ours.values, 1.0, atol=1e-6)

    def test_gaussian_support_skewed_init(self):
        """Skewed start on a discretized bell curve still lands on the unit field."""
        loss = catalogue_lookup("CrossEntropy").loss
        f = discretize(gaussian([0.0], [[1.0]]), 64, -3.5, 3.5)
        skew = np.where(f.support < 0.0, 2.0, 1.0)
        r0 = feasible_from(skew, f)
        r, trace = solve_minmax_grid(loss, f, r0, max_iters=400000, tol=1e-10, log_every=1000)
        assert np.abs(r.values - 1.0).max() <= 1e-3
        final_obj = trace.objectives[-1]
        assert final_obj == pytest.approx(math.log(0.5), abs=1e-6)

    def test_objective_non_increasing_after_settling(self):
        loss = catalogue_lookup("A3").loss
        f = uniform_density()
        r0 = feasible_from(np.abs(np.random.default_rng(9).standard_normal(64)), f)
        _, trace = solve_minmax_grid(loss, f, r0, max_iters=20000, tol=1e-13)
        obj = np.asarray(trace.objectives[10:])
        assert np.all(np.diff(obj) <= 1e-9)

    def test_projection_invariants_along_the_run(self):
        loss = catalogue_lookup("MSE").loss
        f = uniform_density()
        r0 = feasible_from(np.abs(np.random.default_rng(2).standard_normal(64)), f)
        _, trace = solve_minmax_grid(loss, f, r0, max_iters=5000, tol=1e-13)
        assert max(trace.constraint_residuals) <= 1e-8

    def test_divergence_error_carries_trace(self):
        """A pair violating the derivative rule ascends instead of descending.

        For such a pair the per-point gradient formula is not a descent
        direction, so every backtracked step still increases the cost and
        the consecutive-increase guard fires.
        """
        f = uniform_density(16)
        r0 = feasible_from(1.0 + np.abs(np.random.default_rng(1).standard_normal(16)), f)
        with pytest.raises(SolverDiverged) as exc_info:
            solve_minmax_grid(broken_pair(), f, r0, max_iters=200, tol=0.0)
        assert len(exc_info.value.trace.objectives) >= 1

    def test_non_finite_candidate_never_taken(self):
        """B1b on the CLI default problem at init seed 4 proposes a step to
        r = 0, where the objective is NaN; the solve backtracks and stays finite."""
        loss = catalogue_lookup("B1b").loss
        f = discretize(gaussian([0.0], [[1.0]]), 64, -4.0, 4.0)
        r0 = feasible_from(np.abs(np.random.default_rng(4).standard_normal(64)), f)
        with np.errstate(all="ignore"):
            r, trace = solve_minmax_grid(loss, f, r0, max_iters=60)
        assert np.all(np.isfinite(trace.objectives))
        assert np.all(np.isfinite(r.values))
        assert np.all(np.diff(trace.objectives) <= 0.0)

    def test_rejected_candidates_raise_no_warnings(self):
        """The same solve under warnings-as-errors: the NaN and inf objectives
        of the candidates it rejects are not reported as numpy warnings."""
        loss = catalogue_lookup("B1b").loss
        f = discretize(gaussian([0.0], [[1.0]]), 64, -4.0, 4.0)
        r0 = feasible_from(np.abs(np.random.default_rng(4).standard_normal(64)), f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, trace = solve_minmax_grid(loss, f, r0, max_iters=60)
        assert np.all(np.isfinite(trace.objectives))
        assert np.all(np.isfinite(r.values))

    def test_converged_flag(self):
        loss = catalogue_lookup("MSE").loss
        f = uniform_density()
        r0 = feasible_from(np.abs(np.random.default_rng(3).standard_normal(64)), f)
        _, trace = solve_minmax_grid(loss, f, r0, max_iters=5)
        assert not trace.converged and trace.iterations[-1] == 5
        _, trace = solve_minmax_grid(loss, f, r0, max_iters=50000, tol=1e-10)
        assert trace.converged and trace.iterations[-1] < 50000

    def test_limit_loss_rejected(self):
        f = uniform_density(8)
        with pytest.raises(ValueError, match="invertible"):
            solve_minmax_grid(
                catalogue_lookup("Wasserstein").loss, f, RatioField(np.ones(8))
            )


class TestMinmaxValue:
    def test_unit_field_factors_out(self):
        f = uniform_density(16)
        ones = RatioField(np.ones(16))
        assert minmax_value(catalogue_lookup("MSE").loss, ones, f) == pytest.approx(0.5)
        assert minmax_value(catalogue_lookup("CrossEntropy").loss, ones, f) == pytest.approx(
            -2.0 * math.log(2.0)
        )

    def test_matches_saddle_for_every_invertible_loss(self):
        f = uniform_density(16)
        ones = RatioField(np.ones(16))
        for loss in INVERTIBLE:
            expected = float(loss.phi(loss.omega_at_one) + loss.psi(loss.omega_at_one))
            assert minmax_value(loss, ones, f) == pytest.approx(expected, abs=1e-12), loss.name


class TestExports:
    def test_trace_table(self, tmp_path):
        loss = catalogue_lookup("MSE").loss
        f = uniform_density(8)
        r0 = feasible_from(np.abs(np.random.default_rng(0).standard_normal(8)), f)
        r, trace = solve_minmax_grid(loss, f, r0, max_iters=100, tol=1e-12)
        write_trace(trace, tmp_path / "trace.tsv")
        header, first = (tmp_path / "trace.tsv").read_text().splitlines()[:2]
        assert header.split("\t") == ["iteration", "objective", "linf_to_one", "constraint_residual"]
        assert len(first.split("\t")) == 4

    def test_field_table(self):
        f = uniform_density(4)
        r = RatioField(np.array([0.5, 1.0, 1.25, 1.25]))
        text = field_to_text(f, r)
        lines = text.splitlines()
        assert lines[0].split("\t") == ["support", "mass", "ratio"]
        assert len(lines) == 5
        rows = [[float(cell) for cell in line.split("\t")] for line in lines[1:]]
        assert [row[0] for row in rows] == list(f.support)
        assert [row[1] for row in rows] == list(f.mass)
        assert [row[2] for row in rows] == list(r.values)
