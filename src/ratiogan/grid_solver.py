"""Ideal min-max solve over a likelihood-ratio field on a discrete support.

The inner maximization has the pointwise closed form D_i = omega(r_i),
so what remains is projected gradient descent on the ratio vector: the
concentrated cost is sum_i f_i * (phi(omega(r_i)) + r_i * psi_tilde(omega(r_i))),
both it and its per-point gradient f_i * psi_tilde(omega(r_i)) come from
``losses.concentrated``, and feasibility means r >= 0 with
sum(r_i * f_i) = 1.  The minimizer is the constant field r = 1 for every
invertible pair.  A solve runs under one ``np.errstate(all="ignore")``:
a candidate with a non-finite cost is rejected, never printed as a warning.

A solve's trace keeps its four columns as compact ``array.array``
columns, 32 bytes per logged row, and ``write_trace`` formats and writes
it in joined chunks of ``TRACE_CHUNK_ROWS`` rows, so a long solve holds
neither boxed floats per row nor the whole file's text.  The file is the
same, byte for byte, whatever the chunk size: a header, then one line
per logged row with each float as its repr.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .densities import DensitySpec, pdf
from .losses import LossPair, concentrated, normalize_psi

__all__ = [
    "DiscreteDensity",
    "RatioField",
    "SolveTrace",
    "SolverDiverged",
    "discretize",
    "project_feasible",
    "feasible_from",
    "solve_minmax_grid",
    "minmax_value",
    "write_trace",
    "field_to_text",
]

MASS_TOL = 1e-12
CONSTRAINT_TOL = 1e-8
PROJECTION_RESIDUAL = 1e-10
PROJECTION_MAX_ITERS = 1000
TRACE_CHUNK_ROWS = 2048  # rows formatted, joined and written per write call
FULL_COVERAGE = 0.99  # solve-grid reports a window that captures less of the density mass


@dataclass(frozen=True)
class DiscreteDensity:
    """Probability masses on a finite support (1D points or 2D grid nodes)."""

    support: np.ndarray
    mass: np.ndarray
    coverage: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "support", np.asarray(self.support, dtype=float))
        object.__setattr__(self, "mass", np.asarray(self.mass, dtype=float))
        if len(self.mass) != len(self.support):
            raise ValueError("support and mass lengths differ")
        if np.any(self.mass < 0):
            raise ValueError("negative mass")
        if abs(self.mass.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {self.mass.sum()!r} not 1 within {MASS_TOL}")
        # rows sorted, then neighbours compared: ±0 are equal and a NaN row is
        # distinct, as with np.unique(axis=0), which would load numpy.ma
        pts = self.support.reshape(len(self.support), -1)
        pts = pts[np.lexsort(pts.T[::-1])]
        if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
            raise ValueError("support points must be distinct")

    def __len__(self):
        return len(self.mass)


@dataclass(frozen=True)
class RatioField:
    """Nonnegative ratio values aligned with a density's support."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self._check_values()

    def _check_values(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("ratio values must be finite")
        if np.any(self.values < 0):
            raise ValueError("ratio values must be nonnegative")

    def validate_against(self, density: DiscreteDensity) -> None:
        if len(self.values) != len(density):
            raise ValueError("ratio field and density lengths differ")
        self._check_values()
        resid = abs(float(self.values @ density.mass) - 1.0)
        if resid > CONSTRAINT_TOL:
            raise ValueError(f"mean-one constraint residual {resid:.3e} > {CONSTRAINT_TOL}")

    def __len__(self):
        return len(self.values)


@dataclass
class SolveTrace:
    """Per-logged-step solver history; ``converged`` is set when the solve
    stopped because an accepted step moved r by less than the tolerance.

    Each column is an ``array.array`` (``"q"`` for the iteration, ``"d"``
    for the rest), so a logged row costs 32 bytes; indexing a column
    returns the Python int or float that was logged.
    """

    iterations: array = field(default_factory=lambda: array("q"))
    objectives: array = field(default_factory=lambda: array("d"))
    linf_to_one: array = field(default_factory=lambda: array("d"))
    constraint_residuals: array = field(default_factory=lambda: array("d"))
    converged: bool = False

    def log(self, iteration, objective, linf, residual):
        self.iterations.append(iteration)
        self.objectives.append(objective)
        self.linf_to_one.append(linf)
        self.constraint_residuals.append(residual)


class SolverDiverged(RuntimeError):
    def __init__(self, message: str, trace: SolveTrace):
        super().__init__(message)
        self.trace = trace


def discretize(density: DensitySpec, n_points: int, lo: float, hi: float) -> DiscreteDensity:
    """Evaluate a density's ``pdf`` on a regular grid and renormalize to unit mass.

    The grid lays ``n_points`` nodes on [lo, hi] along every axis: (n,)
    points in 1D, (n*n, 2) in 2D; a grid is 1-D or 2-D only.  The pdf is
    called once on the whole grid.  The mass the window captures is kept as
    ``coverage``; less than half of it is an error.
    """
    if density.dim not in (1, 2):
        raise ValueError(f"grids are 1-D or 2-D only, not {density.dim}-D")
    if n_points < 2:
        raise ValueError("need at least 2 grid points")
    if not lo < hi:
        raise ValueError(f"window [{lo:g}, {hi:g}] must have lo < hi")

    axis = np.linspace(lo, hi, n_points)
    step = (hi - lo) / (n_points - 1)
    if density.dim == 1:
        support, cell = axis, step
    else:
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        support = np.column_stack([gx.ravel(), gy.ravel()])
        cell = step * (hi - lo) / (n_points - 1)  # left to right: step * step rounds differently

    masses = pdf(density, support) * cell
    coverage = float(masses.sum())
    if coverage < 0.5:
        raise ValueError(f"window captures only {coverage:.3f} of the density mass")
    return DiscreteDensity(support=support, mass=masses / coverage, coverage=coverage)


def project_feasible(values: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Dykstra projection onto {r >= 0} intersected with {<mass, r> = 1}.

    Stops once the iterate is feasible within the residual cap and has
    stopped moving (feasibility alone can be reached before the
    correction terms equilibrate on the true projection).
    """
    m = np.asarray(mass, dtype=float)
    m_sq = float(m @ m)
    x = np.asarray(values, dtype=float)  # only read: every sweep makes a new x
    scale = max(1.0, float(np.abs(x).max()))
    p = np.zeros(x.shape)  # zeros, not zeros_like: the cheaper call
    q = np.zeros(x.shape)
    prev = x
    for _ in range(PROJECTION_MAX_ITERS):
        x_p = x + p
        y = np.maximum(x_p, 0.0)
        p = x_p - y
        w = y + q
        x = w + (1.0 - float(m @ w)) / m_sq * m
        q = w - x
        # movement first: the two violation reductions run only once x has stopped
        if float(np.abs(x - prev).max()) <= 1e-12 * scale and max(
            0.0, -float(x.min()), abs(float(m @ np.maximum(x, 0.0)) - 1.0)
        ) <= PROJECTION_RESIDUAL:
            break
        prev = x
    return np.maximum(x, 0.0)


def feasible_from(values: np.ndarray, density: DiscreteDensity) -> RatioField:
    """Rescale nonnegative values so they satisfy the mean-one constraint."""
    v = np.maximum(np.asarray(values, dtype=float), 0.0)
    total = float(v @ density.mass)
    if total <= 0:
        raise ValueError("cannot normalize values with zero mass-weighted sum")
    return RatioField(v / total)


def solve_minmax_grid(
    loss: LossPair,
    f: DiscreteDensity,
    r_init: RatioField,
    max_iters: int = 20000,
    tol: float = 1e-10,
    log_every: int = 1,
):
    """Projected gradient descent on the concentrated cost.

    Alternates the exact inner maximizer D = omega(r) with a projected
    step along the per-point gradient f_i * psi_tilde(omega(r_i)),
    starting from step 0.1 / max_i f_i and backtracking on objective
    increase (factor 0.5, at most 30 halvings per iteration).  A
    candidate whose objective is still non-finite is not taken.  Fifty
    consecutive non-improving iterations raise ``SolverDiverged`` with
    the trace attached.  The floating-point error state is entered once,
    around the first evaluation and the whole loop, not per candidate.
    """
    if not loss.ratio_invertible:
        raise ValueError(f"ideal solver requires invertible omega; {loss.name} has none")
    r_init.validate_against(f)

    normalized = normalize_psi(loss)
    mass = f.mass

    def objective_and_grad(r):
        cost, slope = concentrated(normalized, r)
        return float(mass @ cost), mass * slope

    base_step = 0.1 / float(mass.max())

    r = np.asarray(r_init.values, dtype=float).copy()
    trace = SolveTrace()
    with np.errstate(all="ignore"):  # r may hold zeros: an inf or NaN candidate is rejected
        obj, grad = objective_and_grad(r)
        trace.log(0, obj, np.abs(r - 1.0).max(), abs(float(mass @ r) - 1.0))

        consecutive_increases = 0
        for it in range(1, max_iters + 1):
            for halvings in range(31):  # the full step, then at most 30 halvings
                candidate = project_feasible(r - base_step * 0.5**halvings * grad, mass)
                cand_obj, cand_grad = objective_and_grad(candidate)
                improved = cand_obj <= obj and math.isfinite(cand_obj)  # non-finite: an increase
                if improved:
                    break
            consecutive_increases = 0 if improved else consecutive_increases + 1
            if consecutive_increases >= 50:
                raise SolverDiverged(
                    f"objective increased for {consecutive_increases} consecutive "
                    f"iterations (step {base_step:g})",
                    trace,
                )

            if math.isfinite(cand_obj):
                delta = np.abs(candidate - r).max()
                r, obj, grad = candidate, cand_obj, cand_grad
            else:
                delta = math.inf  # a non-finite candidate is never taken: keep r
            if it % log_every == 0 or delta < tol or it == max_iters:
                trace.log(it, obj, np.abs(r - 1.0).max(), abs(float(mass @ r) - 1.0))
            if delta < tol:
                trace.converged = True
                break

    result = RatioField(r)
    result.validate_against(f)
    return result, trace


def minmax_value(loss: LossPair, r: RatioField, f: DiscreteDensity) -> float:
    """Discrete cost at the inner optimum, with the unnormalized psi."""
    if len(r) != len(f):
        raise ValueError("ratio field and density lengths differ")
    return float(f.mass @ concentrated(loss, r.values)[0])


def write_trace(trace: SolveTrace, path) -> None:
    """Write the trace as tab-separated text: a header, then one row per
    logged step with each float as its repr.  Rows are formatted and
    written TRACE_CHUNK_ROWS at a time, so at most one chunk of the text
    is held at once."""
    rows = zip(trace.iterations, trace.objectives, trace.linf_to_one, trace.constraint_residuals)
    with open(path, "w") as fh:
        fh.write("iteration\tobjective\tlinf_to_one\tconstraint_residual\n")
        while chunk := [
            f"{it}\t{obj!r}\t{linf!r}\t{res!r}\n"
            for it, obj, linf, res in itertools.islice(rows, TRACE_CHUNK_ROWS)
        ]:
            fh.write("".join(chunk))


def field_to_text(f: DiscreteDensity, r: RatioField) -> str:
    lines = ["support\tmass\tratio"]
    pts = f.support.reshape(len(f), -1)
    for point, m, v in zip(pts, f.mass, r.values):
        coord = ",".join(repr(float(c)) for c in point)
        lines.append(f"{coord}\t{float(m)!r}\t{float(v)!r}")
    return "\n".join(lines) + "\n"
