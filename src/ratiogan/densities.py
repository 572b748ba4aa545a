"""Synthetic origin/target densities with exact samplers, pdfs, and ratios.

Sampling is reproducible by construction: uniforms come from numpy's
seeded PCG64 stream and normals are produced by Box-Muller in a fixed
order.  Per sample the stream is consumed as: one uniform for the
mixture component (mixtures and rings only), then uniform pairs
(u1, u2) -> (sqrt(-2 log(1-u1)) cos(2 pi u2), same with sin) filling the
coordinates left to right; for odd dimension the second value of the
sample's last pair is discarded.  A sample file target (kind "file")
holds the rows of a CSV, read once when the spec is made; each of its
samples is a row chosen by one ``rng.integers`` draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "DensitySpec",
    "gaussian",
    "mixture",
    "ring",
    "uniform",
    "sample_file",
    "sample",
    "pdf",
    "true_log_ratio",
    "load_samples",
]


@dataclass(frozen=True)
class DensitySpec:
    """One of: gaussian(mean, cov), mixture(weights, gaussians), ring(k, radius, sigma),
    uniform(box), sample_file(path).  A file spec is equal to another by its
    path: its rows take no part in equality, hashing or repr."""

    kind: str
    dim: int
    mean: Optional[tuple] = None
    cov: Optional[tuple] = None
    weights: Optional[tuple] = None
    components: Optional[tuple] = None
    modes: Optional[int] = None
    radius: Optional[float] = None
    sigma: Optional[float] = None
    low: Optional[tuple] = None
    high: Optional[tuple] = None
    path: Optional[str] = None
    rows: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @cached_property
    def cholesky_factor(self) -> np.ndarray:
        """Lower Cholesky factor of ``cov`` (gaussian kind), computed once per spec."""
        factor = np.linalg.cholesky(np.asarray(self.cov, dtype=float))
        factor.flags.writeable = False
        return factor


def _as_tuple(x) -> tuple:
    return tuple(float(v) for v in np.atleast_1d(np.asarray(x, dtype=float)))


def gaussian(mean, cov) -> DensitySpec:
    mean_t = _as_tuple(mean)
    dim = len(mean_t)
    if dim not in (1, 2):
        raise ValueError("only 1D and 2D densities are supported")
    cov_arr = np.asarray(cov, dtype=float)
    if cov_arr.ndim == 0:
        cov_arr = cov_arr * np.eye(dim)
    if cov_arr.shape != (dim, dim):
        raise ValueError(f"covariance shape {cov_arr.shape} does not match dim {dim}")
    if not (np.isfinite(mean_t).all() and np.isfinite(cov_arr).all()):
        raise ValueError("gaussian mean and covariance must be finite")
    if not np.allclose(cov_arr, cov_arr.T):
        raise ValueError("covariance must be symmetric")
    if np.any(np.linalg.eigvalsh(cov_arr) <= 0):
        raise ValueError("covariance must be positive definite")
    return DensitySpec(
        kind="gaussian",
        dim=dim,
        mean=mean_t,
        cov=tuple(tuple(float(v) for v in row) for row in cov_arr),
    )


def mixture(components: Sequence[Tuple[float, DensitySpec]]) -> DensitySpec:
    weights = np.asarray([w for w, _ in components], dtype=float)
    specs = tuple(s for _, s in components)
    if not np.all(weights > 0):  # NaN fails too
        raise ValueError("mixture weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("mixture weights must sum to 1")
    if any(s.kind != "gaussian" for s in specs):
        raise ValueError("mixture components must be gaussian")
    dims = {s.dim for s in specs}
    if len(dims) != 1:
        raise ValueError("mixture components must share a dimension")
    return DensitySpec(
        kind="mixture",
        dim=dims.pop(),
        weights=tuple(float(w) for w in weights),
        components=specs,
    )


def ring(k: int, radius: float, sigma: float) -> DensitySpec:
    """Equal-weight isotropic Gaussians at angles 2*pi*j/k on a circle."""
    if k < 1:
        raise ValueError("need at least one mode")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if not math.isfinite(radius):
        raise ValueError("radius must be finite")
    return DensitySpec(kind="ring", dim=2, modes=int(k), radius=float(radius), sigma=float(sigma))


def uniform(low, high) -> DensitySpec:
    low_t, high_t = _as_tuple(low), _as_tuple(high)
    if len(low_t) != len(high_t):
        raise ValueError("box corners must share a dimension")
    if len(low_t) not in (1, 2):
        raise ValueError("only 1D and 2D densities are supported")
    if not np.isfinite(low_t + high_t).all():
        raise ValueError("box corners must be finite")
    if any(h <= l for l, h in zip(low_t, high_t)):
        raise ValueError("box must have positive volume")
    return DensitySpec(kind="uniform", dim=len(low_t), low=low_t, high=high_t)


def sample_file(path) -> DensitySpec:
    """Empirical target: the rows of a headerless CSV sample file, read now."""
    rows = load_samples(path)
    rows.flags.writeable = False
    return DensitySpec(kind="file", dim=rows.shape[1], path=str(path), rows=rows)


def ring_centers(spec: DensitySpec) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(spec.modes) / spec.modes
    return spec.radius * np.column_stack([np.cos(angles), np.sin(angles)])


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Pairs of uniforms (last axis) to pairs of standard normals."""
    u1 = u[..., 0::2]
    u2 = u[..., 1::2]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * math.pi * u2
    out = np.empty_like(u)
    out[..., 0::2] = radius * np.cos(angle)
    out[..., 1::2] = radius * np.sin(angle)
    return out


def _standard_normals(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    pairs = (d + 1) // 2
    u = rng.random((n, 2 * pairs))
    return _box_muller(u)[:, :d]


def sample(spec: DensitySpec, n: int, seed) -> np.ndarray:
    """Draw an (n, dim) matrix of i.i.d. samples, deterministic per seed."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    d = spec.dim

    if spec.kind == "gaussian":
        z = _standard_normals(rng, n, d)
        return np.asarray(spec.mean) + z @ spec.cholesky_factor.T

    if spec.kind == "uniform":
        lo = np.asarray(spec.low)
        hi = np.asarray(spec.high)
        return lo + rng.random((n, d)) * (hi - lo)

    if spec.kind == "file":
        return spec.rows[rng.integers(0, len(spec.rows), size=n)]

    if spec.kind == "ring":
        centers = ring_centers(spec)
        pairs = 1  # d == 2
        u = rng.random((n, 1 + 2 * pairs))
        comp = np.minimum((u[:, 0] * spec.modes).astype(int), spec.modes - 1)
        z = _box_muller(u[:, 1:])
        return centers[comp] + spec.sigma * z

    if spec.kind == "mixture":
        pairs = (d + 1) // 2
        u = rng.random((n, 1 + 2 * pairs))
        cum = np.cumsum(spec.weights)
        comp = np.searchsorted(cum, u[:, 0], side="right")
        comp = np.minimum(comp, len(spec.components) - 1)
        z = _box_muller(u[:, 1:])[:, :d]
        out = np.empty((n, d))
        for j, sub in enumerate(spec.components):
            idx = comp == j
            if np.any(idx):
                out[idx] = np.asarray(sub.mean) + z[idx] @ sub.cholesky_factor.T
        return out

    raise ValueError(f"unknown density kind {spec.kind!r}")


def _gaussian_logpdf(spec: DensitySpec, x: np.ndarray) -> np.ndarray:
    mean = np.asarray(spec.mean)
    cov = np.asarray(spec.cov)
    diff = x - mean
    inv = np.linalg.inv(cov)
    det = np.linalg.det(cov)
    # summed over j, then i, per row: a batch gives each point its one-point value
    quad = ((diff[:, :, None] * inv) * diff[:, None, :]).sum(axis=2).sum(axis=1)
    return -0.5 * (quad + spec.dim * math.log(2.0 * math.pi) + math.log(det))


def pdf(spec: DensitySpec, x) -> Union[float, np.ndarray]:
    """Exact density at a point (dim,) or batch (n, dim)."""
    x_arr = np.asarray(x, dtype=float)
    scalar_input = x_arr.ndim == 0 or (x_arr.ndim == 1 and spec.dim == len(x_arr))
    pts = np.atleast_2d(x_arr.reshape(-1, spec.dim) if x_arr.ndim > 0 else x_arr.reshape(1, 1))
    if pts.shape[1] != spec.dim:
        raise ValueError(f"point dimension {pts.shape[1]} != density dimension {spec.dim}")

    if spec.kind == "gaussian":
        out = np.exp(_gaussian_logpdf(spec, pts))
    elif spec.kind == "uniform":
        lo = np.asarray(spec.low)
        hi = np.asarray(spec.high)
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)
        out = inside / float(np.prod(hi - lo))
    elif spec.kind == "ring":
        centers = ring_centers(spec)
        var = spec.sigma**2
        sq = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        out = np.exp(-0.5 * sq / var).sum(axis=1) / (spec.modes * 2.0 * math.pi * var)
    elif spec.kind == "mixture":
        out = np.zeros(len(pts))
        for w, sub in zip(spec.weights, spec.components):
            out = out + w * np.exp(_gaussian_logpdf(sub, pts))
    else:
        raise ValueError(f"unknown density kind {spec.kind!r}")

    return float(out[0]) if scalar_input else out


def true_log_ratio(f_spec: DensitySpec, g_spec: DensitySpec, x) -> float:
    """log g(x) - log f(x): the oracle for discriminator-derived estimates."""
    fx = pdf(f_spec, x)
    gx = pdf(g_spec, x)
    if np.ndim(fx) != 0:
        raise ValueError("true_log_ratio takes a single point")
    if fx == 0.0:
        raise ValueError(f"ratio undefined: target density vanishes at {x}")
    if gx == 0.0:
        return -math.inf
    return math.log(gx) - math.log(fx)


def load_samples(path) -> np.ndarray:
    """Read a headerless CSV of equal-arity numeric rows into an (n, d) matrix."""
    rows = []
    arity = None
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if arity is None:
                arity = len(fields)
            elif len(fields) != arity:
                raise ValueError(
                    f"{path}: ragged row at line {lineno}: expected {arity} fields, got {len(fields)}"
                )
            try:
                rows.append([float(v) for v in fields])
            except ValueError:
                raise ValueError(f"{path}: non-numeric field at line {lineno}") from None
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    return np.asarray(rows, dtype=float)
