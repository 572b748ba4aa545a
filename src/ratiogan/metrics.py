"""Two-sample distances for monitoring desk-scale training runs.

``mmd_rbf`` takes its kernel bandwidth from the caller.  A training run
fixes one per run, the median distance of disjoint pairs of one target
draw (``median_pair_distance``), so every snapshot is read under the
same kernel; ``kernel_gamma`` says which bandwidths give a kernel.

The MMD sums kernel values over the blocks xx, yy and xy, never over the
pooled (m+n)^2 matrix, in bands of ``_BAND`` rows formed in one buffer:
squared distances, exp(-gamma d) in place, the diagonal of xx and yy
zeroed, one sum.  ``math.fsum`` adds the band sums with one rounding, so
the banding adds no error of its own; the value agrees with the pooled
formula to about 1e-15 (kernel values are at most 1), not bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["kernel_gamma", "median_pair_distance", "mmd_rbf", "sliced_wasserstein"]

# rows per band: 64 rows of the 2048-wide eval block are 1 MiB, inside one core's L2
_BAND = 64


def kernel_gamma(bandwidth: float) -> float:
    """The Gaussian kernel's scale 1/(2 bandwidth^2); ValueError unless it
    is finite and > 0, as for a bandwidth of 0, NaN, inf, 1e-160 or 1e200."""
    width = float(bandwidth) if bandwidth > 0 else math.nan  # a string raises TypeError
    gamma = 0.5 / width / width  # Python floats: inf or 0.0 out of range, never an error
    if not 0.0 < gamma < math.inf:
        raise ValueError("degenerate bandwidth")
    return gamma


def _kernel_sum(x: np.ndarray, y: np.ndarray, gamma: float, buf: np.ndarray, within: bool) -> float:
    """The sum of exp(-gamma |x_i - y_j|^2) over all i, j, leaving out i = j
    when within (the xx and yy blocks), formed band by band in buf."""
    n, one_column = len(y), x.shape[1] == 1
    if not one_column:
        x_sq, y_sq = (x**2).sum(axis=1), (y**2).sum(axis=1)
    sums = []
    for r0 in range(0, len(x), _BAND):
        band = x[r0 : r0 + _BAND]
        d = buf[: len(band) * n].reshape(len(band), n)
        if one_column:
            np.subtract(band, y.T, out=d)
            np.square(d, out=d)
        else:
            np.matmul(band, y.T, out=d)
            d *= -2.0
            d += x_sq[r0 : r0 + _BAND, None]
            d += y_sq
            np.maximum(d, 0.0, out=d)
        d *= -gamma
        np.exp(d, out=d)
        if within:
            np.fill_diagonal(d[:, r0:], 0.0)
        sums.append(d.sum())
    return math.fsum(sums)


def median_pair_distance(sample: np.ndarray) -> float:
    """The median distance between rows i and h + i of a sample, i < h =
    len(sample) // 2: the median heuristic's kernel bandwidth (Gretton et
    al. 2012, "A kernel two-sample test") from h disjoint pairs, in O(h)."""
    h = len(sample) // 2
    return float(np.median(np.linalg.norm(sample[:h] - sample[h : 2 * h], axis=1)))


def mmd_rbf(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """Unbiased squared maximum mean discrepancy with a Gaussian kernel of
    the given bandwidth (see ``kernel_gamma``); NaN if x or y holds a NaN
    or an infinity.

    Diagonal terms are excluded from the within-sample sums, so the
    estimator is unbiased and may dip slightly negative for close
    distributions.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError("samples must be 2D matrices with matching arity")
    m, n = len(x), len(y)
    if m < 2 or n < 2:
        raise ValueError("need at least 2 samples on each side")
    gamma = kernel_gamma(bandwidth)
    # at every arity: the norm finish makes inf - inf, but one column's differences would not
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return math.nan

    buf = np.empty(_BAND * max(m, n))  # one band of the widest block
    sum_xx = _kernel_sum(x, x, gamma, buf, True)
    sum_yy = _kernel_sum(y, y, gamma, buf, True)
    mean_xy = _kernel_sum(x, y, gamma, buf, False) / (m * n)
    return sum_xx / (m * (m - 1)) + sum_yy / (n * (n - 1)) - 2.0 * mean_xy


def sliced_wasserstein(x: np.ndarray, y: np.ndarray, n_projections: int = 64, seed=0) -> float:
    """Mean 1D 2-Wasserstein distance over seeded random unit directions.

    x and y hold the same number of samples: each direction's projections
    are sorted and matched rank by rank.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[1] != y.shape[1]:
        raise ValueError("samples must share their arity")
    if len(x) != len(y):
        raise ValueError(f"samples must be of equal size, not {len(x)} and {len(y)}")
    if n_projections < 1:
        raise ValueError("need at least one projection")

    rng = np.random.default_rng(seed)
    dim = x.shape[1]
    directions = rng.standard_normal((n_projections, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    proj_x = np.sort(x @ directions.T, axis=0)
    proj_y = np.sort(y @ directions.T, axis=0)
    return float(np.sqrt(np.mean((proj_x - proj_y) ** 2, axis=0)).mean())
