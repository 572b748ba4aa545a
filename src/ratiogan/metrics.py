"""Two-sample distances for monitoring desk-scale training runs.

``mmd_rbf`` works on three distance blocks, xx (m x m), yy (n x n) and
xy (m x n).  The distinct pairs of the pooled sample are exactly the
strict upper triangles of xx and yy plus all of xy, so the
median-heuristic bandwidth is read off those blocks without the pooled
(m+n)^2 matrix.

Each block is one matmul: ``x @ x.T`` and ``y @ y.T``, which numpy runs
through the symmetric (syrk) product, and ``x @ y.T``.  Every
elementwise pass after it runs over row bands of ``_BAND`` rows in the
matmul's own buffer, so a band stays in cache between the steps of a
pass and no full-size temporary is made: the distance finish
``max((|x|^2 + |y|^2) - 2 x.y, 0)``, the count of the median bracket and
the kernel ``exp(-gamma d)``.  The matmuls and the sums stay whole-block
because they fix the bits: the general product differs from the syrk
path in the last bit for some sizes, and a sum taken band by band adds
in another order.  Elementwise steps give the same bits in any layout,
so recorded values equal the pooled-matrix numbers.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["mmd_rbf", "sliced_wasserstein"]

# rows per band of every elementwise pass: 64 rows of a 2048-wide block
# (the eval shape) are 1 MiB of float64, inside one core's L2
_BAND = 64
_MEDIAN_SAMPLE = 65536  # subsample size that brackets the median
_MEDIAN_WIDTH = 4.0  # bracket half-width in units of sqrt(subsample size)


def _bands(d: np.ndarray) -> list:
    """Views of the row bands of a block."""
    return [d[lo : lo + _BAND] for lo in range(0, len(d), _BAND)]


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """max((|x|^2 + |y|^2) - 2 x y^T, 0), finished in the matmul's buffer."""
    x_sq = (x**2).sum(axis=1)
    y_sq = (y**2).sum(axis=1)
    d = x @ y.T
    norms = np.empty((min(_BAND, len(x)), len(y)))
    for lo in range(0, len(x), _BAND):
        rows = d[lo : lo + _BAND]
        part = norms[: len(rows)]
        rows *= 2.0
        np.add(x_sq[lo : lo + _BAND, None], y_sq, out=part)
        np.subtract(part, rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
    return d


def _upper_triangle_bands(d: np.ndarray) -> list:
    """The strict upper triangle of a square block as row bands: per band
    of rows, a copy of its small diagonal triangle and a view of the rest."""
    pieces = []
    for lo in range(0, len(d), _BAND):
        hi = min(lo + _BAND, len(d))
        pieces.append(d[lo:hi, lo:hi][np.triu_indices(hi - lo, k=1)])
        pieces.append(d[lo:hi, hi:])
    return pieces


def _median(pieces) -> np.float64:
    """np.median of all values of the pieces (arrays of any shape, views
    included), which are left unchanged.

    A fixed-stride subsample of each piece (in C order) brackets the
    middle order statistics, so only the values inside the bracket are
    partitioned.  The count makes masks of one piece at a time, so
    band-sized pieces keep it in cache.  When the counts show the
    bracket missed the middle, or some value (NaN) fell in no part of
    it, np.median on a copy decides.
    """
    total = sum(v.size for v in pieces)
    ks = [total // 2] if total % 2 else [total // 2 - 1, total // 2]
    step = max(1, total // _MEDIAN_SAMPLE)
    sub = np.sort(np.concatenate([v.flat[::step] for v in pieces]))
    at = ks[0] * sub.size // total
    half = int(_MEDIAN_WIDTH * np.sqrt(sub.size))
    lo = sub[max(at - half, 0)]
    hi = sub[min(at + half, sub.size - 1)]
    below = above = 0
    inside = []
    for v in pieces:
        below += np.count_nonzero(v < lo)
        above += np.count_nonzero(v > hi)
        inside.append(v[(v >= lo) & (v <= hi)])
    inside = np.concatenate(inside)
    if below + inside.size + above == total and below <= ks[0] and ks[-1] < below + inside.size:
        ks = [k - below for k in ks]
        inside.partition(ks)
        return np.mean(inside[ks])
    return np.median(np.concatenate([v.ravel() for v in pieces]), overwrite_input=True)


def mmd_rbf(x: np.ndarray, y: np.ndarray, bandwidth: Union[float, str] = "median") -> float:
    """Unbiased squared maximum mean discrepancy with a Gaussian kernel.

    Diagonal terms are excluded from the within-sample sums, so the
    estimator is unbiased and may dip slightly negative for close
    distributions.  ``"median"`` sets the bandwidth to the median
    pairwise distance of the pooled sample.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError("samples must be 2D matrices with matching arity")
    m, n = len(x), len(y)
    if m < 2 or n < 2:
        raise ValueError("need at least 2 samples on each side")

    k_xx = _sq_dists(x, x)
    k_yy = _sq_dists(y, y)
    k_xy = _sq_dists(x, y)
    if bandwidth == "median":
        # pooled pairs: upper(xx), all of xy, upper(yy)
        pieces = _upper_triangle_bands(k_xx) + _upper_triangle_bands(k_yy) + _bands(k_xy)
        bw = float(np.sqrt(_median(pieces)))
    else:
        bw = float(bandwidth)
    if bw <= 0:
        raise ValueError("degenerate bandwidth")
    gamma = 1.0 / (2.0 * bw * bw)

    for k in (k_xx, k_yy, k_xy):  # squared distances -> kernel values
        for rows in _bands(k):
            np.multiply(rows, -gamma, out=rows)
            np.exp(rows, out=rows)
    sum_xx = k_xx.sum() - np.trace(k_xx)
    sum_yy = k_yy.sum() - np.trace(k_yy)
    return float(
        sum_xx / (m * (m - 1)) + sum_yy / (n * (n - 1)) - 2.0 * k_xy.mean()
    )


def sliced_wasserstein(x: np.ndarray, y: np.ndarray, n_projections: int = 64, seed=0) -> float:
    """Mean 1D 2-Wasserstein distance over seeded random unit directions.

    Projections are sorted and matched rank-by-rank (equal sample counts)
    or through quantile interpolation otherwise.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[1] != y.shape[1]:
        raise ValueError("samples must share their arity")
    if n_projections < 1:
        raise ValueError("need at least one projection")

    rng = np.random.default_rng(seed)
    dim = x.shape[1]
    directions = rng.standard_normal((n_projections, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    proj_x = np.sort(x @ directions.T, axis=0)
    proj_y = np.sort(y @ directions.T, axis=0)
    if len(x) == len(y):
        w2 = np.sqrt(np.mean((proj_x - proj_y) ** 2, axis=0))
    else:
        k = max(len(x), len(y))
        q = (np.arange(k) + 0.5) / k
        w2 = np.empty(n_projections)
        for j in range(n_projections):
            qx = np.quantile(proj_x[:, j], q)
            qy = np.quantile(proj_y[:, j], q)
            w2[j] = np.sqrt(np.mean((qx - qy) ** 2))
    return float(w2.mean())
