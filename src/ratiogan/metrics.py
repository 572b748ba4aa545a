"""Two-sample distances for monitoring desk-scale training runs.

``mmd_rbf`` takes its kernel bandwidth from the caller.  A training run
fixes one per run, the median distance of disjoint pairs of one target
draw (``median_pair_distance``), so every snapshot is read under the
same kernel.  The call works on three distance blocks, xx (m x m), yy
(n x n) and xy (m x n), never on the pooled (m+n)^2 matrix.

A block is read in row tiles (``_Dists``).  For one-column samples a
tile is formed only when the kernel pass reaches it, from the product
``x[r0:r1] * y.T``: each cell is a single term, so a tile has the bits
of the whole-block matmul and no m x n array is ever held.  Wider
samples form a whole block, ``np.matmul(x, x.T, out=...)`` or
``np.matmul(x, y.T, out=...)``, in the one buffer the call owns
(``_Buffer``), and read tiles as views of it.  A product formed band by
band differs from the whole-block one in the last bit at many sizes,
and so does a general product with a copy of x.T: the square blocks
pass x twice so that numpy keeps its symmetric syrk path.

A held block's rows lie ``_stride(n)`` values apart, an odd number of
64-byte lines, not n.  After the syrk numpy copies the lower triangle
one column at a time; at a power-of-two stride every write of a column
lands in the same cache sets, and ``x @ x.T`` at 2048 x 2 took 3x as
long into a contiguous block (OpenBLAS, 2-vCPU Haswell VM).  The
products have the same bits at any stride.  The distance finish
``max((|x|^2 + |y|^2) - 2 x.y, 0)`` runs on at most ``_BAND`` rows at a
time, its norm sums in the call's band; a held block is finished over
its whole padded rows, which are contiguous: the pad cells are zeroed
when the block is formed, finished with the rows and never read.  A
held block's band is finished when the kernel pass first reaches it, so
the pass reads it while it is still in cache.

The kernel pass sums yy, then xx, then xy, each block formed once, when
the pass first reaches it, so one block is held at a time.  The kernel
sums walk numpy's pairwise-sum tree over each row-major block
(``_kernel_sum``).  Each leaf's rows are multiplied by -gamma, in place
for one column and into the band for a held block, which keeps its
distances; there the leaf is a contiguous run that is exponentiated and
added while it is hot, so the sums equal ``k.sum()`` of the whole kernel
block bit for bit.  The diagonal traces are read from the held block
after its sum.  Elementwise steps give the same bits in any layout, so
recorded values equal the pooled-matrix numbers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["median_pair_distance", "mmd_rbf", "sliced_wasserstein"]

# rows per band of every elementwise pass: 64 rows of a 2048-wide block
# (the eval shape) are 1 MiB of float64, inside one core's L2
_BAND = 64
_LEAF = 2**17  # most values per leaf of the kernel-sum walk: 1 MiB of float64


def _stride(n: int) -> int:
    """The row stride of a held block of n columns: the least one at or
    above n that is an odd number of 64-byte lines."""
    return n + (8 - n) % 16


def _finish(prod: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Squared distances max(norms - 2 prod, 0) in the buffer of the
    products x.y, given the norm sums |x|^2 + |y|^2 (left unchanged)."""
    prod *= 2.0
    np.subtract(norms, prod, out=prod)
    return np.maximum(prod, 0.0, out=prod)


def _outer(out: np.ndarray, col: np.ndarray, row: np.ndarray, op: np.ufunc) -> np.ndarray:
    """op(col[:, None], row) in the front of the flat array out, by a
    broadcast copy and an in-place op: the bits of one op with a
    broadcast column, and faster at the eval width of 2048."""
    out = out[: col.size * row.size].reshape(col.size, row.size)
    out[...] = col[:, None]
    return op(out, row, out=out)


class _Buffer:
    """The room one call owns: ``data`` for a whole block of squared
    distances on a padded row stride (none for one-column samples), and
    the ``band`` that both the norm sums of a finish and the scaled rows
    of a kernel-sum leaf use."""

    def __init__(self, size: int, band: int):
        self.data = np.empty(size)
        self.band = np.empty(band)


class _Dists:
    """The squared distances between the rows of x and those of y, read
    by tile: formed on demand for one column, held whole in the buffer
    otherwise (see the module docstring).  The blocks that share a buffer
    are read one after another: forming one overwrites the one before."""

    def __init__(self, x: np.ndarray, y: np.ndarray, buf: _Buffer):
        m, n = self.shape = (len(x), len(y))
        self._buf, self._done = buf, None  # rows finished so far; None until formed
        if x.shape[1] == 1:
            x, y = x[:, 0], y[:, 0]
            self._x_sq, self._y_sq = x**2, y**2  # the bits of (x**2).sum(axis=1)
            self._rows = None
        else:
            self._x_sq = (x**2).sum(axis=1)
            self._y_sq = np.zeros(_stride(n))  # a pad cell's norm sum is |x|^2
            self._y_sq[:n] = (y**2).sum(axis=1)
            self._rows = buf.data[: m * _stride(n)].reshape(m, _stride(n))
        self._x, self._y = x, y

    def _held(self, r1: int) -> np.ndarray:
        """The whole block, its product formed in the buffer when first asked
        for, and its rows finished into distances through r1 at least."""
        rows, n = self._rows, self.shape[1]
        if self._done is None:
            rows[:, n:] = 0.0  # the pad: finished with the rows, never read
            np.matmul(self._x, self._y.T, out=rows[:, :n])  # numpy's syrk when y is x
            self._done = 0
        for lo in range(self._done, r1, _BAND):
            band = rows[lo : lo + _BAND]
            _finish(band, _outer(self._buf.band, self._x_sq[lo : lo + _BAND], self._y_sq, np.add))
            self._done = lo + len(band)
        return rows[:, :n]

    def tile(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0:r1 of the block, which the caller may overwrite: a view
        of it when it is held, formed anew for one column (no larger than
        the band, which holds its norm sums)."""
        if self._rows is not None:
            return self._held(r1)[r0:r1]
        x = self._x[r0:r1]
        prod = _outer(np.empty(x.size * self._y.size), x, self._y, np.multiply)
        return _finish(prod, _outer(self._buf.band, self._x_sq[r0:r1], self._y_sq, np.add))

    def scaled(self, r0: int, r1: int, factor: float) -> np.ndarray:
        """Rows r0:r1 of the block times factor, in a contiguous array the
        caller may overwrite until the next tile: the tile itself for one
        column, the front of the band for a held block, which keeps its
        distances."""
        tile = self.tile(r0, r1)
        out = tile if self._rows is None else self._buf.band[: tile.size].reshape(tile.shape)
        return np.multiply(tile, factor, out=out)

    def diagonal(self) -> np.ndarray:
        """The distances (i, i) of a square block, in the bits of its tiles."""
        if self._rows is not None:
            return self._held(self.shape[0]).diagonal()
        return _finish(self._x * self._y, self._x_sq + self._y_sq)


def _blocks(x: np.ndarray, y: np.ndarray) -> tuple[_Dists, _Dists, _Dists]:
    """xx, yy and xy, sharing one buffer.  Its band holds _BAND padded rows
    of the widest block, or a kernel-sum leaf with the rest of its first
    and last rows."""
    w = max(len(x), len(y))
    band = max(_BAND * _stride(w), _LEAF + 2 * w)
    buf = _Buffer(0 if x.shape[1] == 1 else w * _stride(w), band)
    return _Dists(x, x, buf), _Dists(y, y, buf), _Dists(x, y, buf)


def _kernel_sum(sq: _Dists, gamma: float, start: int, size: int) -> np.float64:
    """The sum of exp(-gamma d) over the values d at flat positions
    start:start+size of the row-major block, in the bits of ``k.sum()``.

    numpy's pairwise sum splits a run of more than 128 values at half its
    length, rounded down to a multiple of 8, and adds the sums of the two
    halves.  The walk follows that tree down to runs of at most _LEAF
    values; the rows of each such leaf are formed and scaled by -gamma
    into a contiguous array (``_Dists.scaled``), and the leaf's run of
    them is turned into kernel values in place and summed (by the same
    tree below it) while it is hot.  A held block keeps its distances.

    This is a module-level function on purpose: a recursive closure nested
    in mmd_rbf would be a reference cycle (it holds its own cell), keeping
    the blocks it closes over alive until the cycle collector runs.
    """
    if size > _LEAF:
        half = size // 2 - size // 2 % 8
        return _kernel_sum(sq, gamma, start, half) + _kernel_sum(sq, gamma, start + half, size - half)
    n = sq.shape[1]
    first = start // n
    rows = sq.scaled(first, (start + size - 1) // n + 1, -gamma)
    leaf = rows.reshape(-1)[start - first * n :][:size]
    np.exp(leaf, out=leaf)
    return leaf.sum()


def median_pair_distance(sample: np.ndarray) -> float:
    """The median distance between rows i and h + i of a sample, i < h =
    len(sample) // 2: the median heuristic's kernel bandwidth (Gretton et
    al. 2012, "A kernel two-sample test") from h disjoint pairs, in O(h)."""
    h = len(sample) // 2
    return float(np.median(np.linalg.norm(sample[:h] - sample[h : 2 * h], axis=1)))


def mmd_rbf(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """Unbiased squared maximum mean discrepancy with a Gaussian kernel of
    the given bandwidth (a number > 0).

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

    if not bandwidth > 0:
        raise ValueError("degenerate bandwidth")
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)

    # yy, xx, then xy, each formed once; each trace after its sum, whose
    # walk leaves a held block finished
    xx, yy, xy = _blocks(x, y)
    sum_yy = _kernel_sum(yy, gamma, 0, n * n) - np.exp(yy.diagonal() * -gamma).sum()
    sum_xx = _kernel_sum(xx, gamma, 0, m * m) - np.exp(xx.diagonal() * -gamma).sum()
    mean_xy = _kernel_sum(xy, gamma, 0, m * n) / (m * n)  # as np.mean divides
    return float(sum_xx / (m * (m - 1)) + sum_yy / (n * (n - 1)) - 2.0 * mean_xy)


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
