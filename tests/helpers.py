"""Shared test helpers."""

import numpy as np

from ratiogan.nets import NetSpec, init_net


def quasi_linear_net(w_hidden, w_out, bias_shift=30.0):
    """[d,k,1] smooth-leaky net pushed deep into its unit-slope asymptote.

    With a large positive hidden bias the smooth-leaky unit is linear to
    within e^-30, so D(x) ~ w_out @ (w_hidden x + shift) and the input
    gradient is the constant w_out @ w_hidden.
    """
    k, d = w_hidden.shape
    spec = NetSpec(widths=(d, k, 1), hidden="smooth_leaky", squash=None, seed=0)
    net = init_net(spec)
    net.weights[0][:] = w_hidden
    net.biases[0][:] = bias_shift
    net.weights[1][:] = w_out
    net.biases[1][:] = 0.0
    return net


def _pooled_sq_dists(x, y):
    x_sq = (x**2).sum(axis=1)[:, None]
    y_sq = (y**2).sum(axis=1)[None, :]
    return np.maximum(x_sq + y_sq - 2.0 * (x @ y.T), 0.0)


def pooled_mmd_rbf(x, y, bandwidth="median"):
    """Oracle for metrics.mmd_rbf: the bandwidth from the pooled matrix.

    The median-heuristic bandwidth is the median of the strict upper
    triangle of the full (m+n)^2 distance matrix of the pooled sample;
    the three kernel blocks are then built from scratch.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    m, n = len(x), len(y)
    if bandwidth == "median":
        pooled = np.vstack([x, y])
        d = _pooled_sq_dists(pooled, pooled)
        bw = float(np.sqrt(np.median(d[np.triu_indices(len(pooled), k=1)])))
    else:
        bw = float(bandwidth)
    if bw <= 0:
        raise ValueError("degenerate bandwidth")
    gamma = 1.0 / (2.0 * bw * bw)
    k_xx = np.exp(-gamma * _pooled_sq_dists(x, x))
    k_yy = np.exp(-gamma * _pooled_sq_dists(y, y))
    k_xy = np.exp(-gamma * _pooled_sq_dists(x, y))
    sum_xx = k_xx.sum() - np.trace(k_xx)
    sum_yy = k_yy.sum() - np.trace(k_yy)
    return float(sum_xx / (m * (m - 1)) + sum_yy / (n * (n - 1)) - 2.0 * k_xy.mean())
