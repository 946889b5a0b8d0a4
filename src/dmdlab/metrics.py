"""Distribution-level evaluation: sliced Wasserstein distance, per-sample
statistics and mode coverage."""

import math

import numpy as np

from .data import MixtureSpec
from .net import NonFiniteError


CSV_COLUMNS = ["iteration", "sw2", "mean_of_means", "mean_of_vars",
               "mode_coverage", "loss_proxy", "loss_fake", "loss_reg",
               "tau_ca", "tau_dm", "t"]

RADIUS_MULT = 3.0  # mode_coverage's hit radius, in sigmas


def csv_row(values: dict) -> list:
    """One metrics.csv row: the CSV_COLUMNS of values in order, the iteration
    as an integer, then each value's repr; every other key is ignored."""
    for c in CSV_COLUMNS:
        v = values.get(c)
        if v is None or not np.isfinite(v):
            raise NonFiniteError(f"metrics.csv column {c} is not finite: {v}",
                                 {"field": c})
    return ([str(values["iteration"])]
            + [repr(float(values[c])) for c in CSV_COLUMNS[1:]])


def _quantile_grid(n: int, m: int):
    """Merged grid of two piecewise-constant quantile functions with n and m
    levels: the width of each cell and, per cell, the index of the order
    statistic each sample set takes there."""
    qs = np.sort(np.concatenate([np.arange(n + 1) / n, np.arange(1, m) / m]))
    edges = qs[np.diff(qs, prepend=-1.0) > 0]  # numpy set routines load numpy.ma
    widths = np.diff(edges)
    mids = (edges[:-1] + edges[1:]) / 2
    ia = np.minimum((mids * n).astype(int), n - 1)
    ib = np.minimum((mids * m).astype(int), m - 1)
    return widths, ia, ib


def wasserstein2_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Exact 1-D 2-Wasserstein distance between empirical distributions,
    allowing unequal sample counts (piecewise-constant quantile functions)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("empty sample set")
    widths, ia, ib = _quantile_grid(n, m)
    return float(np.sqrt(np.sum(widths * (a[ia] - b[ib]) ** 2)))


# Projections processed together; bounds the working set to a few rows of
# projected and gathered samples instead of all n_proj of them.
_PROJ_BLOCK = 16


def sliced_wasserstein2(A: np.ndarray, B: np.ndarray, n_proj: int,
                        rng: np.random.Generator) -> float:
    """Mean over n_proj random unit projections of the exact 1-D W2
    distance; rng is required, since it draws the projections.

    Bit-identical to averaging wasserstein2_1d(A @ v, B @ v) over directions
    v drawn one at a time, and consumes the same draws from rng: each
    direction gets its own normalization and matrix-vector product, rows are
    gathered into C-contiguous blocks before summing, and the per-projection
    distances are added in projection order.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch between sample sets")
    if A.shape[1] == 0:
        raise ValueError("zero-dimensional samples")
    if n_proj < 1:
        raise ValueError(f"n_proj must be at least 1, got {n_proj}")
    n, m = len(A), len(B)
    if n == 0 or m == 0:
        raise ValueError("empty sample set")
    V = rng.standard_normal((n_proj, A.shape[1]))
    for v in V:
        v /= math.sqrt(v.dot(v))  # np.linalg.norm's formula, minus its wrapper
    widths, ia, ib = _quantile_grid(n, m)
    PA = np.empty((_PROJ_BLOCK, n))
    PB = np.empty((_PROJ_BLOCK, m))
    total = 0.0
    for start in range(0, n_proj, _PROJ_BLOCK):
        block = V[start:start + _PROJ_BLOCK]
        pa, pb = PA[:len(block)], PB[:len(block)]
        for i, v in enumerate(block):
            np.matmul(A, v, out=pa[i])
            np.matmul(B, v, out=pb[i])
        pa.sort(axis=1)
        pb.sort(axis=1)
        gap = np.take(pa, ia, axis=1)
        gap -= np.take(pb, ib, axis=1)
        gap *= gap
        gap *= widths
        for x in np.sqrt(gap.sum(axis=1)):
            total += float(x)
    return total / n_proj


def batch_sample_stats(batch: np.ndarray):
    """Per-sample mean and population variance across each sample's coords."""
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[1] < 2:
        raise ValueError("per-sample variance needs dim >= 2")
    means = batch.mean(axis=1)
    variances = batch.var(axis=1)
    return means, variances


def mode_coverage(samples: np.ndarray, spec: MixtureSpec, cond: int) -> float:
    """Fraction of the condition's modes with at least one sample within
    RADIUS_MULT sigmas (per-coordinate normalized distance) of the center."""
    comps = spec.components_for(cond)
    samples = np.asarray(samples)
    if samples.size == 0:
        return 0.0
    hit = 0
    for c in comps:
        z = (samples - c.center) / np.sqrt(c.cov)
        if np.any(np.sqrt((z ** 2).sum(axis=1)) <= RADIUS_MULT):
            hit += 1
    return hit / len(comps)
