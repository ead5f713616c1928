"""Dyadic-grid functionals of sampled paths.

All sums are compensated (Kahan) and run in a fixed term order, so results
are bitwise reproducible and independent of how paths were batched.  Every
operation accepts a single sample (time axis only) or a batch with leading
axes; the time axis must hold 2^n + 1 dyadic samples.

The quadratic-variation calibration: for the coordinate of a process with
generator div(a grad) under a = Id, QV along dyadic grids converges to 2 S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch


def kahan_sum(terms, axis=-1):
    """Compensated sum along one axis, fixed left-to-right term order."""
    a = np.asarray(terms, dtype=float)
    a = np.moveaxis(a, axis, -1)
    if a.ndim == 1:
        # the same loop in Python floats: IEEE doubles like float64, so the
        # bytes agree, without a NumPy scalar operation per term
        s = c = 0.0
        for v in a.tolist():
            y = v - c
            t = s + y
            c = (t - s) - y
            s = t
        return s
    s = np.zeros(a.shape[:-1])
    c = np.zeros_like(s)
    for j in range(a.shape[-1]):
        y = a[..., j] - c
        t = s + y
        c = (t - s) - y
        s = t
    return s if s.ndim else float(s)


def _check_dyadic(length, what="values"):
    m = length - 1
    if m < 1 or (m & (m - 1)) != 0:
        raise LengthMismatch(
            f"{what} must hold 2^n + 1 dyadic samples, got {length}")
    return m


def quadratic_variation(values):
    """Sum of squared increments along the last axis.

    values: (..., 2^n + 1) samples of a scalar process on D_n.
    """
    values = np.asarray(values, dtype=float)
    _check_dyadic(values.shape[-1])
    d = np.diff(values, axis=-1)
    return kahan_sum(d * d)


@dataclass
class CovariationResult:
    """Signed covariation sum and the companion absolute sum."""

    value: np.ndarray | float
    abs_value: np.ndarray | float


def covariation(f_values, x_values):
    """Sum of products of increments, with its absolute version.

    Both inputs are (..., 2^n + 1) scalar samples on the same grid.
    Returns the pair (sum df dx, sum |df dx|).
    """
    f = np.asarray(f_values, dtype=float)
    x = np.asarray(x_values, dtype=float)
    _check_dyadic(f.shape[-1])
    if f.shape[-1] != x.shape[-1]:
        raise LengthMismatch(
            f"sample lengths differ: {f.shape[-1]} vs {x.shape[-1]}")
    prod = np.diff(f, axis=-1) * np.diff(x, axis=-1)
    return CovariationResult(value=kahan_sum(prod),
                             abs_value=kahan_sum(np.abs(prod)))


def forward_sum(grad_values, x_values):
    """Left-endpoint Riemann sum  sum_i g(t_i) . (x_{i+1} - x_i).

    grad_values: (..., 2^n + 1, d); x_values: (..., 2^n + 1, d).
    """
    g = np.asarray(grad_values, dtype=float)
    x = np.asarray(x_values, dtype=float)
    _check_dyadic(g.shape[-2], "grad samples")
    if g.shape != x.shape:
        raise LengthMismatch(f"shape mismatch: {g.shape} vs {x.shape}")
    terms = (g[..., :-1, :] * np.diff(x, axis=-2)).sum(axis=-1)
    return kahan_sum(terms)


def trapezoid_sum(grad_values, x_values):
    """Trapezoid sum  sum_i (g(t_i) + g(t_{i+1}))/2 . (x_{i+1} - x_i)."""
    g = np.asarray(grad_values, dtype=float)
    x = np.asarray(x_values, dtype=float)
    _check_dyadic(g.shape[-2], "grad samples")
    if g.shape != x.shape:
        raise LengthMismatch(f"shape mismatch: {g.shape} vs {x.shape}")
    mid = 0.5 * (g[..., :-1, :] + g[..., 1:, :])
    terms = (mid * np.diff(x, axis=-2)).sum(axis=-1)
    return kahan_sum(terms)


def mean_stderr(values):
    """Compensated mean and standard error of a 1-d sample."""
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    m = kahan_sum(v) / n
    if n < 2:
        return float(m), 0.0
    var = kahan_sum((v - m) ** 2) / (n - 1)
    return float(m), float(np.sqrt(var / n))
