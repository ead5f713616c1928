"""Dyadic-grid functionals of sampled paths.

All sums are compensated (Kahan) and run in a fixed term order, so results
are bitwise reproducible and independent of how paths were batched.  The
engine computes every functional of one dyadic grid in one pass,
:func:`grid_sums`: it takes the states and the test function F, walks the
grid's increments in time-major blocks of rows, evaluates F and grad F on
each block, writes every term of the block into one buffer, and runs one
compensated loop over the buffer's rows in time order.  The result is one
fixed record per grid, whatever the caller reports from it.  F must be
pointwise over leading axes, as every catalog entry is: its value at a
state depends on that state alone, so a block's values are those of the
whole grid.  Every term is elementwise, so the bytes depend neither on the
block size nor on the batch size, and a path batch never holds F or grad F
beyond one block.  The lone functionals :func:`quadratic_variation`,
:func:`covariation`, :func:`forward_sum` and :func:`trapezoid_sum` are the
references the tests hold that pass to, bit for bit; each accepts a single
sample (time axis only) or a batch with leading axes.  A time axis must
hold 2^n + 1 dyadic samples.

The quadratic-variation calibration: for the coordinate of a process with
generator div(a grad) under a = Id, QV along dyadic grids converges to 2 S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Error

# increments per time-major block of grid_sums; bytes do not depend on it
_BLOCK_ROWS = 64


def _kahan_rows(blocks, shape):
    """Compensated sum of every row of every block, in order: the one
    compensated loop.  ``blocks`` yields arrays whose rows have ``shape``."""
    s = np.zeros(shape)
    c = np.zeros_like(s)
    for block in blocks:
        for row in block:
            y = row - c
            t = s + y
            c = (t - s) - y
            s = t
    return s


def kahan_sum(terms):
    """Compensated sum along the last axis, fixed left-to-right term order."""
    a = np.asarray(terms, dtype=float)
    s = _kahan_rows([np.moveaxis(a, -1, 0)], a.shape[:-1])
    return s if s.ndim else float(s)


def _check_dyadic(length, what="values"):
    m = length - 1
    if m < 1 or (m & (m - 1)) != 0:
        raise Error(f"{what} must hold 2^n + 1 dyadic samples, got {length}")
    return m


def grid_sums(states, F):
    """Compensated sums of every term over one dyadic grid.

    states: (B, 2^n + 1, d); F: a test function whose ``value`` and
    ``gradient`` are pointwise over leading axes.  F and g = grad F are
    evaluated block by block on contiguous time-major copies of the states.
    The terms of increment i, with dF = F_{i+1} - F_i and
    dx = x_{i+1} - x_i:

      "qv"       dF^2                         (quadratic_variation of F)
      "fwd"      g_i . dx                     (forward_sum)
      "trap"     (g_i + g_{i+1})/2 . dx       (trapezoid_sum)
      "taylor"   |dF - g_i . dx|              (the Taylor remainder)
      "cov"      dg_k dx_k, one per axis k    (covariation(g_k, x_k).value)
      "cov_abs"  |dg_k dx_k|                  (its abs_value)

    Returns the grid's record: {term: (B,) sums, or (d, B) for "cov" and
    "cov_abs"}, equal bit for bit to the lone references named above on F
    and g at the states; "v": (2, B) F at the grid's first and last states,
    read from the pass's first and last blocks; and "finite": (B,) True
    where F and g are finite at every state.  The d-axis sums run over the
    last axis of time-major (rows, B, d) blocks, the order NumPy gives the
    references' (B, rows, d) products.
    """
    x = np.asarray(states, dtype=float)
    m = _check_dyadic(x.shape[-2], "states")
    b, d = x.shape[0], x.shape[-1]
    # buffer rows: qv, fwd, trap, taylor, then d rows of cov and of cov_abs
    buf = np.empty((min(_BLOCK_ROWS, m), 4 + 2 * d, b))
    finite = np.ones(b, dtype=bool)
    ends = [None, None]

    def blocks():
        for i0 in range(0, m, _BLOCK_ROWS):
            i1 = min(i0 + _BLOCK_ROWS, m)
            out = buf[:i1 - i0]
            xt = np.ascontiguousarray(x[:, i0:i1 + 1].transpose(1, 0, 2))
            vt = F.value(xt)
            gt = F.gradient(xt)
            np.logical_and(finite, np.isfinite(vt).all(axis=0)
                           & np.isfinite(gt).all(axis=(0, 2)), out=finite)
            if i0 == 0:
                ends[0] = vt[0]
            ends[1] = vt[-1]
            dv = vt[1:] - vt[:-1]
            dx = xt[1:] - xt[:-1]
            np.multiply(dv, dv, out=out[:, 0])
            gdx = (gt[:-1] * dx).sum(axis=-1)
            out[:, 1] = gdx
            mid = 0.5 * (gt[:-1] + gt[1:])
            out[:, 2] = (mid * dx).sum(axis=-1)
            np.abs(dv - gdx, out=out[:, 3])
            prod = ((gt[1:] - gt[:-1]) * dx).transpose(0, 2, 1)
            out[:, 4:4 + d] = prod
            np.abs(prod, out=out[:, 4 + d:])
            yield out

    # a path whose F or g is not finite somewhere is reported by
    # "finite", not by a warning from its sums
    with np.errstate(invalid="ignore"):
        s = _kahan_rows(blocks(), (4 + 2 * d, b))
    return {"qv": s[0], "fwd": s[1], "trap": s[2], "taylor": s[3],
            "cov": s[4:4 + d], "cov_abs": s[4 + d:], "v": np.stack(ends),
            "finite": finite}


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
        raise Error(f"sample lengths differ: {f.shape[-1]} vs {x.shape[-1]}")
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
        raise Error(f"shape mismatch: {g.shape} vs {x.shape}")
    terms = (g[..., :-1, :] * np.diff(x, axis=-2)).sum(axis=-1)
    return kahan_sum(terms)


def trapezoid_sum(grad_values, x_values):
    """Trapezoid sum  sum_i (g(t_i) + g(t_{i+1}))/2 . (x_{i+1} - x_i)."""
    g = np.asarray(grad_values, dtype=float)
    x = np.asarray(x_values, dtype=float)
    _check_dyadic(g.shape[-2], "grad samples")
    if g.shape != x.shape:
        raise Error(f"shape mismatch: {g.shape} vs {x.shape}")
    mid = 0.5 * (g[..., :-1, :] + g[..., 1:, :])
    terms = (mid * np.diff(x, axis=-2)).sum(axis=-1)
    return kahan_sum(terms)


def mean_stderr(values):
    """Compensated mean and standard error of the samples along the last
    axis: two floats for a 1-d sample, two arrays over the leading axes of
    a stacked one."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    m = kahan_sum(v) / n
    if n < 2:
        se = np.zeros_like(m)
    else:
        var = kahan_sum((v - np.expand_dims(m, -1)) ** 2) / (n - 1)
        se = np.sqrt(var / n)
    return (float(m), float(se)) if v.ndim == 1 else (m, se)
