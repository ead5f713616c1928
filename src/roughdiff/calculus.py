"""Dyadic-grid functionals of sampled paths.

All sums are compensated (Kahan) and run in a fixed term order, so results
are bitwise reproducible and independent of how paths were batched.  The
engine computes every functional of one dyadic grid in one pass,
:class:`GridPass`, fed the grid's states block by block as a sampler
gives them out: it walks the grid's increments in time-major blocks of
rows, evaluates F and grad F on each block, writes every term of the
block into one buffer, and runs one compensated loop over the buffer's
rows in time order.  The result is one
fixed record per grid, whatever the caller reports from it.  F must be
pointwise over leading axes, as every catalog entry is: its value at a
state depends on that state alone, so a block's values are those of the
whole grid.  Every term is elementwise, so the bytes depend neither on the
block sizes nor on the batch size, and a path batch never holds F or
grad F beyond one block.  The lone functionals :func:`quadratic_variation`,
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

# increments per time-major block of a GridPass; bytes do not depend on it
_BLOCK_ROWS = 64


def _kahan_rows(blocks, s, c):
    """Compensated sum of every row of every block, in order, onto the sum
    ``s`` with compensation ``c``: the one compensated loop.  ``blocks``
    yields arrays whose rows have the shape of s; returns the new (s, c)."""
    for block in blocks:
        for row in block:
            y = row - c
            t = s + y
            c = (t - s) - y
            s = t
    return s, c


def kahan_sum(terms):
    """Compensated sum along the last axis, fixed left-to-right term order."""
    a = np.asarray(terms, dtype=float)
    s, _ = _kahan_rows([np.moveaxis(a, -1, 0)], np.zeros(a.shape[:-1]),
                       np.zeros(a.shape[:-1]))
    return s if s.ndim else float(s)


def _check_dyadic(length, what="values"):
    m = length - 1
    if m < 1 or (m & (m - 1)) != 0:
        raise Error(f"{what} must hold 2^n + 1 dyadic samples, got {length}")
    return m


class GridPass:
    """The compensated pass over one dyadic grid of B paths in d
    dimensions, fed the grid's states block by block.

    Each :meth:`feed` takes the next consecutive states (B, k, d), any k,
    strided or not.  F and g = grad F are evaluated once per state, on
    contiguous time-major copies of at most _BLOCK_ROWS + 1 states; the
    pass carries each term's sum and compensation, the finite mask, F at
    the first state, and the last state with its F and g, so an increment
    may straddle two feeds.  Every term is elementwise and the rows are
    summed in time order, so the bytes of :meth:`record` depend neither on
    how the states were split nor on B.
    """

    def __init__(self, F, b, d):
        self.F, self.d = F, d
        # rows: qv, fwd, trap, taylor, then d rows of cov and of cov_abs
        self.s = np.zeros((4 + 2 * d, b))
        self.c = np.zeros_like(self.s)
        self.finite = np.ones(b, dtype=bool)
        self.first = None   # F at the grid's first state
        self.last = None    # (x, F, g) at the last state fed, each (1, B, ...)
        self.fed = 0        # states fed so far

    def feed(self, states):
        """Take the grid's next states (B, k, d), in time order."""
        # no warnings: a path whose F or g overflows or is not finite is
        # reported by "finite", and so is a sum that overflows
        with np.errstate(invalid="ignore", over="ignore"):
            self.s, self.c = _kahan_rows(self._terms(states), self.s, self.c)
        self.fed += states.shape[1]

    def _terms(self, x):
        """Yield the term rows of each time-major block of increments, in
        one buffer of at most _BLOCK_ROWS rows."""
        b, k, d = x.shape
        buf = np.empty((min(_BLOCK_ROWS, k), 4 + 2 * d, b))
        j = 0
        while j < k:
            head = 0 if self.last is None else 1
            take = min(_BLOCK_ROWS + 1 - head, k - j)
            xt = np.empty((head + take, b, d))
            xt[head:] = x[:, j:j + take].transpose(1, 0, 2)
            vt, gt = self.F.value(xt[head:]), self.F.gradient(xt[head:])
            if head:
                xt[:1] = self.last[0]
                vt = np.concatenate([self.last[1], vt])
                gt = np.concatenate([self.last[2], gt])
            else:
                self.first = vt[0].copy()
            np.logical_and(self.finite, np.isfinite(vt).all(axis=0)
                           & np.isfinite(gt).all(axis=(0, 2)), out=self.finite)
            self.last = (xt[-1:].copy(), vt[-1:].copy(), gt[-1:].copy())
            j += take
            if xt.shape[0] > 1:
                yield _increment_terms(buf[:xt.shape[0] - 1], xt, vt, gt)

    def record(self):
        """The grid's record, once every state is fed.  The terms of
        increment i, with dF = F_{i+1} - F_i and dx = x_{i+1} - x_i:

          "qv"       dF^2                         (quadratic_variation of F)
          "fwd"      g_i . dx                     (forward_sum)
          "trap"     (g_i + g_{i+1})/2 . dx       (trapezoid_sum)
          "taylor"   |dF - g_i . dx|              (the Taylor remainder)
          "cov"      dg_k dx_k, one per axis k    (covariation(g_k, x_k).value)
          "cov_abs"  |dg_k dx_k|                  (its abs_value)

        Returns {term: (B,) sums, or (d, B) for "cov" and "cov_abs"},
        equal bit for bit to the lone references named above on F and g
        at the states; "v": (2, B) F at the grid's first and last states;
        and "finite": (B,) True where F and g are finite at every state
        and every sum over the grid is finite.  The d-axis sums run over
        the last axis of time-major (rows, B, d) blocks, the order NumPy
        gives the references' (B, rows, d) products.
        """
        _check_dyadic(self.fed, "states")
        s, d = self.s, self.d
        return {"qv": s[0], "fwd": s[1], "trap": s[2], "taylor": s[3],
                "cov": s[4:4 + d], "cov_abs": s[4 + d:],
                "v": np.stack([self.first, self.last[1][0]]),
                "finite": self.finite & np.isfinite(s).all(axis=0)}


def _increment_terms(out, xt, vt, gt):
    """Write into ``out`` (rows - 1, 4 + 2d, B) the terms of the increments
    of time-major states xt (rows, B, d) with F values vt and gradients
    gt; returns out."""
    d = xt.shape[-1]
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
    return out


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


def streamed_mean_stderr(blocks, n):
    """mean_stderr, bit for bit, of n samples given out in blocks, without
    the table that stacks them.

    ``blocks()`` yields (k, ...) arrays, each holding the next k samples
    of every functional, and is called twice: one compensated pass sums
    the samples for the mean, the next sums their squared deviations from
    it.  Returns two arrays over the functionals."""
    m = _kahan_rows(blocks(), 0.0, 0.0)[0] / n
    if n < 2:
        return m, np.zeros_like(m)
    squares = _kahan_rows(((v - m) ** 2 for v in blocks()), 0.0, 0.0)[0]
    return m, np.sqrt(squares / (n - 1) / n)
