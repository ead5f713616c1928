"""Exact references the kernel tests compare the engine against, the
sparse finite-volume operator with its SuperLU solves, the KDE table by
np.histogramdd and a second table per convolution, the one-point
initial-law sampler the vectorized draw is pinned to, and the byte
digest the catalog pins read.

Nothing in ``roughdiff`` reaches these, so they live with the tests.  The
file name does not match ``test_*.py``, so pytest imports it only where a
test module does.
"""

import hashlib

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from roughdiff import kernels


def exact_brownian_kernel(dim, t, x, y):
    """Transition density of the generator Laplacian: a Gaussian with
    per-coordinate variance 2t."""
    t = kernels._check_time(t)
    return (4.0 * np.pi * t) ** (-dim / 2.0) * np.exp(
        -kernels._sqdist(x, y) / (4.0 * t))


def tabulate_kernel(fn, box, h, times, x0, dim=1):
    """GridKernel with values fn(t, points) on the vertex grid; fn must
    map (t, (N, d)) to (N,) densities."""
    axes, _ = kernels._axes_volumes(box, h, dim)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    shape = tuple(ax.shape[0] for ax in axes)
    times = np.asarray(times, dtype=float)
    values = np.stack([np.asarray(fn(t, pts)).reshape(shape) for t in times])
    return kernels.GridKernel(axes=axes, h=h, times=times, values=values,
                              source=x0)


def flux_matrix(couplings, shape):
    """The face-flux operator S of kernels._assemble_operator's couplings
    as a scipy CSR matrix: each face between nodes m and n adds c to
    entries (m, n) and (n, m) and takes c from (m, m) and (n, n)."""
    n_total = int(np.prod(shape))
    idx = np.arange(n_total).reshape(shape)
    rows, cols, vals = [], [], []
    for k, c in enumerate(couplings):
        lo, hi = kernels._faces(k)
        m, n, c = idx[lo].ravel(), idx[hi].ravel(), c.ravel()
        rows += [m, n, m, n]
        cols += [n, m, m, n]
        vals += [c, c, -c, -c]
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_total, n_total)).tocsr()


def superlu_potential(field, nu, box, h):
    """The grid potential's node values by one SuperLU solve of
    (V - S) u = m, m the law's mass per node: the direct solve the
    conjugate gradients of the grid route are checked against."""
    axes, vols = kernels.fv_grid(field, box, h)
    couplings, vol, shape = kernels._assemble_operator(field, axes, vols, h)
    K = sparse.diags(vol) - flux_matrix(couplings, shape)
    lu = splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A")
    return lu.solve(kernels._node_mass(nu, axes, h).ravel()).reshape(shape)


def kde_field(samples, bw, dim, params):
    """The Monte Carlo potential's table the direct way: the clipped
    samples binned by np.histogramdd, the counts divided by n, then each
    line along each axis convolved into a second table.  The KDE route
    is checked against it bit for bit."""
    bin_h = bw / 10.0 if dim == 1 else bw / 5.0
    center = np.median(samples, axis=0)
    samples = np.clip(samples, center - kernels.KDE_MAX_HALFWIDTH,
                      center + kernels.KDE_MAX_HALFWIDTH)
    lo = samples.min(axis=0) - 5.0 * bw
    hi = samples.max(axis=0) + 5.0 * bw
    kx = np.arange(-5 * bw, 5 * bw + bin_h / 2, bin_h)
    kern = np.exp(-0.5 * (kx / bw) ** 2)
    kern /= kern.sum() * bin_h
    dens, edges = np.histogramdd(
        samples, bins=[np.arange(a, b + bin_h, bin_h) for a, b in zip(lo, hi)])
    dens /= samples.shape[0]
    for k in range(dim):
        lines, out = np.moveaxis(dens, k, -1), np.empty(dens.shape)
        conv = np.moveaxis(out, k, -1)
        for i in np.ndindex(lines.shape[:-1]):
            conv[i] = np.convolve(lines[i], kern, mode="same")
        dens = out
    return kernels.PotentialField(route="monte-carlo-kde", dim=dim,
                                  params=params,
                                  axes=[0.5 * (e[:-1] + e[1:]) for e in edges],
                                  values=dens)


def _sample_axis(u, cum, edges):
    """Inverse CDF within a piecewise-constant axis."""
    k = int(np.searchsorted(cum, u, side="right"))
    k = min(k, cum.shape[0] - 1)
    lo = cum[k - 1] if k > 0 else 0.0
    p = cum[k] - lo
    frac = (u - lo) / p if p > 0 else 0.0
    return edges[k] + frac * (edges[k + 1] - edges[k])


def sample_initial(law, rng):
    """One starting point from a Dirac, a mixture or a grid density in
    d <= 2, drawn from the generator one uniform at a time."""
    if law.kind == "dirac":
        return law.points[0].copy()
    if law.kind == "mixture":
        u = rng.random()
        k = int(np.searchsorted(np.cumsum(law.weights), u, side="right"))
        k = min(k, law.weights.shape[0] - 1)
        return law.points[k].copy()
    if len(law.edges) == 1:
        cum = np.cumsum(law.cell_probs)
        return np.array([_sample_axis(rng.random(), cum, law.edges[0])])
    marg = law.cell_probs.sum(axis=1)
    u1, u2 = rng.random(), rng.random()
    cum1 = np.cumsum(marg)
    i = min(int(np.searchsorted(cum1, u1, side="right")), marg.shape[0] - 1)
    x1_lo = cum1[i - 1] if i > 0 else 0.0
    frac = (u1 - x1_lo) / marg[i] if marg[i] > 0 else 0.0
    x1 = law.edges[0][i] + frac * (law.edges[0][i + 1] - law.edges[0][i])
    cond = law.cell_probs[i]
    cum2 = np.cumsum(cond / cond.sum())
    x2 = _sample_axis(u2, cum2, law.edges[1])
    return np.array([x1, x2])


def pin_digest(arr):
    """First 16 hex digits of the SHA-256 of the array's float bytes, every
    NaN written as numpy's own: only a NaN's payload is left unpinned."""
    arr = np.asarray(arr, dtype=float)
    return hashlib.sha256(np.where(np.isnan(arr), np.nan, arr).tobytes()
                          ).hexdigest()[:16]
