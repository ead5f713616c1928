"""Exact references the kernel tests compare the engine against, the
sparse finite-volume operator with its SuperLU solves, and the byte
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


def pin_digest(arr):
    """First 16 hex digits of the SHA-256 of the array's float bytes, every
    NaN written as numpy's own: only a NaN's payload is left unpinned."""
    arr = np.asarray(arr, dtype=float)
    return hashlib.sha256(np.where(np.isnan(arr), np.nan, arr).tobytes()
                          ).hexdigest()[:16]
