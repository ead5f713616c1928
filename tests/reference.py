"""Exact references the kernel tests compare the engine against, and the
byte digest the catalog pins read.

Nothing in ``roughdiff`` reaches these, so they live with the tests.  The
file name does not match ``test_*.py``, so pytest imports it only where a
test module does.
"""

import hashlib

import numpy as np

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


def pin_digest(arr):
    """First 16 hex digits of the SHA-256 of the array's float bytes, every
    NaN written as numpy's own: only a NaN's payload is left unpinned."""
    arr = np.asarray(arr, dtype=float)
    return hashlib.sha256(np.where(np.isnan(arr), np.nan, arr).tobytes()
                          ).hexdigest()[:16]
