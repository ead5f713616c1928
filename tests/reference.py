"""Exact references the kernel tests compare the engine against, the
sparse finite-volume operator with its SuperLU solves, the KDE table by
np.histogramdd and a second table per convolution, the one-point
initial-law sampler the vectorized draw is pinned to, the constant-field
Euler-Maruyama batch in one accumulate that the sampler's blocks are
pinned to, the two-axis bilinear reads the d-linear table read is pinned
to in 2-d, the mollified diagonal by piecewise Gauss-Legendre over the
base's own values, and the byte digest the catalog pins read.

Nothing in ``roughdiff`` reaches these, so they live with the tests.  The
file name does not match ``test_*.py``, so pytest imports it only where a
test module does.
"""

import hashlib

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from roughdiff import kernels, sampling


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


def _blend(corner, fu, fv):
    """The bilinear four-term sum over corner(di, dj), the values at cell
    offset (di, dj), in the order both bilinear reads share."""
    return (corner(0, 0) * (1 - fu) * (1 - fv) + corner(1, 0) * fu * (1 - fv)
            + corner(0, 1) * (1 - fu) * fv + corner(1, 1) * fu * fv)


def bilinear(axes, values, pts):
    """A 2-d table read at points (..., 2) by fancy indexing; 0 off the
    table."""
    (i, fu, in0), (j, fv, in1) = (kernels._axis_cells(ax, pts[..., k])
                                  for k, ax in enumerate(axes))
    out = _blend(lambda di, dj: values[i + di, j + dj], fu, fv)
    return np.where(in0 & in1, out, 0.0)


def bilinear_grid(axes, values, qaxes):
    """bilinear on the tensor grid of qaxes, each axis's cells found once:
    rows gathered by i, columns by j."""
    (i, fu, in0), (j, fv, in1) = (kernels._axis_cells(ax, q)
                                  for ax, q in zip(axes, qaxes))
    rows = (values[i], values[i + 1])
    out = _blend(lambda di, dj: rows[di].take(j + dj, axis=1),
                 fu[:, None], fv)
    return np.where(in0[:, None] & in1, out, 0.0)


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


def joined(blocks):
    """A batch's states (B, T', d): the blocks a sampler gives out, joined
    along time."""
    return np.concatenate(list(blocks), axis=1)


def em_constant_states(field, law, horizon, fine_step, seed, path_ids,
                       stride=1):
    """A constant-field Euler-Maruyama batch (B, T', d) made whole: each
    path's scaled normals drawn in one call, then one np.add.accumulate
    over every recorded step of the batch."""
    nsteps = sampling._nsteps(horizon, fine_step, stride)
    gens = [sampling.path_rng(seed, pid) for pid in path_ids]
    x = sampling._start_points(law, gens, field.dim)
    out = np.empty((len(gens), nsteps // stride + 1, field.dim))
    out[:, 0] = x
    scale = np.sqrt(2.0 * field._diag_many(x[:1])[0]) * np.sqrt(
        stride * fine_step)
    for b, g in enumerate(gens):
        g.standard_normal(out=out[b, 1:])
        out[b, 1:] *= scale
    return np.add.accumulate(out, axis=1, out=out)


def pin_digest(arr):
    """First 16 hex digits of the SHA-256 of the array's float bytes, every
    NaN written as numpy's own: only a NaN's payload is left unpinned."""
    arr = np.asarray(arr, dtype=float)
    return hashlib.sha256(np.where(np.isnan(arr), np.nan, arr).tobytes()
                          ).hexdigest()[:16]


def gauss_pieces(breaks, nodes):
    """Gauss-Legendre nodes and weights, ``nodes`` of each per piece
    between consecutive ascending breaks."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(breaks)[:, None]
    mid = 0.5 * (breaks[:-1] + breaks[1:])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def mollified_diagonal(base, eps, pts, nodes=3):
    """(a * phi_eps)(x) at each point (N, d), phi(u) = prod_i (15/16)
    (1 - u_i^2)_+^2, from the base's own values.  Each axis cuts [-1, 1]
    where x_k - eps u_k crosses a cell edge of a checkerboard base, so the
    base is constant on every box of pieces, and the bump, of degree 4 in
    each u_k, is integrated exactly by 3-point Gauss-Legendre per piece; a
    smooth base takes many nodes on the one piece instead."""
    cell = getattr(base, "cell", None)
    out = np.empty_like(pts)
    for i, x in enumerate(pts):
        us, ws = [], []
        for xk in x:
            cuts = []
            if cell is not None:
                n = np.arange(np.floor((xk - eps) / cell),
                              np.ceil((xk + eps) / cell) + 1.0)
                cuts = (xk - n * cell) / eps
            breaks = np.unique(np.clip(np.r_[-1.0, 1.0, cuts], -1.0, 1.0))
            u, w = gauss_pieces(breaks, nodes)
            us.append(u)
            ws.append(w * 15.0 / 16.0 * (1.0 - u * u) ** 2)
        shifts = np.stack([g.ravel() for g in np.meshgrid(*us, indexing="ij")],
                          axis=-1)
        weight = np.prod([g.ravel() for g in np.meshgrid(*ws, indexing="ij")],
                         axis=0)
        out[i] = weight @ base._diag_many(x - eps * shifts)
    return out
