"""Transition kernels, Gaussian envelopes, and resolvent potentials.

The PDE route discretizes div(a grad) with a conservative finite-volume
scheme on a vertex-centered uniform grid: conductances sit at edge
midpoints, boundary faces carry zero flux, and time is Crank-Nicolson.
The face-flux matrix S is symmetric, so with V the node volumes the
generator V^-1 S is similar to the symmetric B = V^-1/2 S V^-1/2, and n
Crank-Nicolson steps are a function of B.  One Lanczos recurrence on B
evaluates that function for every output time at once, with sparse
matvecs and no factorization.  Mass is conserved (in the trapezoid
sense) to the Krylov tolerance, which is what the leakage field
records.  The resolvent potential on the same grid is a single solve
with V - S.

Envelope conventions, for a kernel started at x:

    upper(t, y) = (M / t^(d/2)) exp(-|y-x|^2 / (M t))
    lower(t, y) = (1 / (M t^(d/2))) exp(-M |y-x|^2 / t)

Both get wider/looser as M grows, so the smallest sandwiching M is a
rough-coefficient summary of the field.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dc_field

import numpy as np
# scipy is imported inside the functions that use it: most runs never
# solve the kernel PDE, and loading it would add to every start-up

from .errors import (
    EmptyCandidates,
    GridTooCoarse,
    InadmissibleExponent,
    InsufficientSamples,
    KrylovNotConverged,
    NonDiagonalField,
    NonPositiveTime,
    TailNotCovered,
    UnstableStep,
)
from . import sampling as _sampling
from .fields import sqrt_matrix

KDE_BANDWIDTH = {1: 0.05, 2: 0.1}
# M of the upper envelope that bounds the potential's tails
ENVELOPE_M = 4.0
# the Aronson fit ignores kernel values at or below this floor
SANDWICH_FLOOR = 1e-12
TAIL_T_MIN = 8.0
MIN_KDE_SAMPLES = 100_000
# rows per field evaluation in the Monte Carlo Euler sweep and in the
# L^q quadrature; results do not depend on them, peak memory does
EULER_ROW_BLOCK = 8192
LQ_ROW_BLOCK = 128
# the kernel's Lanczos recurrence stops once the last Krylov coefficient of
# every output time is at most this fraction of its largest one, and gives
# up after KRYLOV_MAX_PER_NODE steps per grid node
KRYLOV_TOL = 1e-13
KRYLOV_MAX_PER_NODE = 4


def _sqdist(x, y):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return ((y - x) ** 2).sum(axis=-1)


def _check_time(t):
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise NonPositiveTime(f"time must be > 0, got {t}")
    return t


def gaussian_ref(M, dim, t, x, y):
    """Upper Gaussian envelope (M/t^(d/2)) exp(-|y-x|^2/(M t))."""
    if M <= 0:
        raise ValueError(f"M must be > 0, got {M}")
    t = _check_time(t)
    return (M / t ** (dim / 2.0)) * np.exp(-_sqdist(x, y) / (M * t))


def aronson_lower(M, dim, t, x, y):
    """Lower Gaussian envelope (1/(M t^(d/2))) exp(-M |y-x|^2/t)."""
    if M <= 0:
        raise ValueError(f"M must be > 0, got {M}")
    t = _check_time(t)
    return np.exp(-M * _sqdist(x, y) / t) / (M * t ** (dim / 2.0))


def exact_brownian_kernel(dim, t, x, y):
    """Transition density of the generator Laplacian: a Gaussian with
    per-coordinate variance 2t."""
    t = _check_time(t)
    return (4.0 * np.pi * t) ** (-dim / 2.0) * np.exp(-_sqdist(x, y)
                                                      / (4.0 * t))


# ------------------------------------------------------------- grid kernel

def _axes_volumes(box, h, dim):
    """Vertex grid axes and per-node 1-d volumes (h inside, h/2 at ends)."""
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = np.tile(box, (dim, 1))
    axes = []
    vols = []
    for lo, hi in box:
        n = int(round((hi - lo) / h))
        if n < 4 or abs(lo + n * h - hi) > 1e-9 * max(1.0, abs(hi)):
            raise ValueError(f"h = {h} does not tile the box ({lo}, {hi})")
        ax = lo + h * np.arange(n + 1)
        v = np.full(n + 1, h)
        v[0] = v[-1] = 0.5 * h
        axes.append(ax)
        vols.append(v)
    return axes, vols


@dataclass
class GridKernel:
    """Densities on a uniform vertex grid at a list of times.

    values has shape (n_times,) + grid shape; masses holds the trapezoid
    integral per slice and leakage the worst deviation from unit mass.
    """

    axes: list
    h: float
    times: np.ndarray
    values: np.ndarray
    source: np.ndarray
    meta: dict = dc_field(default_factory=dict)
    masses: np.ndarray = None
    leakage: float = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.source = np.atleast_1d(np.asarray(self.source, dtype=float))
        vols = 1.0
        for ax in self.axes:
            v = np.full(ax.shape[0], self.h)
            v[0] = v[-1] = 0.5 * self.h
            vols = np.multiply.outer(vols, v)
        self.masses = (self.values * vols).reshape(
            self.times.shape[0], -1).sum(axis=1)
        self.leakage = float(np.max(np.abs(1.0 - self.masses)))

    @property
    def dim(self):
        return len(self.axes)

    def points(self):
        """All grid nodes, shape (N, d)."""
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def save(self, prefix):
        """Write <prefix>.csv (t, coordinates, value) and <prefix>.json."""
        _write_grid_csv(f"{prefix}.csv", self.axes,
                        zip(self.times, self.values))
        meta = {
            "kind": "grid-kernel",
            "box": [[float(ax[0]), float(ax[-1])] for ax in self.axes],
            "h": float(self.h),
            "times": [float(t) for t in self.times],
            "source": [float(c) for c in self.source],
            "leakage": float(self.leakage),
            "meta": _jsonable(self.meta),
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _write_grid_csv(path, axes, slices):
    """Write a t,x[,y],value table: for each (t, values) slice, one row
    per grid node in ij order, every float printed with repr.

    Coordinates are formatted once per axis and values once per slice,
    so the cost is a few string joins, not a Python loop per node.
    """
    cols = [list(map(repr, np.asarray(ax, dtype=float).tolist()))
            for ax in axes]
    coords = list(map(",".join, itertools.product(*cols)))
    with open(path, "w") as fh:
        fh.write("t," + ",".join(["x", "y"][: len(axes)]) + ",value\n")
        for t, values in slices:
            t = f"{float(t)!r},"
            vals = map(repr, np.asarray(values, dtype=float).ravel().tolist())
            fh.write("".join(f"{t}{c},{v}\n" for c, v in zip(coords, vals)))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def tabulate_kernel(fn, box, h, times, x0, dim=1, meta=None):
    """GridKernel with values fn(t, points) on the vertex grid; fn must
    map (t, (N, d)) to (N,) densities."""
    axes, _ = _axes_volumes(box, h, dim)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    shape = tuple(ax.shape[0] for ax in axes)
    times = np.asarray(times, dtype=float)
    values = np.stack([np.asarray(fn(t, pts)).reshape(shape) for t in times])
    return GridKernel(axes=axes, h=h, times=times, values=values,
                      source=np.atleast_1d(np.asarray(x0, dtype=float)),
                      meta=dict(meta or {}))


def _assemble_operator(field, axes, vols, h):
    """Face-flux matrix S, with (S p)_m the sum of fluxes into node m, and
    the flat node volumes vol; the generator is diag(1/vol) S.

    S is symmetric and its rows sum to zero.
    """
    from scipy import sparse

    dim = len(axes)
    shape = tuple(ax.shape[0] for ax in axes)
    n_total = int(np.prod(shape))
    vol = vols[0] if dim == 1 else np.multiply.outer(vols[0], vols[1])

    rows, cols, vals = [], [], []
    for k in range(dim):
        # faces along axis k between node index i and i+1
        face_axes = [ax.copy() for ax in axes]
        face_axes[k] = 0.5 * (axes[k][:-1] + axes[k][1:])
        grids = np.meshgrid(*face_axes, indexing="ij")
        fpts = np.stack([g.ravel() for g in grids], axis=-1)
        cond = field._diag_many(fpts)[:, k].reshape(
            tuple(ax.shape[0] for ax in face_axes))
        # transverse 1-d volume factor
        if dim == 1:
            w = np.ones_like(cond)
        else:
            j = 1 - k
            w = np.broadcast_to(
                vols[j] if k == 0 else vols[j][:, None],
                cond.shape)
        coupling = (cond * w / h).ravel()

        idx = np.arange(n_total).reshape(shape)
        m = (idx.take(range(shape[k] - 1), axis=k)).ravel()
        n = (idx.take(range(1, shape[k]), axis=k)).ravel()
        rows += [m, n, m, n]
        cols += [n, m, m, n]
        vals += [coupling, coupling, -coupling, -coupling]

    S = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_total, n_total)).tocsr()
    return S, vol.ravel(), shape


def _factor(S, vol):
    """SuperLU factor of the symmetric positive definite V - S, V =
    diag(vol).  The minimum-degree ordering of the symmetric pattern holds
    40-45% fewer L+U entries than COLAMD on 2-d grids."""
    from scipy import sparse
    from scipy.sparse.linalg import splu

    K = sparse.diags(vol) - S
    return splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A")


def check_fv_field(field):
    """Raise unless the field is diagonal and in d = 1 or 2."""
    if field.dim not in (1, 2):
        raise ValueError(f"PDE solve supports d in {{1, 2}}, got {field.dim}")
    if not field.is_diagonal:
        raise NonDiagonalField(
            "the finite-volume solver handles diagonal fields only")


def fv_grid(field, box, h):
    """(axes, vols) of the finite-volume grid of ``box`` at step h, which
    must tile the box and resolve the field's feature scale."""
    check_fv_field(field)
    if field.feature_scale is not None and h > field.feature_scale / 2 + 1e-12:
        raise GridTooCoarse(
            f"h = {h:g} does not resolve the field's feature scale "
            f"{field.feature_scale:g} (need h <= feature/2)")
    return _axes_volumes(box, h, field.dim)


def _fv_operator(field, box, h):
    """(axes, S, vol, shape) of div(a grad) on fv_grid(field, box, h)."""
    axes, vols = fv_grid(field, box, h)
    return (axes,) + _assemble_operator(field, axes, vols, h)


def check_step(dt, h, lam):
    """Raise UnstableStep unless dt <= h^2 lambda / 4."""
    if dt > h * h * lam / 4.0 + 1e-15:
        raise UnstableStep(
            f"dt = {dt:g} exceeds h^2 lambda / 4 = {h * h * lam / 4:g}")


def snap_times(times, dt):
    """Step counts of the output times at step dt > 0: the times must be
    positive and strictly increasing, and stay distinct once snapped to
    the nearest multiple of dt (at least one step)."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1-d list")
    _check_time(times)
    steps = np.maximum(1, np.round(times / dt).astype(np.int64))
    if np.any(np.diff(steps) <= 0):
        raise ValueError("output times collide after snapping to dt")
    return steps


def source_node(axes, h, x0):
    """The grid node x0 snaps to, which must be interior; x0 needs one
    coordinate per axis."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    idx = [int(round((c - ax[0]) / h)) for c, ax in zip(x0, axes)]
    if x0.shape != (len(axes),) or not all(
            0 < i < ax.shape[0] - 1 for i, ax in zip(idx, axes)):
        raise ValueError(f"source {x0.tolist()} is not a point of dimension "
                         f"{len(axes)} that snaps to an interior node")
    return np.array([ax[i] for ax, i in zip(axes, idx)])


def solve_kernel_pde(field, x0, box, h, times, dt):
    """Crank-Nicolson kernel of div(a grad) from a discrete Dirac at x0.

    Zero-flux box boundary; conductances are the diagonal of a at edge
    midpoints (off-diagonal coefficients are out of scope for the solver).
    Output times snap to the nearest multiple of dt; the snapped values
    are what the returned GridKernel stores.

    n steps of size dt map p0 to r(dt A)^n p0, with A = V^-1 S and the
    Crank-Nicolson factor r(z) = (1 + z/2) / (1 - z/2).  _lanczos_cn
    evaluates every snapped step count from one Krylov basis, so the cost
    grows with the Krylov dimension, not with t_max / dt.
    """
    axes, S, vol, shape = _fv_operator(field, box, h)
    check_step(dt, h, field.lam)
    steps = snap_times(times, dt)
    source = source_node(axes, h, x0)

    p0 = _node_mass(_sampling.dirac(source), axes, h).ravel() / vol
    out = _lanczos_cn(S, vol, p0, dt, steps)
    return GridKernel(axes=axes, h=h, times=steps * dt,
                      values=out.reshape((len(steps),) + shape),
                      source=source,
                      meta={"scheme": "crank-nicolson-fv", "dt": dt,
                            "requested_times": [float(t) for t in times],
                            "field": getattr(field, "name", None)})


def _lanczos_cn(S, vol, p0, dt, steps):
    """r(dt A)^n p0 for each n in ``steps``, one row each: n Crank-Nicolson
    steps, r(z) = (1 + z/2) / (1 - z/2) and A = V^-1 S.

    That is V^-1/2 f(B) w with f = r(dt .)^n, B = V^-1/2 S V^-1/2 and
    w = V^1/2 p0.  B V^1/2 1 = 0 and f(0) = 1, so the mean of p0 is kept
    as it is and Lanczos runs on the rest of w: B Q = Q T + beta q e^T
    gives f(B) w ~ |w| Q f(T) e1 from the Ritz pairs of the tridiagonal T.

    There is no reorthogonalisation, and the basis is never stored.  A
    first pass finds T.  Each time m has grown by a quarter it stops if
    the last coefficient of f(T) e1 is at most KRYLOV_TOL of its largest
    for every n; it also stops where beta underflows, at an invariant
    subspace.  A second pass rebuilds the same vectors from T and sums
    them into the output.

    The recurrence sums with numpy rather than BLAS dot products, so its
    bits do not depend on the BLAS thread count.  The Ritz pairs come
    from LAPACK's divide and conquer, whose threaded matrix products can
    change the last digits of kernels with m past a few hundred.
    """
    from scipy import sparse
    from scipy.linalg import eigh_tridiagonal

    root = np.sqrt(vol)
    B = (sparse.diags(1.0 / root) @ S @ sparse.diags(1.0 / root)).tocsr()
    mean = np.sum(vol * p0) / np.sum(vol)
    w = root * (p0 - mean)
    norm = np.sqrt(np.sum(w * w))
    steps = np.asarray(steps)[:, None]

    alpha, beta = [], []
    limit = KRYLOV_MAX_PER_NODE * vol.shape[0]
    check = 8
    q, q_prev, b = w / norm, 0.0, 0.0
    while True:
        v = B @ q - b * q_prev
        alpha.append(np.sum(q * v))
        v -= alpha[-1] * q
        b = np.sqrt(np.sum(v * v))
        m = len(alpha)
        invariant = b < np.finfo(float).tiny
        if m >= check or invariant:
            theta, Y = eigh_tridiagonal(alpha, beta)
            z = 0.5 * dt * theta
            coef = ((1.0 + z) / (1.0 - z)) ** steps * Y[0] @ Y.T
            if invariant or np.all(np.abs(coef[:, -1]) <= KRYLOV_TOL
                                   * np.abs(coef).max(axis=1)):
                break
            if m >= limit:
                raise KrylovNotConverged(
                    f"the Lanczos kernel did not converge in {m} steps on "
                    f"{vol.shape[0]} nodes")
            check = min(limit, m + max(1, m // 4))
        beta.append(b)
        q, q_prev = v / b, q

    out = np.zeros((steps.shape[0], w.shape[0]))
    q, q_prev = w / norm, 0.0
    for j in range(m):
        out += coef[:, j, None] * q
        if j + 1 < m:
            v = B @ q - (beta[j - 1] if j else 0.0) * q_prev
            v -= alpha[j] * q
            q, q_prev = v / beta[j], q
    return mean + out * (norm / root)


def log_time_grid(t_min, t_max, n, dt):
    """Log-spaced output times snapped to multiples of dt, deduplicated.

    Suitable as the ``times`` list of solve_kernel_pde when the kernel
    will feed the resolvent quadrature: dense near 0, sparse at the tail.
    """
    raw = np.geomspace(max(t_min, dt), t_max, n)
    steps = np.unique(np.maximum(1, np.round(raw / dt).astype(np.int64)))
    return steps * dt


# ------------------------------------------------------------- Aronson fit

def sandwich_holds(kernel, M):
    """True iff both envelopes hold at every stored (t, y) with kernel
    value above SANDWICH_FLOOR."""
    pts = kernel.points()
    for it, t in enumerate(kernel.times):
        v = kernel.values[it].ravel()
        mask = v > SANDWICH_FLOOR
        if not mask.any():
            continue
        y = pts[mask]
        up = gaussian_ref(M, kernel.dim, t, kernel.source, y)
        lo = aronson_lower(M, kernel.dim, t, kernel.source, y)
        vv = v[mask]
        if np.any(vv > up * (1.0 + 1e-12)):
            return False
        if np.any(vv < lo * (1.0 - 1e-12)):
            return False
    return True


def check_candidates(candidates):
    """The candidate M values as an array; raises unless there is at
    least one and they are positive and increasing."""
    arr = np.asarray(list(candidates), dtype=float)
    if arr.size == 0:
        raise EmptyCandidates("no candidate M values supplied")
    if np.any(arr <= 0) or np.any(np.diff(arr) <= 0):
        raise ValueError("candidates must be positive and increasing")
    return arr


def fit_aronson_M(kernel, candidates):
    """Smallest candidate M whose two Gaussian envelopes sandwich the
    kernel everywhere it exceeds SANDWICH_FLOOR; None when no candidate
    does."""
    for M in check_candidates(candidates):
        if sandwich_holds(kernel, float(M)):
            return float(M)
    return None


# ---------------------------------------------------------- potential field

@dataclass
class PotentialField:
    """The resolvent potential U nu as an evaluable field."""

    route: str
    dim: int
    params: dict = dc_field(default_factory=dict)
    fn: callable = None
    axes: list = None
    values: np.ndarray = None

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            return self(pts[None, :])[0]
        if self.fn is not None:
            return self.fn(pts)
        if self.dim == 1:
            return np.interp(pts[..., 0], self.axes[0], self.values,
                             left=0.0, right=0.0)
        return _bilinear(self.axes, self.values, pts)

    def grid(self, qaxes):
        """U on the tensor grid of the query axes, shape (len(q) for q in
        qaxes): bit for bit what U of the meshgrid points gives, without
        building the point list on tabulated potentials."""
        qaxes = [np.asarray(q, dtype=float) for q in qaxes]
        if self.fn is not None:
            grids = np.meshgrid(*qaxes, indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=-1)
            return self.fn(pts).reshape(grids[0].shape)
        if self.dim == 1:
            return np.interp(qaxes[0], self.axes[0], self.values,
                             left=0.0, right=0.0)
        return _bilinear_grid(self.axes, self.values, qaxes)

    def integral(self, box=None, h=None):
        """Trapezoid integral of U over a box (defaults to the stored
        grid extent)."""
        if self.axes is not None and box is None:
            axes, vals = self.axes, self.values
        elif box is None or h is None:
            raise ValueError("closed-form potentials need box and h")
        else:
            axes, _ = _axes_volumes(box, h, self.dim)
            vals = self.grid(axes)
        for ax in reversed(axes):
            vals = np.trapezoid(vals, ax, axis=-1)
        return float(vals)

    def save(self, prefix):
        if self.axes is None:
            raise ValueError("only tabulated potentials serialize; "
                             "tabulate the closed form on a grid first")
        _write_grid_csv(f"{prefix}.csv", self.axes, [(0.0, self.values)])
        meta = {
            "kind": "potential",
            "route": self.route,
            "box": [[float(ax[0]), float(ax[-1])] for ax in self.axes],
            "h": float(self.axes[0][1] - self.axes[0][0]),
            "time_column": "unused",
            "params": _jsonable(self.params),
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _axis_cells(ax, q):
    """(cell index, fraction, inside flag) of coordinates q on the uniform
    axis ax: the one rule both bilinear evaluations use."""
    u = (q - ax[0]) / (ax[1] - ax[0])
    i = np.clip(np.floor(u).astype(np.int64), 0, ax.shape[0] - 2)
    return i, np.clip(u - i, 0.0, 1.0), (q >= ax[0]) & (q <= ax[-1])


def _blend(corner, fu, fv):
    """The bilinear four-term sum over corner(di, dj), the values at cell
    offset (di, dj); both evaluations share its order, and one corner
    array at a time is live."""
    return (corner(0, 0) * (1 - fu) * (1 - fv) + corner(1, 0) * fu * (1 - fv)
            + corner(0, 1) * (1 - fu) * fv + corner(1, 1) * fu * fv)


def _bilinear(axes, values, pts):
    (i, fu, in0), (j, fv, in1) = (_axis_cells(ax, pts[..., k])
                                  for k, ax in enumerate(axes))
    out = _blend(lambda di, dj: values[i + di, j + dj], fu, fv)
    return np.where(in0 & in1, out, 0.0)


def _bilinear_grid(axes, values, qaxes):
    """_bilinear on the tensor grid of qaxes, each axis's cells found
    once: rows gathered by i, columns by j, the same bits."""
    (i, fu, in0), (j, fv, in1) = (_axis_cells(ax, q)
                                  for ax, q in zip(axes, qaxes))
    rows = (values[i], values[i + 1])
    out = _blend(lambda di, dj: rows[di].take(j + dj, axis=1),
                 fu[:, None], fv)
    return np.where(in0[:, None] & in1, out, 0.0)


def resolvent_potential(source, nu, *, field=None, n_samples=200_000,
                        seed=0, step=2.0 ** -9, t_cap=16.0, box=None, h=None):
    """U nu(x) = integral of e^(-s) nu_s(x) ds, by one of four routes.

    source selects the route: the string "closed-form" (a = Id, d = 1,
    Dirac start), the string "grid" (one finite-volume solve of
    (1 - L) U = nu on ``box`` at step ``h``, which needs ``field``), a
    GridKernel (time-slice quadrature), or the string "monte-carlo"
    (kernel-density estimate of X_T, T ~ Exponential(1), which needs
    ``field``).
    """
    if isinstance(source, GridKernel):
        return _potential_from_kernel(source, nu)
    if source == "grid":
        return _potential_from_solve(field, nu, box, h)
    if source == "closed-form":
        if nu.kind != "dirac" or nu.dim != 1:
            raise ValueError("the closed form covers d = 1 Dirac starts")
        x0 = float(np.atleast_1d(nu.point)[0])
        return PotentialField(
            route="closed-form", dim=1, params={"x0": x0},
            fn=lambda pts: 0.5 * np.exp(-np.abs(pts[..., 0] - x0)))
    if source == "monte-carlo":
        return _potential_from_samples(field, nu, n_samples, seed, step,
                                       t_cap)
    raise ValueError(f"unknown potential source {source!r}")


def _potential_from_solve(field, nu, box, h):
    """U nu on the vertex grid from one solve of (V - S) u = V p0.

    With A = V^-1 S that is (1 - A) u = p0, p0 the law's mass per node
    over the node volume.  1^T S = 0, so the mass vol . u is 1.
    """
    hull_gap(nu, box)
    axes, S, vol, shape = _fv_operator(field, box, h)
    u = _factor(S, vol).solve(_node_mass(nu, axes, h).ravel())
    return PotentialField(route="grid", dim=field.dim,
                          params={"scheme": "fv-resolvent"}, axes=axes,
                          values=u.reshape(shape))


def hull_gap(nu, box, interior=False):
    """The least distance from the hull of nu's support to a face of box;
    raises ValueError when the hull reaches outside the box or, with
    ``interior``, touches a face."""
    lo, hi = np.reshape(np.asarray(box, dtype=float), (-1, 2)).T
    a, b = nu.hull()
    gap = float(min(np.min(a - lo), np.min(hi - b)))
    if gap < 0.0 or interior and not gap > 0.0:
        where = "interior of the box" if interior else "box"
        raise ValueError(f"the initial law's support, {a.tolist()} to "
                         f"{b.tolist()}, reaches outside the {where} {box}")
    return gap


def _node_mass(nu, axes, h):
    """The mass nu puts in each node's dual cell (the node +- h/2, cut at
    the box), on the grid's shape.

    A Dirac charges its nearest node.  A grid density charges each dual
    cell the exact overlap with each of its cells, axis by axis.
    """
    if nu.kind == "mixture":
        return sum(w * _node_mass(c, axes, h)
                   for w, c in zip(nu.mix_weights, nu.components))
    if nu.kind == "dirac":
        out = np.zeros(tuple(ax.shape[0] for ax in axes))
        out[tuple(int(round((c - ax[0]) / h))
                  for c, ax in zip(nu.point, axes))] = 1.0
        return out
    # share[k][i, j]: the part of cell j along axis k in dual cell i
    share = []
    for e, ax in zip(nu.edges, axes):
        cuts = np.append(ax - h / 2, ax[-1] + h / 2)[:, None]
        share.append(np.diff(np.clip((cuts - e[:-1]) / np.diff(e), 0.0, 1.0),
                             axis=0))
    out = share[0] @ nu.cell_probs
    return out if len(share) == 1 else out @ share[1].T


def _potential_from_kernel(kernel, nu):
    t = kernel.times
    if t[-1] < TAIL_T_MIN - 1e-9:
        raise TailNotCovered(
            f"kernel times reach {t[-1]:g} < {TAIL_T_MIN:g}; the e^(-s) "
            "tail is not negligible there")
    if nu is not None and nu.kind == "dirac":
        if np.max(np.abs(np.atleast_1d(nu.point) - kernel.source)) > \
                kernel.h + 1e-12:
            raise ValueError("kernel was solved from a different start "
                             "point than nu")
    w = np.exp(-t)
    integrand = kernel.values * w.reshape((-1,) + (1,) * kernel.dim)
    U = np.trapezoid(integrand, t, axis=0)
    tail_bound = float(np.exp(-t[-1]) * ENVELOPE_M / t[-1] ** (kernel.dim / 2))
    return PotentialField(
        route="grid", dim=kernel.dim,
        params={"t_min": float(t[0]), "t_max": float(t[-1]),
                "n_slices": int(t.shape[0]), "tail_bound": tail_bound,
                "kernel_leakage": float(kernel.leakage)},
        axes=kernel.axes, values=U)


def _potential_from_samples(field, nu, n_samples, seed, step, t_cap):
    if field is None:
        raise ValueError("the monte-carlo route needs the coefficient field")
    if n_samples < MIN_KDE_SAMPLES:
        raise InsufficientSamples(
            f"{n_samples} < {MIN_KDE_SAMPLES} samples for the KDE route")
    dim = field.dim
    bw = KDE_BANDWIDTH[dim]
    # T, the start points and every Euler increment come from this one
    # stream; the attempt offset keys it apart from the path streams, so
    # the estimate shares no draws with the simulated paths
    rng = _sampling.path_rng(seed, 0, attempt=1_000_003)
    T = np.minimum(rng.exponential(size=n_samples), t_cap)
    if nu.kind == "dirac":
        x0 = np.tile(np.atleast_1d(nu.point), (n_samples, 1)).astype(float)
    else:
        x0 = np.stack([_sampling.sample_initial(nu, rng)
                       for _ in range(n_samples)])
    if field.is_constant:
        # the SDE solution is Gaussian given T: exact sampling, no grid
        a0 = field.matrix(np.zeros(dim))
        root = sqrt_matrix(2.0 * a0)
        z = rng.standard_normal((n_samples, dim))
        samples = x0 + np.sqrt(T)[:, None] * (z @ root.T)
    else:
        samples = _terminal_states(field, x0, T, step, rng)
    return _kde_field(samples, bw, dim,
                      {"n_samples": int(n_samples), "bandwidth": bw,
                       "t_cap": float(t_cap), "seed": int(seed),
                       "exact_time": bool(field.is_constant),
                       "step": None if field.is_constant else float(step)})


def _terminal_states(field, x0, T, step, rng):
    """X_T per sample by one Euler sweep over all samples.

    Samples are sorted by step count, largest first, so Euler step j
    advances the prefix of samples that still have more than j steps to
    go; its (n_active, d) increments are the next draws of ``rng``.
    """
    nsteps = np.maximum(1, np.round(T / step).astype(np.int64))
    order = np.argsort(-nsteps, kind="stable")
    # n_active[j] = number of samples with more than j steps
    n_active = np.searchsorted(-nsteps[order], -np.arange(nsteps.max()))
    x = x0[order]
    for n in n_active:
        xi = rng.standard_normal((n, field.dim))
        # the draws stay one (n, d) block so the stream does not move
        for i in range(0, n, EULER_ROW_BLOCK):
            j = min(i + EULER_ROW_BLOCK, n)
            x[i:j] = _sampling.em_step(field, x[i:j], xi[i:j], step)
    out = np.empty_like(x)
    out[order] = x
    return out


KDE_MAX_HALFWIDTH = 24.0


def _kde_field(samples, bw, dim, params):
    """Bin the samples, then convolve with a Gaussian of width bw; the
    result is tabulated on the fine bin grid.

    Rare far-out samples are folded into the edge bins so the tabulated
    grid stays bounded; the potential out there is below e^(-24) of its
    peak, so the relocated mass is invisible at Monte Carlo accuracy.
    """
    bin_h = bw / 10.0 if dim == 1 else bw / 5.0
    center = np.median(samples, axis=0)
    samples = np.clip(samples, center - KDE_MAX_HALFWIDTH,
                      center + KDE_MAX_HALFWIDTH)
    lo = samples.min(axis=0) - 5.0 * bw
    hi = samples.max(axis=0) + 5.0 * bw
    n = samples.shape[0]
    kx = np.arange(-5 * bw, 5 * bw + bin_h / 2, bin_h)
    kern = np.exp(-0.5 * (kx / bw) ** 2)
    kern /= kern.sum() * bin_h
    counts, edges = np.histogramdd(
        samples, bins=[np.arange(a, b + bin_h, bin_h) for a, b in zip(lo, hi)])
    dens = counts / n
    for k in range(dim):
        dens = np.apply_along_axis(np.convolve, k, dens, kern, mode="same")
    return PotentialField(route="monte-carlo-kde", dim=dim, params=params,
                          axes=[0.5 * (e[:-1] + e[1:]) for e in edges],
                          values=dens)


# ------------------------------------------------------------- L^q norms

def lq_admissible(q, dim):
    """The admissible exponent range: q > 1 always, and q < d/(d-2) when
    d > 2."""
    if q <= 1.0:
        return False
    if dim > 2 and q >= dim / (dim - 2.0):
        return False
    return True


# trapezoid rule for K0(z) = e^-z int_0^inf exp(-z (cosh t - 1)) dt, with
# cosh t - 1 = 2 sinh^2(t/2) so no digits cancel: the integrand is
# analytic and decays doubly exponentially, so step 0.05 on [0, 20) is
# exact to rounding (6e-16 relative) for z in [1e-3, 50]; beyond, the
# error grows to 4e-6 at z = 600, where K0 < e^-600 adds nothing to a tail
_K0_T = 0.05 * np.arange(400)
_K0_C = 2.0 * np.sinh(0.5 * _K0_T) ** 2
_K0_W = np.where(_K0_T == 0.0, 0.025, 0.05)


def _k0(z):
    """The modified Bessel function K0 at z >= 0 (inf at 0), in numpy
    alone."""
    z = np.asarray(z, dtype=float)
    k = np.exp(-z) * (np.exp(-np.multiply.outer(z, _K0_C)) @ _K0_W)
    return np.where(z > 0.0, k, np.inf)


def _envelope_potential(r, M, dim):
    """Pointwise upper bound on U nu(x) at distance r from the hull of
    nu's support, from the upper Gaussian envelope integrated against
    e^(-s)."""
    r = np.asarray(r, dtype=float)
    if dim == 1:
        return M * np.sqrt(np.pi) * np.exp(-2.0 * r / np.sqrt(M))
    if dim == 2:
        return 2.0 * M * _k0(2.0 * r / np.sqrt(M))
    raise ValueError("envelope tails cover d in {1, 2}")


@dataclass
class LqNormResult:
    q: float
    value: float
    tail_estimate: float

    @property
    def total(self):
        return self.value + self.tail_estimate


def potential_Lq_norm(U, nu, q, box, h=0.01):
    """Trapezoid integral of U^q, for U = U nu, over the box plus an
    envelope tail bound.

    Off the box every point is at least R from the hull of nu's support,
    R the gap from the hull to the nearest box face, and U there is at
    most the upper envelope (M = ENVELOPE_M) at that distance.  The tail
    integrates its q-th power over the points at distance r >= R from the
    hull: 2 of them per r in d = 1, a curve of length 2 pi r + P in d = 2
    (Steiner's formula, P the hull's perimeter, 0 for a Dirac).
    """
    q = float(q)
    if not lq_admissible(q, U.dim):
        raise InadmissibleExponent(
            f"q = {q} is outside the admissible range for d = {U.dim}")
    R = hull_gap(nu, box, interior=True)
    axes, _ = _axes_volumes(box, h, U.dim)
    head, rest = axes[0], axes[1:]
    # each point and each row integral is computed as on the whole grid
    block = LQ_ROW_BLOCK if rest else head.shape[0]
    rows = []
    for i in range(0, head.shape[0], block):
        vals = np.maximum(U.grid([head[i:i + block], *rest]), 0.0) ** q
        for ax in reversed(rest):
            vals = np.trapezoid(vals, ax, axis=-1)
        rows.append(vals)
    box_value = float(np.trapezoid(np.concatenate(rows), head))

    M = ENVELOPE_M
    if U.dim == 1:
        # closed form: 2 int_R^inf (M sqrt(pi))^q e^(-2 q r / sqrt M) dr
        amp = (M * np.sqrt(np.pi)) ** q
        tail = 2.0 * amp * np.sqrt(M) / (2.0 * q) * np.exp(
            -2.0 * q * R / np.sqrt(M))
    else:
        r = R * np.exp(np.linspace(0.0, 4.0, 400))
        env = _envelope_potential(r, M, 2) ** q
        a, b = nu.hull()
        perimeter = 2.0 * float(np.sum(b - a))
        tail = float(np.trapezoid(env * (2.0 * np.pi * r + perimeter), r))
    return LqNormResult(q=q, value=box_value, tail_estimate=float(tail))
