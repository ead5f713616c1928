"""Transition kernels, Gaussian envelopes, and resolvent potentials.

The PDE route discretizes div(a grad) with a conservative finite-volume
scheme on a vertex-centered uniform grid: conductances sit at edge
midpoints, boundary faces carry zero flux, and time is Crank-Nicolson.
The per-axis face couplings are the one description of the operator.
The face-flux operator S they define is symmetric, so with V the node
volumes the generator V^-1 S is similar to the symmetric
B = V^-1/2 S V^-1/2, and n Crank-Nicolson steps are a function of B.
One Lanczos recurrence on B evaluates that function for every output
time at once, applying B as a numpy stencil, with no factorization.
The grid, the operator and the solver are written over the grid's axes
and run in any dimension d.
Mass is conserved (in the trapezoid sense) to the Krylov tolerance,
which is what the leakage field records.  The resolvent potential on
the same grid solves (V - S) u = m by conjugate gradients on I - B,
with the same stencil; on a constant 1-d field from a Dirac it also has
a closed form.  The package needs numpy alone.

Envelope conventions, for a kernel started at x:

    upper(t, y) = (M / t^(d/2)) exp(-|y-x|^2 / (M t))
    lower(t, y) = (1 / (M t^(d/2))) exp(-M |y-x|^2 / t)

Both get wider/looser as M grows, so the smallest sandwiching M is a
rough-coefficient summary of the field.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import Error
from . import sampling as _sampling

KDE_BANDWIDTH = {1: 0.05, 2: 0.1}
# M of the upper envelope that bounds the potential's tails
ENVELOPE_M = 4.0
# the Aronson fit ignores kernel values at or below this floor
SANDWICH_FLOOR = 1e-12
MIN_KDE_SAMPLES = 100_000
# rows per field evaluation in the Monte Carlo Euler sweep and in the
# L^2 quadrature; results do not depend on them, peak memory does
EULER_ROW_BLOCK = 2048
LQ_ROW_BLOCK = 32
# the kernel's Lanczos recurrence stops once the last Krylov coefficient of
# every output time is at most this fraction of its largest one, the grid
# potential's conjugate gradients once the residual is at most CG_TOL of
# the right-hand side; both give up after KRYLOV_MAX_PER_NODE steps per
# grid node
KRYLOV_TOL = 1e-13
CG_TOL = 1e-14
KRYLOV_MAX_PER_NODE = 4


def _sqdist(x, y):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return ((y - x) ** 2).sum(axis=-1)


def _check_time(t):
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise Error(f"time must be > 0, got {t}")
    return t


def gaussian_ref(M, dim, t, x, y):
    """Upper Gaussian envelope (M/t^(d/2)) exp(-|y-x|^2/(M t))."""
    if M <= 0:
        raise Error(f"M must be > 0, got {M}")
    t = _check_time(t)
    return (M / t ** (dim / 2.0)) * np.exp(-_sqdist(x, y) / (M * t))


def aronson_lower(M, dim, t, x, y):
    """Lower Gaussian envelope (1/(M t^(d/2))) exp(-M |y-x|^2/t)."""
    if M <= 0:
        raise Error(f"M must be > 0, got {M}")
    t = _check_time(t)
    return np.exp(-M * _sqdist(x, y) / t) / (M * t ** (dim / 2.0))


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
            raise Error(f"h = {h} does not tile the box ({lo}, {hi})")
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
    masses: np.ndarray = dc_field(init=False)
    leakage: float = dc_field(init=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.source = np.atleast_1d(np.asarray(self.source, dtype=float))
        _, vols = _axes_volumes([(ax[0], ax[-1]) for ax in self.axes],
                                self.h, self.dim)
        vols = functools.reduce(np.multiply.outer, vols)
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
        """Write <prefix>.csv, one line per time (and in d >= 2 per index
        of every axis but the last), and the <prefix>.json sidecar."""
        _save_table(prefix, self.axes, self.values, {
            "kind": "grid-kernel",
            "h": float(self.h),
            "times": [float(t) for t in self.times],
            "source": [float(c) for c in self.source],
            "leakage": float(self.leakage),
            "meta": self.meta,
        })


def _save_table(prefix, axes, values, meta):
    """Write a value table as <prefix>.csv and its <prefix>.json sidecar.

    The CSV has no header and one line per index of the leading axes of
    values (a kernel's times, then x in 2-d; a potential's x in 2-d), which
    holds the values along the last axis, each printed with repr.  Each
    line is written as soon as it is built, so the table is never held
    whole as strings.  The sidecar is meta plus the box and the exact
    axes, whose JSON floats are repr and so give the axes back bit for bit.
    """
    values = np.asarray(values, dtype=float)
    with open(f"{prefix}.csv", "w") as fh:
        for row in values.reshape(-1, values.shape[-1]):
            fh.write(",".join(map(repr, row.tolist())) + "\n")
    axes = [np.asarray(ax, dtype=float).tolist() for ax in axes]
    meta = dict(meta, box=[[ax[0], ax[-1]] for ax in axes], axes=axes)
    with open(f"{prefix}.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _assemble_operator(field, axes, vols, h):
    """The finite-volume operator as its face couplings: (couplings, vol,
    shape), with vol the flat node volumes.

    couplings[k] has the grid shape less one node along axis k: its entry
    at node i is the conductance of the face between node i and node
    i + e_k, times the face's transverse volume, over h.  The face-flux
    operator S sums into each node the fluxes c (p_n - p_m) across its
    faces, so it is symmetric, its rows sum to zero, and the generator is
    diag(1/vol) S.
    """
    vol = functools.reduce(np.multiply.outer, vols)
    couplings = []
    for k in range(len(axes)):
        # faces along axis k between node index i and i+1
        face_axes = [ax.copy() for ax in axes]
        face_axes[k] = 0.5 * (axes[k][:-1] + axes[k][1:])
        grids = np.meshgrid(*face_axes, indexing="ij")
        fpts = np.stack([g.ravel() for g in grids], axis=-1)
        cond = field._diag_many(fpts)[:, k].reshape(
            tuple(ax.shape[0] for ax in face_axes))
        # transverse volume: the other axes' node volumes, 1 along axis k
        w = functools.reduce(np.multiply.outer, [
            np.ones(1) if j == k else v for j, v in enumerate(vols)])
        couplings.append(cond * w / h)
    return couplings, vol.ravel(), vol.shape


def _faces(k):
    """Index tuples of the nodes below and above each face along axis k."""
    head = (slice(None),) * k
    return head + (slice(None, -1),), head + (slice(1, None),)


def _stencil(couplings, vol, shape):
    """(apply, diag): the map q -> B q on flat vectors, B = V^-1/2 S V^-1/2,
    in numpy, and the flat diagonal of B.

    Each node sums its row of B in column order: its lower neighbours
    (axis 0 first), itself, then its upper neighbours (axis 0 last).  The
    entry of row m and column n is (r_m c) r_n with r = V^-1/2, and the
    diagonal sums its faces axis by axis, upper face first.  So B q rounds
    as a CSR product of B does: the face-scatter form r S (r q), each
    flux added to one node and taken from the other, rounds each node's
    sum differently and lost 1.2e-11 of the mass on the 801-node 1-d
    identity kernel, against 9e-14 in this order.
    """
    r = (1.0 / np.sqrt(vol)).reshape(shape)
    diag = np.zeros(shape)
    lower, upper = [], []
    for k, c in enumerate(couplings):
        lo, hi = _faces(k)
        diag[lo] -= c
        diag[hi] -= c
        lower.append((hi, r[hi] * c * r[lo], lo))
        upper.insert(0, (lo, r[lo] * c * r[hi], hi))
    diag = r * diag * r

    def apply(q):
        q = q.reshape(shape)
        out = np.zeros(shape)
        for dst, b, src in lower:
            out[dst] += b * q[src]
        out += diag * q
        for dst, b, src in upper:
            out[dst] += b * q[src]
        return out.ravel()
    return apply, diag.ravel()


def fv_grid(field, box, h):
    """(axes, vols) of the finite-volume grid of ``box`` at step h, which
    must tile the box and resolve the field's feature scale."""
    if field.feature_scale is not None and h > field.feature_scale / 2 + 1e-12:
        raise Error(
            f"h = {h:g} does not resolve the field's feature scale "
            f"{field.feature_scale:g} (need h <= feature/2)")
    return _axes_volumes(box, h, field.dim)


def check_step(dt, h, lam):
    """Raise Error unless dt <= h^2 lambda / 4."""
    if dt > h * h * lam / 4.0 + 1e-15:
        raise Error(
            f"dt = {dt:g} exceeds h^2 lambda / 4 = {h * h * lam / 4:g}")


def snap_times(times, dt):
    """Step counts of the output times at step dt > 0: the times must be
    positive and strictly increasing, and stay distinct once snapped to
    the nearest multiple of dt (at least one step)."""
    if dt <= 0:
        raise Error(f"dt must be > 0, got {dt}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0):
        raise Error("times must be a strictly increasing 1-d list")
    _check_time(times)
    steps = np.maximum(1, np.round(times / dt).astype(np.int64))
    if np.any(np.diff(steps) <= 0):
        raise Error("output times collide after snapping to dt")
    return steps


def source_node(axes, h, x0):
    """The grid node x0 snaps to, which must be interior; x0 needs one
    coordinate per axis."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    idx = [int(round((c - ax[0]) / h)) for c, ax in zip(x0, axes)]
    if x0.shape != (len(axes),) or not all(
            0 < i < ax.shape[0] - 1 for i, ax in zip(idx, axes)):
        raise Error(f"source {x0.tolist()} is not a point of dimension "
                    f"{len(axes)} that snaps to an interior node")
    return np.array([ax[i] for ax, i in zip(axes, idx)])


def solve_kernel_pde(field, x0, box, h, times, dt):
    """Crank-Nicolson kernel of div(a grad) from a discrete Dirac at x0.

    Zero-flux box boundary; conductances are the diagonal of a at edge
    midpoints.  Output times snap to the nearest multiple of dt; the
    snapped values are what the returned GridKernel stores.

    n steps of size dt map p0 to r(dt A)^n p0, with A = V^-1 S and the
    Crank-Nicolson factor r(z) = (1 + z/2) / (1 - z/2).  _lanczos_cn
    evaluates every snapped step count from one Krylov basis, so the cost
    grows with the Krylov dimension, not with t_max / dt.
    """
    axes, vols = fv_grid(field, box, h)
    check_step(dt, h, field.lam)
    steps = snap_times(times, dt)
    source = source_node(axes, h, x0)

    couplings, vol, shape = _assemble_operator(field, axes, vols, h)
    p0 = _node_mass(_sampling.dirac(source), axes, h).ravel() / vol
    out = _lanczos_cn(couplings, vol, shape, p0, dt, steps)
    return GridKernel(axes=axes, h=h, times=steps * dt,
                      values=out.reshape((len(steps),) + shape),
                      source=source,
                      meta={"scheme": "crank-nicolson-fv", "dt": dt,
                            "requested_times": [float(t) for t in times]})


def _lanczos_cn(couplings, vol, shape, p0, dt, steps):
    """r(dt A)^n p0 for each n in ``steps``, one row each: n Crank-Nicolson
    steps, r(z) = (1 + z/2) / (1 - z/2) and A = V^-1 S.

    That is V^-1/2 f(B) w with f = r(dt .)^n, B = V^-1/2 S V^-1/2 and
    w = V^1/2 p0.  B V^1/2 1 = 0 and f(0) = 1, so the mean of p0 is kept
    as it is and Lanczos runs on the rest of w: B Q = Q T + beta q e^T
    gives f(B) w ~ |w| Q f(T) e1 from the Ritz pairs of the tridiagonal T.

    There is no reorthogonalisation, and the basis is never stored.  A
    first pass finds T.  Each time m has grown by a quarter it stops if
    the last coefficient of f(T) e1 is at most KRYLOV_TOL of its largest
    for every n.  Where every coefficient of some n underflows, as for
    late times at the first checks, whose Ritz values are far from 0, it
    also needs the largest Ritz value to have moved by at most KRYLOV_TOL
    of itself since the previous check.  It stops where beta underflows,
    at an invariant subspace.  A second pass rebuilds the same vectors from T and sums
    them into the output.

    B is applied as the numpy stencil of the couplings, and the
    recurrence sums with numpy rather than BLAS dot products, so its bits
    do not depend on the BLAS thread count.  The Ritz pairs come from
    numpy's eigh of the dense m x m tridiagonal T (LAPACK's syevd), whose
    threaded matrix products can change the last digits of kernels with m
    past a few hundred.
    """
    B, _ = _stencil(couplings, vol, shape)
    root = np.sqrt(vol)
    mean = np.sum(vol * p0) / np.sum(vol)
    w = root * (p0 - mean)
    norm = np.sqrt(np.sum(w * w))
    steps = np.asarray(steps)[:, None]

    alpha, beta = [], []
    limit = KRYLOV_MAX_PER_NODE * vol.shape[0]
    check, top = 8, np.nan
    q, q_prev, b = w / norm, 0.0, 0.0
    while True:
        v = B(q) - b * q_prev
        alpha.append(np.sum(q * v))
        v -= alpha[-1] * q
        b = np.sqrt(np.sum(v * v))
        m = len(alpha)
        invariant = b < np.finfo(float).tiny
        if m >= check or invariant:
            # eigh reads the lower triangle
            theta, Y = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1))
            z = 0.5 * dt * theta
            coef = ((1.0 + z) / (1.0 - z)) ** steps * Y[0] @ Y.T
            scale = np.abs(coef).max(axis=1)
            converged = np.all(np.abs(coef[:, -1]) <= KRYLOV_TOL * scale)
            # a time whose coefficients all underflow reads as converged,
            # so it waits until the Ritz value nearest 0, which sets its
            # decay, has settled since the last check
            settled = abs(theta[-1] - top) <= KRYLOV_TOL * abs(theta[-1])
            top = theta[-1]
            if invariant or converged and (settled or np.all(scale > 0.0)):
                break
            if m >= limit:
                raise Error(
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
            v = B(q) - (beta[j - 1] if j else 0.0) * q_prev
            v -= alpha[j] * q
            q, q_prev = v / beta[j], q
    return mean + out * (norm / root)


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
        raise Error("no candidate M values supplied")
    if np.any(arr <= 0) or np.any(np.diff(arr) <= 0):
        raise Error("candidates must be positive and increasing")
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
        """U at points of shape (..., d), pointwise over the leading
        axes."""
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != self.dim:
            raise Error(
                f"points must end in an axis of length {self.dim}, got "
                f"shape {pts.shape}")
        if self.fn is not None:
            return self.fn(pts)
        if self.dim == 1:
            return np.interp(pts[..., 0], self.axes[0], self.values,
                             left=0.0, right=0.0)
        return _bilinear(self.axes, self.values, pts)

    def window(self, qaxes):
        """For each ascending query axis, the slice of its nodes where U
        may be nonzero: the nodes q with ax[0] <= q <= ax[-1] of the
        table's axis on a tabulated U, which is 0 off its axes; every node
        on a closed form."""
        if self.fn is not None:
            return [slice(0, len(q)) for q in qaxes]
        return [slice(int(np.searchsorted(q, ax[0], side="left")),
                      int(np.searchsorted(q, ax[-1], side="right")))
                for ax, q in zip(self.axes, qaxes)]

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
        stored = self.axes is not None and box is None
        if stored:
            axes = self.axes
        elif box is None or h is None:
            raise Error("closed-form potentials need box and h")
        else:
            axes, _ = _axes_volumes(box, h, self.dim)
        # a block of rows at a time: each row's integral has the bits of
        # the whole table's, without its table-sized temporaries
        head, rest = axes[0], axes[1:]
        block = LQ_ROW_BLOCK if rest else head.shape[0]
        rows = np.empty(head.shape[0])
        for i in range(0, head.shape[0], block):
            vals = (self.values[i:i + block] if stored
                    else self.grid([head[i:i + block], *rest]))
            for ax in reversed(rest):
                vals = np.trapezoid(vals, ax, axis=-1)
            rows[i:i + block] = vals
        return float(np.trapezoid(rows, head))

    def save(self, prefix):
        """Write <prefix>.csv, the grid of values (one line per x in 2-d),
        and the <prefix>.json sidecar."""
        if self.axes is None:
            raise Error("only tabulated potentials serialize; "
                        "tabulate the closed form on a grid first")
        _save_table(prefix, self.axes, self.values, {
            "kind": "potential",
            "route": self.route,
            "h": float(self.axes[0][1] - self.axes[0][0]),
            "params": self.params,
        })


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
    """U nu(x) = integral of e^(-s) nu_s(x) ds, by one of three routes.

    source selects the route: "closed-form" (``field`` a constant a in
    d = 1, mollified or not, Dirac start), "grid" (the finite-volume
    (1 - L) U = nu solved on ``box`` at step ``h``, which needs ``field``), or
    "monte-carlo" (kernel-density estimate of X_T, T ~ Exponential(1),
    which needs ``field``).
    """
    if source == "grid":
        return _potential_from_solve(field, nu, box, h)
    if source == "closed-form":
        # (1 - a d^2/dx^2) U = delta_x0: U = e^(-|x - x0| / s) / (2 s),
        # s = sqrt(a); at a = 1 every operation by s is exact
        s = np.sqrt(check_closed_form(field, nu))
        x0 = float(nu.points[0, 0])
        return PotentialField(
            route="closed-form", dim=1, params={"x0": x0},
            fn=lambda pts: np.exp(-np.abs(pts[..., 0] - x0) / s) / (2.0 * s))
    if source == "monte-carlo":
        return _potential_from_samples(field, nu, n_samples, seed, step,
                                       t_cap)
    raise Error(f"unknown potential source {source!r}")


def check_closed_form(field, nu):
    """The constant a when the closed form covers the case: a constant
    field (mollified or not) in d = 1, from a Dirac start; raises
    otherwise."""
    base = getattr(field, "base", field)
    if not (base.is_constant and base.dim == nu.dim == 1
            and nu.kind == "dirac"):
        raise Error("the closed form fits only a 1-d constant field "
                    "from a dirac law; route grid covers the others")
    return base.values[0]


def _potential_from_solve(field, nu, box, h):
    """U nu on the vertex grid from the solve of (V - S) u = m, m the law's
    mass per node, by Jacobi-preconditioned conjugate gradients.

    With A = V^-1 S that is (1 - A) u = m / V, and 1^T S = 0, so the mass
    vol . u is 1 up to the residual.  The solve runs on the symmetric
    (I - B) w = V^-1/2 m, u = V^-1/2 w, whose eigenvalues are at least 1:
    B applied as the kernel's stencil, the preconditioner 1 - diag(B), and
    numpy sums for the inner products, so the bits do not depend on the
    BLAS thread count.  It stops at a residual of CG_TOL of V^-1/2 m and
    gives up after KRYLOV_MAX_PER_NODE steps per node.
    """
    hull_gap(nu, box)
    axes, vols = fv_grid(field, box, h)
    couplings, vol, shape = _assemble_operator(field, axes, vols, h)
    B, diag = _stencil(couplings, vol, shape)
    root, jacobi = np.sqrt(vol), 1.0 - diag
    r = _node_mass(nu, axes, h).ravel() / root
    stop = CG_TOL * np.sqrt(np.sum(r * r))
    w, z = np.zeros_like(r), r / jacobi
    p, rz = z, np.sum(r * z)
    for k in itertools.count(1):
        Ap = p - B(p)
        a = rz / np.sum(p * Ap)
        w += a * p
        r -= a * Ap
        if np.sqrt(np.sum(r * r)) <= stop:
            return PotentialField(route="grid", dim=field.dim,
                                  params={"scheme": "fv-resolvent"},
                                  axes=axes, values=(w / root).reshape(shape))
        if k >= KRYLOV_MAX_PER_NODE * vol.shape[0]:
            raise Error(f"the grid potential did not converge in {k} "
                        f"conjugate-gradient steps on {vol.shape[0]} nodes")
        z = r / jacobi
        rz, rz_prev = np.sum(r * z), rz
        p = z + (rz / rz_prev) * p


def hull_gap(nu, box, interior=False):
    """The least distance from the hull of nu's support to a face of box;
    raises Error when the hull reaches outside the box or, with
    ``interior``, touches a face."""
    lo, hi = np.reshape(np.asarray(box, dtype=float), (-1, 2)).T
    a, b = nu.hull()
    gap = float(min(np.min(a - lo), np.min(hi - b)))
    if gap < 0.0 or interior and not gap > 0.0:
        where = "interior of the box" if interior else "box"
        raise Error(f"the initial law's support, {a.tolist()} to "
                    f"{b.tolist()}, reaches outside the {where} {box}")
    return gap


def _node_mass(nu, axes, h):
    """The mass nu puts in each node's dual cell (the node +- h/2, cut at
    the box), on the grid's shape.

    Each atom adds its weight to its nearest node.  A grid density
    charges each dual cell the exact overlap with each of its cells, axis
    by axis: along axis k, the difference of the mass below the two cuts
    of the dual cell, the cells' cumulative sum read linearly inside a
    cell.  Sums and differences, with no BLAS product, so the bits do not
    depend on the BLAS thread count.
    """
    if nu.kind != "grid-density":
        out = np.zeros(tuple(ax.shape[0] for ax in axes))
        for pt, w in zip(nu.points, nu.weights):
            out[tuple(int(round((c - ax[0]) / h))
                      for c, ax in zip(pt, axes))] += w
        return out
    out = nu.cell_probs
    for k, (e, ax) in enumerate(zip(nu.edges, axes)):
        cuts = np.append(ax - h / 2, ax[-1] + h / 2)
        # the cell j each cut falls in (the first or last off the edges)
        # and the part of it below the cut
        j = np.clip(np.searchsorted(e, cuts, side="right") - 1, 0,
                    e.shape[0] - 2)
        frac = np.clip((cuts - e[j]) / (e[j + 1] - e[j]), 0.0, 1.0)
        shape = [1] * out.ndim
        shape[k] = -1
        # below[j]: the mass of the cells before cell j
        below = np.insert(np.cumsum(out, axis=k), 0, 0.0, axis=k)
        out = np.diff(below.take(j, axis=k) + frac.reshape(shape)
                      * out.take(j, axis=k), axis=k)
    return out


def _potential_from_samples(field, nu, n_samples, seed, step, t_cap):
    if field is None:
        raise Error("the monte-carlo route needs the coefficient field")
    if n_samples < MIN_KDE_SAMPLES:
        raise Error(
            f"{n_samples} < {MIN_KDE_SAMPLES} samples for the KDE route")
    dim = field.dim
    bw = KDE_BANDWIDTH[dim]
    # T, the start points and every Euler increment come from this one
    # stream; the attempt offset keys it apart from the path streams, so
    # the estimate shares no draws with the simulated paths
    rng = _sampling.path_rng(seed, 0, attempt=1_000_003)
    # the states are passed on without a name, so _kde_field holds the
    # only reference and frees them once binned
    return _kde_field(_terminal_states(field, nu, n_samples, t_cap, step,
                                       rng), bw, dim,
                      {"n_samples": int(n_samples), "bandwidth": bw,
                       "t_cap": float(t_cap), "seed": int(seed),
                       "exact_time": bool(field.is_constant),
                       "step": None if field.is_constant else float(step)})


def _terminal_states(field, nu, n, t_cap, step, rng):
    """X_T of n samples, T ~ Exponential(1) capped at t_cap and X_0 ~ nu,
    drawn in that order from ``rng``, followed by the increments.

    On a constant field X_T is Gaussian given T and drawn exactly, in
    sample order.  Otherwise one Euler sweep over all samples gives it in
    step order: most steps first, ties in sample order.  Samples are
    sorted by step count, so Euler step j advances the prefix of samples
    that still have more than j steps to go; its (n_active, d) increments
    are the next draws of ``rng``.
    """
    T = rng.exponential(size=n)
    np.minimum(T, t_cap, out=T)
    if field.is_constant:
        # a Dirac draws nothing, so its one point is added by broadcasting
        x0 = (nu.points[0] if nu.kind == "dirac"
              else _sampling.sample_initial(nu, rng, n))
        # x0 + sqrt(T) (z sqrt(2 a)), formed in z
        z = rng.standard_normal((n, field.dim))
        z *= np.sqrt(2.0 * field._diag_many(np.zeros((1, field.dim)))[0])
        z *= np.sqrt(T, out=T)[:, None]
        z += x0
        return z
    x0 = _sampling.sample_initial(nu, rng, n)
    _sampling.check_em_field(field)
    # minus the step counts, so a stable sort puts the most steps first
    neg = np.divide(T, -step)
    np.minimum(np.round(neg, out=neg), -1.0, out=neg)
    del T
    order = np.argsort(neg, kind="stable")
    x = x0[order]
    del x0
    # n_active[j] = number of samples with more than j steps
    n_active = np.searchsorted(neg[order], -np.arange(-neg.min()))
    del neg, order
    xi = np.empty_like(x)
    for m in n_active:
        # the draws stay one (m, d) block so the stream does not move
        rng.standard_normal(out=xi[:m])
        for i in range(0, m, EULER_ROW_BLOCK):
            j = min(i + EULER_ROW_BLOCK, m)
            x[i:j] = _sampling.em_step(field, x[i:j], xi[i:j], step)
    return x


KDE_MAX_HALFWIDTH = 24.0


def _median(samples):
    """np.median(samples, axis=0) bit for bit, by its own partition and
    mean, without the NaN check that imports numpy.ma.  Each column is
    partitioned alone, so one column is copied at a time."""
    k = range((samples.shape[0] - 1) // 2, samples.shape[0] // 2 + 1)
    mid = np.empty((len(k), samples.shape[1]))
    for j in range(samples.shape[1]):
        mid[:, j] = np.partition(samples[:, j], [*k, -1])[k.start:k.stop]
    return mid.mean(axis=0)


def _bin_index(samples, edges):
    """Each sample's bin as one flat index into the grid of ``edges``
    padded by one outlier bin per side, built axis by axis in place by
    np.histogramdd's rule: bin searchsorted(e, x, "right") on each axis,
    a sample on the last edge moved one bin left."""
    flat = np.zeros(samples.shape[0], dtype=np.intp)
    for k, e in enumerate(edges):
        x = samples[:, k]
        idx = np.searchsorted(e, x, side="right")
        idx[x == e[-1]] -= 1
        flat *= e.shape[0] + 1
        flat += idx
        del idx
    return flat


def _kde_field(samples, bw, dim, params):
    """Bin the samples, then convolve with a Gaussian of width bw; the
    result is tabulated on the fine bin grid.

    Rare far-out samples are folded into the edge bins (``samples`` is
    clipped in place, and released once binned) so the tabulated grid
    stays bounded; the potential out there is below e^(-24) of its peak,
    so the relocated mass is invisible at Monte Carlo accuracy.
    """
    bin_h = bw / 10.0 if dim == 1 else bw / 5.0
    center = _median(samples)
    np.clip(samples, center - KDE_MAX_HALFWIDTH, center + KDE_MAX_HALFWIDTH,
            out=samples)
    lo = samples.min(axis=0) - 5.0 * bw
    hi = samples.max(axis=0) + 5.0 * bw
    kx = np.arange(-5 * bw, 5 * bw + bin_h / 2, bin_h)
    kern = np.exp(-0.5 * (kx / bw) ** 2)
    kern /= kern.sum() * bin_h
    edges = [np.arange(a, b + bin_h, bin_h) for a, b in zip(lo, hi)]
    n, padded = samples.shape[0], [e.shape[0] + 1 for e in edges]
    flat = _bin_index(samples, edges)
    del samples
    counts = np.bincount(flat, minlength=int(np.prod(padded)))
    del flat
    # counts are exact integers, so this has the bits of histogramdd's
    # float table divided by n
    dens = np.divide(counts.reshape(padded)[(slice(1, -1),) * dim], n)
    for k in range(dim):
        # in place: each convolve reads its own line and returns a new
        # array before the line is overwritten
        lines = np.moveaxis(dens, k, -1)
        for i in np.ndindex(lines.shape[:-1]):
            lines[i] = np.convolve(lines[i], kern, mode="same")
    return PotentialField(route="monte-carlo-kde", dim=dim, params=params,
                          axes=[0.5 * (e[:-1] + e[1:]) for e in edges],
                          values=dens)


# ------------------------------------------------------------- L^2 norm

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
    # -(z c) is z (-c) exactly, so the table is exponentiated in place
    e = np.multiply.outer(z, -_K0_C)
    k = np.exp(-z) * (np.exp(e, out=e) @ _K0_W)
    return np.where(z > 0.0, k, np.inf)


def _envelope_potential(r, M):
    """Pointwise upper bound on U nu(x) in d = 2 at distance r from the
    hull of nu's support, from the upper Gaussian envelope integrated
    against e^(-s)."""
    return 2.0 * M * _k0(2.0 * r / np.sqrt(M))


def potential_Lq_norm(U, nu, box, h=0.01):
    """The squared L^2 norm of U = U nu as (box value, tail bound): the
    trapezoid integral of U^2 over the box, and an envelope bound on the
    integral off it.

    Off the box every point is at least R from the hull of nu's support,
    R the gap from the hull to the nearest box face, and U there is at
    most the upper envelope (M = ENVELOPE_M) at that distance.  The tail
    integrates its square over the points at distance r >= R from the
    hull: 2 of them per r in d = 1, a curve of length 2 pi r + P in d = 2
    (Steiner's formula, P the hull's perimeter, 0 for a Dirac).
    """
    R = hull_gap(nu, box, interior=True)
    axes, _ = _axes_volumes(box, h, U.dim)
    head, rest = axes[0], axes[1:]
    # U is evaluated on its window only and zero-filled to the full
    # width, so each point and each row integral is computed as on the
    # whole grid; rows off the window integrate to 0
    win = U.window(axes)
    cols = (slice(None), *win[1:])
    inner = [ax[w] for ax, w in zip(rest, win[1:])]
    block = LQ_ROW_BLOCK if rest else head.shape[0]
    rows = np.zeros(head.shape[0])
    for i in range(win[0].start, win[0].stop, block):
        j = min(i + block, win[0].stop)
        vals = np.zeros((j - i, *(ax.shape[0] for ax in rest)))
        vals[cols] = np.maximum(U.grid([head[i:j], *inner]), 0.0) ** 2.0
        for ax in reversed(rest):
            vals = np.trapezoid(vals, ax, axis=-1)
        rows[i:j] = vals
    box_value = float(np.trapezoid(rows, head))

    M = ENVELOPE_M
    if U.dim == 1:
        # closed form: 2 int_R^inf (M sqrt(pi))^2 e^(-4 r / sqrt M) dr
        amp = (M * np.sqrt(np.pi)) ** 2.0
        tail = 2.0 * amp * np.sqrt(M) / 4.0 * np.exp(-4.0 * R / np.sqrt(M))
    else:
        r = R * np.exp(np.linspace(0.0, 4.0, 400))
        env = _envelope_potential(r, M) ** 2.0
        a, b = nu.hull()
        perimeter = 2.0 * float(np.sum(b - a))
        tail = float(np.trapezoid(env * (2.0 * np.pi * r + perimeter), r))
    return box_value, float(tail)
