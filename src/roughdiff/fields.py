"""Uniformly elliptic coefficient fields a(x) and operations on them.

A field assigns to every point x a symmetric matrix a(x) with

    (1/lam) |xi|^2  <=  xi . a(x) xi  <=  lam |xi|^2,

for a single ellipticity constant lam >= 1.  Fields carry a smoothness tag:
"smooth" fields admit pointwise derivatives, "rough" fields (piecewise
constant) do not, and "mollified" fields are smoothed versions of rough ones
obtained by convolution against a compactly supported bump.

All evaluation is batched: ``field.matrix(points)`` accepts a single point of
shape (d,) or a stack of shape (N, d).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NonDiagonalField,
    NonPositiveDefinite,
    NonSymmetricMatrix,
    RoughFieldError,
    UnknownName,
)

SYMMETRY_TOL = 1e-12


def _as_points(x, dim):
    """Return (points (N, d), was_single) from a (d,) or (N, d) input."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        if pts.shape[0] != dim:
            raise DimensionMismatch(
                f"point has dimension {pts.shape[0]}, field has {dim}")
        return pts[None, :], True
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimensionMismatch(
            f"expected points of shape (N, {dim}), got {pts.shape}")
    return pts, False


class CoefficientField:
    """Base class for coefficient fields.

    Attributes
    ----------
    dim : int
        Space dimension d.
    lam : float
        Ellipticity constant, >= 1.
    smoothness : str
        One of "smooth", "rough", "mollified".
    feature_scale : float or None
        Size of the finest spatial feature (cell size for checkerboards),
        None when the field has no small-scale structure.
    is_diagonal : bool
        True when a(x) is diagonal for every x.
    is_constant : bool
        True when a(x) does not depend on x.
    """

    dim = 1
    lam = 1.0
    smoothness = "smooth"
    feature_scale = None
    is_diagonal = False
    is_constant = False

    def _matrix_many(self, pts):
        raise NotImplementedError

    def matrix(self, x):
        """Evaluate a(x); (d,) -> (d, d) and (N, d) -> (N, d, d)."""
        pts, single = _as_points(x, self.dim)
        out = self._matrix_many(pts)
        return out[0] if single else out

    def diagonal(self, x):
        """Diagonal entries of a(x); (N, d) -> (N, d)."""
        if not self.is_diagonal:
            raise NonDiagonalField(f"{type(self).__name__} is not diagonal")
        pts, single = _as_points(x, self.dim)
        out = self._diag_many(pts)
        return out[0] if single else out

    def _diag_many(self, pts):
        a = self._matrix_many(pts)
        return np.einsum("nii->ni", a)

    def __call__(self, x):
        return self.matrix(x)


class IdentityField(CoefficientField):
    """a(x) = Id."""

    smoothness = "smooth"
    is_diagonal = True
    is_constant = True

    def __init__(self, dim=1):
        self.dim = int(dim)
        self.lam = 1.0

    def _matrix_many(self, pts):
        n = pts.shape[0]
        out = np.zeros((n, self.dim, self.dim))
        idx = np.arange(self.dim)
        out[:, idx, idx] = 1.0
        return out

    def _diag_many(self, pts):
        return np.ones_like(pts)


class ConstantDiagonalField(CoefficientField):
    """a(x) = diag(values), constant in x."""

    smoothness = "smooth"
    is_diagonal = True
    is_constant = True

    def __init__(self, values):
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if np.any(vals <= 0):
            raise NonPositiveDefinite(f"diagonal values must be > 0: {vals}")
        self.values = vals
        self.dim = vals.shape[0]
        self.lam = float(max(vals.max(), 1.0 / vals.min(), 1.0))

    def _matrix_many(self, pts):
        out = np.zeros((pts.shape[0], self.dim, self.dim))
        idx = np.arange(self.dim)
        out[:, idx, idx] = self.values
        return out

    def _diag_many(self, pts):
        return np.broadcast_to(self.values, pts.shape).copy()


class CheckerboardField(CoefficientField):
    """Periodic two-valued checkerboard, a(x) = hi or lo times Id.

    Cells are half-open boxes of side ``cell``; the value is hi on cells
    whose integer index parity (sum over axes) is even and lo otherwise.
    The field is piecewise constant, hence tagged rough.
    """

    smoothness = "rough"
    is_diagonal = True

    def __init__(self, lo, hi, cell=1.0, dim=1):
        if not (0 < lo <= hi):
            raise NonPositiveDefinite(f"need 0 < lo <= hi, got {lo}, {hi}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.cell = float(cell)
        self.dim = int(dim)
        self.lam = float(max(hi, 1.0 / lo, 1.0))
        self.feature_scale = self.cell

    def scalar(self, pts):
        """Scalar value of the field at each point, shape (N,)."""
        k = np.floor(pts / self.cell).astype(np.int64).sum(axis=1)
        return np.where(k % 2 == 0, self.hi, self.lo)

    def _matrix_many(self, pts):
        s = self.scalar(pts)
        out = np.zeros((pts.shape[0], self.dim, self.dim))
        idx = np.arange(self.dim)
        out[:, idx, idx] = s[:, None]
        return out

    def _diag_many(self, pts):
        return np.repeat(self.scalar(pts)[:, None], self.dim, axis=1)


class SmoothSineField(CoefficientField):
    """a(x) = (1 + 0.5 sin(x_1)) Id, a smooth non-constant diagonal field."""

    smoothness = "smooth"
    is_diagonal = True

    def __init__(self, dim=1):
        self.dim = int(dim)
        self.lam = 2.0  # values lie in [1/2, 3/2] and 3/2 <= 2

    def scalar(self, pts):
        return 1.0 + 0.5 * np.sin(pts[:, 0])

    def _matrix_many(self, pts):
        s = self.scalar(pts)
        out = np.zeros((pts.shape[0], self.dim, self.dim))
        idx = np.arange(self.dim)
        out[:, idx, idx] = s[:, None]
        return out

    def _diag_many(self, pts):
        return np.repeat(self.scalar(pts)[:, None], self.dim, axis=1)

    def divergence_many(self, pts):
        # row divergence of s(x1) Id is (s'(x1), 0, ..., 0)
        out = np.zeros_like(pts)
        out[:, 0] = 0.5 * np.cos(pts[:, 0])
        return out


class ExplicitField(CoefficientField):
    """Field defined by a user callable mapping (N, d) points to matrices.

    The callable may return shape (N, d, d), or (N,) / (N, 1) for a scalar
    field interpreted as s(x) Id.  Smoothness and the ellipticity constant
    are declared by the caller and trusted.
    """

    def __init__(self, fn, dim, lam, smoothness="smooth", is_diagonal=False):
        self.fn = fn
        self.dim = int(dim)
        self.lam = float(lam)
        self.smoothness = smoothness
        self.is_diagonal = bool(is_diagonal)

    def _matrix_many(self, pts):
        raw = np.asarray(self.fn(pts), dtype=float)
        if raw.ndim == 3:
            return raw
        s = raw.reshape(pts.shape[0])
        out = np.zeros((pts.shape[0], self.dim, self.dim))
        idx = np.arange(self.dim)
        out[:, idx, idx] = s[:, None]
        return out


def _bump(u2):
    """Bump profile (1 - |u|^2)^2 on the unit ball, 0 outside; u2 = |u|^2."""
    return np.clip(1.0 - u2, 0.0, None) ** 2


class MollifiedField(CoefficientField):
    """Convolution of a base field against a normalized bump of radius eps.

    The convolution integral is approximated by a fixed tensor quadrature,
    six Gauss-Legendre nodes per axis, with the bump profile folded into the
    weights and the total weight normalized to one.  Constants are therefore
    reproduced exactly and the ellipticity interval is preserved (the value
    is a convex combination of base values).

    The divergence is exposed through the identity d(a * phi) = a * (d phi):
    the same nodes are reused with derivative-kernel weights.  Differencing
    the quadrature-approximated convolution instead would be ill-posed (it
    is piecewise constant in x), which is why the field publishes
    ``divergence_many`` directly.
    """

    smoothness = "mollified"

    def __init__(self, base, eps):
        if eps <= 0:
            raise ValueError(f"mollification radius must be > 0, got {eps}")
        self.base = base
        self.eps = float(eps)
        self.dim = base.dim
        self.lam = base.lam
        self.feature_scale = base.feature_scale
        self.is_diagonal = base.is_diagonal

        x, w = np.polynomial.legendre.leggauss(6)
        x = 0.5 * (x - x[::-1])   # enforce exact +/- symmetry
        w = 0.5 * (w + w[::-1])
        grids = np.meshgrid(*([x] * self.dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)  # (K, d)
        wtens = np.ones(nodes.shape[0])
        for g in np.meshgrid(*([w] * self.dim), indexing="ij"):
            wtens = wtens * g.ravel()
        u2 = (nodes ** 2).sum(axis=1)
        raw = wtens * _bump(u2)
        z = raw.sum()
        self.nodes = nodes
        self.weights = raw / z
        # derivative kernel: d_i phi(u) = -4 u_i (1 - |u|^2)_+
        dphi = -4.0 * nodes * np.clip(1.0 - u2, 0.0, None)[:, None]
        self.dweights = wtens[:, None] * dphi / (self.eps * z)  # (K, d)

    def _shifted_values(self, pts):
        """Base-field matrices at all quadrature shifts, (N, K, d, d)."""
        n, k = pts.shape[0], self.nodes.shape[0]
        shifted = pts[:, None, :] - self.eps * self.nodes[None, :, :]
        vals = self.base._matrix_many(shifted.reshape(n * k, self.dim))
        return vals.reshape(n, k, self.dim, self.dim)

    def _matrix_many(self, pts):
        vals = self._shifted_values(pts)
        return np.einsum("k,nkij->nij", self.weights, vals)

    def divergence_many(self, pts):
        vals = self._shifted_values(pts)
        return np.einsum("kp,nkpq->nq", self.dweights, vals)

    def matrix_and_divergence(self, pts):
        """Both a(x) and div a(x) from one sweep over the base field."""
        vals = self._shifted_values(pts)
        a = np.einsum("k,nkij->nij", self.weights, vals)
        div = np.einsum("kp,nkpq->nq", self.dweights, vals)
        return a, div


# config parameters of each entry as runner.Key tuples, ``...`` marking a
# required one; the constructors check the ranges they need
_DIM = ("integer", 1, 1)
_MOLLIFY = ("number", None)
PARAMS = {
    "identity": {"dim": _DIM, "mollify": _MOLLIFY},
    "constant-diagonal": {"values": ("list", ..., None, "number"),
                          "mollify": _MOLLIFY},
    "checkerboard": {"lo": ("number", ...), "hi": ("number", ...),
                     "cell": ("number", 1.0, 0.0), "dim": _DIM,
                     "mollify": _MOLLIFY},
    "smooth-sine": {"dim": _DIM, "mollify": _MOLLIFY},
}
_CATALOG = {"identity": IdentityField,
            "constant-diagonal": ConstantDiagonalField,
            "checkerboard": CheckerboardField,
            "smooth-sine": SmoothSineField}


def make_field(name, mollify=None, **params):
    """The catalog entry ``name`` (see PARAMS), mollified with radius
    ``mollify`` when given.  Raises UnknownName for other names."""
    if name not in _CATALOG:
        raise UnknownName(f"no coefficient field named {name!r}")
    f = _CATALOG[name](**params)
    return f if mollify is None else MollifiedField(f, mollify)


# ---------------------------------------------------------------- operations

def sqrt_matrix_batch(a):
    """Principal square roots of a stack (N, d, d) of SPD matrices."""
    a = np.asarray(a, dtype=float)
    gap = np.abs(a - np.swapaxes(a, -1, -2)).max()
    if gap > SYMMETRY_TOL:
        raise NonSymmetricMatrix(
            f"matrix asymmetry {gap:.3e} exceeds {SYMMETRY_TOL:.1e}")
    vals, vecs = np.linalg.eigh(a)
    if vals.min() <= 0:
        raise NonPositiveDefinite(
            f"smallest eigenvalue {vals.min():.3e} is not positive")
    root = np.sqrt(vals)
    return np.einsum("...ik,...k,...jk->...ij", vecs, root, vecs)


def sqrt_matrix(a):
    """Principal square root of one symmetric positive definite matrix.

    Computed by symmetric eigendecomposition with square-rooted
    eigenvalues, so the result is itself symmetric positive definite and
    squares back to the input to machine precision.

    Raises
    ------
    NonSymmetricMatrix
        If ``a`` deviates from symmetry by more than SYMMETRY_TOL.
    NonPositiveDefinite
        If any eigenvalue is <= 0.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {a.shape}")
    return sqrt_matrix_batch(a[None])[0]


def divergence(field, x, step=1e-4):
    """Row divergence of the field, (div a)_j = sum_i d_i a_ij.

    Smooth fields are differenced centrally with the given step; mollified
    fields answer through their derivative-kernel quadrature.  Rough fields
    raise RoughFieldError: their divergence only exists as a distribution.

    Accepts a single point (d,) or a stack (N, d) and matches the shape on
    output.
    """
    pts, single = _as_points(x, field.dim)
    if hasattr(field, "divergence_many"):
        out = field.divergence_many(pts)
        return out[0] if single else out
    if field.smoothness == "rough":
        raise RoughFieldError(
            "central differences need a smooth field; mollify it first")
    d = field.dim
    out = np.zeros_like(pts)
    for i in range(d):
        shift = np.zeros(d)
        shift[i] = step
        hi = field._matrix_many(pts + shift)
        lo = field._matrix_many(pts - shift)
        out += (hi[:, i, :] - lo[:, i, :]) / (2.0 * step)
    return out[0] if single else out
