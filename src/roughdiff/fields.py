"""Uniformly elliptic coefficient fields a(x) and operations on them.

A field assigns to every point x a diagonal matrix a(x) = diag(a_11(x),
..., a_dd(x)) and is given by that diagonal; each entry satisfies

    1/lam  <=  a_ii(x)  <=  lam,

for a single ellipticity constant lam >= 1.  Fields carry a smoothness tag:
"smooth" fields admit pointwise derivatives, "rough" fields (piecewise
constant) do not, and "mollified" fields are smoothed versions of rough ones
obtained by convolution against a compactly supported bump.

All evaluation is batched: ``field.diagonal(points)`` accepts a single point
of shape (d,) or a stack of shape (N, d) and returns the same shape.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveDefinite,
    RoughFieldError,
    UnknownName,
)


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
    """Base class for coefficient fields; subclasses define ``_diag_many``,
    the diagonal of a at points (N, d) as an (N, d) array.

    Attributes
    ----------
    dim : int
        Space dimension d.
    lam : float
        Ellipticity constant, >= 1: every diagonal entry lies in
        [1/lam, lam].
    smoothness : str
        One of "smooth", "rough", "mollified".
    feature_scale : float or None
        Size of the finest spatial feature (cell size for checkerboards),
        None when the field has no small-scale structure.
    is_constant : bool
        True when a(x) does not depend on x.
    """

    dim = 1
    lam = 1.0
    smoothness = "smooth"
    feature_scale = None
    is_constant = False

    def _diag_many(self, pts):
        raise NotImplementedError

    def diagonal(self, x):
        """Diagonal entries of a(x); (d,) -> (d,) and (N, d) -> (N, d)."""
        pts, single = _as_points(x, self.dim)
        out = self._diag_many(pts)
        return out[0] if single else out

    def matrix_and_divergence(self, pts):
        """The diagonal of a and div a at the points (N, d), both (N, d),
        for the Euler-Maruyama step."""
        return self._diag_many(pts), divergence(self, pts)


class IdentityField(CoefficientField):
    """a(x) = Id."""

    smoothness = "smooth"
    is_constant = True

    def __init__(self, dim=1):
        self.dim = int(dim)
        self.lam = 1.0

    def _diag_many(self, pts):
        return np.ones_like(pts)


class ConstantDiagonalField(CoefficientField):
    """a(x) = diag(values), constant in x."""

    smoothness = "smooth"
    is_constant = True

    def __init__(self, values):
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if np.any(vals <= 0):
            raise NonPositiveDefinite(f"diagonal values must be > 0: {vals}")
        self.values = vals
        self.dim = vals.shape[0]
        self.lam = float(max(vals.max(), 1.0 / vals.min(), 1.0))

    def _diag_many(self, pts):
        return np.broadcast_to(self.values, pts.shape).copy()


class CheckerboardField(CoefficientField):
    """Periodic two-valued checkerboard, a(x) = hi or lo times Id.

    Cells are half-open boxes of side ``cell``; the value is hi on cells
    whose integer index parity (sum over axes) is even and lo otherwise.
    The field is piecewise constant, hence tagged rough.
    """

    smoothness = "rough"

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
        # a sum over the index columns and a bit test: .sum(axis=1) over
        # the short inner axis and an integer % 2 are many times slower
        k = sum(np.floor(pts / self.cell).astype(np.int64).T)
        return np.where((k & 1) == 0, self.hi, self.lo)

    def _diag_many(self, pts):
        # a contiguous copy: MollifiedField's einsum sums in an order set
        # by its operands' strides, and a zero-stride view moves its bytes
        return np.stack([self.scalar(pts)] * self.dim, axis=1)


class SmoothSineField(CoefficientField):
    """a(x) = (1 + 0.5 sin(x_1)) Id, a smooth non-constant diagonal field."""

    smoothness = "smooth"

    def __init__(self, dim=1):
        self.dim = int(dim)
        self.lam = 2.0  # values lie in [1/2, 3/2] and 3/2 <= 2

    def scalar(self, pts):
        return 1.0 + 0.5 * np.sin(pts[:, 0])

    def _diag_many(self, pts):
        return np.stack([self.scalar(pts)] * self.dim, axis=1)

    def divergence_many(self, pts):
        # the divergence of s(x1) Id is (s'(x1), 0, ..., 0)
        out = np.zeros_like(pts)
        out[:, 0] = 0.5 * np.cos(pts[:, 0])
        return out


class ExplicitField(CoefficientField):
    """Field defined by a user callable mapping (N, d) points to diagonals.

    The callable may return shape (N, d), or (N,) / (N, 1) for a scalar
    field interpreted as s(x) Id.  Smoothness and the ellipticity constant
    are declared by the caller and trusted.
    """

    def __init__(self, fn, dim, lam, smoothness="smooth"):
        self.fn = fn
        self.dim = int(dim)
        self.lam = float(lam)
        self.smoothness = smoothness

    def _diag_many(self, pts):
        raw = np.asarray(self.fn(pts), dtype=float)
        return np.broadcast_to(raw.reshape(pts.shape[0], -1), pts.shape)


def _bump(u2):
    """Bump profile (1 - |u|^2)^2 on the unit ball, 0 outside; u2 = |u|^2."""
    return np.clip(1.0 - u2, 0.0, None) ** 2


class MollifiedField(CoefficientField):
    """Convolution of a base field against a normalized bump of radius eps.

    The convolution integral is approximated by a fixed tensor quadrature,
    six Gauss-Legendre nodes per axis, with the bump profile folded into the
    weights and the total weight normalized to one.  Constants are therefore
    reproduced exactly and the ellipticity interval is preserved (each
    diagonal entry is a convex combination of base values).

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
        """Base-field diagonals at all quadrature shifts, (N, K, d)."""
        n, k = pts.shape[0], self.nodes.shape[0]
        shifted = pts[:, None, :] - self.eps * self.nodes[None, :, :]
        vals = self.base._diag_many(shifted.reshape(n * k, self.dim))
        return vals.reshape(n, k, self.dim)

    def _diag_many(self, pts):
        vals = self._shifted_values(pts)
        return np.einsum("k,nki->ni", self.weights, vals)

    def divergence_many(self, pts):
        vals = self._shifted_values(pts)
        return np.einsum("kp,nkp->np", self.dweights, vals)

    def matrix_and_divergence(self, pts):
        """Both diag a(x) and div a(x) from one sweep over the base field."""
        vals = self._shifted_values(pts)
        a = np.einsum("k,nki->ni", self.weights, vals)
        div = np.einsum("kp,nkp->np", self.dweights, vals)
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

def divergence(field, x, step=1e-4):
    """Divergence of the field, (div a)_i = d_i a_ii.

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
        hi = field._diag_many(pts + shift)
        lo = field._diag_many(pts - shift)
        out[:, i] = (hi[:, i] - lo[:, i]) / (2.0 * step)
    return out[0] if single else out
