"""Uniformly elliptic coefficient fields a(x) and operations on them.

A field assigns to every point x a diagonal matrix a(x) = diag(a_11(x),
..., a_dd(x)) and is given by that diagonal; each entry satisfies

    1/lam  <=  a_ii(x)  <=  lam,

for a single ellipticity constant lam >= 1.  Fields carry a smoothness tag:
"smooth" fields admit pointwise derivatives, "rough" fields (piecewise
constant) do not, and "mollified" fields are smoothed versions of rough ones
obtained by convolution against a compactly supported bump.

The catalog's identity is the constant diagonal of ones, and the
checkerboard and smooth-sine fields are scalar, a(x) = s(x) Id: they
state s and share the diagonal built from it.

A field is evaluated on a stack of points (N, d) in two ways:
``field._diag_many(points)`` returns the diagonal of a, and every field
that takes an Euler-Maruyama step (non-constant and not rough) states its
drift exactly in ``field.matrix_and_divergence(points)``, which returns the
same diagonal together with div a, both (N, d).

A mollified field is its base convolved with the product bump
phi(u) = prod_i (15/16)(1 - u_i^2)_+^2 of radius eps.  Each catalog entry
states that convolution and its drift in closed form, in
``mollified(pts, eps)`` next to its own formula, so the drift is the exact
derivative of the diagonal.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Error


class CoefficientField:
    """Base class for coefficient fields; subclasses define ``_diag_many``,
    the diagonal of a at points (N, d) as an (N, d) array, or, for a
    scalar field a(x) = s(x) Id, ``scalar``, s at each point as (N,), and
    those that take an Euler-Maruyama step also ``matrix_and_divergence``.

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
        # a contiguous copy, like every other field's diagonal, not a
        # read-only zero-stride view
        return np.column_stack([self.scalar(pts)] * self.dim)


class ConstantDiagonalField(CoefficientField):
    """a(x) = diag(values), constant in x."""

    smoothness = "smooth"
    is_constant = True

    def __init__(self, values):
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if np.any(vals <= 0):
            raise Error(f"diagonal values must be > 0: {vals}")
        self.values = vals
        self.dim = vals.shape[0]
        self.lam = float(max(vals.max(), 1.0 / vals.min(), 1.0))

    def _diag_many(self, pts):
        return np.broadcast_to(self.values, pts.shape).copy()

    def mollified(self, pts, eps):
        """A constant is its own mollification, with no drift."""
        return self._diag_many(pts), np.zeros_like(pts)


class CheckerboardField(CoefficientField):
    """Periodic two-valued checkerboard, a(x) = hi or lo times Id.

    Cells are half-open boxes of side ``cell``; the value is hi on cells
    whose integer index parity (sum over axes) is even and lo otherwise.
    The field is piecewise constant, hence tagged rough.
    """

    smoothness = "rough"

    def __init__(self, lo, hi, cell=1.0, dim=1):
        if not (0 < lo <= hi):
            raise Error(f"need 0 < lo <= hi, got {lo}, {hi}")
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

    def mollified(self, pts, eps):
        """mid + amp prod_k w(x_k) and its drift amp w'(x_k) prod_{j != k}
        w(x_j): the cell sign (-1)^(sum_k floor(x_k / cell)) is a product
        over the axes, and so is the bump, so each axis convolves its own
        sign into w (see _smoothed_sign)."""
        c = self.cell
        amp = 0.5 * (self.hi - self.lo)
        # t = (x - c/2 over a period of two cells) / 2c, in [-1/2, 1/2];
        # r = (|2 c t| - c/2) / eps is the cell sign times the distance to
        # the nearest edge in radii, and its slope is sign(t) / eps
        t = pts * (0.5 / c)
        t += 0.25
        t -= np.rint(t)
        slope = np.copysign(1.875 * amp / eps, t)
        r = np.abs(t, out=t)
        r *= 2.0 * c / eps
        r -= 0.5 * c / eps
        w, dw = _smoothed_sign(r, c / eps)
        dw *= slope
        prod = w[:, :1]
        for i in range(1, self.dim):
            dw *= np.roll(w, -i, axis=1)
            prod = prod * w[:, i:i + 1]
        prod *= amp
        prod += 0.5 * (self.hi + self.lo)
        return prod.repeat(self.dim, axis=1), dw


class SmoothSineField(CoefficientField):
    """a(x) = (1 + 0.5 sin(x_1)) Id, a smooth non-constant diagonal field."""

    smoothness = "smooth"

    def __init__(self, dim=1):
        self.dim = int(dim)
        self.lam = 2.0  # values lie in [1/2, 3/2] and 3/2 <= 2

    def scalar(self, pts, amp=0.5):
        return 1.0 + amp * np.sin(pts[:, 0])

    def matrix_and_divergence(self, pts, amp=0.5):
        """diag a(x) and div a(x) = (s'(x_1), 0, ..., 0), both (N, d), for
        the sine's amplitude amp."""
        div = np.zeros_like(pts)
        div[:, 0] = amp * np.cos(pts[:, 0])
        return np.column_stack([self.scalar(pts, amp)] * self.dim), div

    def mollified(self, pts, eps):
        """The bump's average of sin(x_1 - eps u_1) is m(eps) sin(x_1), with
        m(eps) = int cos(eps t) (15/16)(1 - t^2)^2 dt over [-1, 1]
        = 15 ((3 - eps^2) sin eps - 3 eps cos eps) / eps^5.  Below eps = 1
        that form cancels, and its Taylor series, 1 - eps^2/14 + ..., whose
        ninth term is under the rounding, is taken instead."""
        if eps >= 1.0:
            m = 15.0 * ((3.0 - eps * eps) * math.sin(eps)
                        - 3.0 * eps * math.cos(eps)) / eps ** 5
        else:
            m = term = 1.0
            for k in range(1, 9):
                term *= -eps * eps / (2 * k * (2 * k + 5))
                m += term
        return self.matrix_and_divergence(pts, 0.5 * m)


def _smoothed_sign(r, rho):
    """w and (8/15) dw/dr, for w the +-1 cell sign convolved with the 1-d
    bump (15/16)(1 - u^2)_+^2 of radius eps, at r, the sign times the
    distance to the nearest cell edge in radii; rho = cell / eps.

    An edge r' radii away flips the sign, so it adds +-(G(r') - sign r'),
    with G(r) = (15/8)(r - 2 r^3/3 + r^5/5) on [-1, 1] and +-1 beyond it,
    twice the bump's mass on [0, r].  The nearest edge's sign r' cancels
    the sign itself, and the edges a whole number j of cells off pair up,
    which leaves w = G(r) + sum_j (-1)^j (G(r + j rho) + G(r - j rho)).
    Once both edges of a pair lie a radius away their terms cancel, so
    eps <= cell / 2 sums the nearest edge alone."""
    w, dw = _edge_terms(r)
    j = 1
    while (j - 0.5) * rho < 1.0:
        for rj in (r + j * rho, r - j * rho):
            g, dg = _edge_terms(rj)
            w += (-1) ** j * g
            dw += (-1) ** j * dg
        j += 1
    return w, dw


def _edge_terms(r):
    """G(r) and (8/15) G'(r) = (1 - r^2)^2 at r clipped to [-1, 1]."""
    r = np.maximum(r, -1.0)
    np.minimum(r, 1.0, out=r)
    r2 = r * r
    g = r2 * 0.375
    g -= 1.25
    g *= r2
    g += 1.875
    g *= r
    dg = np.subtract(1.0, r2, out=r2)
    dg *= dg
    return g, dg


class MollifiedField(CoefficientField):
    """The base field convolved with the product bump of radius eps,
    a * phi_eps with phi(u) = prod_i (15/16)(1 - u_i^2)_+^2.

    Every catalog field states that convolution and its gradient in closed
    form, ``base.mollified(pts, eps)``, so the diagonal is exact, stays in
    the base's ellipticity interval, and the drift is its derivative.  A
    base with no closed form is refused.
    """

    smoothness = "mollified"

    def __init__(self, base, eps):
        if eps <= 0:
            raise Error(f"mollification radius must be > 0, got {eps}")
        if not hasattr(base, "mollified"):
            raise Error(f"{type(base).__name__} has no closed-form "
                        "mollification")
        self.base = base
        self.eps = float(eps)
        self.dim = base.dim
        self.lam = base.lam
        self.feature_scale = base.feature_scale

    def _diag_many(self, pts):
        return self.base.mollified(pts, self.eps)[0]

    def matrix_and_divergence(self, pts):
        """diag a(x) and div a(x), the base's closed forms."""
        return self.base.mollified(pts, self.eps)


# config parameters of each entry as runner.Key tuples, ``...`` marking a
# required one; the constructors check the ranges they need
_DIM = ("integer", 1, 1)
_MOLLIFY = ("number", None, 0.0)
PARAMS = {
    "identity": {"dim": _DIM, "mollify": _MOLLIFY},
    "constant-diagonal": {"values": ("list", ..., None, "number"),
                          "mollify": _MOLLIFY},
    "checkerboard": {"lo": ("number", ...), "hi": ("number", ...),
                     "cell": ("number", 1.0, 0.0), "dim": _DIM,
                     "mollify": _MOLLIFY},
    "smooth-sine": {"dim": _DIM, "mollify": _MOLLIFY},
}
_CATALOG = {"identity": lambda dim=1: ConstantDiagonalField(np.ones(dim)),
            "constant-diagonal": ConstantDiagonalField,
            "checkerboard": CheckerboardField,
            "smooth-sine": SmoothSineField}


def make_field(name, mollify=None, **params):
    """The catalog entry ``name`` (see PARAMS), mollified with radius
    ``mollify`` when given.  Raises Error for other names."""
    if name not in _CATALOG:
        raise Error(f"no coefficient field named {name!r}")
    f = _CATALOG[name](**params)
    return f if mollify is None else MollifiedField(f, mollify)
