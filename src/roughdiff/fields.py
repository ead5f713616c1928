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

A mollified field sums its base over a fixed quadrature of shifts.  Over a
checkerboard in d <= 2 every shift sees hi or lo by a parity, so both sums
are tabulated once per parity pattern and a point reads one table row.
"""

from __future__ import annotations

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
        # a contiguous copy: MollifiedField's einsum sums in an order set
        # by its operands' strides, and a zero-stride view moves its bytes
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


class SmoothSineField(CoefficientField):
    """a(x) = (1 + 0.5 sin(x_1)) Id, a smooth non-constant diagonal field."""

    smoothness = "smooth"

    def __init__(self, dim=1):
        self.dim = int(dim)
        self.lam = 2.0  # values lie in [1/2, 3/2] and 3/2 <= 2

    def scalar(self, pts):
        return 1.0 + 0.5 * np.sin(pts[:, 0])

    def matrix_and_divergence(self, pts):
        """diag a(x) and div a(x) = (s'(x_1), 0, ..., 0), both (N, d)."""
        div = np.zeros_like(pts)
        div[:, 0] = 0.5 * np.cos(pts[:, 0])
        return self._diag_many(pts), div


def _convolve(weights, vals):
    """sum_k weights[k] vals[:, k], (M, d), for weights (K,) or (K, d) and
    base diagonals at the quadrature shifts, (M, K, d).  einsum sums each
    row from that row's values alone, so its bits do not depend on M."""
    return np.einsum("k...,nk...->n...", weights, vals)


def _bump(u2):
    """Bump profile (1 - |u|^2)^2 on the unit ball, 0 outside; u2 = |u|^2."""
    return np.clip(1.0 - u2, 0.0, None) ** 2


def _leggauss6():
    """The nodes and weights of numpy.polynomial.legendre.leggauss(6),
    written out exactly symmetric: importing numpy.polynomial would add
    about 4 ms to each run with a mollified field."""
    x = np.array([-0.9324695142031519, -0.6612093864662645,
                  -0.2386191860831969, 0.2386191860831969,
                  0.6612093864662645, 0.9324695142031519])
    w = np.array([0.17132449237917027, 0.3607615730481387,
                  0.46791393457269104, 0.46791393457269104,
                  0.3607615730481387, 0.17132449237917027])
    return x, w


class MollifiedField(CoefficientField):
    """Convolution of a base field against a normalized bump of radius eps.

    The convolution integral is approximated by a fixed tensor quadrature,
    six Gauss-Legendre nodes per axis, with the bump profile folded into the
    weights and the total weight normalized to one.  Constants are therefore
    reproduced exactly and the ellipticity interval is preserved (each
    diagonal entry is a convex combination of base values).

    The divergence comes from the identity d(a * phi) = a * (d phi): the
    same nodes are reused with derivative-kernel weights, and
    ``matrix_and_divergence`` returns both sums from one sweep over the
    base field.  Differencing the quadrature-approximated convolution
    instead would be ill-posed (it is piecewise constant in x).

    A checkerboard base in d <= 2 is read from a table.  Its value at the
    shift x - eps u of node u = (u_j1, ..., u_jd) is hi or lo by the parity
    of sum_i floor((x_i - eps u_ji) / cell), the XOR of one bit per axis
    and node coordinate.  The six bits of each axis form a 6-bit code, so
    the quadrature sees one of 64^d patterns.  Both sums are taken once
    per pattern at construction, through the same ``_convolve``, and a
    point costs 6 d floors and a row lookup, with the quadrature's bits.
    Other bases, and d >= 3, where the (64^d, 6^d, d) build array would
    take 1.4 GB, sum the base values at every shift.
    """

    smoothness = "mollified"

    def __init__(self, base, eps):
        if eps <= 0:
            raise Error(f"mollification radius must be > 0, got {eps}")
        self.base = base
        self.eps = float(eps)
        self.dim = base.dim
        self.lam = base.lam
        self.feature_scale = base.feature_scale

        x, w = _leggauss6()
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
        self._tables = None
        if isinstance(base, CheckerboardField) and self.dim <= 2:
            self._shifts = (self.eps * x)[:, None]
            # a code holds the bit of axis i and node coordinate j at
            # 6 (d - 1 - i) + j
            self._place = 1 << (6 * np.arange(self.dim - 1, -1, -1)[:, None]
                                + np.arange(6)).ravel()
            self._tables = self._parity_tables()

    def _parity_tables(self):
        """Both sums for every parity pattern, each (64^d, d)."""
        d = self.dim
        codes = np.arange(64 ** d)[:, None]
        odd = np.zeros((64 ** d, 6 ** d), dtype=bool)
        # node k = (j_1, ..., j_d) reads bit j_i of axis i's code
        for bit in np.meshgrid(*self._place.reshape(d, 6), indexing="ij"):
            odd ^= (codes & bit.ravel()) != 0
        vals = np.where(odd, self.base.lo, self.base.hi)
        # the contiguous (P, K, d) stack CheckerboardField._diag_many gives
        vals = np.repeat(vals[:, :, None], d, axis=2)
        return _convolve(self.weights, vals), _convolve(self.dweights, vals)

    def _codes(self, pts):
        """Each point's row in the parity tables, (N,)."""
        # (d, 6, N), so each ufunc runs along the points; the cells are
        # the ones CheckerboardField.scalar finds at x - eps u, bit for bit
        cells = pts.T[:, None, :] - self._shifts
        np.divide(cells, self.base.cell, out=cells)
        np.floor(cells, out=cells)
        bits = cells.astype(np.int64)
        bits &= 1
        return self._place @ bits.reshape(6 * self.dim, -1)

    def _shifted_values(self, pts):
        """Base-field diagonals at all quadrature shifts, (N, K, d)."""
        n, k = pts.shape[0], self.nodes.shape[0]
        shifted = pts[:, None, :] - self.eps * self.nodes[None, :, :]
        vals = self.base._diag_many(shifted.reshape(n * k, self.dim))
        return vals.reshape(n, k, self.dim)

    def _diag_many(self, pts):
        if self._tables is not None:
            return self._tables[0].take(self._codes(pts), axis=0)
        return _convolve(self.weights, self._shifted_values(pts))

    def matrix_and_divergence(self, pts):
        """Both diag a(x) and div a(x) from one sweep over the base field."""
        if self._tables is not None:
            code = self._codes(pts)
            a, div = self._tables
            return a.take(code, axis=0), div.take(code, axis=0)
        vals = self._shifted_values(pts)
        return _convolve(self.weights, vals), _convolve(self.dweights, vals)


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
