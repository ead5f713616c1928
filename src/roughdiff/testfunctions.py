"""Catalog of test functions F with pointwise derivatives.

Every entry evaluates in batch: ``value`` maps (..., d) arrays of points to
(...) values, ``gradient`` to (..., d), ``hessian`` to (..., d, d), each
pointwise over the leading axes, which calculus.grid_sums relies on when it
evaluates F one block of path states at a time.  Entries
whose second derivatives blow up somewhere (the |x|^(1+alpha) family) still
provide the a.e.-defined hessian and declare the bad points in
``singular_points``; quadratures refine around those.  That family,
abs_power in d = 1 and radial_power in any d, reads one radial profile
r^(1+alpha) psi(r) and its two r-derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import Error


@dataclass
class TestFunction:
    name: str
    dim: int
    value: callable
    gradient: callable
    hessian: callable
    singular_points: list = dc_field(default_factory=list)
    params: dict = dc_field(default_factory=dict)


def _pts(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise Error(f"points must end in axis of length {dim}")
    return x


# C^2 smoothstep used for the compactly supported cutoff: S(0)=0, S(1)=1,
# S' = S'' = 0 at both ends.
def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)


def _smoothstep_d1(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 30.0 * u ** 2 * (1.0 - u) ** 2, 0.0)


def _smoothstep_d2(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u), 0.0)


def _cutoff(r):
    """1 on [0, 1], 0 on [2, inf), C^2 monotone in between."""
    return np.where(r <= 1.0, 1.0, np.where(r >= 2.0, 0.0, _smoothstep(2.0 - r)))


def _cutoff_d1(r):
    return np.where((r > 1.0) & (r < 2.0), -_smoothstep_d1(2.0 - r), 0.0)


def _cutoff_d2(r):
    return np.where((r > 1.0) & (r < 2.0), _smoothstep_d2(2.0 - r), 0.0)


def _power_profile(alpha):
    """phi(r) = r^(1+alpha) psi(r), psi the cutoff, and its first two
    derivatives in r, as three functions of r >= 0, for alpha > 0; phi''
    is inf at r = 0 for alpha < 1."""
    if alpha <= 0:
        raise Error(f"alpha must be > 0, got {alpha}")
    a = float(alpha)

    def phi(r):
        return r ** (1.0 + a) * _cutoff(r)

    def d1(r):
        return (1.0 + a) * r ** a * _cutoff(r) + r ** (1.0 + a) * _cutoff_d1(r)

    def d2(r):
        with np.errstate(divide="ignore"):
            core = (1.0 + a) * a * r ** (a - 1.0)
        return (core * _cutoff(r)
                + 2.0 * (1.0 + a) * r ** a * _cutoff_d1(r)
                + r ** (1.0 + a) * _cutoff_d2(r))

    return phi, d1, d2


def _eye(x):
    """The d x d identity at each point of x, shape x.shape + (d,)."""
    out = np.zeros(x.shape + x.shape[-1:])
    idx = np.arange(x.shape[-1])
    out[..., idx, idx] = 1.0
    return out


def linear(c):
    """F(x) = c . x."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    d = c.shape[0]

    def value(x):
        return _pts(x, d) @ c

    def gradient(x):
        x = _pts(x, d)
        return np.broadcast_to(c, x.shape).copy()

    def hessian(x):
        x = _pts(x, d)
        return np.zeros(x.shape + (d,))

    return TestFunction(name="linear", dim=d, value=value,
                        gradient=gradient, hessian=hessian,
                        params={"c": c.tolist()})


def quadratic(dim=1):
    """F(x) = |x|^2."""

    def value(x):
        return (_pts(x, dim) ** 2).sum(axis=-1)

    def gradient(x):
        return 2.0 * _pts(x, dim)

    def hessian(x):
        return 2.0 * _eye(_pts(x, dim))

    return TestFunction(name="quadratic", dim=dim,
                        value=value, gradient=gradient, hessian=hessian,
                        params={"dim": dim})


def sin1d():
    """F(x) = sin(x), d = 1."""

    def value(x):
        return np.sin(_pts(x, 1)[..., 0])

    def gradient(x):
        return np.cos(_pts(x, 1))

    def hessian(x):
        return -np.sin(_pts(x, 1))[..., None]

    return TestFunction(name="sin1d", dim=1, value=value,
                        gradient=gradient, hessian=hessian)


def abs_power(alpha):
    """F(x) = |x|^(1+alpha) psi(x) in d = 1, with a C^2 cutoff psi that is
    1 on [-1, 1] and 0 outside [-2, 2].

    The gradient extends continuously by 0 through the origin for every
    alpha > 0; the second derivative behaves like |x|^(alpha-1) there, so
    it is locally square integrable iff alpha > 1/2.
    """
    phi, d1, d2 = _power_profile(alpha)

    def value(x):
        return phi(np.abs(_pts(x, 1)[..., 0]))

    def gradient(x):
        t = _pts(x, 1)[..., 0]
        return (d1(np.abs(t)) * np.sign(t))[..., None]

    def hessian(x):
        return d2(np.abs(_pts(x, 1)[..., 0]))[..., None, None]

    return TestFunction(name="abs_power", dim=1, value=value,
                        gradient=gradient, hessian=hessian,
                        singular_points=[np.zeros(1)],
                        params={"alpha": float(alpha)})


def radial_power(alpha, dim=2):
    """F(x) = |x|^(1+alpha) psi(|x|) in d dimensions; its hessian at the
    origin is phi''(0) I, as abs_power's (+inf for alpha < 1)."""
    phi, d1, d2 = _power_profile(alpha)

    def _r(x):
        return np.sqrt((x ** 2).sum(axis=-1))

    def value(x):
        return phi(_r(_pts(x, dim)))

    def gradient(x):
        x = _pts(x, dim)
        r = _r(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(r > 0, d1(r) / np.where(r > 0, r, 1.0), 0.0)
        return scale[..., None] * x

    def hessian(x):
        x = _pts(x, dim)
        r = _r(x)
        safe = np.where(r > 0, r, 1.0)
        g2, eye = d2(r), _eye(x)
        xhat = x / safe[..., None]
        outer = xhat[..., :, None] * xhat[..., None, :]
        with np.errstate(invalid="ignore"):
            out = (g2[..., None, None] * outer
                   + (d1(r) / safe)[..., None, None] * (eye - outer))
        origin = r == 0   # phi''(0) I, zero off the diagonal
        out[origin] = np.where(eye[origin] > 0, g2[origin, None, None], 0.0)
        return out

    return TestFunction(name="radial_power", dim=dim,
                        value=value, gradient=gradient, hessian=hessian,
                        singular_points=[np.zeros(dim)],
                        params={"alpha": float(alpha), "dim": dim})


def bump(dim=1):
    """F(x) = exp(1 - 1/(1 - |x|^2)) inside the unit ball, 0 outside."""

    def _core(x):
        r2 = (x ** 2).sum(axis=-1)
        inside = r2 < 1.0
        u = np.where(inside, 1.0 - r2, 1.0)
        f = np.where(inside, np.exp(1.0 - 1.0 / u), 0.0)
        return f, u, inside

    def value(x):
        return _core(_pts(x, dim))[0]

    def gradient(x):
        x = _pts(x, dim)
        f, u, inside = _core(x)
        scale = np.where(inside, -2.0 * f / u ** 2, 0.0)
        return scale[..., None] * x

    def hessian(x):
        x = _pts(x, dim)
        f, u, inside = _core(x)
        c1 = np.where(inside, f * (4.0 / u ** 4 - 8.0 / u ** 3), 0.0)
        c2 = np.where(inside, -2.0 * f / u ** 2, 0.0)
        outer = x[..., :, None] * x[..., None, :]
        return c1[..., None, None] * outer + c2[..., None, None] * _eye(x)

    return TestFunction(name="bump", dim=dim, value=value,
                        gradient=gradient, hessian=hessian,
                        params={"dim": dim})


# config parameters of each entry as runner.Key tuples, ``...`` marking a
# required one; the constructors check the ranges they need
_DIM = ("integer", 1, 1)
_ALPHA = ("number", ...)
PARAMS = {
    "linear": {"c": ("list", ..., None, "number")},
    "quadratic": {"dim": _DIM},
    "sin1d": {},
    "abs_power": {"alpha": _ALPHA},
    "radial_power": {"alpha": _ALPHA, "dim": ("integer", 2, 1)},
    "bump": {"dim": _DIM},
}
_CATALOG = {"linear": linear, "quadratic": quadratic, "sin1d": sin1d,
            "abs_power": abs_power, "radial_power": radial_power,
            "bump": bump}


def make_test_function(name, **params):
    """The catalog entry ``name`` (see PARAMS) from its parameters.
    Raises Error for other names."""
    if name not in _CATALOG:
        raise Error(f"no test function named {name!r}")
    return _CATALOG[name](**params)
