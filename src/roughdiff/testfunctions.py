"""Catalog of test functions F with pointwise derivatives.

Every entry evaluates in batch: ``value`` maps (..., d) arrays of points to
(...) values, ``gradient`` to (..., d), ``hessian`` to (..., d, d).  Entries
whose second derivatives blow up somewhere (the |x|^(1+alpha) family) still
provide the a.e.-defined hessian and declare the bad points in
``singular_points``; quadratures refine around those.

The ``regularity`` tag records local Sobolev membership: "C2", "H2_loc"
(second derivatives square integrable near the singular point), or "H1_loc"
(they are not).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import NoHessian, UnknownName


@dataclass
class TestFunction:
    name: str
    dim: int
    regularity: str
    value: callable
    gradient: callable
    hessian: callable | None = None
    singular_points: list = dc_field(default_factory=list)
    params: dict = dc_field(default_factory=dict)


def _pts(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ValueError(f"points must end in axis of length {dim}")
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

    return TestFunction(name="linear", dim=d, regularity="C2", value=value,
                        gradient=gradient, hessian=hessian,
                        params={"c": c.tolist()})


def quadratic(dim=1):
    """F(x) = |x|^2."""

    def value(x):
        return (_pts(x, dim) ** 2).sum(axis=-1)

    def gradient(x):
        return 2.0 * _pts(x, dim)

    def hessian(x):
        x = _pts(x, dim)
        out = np.zeros(x.shape + (dim,))
        idx = np.arange(dim)
        out[..., idx, idx] = 2.0
        return out

    return TestFunction(name="quadratic", dim=dim, regularity="C2",
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

    return TestFunction(name="sin1d", dim=1, regularity="C2", value=value,
                        gradient=gradient, hessian=hessian)


def abs_power(alpha):
    """F(x) = |x|^(1+alpha) psi(x) in d = 1, with a C^2 cutoff psi that is
    1 on [-1, 1] and 0 outside [-2, 2].

    The gradient extends continuously by 0 through the origin for every
    alpha > 0; the second derivative behaves like |x|^(alpha-1) there, so
    it is locally square integrable iff alpha > 1/2.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    a = float(alpha)

    def value(x):
        t = _pts(x, 1)[..., 0]
        r = np.abs(t)
        return r ** (1.0 + a) * _cutoff(r)

    def gradient(x):
        t = _pts(x, 1)[..., 0]
        r = np.abs(t)
        s = np.sign(t)
        g = (1.0 + a) * r ** a * _cutoff(r) + r ** (1.0 + a) * _cutoff_d1(r)
        return (g * s)[..., None]

    def hessian(x):
        t = _pts(x, 1)[..., 0]
        r = np.abs(t)
        with np.errstate(divide="ignore"):
            core = (1.0 + a) * a * r ** (a - 1.0)
        h = (core * _cutoff(r)
             + 2.0 * (1.0 + a) * r ** a * _cutoff_d1(r)
             + r ** (1.0 + a) * _cutoff_d2(r))
        return h[..., None, None]

    reg = "H2_loc" if a > 0.5 else "H1_loc"
    return TestFunction(name="abs_power", dim=1, regularity=reg, value=value,
                        gradient=gradient, hessian=hessian,
                        singular_points=[np.zeros(1)],
                        params={"alpha": a})


def radial_power(alpha, dim=2):
    """F(x) = |x|^(1+alpha) psi(|x|) in d dimensions."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    a = float(alpha)

    def _r(x):
        return np.sqrt((x ** 2).sum(axis=-1))

    def value(x):
        r = _r(_pts(x, dim))
        return r ** (1.0 + a) * _cutoff(r)

    def _g1(r):
        # dF/dr
        return (1.0 + a) * r ** a * _cutoff(r) + r ** (1.0 + a) * _cutoff_d1(r)

    def gradient(x):
        x = _pts(x, dim)
        r = _r(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(r > 0, _g1(r) / np.where(r > 0, r, 1.0), 0.0)
        return scale[..., None] * x

    def hessian(x):
        x = _pts(x, dim)
        r = _r(x)
        safe = np.where(r > 0, r, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            g2 = ((1.0 + a) * a * r ** (a - 1.0) * _cutoff(r)
                  + 2.0 * (1.0 + a) * r ** a * _cutoff_d1(r)
                  + r ** (1.0 + a) * _cutoff_d2(r))
            g1_over_r = _g1(r) / safe
        xhat = x / safe[..., None]
        outer = xhat[..., :, None] * xhat[..., None, :]
        eye = np.zeros(x.shape + (dim,))
        idx = np.arange(dim)
        eye[..., idx, idx] = 1.0
        return (g2[..., None, None] * outer
                + g1_over_r[..., None, None] * (eye - outer))

    reg = "H2_loc" if a > 0.5 else "H1_loc"
    return TestFunction(name="radial_power", dim=dim, regularity=reg,
                        value=value, gradient=gradient, hessian=hessian,
                        singular_points=[np.zeros(dim)],
                        params={"alpha": a, "dim": dim})


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
        eye = np.zeros(x.shape + (dim,))
        idx = np.arange(dim)
        eye[..., idx, idx] = 1.0
        return c1[..., None, None] * outer + c2[..., None, None] * eye

    return TestFunction(name="bump", dim=dim, regularity="C2", value=value,
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
    Raises UnknownName for other names."""
    if name not in _CATALOG:
        raise UnknownName(f"no test function named {name!r}")
    return _CATALOG[name](**params)


def component_function(F, k):
    """The k-th gradient component f_k = d_k F as a scalar function.

    Its gradient is the k-th hessian row of F; it has no hessian of its
    own.  Requires F to provide second derivatives.
    """
    if F.hessian is None:
        raise NoHessian(f"{F.name} has no second derivatives")
    return TestFunction(
        name=f"{F.name}.d{k}", dim=F.dim, regularity=F.regularity,
        value=lambda x, _g=F.gradient: _g(x)[..., k],
        gradient=lambda x, _h=F.hessian: _h(x)[..., k, :],
        hessian=None, singular_points=list(F.singular_points),
        params=dict(F.params, component=k))
