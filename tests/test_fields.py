"""Coefficient fields: ellipticity, mollification, divergence."""

from __future__ import annotations

import numpy as np
import pytest

from roughdiff import fields
from roughdiff.errors import (
    DimensionMismatch,
    RoughFieldError,
    UnknownName,
)


def step_field():
    """1D rough field: a(x) = 1 for x < 0, 2 for x >= 0."""
    return fields.ExplicitField(
        fn=lambda pts: np.where(pts[:, 0] < 0, 1.0, 2.0),
        dim=1, lam=2.0, smoothness="rough")


# parameters for every catalog entry, in d = 1 and d = 2
CATALOG_CASES = {
    "identity": ({"dim": 1}, {"dim": 2}),
    "constant-diagonal": ({"values": [2.0]}, {"values": [2.0, 0.5]}),
    "checkerboard": ({"lo": 0.5, "hi": 2.0},
                     {"lo": 0.5, "hi": 2.0, "dim": 2}),
    "smooth-sine": ({"dim": 1}, {"dim": 2}),
}


@pytest.mark.parametrize("mollify", [None, 0.1], ids=["plain", "mollified"])
@pytest.mark.parametrize("name", sorted(fields.PARAMS))
def test_catalog_symmetric_within_lambda(name, mollify):
    """Every diagonal entry of a(x) lies in [1/lam, lam] on a point grid,
    for every catalog entry, plain and mollified, and the grid comes
    within 1% of one of the bounds: lam is the least such constant."""
    for params in CATALOG_CASES[name]:
        f = fields.make_field(name, mollify=mollify, **params)
        g = np.linspace(-3.3, 3.3, 41 if f.dim == 1 else 13)
        pts = np.stack(np.meshgrid(*[g] * f.dim, indexing="ij"),
                       -1).reshape(-1, f.dim)
        a = f.diagonal(pts)
        assert a.shape == pts.shape
        assert a.min() >= (1.0 - 1e-12) / f.lam
        assert a.max() <= (1.0 + 1e-12) * f.lam
        assert max(a.max(), 1.0 / a.min()) == pytest.approx(f.lam, rel=0.01)


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            fields.make_field("perlin-noise")

    def test_checkerboard_values(self):
        f = fields.make_field("checkerboard", lo=0.5, hi=2.0, cell=1.0)
        x = np.array([[0.5], [1.5], [-0.5], [2.25]])
        np.testing.assert_array_equal(f.scalar(x), [2.0, 0.5, 0.5, 2.0])
        assert f.feature_scale == 1.0
        assert f.lam == 2.0

    def test_checkerboard_2d_parity(self):
        f = fields.make_field("checkerboard", lo=0.5, hi=2.0, dim=2)
        x = np.array([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5]])
        np.testing.assert_array_equal(f.scalar(x), [2.0, 0.5, 2.0])

    def test_shapes_single_vs_batch(self):
        f = fields.make_field("smooth-sine", dim=2)
        one = f.diagonal(np.array([0.3, -1.0]))
        many = f.diagonal(np.array([[0.3, -1.0], [0.0, 0.0], [1.0, 2.0]]))
        assert one.shape == (2,)
        assert many.shape == (3, 2)
        np.testing.assert_array_equal(one, many[0])

    def test_dimension_mismatch(self):
        f = fields.IdentityField(dim=2)
        with pytest.raises(DimensionMismatch):
            f.diagonal(np.zeros(3))


class TestMollify:
    def test_step_midpoint_value(self):
        m = fields.MollifiedField(step_field(), eps=0.1)
        val = m.diagonal(np.array([0.0]))[0]
        assert val == pytest.approx(1.5, abs=1e-3)

    def test_step_away_from_jump(self):
        m = fields.MollifiedField(step_field(), eps=0.1)
        left, right = m.diagonal(np.array([[-0.25], [0.25]]))[:, 0]
        assert left == pytest.approx(1.0, abs=1e-14)
        assert right == pytest.approx(2.0, abs=1e-14)

    def test_constant_preserved_exactly(self):
        base = fields.ConstantDiagonalField([1.7])
        m = fields.MollifiedField(base, eps=0.3)
        x = np.linspace(-2, 2, 9)[:, None]
        np.testing.assert_array_equal(m.diagonal(x)[:, 0], np.full(9, 1.7))

    def test_monotone_transition(self):
        m = fields.MollifiedField(step_field(), eps=0.1)
        x = np.linspace(-0.15, 0.15, 61)[:, None]
        vals = m.diagonal(x)[:, 0]
        assert np.all(np.diff(vals) >= -1e-14)

    def test_mollify_2d_constant(self):
        base = fields.ConstantDiagonalField([2.0, 0.5])
        m = fields.MollifiedField(base, eps=0.2)
        np.testing.assert_allclose(
            m.diagonal(np.array([0.4, -0.1])), [2.0, 0.5], atol=1e-14)


class TestDivergence:
    def test_quadratic_frozen(self):
        # a(x) = 1 + x^2 has div a = 2x; central differences are exact here
        f = fields.ExplicitField(
            fn=lambda pts: 1.0 + pts[:, 0] ** 2, dim=1, lam=10.0,
            smoothness="smooth")
        val = fields.divergence(f, np.array([1.0]), step=1e-4)
        assert val[0] == pytest.approx(2.0, abs=1e-6)

    def test_smooth_sine_analytic_vs_differences(self):
        f = fields.make_field("smooth-sine", dim=2)
        g = fields.ExplicitField(
            fn=lambda pts: 1.0 + 0.5 * np.sin(pts[:, 0]), dim=2, lam=2.0,
            smoothness="smooth")
        pts = np.array([[0.3, 1.0], [-1.2, 0.0], [2.0, -2.0]])
        np.testing.assert_allclose(
            fields.divergence(f, pts), fields.divergence(g, pts, step=1e-5),
            atol=1e-8)

    def test_rough_field_rejected(self):
        with pytest.raises(RoughFieldError):
            fields.divergence(step_field(), np.array([0.0]))

    def test_mollified_affine_derivative_exact(self):
        # the derivative-kernel quadrature reproduces affine slopes exactly
        f = fields.ExplicitField(
            fn=lambda pts: 2.0 + 0.5 * pts[:, 0], dim=1, lam=4.0,
            smoothness="rough")
        m = fields.MollifiedField(f, eps=0.1)
        x = np.array([[0.0], [0.7], [-1.3]])
        np.testing.assert_allclose(fields.divergence(m, x)[:, 0], 0.5,
                                   atol=1e-12)

    def test_mollified_constant_divergence_zero(self):
        m = fields.MollifiedField(fields.ConstantDiagonalField([1.3]), eps=0.2)
        np.testing.assert_allclose(
            fields.divergence(m, np.array([[0.1]])), 0.0, atol=1e-15)

    def test_mollified_step_divergence_bounded(self):
        # drift stays O(jump/eps); no 1/h blow-up anywhere near the interface
        m = fields.MollifiedField(step_field(), eps=0.1)
        x = np.linspace(-0.2, 0.2, 401)[:, None]
        d = fields.divergence(m, x)[:, 0]
        assert d.max() <= 1.0 / 0.1 * 1.0 * 2.0   # ~2 * jump / eps
        assert d.min() >= -1e-12
