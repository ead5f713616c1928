"""Derivative consistency and catalog behavior of the test functions."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roughdiff.errors import NoHessian, UnknownName
from roughdiff.testfunctions import (
    PARAMS,
    component_function,
    make_test_function,
)


# normal floats or 0, so every singular point of the catalog is drawn often
COORD = st.one_of(st.just(0.0),
                  st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def catalog_entry(draw):
    """(F, d) for a catalog entry with parameters from its config range:
    d from 1 to 3, alpha in (0, 4], linear.c within +-1e3."""
    name = draw(st.sampled_from(sorted(PARAMS)))
    d = 1 if name in ("sin1d", "abs_power") else draw(st.integers(1, 3))
    params = {k: v for k, v in (
        ("dim", d),
        ("alpha", draw(st.floats(0.0, 4.0, exclude_min=True))),
        ("c", draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d))),
    ) if k in PARAMS[name]}
    return make_test_function(name, **params), d


def num_grad(value, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (value(x + e) - value(x - e)) / (2.0 * h)
    return g


def num_hess(gradient, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    d = x.size
    out = np.zeros((d, d))
    for j in range(d):
        e = np.zeros_like(x)
        e[j] = h
        out[:, j] = (gradient(x + e) - gradient(x - e)) / (2.0 * h)
    return out


CASES = [
    ("linear", {"c": [1.5, -2.0]},
     [[0.3, 0.7], [-1.2, 2.0], [4.0, -3.0]]),
    ("quadratic", {"dim": 2},
     [[0.3, 0.7], [-1.2, 2.0], [0.0, 0.0]]),
    ("sin1d", {},
     [[0.0], [0.9], [-2.3], [7.0]]),
    ("abs_power", {"alpha": 0.75},
     [[0.4], [-0.6], [1.3], [-1.7], [0.95]]),
    ("radial_power", {"alpha": 0.6, "dim": 2},
     [[0.3, 0.2], [-0.8, 0.5], [1.0, 0.9], [0.1, -0.4]]),
    ("bump", {"dim": 2},
     [[0.2, 0.3], [-0.5, 0.4], [0.7, 0.0], [2.0, 1.0]]),
]


class TestDerivativeConsistency:
    @pytest.mark.parametrize("name,params,points", CASES,
                             ids=[c[0] for c in CASES])
    def test_gradient_matches_central_differences(self, name, params, points):
        F = make_test_function(name, **params)
        for x in points:
            got = F.gradient(np.asarray(x, dtype=float))
            want = num_grad(F.value, x)
            np.testing.assert_allclose(got, want, rtol=2e-6, atol=2e-6)

    @pytest.mark.parametrize("name,params,points", CASES,
                             ids=[c[0] for c in CASES])
    def test_hessian_matches_central_differences(self, name, params, points):
        F = make_test_function(name, **params)
        for x in points:
            got = F.hessian(np.asarray(x, dtype=float))
            want = num_hess(F.gradient, x)
            np.testing.assert_allclose(got, want, rtol=5e-5, atol=5e-5)

    @pytest.mark.parametrize("name,params,points", CASES,
                             ids=[c[0] for c in CASES])
    def test_hessian_symmetric(self, name, params, points):
        F = make_test_function(name, **params)
        H = F.hessian(np.asarray(points, dtype=float))
        np.testing.assert_allclose(H, np.swapaxes(H, -1, -2), atol=1e-12)

    def test_batch_matches_single(self):
        F = make_test_function("radial_power", alpha=0.8, dim=2)
        pts = np.array([[0.3, 0.1], [1.2, -0.7], [0.0, 0.0]])
        vals = F.value(pts)
        grads = F.gradient(pts)
        for i, x in enumerate(pts):
            assert vals[i] == F.value(x)
            np.testing.assert_array_equal(grads[i], F.gradient(x))


class TestFrozenValues:
    def test_quadratic(self):
        F = make_test_function("quadratic", dim=2)
        assert F.value(np.array([3.0, 4.0])) == 25.0
        np.testing.assert_array_equal(F.gradient(np.array([3.0, 4.0])),
                                      [6.0, 8.0])
        np.testing.assert_array_equal(F.hessian(np.array([3.0, 4.0])),
                                      2.0 * np.eye(2))

    def test_linear_hessian_zero(self):
        F = make_test_function("linear", c=[2.0, -1.0, 0.5])
        assert F.value(np.array([1.0, 1.0, 2.0])) == 2.0
        assert np.all(F.hessian(np.array([0.3, 0.1, -0.2])) == 0.0)

    def test_sin(self):
        F = make_test_function("sin1d")
        np.testing.assert_allclose(F.value(np.array([np.pi / 2])), 1.0,
                                   atol=1e-15)
        np.testing.assert_allclose(F.gradient(np.array([np.pi])), [-1.0],
                                   atol=1e-15)

    def test_abs_power_plateau_region(self):
        # the cutoff is exactly 1 for |x| <= 1
        F = make_test_function("abs_power", alpha=0.5)
        assert F.value(np.array([0.5])) == 0.5 ** 1.5
        assert F.value(np.array([-0.25])) == 0.25 ** 1.5
        np.testing.assert_allclose(F.gradient(np.array([0.25])),
                                   [1.5 * 0.25 ** 0.5], rtol=1e-15)

    def test_abs_power_vanishes_beyond_support(self):
        F = make_test_function("abs_power", alpha=0.5)
        for x in (2.0, -2.0, 3.5):
            assert F.value(np.array([x])) == 0.0
            assert np.all(F.gradient(np.array([x])) == 0.0)
            assert np.all(F.hessian(np.array([x])) == 0.0)

    def test_bump_support_and_peak(self):
        F = make_test_function("bump", dim=2)
        assert F.value(np.zeros(2)) == 1.0
        for x in ([1.0, 0.0], [0.8, 0.8], [2.0, 0.0]):
            assert F.value(np.asarray(x)) == 0.0
            assert np.all(F.gradient(np.asarray(x)) == 0.0)
            assert np.all(F.hessian(np.asarray(x)) == 0.0)


class TestSingularBehavior:
    def test_gradient_continuous_through_origin(self):
        for alpha in (0.25, 0.75):
            F = make_test_function("abs_power", alpha=alpha)
            assert F.gradient(np.zeros(1))[0] == 0.0
            small = F.gradient(np.array([1e-8]))[0]
            assert 0.0 < small < (1.0 + alpha) * 1e-8 ** alpha * 1.001
        G = make_test_function("radial_power", alpha=0.3, dim=2)
        np.testing.assert_array_equal(G.gradient(np.zeros(2)), [0.0, 0.0])
        assert np.isfinite(G.value(np.zeros(2)))

    @settings(max_examples=300, deadline=None)
    @given(entry=catalog_entry(), data=st.data())
    def test_catalog_gradients_finite(self, entry, data):
        # every catalog gradient is defined everywhere, so no path state
        # can make the engine's finiteness check fire
        F, d = entry
        pts = np.array(data.draw(st.lists(
            st.lists(COORD, min_size=d, max_size=d), min_size=1,
            max_size=8)))
        assert np.isfinite(F.value(pts)).all()
        assert np.isfinite(F.gradient(pts)).all()

    def test_hessian_blows_up_at_origin(self):
        F = make_test_function("abs_power", alpha=0.5)
        assert np.isinf(F.hessian(np.zeros(1))[0, 0])
        assert np.isfinite(F.hessian(np.array([1e-4]))[0, 0])

    @pytest.mark.parametrize("alpha,tag", [
        (0.25, "H1_loc"), (0.5, "H1_loc"), (0.6, "H2_loc"), (0.75, "H2_loc"),
    ])
    def test_regularity_tags(self, alpha, tag):
        assert make_test_function("abs_power", alpha=alpha).regularity == tag
        assert make_test_function("radial_power", alpha=alpha,
                                  dim=2).regularity == tag

    def test_singular_point_lists(self):
        F = make_test_function("abs_power", alpha=0.5)
        assert len(F.singular_points) == 1
        np.testing.assert_array_equal(F.singular_points[0], np.zeros(1))
        assert make_test_function("sin1d").singular_points == []


class TestCatalogInterface:
    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            make_test_function("sombrero")

    def test_unknown_parameter(self):
        with pytest.raises(TypeError):
            make_test_function("quadratic", dimm=2)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            make_test_function("abs_power", alpha=0.0)

    def test_wrong_point_dimension(self):
        F = make_test_function("quadratic", dim=2)
        with pytest.raises(ValueError):
            F.value(np.zeros(3))

    def test_component_function(self):
        F = make_test_function("quadratic", dim=2)
        f1 = component_function(F, 1)
        x = np.array([0.7, -0.3])
        assert f1.value(x) == F.gradient(x)[1]
        np.testing.assert_array_equal(f1.gradient(x), F.hessian(x)[1, :])
        assert f1.hessian is None
        with pytest.raises(NoHessian):
            component_function(f1, 0)

    def test_component_requires_hessian(self):
        F = make_test_function("sin1d")
        stripped = dataclasses.replace(F, hessian=None)
        with pytest.raises(NoHessian):
            component_function(stripped, 0)
