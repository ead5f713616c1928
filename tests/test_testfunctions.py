"""Derivative consistency and catalog behavior of the test functions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roughdiff.errors import Error
from roughdiff.testfunctions import PARAMS, make_test_function

from reference import pin_digest


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

    def test_singular_point_lists(self):
        F = make_test_function("abs_power", alpha=0.5)
        assert len(F.singular_points) == 1
        np.testing.assert_array_equal(F.singular_points[0], np.zeros(1))
        assert make_test_function("sin1d").singular_points == []


class TestCatalogInterface:
    def test_unknown_name(self):
        with pytest.raises(Error, match="no test function named 'sombrero'"):
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


# every catalog entry at the parameters the pins read; the alphas put
# the |x|^(1+alpha) family below, at and above the H^2_loc threshold 1/2
# and at alpha = 1, where r^(alpha - 1) is 0^0
PIN_ENTRIES = {
    "linear-1d": ("linear", {"c": [1.5]}),
    "linear-2d": ("linear", {"c": [1.5, -0.5]}),
    "quadratic-1d": ("quadratic", {"dim": 1}),
    "quadratic-2d": ("quadratic", {"dim": 2}),
    "quadratic-3d": ("quadratic", {"dim": 3}),
    "sin1d": ("sin1d", {}),
    "abs_power-0.25": ("abs_power", {"alpha": 0.25}),
    "abs_power-0.5": ("abs_power", {"alpha": 0.5}),
    "abs_power-1": ("abs_power", {"alpha": 1.0}),
    "abs_power-1.5": ("abs_power", {"alpha": 1.5}),
    "radial_power-0.75-1d": ("radial_power", {"alpha": 0.75, "dim": 1}),
    "radial_power-0.75-2d": ("radial_power", {"alpha": 0.75, "dim": 2}),
    "radial_power-1-2d": ("radial_power", {"alpha": 1.0, "dim": 2}),
    "radial_power-0.25-3d": ("radial_power", {"alpha": 0.25, "dim": 3}),
    "bump-1d": ("bump", {"dim": 1}),
    "bump-2d": ("bump", {"dim": 2}),
    "bump-3d": ("bump", {"dim": 3}),
}
# per coordinate: signed zeros (the singular point), a tiny and a small
# offset, the cutoff's ends at 1 and 2 from either side, and points inside
# the unit ball and off the cutoff's support
PIN_AXIS = np.array([-0.0, 0.0, 1e-300, -1e-8, 0.3, -0.7, 1.0, -1.0,
                     np.nextafter(1.0, 2.0), 1.5, -1.999, 2.0, -2.5, 3.3])


def pin_points(dim):
    """The tensor grid of PIN_AXIS in d dimensions, (N, d)."""
    grids = np.meshgrid(*[PIN_AXIS] * dim, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def catalog_digests(name, params):
    """(value, gradient, hessian) digests of an entry on pin_points."""
    F = make_test_function(name, **params)
    x = pin_points(F.dim)
    with np.errstate(all="ignore"):
        return tuple(pin_digest(fn(x))
                     for fn in (F.value, F.gradient, F.hessian))


# value, gradient and hessian bytes of every entry, taken before the
# |x|^(1+alpha) entries shared one radial profile
CATALOG_PINS = {
    "abs_power-0.25": ("9623c13248463a43", "ea7da3143d84d604",
                       "576e12ebed6df495"),
    "abs_power-0.5": ("ab69f7f6468c84c5", "94caeb3b04cb1027",
                      "0fc079f50f751f78"),
    "abs_power-1": ("c770978c6b2e1d1c", "a43295d9b4abb81e",
                    "31d873cea8a59b21"),
    "abs_power-1.5": ("86ec0d5b0504a10f", "57fb21d95ee140de",
                      "c92253120e52fbda"),
    "bump-1d": ("6551a3f996038e50", "f5e80f129d81a5de",
                "2d97b4d98cf2c7e7"),
    "bump-2d": ("dae1682fbf5fdaef", "9b04d75ef61effa6",
                "fa47b2fc5441a859"),
    "bump-3d": ("4145861f1d94c9b0", "9c143e53bab60cfb",
                "d380c477c8a0f2f8"),
    "linear-1d": ("49f7a5c068354460", "e49f43ed34f1fd4d",
                  "b5fdab78d8947eac"),
    "linear-2d": ("156b821f0fa577ce", "7a2a6c6759e12f2b",
                  "27e252c16d2f3c86"),
    "quadratic-1d": ("1f258dd74795bfa1", "f2278702d71b8e0a",
                     "bcc1df8eea677dd0"),
    "quadratic-2d": ("b325c43a84d1e29a", "118ac395f59bda2a",
                     "d167c9a7a4708e41"),
    "quadratic-3d": ("1ae304123d831321", "eadd9e5fac002457",
                     "08519e977fdcac50"),
    "radial_power-0.25-3d": ("be3eb4ffab078d0b", "ded7818dfc07cd62",
                             "038dfbcd32dbc168"),
    "radial_power-0.75-1d": ("329e41db075f9d93", "9ffc3ccb29d0273a",
                             "3cd8aa0562239c28"),
    "radial_power-0.75-2d": ("68e073fc0fd9ee04", "6edb23951450a8eb",
                             "e55cf12286ad5f2b"),
    "radial_power-1-2d": ("0395bd16deaa3d21", "03c98238fcb286ed",
                          "8207a4efff13fde7"),
    "sin1d": ("e703a90fb9f9486b", "7a02dc4d7049a4e8",
              "7c36cb7219f2e6d9"),
}


@pytest.mark.parametrize("case", sorted(PIN_ENTRIES))
def test_catalog_bytes_pinned(case):
    assert catalog_digests(*PIN_ENTRIES[case]) == CATALOG_PINS[case]
