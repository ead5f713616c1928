"""Coefficient fields: ellipticity, mollification, divergence."""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roughdiff import fields, kernels, sampling
from roughdiff.errors import Error

from reference import pin_digest


def step_field():
    """1D rough field: a(x) = 1 for x in [-10, 0), 2 for x in [0, 10)."""
    return fields.make_field("checkerboard", lo=1.0, hi=2.0, cell=10.0)


class AffineField(fields.CoefficientField):
    """1D a(x) = 2 + x / 2, a base to mollify; in [1/4, 4] for |x| < 3."""
    lam = 4.0

    def _diag_many(self, pts):
        return 2.0 + 0.5 * pts


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
        a = f._diag_many(pts)
        assert a.shape == pts.shape
        assert a.min() >= (1.0 - 1e-12) / f.lam
        assert a.max() <= (1.0 + 1e-12) * f.lam
        assert max(a.max(), 1.0 / a.min()) == pytest.approx(f.lam, rel=0.01)


# per coordinate: signed zeros, the checkerboard's cell edges at 0 and
# +-1 and points within the mollifier's radius 0.1 of them, and points
# off them
PIN_AXIS = np.array([-0.0, 0.0, 0.05, -0.05, 0.3, -0.95, 1.0, -1.0, 1.04,
                     2.5, -3.3])


def field_digests(name, mollify, params):
    """Digests of _diag_many, and of matrix_and_divergence where the field
    states a drift, on the tensor grid of PIN_AXIS."""
    f = fields.make_field(name, mollify=mollify, **params)
    grids = np.meshgrid(*[PIN_AXIS] * f.dim, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    out = [pin_digest(f._diag_many(pts))]
    if hasattr(f, "matrix_and_divergence"):
        out += map(pin_digest, f.matrix_and_divergence(pts))
    return tuple(out)


def _pin_cases():
    """Every catalog case, plain and mollified, and the 3-d checkerboard,
    whose mollification sums the base at every shift."""
    cases = {name: CATALOG_CASES[name] for name in sorted(fields.PARAMS)}
    cases["checkerboard"] += ({"lo": 0.5, "hi": 2.0, "dim": 3},)
    for name, all_params in cases.items():
        for params in all_params:
            for mollify in (None, 0.1):
                kind = "plain" if mollify is None else "mollified"
                d = params.get("dim", len(params.get("values", [0])))
                yield f"{name}-{kind}-{d}d", (name, mollify, params)


PIN_CASES = dict(_pin_cases())
# field bytes of every catalog entry, taken before the identity became
# the constant diagonal of ones
FIELD_PINS = {
    "checkerboard-mollified-1d": ("1f3de3dbe19a4cc7", "1f3de3dbe19a4cc7",
                                  "cc1f4d8a95d21b8b"),
    "checkerboard-mollified-2d": ("f1ad1398c8440577", "f1ad1398c8440577",
                                  "61df61a9ba5b7db4"),
    "checkerboard-mollified-3d": ("d3d478595c6823aa", "d3d478595c6823aa",
                                  "bf2949f31e524c90"),
    "checkerboard-plain-1d": ("14683593da5f8417",),
    "checkerboard-plain-2d": ("8e58c0c29809f0c8",),
    "checkerboard-plain-3d": ("5dc9069e7a0e7735",),
    "constant-diagonal-mollified-1d": ("91e8b382892ace1d", "91e8b382892ace1d",
                                       "48b47c4df7aed14e"),
    "constant-diagonal-mollified-2d": ("f3fa9660f1a11ce8", "f3fa9660f1a11ce8",
                                       "37b42934becb688d"),
    "constant-diagonal-plain-1d": ("91e8b382892ace1d",),
    "constant-diagonal-plain-2d": ("f751299a4c535e8f",),
    "identity-mollified-1d": ("29f6db545d43579d", "29f6db545d43579d",
                              "40fff2a35ac3e5d0"),
    "identity-mollified-2d": ("b7b673b5db77e129", "b7b673b5db77e129",
                              "85c946d1e1c780a0"),
    "identity-plain-1d": ("29f6db545d43579d",),
    "identity-plain-2d": ("05aea69cdc71c93f",),
    "smooth-sine-mollified-1d": ("89b630c1f2719b02", "89b630c1f2719b02",
                                 "639e33700511a9b0"),
    "smooth-sine-mollified-2d": ("8b502fd0de9a17fd", "8b502fd0de9a17fd",
                                 "4a2a4327e0d140d8"),
    "smooth-sine-plain-1d": ("bc39f67cfff112f0", "bc39f67cfff112f0",
                             "793049069d051bb6"),
    "smooth-sine-plain-2d": ("7a58b53b5e2d417e", "7a58b53b5e2d417e",
                             "0eed03cadd3d57a3"),
}


@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_catalog_bytes_pinned(case):
    assert field_digests(*PIN_CASES[case]) == FIELD_PINS[case]


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(Error, match="field named 'perlin-noise'"):
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


class TestMollify:
    def test_step_midpoint_value(self):
        m = fields.MollifiedField(step_field(), eps=0.1)
        val = m._diag_many(np.array([[0.0]]))[0, 0]
        assert val == pytest.approx(1.5, abs=1e-3)

    def test_step_away_from_jump(self):
        m = fields.MollifiedField(step_field(), eps=0.1)
        left, right = m._diag_many(np.array([[-0.25], [0.25]]))[:, 0]
        assert left == pytest.approx(1.0, abs=1e-14)
        assert right == pytest.approx(2.0, abs=1e-14)

    def test_constant_preserved_exactly(self):
        base = fields.ConstantDiagonalField([1.7])
        m = fields.MollifiedField(base, eps=0.3)
        x = np.linspace(-2, 2, 9)[:, None]
        np.testing.assert_array_equal(m._diag_many(x)[:, 0], np.full(9, 1.7))

    def test_monotone_transition(self):
        m = fields.MollifiedField(step_field(), eps=0.1)
        x = np.linspace(-0.15, 0.15, 61)[:, None]
        vals = m._diag_many(x)[:, 0]
        assert np.all(np.diff(vals) >= -1e-14)

    def test_mollify_2d_constant(self):
        base = fields.ConstantDiagonalField([2.0, 0.5])
        m = fields.MollifiedField(base, eps=0.2)
        np.testing.assert_allclose(
            m._diag_many(np.array([[0.4, -0.1]]))[0], [2.0, 0.5], atol=1e-14)


class TestDivergence:
    def test_smooth_sine_analytic_vs_differences(self):
        # the stated drift against central differences of the diagonal
        step = 1e-5
        for dim in (1, 2):
            f = fields.make_field("smooth-sine", dim=dim)
            pts = np.array([[0.3, 1.0], [-1.2, 0.0], [2.0, -2.0]])[:, :dim]
            diff = np.empty_like(pts)
            for i in range(dim):
                shift = np.zeros(dim)
                shift[i] = step
                hi = f._diag_many(pts + shift)[:, i]
                lo = f._diag_many(pts - shift)[:, i]
                diff[:, i] = (hi - lo) / (2.0 * step)
            np.testing.assert_allclose(f.matrix_and_divergence(pts)[1], diff,
                                       atol=1e-8)

    def test_rough_field_rejected(self):
        # a rough field's drift is a distribution: both Euler-Maruyama
        # samplers refuse it at entry, before any step
        law = sampling.dirac([0.0])
        with pytest.raises(Error, match="needs a smooth or mollified field"):
            sampling.generate_batch("euler-maruyama", step_field(), law, 1.0,
                                    2.0 ** -8, 0, [0])
        with pytest.raises(Error, match="needs a smooth or mollified field"):
            kernels._terminal_states(step_field(), law, 10, 16.0, 2.0 ** -8,
                                     np.random.default_rng(0))

    def test_mollified_affine_derivative_exact(self):
        # the derivative-kernel quadrature reproduces affine slopes exactly
        m = fields.MollifiedField(AffineField(), eps=0.1)
        x = np.array([[0.0], [0.7], [-1.3]])
        np.testing.assert_allclose(m.matrix_and_divergence(x)[1][:, 0], 0.5,
                                   atol=1e-12)

    def test_mollified_constant_divergence_zero(self):
        m = fields.MollifiedField(fields.ConstantDiagonalField([1.3]), eps=0.2)
        np.testing.assert_allclose(
            m.matrix_and_divergence(np.array([[0.1]]))[1], 0.0, atol=1e-15)

    def test_mollified_step_divergence_bounded(self):
        # drift stays O(jump/eps); no 1/h blow-up anywhere near the interface
        m = fields.MollifiedField(step_field(), eps=0.1)
        x = np.linspace(-0.2, 0.2, 401)[:, None]
        d = m.matrix_and_divergence(x)[1][:, 0]
        assert d.max() <= 1.0 / 0.1 * 1.0 * 2.0   # ~2 * jump / eps
        assert d.min() >= -1e-12


def _drift_cases():
    """Every field that states a drift: smooth-sine and each entry
    mollified, in d = 1 and d = 2."""
    for name in sorted(fields.PARAMS):
        for mollify in ([None, 0.1] if name == "smooth-sine" else [0.1]):
            kind = "plain" if mollify is None else "mollified"
            for d, params in enumerate(CATALOG_CASES[name], 1):
                yield pytest.param(name, mollify, params,
                                   id=f"{name}-{kind}-{d}d")


@pytest.mark.parametrize("name, mollify, params", _drift_cases())
def test_drift_diagonal_is_the_diagonal(name, mollify, params):
    """The diagonal matrix_and_divergence returns next to the drift is
    _diag_many's, byte for byte: the Euler-Maruyama noise, the lattice walk
    and the kernel solver read the same a."""
    f = fields.make_field(name, mollify=mollify, **params)
    g = np.linspace(-2.7, 2.9, 23 if f.dim == 1 else 9)
    pts = np.stack(np.meshgrid(*[g] * f.dim, indexing="ij"),
                   -1).reshape(-1, f.dim)
    diag, drift = f.matrix_and_divergence(pts)
    assert drift.shape == pts.shape
    assert diag.tobytes() == f._diag_many(pts).tobytes()


@st.composite
def mollified_checkerboards(draw):
    """A mollified checkerboard in d = 1 or 2 with lo <= hi, a radius eps
    that is often at least cell / 2, so one axis's six shifts cross
    several cell edges, and N points that mix random coordinates of both
    signs, +-0.0 and exact shifted edges k cell + eps u_j."""
    dim = draw(st.sampled_from([1, 2]))
    lo, hi = sorted(draw(st.lists(st.floats(0.05, 20.0), min_size=2,
                                  max_size=2)))
    cell = draw(st.floats(0.01, 3.0))
    eps = cell * draw(st.one_of(st.floats(0.5, 4.0), st.floats(0.01, 0.5)))
    field = fields.make_field("checkerboard", lo=lo, hi=hi, cell=cell,
                              dim=dim, mollify=eps)
    n = draw(st.sampled_from([1, 7, 8193]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = np.unique(field.nodes)
    choices = np.stack([
        rng.uniform(-8.0 * cell, 8.0 * cell, (n, dim)),
        rng.integers(-8, 8, (n, dim)) * cell + eps * rng.choice(u, (n, dim)),
        rng.choice([0.0, -0.0], (n, dim))])
    pts = np.take_along_axis(choices, rng.integers(0, 3, (1, n, dim)), 0)[0]
    return field, pts


@settings(max_examples=40, deadline=None)
@given(mollified_checkerboards())
def test_parity_table_is_the_quadrature(case):
    """A mollified checkerboard read from its parity tables gives the bits
    of the quadrature over the base field at every shift."""
    field, pts = case
    assert field._tables is not None
    table = field._diag_many(pts), *field.matrix_and_divergence(pts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_tables", None)
        quad = field._diag_many(pts), *field.matrix_and_divergence(pts)
    for got, want in zip(table, quad):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("base, quadrature", [
    (fields.CheckerboardField(0.5, 2.0, dim=1), False),
    (fields.CheckerboardField(0.5, 2.0, dim=2), False),
    (fields.CheckerboardField(0.5, 2.0, dim=3), True),
    (fields.SmoothSineField(dim=1), True),
    (fields.ConstantDiagonalField([2.0, 0.5]), True),
], ids=["checkerboard-1d", "checkerboard-2d", "checkerboard-3d",
        "smooth-sine", "constant"])
def test_only_low_dimensional_checkerboards_use_a_table(
        base, quadrature, monkeypatch):
    """Other bases, and checkerboards in d >= 3, evaluate the base at
    every quadrature shift; the table path never calls the base."""
    calls = []
    real = type(base)._diag_many

    def counted(self, pts):
        calls.append(pts.shape[0])
        return real(self, pts)

    monkeypatch.setattr(type(base), "_diag_many", counted)
    m = fields.MollifiedField(base, eps=0.1)
    pts = np.zeros((3, base.dim))
    m._diag_many(pts)
    m.matrix_and_divergence(pts)
    assert len(calls) == (2 if quadrature else 0)


def test_written_out_gauss_legendre_rule():
    """The mollifier's nodes and weights are leggauss(6) made exactly
    symmetric, as the quadrature computed them before, bit for bit."""
    x, w = np.polynomial.legendre.leggauss(6)
    nodes, weights = fields._leggauss6()
    assert nodes.tobytes() == (0.5 * (x - x[::-1])).tobytes()
    assert weights.tobytes() == (0.5 * (w + w[::-1])).tobytes()


def test_3d_mollified_checkerboard_bytes():
    """A 3-d mollified checkerboard builds no (64^3, 216, 3) table, and
    its values keep their bytes (SHA-256 taken before the parity tables
    were added)."""
    start = time.perf_counter()
    f = fields.make_field("checkerboard", lo=0.5, hi=2.0, cell=0.5, dim=3,
                          mollify=0.3)
    assert time.perf_counter() - start < 0.5
    g = np.linspace(-1.3, 1.7, 7)
    pts = np.stack(np.meshgrid(g, g - 0.25, g + 0.5, indexing="ij"),
                   -1).reshape(-1, 3)
    diag, drift = f.matrix_and_divergence(pts)
    assert diag.tobytes() == f._diag_many(pts).tobytes()
    assert hashlib.sha256(diag.tobytes() + drift.tobytes()).hexdigest() == (
        "598f03d9be3da7f88f1347de01d3720d8723fe0b8c93777046afe3091b4d3de9")
