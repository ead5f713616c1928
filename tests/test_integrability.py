"""Refined quadrature and integrability verdicts."""

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from roughdiff import integrability as ig
from roughdiff import kernels, sampling
from roughdiff.errors import Error
from roughdiff.fields import make_field
from roughdiff.kernels import PotentialField
from roughdiff.testfunctions import make_test_function


def closed_form(dim, fn):
    return PotentialField(route="closed-form", dim=dim, fn=fn)


closed_form_potential = closed_form(
    1, lambda pts: 0.5 * np.exp(-np.abs(pts[..., 0])))
gauss_weight_2d = closed_form(2, lambda pts: np.exp(-(pts ** 2).sum(axis=-1)))
UNIT = {dim: closed_form(dim, lambda pts: np.ones(pts.shape[0]))
        for dim in (1, 2)}


class TestBoxNormalization:
    def test_scalar_pair_broadcasts(self):
        assert ig._norm_box((-1.0, 2.0), 2) == [(-1.0, 2.0), (-1.0, 2.0)]

    def test_per_axis(self):
        box = [(-1.0, 1.0), (0.0, 4.0)]
        assert ig._norm_box(box, 2) == [(-1.0, 1.0), (0.0, 4.0)]

    def test_bad_shapes(self):
        with pytest.raises(Error, match=r"box must be \(lo, hi\) pairs"):
            ig._norm_box((0.0, 1.0, 2.0), 1)
        with pytest.raises(Error, match=r"one \(lo, hi\) per axis"):
            ig._norm_box([(-1.0, 1.0)], 2)
        with pytest.raises(Error, match=r"degenerate box axis \(1.0, -1.0\)"):
            ig._norm_box((1.0, -1.0), 1)


class TestRefinedIntegral:
    def test_smooth_1d(self):
        res = ig.refined_integral(lambda p: np.sin(p[..., 0]) ** 2,
                                  UNIT[1], (0.0, np.pi), 0.01, [], 1)
        assert res.finite
        np.testing.assert_allclose(res.value, np.pi / 2, rtol=1e-6)
        assert res.ratios == [] and res.increments == []

    def test_smooth_2d(self):
        res = ig.refined_integral(lambda p: (p ** 2).sum(axis=-1),
                                  UNIT[2], (0.0, 1.0), 0.02, [], 2)
        assert res.finite
        np.testing.assert_allclose(res.value, 2.0 / 3.0, rtol=1e-3)

    def test_integrable_singularity_1d(self):
        # int_{-1}^{1} |x|^(-1/2) dx = 4; shells plus the geometric
        # remainder recover it
        def f(p):
            return np.abs(p[..., 0]) ** -0.5

        res = ig.refined_integral(f, UNIT[1], (-1.0, 1.0), 0.01,
                                  [np.zeros(1)], 1)
        assert res.finite
        np.testing.assert_allclose(res.value, 4.0, rtol=1e-2)
        assert res.remainder > 0
        # shell scaling for r^(-1/2): successive ratio 2^(-1/2)
        np.testing.assert_allclose(res.ratios, 2.0 ** -0.5, rtol=1e-2)

    @pytest.mark.parametrize("power", [1.0, 1.5])
    def test_divergent_singularity_1d(self, power):
        def f(p, _s=power):
            return np.abs(p[..., 0]) ** -_s

        res = ig.refined_integral(f, UNIT[1], (-1.0, 1.0), 0.01,
                                  [np.zeros(1)], 1)
        assert not res.finite
        assert res.value is None
        assert all(r > 0.99 for r in res.ratios)

    def test_integrable_singularity_2d(self):
        # int over [-1,1]^2 of 1/|x| = 8 log(1 + sqrt 2)
        def f(p):
            r = np.sqrt((p ** 2).sum(axis=-1))
            return 1.0 / np.where(r > 0, r, 1.0)

        res = ig.refined_integral(f, UNIT[2], (-1.0, 1.0), 0.02,
                                  [np.zeros(2)], 2)
        assert res.finite
        np.testing.assert_allclose(res.value, 8.0 * np.log(1.0 + np.sqrt(2)),
                                   rtol=1e-2)

    def test_divergent_singularity_2d(self):
        def f(p):
            r2 = (p ** 2).sum(axis=-1)
            return 1.0 / np.where(r2 > 0, r2, 1.0)

        res = ig.refined_integral(f, UNIT[2], (-1.0, 1.0), 0.02,
                                  [np.zeros(2)], 2)
        assert not res.finite

    def test_singular_point_outside_box_ignored(self):
        def f(p):
            return np.abs(p[..., 0]) ** -0.5

        res = ig.refined_integral(f, UNIT[1], (0.5, 2.0), 0.01,
                                  [np.zeros(1)], 1)
        assert res.finite
        np.testing.assert_allclose(res.value, 2.0 * (2.0 ** 0.5 - 0.5 ** 0.5),
                                   rtol=1e-4)
        assert res.increments == []

    def test_two_singular_points_unsupported(self):
        with pytest.raises(ValueError):
            ig.refined_integral(lambda p: p[..., 0] * 0 + 1.0, UNIT[1],
                                (-1.0, 1.0), 0.01,
                                [np.zeros(1), np.ones(1) * 0.5], 1)

    def test_partial_sums_track_increments(self):
        def f(p):
            return np.abs(p[..., 0]) ** -0.5

        res = ig.refined_integral(f, UNIT[1], (-1.0, 1.0), 0.01,
                                  [np.zeros(1)], 1)
        assert len(res.increments) == 5
        assert len(res.ratios) == 4
        assert len(res.partial_sums) == 6
        np.testing.assert_allclose(res.partial_sums[-1],
                                   res.base + sum(res.increments), rtol=1e-12)


class TestConditionChecks:
    def test_gradient_condition_linear(self):
        F = make_test_function("linear", c=[2.0])
        res = ig.check_condition_1(F, closed_form_potential,
                                   (-10.0, 10.0), 0.01)
        assert res.finite
        np.testing.assert_allclose(res.value, 4.0 * (1.0 - np.exp(-10.0)),
                                   atol=1e-3)

    def test_hessian_condition_quadratic_1d(self):
        F = make_test_function("quadratic", dim=1)
        res = ig.check_condition_2(F, closed_form_potential,
                                   (-10.0, 10.0), 0.01)
        assert res.finite
        np.testing.assert_allclose(res.value, 4.0, atol=2e-3)
        assert res.entry_finite.shape == (1, 1)

    def test_hessian_condition_quadratic_2d_entries(self):
        F = make_test_function("quadratic", dim=2)
        res = ig.check_condition_2(F, gauss_weight_2d, (-4.0, 4.0), 0.05)
        assert res.finite
        np.testing.assert_allclose(res.entry_values,
                                   [[4.0 * np.pi, 0.0], [0.0, 4.0 * np.pi]],
                                   rtol=1e-3, atol=1e-9)
        np.testing.assert_allclose(res.value, 8.0 * np.pi, rtol=1e-3)

    @pytest.mark.parametrize("alpha,finite", [
        (0.25, False), (0.4, False), (0.5, False), (0.6, True), (0.75, True),
    ])
    def test_hessian_condition_abs_power_sweep(self, alpha, finite):
        F = make_test_function("abs_power", alpha=alpha)
        res = ig.check_condition_2(F, closed_form_potential,
                                   (-10.0, 10.0), 0.01)
        assert res.finite is finite
        if finite:
            assert res.value > 0
        else:
            assert res.value is None
            assert np.isinf(res.entry_values).any()

    @pytest.mark.parametrize("alpha", [0.25, 0.4, 0.75])
    def test_gradient_condition_abs_power_always_finite(self, alpha):
        F = make_test_function("abs_power", alpha=alpha)
        res = ig.check_condition_1(F, closed_form_potential,
                                   (-10.0, 10.0), 0.01)
        assert res.finite

    def test_box_too_small(self):
        with pytest.raises(Error, match="; enlarge the box"):
            ig.check_box_mass(closed_form_potential, (-3.0, 3.0), 0.01, 1)
        ig.check_box_mass(closed_form_potential, (-10.0, 10.0), 0.01, 1)
        with pytest.raises(Error, match="vanishes on the whole box"):
            ig.check_box_mass(closed_form(2, lambda p: np.zeros(len(p))),
                              (-1.0, 1.0), 0.1, 2)

    def test_ladder_dict_round_trip(self):
        F = make_test_function("abs_power", alpha=0.75)
        res = ig.check_condition_2(F, closed_form_potential,
                                   (-10.0, 10.0), 0.01)
        entries = res.payload()["ladders"]
        assert len(entries) == 1
        lad = entries[0]
        assert set(lad) == {"base", "increments", "partial_sums", "ratios",
                            "remainder", "finite"}
        assert lad["finite"] is True
        assert len(lad["increments"]) == 5


class TestOnePass:
    """check_condition_2 integrates |grad f_k|^2 U and every f_kl^2 U as
    rows of one stacked integrand.  Each row must equal its lone integral
    bit for bit: a transposed (P, N) product summed along its strided axis
    skips numpy's pairwise blocking and moves the prop2 and prop3
    denominators by an ulp, which the pinned report bytes of
    D2_ALL_SWEEPS in test_runner_cli.py also catch."""

    @staticmethod
    def _same(got, want):
        assert got.finite == want.finite
        assert got.value == want.value
        assert got.base == want.base
        assert got.increments == want.increments
        assert got.ratios == want.ratios

    @pytest.mark.parametrize("name,params,weight,box,h", [
        ("abs_power", {"alpha": 0.75}, closed_form_potential,
         (-10.0, 10.0), 0.01),
        ("radial_power", {"alpha": 0.75, "dim": 2}, gauss_weight_2d,
         (-4.0, 4.0), 0.05),
    ], ids=["abs_power", "radial_power"])
    def test_rows_match_lone_integrals(self, name, params, weight, box, h):
        F = make_test_function(name, **params)
        res = ig.check_condition_2(F, weight, box, h)

        def lone(row):
            return ig.refined_integral(
                lambda p: row(F.hessian(p)), weight, box, h,
                F.singular_points, F.dim)

        assert len(res.components) == F.dim
        for k, comp in enumerate(res.components):
            self._same(comp.ladder,
                       lone(lambda H: (H[..., k, :] ** 2).sum(-1)))
        for i, lad in enumerate(res.entry_ladders):
            k, l = divmod(i, F.dim)
            self._same(lad, lone(lambda H: H[..., k, l] ** 2))
        assert res.components[0].ladder.increments


def full_grid_trap_rect(rows, U, pairs, hs=None, counts=None):
    """The quadrature before windows, kept as the reference: rows times U
    at every node of the rectangle, each weighted row summed alone."""
    axes, weights = zip(*(ig._axis_nodes(lo, hi,
                                         h=None if hs is None else hs[i],
                                         count=None if counts is None
                                         else counts[i])
                          for i, (lo, hi) in enumerate(pairs)))
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                   axis=-1)
    vals = np.asarray(rows(pts), dtype=float) * U(pts)
    wt = functools.reduce(np.multiply.outer, weights).ravel()
    return np.array([row.sum() for row in np.ascontiguousarray(vals * wt)])


# each placement of a table axis against the quadrature box (-2, 2):
# (lowest first node, highest first node)
PLACEMENTS = {"inside": (-1.9, 0.0), "straddle": (-3.5, -2.1),
              "miss": (2.05, 4.0)}
GATED = {1: [("abs_power", {"alpha": 0.75}), ("abs_power", {"alpha": 0.4}),
             ("quadratic", {"dim": 1}), ("bump", {"dim": 1})],
         2: [("radial_power", {"alpha": 0.75}), ("quadratic", {"dim": 2}),
             ("bump", {"dim": 2})]}


@st.composite
def tabulated_potential(draw, dim, placement):
    """A nonnegative tabulated U on uniform axes placed against the box
    (-2, 2); a "miss" axis leaves the window empty."""
    lo_min, lo_max = PLACEMENTS[placement]
    axes = []
    for _ in range(dim):
        h = draw(st.floats(0.1, 0.6))
        n = draw(st.integers(2, 12))
        lo = draw(st.floats(lo_min, lo_max))
        if placement == "inside":
            n = min(n, int(1.9 / h))
        elif placement == "straddle":
            n = max(n, int((-1.9 - lo) / h) + 2)
        axes.append(lo + h * np.arange(n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    values = np.random.default_rng(seed).uniform(
        0.0, 2.0, tuple(ax.shape[0] for ax in axes))
    return PotentialField(route="grid", dim=dim, axes=axes, values=values)


class TestWindow:
    """The gate evaluates F's rows and U only where a tabulated U can be
    nonzero; every ladder keeps the bits of the full-grid quadrature."""

    @staticmethod
    def _ladders(F, U, box, h):
        c1 = ig.check_condition_1(F, U, box, h)
        c2 = ig.check_condition_2(F, U, box, h)
        lads = [c1.ladder, *c2.entry_ladders,
                *(c.ladder for c in c2.components)]
        return [dataclasses.asdict(l) for l in lads]

    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    @pytest.mark.parametrize("dim", [1, 2])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_ladders_equal_full_grid(self, dim, placement, data):
        U = data.draw(tabulated_potential(dim, placement))
        name, params = data.draw(st.sampled_from(GATED[dim]))
        F = make_test_function(name, **params)
        box, h = (-2.0, 2.0), (0.01 if dim == 1 else 0.05)
        got = self._ladders(F, U, box, h)
        with mock.patch.object(ig, "_trap_rect", full_grid_trap_rect):
            want = self._ladders(F, U, box, h)
        assert got == want
        if placement == "miss":
            assert all(l["base"] == 0.0 for l in got)

    def test_window_of_a_table(self):
        U = PotentialField(route="grid", dim=2,
                           axes=[np.array([-1.0, 0.0, 1.0]),
                                 np.array([5.0, 6.0])],
                           values=np.ones((3, 2)))
        q = np.linspace(-2.0, 2.0, 9)
        assert U.window([q, q]) == [slice(2, 7), slice(9, 9)]
        assert UNIT[2].window([q, q[:4]]) == [slice(0, 9), slice(0, 4)]


def point_list_box_mass(U, box, h, dim):
    """check_box_mass before the tensor grid, kept as the reference: U at
    a list of boundary points and, apart, at a list of inner points."""
    pairs = ig._norm_box(box, dim)
    if dim == 1:
        boundary = np.array([[pairs[0][0]], [pairs[0][1]]])
        inner = np.linspace(pairs[0][0], pairs[0][1],
                            max(2, int(np.ceil((pairs[0][1] - pairs[0][0])
                                               / h)) + 1))[:, None]
    else:
        (lo1, hi1), (lo2, hi2) = pairs
        e1 = np.linspace(lo1, hi1, 65)
        e2 = np.linspace(lo2, hi2, 65)
        edges = [np.stack([e1, np.full(65, lo2)], -1),
                 np.stack([e1, np.full(65, hi2)], -1),
                 np.stack([np.full(65, lo1), e2], -1),
                 np.stack([np.full(65, hi1), e2], -1)]
        boundary = np.concatenate(edges)
        g1, g2 = np.meshgrid(np.linspace(lo1, hi1, 65),
                             np.linspace(lo2, hi2, 65), indexing="ij")
        inner = np.stack([g1.ravel(), g2.ravel()], -1)
    u_b = float(np.max(U(boundary)))
    u_in = float(np.max(U(inner)))
    if u_in <= 0:
        raise Error("the potential vanishes on the whole box")
    if u_b > ig.BOUNDARY_MASS_RATIO * u_in:
        raise Error(
            f"potential at the box boundary ({u_b:.3g}) exceeds "
            f"{ig.BOUNDARY_MASS_RATIO:g} of its interior maximum "
            f"({u_in:.3g}); enlarge the box")


def box_mass_outcome(check, U, box, h, dim):
    """None when ``check`` passes, else its Error message."""
    try:
        check(U, box, h, dim)
    except Error as exc:
        return str(exc)
    return None


@functools.cache
def solved_potential_2d():
    return kernels.resolvent_potential(
        "grid", sampling.dirac(np.zeros(2)),
        field=make_field("identity", dim=2), box=(-3.0, 3.0), h=0.1)


class TestBoxMass:
    """check_box_mass reads U on one tensor grid and decides as the point
    lists did, with the same message, on closed forms and tables."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_grid_equals_point_lists(self, data):
        dim = data.draw(st.sampled_from([1, 2]))
        kind = data.draw(st.sampled_from(["closed", "table", "solve"]
                                         if dim == 2 else ["closed", "table"]))
        if kind == "closed":
            U = closed_form_potential if dim == 1 else gauss_weight_2d
        elif kind == "table":
            U = data.draw(tabulated_potential(
                dim, data.draw(st.sampled_from(sorted(PLACEMENTS)))))
        else:
            U = solved_potential_2d()
        # boxes inside, straddling or missing U's table or bulk
        span = 12.0 if kind == "closed" else 4.0
        lo = data.draw(hnp.arrays(float, dim,
                                  elements=st.floats(-span, 2.0)))
        width = data.draw(hnp.arrays(float, dim,
                                     elements=st.floats(0.05, 2 * span)))
        box = np.stack([lo, lo + width], axis=-1)
        h = data.draw(st.floats(0.01, 0.37))
        ratio = data.draw(st.sampled_from([1e-4, 0.01, 0.5, 1.0]))
        with mock.patch.object(ig, "BOUNDARY_MASS_RATIO", ratio):
            got = box_mass_outcome(ig.check_box_mass, U, box, h, dim)
            want = box_mass_outcome(point_list_box_mass, U, box, h, dim)
        assert got == want


def base_rectangles(pairs, center, r0):
    """The gate's base rectangles as written out for d = 1 and 2 before
    the slab generator, kept as the reference."""
    c = np.asarray(center, dtype=float)
    rects = []
    if len(pairs) == 1:
        lo, hi = pairs[0]
        if c[0] - r0 > lo:
            rects.append([(lo, c[0] - r0)])
        if c[0] + r0 < hi:
            rects.append([(c[0] + r0, hi)])
        return rects
    (lo1, hi1), (lo2, hi2) = pairs
    if c[0] - r0 > lo1:
        rects.append([(lo1, c[0] - r0), (lo2, hi2)])
    if c[0] + r0 < hi1:
        rects.append([(c[0] + r0, hi1), (lo2, hi2)])
    if c[1] + r0 < hi2:
        rects.append([(c[0] - r0, c[0] + r0), (c[1] + r0, hi2)])
    if c[1] - r0 > lo2:
        rects.append([(c[0] - r0, c[0] + r0), (lo2, c[1] - r0)])
    return rects


def shell_rectangles(center, s_in, s_out, dim):
    """The gate's shell rectangles and node counts as written out for
    d = 1 and 2 before the slab generator, kept as the reference."""
    c = np.asarray(center, dtype=float)
    long, short = ig.SHELL_NODES_LONG, ig.SHELL_NODES_SHORT
    if dim == 1:
        return [([(c[0] - s_out, c[0] - s_in)], (long,)),
                ([(c[0] + s_in, c[0] + s_out)], (long,))]
    return [
        ([(c[0] - s_out, c[0] + s_out), (c[1] + s_in, c[1] + s_out)],
         (long, short)),
        ([(c[0] - s_out, c[0] + s_out), (c[1] - s_out, c[1] - s_in)],
         (long, short)),
        ([(c[0] - s_out, c[0] - s_in), (c[1] - s_in, c[1] + s_in)],
         (short, long)),
        ([(c[0] + s_in, c[0] + s_out), (c[1] - s_in, c[1] + s_in)],
         (short, long)),
    ]


def overlap(a, b):
    """The volume two rectangles share."""
    return np.prod([max(0.0, min(ha, hb) - max(la, lb))
                    for (la, ha), (lb, hb) in zip(a, b)])


def volume(rect):
    return np.prod([hi - lo for lo, hi in rect])


class TestSlabs:
    """One slab generator cuts the gate's base region and every shell, in
    the order and with the node counts of the d = 1, 2 rectangle lists."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_rectangle_lists(self, data):
        dim = data.draw(st.sampled_from([1, 2]))
        lo = data.draw(hnp.arrays(float, dim, elements=st.floats(-8.0, 2.0)))
        width = data.draw(hnp.arrays(float, dim,
                                     elements=st.floats(0.01, 10.0)))
        pairs = ig._norm_box(np.stack([lo, lo + width], axis=-1), dim)
        # centres inside, on and (the cube reaching out) near the faces
        frac = data.draw(hnp.arrays(float, dim, elements=st.floats(0.0, 1.0)))
        center = lo + frac * width
        r0 = data.draw(st.floats(0.0, 3.0))
        got = [rect for rect, _ in ig._slabs(pairs, center, r0, range(dim))]
        assert got == base_rectangles(pairs, center, r0)

        lev = data.draw(st.integers(0, ig.LADDER_LEVELS - 1))
        r0 = data.draw(st.floats(1e-3, 0.25))
        s_out, s_in = r0 * 2.0 ** (-lev), r0 * 2.0 ** (-lev - 1)
        shell = [(c - s_out, c + s_out) for c in center]
        got = list(ig._slabs(shell, center, s_in, range(dim)[::-1]))
        assert got == shell_rectangles(center, s_in, s_out, dim)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_3d_slabs_tile_the_region(self, data):
        lo = data.draw(hnp.arrays(float, 3, elements=st.floats(-8.0, 2.0)))
        width = data.draw(hnp.arrays(float, 3, elements=st.floats(0.5, 10.0)))
        frac = data.draw(hnp.arrays(float, 3, elements=st.floats(0.1, 0.9)))
        pairs = ig._norm_box(np.stack([lo, lo + width], axis=-1), 3)
        center = lo + frac * width
        # the cube inside the box, as _refined_rows places it
        gap = min(min(c - a, b - c) for c, (a, b) in zip(center, pairs))
        r = data.draw(st.floats(0.01, 0.25)) * gap
        shell = [(c - 2 * r, c + 2 * r) for c in center]
        cube = [(c - r, c + r) for c in center]
        for box, axes in [(pairs, range(3)), (shell, range(3)[::-1])]:
            slabs = list(ig._slabs(box, center, r, axes))
            assert len(slabs) == 6
            rects = [rect for rect, _ in slabs] + [cube]
            scale = volume(box)
            for i, a in enumerate(rects):
                for b in rects[:i]:
                    assert overlap(a, b) <= 1e-12 * scale
            np.testing.assert_allclose(
                sum(volume(rect) for rect, _ in slabs),
                volume(box) - (2 * r) ** 3, rtol=1e-12)
        # a shell slab is thinnest across its cut, which takes the short
        # node count
        for rect, counts in ig._slabs(shell, center, r, range(3)[::-1]):
            thin = np.argmin([b - a for a, b in rect])
            assert counts == tuple(
                ig.SHELL_NODES_SHORT if k == thin else ig.SHELL_NODES_LONG
                for k in range(3))
