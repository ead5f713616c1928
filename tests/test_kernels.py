"""Kernel solver, Gaussian envelopes, Aronson fits, and potentials."""

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, sparse
from scipy.sparse.linalg import splu

from roughdiff import kernels as kn
from roughdiff import runner, sampling
from roughdiff.errors import Error
from roughdiff.fields import make_field

from reference import (bilinear, bilinear_grid, exact_brownian_kernel,
                       flux_matrix, kde_field, superlu_potential,
                       tabulate_kernel)

SPEC_CANDIDATES = [1.0, 2.0, 3.0, 3.6, 4.0, 8.0]
# 240 log-spaced times from 1e-4 to 8, snapped to steps of 1e-4 (at least
# one) and deduplicated: dense near 0 for the e^(-s) quadrature of a kernel
LOG_TIMES = np.unique(np.maximum(1, np.round(
    np.geomspace(1e-4, 8.0, 240) / 1e-4).astype(np.int64))) * 1e-4
DIRAC_1D = sampling.dirac(np.zeros(1))
DIRAC_2D = sampling.dirac(np.zeros(2))
# U(x, y) = 3x + y on the nodes of [0, 3] x [0, 2]
SMALL_TABLE_2D = kn.PotentialField(route="grid", dim=2,
                                   axes=[np.arange(4.0), np.arange(3.0)],
                                   values=np.arange(12.0).reshape(4, 3))


@pytest.fixture(scope="module")
def id_kernel():
    field = make_field("identity", dim=1)
    return kn.solve_kernel_pde(field, 0.0, (-4.0, 4.0), 0.01,
                               times=[0.1, 0.25, 1.0], dt=2.5e-5)


@pytest.fixture(scope="module")
def cb_kernel():
    field = make_field("checkerboard", dim=1, lo=0.5, hi=2.0, cell=1.0)
    return kn.solve_kernel_pde(field, 0.0, (-6.0, 6.0), 0.01,
                               times=[0.25, 0.5, 1.0], dt=5e-5)


@pytest.fixture(scope="module")
def exact_tab():
    return tabulate_kernel(
        lambda t, pts: exact_brownian_kernel(1, t, np.zeros(1), pts),
        (-6.0, 6.0), 0.01, [0.1, 0.25, 1.0], 0.0)


@pytest.fixture(scope="module")
def solved_potential():
    return kn.resolvent_potential("grid", sampling.dirac(np.zeros(1)),
                                  field=make_field("identity", dim=1),
                                  box=(-8.0, 8.0), h=0.02)


@pytest.fixture(scope="module")
def closed_potential():
    return kn.resolvent_potential("closed-form", sampling.dirac(np.zeros(1)),
                                  field=make_field("identity", dim=1))


@pytest.fixture(scope="module")
def kde_2d():
    field = make_field("constant-diagonal", values=[0.1, 0.05])
    return kn.resolvent_potential("monte-carlo", sampling.dirac(np.zeros(2)),
                                  field=field, n_samples=100_000, seed=5)


class TestEnvelopes:
    def test_gaussian_ref_frozen(self):
        assert kn.gaussian_ref(1.0, 1, 1.0, [0.0], [0.0]) == 1.0
        np.testing.assert_allclose(
            kn.gaussian_ref(2.0, 2, 0.5, [0.0, 0.0], [1.0, 0.0]),
            4.0 * np.exp(-1.0), rtol=1e-14)

    def test_lower_frozen(self):
        np.testing.assert_allclose(
            kn.aronson_lower(2.0, 1, 1.0, [0.0], [0.0]), 0.5, rtol=1e-14)

    def test_nonpositive_time(self):
        with pytest.raises(Error, match="time must be > 0"):
            kn.gaussian_ref(1.0, 1, 0.0, [0.0], [0.0])
        with pytest.raises(Error, match="time must be > 0"):
            kn.aronson_lower(1.0, 1, -0.5, [0.0], [0.0])
        with pytest.raises(Error, match="time must be > 0"):
            exact_brownian_kernel(1, 0.0, [0.0], [0.0])

    def test_bad_M(self):
        with pytest.raises(ValueError):
            kn.gaussian_ref(0.0, 1, 1.0, [0.0], [0.0])

    def test_envelopes_sandwich_for_large_M(self):
        xs = np.linspace(-3, 3, 101)[:, None]
        for t in (0.1, 1.0):
            lo = kn.aronson_lower(4.0, 1, t, [0.0], xs)
            hi = kn.gaussian_ref(4.0, 1, t, [0.0], xs)
            mid = exact_brownian_kernel(1, t, [0.0], xs)
            assert np.all(lo <= mid) and np.all(mid <= hi)

    def test_exact_kernel_frozen(self):
        np.testing.assert_allclose(
            exact_brownian_kernel(1, 1.0, [0.0], [0.0]),
            (4.0 * np.pi) ** -0.5, rtol=1e-14)

    def test_exact_kernel_mass_and_variance(self):
        xs = np.linspace(-12.0, 12.0, 4801)
        for t in (0.3, 1.0):
            p = exact_brownian_kernel(1, t, [0.0], xs[:, None])
            np.testing.assert_allclose(np.trapezoid(p, xs), 1.0, atol=1e-9)
            np.testing.assert_allclose(np.trapezoid(xs ** 2 * p, xs), 2.0 * t,
                                       rtol=1e-6)


class TestSolveKernelPde:
    def test_matches_exact_on_central_half(self, id_kernel):
        pts = id_kernel.points()
        mask = np.abs(pts[:, 0]) <= 2.0
        for it, t in enumerate(id_kernel.times):
            exact = exact_brownian_kernel(1, t, np.zeros(1), pts)
            rel = np.abs(id_kernel.values[it].ravel()[mask] - exact[mask])
            rel /= exact[mask]
            assert rel.max() < 0.02, f"t={t}: {rel.max():.3%}"

    def test_3d_identity_matches_exact(self):
        # the operator, stencil and source snapping take any d; at h = 0.25
        # the worst relative error within |x| <= 2 is 2.34% at t = 0.5 and
        # 1.17% at t = 1 (it halves as t doubles), so 3% is the bound
        field = make_field("identity", dim=3)
        k = kn.solve_kernel_pde(field, [0.0] * 3, (-5.0, 5.0), 0.25,
                                times=[0.5, 1.0], dt=0.25 ** 2 / 4.0)
        pts = k.points()
        mask = (pts ** 2).sum(axis=1) <= 4.0
        for it, t in enumerate(k.times):
            exact = exact_brownian_kernel(3, t, np.zeros(3), pts)[mask]
            rel = np.abs(k.values[it].ravel()[mask] - exact) / exact
            assert rel.max() < 0.03, f"t={t}: {rel.max():.3%}"
        assert k.leakage < 1e-12

    def test_even_kernel(self, id_kernel):
        for sl in id_kernel.values:
            assert np.abs(sl - sl[::-1]).max() < 1e-10

    def test_mass_conserved(self, id_kernel, cb_kernel):
        for k in (id_kernel, cb_kernel):
            assert k.leakage < 1e-9
            assert np.all(k.values > -1e-12)

    def test_validate_flags_lossy_kernel(self, id_kernel, tmp_path,
                                         monkeypatch):
        # the aronson sweep counts a kernel that lost mass as an incident
        bad = kn.GridKernel(axes=id_kernel.axes, h=id_kernel.h,
                            times=id_kernel.times,
                            values=0.9 * id_kernel.values,
                            source=id_kernel.source)
        assert bad.leakage == pytest.approx(0.1)
        monkeypatch.setattr(runner.kernels, "solve_kernel_pde",
                            lambda *args: bad)
        man = runner.run_scenario(
            {"field": {"name": "identity"}, "sweeps": ["aronson"],
             "kernel": {"box": [-4.0, 4.0], "h": 0.01, "dt": 2.5e-5,
                        "times": [0.1, 0.25, 1.0], "candidates": [8.0]}},
            out_dir=str(tmp_path))
        assert man.incidents["leakage_warnings"] == 1

    def test_unstable_step(self):
        field = make_field("identity", dim=1)
        with pytest.raises(Error, match=r"exceeds h\^2 lambda / 4"):
            kn.solve_kernel_pde(field, 0.0, (-4.0, 4.0), 0.01, [0.5],
                                dt=1e-3)

    def test_grid_too_coarse(self):
        field = make_field("checkerboard", dim=1, lo=0.5, hi=2.0, cell=1.0)
        with pytest.raises(Error, match="does not resolve the field's"):
            kn.solve_kernel_pde(field, 0.0, (-4.0, 4.0), 0.8, [0.5],
                                dt=1e-4)

    def test_bad_inputs(self):
        field = make_field("identity", dim=1)
        with pytest.raises(ValueError):
            kn.solve_kernel_pde(field, 5.0, (-4.0, 4.0), 0.01, [0.5],
                                dt=2.5e-5)
        with pytest.raises(ValueError):
            kn.solve_kernel_pde(field, 0.0, (-4.0, 4.0), 0.01, [0.5, 0.2],
                                dt=2.5e-5)
        with pytest.raises(Error, match="time must be > 0"):
            kn.solve_kernel_pde(field, 0.0, (-4.0, 4.0), 0.01, [-0.5],
                                dt=2.5e-5)

    def test_times_checked_before_assembly(self, monkeypatch):
        def assemble(*args):
            raise AssertionError("assembled before the time check")

        monkeypatch.setattr(kn, "_assemble_operator", assemble)
        field = make_field("identity", dim=1)
        with pytest.raises(ValueError, match="collide"):
            kn.solve_kernel_pde(field, 0.0, (-4.0, 4.0), 0.1, [0.25, 0.2501],
                                dt=1e-3)

    def test_times_snap_to_steps(self):
        field = make_field("identity", dim=1)
        k = kn.solve_kernel_pde(field, 0.0, (-2.0, 2.0), 0.05, [0.10001],
                                dt=5e-4)
        np.testing.assert_allclose(k.times, [0.1], rtol=1e-12)
        assert k.meta["requested_times"] == [0.10001]


def stepped_cn(field, source, box, h, times, dt):
    """The Crank-Nicolson table the slow way, the reference for the
    Lanczos evaluation: one SuperLU solve with V - (dt/2) S per step, from
    the Dirac at the node ``source``."""
    axes, vols = kn.fv_grid(field, box, h)
    couplings, vol, shape = kn._assemble_operator(field, axes, vols, h)
    S = flux_matrix(couplings, shape)
    lu = splu((sparse.diags(vol) - (dt / 2.0) * S).tocsc())
    src = np.ravel_multi_index(
        tuple(int(round((c - ax[0]) / h)) for c, ax in zip(source, axes)),
        shape)
    p = np.zeros(vol.shape[0])
    p[src] = 1.0 / vol[src]
    want = {int(n): i for i, n in enumerate(
        np.maximum(1, np.round(np.asarray(times) / dt).astype(np.int64)))}
    out = np.empty((len(want), vol.shape[0]))
    for n in range(1, max(want) + 1):
        p = 2.0 * lu.solve(vol * p) - p
        if n in want:
            out[want[n]] = p
    return out.reshape((len(want),) + shape)


CHECKERBOARD = {"lo": 0.5, "hi": 2.0, "cell": 1.0}
# (field, source, box, h, times, dt); dt None sits on the check_step bound
LANCZOS_CASES = {
    "rough-2d": (make_field("checkerboard", dim=2, **CHECKERBOARD),
                 [0.0, 0.0], (-4.0, 4.0), 0.1, [0.25, 0.5], 5e-4),
    "demo-1d": (make_field("checkerboard", **CHECKERBOARD), [0.0],
                (-6.0, 6.0), 0.05, [0.25, 0.5], 3e-4),
    "c4-log-times": (make_field("identity", dim=1), [0.0], (-8.0, 8.0),
                     0.02, LOG_TIMES, 1e-4),
    "dt-at-bound": (make_field("checkerboard", **CHECKERBOARD), [0.5],
                    (-6.0, 6.0), 0.05, [0.01, 0.3, 2.0], None),
}


class TestLanczosCrankNicolson:
    """One Lanczos recurrence gives the stepped Crank-Nicolson table."""

    @pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
    def test_matches_stepped_table(self, case):
        field, source, box, h, times, dt = LANCZOS_CASES[case]
        if dt is None:
            dt = h * h * field.lam / 4.0
        k = kn.solve_kernel_pde(field, source, box, h, times, dt)
        want = stepped_cn(field, source, box, h, times, dt)
        assert k.values.shape == want.shape
        assert np.abs(k.values - want).max() <= 1e-11 * np.abs(want).max()
        np.testing.assert_allclose(k.masses, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h, t", [(0.01, 1.0), (0.01, 4.0), (0.02, 4.0)])
    def test_late_single_time_matches_a_solve_with_an_early_one(self, h, t):
        # with t alone, the first checks' Ritz values all lie far from 0
        # and every coefficient of f(T) e1 underflows; that must not read
        # as converged (it gave a flat kernel, off by half its peak)
        field = make_field("checkerboard", **CHECKERBOARD)
        dt = h * h * field.lam / 4.0
        alone = kn.solve_kernel_pde(field, 0.0, (-6.0, 6.0), h, [t], dt)
        pair = kn.solve_kernel_pde(field, 0.0, (-6.0, 6.0), h, [0.05, t], dt)
        want = pair.values[-1]
        assert np.abs(alone.values[0] - want).max() <= (
            kn.KRYLOV_TOL * want.max())

    def test_zero_flux_stops_at_the_invariant_subspace(self):
        # S = 0: beta underflows at once and every slice is p0
        vol = np.array([0.5, 1.0, 1.0, 1.0, 0.5])
        p0 = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        out = kn._lanczos_cn([np.zeros(4)], vol, (5,), p0, 0.1, [1, 10])
        np.testing.assert_allclose(out, [p0, p0], rtol=0, atol=1e-15)

    def test_gives_up_after_a_multiple_of_the_nodes(self, monkeypatch):
        field, source, box, h, times, dt = LANCZOS_CASES["demo-1d"]
        monkeypatch.setattr(kn, "KRYLOV_MAX_PER_NODE", 0.1)
        with pytest.raises(Error, match="the Lanczos kernel did not converge"):
            kn.solve_kernel_pde(field, source, box, h, times, dt)


class TestSymmetricStepping:
    """The face couplings as the sparse S of the tests' reference and as
    the stencil of B, and the Crank-Nicolson table against dense
    stepping."""

    @pytest.mark.parametrize("name, params", [
        ("checkerboard", {"lo": 0.5, "hi": 2.0, "cell": 0.5, "dim": 1}),
        ("checkerboard", {"lo": 0.5, "hi": 2.0, "cell": 0.5, "dim": 2}),
        ("checkerboard", {"lo": 0.5, "hi": 2.0, "cell": 0.5, "dim": 3}),
        ("constant-diagonal", {"values": [3.0]}),
        ("constant-diagonal", {"values": [2.0, 0.5]}),
    ])
    def test_flux_matrix_symmetric_with_zero_row_sums(self, name, params):
        field = make_field(name, **params)
        axes, vols = kn._axes_volumes((-1.5, 1.0), 0.1, field.dim)
        couplings, vol, shape = kn._assemble_operator(field, axes, vols, 0.1)
        assert shape == (26,) * field.dim and vol.shape == (26 ** field.dim,)
        S = flux_matrix(couplings, shape)
        assert (S != S.T).nnz == 0
        scale = abs(S).max()
        assert np.abs(S.sum(axis=1)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("name, params, box", [
        ("checkerboard", {"lo": 0.5, "hi": 2.0, "cell": 0.5, "dim": 1},
         (-1.5, 1.0)),
        ("checkerboard", {"lo": 0.5, "hi": 2.0, "cell": 0.5, "dim": 2},
         (-1.5, 1.0)),
        ("checkerboard", {"lo": 0.5, "hi": 2.0, "cell": 0.4, "dim": 2},
         [[-0.8, 0.8], [-1.2, 0.6]]),
        ("checkerboard", {"lo": 0.5, "hi": 2.0, "cell": 0.4, "dim": 3},
         [[-0.5, 0.5], [-0.6, 0.3], [-0.4, 0.4]]),
    ])
    def test_stencil_is_the_sparse_matrix(self, name, params, box):
        field = make_field(name, **params)
        axes, vols = kn._axes_volumes(box, 0.1, field.dim)
        couplings, vol, shape = kn._assemble_operator(field, axes, vols, 0.1)
        r = 1.0 / np.sqrt(vol)
        B = r[:, None] * flux_matrix(couplings, shape).toarray() * r
        stencil, diag = kn._stencil(couplings, vol, shape)
        assert np.abs(diag - np.diag(B)).max() <= 1e-15 * np.abs(B).max()
        rng = np.random.default_rng(7)
        for _ in range(5):
            q = rng.standard_normal(vol.shape[0])
            want = B @ q
            scale = np.abs(B).max() * np.abs(q).max()
            assert np.abs(stencil(q) - want).max() <= 1e-14 * scale

    def test_matches_dense_crank_nicolson(self):
        field = make_field("checkerboard", lo=0.5, hi=2.0, cell=0.4, dim=2)
        box, h, dt = (-0.8, 0.8), 0.1, 2.5e-3
        steps = [1, 7, 25, 40]
        k = kn.solve_kernel_pde(field, [0.1, -0.2], box, h,
                                [n * dt for n in steps], dt)
        assert k.values.shape == (4, 17, 17)

        axes, vols = kn._axes_volumes(box, h, 2)
        couplings, vol, shape = kn._assemble_operator(field, axes, vols, h)
        A = flux_matrix(couplings, shape).toarray() / vol[:, None]
        eye = np.eye(vol.shape[0])
        lhs, rhs = eye - (dt / 2) * A, eye + (dt / 2) * A
        p = np.zeros(vol.shape[0])
        src = np.ravel_multi_index((9, 6), shape)
        p[src] = 1.0 / vol[src]
        want = []
        for n in range(1, steps[-1] + 1):
            p = np.linalg.solve(lhs, rhs @ p)
            if n in steps:
                want.append(p.reshape(shape))
        want = np.array(want)
        assert np.abs(k.values - want).max() <= 1e-12 * want.max()
        masses = (k.values.reshape(4, -1) * vol).sum(axis=1)
        np.testing.assert_allclose(masses, 1.0, rtol=0, atol=1e-12)


class TestAronsonFit:
    def test_exact_kernel_fit_is_four(self, exact_tab):
        assert kn.fit_aronson_M(exact_tab, SPEC_CANDIDATES) == 4.0

    def test_solved_kernel_fit_is_four(self, id_kernel):
        assert kn.fit_aronson_M(id_kernel, SPEC_CANDIDATES) == 4.0

    def test_all_candidates_too_small(self, exact_tab):
        assert kn.fit_aronson_M(exact_tab, [1.0, 2.0, 3.0]) is None

    def test_empty_candidates(self, exact_tab):
        with pytest.raises(Error, match="no candidate M values supplied"):
            kn.fit_aronson_M(exact_tab, [])

    def test_candidates_must_increase(self, exact_tab):
        with pytest.raises(ValueError):
            kn.fit_aronson_M(exact_tab, [4.0, 2.0])
        with pytest.raises(ValueError):
            kn.fit_aronson_M(exact_tab, [-1.0, 2.0])

    def test_sandwich_monotone_in_M(self, cb_kernel):
        ladder = [2.0, 4.0, 8.0, 16.0, 32.0]
        flags = [kn.sandwich_holds(cb_kernel, M) for M in ladder]
        first = flags.index(True)
        assert all(flags[first:])
        assert not any(flags[:first])

    def test_checkerboard_sandwiched_at_fitted_M(self, cb_kernel):
        M = kn.fit_aronson_M(cb_kernel, [2.0, 4.0, 8.0, 16.0, 32.0])
        assert M is not None and M <= 32.0
        assert kn.sandwich_holds(cb_kernel, M)

    def test_2d_fitted_M_nonincreasing_toward_identity(self):
        fits = []
        for lam in (4.0, 2.0, 1.0):
            field = make_field("constant-diagonal",
                               values=[lam, 1.0 / lam])
            k2 = kn.solve_kernel_pde(field, [0.0, 0.0], (-6.0, 6.0), 0.1,
                                     times=[0.1, 0.2, 0.4], dt=2.5e-3)
            fits.append(kn.fit_aronson_M(k2, [8.0, 13.0, 16.0, 24.0, 32.0]))
        assert fits == [16.0, 13.0, 13.0]
        assert fits[0] > fits[-1]


def read_table(prefix):
    """The values of <prefix>.csv shaped by the times and axes of the
    <prefix>.json sidecar, and the sidecar; the file must hold one line
    per index of the leading axes."""
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    shape = [len(meta["times"])] if "times" in meta else []
    shape += [len(ax) for ax in meta["axes"]]
    values = np.loadtxt(prefix + ".csv", delimiter=",", ndmin=2)
    assert values.shape == (int(np.prod(shape[:-1])), shape[-1])
    return values.reshape(shape), meta


def assert_bits(got, want):
    """got and want have the same shape and the same float64 bytes: -0.0
    is not 0.0."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_round_trip(prefix, values, axes, times=None):
    """<prefix> gives back values, and its sidecar axes (and times), bit
    for bit."""
    got, meta = read_table(prefix)
    assert_bits(got, values)
    assert len(meta["axes"]) == len(axes)
    for ax, want in zip(meta["axes"], axes):
        assert_bits(ax, want)
    if times is not None:
        assert_bits(meta["times"], times)
    return meta


class TestGridKernelIO:
    def test_round_trip(self, tmp_path, id_kernel):
        prefix = str(tmp_path / "kern")
        id_kernel.save(prefix)
        meta = assert_round_trip(prefix, id_kernel.values, id_kernel.axes,
                                 id_kernel.times)
        assert meta["kind"] == "grid-kernel"
        assert meta["leakage"] == id_kernel.leakage
        assert meta["box"] == [[-4.0, 4.0]]
        assert meta["h"] == 0.01
        assert meta["source"] == [0.0]
        with open(prefix + ".csv") as fh:
            assert len(fh.readlines()) == 3

    def test_2d_round_trip(self, tmp_path):
        field = make_field("constant-diagonal", values=[2.0, 0.5])
        k = kn.solve_kernel_pde(field, [0.0, 0.0], (-2.0, 2.0), 0.25,
                                times=[0.2], dt=1e-2)
        prefix = str(tmp_path / "kern2")
        k.save(prefix)
        meta = assert_round_trip(prefix, k.values, k.axes, k.times)
        assert meta["box"] == [[-2.0, 2.0], [-2.0, 2.0]]
        assert meta["source"] == [0.0, 0.0]
        with open(prefix + ".csv") as fh:
            assert len(fh.readlines()) == 17


def one_string_table(values):
    """The bytes of a value table built as one string, one Python step per
    value and one line per index of the leading axes: the reference for
    the line-at-a-time _save_table."""
    values = np.asarray(values, dtype=float)
    lines = [",".join(repr(float(v)) for v in values[lead]) + "\n"
             for lead in np.ndindex(values.shape[:-1])]
    return "".join(lines).encode()


# every float64 class the repr of a table cell must keep apart
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                  float("inf"), float("-inf"), float("nan")]


@st.composite
def grid_tables(draw):
    """Axes of 1 or 2 dimensions and a potential grid or one to three time
    slices of values on them."""
    dim = draw(st.sampled_from([1, 2]))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    axes = [np.array(draw(st.lists(finite, min_size=1, max_size=7)))
            for _ in range(dim)]
    shape = tuple(ax.shape[0] for ax in axes)
    n_times = draw(st.sampled_from([None, 1, 2, 3]))
    if n_times is not None:
        shape = (n_times,) + shape
    cells = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(width=64))
    return axes, draw(hnp.arrays(float, shape, elements=cells))


class TestTableBytes:
    """Kernel and potential tables are value matrices with their axes in
    the sidecar."""

    @settings(max_examples=80, deadline=None)
    @given(grid_tables())
    def test_lines_equal_one_string(self, table):
        axes, values = table
        meta = {"kind": "test", "h": 0.5}
        if values.ndim > len(axes):
            meta["times"] = [0.5 * (i + 1) for i in range(len(values))]
        with tempfile.TemporaryDirectory() as tmp:
            prefix = os.path.join(tmp, "table")
            kn._save_table(prefix, axes, values, meta)
            with open(prefix + ".csv", "rb") as fh:
                assert fh.read() == one_string_table(values)
            lists = [ax.tolist() for ax in axes]
            want = dict(meta, box=[[ax[0], ax[-1]] for ax in lists],
                        axes=lists)
            with open(prefix + ".json") as fh:
                assert fh.read() == json.dumps(want, sort_keys=True,
                                               indent=2) + "\n"
            # every nan reads back as the one nan that repr spells
            got, _ = read_table(prefix)
            assert_bits(got, np.where(np.isnan(values), np.nan, values))

    def test_2d_two_time_kernel(self, tmp_path):
        field = make_field("constant-diagonal", values=[2.0, 0.5])
        k = kn.solve_kernel_pde(field, [0.0, 0.0], (-2.0, 2.0), 0.25,
                                times=[0.2, 0.35], dt=1e-2)
        prefix = str(tmp_path / "kern2")
        k.save(prefix)
        with open(prefix + ".csv", "rb") as fh:
            assert fh.read() == one_string_table(k.values)
        assert_round_trip(prefix, k.values, k.axes, k.times)

    def test_2d_kde_potential(self, tmp_path, kde_2d):
        # the KDE axes are bin centres, which (lo, h, n) would not rebuild
        prefix = str(tmp_path / "pot2")
        kde_2d.save(prefix)
        with open(prefix + ".csv", "rb") as fh:
            assert fh.read() == one_string_table(kde_2d.values)
        meta = assert_round_trip(prefix, kde_2d.values, kde_2d.axes)
        assert meta["route"] == "monte-carlo-kde"

    def test_closed_form_does_not_save(self, closed_potential, tmp_path):
        with pytest.raises(Error, match="the closed form has no table"):
            closed_potential.save(str(tmp_path / "pot"))
        assert not os.listdir(tmp_path)


class TestResolventPotential:
    def test_closed_form_frozen(self, closed_potential):
        assert closed_potential(np.zeros(1)) == 0.5
        np.testing.assert_allclose(closed_potential(np.ones(1)),
                                   0.5 * np.exp(-1.0), rtol=1e-14)

    def test_points_must_end_in_the_dimension(self, closed_potential,
                                              solved_potential):
        # a flat array of 5 coordinates is not points of a 1-d U
        flat = np.linspace(-1.0, 1.0, 5)
        for U in (closed_potential, solved_potential):
            with pytest.raises(Error, match=r"length 1, got shape \(5,\)"):
                U(flat)
        with pytest.raises(Error, match="must end in an axis of length 2"):
            SMALL_TABLE_2D(np.zeros((3, 1)))

    def test_one_point_is_pointwise(self, solved_potential):
        x = np.array([0.37])
        assert solved_potential(x) == solved_potential(x[None, :])[0]
        # the mean of the cell's corners 3, 4, 6 and 7
        assert SMALL_TABLE_2D(np.array([1.5, 0.5])) == 5.0

    def test_closed_form_requires_1d_dirac(self):
        with pytest.raises(ValueError):
            kn.resolvent_potential("closed-form",
                                   sampling.dirac(np.zeros(2)),
                                   field=make_field("identity", dim=1))

    @pytest.mark.parametrize("mollify", [None, 0.1],
                             ids=["plain", "mollified"])
    def test_closed_form_of_a_constant_field(self, mollify):
        # (1 - a d^2/dx^2) U = delta_x0 at a = 2: the grid solve agrees as
        # it does at a = 1; a rough field has no closed form
        field = make_field("constant-diagonal", values=[2.0],
                           mollify=mollify)
        nu = sampling.dirac([0.5])
        U = kn.resolvent_potential("closed-form", nu, field=field)
        xs = np.linspace(-1.5, 2.5, 401)[:, None]
        s = np.sqrt(2.0)
        np.testing.assert_allclose(
            U(xs), np.exp(-np.abs(xs[:, 0] - 0.5) / s) / (2.0 * s),
            rtol=1e-15)
        G = grid_potential(nu, make_field("constant-diagonal", values=[2.0]),
                           h=0.02)
        assert (np.abs(G(xs) - U(xs)) / U(xs)).max() < 0.05
        with pytest.raises(ValueError, match="constant"):
            kn.resolvent_potential("closed-form", nu, field=make_field(
                "checkerboard", lo=0.5, hi=2.0, mollify=0.1))

    def test_grid_route_matches_closed_form(self, solved_potential,
                                            closed_potential):
        U = solved_potential
        xs = np.linspace(-2.0, 2.0, 401)[:, None]
        rel = np.abs(U(xs) - closed_potential(xs)) / closed_potential(xs)
        assert rel.max() < 0.05
        np.testing.assert_allclose(U.integral(), 1.0, atol=0.02)
        # the solve conserves mass: 1^T S = 0
        assert abs(U.integral() - 1.0) <= 1e-12

    def test_mc_route_matches_closed_form(self, closed_potential):
        field = make_field("identity", dim=1)
        U = kn.resolvent_potential("monte-carlo", sampling.dirac(np.zeros(1)),
                                   field=field, n_samples=400_000, seed=2)
        xs = np.linspace(-2.0, 2.0, 401)[:, None]
        rel = np.abs(U(xs) - closed_potential(xs)) / closed_potential(xs)
        assert rel.max() < 0.05
        np.testing.assert_allclose(U.integral(), 1.0, atol=0.02)

    def test_mc_route_deterministic(self):
        field = make_field("identity", dim=1)
        a = kn.resolvent_potential("monte-carlo", sampling.dirac(np.zeros(1)),
                                   field=field, n_samples=100_000, seed=9)
        b = kn.resolvent_potential("monte-carlo", sampling.dirac(np.zeros(1)),
                                   field=field, n_samples=100_000, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_mc_route_sample_floor(self):
        field = make_field("identity", dim=1)
        with pytest.raises(Error, match="samples for the KDE route"):
            kn.resolvent_potential("monte-carlo",
                                   sampling.dirac(np.zeros(1)), field=field,
                                   n_samples=50_000)

    def test_mc_route_nonconstant_field(self):
        # one Euler sweep over all samples; coarse step keeps this a smoke
        # check
        field = make_field("smooth-sine", dim=1)
        U = kn.resolvent_potential("monte-carlo", sampling.dirac(np.zeros(1)),
                                   field=field, n_samples=100_000, seed=3,
                                   step=2.0 ** -4, t_cap=4.0)
        np.testing.assert_allclose(U.integral(), 1.0, atol=0.02)
        assert np.all(U.values >= 0.0)

    def test_unknown_source(self, id_kernel):
        with pytest.raises(ValueError):
            kn.resolvent_potential("toaster", sampling.dirac(np.zeros(1)))
        # a kernel is not a source: U is one solve, route "grid"
        with pytest.raises(ValueError, match="unknown potential source"):
            kn.resolvent_potential(id_kernel, sampling.dirac(np.zeros(1)))

    def test_potential_round_trip(self, tmp_path, solved_potential):
        U = solved_potential
        prefix = str(tmp_path / "pot")
        U.save(prefix)
        meta = assert_round_trip(prefix, U.values, U.axes)
        assert meta["kind"] == "potential"
        assert meta["route"] == "grid"
        assert meta["box"] == [[-8.0, 8.0]]
        assert meta["h"] == pytest.approx(0.02)
        assert "times" not in meta and "time_column" not in meta
        with open(prefix + ".csv") as fh:
            assert len(fh.readlines()) == 1


ID1 = make_field("identity", dim=1)
BOX1 = (-8.0, 8.0)
DENSITY1 = sampling.grid_density([-1.03, 0.0, 0.5, 2.01], [1.0, 3.0, 0.5])
DENSITY2 = sampling.grid_density([[-1.03, 0.0, 0.5, 2.01], [-0.3, 0.77]],
                                 [[1.0], [3.0], [0.5]])
DENSITY3 = sampling.grid_density(
    [[-1.03, 0.0, 0.5], [-0.3, 0.77], [-0.6, 0.1, 0.35, 0.9]],
    [[[1.0, 2.0, 0.5]], [[3.0, 0.0, 1.5]]])


def grid_potential(nu, field=ID1, box=BOX1, h=0.05):
    return kn.resolvent_potential("grid", nu, field=field, box=box, h=h)


def overlap_mass(law, axes, h):
    """Mass per node of a grid density by summing cell overlaps with the
    dual cells, one node and one cell at a time."""
    def lengths(ax, edges):
        out = np.zeros((ax.shape[0], edges.shape[0] - 1))
        for i, x in enumerate(ax):
            a, b = max(x - h / 2, ax[0]), min(x + h / 2, ax[-1])
            for j in range(edges.shape[0] - 1):
                out[i, j] = max(0.0, min(b, edges[j + 1]) - max(a, edges[j]))
        return out / np.diff(edges)

    w = [lengths(ax, e) for ax, e in zip(axes, law.edges)]
    if len(w) == 1:
        return w[0] @ law.cell_probs
    return w[0] @ law.cell_probs @ w[1].T


# (law, field, box, h) of grid potentials checked against SuperLU
SUPERLU_CASES = {
    "identity-1d": (DIRAC_1D, ID1, BOX1, 0.02),
    "checkerboard-1d": (DIRAC_1D, make_field("checkerboard", **CHECKERBOARD),
                        (-6.0, 6.0), 0.05),
    "checkerboard-2d": (DIRAC_2D, make_field("checkerboard", dim=2,
                                             **CHECKERBOARD), (-4.0, 4.0), 0.1),
    "density-2d-checkerboard": (DENSITY2, make_field(
        "checkerboard", dim=2, **CHECKERBOARD), (-6.0, 6.0), 0.1),
    "checkerboard-3d": (sampling.dirac(np.zeros(3)), make_field(
        "checkerboard", dim=3, **CHECKERBOARD), (-4.0, 4.0), 0.5),
}


class TestGridRoute:
    """The grid route: one solve of (V - S) u = V p0 on the kernel grid."""

    @pytest.mark.parametrize("case", sorted(SUPERLU_CASES))
    def test_matches_superlu(self, case):
        # conjugate gradients against the direct solve of the same system
        nu, field, box, h = SUPERLU_CASES[case]
        U = grid_potential(nu, field, box, h)
        want = superlu_potential(field, nu, box, h)
        assert np.abs(U.values - want).max() <= 1e-12 * want.max()
        assert abs(U.integral() - 1.0) <= 1e-12

    def test_gives_up_after_a_multiple_of_the_nodes(self, monkeypatch):
        _, field, box, h = SUPERLU_CASES["checkerboard-1d"]
        monkeypatch.setattr(kn, "KRYLOV_MAX_PER_NODE", 0.01)
        with pytest.raises(Error, match="did not converge in 3 "
                           "conjugate-gradient steps on 241 nodes"):
            grid_potential(DIRAC_1D, field, box, h)

    def test_identity_matches_closed_form(self, closed_potential):
        U = grid_potential(sampling.dirac(np.zeros(1)))
        xs = U.axes[0][:, None]
        assert np.abs(U.values - closed_potential(xs)).max() <= 1e-3 * 0.5
        assert abs(U.integral() - 1.0) <= 1e-12
        assert U.route == "grid"

    @pytest.mark.parametrize("nu, field, box, h", [
        (sampling.dirac([0.5]), ID1, BOX1, 0.05),
        (sampling.mixture([0.2, 0.8], [[-1.0], [2.5]]), ID1, BOX1, 0.05),
        (DENSITY1, ID1, BOX1, 0.05),
        (DENSITY2, make_field("checkerboard", dim=2, lo=0.5, hi=2.0),
         (-6.0, 6.0), 0.1),
        (sampling.dirac(np.zeros(3)), make_field("identity", dim=3),
         (-2.0, 2.0), 0.5),
        (DENSITY3, make_field("checkerboard", dim=3, lo=0.5, hi=2.0),
         (-2.0, 2.0), 0.25),
    ], ids=["dirac", "mixture", "density", "density-2d-checkerboard",
            "dirac-3d", "density-3d-checkerboard"])
    def test_mass_is_one(self, nu, field, box, h):
        U = grid_potential(nu, field, box, h)
        assert abs(U.integral() - 1.0) <= 1e-12
        assert U.values.min() > -1e-15

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(-7.9, 7.9)),
                    min_size=1, max_size=4))
    def test_mixture_mass_property(self, parts):
        weights, atoms = zip(*parts)
        U = grid_potential(sampling.mixture(weights, [[a] for a in atoms]))
        assert abs(U.integral() - 1.0) <= 1e-12

    def test_mixture_is_linear(self):
        weights, atoms = [0.2, 0.5, 0.3], [-3.0, 0.0, 2.5]
        U = grid_potential(sampling.mixture(weights, [[a] for a in atoms]))
        parts = sum(w * grid_potential(sampling.dirac([a])).values
                    for w, a in zip(weights, atoms))
        assert np.abs(U.values - parts).max() <= 1e-12

    @pytest.mark.parametrize("law", [DENSITY1, DENSITY2], ids=["1d", "2d"])
    def test_density_mass_is_exact_overlap(self, law):
        axes, _ = kn._axes_volumes((-2.0, 3.0), 0.1, len(law.edges))
        got = kn._node_mass(law, axes, 0.1)
        np.testing.assert_allclose(got, overlap_mass(law, axes, 0.1),
                                   rtol=0, atol=1e-15)

    def test_density_mass_bytes_at_any_blas_thread_count(self, run_python,
                                                         tmp_path):
        # a 400 x 400-cell density on +-4 at h = 0.01: one BLAS product per
        # axis gave different bytes under one and two threads; and a 2-d
        # checkerboard grid potential, whose conjugate gradients sum with
        # numpy rather than BLAS
        script = (
            "import os, sys; "
            "os.environ.update(dict.fromkeys(('OPENBLAS_NUM_THREADS', "
            "'OMP_NUM_THREADS', 'MKL_NUM_THREADS'), sys.argv[1])); "
            "import hashlib, numpy as np; "
            "from roughdiff import kernels, sampling; "
            "e = np.linspace(-3.9, 3.9, 401); "
            "law = sampling.grid_density("
            "[e, e], np.random.default_rng(0).random((400, 400))); "
            "axes, _ = kernels._axes_volumes((-4.0, 4.0), 0.01, 2); "
            "print(hashlib.sha256(kernels._node_mass("
            "law, axes, 0.01).tobytes()).hexdigest()); "
            "from roughdiff.fields import make_field; "
            "U = kernels.resolvent_potential('grid', sampling.dirac("
            "[0.0, 0.0]), field=make_field('checkerboard', dim=2, lo=0.5, "
            "hi=2.0), box=(-4.0, 4.0), h=0.1); "
            "print(hashlib.sha256(U.values.tobytes()).hexdigest())")
        digests = set()
        for threads in ("1", "2"):
            proc = run_python("-c", script, threads, cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            assert len(proc.stdout.split()) == 2
            digests.add(proc.stdout)
        assert len(digests) == 1

    def test_checkerboard_matches_stepped_route(self):
        # U = int e^(-s) p_s ds: the solve against the e^(-s)-weighted
        # trapezoid over the stepped kernel's slices, away from the
        # source, where the coarse first slices matter, and from the box
        # edge, where the tail beyond t = 8 it leaves out matters
        field = make_field("checkerboard", dim=1, lo=0.5, hi=2.0)
        kern = kn.solve_kernel_pde(field, 0.0, BOX1, 0.05, LOG_TIMES, 1e-4)
        stepped = np.trapezoid(kern.values * np.exp(-kern.times)[:, None],
                               kern.times, axis=0)
        U = grid_potential(sampling.dirac(np.zeros(1)), field)
        mid = (np.abs(U.axes[0]) > 0.5) & (np.abs(U.axes[0]) < 3.0)
        rel = np.abs(U.values - stepped)[mid] / U.values[mid]
        assert rel.max() < 5e-3

    def test_mollified_checkerboard_bytes(self):
        # SHA-256s taken when the mollified checkerboard's quadrature
        # gave way to its closed form; the solver reads a at every face
        # midpoint
        field = make_field("checkerboard", dim=2, lo=0.5, hi=2.0, cell=1.0,
                           mollify=0.1)
        U = grid_potential(DIRAC_2D, field, (-3.0, 3.0), 0.1)
        digest = hashlib.sha256(b"".join(ax.tobytes() for ax in U.axes)
                                + U.values.tobytes())
        assert digest.hexdigest() == (
            "20e6152dcd58e2cb22d942d60f8b09ed155d6257edc51fe4018dda68f984b311")
        k = kn.solve_kernel_pde(field, [0.0, 0.0], (-3.0, 3.0), 0.1,
                                times=[0.1, 0.4], dt=2e-3)
        digest = hashlib.sha256(k.times.tobytes() + k.values.tobytes())
        assert digest.hexdigest() == (
            "bae8b21cd3a5d817ef51c913779dc94d177b3913e1db0f36f78ebc72d273cce1")

    def test_preconditions(self):
        with pytest.raises(ValueError, match="outside"):
            grid_potential(sampling.dirac([9.0]))
        with pytest.raises(ValueError, match="outside"):
            grid_potential(DENSITY1, box=(-1.0, 1.0))
        with pytest.raises(Error, match="does not resolve the field's"):
            grid_potential(sampling.dirac([0.0]),
                           make_field("checkerboard", dim=1, lo=0.5, hi=2.0),
                           h=0.8)


class TestMonteCarloEuler:
    """The monte-carlo route on non-constant fields: X_T by one Euler
    sweep whose draws all come from the route's own stream."""

    @staticmethod
    def _mollified_checkerboard():
        return make_field("checkerboard", lo=0.5, hi=2.0, cell=1.0,
                          mollify=0.1)

    @staticmethod
    def _mc(field, seed=4):
        return kn.resolvent_potential(
            "monte-carlo", sampling.dirac(np.zeros(1)), field=field,
            n_samples=100_000, seed=seed, step=2.0 ** -3, t_cap=2.0)

    def test_one_stream_in_its_own_namespace(self, monkeypatch):
        calls = []
        real = sampling.path_rng

        def counting(seed, path_id, attempt=0):
            calls.append((seed, path_id, attempt))
            return real(seed, path_id, attempt)

        monkeypatch.setattr(sampling, "path_rng", counting)
        self._mc(self._mollified_checkerboard(), seed=4)
        assert calls == [(4, 0, 1_000_003)]

    def test_refuses_rough_field(self):
        rough = make_field("checkerboard", lo=0.5, hi=2.0, cell=1.0)
        with pytest.raises(Error, match="needs a smooth or mollified field"):
            self._mc(rough)

    def test_table_bytes(self):
        # SHA-256 of the tabulated potential, taken when the mollified
        # checkerboard's quadrature gave way to its closed form
        U = self._mc(self._mollified_checkerboard(), seed=4)
        digest = hashlib.sha256(U.axes[0].tobytes() + U.values.tobytes())
        assert digest.hexdigest() == (
            "bd540e9022f1b69fc5d5dcc3802710dc175693f4211173541ddf74b085697d89")

    def test_deterministic(self):
        a = self._mc(self._mollified_checkerboard(), seed=9)
        b = self._mc(self._mollified_checkerboard(), seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_each_sample_takes_its_step_count(self):
        # constant a = 0.5 behind a mollifier takes the Euler route with
        # zero drift, so X_T after m steps has variance 2 a m step exactly
        a, step, n = 0.5, 2.0 ** -4, 100_000
        field = make_field("constant-diagonal", values=[a], mollify=0.1)
        x = kn._terminal_states(field, DIRAC_1D, n, 4.0, step,
                                sampling.path_rng(1, 1))[:, 0]
        # T is the stream's first n draws, and the states come in step
        # order, most steps first
        T = np.minimum(sampling.path_rng(1, 1).exponential(size=n), 4.0)
        m = -np.sort(-np.maximum(1, np.round(T / step).astype(np.int64)))
        checked = 0
        for k in np.unique(m):
            xs = x[m == k]
            if xs.shape[0] < 1000:
                continue
            want = 2.0 * a * k * step
            se = want * np.sqrt(2.0 / (xs.shape[0] - 1))
            assert abs(xs.var(ddof=1) - want) < 5.0 * se, k
            checked += 1
        assert checked >= 20

    def test_row_blocks_do_not_change_states(self, monkeypatch):
        field = make_field("checkerboard", dim=2, lo=0.5, hi=2.0, cell=1.0,
                           mollify=0.1)
        n, step = 500, 2.0 ** -4
        runs = []
        for block in (7, n + 1):
            monkeypatch.setattr(kn, "EULER_ROW_BLOCK", block)
            runs.append(kn._terminal_states(field, DIRAC_2D, n, 4.0, step,
                                            sampling.path_rng(3, 1)))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_matches_closed_form(self):
        # U = (1 - a Laplacian)^-1 delta_0 = exp(-|x|/sqrt a) / (2 sqrt a)
        a = 0.5
        field = make_field("constant-diagonal", values=[a], mollify=0.1)
        U = kn.resolvent_potential("monte-carlo", sampling.dirac(np.zeros(1)),
                                   field=field, n_samples=200_000, seed=2,
                                   step=2.0 ** -6, t_cap=16.0)
        r = np.linspace(0.25, 1.5, 126)
        xs = np.concatenate([-r[::-1], r])[:, None]
        exact = np.exp(-np.abs(xs[:, 0]) / np.sqrt(a)) / (2.0 * np.sqrt(a))
        assert np.max(np.abs(U(xs) - exact) / exact) < 0.07


@st.composite
def sample_columns(draw):
    """(n, d) samples, n from 1, d in {1, 2}, rich in ties and in +-0."""
    n, d = draw(st.integers(1, 40)), draw(st.sampled_from([1, 2]))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.0]),
                      st.floats(-1e6, 1e6, allow_nan=False))
    return np.array(draw(st.lists(value, min_size=n * d, max_size=n * d)),
                    dtype=float).reshape(n, d)


# a 1-d mollified checkerboard config whose one sweep needs the
# monte-carlo potential
TINY_MC_RUN = {
    "field": {"name": "checkerboard", "lo": 0.5, "hi": 2.0, "cell": 1.0,
              "mollify": 0.1},
    "function": {"name": "quadratic", "dim": 1},
    "law": {"kind": "dirac", "point": [0.0]},
    "horizon": 1.0, "orders": [2, 3], "n_paths": 8, "seed": 1,
    "sweeps": ["potential"], "box": [-25.0, 25.0],
    "potential": {"route": "monte-carlo", "n_samples": 100_000,
                  "step": 0.125, "t_cap": 2.0},
}


def kde_edges(samples, dim):
    """The bin edges the KDE route builds for unclipped samples."""
    bw = kn.KDE_BANDWIDTH[dim]
    bin_h = bw / 10.0 if dim == 1 else bw / 5.0
    lo = samples.min(axis=0) - 5.0 * bw
    hi = samples.max(axis=0) + 5.0 * bw
    return [np.arange(a, b + bin_h, bin_h) for a, b in zip(lo, hi)]


@st.composite
def kde_samples(draw):
    """(n, d) samples in [-3, 3], which the KDE route does not clip, with
    rows at -1 and 1 and, after them, rows exactly on interior bin edges
    of the grid the route builds."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(0, 40))
    base = np.concatenate([
        np.full((1, d), -1.0), np.full((1, d), 1.0),
        draw(hnp.arrays(float, (n, d), elements=st.floats(-3.0, 3.0)))])
    # every edge in [-1, 1] lies inside the samples' range, so rows on
    # them leave the edges as they are
    on_edge = [e[(e >= -1.0) & (e <= 1.0)] for e in kde_edges(base, d)]
    k = draw(st.integers(1, 8))
    rows = np.array([[draw(st.sampled_from(list(e))) for e in on_edge]
                     for _ in range(k)])
    return np.concatenate([base, rows])


class TestKdeBinning:
    @settings(max_examples=40, deadline=None)
    @given(kde_samples())
    def test_table_equals_histogramdd_reference(self, samples):
        d = samples.shape[1]
        bw = kn.KDE_BANDWIDTH[d]
        got = kn._kde_field(samples.copy(), bw, d, {})
        want = kde_field(samples, bw, d, {})
        assert got.values.tobytes() == want.values.tobytes()
        assert [a.tobytes() for a in got.axes] == [
            a.tobytes() for a in want.axes]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bin_index_follows_histogramdd(self, data):
        # samples on every edge, the last one included, and beyond both
        # ends, where histogramdd drops them
        d = data.draw(st.sampled_from([1, 2]))
        edges = [np.sort(data.draw(hnp.arrays(
            float, data.draw(st.integers(2, 12)), unique=True,
            elements=st.floats(-5.0, 5.0)))) for _ in range(d)]
        value = [st.one_of(st.sampled_from(list(e)), st.floats(-6.0, 6.0))
                 for e in edges]
        samples = np.array(data.draw(st.lists(
            st.tuples(*value), min_size=1, max_size=30)))
        samples = np.concatenate([samples, [[e[-1] for e in edges]]])
        padded = [e.shape[0] + 1 for e in edges]
        counts = np.bincount(kn._bin_index(samples, edges),
                             minlength=int(np.prod(padded)))
        core = counts.reshape(padded)[(slice(1, -1),) * d]
        assert core.astype(float).tobytes() == (
            np.histogramdd(samples, edges)[0].tobytes())


class TestKdeCentre:
    @settings(max_examples=200, deadline=None)
    @given(sample_columns())
    @example(np.array([[-0.0]]))
    @example(np.array([[0.0, -0.0], [-0.0, 0.0]]))
    @example(np.array([[1.5], [-0.0], [0.0], [1.5]]))
    def test_equals_numpy_median(self, samples):
        assert kn._median(samples).tobytes() == (
            np.median(samples, axis=0).tobytes())

    def test_run_leaves_numpy_ma_unimported(self, run_python, tmp_path):
        code = ("import json, sys\n"
                "from roughdiff import runner\n"
                "runner.run_scenario(json.loads(sys.argv[1]),"
                " out_dir=sys.argv[2])\n"
                "print('numpy.ma' in sys.modules)\n")
        res = run_python("-c", code, json.dumps(TINY_MC_RUN),
                         str(tmp_path / "out"), cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split()[-1] == "False"


def test_mollified_run_leaves_numpy_polynomial_unimported(run_python,
                                                          tmp_path):
    """The mollified field is a closed form, so a run on one does not
    import numpy.polynomial, which would add about 4 ms to each run."""
    code = ("import json, sys\n"
            "from roughdiff import runner\n"
            "runner.run_scenario(json.loads(sys.argv[1]),"
            " out_dir=sys.argv[2])\n"
            "print('numpy.polynomial' in sys.modules)\n")
    res = run_python("-c", code, json.dumps(TINY_MC_RUN),
                     str(tmp_path / "out"), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[-1] == "False"


@st.composite
def tabulated_queries(draw, dim, dyadic=False):
    """A tabulated potential on random uniform axes, and query axes that
    hold nodes, the last node and coordinates off the table.  On dyadic
    axes (first node and step multiples of 1/16) every node sits at an
    exact fraction of its cell."""
    axes, qaxes = [], []
    for _ in range(dim):
        n = draw(st.integers(2, 9))
        if dyadic:
            lo = draw(st.integers(-80, 80)) / 16.0
            h = draw(st.integers(1, 32)) / 16.0
        else:
            lo, h = draw(st.floats(-5.0, 5.0)), draw(st.floats(0.05, 2.0))
        ax = lo + h * np.arange(n)
        node = st.sampled_from(list(ax))
        near = st.floats(ax[0] - 2.0 * h, ax[-1] + 2.0 * h)
        axes.append(ax)
        qaxes.append(np.array(draw(st.lists(st.one_of(node, near),
                                            max_size=8))
                              + [ax[-1], ax[0] - h, ax[-1] + h]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    values = np.random.default_rng(seed).uniform(
        -0.5, 2.0, tuple(ax.shape[0] for ax in axes))
    return kn.PotentialField(route="grid", dim=dim, axes=axes,
                             values=values), qaxes


def meshgrid_points(qaxes):
    """The points (..., d) of the tensor grid of the query axes."""
    return np.stack(np.meshgrid(*qaxes, indexing="ij"), axis=-1)


class TestTensorGrid:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3]).flatmap(tabulated_queries))
    def test_grid_equals_pointwise(self, case):
        U, qaxes = case
        got, pts = U.grid(qaxes), meshgrid_points(qaxes)
        assert_bits(got, U(pts))
        lo, hi = (np.array([ax[end] for ax in U.axes]) for end in (0, -1))
        off = np.any((pts < lo) | (pts > hi), axis=-1)
        assert off.any() and np.all(got[off] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3]).flatmap(
        lambda dim: tabulated_queries(dim, dyadic=True)))
    def test_nodes_read_exactly(self, case):
        U, _ = case
        assert_bits(U.grid(U.axes), U.values)
        assert_bits(U(meshgrid_points(U.axes)), U.values)

    @settings(max_examples=60, deadline=None)
    @given(tabulated_queries(2))
    def test_2d_read_is_bilinear(self, case):
        U, qaxes = case
        pts = meshgrid_points(qaxes)
        assert_bits(U(pts), bilinear(U.axes, U.values, pts))
        assert_bits(U.grid(qaxes), bilinear_grid(U.axes, U.values, qaxes))

    def test_3d_grid_potential_reads_its_nodes(self):
        U = kn.resolvent_potential(
            "grid", sampling.dirac(np.zeros(3)),
            field=make_field("identity", dim=3), box=(-3.0, 3.0), h=0.5)
        assert U.values.shape == (13, 13, 13)
        assert_bits(U(meshgrid_points(U.axes)), U.values)
        assert_bits(U.grid(U.axes), U.values)

    def test_closed_form_grid(self, closed_potential):
        q = np.linspace(-3.0, 3.0, 61)
        assert np.array_equal(closed_potential.grid([q]),
                              closed_potential(q[:, None]))


def nested_trapezoid(axes, values):
    """The trapezoid integral of a whole table, one np.trapezoid per axis
    from the last."""
    for ax in reversed(axes):
        values = np.trapezoid(values, ax, axis=-1)
    return float(values)


class TestLqNorm:
    def test_l2_closed_form(self):
        # e^(-|x - x0| / s) / (2 s), s = sqrt(a): mass 1 and L^2 1 / (4 s)
        a, x0 = 2.5, 0.7
        U = kn.resolvent_potential(
            "closed-form", sampling.dirac([x0]),
            field=make_field("constant-diagonal", values=[a]))
        u = lambda x: float(U(np.array([x])))
        for power, got in ((1, U.integral()), (2, kn.potential_Lq_norm(U))):
            # split at the kink, x0
            want = sum(integrate.quad(lambda x: u(x) ** power, lo, hi,
                                      epsabs=0.0, epsrel=1e-12)[0]
                       for lo, hi in ((-np.inf, x0), (x0, np.inf)))
            assert abs(got - want) <= 1e-10 * want
        assert kn.potential_Lq_norm(U) == 0.25 / np.sqrt(a)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3]).flatmap(tabulated_queries))
    def test_table_l2_is_the_whole_table(self, case):
        # the table's own nodes, values of either sign, in blocks of 1, 2
        # and 3 rows or all at once
        U, _ = case
        want = nested_trapezoid(U.axes, np.maximum(U.values, 0.0) ** 2)
        for block in (1, 2, 3, U.values.shape[0]):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kn, "LQ_ROW_BLOCK", block)
                assert kn.potential_Lq_norm(U) == want

    def test_2d_row_blocks_do_not_change_value(self, monkeypatch, kde_2d):
        # 7 does not divide the rows; one more than them is one block
        values = []
        for block in (7, kde_2d.values.shape[0] + 1):
            monkeypatch.setattr(kn, "LQ_ROW_BLOCK", block)
            values.append(kn.potential_Lq_norm(kde_2d))
        assert values[0] == values[1] > 0.0

    def test_3d_grid_potential(self):
        U = grid_potential(sampling.dirac(np.zeros(3)),
                           make_field("identity", dim=3), (-3.0, 3.0), 0.5)
        assert abs(U.integral() - 1.0) <= 1e-12
        assert 0.0 < kn.potential_Lq_norm(U) < np.inf
