"""Dyadic functionals: algebraic identities, oracles, and the engine's
sweep rows on raw arrays and on simulated paths."""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from roughdiff import calculus as calc
from roughdiff import runner, sampling
from roughdiff.errors import (
    ConditionViolated,
    LengthMismatch,
    NoHessian,
    SingularHit,
)
from roughdiff import testfunctions
from roughdiff.fields import make_field
from roughdiff.testfunctions import make_test_function


def em_paths(count, fine_step, seed, stride, horizon=1.0, dim=1):
    """States (count, T, dim) of identity-field EM paths from the origin,
    path ids 0..count-1, recorded every ``stride`` fine steps."""
    field = make_field("identity", dim=dim)
    law = sampling.dirac(np.zeros(dim))
    return sampling.generate_batch("euler-maruyama", field, law, horizon,
                                   fine_step, seed, list(range(count)),
                                   stride=stride)


def row_values(sweep, F, states, denoms=None):
    """The engine's per-path values of one sweep row on raw states
    (B, 2^n + 1, d); returns ({functional: values}, trapezoid gap)."""
    got, gap = runner.grid_values([runner.SWEEP_TABLE[sweep]], states,
                                  F.value(states), F.gradient(states),
                                  denoms or {})
    return {functional: v for (_, functional), v in got.items()}, gap


# dyadic samples: order n in [0, 8], d in {1, 2, 3}, a batch axis of 1-4
# paths; |entries| <= 4 keeps worst-case rounding of the 2^n d products
# below the 1e-10 trapezoid tolerance
ENTRIES = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def dyadic_arrays(draw, count=1, dims=(1, 2, 3)):
    n = draw(st.integers(0, 8))
    d = draw(st.sampled_from(dims))
    shape = (draw(st.integers(1, 4)), 2 ** n + 1, d)
    return [draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
            for _ in range(count)]


class TestKahanSum:
    def test_compensation_beats_naive_accumulation(self):
        # many tiny terms after a big one: plain left-to-right float adds
        # drop them, the compensated sum keeps every bit
        terms = [1.0] + [1e-16] * 10 ** 5
        exact = math.fsum(terms)
        assert calc.kahan_sum(terms) == exact
        assert float(np.sum(np.asarray(terms))) != exact

    def test_batch_axes(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4, 5))
        got = calc.kahan_sum(a.T)
        np.testing.assert_allclose(got, a.sum(axis=0).T, rtol=1e-12)
        assert got.shape == (5, 4)

    def test_scalar_output_is_float(self):
        out = calc.kahan_sum([1.0, 2.0, 3.0])
        assert isinstance(out, float)
        assert out == 6.0

    @PROPERTY
    @given(hnp.arrays(np.float64, st.integers(0, 300),
                      elements=st.floats(allow_nan=False,
                                         allow_infinity=False)))
    def test_one_dim_loop_matches_batch_loop(self, v):
        # 1-d input runs in Python floats, batched input in float64 arrays
        one = calc.kahan_sum(v)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = calc.kahan_sum(v[None, :])[0]
        assert np.float64(one).tobytes() == batch.tobytes()


class TestQuadraticVariation:
    def test_frozen_value(self):
        assert calc.quadratic_variation([0.0, 1.0, 3.0, 2.0, 5.0]) == 15.0

    def test_batch(self):
        vals = np.array([[0.0, 1.0, 3.0, 2.0, 5.0],
                         [0.0, 0.0, 0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(calc.quadratic_variation(vals),
                                      [15.0, 1.0])

    @pytest.mark.parametrize("length", [1, 4, 6, 12])
    def test_rejects_non_dyadic_lengths(self, length):
        with pytest.raises(LengthMismatch):
            calc.quadratic_variation(np.zeros(length))

    def test_two_points_are_a_valid_order_zero_grid(self):
        assert calc.quadratic_variation([1.0, 4.0]) == 9.0


class TestCovariation:
    @PROPERTY
    @given(dyadic_arrays(dims=(1,)))
    def test_self_covariation_is_qv(self, arrays):
        x = arrays[0][..., 0]
        res = calc.covariation(x, x)
        np.testing.assert_array_equal(res.value, calc.quadratic_variation(x))
        np.testing.assert_array_equal(res.abs_value, res.value)

    def test_frozen_signed_and_absolute(self):
        f = [0.0, 1.0, -1.0, 2.0, 0.0]
        x = [1.0, 2.0, 0.0, 1.0, 3.0]
        res = calc.covariation(f, x)
        assert res.value == 4.0
        assert res.abs_value == 12.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            calc.covariation(np.zeros(5), np.zeros(9))


class TestForwardAndTrapezoid:
    def test_linear_forward_telescopes(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((17, 2))
        c = np.array([1.5, -0.5])
        g = np.broadcast_to(c, x.shape)
        got = calc.forward_sum(g, x)
        np.testing.assert_allclose(got, c @ (x[-1] - x[0]), rtol=1e-12,
                                   atol=1e-14)

    @PROPERTY
    @given(dyadic_arrays(count=2))
    def test_trapezoid_equals_forward_plus_half_covariation(self, arrays):
        # pure algebra, for arbitrary g and x samples; the engine's gap is
        # |trap - fwd - half covariation| / max(1, |trap|)
        g, x = arrays
        got, gap = runner.grid_values([runner.SWEEP_TABLE["trapezoid"]], x,
                                      x[..., 0], g, {})
        assert gap <= runner.TRAPEZOID_TOL
        np.testing.assert_array_equal(got[("trapezoid", "trapezoid")],
                                      calc.trapezoid_sum(g, x))

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            calc.forward_sum(np.zeros((5, 1)), np.zeros((5, 2)))


def qv_root(v):
    """Square root of the QV of v along the last axis.  The QV is taken on
    v times the power of two that lifts its largest increment to [1, 2),
    which is exact and keeps tiny squared increments from underflowing;
    the root is scaled back."""
    top = np.abs(np.diff(v, axis=-1)).max(axis=-1)
    e = np.minimum(np.frexp(top)[1] - 1, 0)
    lifted = np.ldexp(v, -e[..., None])
    return np.ldexp(np.sqrt(calc.quadratic_variation(lifted)), e)


class TestCauchySchwarz:
    @PROPERTY
    @given(dyadic_arrays(count=2, dims=(1,)))
    # a QV product and a single QV that underflow in plain arithmetic
    @example([np.array([[[0.0], [5.6e-149]]]),
              np.array([[[0.0], [5.6e-149]]])])
    @example([np.array([[[0.0], [1.0]]]),
              np.array([[[0.0], [1.26868265e-251]]])])
    def test_absolute_covariation_bound(self, arrays):
        f, x = (a[..., 0] for a in arrays)
        res = calc.covariation(f, x)
        bound = qv_root(f) * qv_root(x)
        # the absolute slack covers products that underflow
        assert np.all(res.abs_value <= bound * (1.0 + 1e-12) + 1e-300)
        assert np.all(np.abs(res.value) <= res.abs_value * (1.0 + 1e-12))


class TestItoResidual:
    """R_n on the engine's residual row, over raw arrays."""

    def test_linear_residual_vanishes(self):
        rng = np.random.default_rng(5)
        states = rng.standard_normal((6, 17, 2))
        F = make_test_function("linear", c=[2.0, -1.0])
        got, _ = row_values("ito_residual", F, states)
        np.testing.assert_allclose(got["ito_residual_abs"], 0.0, atol=1e-13)

    def test_quadratic_residual_vanishes(self):
        # second-order expansion of x^2 is exact, so the residual is
        # pure roundoff whatever the path does
        rng = np.random.default_rng(9)
        states = np.cumsum(rng.standard_normal((100, 129, 1)), axis=1)
        F = make_test_function("quadratic", dim=1)
        got, _ = row_values("ito_residual", F, states)
        assert got["ito_residual_abs"].shape == (100,)
        np.testing.assert_allclose(got["ito_residual_abs"], 0.0, atol=1e-10)

    @PROPERTY
    @given(dyadic_arrays(), st.sampled_from(["linear", "quadratic"]),
           st.lists(ENTRIES, min_size=3, max_size=3))
    def test_residual_vanishes_for_any_path(self, arrays, name, c):
        states = arrays[0]
        d = states.shape[-1]
        F = make_test_function(name, **({"c": c[:d]} if name == "linear"
                                        else {"dim": d}))
        got, _ = row_values("ito_residual", F, states)
        # rounding budget of the 2^n d first- and second-order terms
        terms = (states.shape[-2] - 1) * d
        tol = 1e-13 * terms * (1.0 + np.abs(states).max()) ** 2
        assert np.all(got["ito_residual_abs"] <= tol)

    def test_non_dyadic_length_rejected(self):
        F = make_test_function("sin1d")
        with pytest.raises(LengthMismatch):
            row_values("ito_residual", F, np.zeros((1, 6, 1)))

    def test_nonfinite_gradient_raises(self, tmp_path):
        def grad(x):
            t = np.asarray(x)[..., 0]
            return np.where(t == 0.0, np.inf, 1.0 / np.where(t == 0, 1, t)
                            )[..., None]

        F = testfunctions.TestFunction(
            name="logabs", dim=1, regularity="H1_loc",
            value=lambda x: np.log(np.abs(np.asarray(x)[..., 0]) + 1e-300),
            gradient=grad)
        # every path starts at 0, where the gradient is infinite
        scn = runner.load_scenario(
            dict(SIN_CONFIG, sweeps=["ito_residual"], orders=[2],
                 n_paths=1), out_dir=str(tmp_path))
        scn = dataclasses.replace(scn, F=F)
        with pytest.raises(SingularHit, match="path 0: logabs"):
            runner.evaluate_chunk(scn, 0, 1, {})


class TestReports:
    def test_mean_stderr(self):
        m, se = calc.mean_stderr([1.0, 2.0, 3.0, 4.0])
        assert m == 2.5
        np.testing.assert_allclose(
            se, np.std([1, 2, 3, 4], ddof=1) / 2.0, rtol=1e-12)
        m1, se1 = calc.mean_stderr([5.0])
        assert (m1, se1) == (5.0, 0.0)


# the prop sweeps of sin(X) for a standard start at the origin, d = 1,
# a = Id: 100 paths at fine step 2^-10, the closed-form potential
# U(x) = exp(-|x|) / 2
SIN_CONFIG = {
    "field": {"name": "identity", "dim": 1},
    "function": {"name": "sin1d"},
    "law": {"kind": "dirac", "point": [0.0]},
    "horizon": 1.0,
    "orders": [4, 6, 8],
    "n_paths": 100,
    "fine_margin": 2,
    "seed": 314,
    "sweeps": ["prop1", "prop2", "prop3"],
}


@pytest.fixture(scope="module")
def sin_run(tmp_path_factory):
    return runner.run_scenario(SIN_CONFIG,
                               out_dir=str(tmp_path_factory.mktemp("sin")))


@pytest.fixture(scope="module")
def sin_denoms():
    return runner.gate_scenario(runner.load_scenario(SIN_CONFIG))[1]


def report(manifest, sweep):
    return runner.read_report_csv(
        os.path.join(manifest.out_dir, manifest.reports[sweep]))


class TestBoundChecks:
    def test_prop1_ratio_stable(self, sin_run, sin_denoms):
        # int cos(x)^2 (1/2) e^(-|x|) dx = 3/5
        np.testing.assert_allclose(sin_denoms["prop1"], 0.6, atol=1e-3)
        assert sin_run.verdicts["prop1"] == "PASS"
        rows = report(sin_run, "prop1")
        assert [r[1] for r in rows] == [4, 6, 8]
        assert all(r[2] > 0 for r in rows)
        # the engine's means are those of the same paths drawn directly,
        # recorded like the engine records them: at the finest order 8
        states = em_paths(100, 2.0 ** -10, seed=314, stride=4)
        for _, n, mean, se, count in rows:
            qv = calc.quadratic_variation(
                np.sin(states[:, ::2 ** (8 - n), 0]))
            assert (mean, se) == calc.mean_stderr(qv / sin_denoms["prop1"])
            assert count == 100

    def test_cov_ratio_stable(self, sin_run, sin_denoms):
        # int sin(x)^2 (1/2) e^(-|x|) dx = 2/5
        np.testing.assert_allclose(sin_denoms["prop2_k0"], np.sqrt(0.4),
                                   atol=1e-3)
        assert sin_run.verdicts["prop2"] == "PASS"

    def test_taylor_ratio_stable(self, sin_run, sin_denoms):
        np.testing.assert_allclose(sin_denoms["prop3"], np.sqrt(0.4),
                                   atol=1e-3)
        assert sin_run.verdicts["prop3"] == "PASS"
        assert {r[0] for r in report(sin_run, "prop3")} == {"prop3_ratio"}

    def test_divergent_condition_refuses_to_run(self):
        scn = runner.load_scenario(dict(
            SIN_CONFIG, function={"name": "abs_power", "alpha": 0.4},
            sweeps=["prop3"]))
        with pytest.raises(ConditionViolated, match="condition 2"):
            runner.gate_scenario(scn)

    def test_taylor_requires_hessian(self):
        scn = runner.load_scenario(dict(SIN_CONFIG, sweeps=["prop3"]))
        scn = dataclasses.replace(
            scn, F=dataclasses.replace(scn.F, hessian=None))
        with pytest.raises(NoHessian):
            runner.gate_scenario(scn)
