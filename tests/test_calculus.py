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
from roughdiff.errors import ConditionViolated, Error
from roughdiff import testfunctions
from roughdiff.fields import make_field
from roughdiff.testfunctions import make_test_function

from reference import joined


def em_paths(count, fine_step, seed, stride, horizon=1.0, dim=1):
    """States (count, T, dim) of identity-field EM paths from the origin,
    path ids 0..count-1, recorded every ``stride`` fine steps."""
    field = make_field("identity", dim=dim)
    law = sampling.dirac(np.zeros(dim))
    return joined(sampling.generate_batch(
        "euler-maruyama", field, law, horizon, fine_step, seed,
        list(range(count)), stride=stride))


def grid_record(states, F):
    """The record of a GridPass fed a whole grid's states (B, 2^n + 1, d)
    at once."""
    p = calc.GridPass(F, states.shape[0], states.shape[-1])
    p.feed(states)
    return p.record()


def row_values(sweep, F, states, denoms=None):
    """The engine's per-path values of one sweep row on raw states
    (B, 2^n + 1, d); returns ({functional: values}, trapezoid gap)."""
    got, gap = runner.sweep_values([runner.SWEEP_TABLE[sweep]],
                                   grid_record(states, F), denoms or {})
    return {functional: v for (_, functional), v in got.items()}, gap


def pointwise(states, values, grads):
    """A test function that is pointwise over leading axes and an
    arbitrary map of the states: it takes each state, by its bytes, to its
    entry of ``values`` (B, T) and ``grads`` (B, T, d), the last one drawn
    at a repeated state."""
    d = states.shape[-1]
    table = {p.tobytes(): (v, g) for p, v, g in zip(
        states.reshape(-1, d), values.ravel(), grads.reshape(-1, d))}

    def look(x, i):
        x = np.asarray(x, dtype=float)
        got = [table[p.tobytes()][i] for p in x.reshape(-1, d)]
        return np.array(got).reshape(x.shape[:-1] + np.shape(got[0]))

    return testfunctions.TestFunction(
        name="pointwise", dim=d, value=lambda x: look(x, 0),
        gradient=lambda x: look(x, 1), hessian=None)


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
        # a 1-d sum and a one-row batch run the same compensated loop
        with np.errstate(over="ignore", invalid="ignore"):
            one = calc.kahan_sum(v)
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
        with pytest.raises(Error, match=r"must hold 2\^n \+ 1 dyadic samples"):
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
        with pytest.raises(Error, match="sample lengths differ: 5 vs 9"):
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
        F = pointwise(x, x[..., 0], g)
        got, gap = row_values("trapezoid", F, x)
        assert gap <= runner.TRAPEZOID_TOL
        np.testing.assert_array_equal(got["trapezoid"],
                                      calc.trapezoid_sum(F.gradient(x), x))

    def test_shape_mismatch(self):
        with pytest.raises(Error, match=r"shape mismatch: \(5, 1\) vs"):
            calc.forward_sum(np.zeros((5, 1)), np.zeros((5, 2)))


@st.composite
def grid_batches(draw):
    """(states, F) of 1-4 paths on D_n, n in [0, 10], d in {1, 2, 3}, F
    pointwise: states, values and gradients over twenty orders of
    magnitude, with some signed zeros, from a drawn seed."""
    n = draw(st.integers(0, 10))
    d = draw(st.sampled_from([1, 2, 3]))
    b = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def sample(*shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-10, 10, shape)
        a[rng.random(shape) < 0.05] = -0.0
        return a

    states = np.cumsum(sample(b, 2 ** n + 1, d), axis=1)
    return states, pointwise(states, sample(b, 2 ** n + 1),
                             sample(b, 2 ** n + 1, d))


def same_bytes(a, b):
    """Equal shapes and bytes: == that also tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def lone_references(states, values, grads):
    """Every GridPass term from the lone functionals."""
    covs = [calc.covariation(grads[..., k], states[..., k])
            for k in range(states.shape[-1])]
    dx = np.diff(states, axis=-2)
    rem = values[:, 1:] - values[:, :-1] - (grads[:, :-1] * dx).sum(axis=-1)
    return {"qv": calc.quadratic_variation(values),
            "cov": [c.value for c in covs],
            "cov_abs": [c.abs_value for c in covs],
            "fwd": calc.forward_sum(grads, states),
            "trap": calc.trapezoid_sum(grads, states),
            "taylor": calc.kahan_sum(np.abs(rem))}


class TestOnePass:
    """A GridPass fed a whole grid and the engine's sweep rows against the
    lone references, bit for bit, at every block size."""

    @PROPERTY
    @given(grid_batches())
    def test_pass_matches_lone_references(self, batch):
        states, F = batch
        ref = lone_references(states, F.value(states), F.gradient(states))
        rows = list(runner.SWEEP_TABLE.values())
        denoms = dict.fromkeys(
            ["prop1", "prop3"] + [f"prop2_k{k}"
                                  for k in range(states.shape[-1])], 1.0)
        ends = F.value(states[:, [0, -1]]).T
        for block in (1, 3, 64, 1024):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(calc, "_BLOCK_ROWS", block)
                sums = grid_record(states, F)
            got, _ = runner.sweep_values(rows, sums, denoms)
            assert set(sums) == set(ref) | {"v", "finite"}
            for term, want in ref.items():
                assert same_bytes(sums[term], want), (term, block)
            assert same_bytes(sums["v"], ends), block
            assert sums["finite"].all()
            assert same_bytes(got[("qv", "qv")], ref["qv"])
            assert same_bytes(got[("forward", "forward")], ref["fwd"])
            assert same_bytes(got[("trapezoid", "trapezoid")], ref["trap"])
            assert same_bytes(got[("prop3", "prop3_ratio")], ref["taylor"])
            for k, abs_k in enumerate(ref["cov_abs"]):
                assert same_bytes(got[("prop2", f"prop2_ratio_k{k}")],
                                  abs_k)

    def test_one_compensated_loop_per_grid(self, monkeypatch):
        loops, calls, passes = [], {"in": 0, "out": 0}, []
        kahan_rows, feed = calc._kahan_rows, calc.GridPass.feed

        def counted(blocks, s, c):
            loops.append(s.shape)
            return kahan_rows(blocks, s, c)

        def in_pass(*args):
            passes.append(True)
            try:
                return feed(*args)
            finally:
                passes.pop()

        monkeypatch.setattr(calc, "_kahan_rows", counted)
        monkeypatch.setattr(calc.GridPass, "feed", in_pass)
        monkeypatch.setattr(runner, "BATCH_PATHS", 16)
        scn = runner.load_scenario(dict(SIN_CONFIG, n_paths=40,
                                        sweeps=list(runner.PATH_SWEEPS)))
        value = scn.F.value

        def counted_value(x):
            calls["in" if passes else "out"] += 1
            return value(x)

        scn = dataclasses.replace(
            scn, F=dataclasses.replace(scn.F, value=counted_value))
        runner.evaluate_chunk(scn, 0, 40)
        # three batches of one time block each, fed to one pass per
        # order, and F once per pass block of each grid, all inside the
        # pass
        assert len(loops) == 3 * len(scn.orders)
        blocks = sum(-(-2 ** n // calc._BLOCK_ROWS) for n in scn.orders)
        assert calls == {"in": 3 * blocks, "out": 0}


class TestFedPass:
    """A GridPass fed a grid's states in blocks, of any sizes and empty
    ones included, gives the record of one feed bit for bit, and the
    runner's time blocks move no byte of a chunk's records."""

    @PROPERTY
    @given(grid_batches(), st.data())
    def test_random_splits_match_one_shot(self, batch, data):
        states, F = batch
        t = states.shape[1]
        cuts = sorted(data.draw(st.lists(st.integers(0, t), max_size=8)))
        fed = calc.GridPass(F, states.shape[0], states.shape[-1])
        for a, b in zip([0, *cuts], [*cuts, t]):
            fed.feed(states[:, a:b])
        got, want = fed.record(), grid_record(states, F)
        assert set(got) == set(want)
        for key, value in want.items():
            assert same_bytes(got[key], value), key

    def test_sums_that_overflow_are_not_finite(self):
        # F and g are finite at every state, but dF^2 overflows
        F = make_test_function("linear", c=[1e200])
        states = np.array([[[0.0], [1.0], [2.0]], [[0.0], [0.0], [0.0]]])
        sums = grid_record(states, F)
        assert sums["finite"].tolist() == [False, True]

    @settings(max_examples=12, deadline=None)
    @given(case=st.sampled_from(["constant", "stepped", "lattice"]),
           rows=st.integers(1, 40))
    def test_time_blocks_move_no_record(self, case, rows):
        # orders 1 and 3 take every 64th and 16th row of the top grid, so
        # most blocks hold none or one of their states
        cfg = {**SIN_CONFIG, "orders": [1, 3, 7], "n_paths": 5,
               "sweeps": ["qv"], **{
                   "stepped": {"field": {"name": "smooth-sine", "dim": 1}},
                   "lattice": {"scheme": "lattice", "fine_margin": 5,
                               "scheme_params": {"h": 0.25}},
               }.get(case, {})}
        scn = runner.load_scenario(cfg)
        want = runner.evaluate_chunk(scn, 0, 5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "BLOCK_BYTES", rows * 5 * 8)
            got = runner.evaluate_chunk(scn, 0, 5)
        for n, record in want.items():
            for key, value in record.items():
                assert same_bytes(got[n][key], value), (n, key)


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
        with pytest.raises(Error, match=r"must hold 2\^n \+ 1 dyadic samples"):
            row_values("ito_residual", F, np.zeros((1, 6, 1)))

    def test_nonfinite_gradient_raises(self, tmp_path):
        def grad(x):
            t = np.asarray(x)[..., 0]
            return np.where(t == 0.0, np.inf, 1.0 / np.where(t == 0, 1, t)
                            )[..., None]

        F = testfunctions.TestFunction(
            name="logabs", dim=1,
            value=lambda x: np.log(np.abs(np.asarray(x)[..., 0]) + 1e-300),
            gradient=grad,
            hessian=lambda x: -grad(x)[..., None] ** 2)
        # every path starts at 0, where the gradient is infinite
        scn = runner.load_scenario(
            dict(SIN_CONFIG, sweeps=["ito_residual"], orders=[2],
                 n_paths=1), out_dir=str(tmp_path))
        scn = dataclasses.replace(scn, F=F)
        with pytest.raises(Error, match="path 0: logabs"):
            runner.evaluate_chunk(scn, 0, 1)

    def test_nonfinite_state_named_over_every_order(self, monkeypatch):
        # path 1's gradient is infinite only at fine index 1, which order
        # 1 skips; path 2's at t = 0, which every order holds; the error
        # names path 1, the first path over all recorded states
        scn = runner.load_scenario(dict(
            SIN_CONFIG, law={"kind": "grid-density", "edges": [-1.0, 1.0],
                             "values": [1.0]},
            sweeps=["qv"], orders=[1, 2], n_paths=3))
        drawn, generate = [], sampling.generate_batch
        monkeypatch.setattr(sampling, "generate_batch",
                            lambda *a, **kw: drawn.append(
                                joined(generate(*a, **kw))) or drawn[-1:])
        runner.evaluate_chunk(scn, 0, 3)
        bad = {drawn[0][1, 1].tobytes(), drawn[0][2, 0].tobytes()}

        def grad(x):
            x = np.asarray(x, dtype=float)
            hit = [p.tobytes() in bad for p in x.reshape(-1, 1)]
            return np.where(np.reshape(hit, x.shape), np.inf, np.cos(x))

        F = dataclasses.replace(scn.F, gradient=grad)
        with pytest.raises(Error, match="path 1: sin1d"):
            runner.evaluate_chunk(dataclasses.replace(scn, F=F), 0, 3)


class TestReports:
    def test_mean_stderr(self):
        m, se = calc.mean_stderr([1.0, 2.0, 3.0, 4.0])
        assert m == 2.5
        np.testing.assert_allclose(
            se, np.std([1, 2, 3, 4], ddof=1) / 2.0, rtol=1e-12)
        m1, se1 = calc.mean_stderr([5.0])
        assert (m1, se1) == (5.0, 0.0)

    @PROPERTY
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4),
                                            st.integers(1, 40)),
                      elements=st.floats(-1e6, 1e6)))
    def test_stacked_rows_match_lone_samples(self, v):
        means, ses = calc.mean_stderr(v)
        for row, m, se in zip(v, means, ses):
            assert same_bytes([m, se], calc.mean_stderr(row))


def stacked_reports(scn, chunks, denoms):
    """{(functional, n): (mean, stderr)} by calculus.mean_stderr of the
    stacked (functionals, paths) table of the joined chunks."""
    table = [row for s, row in runner.SWEEP_TABLE.items() if s in scn.sweeps]
    keys, values = [], []
    for n in scn.orders:
        record = {k: np.concatenate([c[n][k] for c in chunks], axis=-1)
                  for k in chunks[0][n]}
        got, _ = runner.sweep_values(table, record, denoms)
        keys += [(f, n) for _, f in got]
        values += got.values()
    means, ses = calc.mean_stderr(np.stack(values))
    return {key: (float(m), float(se))
            for key, m, se in zip(keys, means, ses)}


class TestStreamedReduction:
    """The reduction streams the per-path values through two compensated
    passes and gives calculus.mean_stderr of their stacked table, bit for
    bit."""

    @PROPERTY
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40),
                                            st.integers(1, 4)),
                      elements=st.floats(-1e6, 1e6)), st.data())
    def test_blocks_match_the_stacked_table(self, v, data):
        n = v.shape[0]
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
        got = calc.streamed_mean_stderr(
            lambda: (v[a:b] for a, b in zip([0, *cuts], [*cuts, n])), n)
        assert same_bytes(got, calc.mean_stderr(v.T))

    @pytest.mark.parametrize("spans", [[(0, 1)], [(0, 2)], [(0, 1), (1, 2)],
                                       [(0, 4), (4, 5), (5, 11)]])
    def test_reports_match_mean_stderr(self, spans, monkeypatch):
        # three paths per block, so blocks split the chunks unevenly
        monkeypatch.setattr(runner, "BATCH_PATHS", 3)
        scn = runner.load_scenario(dict(
            SIN_CONFIG, n_paths=spans[-1][1], orders=[2, 4],
            sweeps=list(runner.PATH_SWEEPS), allow_unverified=True))
        denoms = {"prop1": 0.6, "prop2_k0": 0.625, "prop3": 1.5}
        chunks = [runner.evaluate_chunk(scn, a, b) for a, b in spans]
        want = stacked_reports(scn, chunks, denoms)
        out = runner._path_sweep_reports(scn, chunks, denoms)
        got = {(f, n): (m, se) for rows, _, _ in out.values()
               for f, n, m, se, count in rows}
        assert got == want
        assert all(same_bytes(got[k], want[k]) for k in want)


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
