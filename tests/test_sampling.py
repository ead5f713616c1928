"""The dyadic step budget, initial laws, and the two path samplers."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from roughdiff import fields, sampling
from roughdiff.errors import Error

from reference import em_constant_states, joined
from reference import sample_initial as one_point_draw


def em_path(f, law, horizon, fine_step, seed, path_id):
    """States (T, d) of one Euler-Maruyama path."""
    return joined(sampling.generate_batch("euler-maruyama", f, law, horizon,
                                          fine_step, seed, [path_id]))[0]


def lattice_path(f, law, horizon, fine_step, seed, path_id, h=0.05):
    """States (T, d) of one lattice-walk path."""
    return joined(sampling.generate_batch("lattice", f, law, horizon,
                                          fine_step, seed, [path_id],
                                          scheme_params={"h": h}))[0]


def _walk(field, law, horizon=1.0, fine_step=2.0 ** -12, seed=3,
          path_ids=range(6), stride=16, h=0.125):
    return sampling._lattice_batch_states(
        field, law, horizon, fine_step, seed, list(path_ids), stride=stride,
        h=h)


_CB = {"lo": 0.5, "hi": 2.0}
# lattice walks whose bytes are pinned; each accepts seed and path_ids
WALKS = {
    "1d-checkerboard": lambda **kw: _walk(
        fields.make_field("checkerboard", cell=0.25, **_CB),
        sampling.dirac([0.1]), stride=1, **kw),
    "3d-checkerboard": lambda **kw: _walk(
        fields.make_field("checkerboard", cell=0.5, dim=3, **_CB),
        sampling.dirac([0.1, -0.2, 0.3]), fine_step=2.0 ** -13, stride=32,
        **kw),
    "4d-smooth-sine": lambda **kw: _walk(
        fields.make_field("smooth-sine", dim=4),
        sampling.dirac([0.2, 0.0, 0.0, -0.1]), h=0.25, **kw),
    "2d-grid-density": lambda **kw: _walk(
        fields.make_field("checkerboard", cell=0.5, dim=2, **_CB),
        sampling.grid_density([np.linspace(-1.0, 1.0, 5),
                               np.linspace(-0.5, 0.5, 3)],
                              [[1.0, 2.0], [0.5, 1.0], [3.0, 1.0],
                               [1.0, 0.25]]),
        fine_step=2.0 ** -13, stride=32, **kw),
    "1d-mollified": lambda **kw: _walk(
        fields.make_field("checkerboard", cell=0.25, mollify=0.1, **_CB),
        sampling.dirac([0.0]), **kw),
    # few expected jumps, so the 64-column minimum block is the block and
    # a wide window reads past it
    "horizon-4": lambda **kw: _walk(
        fields.make_field("checkerboard", cell=1.5, **_CB),
        sampling.dirac([0.25]), horizon=4.0, fine_step=2.0 ** -8, h=1.0,
        **kw),
    "signed-zero-start": lambda **kw: _walk(
        fields.make_field("checkerboard", cell=0.5, dim=2, **_CB),
        sampling.dirac([-0.0, 0.3]), fine_step=2.0 ** -13, stride=32, **kw),
    # the Philox key path_rng(seed, pid, attempt=2) reads, above 2^63
    "attempt-2": lambda seed=3, **kw: _walk(
        fields.make_field("checkerboard", cell=0.5, dim=2, **_CB),
        sampling.dirac([0.1, -0.2]), fine_step=2.0 ** -13, stride=32,
        seed=(seed + 2 * sampling._ATTEMPT_STRIDE) % 2 ** 64, **kw),
}
WALK_SHA256 = {
    "1d-checkerboard":
        "e2b2580a8d2be1322913724908f6db4c920a45c2ab55784fbec3980c562a421f",
    "1d-mollified":
        "f9e31d7ccd65ca899848905a8c94a870e7ce6e741aaab55275114857aa4de2c7",
    "2d-grid-density":
        "acc516f31032cdf6a1a94892b8a0ba729d9eba5b542844e6d0f7acc5d8a91144",
    "3d-checkerboard":
        "629b463e07e5f7c702be5068175397294d9aa6998d6f53152bdcfb6b98d47d84",
    "4d-smooth-sine":
        "abd4d492db95a344f3eda57da2794f383579246c86a2c1610cbe16b72c814354",
    "attempt-2":
        "43869631b1c7e088a50f699a31736987b8755387a87293b4f1f41fa39adb4fa2",
    "signed-zero-start":
        "80d1084cea9296a299b119095609dccd83df59f57e8a91993e0c5d658ff6ba2c",
    "horizon-4":
        "533ea82674df12db6b7808111b263f976ee147b1c3935e43ddb495a223d7307b",
}

# Euler-Maruyama batches whose bytes are pinned; every step goes through
# em_step, so the drift and the noise of non-constant fields are covered
EM_BATCHES = {
    "1d-mollified-checkerboard": (
        fields.make_field("checkerboard", cell=0.25, mollify=0.1, **_CB),
        sampling.dirac([0.1])),
    "2d-mollified-checkerboard": (
        fields.make_field("checkerboard", cell=0.5, dim=2, mollify=0.1,
                          **_CB),
        sampling.dirac([0.1, -0.2])),
    "2d-smooth-sine": (
        fields.make_field("smooth-sine", dim=2),
        sampling.dirac([0.2, -0.1])),
}
EM_SHA256 = {
    "1d-mollified-checkerboard":
        "c9ca2dbe7e00f5e1eff0d142d03aa09f177558e21268b71a63e8b53acccc35de",
    "2d-mollified-checkerboard":
        "3c80f010223980406ad4492c98db47db8e996fee74eea73ffe2493d87393aee5",
    "2d-smooth-sine":
        "87f9f4f8a718378cab93caf7284b199e9e5b52a1d85b64022b3b6e035378c9ef",
}


class TestDyadicGrid:
    @pytest.mark.parametrize("n", [-1, 25, 40])
    def test_order_too_large(self, n):
        with pytest.raises(Error, match=r"fine_margin 0 outside \[0, 24\]"):
            sampling.fine_step_for(1.0, n, margin=0)

    def test_fine_step_default(self):
        assert sampling.fine_step_for(1.0, 10) == 2.0 ** -14
        with pytest.raises(Error, match=r"order 24 \+ fine_margin 4 outside"):
            sampling.fine_step_for(1.0, 24)


# laws whose vectorized draw is pinned to the one-point reference
DRAW_LAWS = {
    "dirac": sampling.dirac([1.0, -2.0]),
    "mixture": sampling.mixture([0.2, 0.5, 0.3],
                                [[-1.0, 0.5], [2.0, 0.0], [0.25, -3.0]]),
    "one-atom-mixture": sampling.mixture([2.0], [[0.5]]),
    "density-1d": sampling.grid_density(
        np.linspace(-1.0, 2.0, 21),
        np.random.default_rng(1).random(20) * (np.arange(20) % 5 > 0)),
    "density-2d": sampling.grid_density(
        [np.linspace(-1.0, 1.0, 14), [-0.5, 0.0, 0.25, 1.5]],
        np.random.default_rng(2).random((13, 3)) * [1.0, 0.0, 1.0]),
    "density-2d-fine": sampling.grid_density(
        [np.linspace(-1.0, 1.0, 41), np.linspace(0.0, 3.0, 38)],
        np.random.default_rng(3).random((40, 37))
        * (np.arange(37) % 6 > 0) * (np.arange(40) % 7 > 0)[:, None]),
}


class TestInitialLaws:
    def test_dirac(self):
        law = sampling.dirac([1.0, -2.0])
        rng = sampling.path_rng(0, 0)
        np.testing.assert_array_equal(sampling.sample_initial(law, rng, 3),
                                      [[1.0, -2.0]] * 3)
        # a Dirac reads nothing from the stream
        assert rng.random() == sampling.path_rng(0, 0).random()

    def test_mixture_of_diracs(self):
        law = sampling.mixture([0.5, 0.5], [[-1.0], [1.0]])
        draws = sampling.sample_initial(law, sampling.path_rng(3, 1), 2000)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(draws.mean()) < 0.05

    def test_grid_density_1d_uniform(self):
        law = sampling.grid_density([np.linspace(0, 1, 11)], np.ones(10))
        draws = sampling.sample_initial(law, sampling.path_rng(5, 0),
                                        3000)[:, 0]
        assert draws.min() >= 0 and draws.max() <= 1
        assert stats.kstest(draws, "uniform").pvalue > 0.01

    def test_grid_density_2d(self):
        edges = [np.linspace(-1, 1, 5), np.linspace(0, 2, 5)]
        vals = np.ones((4, 4))
        vals[0, 0] = 9.0  # weight mass toward the corner cell
        law = sampling.grid_density(edges, vals)
        pts = sampling.sample_initial(law, sampling.path_rng(11, 0), 4000)
        assert pts[:, 0].min() >= -1 and pts[:, 0].max() <= 1
        assert pts[:, 1].min() >= 0 and pts[:, 1].max() <= 2
        corner = (pts[:, 0] < -0.5) & (pts[:, 1] < 0.5)
        assert corner.mean() == pytest.approx(9.0 / 24.0, abs=0.04)

    def test_grid_density_3d_cell_frequencies(self):
        edges = [[0.0, 1.0, 3.0], [-1.0, 0.0, 0.5, 1.0], [2.0, 2.5, 4.0]]
        vals = np.random.default_rng(7).random((2, 3, 2))
        vals[1, 2, 0] = 0.0
        law = sampling.grid_density(edges, vals)
        n = 60_000
        pts = sampling.sample_initial(law, sampling.path_rng(13, 0), n)
        cells = [np.searchsorted(e, pts[:, k], side="right") - 1
                 for k, e in enumerate(edges)]
        counts = np.zeros(vals.shape)
        np.add.at(counts, tuple(cells), 1.0)
        p = law.cell_probs
        assert counts[1, 2, 0] == 0
        assert np.all(np.abs(counts / n - p) <= 5.0 * np.sqrt(p / n))

    @pytest.mark.parametrize("case", sorted(DRAW_LAWS))
    def test_draw_matches_one_point_reference(self, case):
        # n points in one call are the n one-point draws, in order, bit for
        # bit, and leave the stream where the n draws leave it
        law, n = DRAW_LAWS[case], 500
        rng, ref = sampling.path_rng(17, 4), sampling.path_rng(17, 4)
        got = sampling.sample_initial(law, rng, n)
        want = np.array([one_point_draw(law, ref) for _ in range(n)])
        assert got.shape == (n, law.dim)
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("case", sorted(DRAW_LAWS))
    def test_path_starts_match_one_point_reference(self, case):
        # each path's start is the first draw of its own stream
        law, ids = DRAW_LAWS[case], range(40)
        got = sampling._start_points(
            law, [sampling.path_rng(9, i) for i in ids], law.dim)
        want = [one_point_draw(law, sampling.path_rng(9, i)) for i in ids]
        assert got.tobytes() == np.array(want).tobytes()

    def test_density_validation(self):
        with pytest.raises(ValueError):
            sampling.grid_density([np.linspace(0, 1, 3)], [-1.0, 1.0])


class TestDeterminism:
    def test_same_key_same_path(self):
        f = fields.make_field("identity", dim=1)
        law = sampling.dirac([0.0])
        a = em_path(f, law, 1.0, 2.0 ** -8, seed=7, path_id=3)
        b = em_path(f, law, 1.0, 2.0 ** -8, seed=7, path_id=3)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        f = fields.make_field("identity", dim=1)
        law = sampling.dirac([0.0])
        a = em_path(f, law, 1.0, 2.0 ** -8, seed=7, path_id=3)
        b = em_path(f, law, 1.0, 2.0 ** -8, seed=7, path_id=4)
        c = em_path(f, law, 1.0, 2.0 ** -8, seed=8, path_id=3)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_attempts_and_large_mixed_keys_differ(self):
        # the mixed key exceeds 2^53 for attempt > 0, so this catches any
        # float round-trip in the Philox key plumbing
        base = sampling.path_rng(7, 0, attempt=1).standard_normal(4)
        for seed, attempt in [(8, 1), (7, 2), (7, 0)]:
            other = sampling.path_rng(seed, attempt=attempt,
                                      path_id=0).standard_normal(4)
            assert not np.array_equal(base, other)
        again = sampling.path_rng(7, 0, attempt=1).standard_normal(4)
        np.testing.assert_array_equal(base, again)

    @pytest.mark.parametrize("seed, path_id, attempt", [
        (2 ** 63, 0, 0), (2 ** 64 - 1, 5, 0), (7, 2 ** 63 + 11, 1),
        (3, 1, 1), (3, 1, 3)])
    def test_stream_is_philox_keyed_directly(self, seed, path_id, attempt):
        # the key-only seeding draws no OS entropy; the streams must equal
        # Philox(key=...)'s bit for bit, high key words above 2^63 included
        hi = (seed + attempt * sampling._ATTEMPT_STRIDE) % 2 ** 64
        assert hi >= 2 ** 63
        key = np.array([hi, path_id], dtype=np.uint64)
        got = sampling.path_rng(seed, path_id, attempt)
        want = np.random.Generator(np.random.Philox(key=key))
        for draw in ("standard_normal", "standard_exponential", "random"):
            np.testing.assert_array_equal(getattr(got, draw)(1000),
                                          getattr(want, draw)(1000))
        for word in ("key", "counter"):
            np.testing.assert_array_equal(
                got.bit_generator.state["state"][word],
                want.bit_generator.state["state"][word])

    def test_batch_independent_of_grouping(self):
        f = fields.make_field("checkerboard", lo=0.5, hi=2.0, mollify=0.1)
        law = sampling.dirac([0.0])
        args = (f, law, 1.0, 2.0 ** -8, 7)
        together = joined(sampling._em_blocks(*args, [0, 1, 2]))
        for pid in range(3):
            alone = joined(sampling._em_blocks(*args, [pid]))
            np.testing.assert_array_equal(alone[0], together[pid])

    def test_lattice_batch_independent_of_grouping(self):
        f = fields.make_field("checkerboard", lo=0.5, hi=2.0)
        law = sampling.dirac([0.0])
        args = (f, law, 1.0, 2.0 ** -12, 7)
        together = sampling._lattice_batch_states(*args, [0, 1, 2], h=0.125)
        for pid in range(3):
            alone = sampling._lattice_batch_states(*args, [pid], h=0.125)
            np.testing.assert_array_equal(alone[0], together[pid])

    def test_stride_recording_consistent(self):
        # non-constant fields take every fine step whatever the stride
        f = fields.make_field("smooth-sine", dim=1)
        law = sampling.dirac([0.0])
        full = joined(sampling._em_blocks(f, law, 1.0, 2.0 ** -8, 7, [0, 1]))
        coarse = joined(sampling._em_blocks(f, law, 1.0, 2.0 ** -8, 7,
                                            [0, 1], stride=16))
        np.testing.assert_array_equal(full[:, ::16], coarse)


class TestEulerMaruyama:
    @pytest.mark.parametrize("stride", [1, 16])
    def test_constant_increments_at_stride(self, stride):
        # constant diagonal paths draw one Gaussian increment per recorded
        # step: variance 2 a stride dt per axis, uncorrelated at lag 1
        a = np.array([1.5, 0.75])
        f = fields.make_field("constant-diagonal", values=a.tolist())
        dt = 2.0 ** -10
        states = joined(sampling._em_blocks(
            f, sampling.dirac([0.5, -0.25]), 0.25, dt, 5, list(range(200)),
            stride=stride))
        np.testing.assert_array_equal(states[:, 0], [[0.5, -0.25]] * 200)
        inc = np.diff(states, axis=1)
        assert inc.shape == (200, 256 // stride, 2)
        for k in range(2):
            x = inc[..., k]
            var = 2.0 * a[k] * stride * dt
            assert abs(x.mean()) <= 5.0 * np.sqrt(var / x.size)
            assert abs(x.var() - var) <= 5.0 * var * np.sqrt(2.0 / x.size)
            lag = (x[:, 1:] * x[:, :-1]).mean() / var
            assert abs(lag) <= 5.0 / np.sqrt(x[:, 1:].size)

    def test_brownian_moments(self):
        f = fields.make_field("identity", dim=1)
        law = sampling.dirac([0.0])
        states = joined(sampling._em_blocks(f, law, 1.0, 2.0 ** -10, 21,
                                            list(range(2000)), stride=1024))
        final = states[:, -1, 0]
        assert abs(final.mean()) < 0.1
        assert final.var() == pytest.approx(2.0, abs=0.15)

    def test_rough_field_rejected(self):
        f = fields.make_field("checkerboard", lo=0.5, hi=2.0)
        with pytest.raises(Error, match="needs a smooth or mollified field"):
            em_path(f, sampling.dirac([0.0]), 1.0, 2.0 ** -8, seed=0,
                    path_id=0)

    def test_smooth_sine_runs(self):
        f = fields.make_field("smooth-sine", dim=2)
        law = sampling.dirac([0.0, 0.0])
        p = em_path(f, law, 0.5, 2.0 ** -9, seed=1, path_id=0)
        assert p.shape == (257, 2)
        assert np.isfinite(p).all()

    def test_mollified_checkerboard_runs(self):
        f = fields.make_field("checkerboard", lo=0.5, hi=2.0, mollify=0.1)
        law = sampling.dirac([0.25])
        p = em_path(f, law, 0.25, 2.0 ** -10, seed=2, path_id=5)
        assert np.isfinite(p).all()

    def test_bad_step(self):
        f = fields.make_field("identity", dim=1)
        with pytest.raises(ValueError):
            em_path(f, sampling.dirac([0.0]), 1.0, 0.3, seed=0, path_id=0)

    @pytest.mark.parametrize("case", sorted(EM_BATCHES))
    def test_em_bytes(self, case):
        # SHA-256 of the states, taken while fields were still evaluated
        # as (N, d, d) matrices; their diagonals must not move a bit
        f, law = EM_BATCHES[case]
        states = joined(sampling.generate_batch(
            "euler-maruyama", f, law, 0.5, 2.0 ** -9, 11, list(range(4)),
            stride=8))
        assert states.shape == (4, 33, f.dim)
        assert hashlib.sha256(states.tobytes()).hexdigest() == (
            EM_SHA256[case])

    @pytest.mark.parametrize("case", sorted(EM_BATCHES))
    def test_states_independent_of_chunk(self, case, monkeypatch):
        # each path reads its own stream in order, so the length of the
        # noise block moves no state; no chunk above 1 divides the 1,100
        # steps, and 5 paths are not a power of two
        f, law = EM_BATCHES[case]
        runs = []
        for chunk in (1, 7, sampling._CHUNK_STEPS, 4096):
            monkeypatch.setattr(sampling, "_CHUNK_STEPS", chunk)
            runs.append(joined(sampling._em_blocks(
                f, law, 1100 * 2.0 ** -11, 2.0 ** -11, 11, list(range(5)),
                stride=4)).tobytes())
        assert runs[1:] == runs[:-1]


class TestTimeBlocks:
    """A batch is given out in consecutive time blocks of _block_rows
    rows; joined, they are the batch's states whatever BLOCK_BYTES is."""

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from(sorted(EM_BATCHES)),
           block_bytes=st.integers(1, 4 * 33 * 2 * 8 + 64))
    def test_stepped_blocks_keep_pinned_bytes(self, case, block_bytes):
        f, law = EM_BATCHES[case]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "BLOCK_BYTES", block_bytes)
            states = joined(sampling.generate_batch(
                "euler-maruyama", f, law, 0.5, 2.0 ** -9, 11, list(range(4)),
                stride=8))
        assert hashlib.sha256(states.tobytes()).hexdigest() == (
            EM_SHA256[case])

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.floats(0.1, 4.0), min_size=1, max_size=3),
           stride=st.sampled_from([1, 4, 32]),
           paths=st.integers(1, 5),
           block_bytes=st.integers(1, 5 * 65 * 3 * 8 + 64),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_constant_blocks_match_one_accumulate(self, values, stride, paths,
                                                  block_bytes, seed):
        f = fields.make_field("constant-diagonal", values=values)
        law = sampling.dirac(np.linspace(-1.0, 1.0, len(values)))
        args = (f, law, 0.5, 2.0 ** -7 / stride, seed, list(range(paths)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "BLOCK_BYTES", block_bytes)
            blocks = list(sampling.generate_batch("euler-maruyama", *args,
                                                  stride=stride))
        want = em_constant_states(*args, stride=stride)
        assert joined(blocks).tobytes() == want.tobytes()
        rows = max(1, block_bytes // (paths * len(values) * 8))
        assert [b.shape[1] for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 1 <= blocks[-1].shape[1] <= rows

    def test_lattice_blocks_slice_the_walk(self, monkeypatch):
        monkeypatch.setattr(sampling, "BLOCK_BYTES", 6 * 2 * 8 * 10)
        f = fields.make_field("checkerboard", cell=0.5, dim=2, **_CB)
        blocks = list(sampling.generate_batch(
            "lattice", f, sampling.dirac([0.1, -0.2]), 1.0, 2.0 ** -13, 3,
            list(range(6)), stride=32, scheme_params={"h": 0.125}))
        assert [b.shape[1] for b in blocks] == [10] * 25 + [7]
        np.testing.assert_array_equal(joined(blocks), _walk(
            f, sampling.dirac([0.1, -0.2]), fine_step=2.0 ** -13, stride=32))

    def test_arguments_checked_on_the_call(self):
        f = fields.make_field("identity", dim=1)
        with pytest.raises(Error, match="does not divide the horizon"):
            sampling.generate_batch("euler-maruyama", f, sampling.dirac([0.0]),
                                    1.0, 0.3, 0, [0])


class TestLattice:
    def test_states_on_lattice(self):
        f = fields.make_field("identity", dim=1)
        law = sampling.dirac([0.3])
        p = lattice_path(f, law, 1.0, 2.0 ** -12, seed=4, path_id=0,
                         h=0.125)
        k = (p[:, 0] - 0.3) / 0.125
        np.testing.assert_allclose(k, np.round(k), atol=1e-9)
        assert p.shape[0] == 2 ** 12 + 1

    def test_2d_checkerboard_batch_bytes(self):
        # SHA-256 of the states, taken before the 2d neighbour rates were
        # evaluated in one field call; that call must not move a bit
        f = fields.make_field("checkerboard", lo=0.5, hi=2.0, cell=0.5, dim=2)
        states = sampling._lattice_batch_states(
            f, sampling.dirac([0.1, -0.2]), 1.0, 2.0 ** -13, 17,
            list(range(8)), stride=2 ** 5, h=0.125)
        assert states.shape == (8, 257, 2)
        assert hashlib.sha256(states.tobytes()).hexdigest() == (
            "6f6ec3e3b510ff97544b69c32c4a4ac99870346c4783c06472ea644f7d1861ae")

    @pytest.mark.parametrize("case", sorted(WALKS))
    def test_walk_bytes(self, case, monkeypatch):
        # SHA-256 of the states, taken before the walk moved in look-ahead
        # windows; no window size may move a bit
        for window in (sampling._LOOKAHEAD, 1, 64):
            monkeypatch.setattr(sampling, "_LOOKAHEAD", window)
            assert hashlib.sha256(WALKS[case]().tobytes()).hexdigest() == (
                WALK_SHA256[case]), window

    @settings(max_examples=12, deadline=None)
    @given(case=st.sampled_from(sorted(WALKS)),
           seed=st.integers(0, 2 ** 32 - 1),
           ids=st.lists(st.integers(0, 40), min_size=1, max_size=5,
                        unique=True))
    def test_states_independent_of_window(self, case, seed, ids):
        def walk(k):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sampling, "_LOOKAHEAD", k)
                return WALKS[case](seed=seed, path_ids=ids)
        one = walk(1)
        for k in (2, 5, 64):
            np.testing.assert_array_equal(walk(k), one)

    def test_embedding_gate(self):
        f = fields.make_field("identity", dim=1)
        with pytest.raises(ValueError):
            lattice_path(f, sampling.dirac([0.0]), 1.0, 2.0 ** -6, seed=0,
                         path_id=0, h=0.01)

    def test_final_marginals_match_em(self):
        # same generator, two schemes: two-sample KS at the 1% level
        f = fields.make_field("identity", dim=1)
        law = sampling.dirac([0.0])
        n = 10 ** 4
        T = 2 ** 14
        em = np.empty(n)
        lat = np.empty(n)
        for lo in range(0, n, 2000):
            ids = list(range(lo, lo + 2000))
            em[lo:lo + 2000] = joined(sampling._em_blocks(
                f, law, 1.0, 2.0 ** -14, 99, ids, stride=T))[:, -1, 0]
            lat[lo:lo + 2000] = sampling._lattice_batch_states(
                f, law, 1.0, 2.0 ** -14, 99, ids, stride=T, h=0.05)[:, -1, 0]
        assert stats.ks_2samp(em, lat).pvalue > 0.01
        assert lat.var() == pytest.approx(2.0, rel=0.1)
