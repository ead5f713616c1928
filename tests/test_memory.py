"""Memory budgets of the Monte Carlo potential, the lattice walk and the
path sweeps.

numpy reports every array allocation to tracemalloc, so the traced peak
of a call is deterministic.  Each budget is a few copies of the call's
sample arrays; a copy held for the whole call, which is what a
reintroduced temporary or a reference kept too long costs, must exceed it.
"""

import tracemalloc

import numpy as np
import pytest

from roughdiff import kernels as kn
from roughdiff import runner, sampling
from roughdiff.fields import make_field


def traced_peak(fn):
    """(fn(), the traced bytes at its peak above those live before it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(autouse=True)
def numpy_random_imported():
    # the first generator imports numpy.random; that is not the call's
    sampling.path_rng(0, 0).standard_normal()


N = kn.MIN_KDE_SAMPLES
# (field, law, step, t_cap, budget in n x d float64 arrays)
POTENTIALS = {
    # the Euler sweep: the start points, their sorted copy, the step
    # counts and their order while sorting
    "1d-euler": (make_field("checkerboard", lo=0.5, hi=2.0, cell=1.0,
                            mollify=0.1),
                 sampling.dirac([0.0]), 2.0 ** -3, 2.0, 4.5),
    # exact Gaussians: the samples, histogramdd's bin indices and its
    # flat index
    "2d-exact": (make_field("constant-diagonal", values=[0.2, 0.05]),
                 sampling.dirac([0.0, 0.0]), 2.0 ** -9, 16.0, 3.0),
}


def potential_peak(case):
    field, nu, step, t_cap, _ = POTENTIALS[case]
    U, peak = traced_peak(lambda: kn._potential_from_samples(
        field, nu, N, 4, step, t_cap))
    return U, peak


def potential_budget(case, U):
    """k n x d float64 arrays plus two tables (a convolution's input and
    output)."""
    field, *_, k = POTENTIALS[case]
    return k * N * field.dim * 8 + 2 * U.values.nbytes


def hold_per_generator(monkeypatch, size):
    """Make each sampling.path_rng call also allocate ``size`` floats and
    keep them alive to the end of the test."""
    held, real = [], sampling.path_rng

    def path_rng(*args, **kwargs):
        held.append(np.ones(size))
        return real(*args, **kwargs)
    monkeypatch.setattr(sampling, "path_rng", path_rng)


@pytest.mark.parametrize("case", sorted(POTENTIALS))
class TestPotentialBudget:
    def test_within_budget(self, case):
        U, peak = potential_peak(case)
        assert peak <= potential_budget(case, U)

    def test_one_extra_copy_exceeds_it(self, case, monkeypatch):
        # one more n x d array, held for the whole route
        hold_per_generator(monkeypatch, N * POTENTIALS[case][0].dim)
        U, peak = potential_peak(case)
        assert peak > potential_budget(case, U)


class TestLatticeBudget:
    """The walk holds one block of exponentials and one of uniforms per
    path, beyond its output."""

    FIELD = make_field("checkerboard", lo=0.5, hi=2.0, cell=1.0, dim=2)
    H, FINE, B = 0.0625, 2.0 ** -15, 50

    def walk_peak(self):
        return traced_peak(lambda: sampling._lattice_batch_states(
            self.FIELD, sampling.dirac([0.0, 0.0]), 1.0, self.FINE, 3,
            list(range(self.B)), stride=128, h=self.H))

    def block(self):
        """Columns of the walk's random block: the mean jump count at the
        maximal rate over the unit horizon plus a margin, as
        _lattice_batch_states sizes it."""
        mean = sampling.lattice_jump_rate(self.FIELD, self.H, self.FINE)
        return max(64, int(mean * 1.25 + 8.0 * np.sqrt(mean) + 16))

    def budget(self, out):
        return out.nbytes + 2.5 * self.B * self.block() * 8

    def test_within_budget(self):
        out, peak = self.walk_peak()
        assert peak <= self.budget(out)

    def test_one_extra_block_exceeds_it(self, monkeypatch):
        # one more (B, block) array, held for the whole walk, as
        # concatenating the first blocks onto empty arrays made
        hold_per_generator(monkeypatch, self.block())
        out, peak = self.walk_peak()
        assert peak > self.budget(out)


class TestEulerBatchBudget:
    """A constant-field Euler-Maruyama batch holds its states and little
    else: each path's row is scaled where it is drawn."""

    FIELD = make_field("identity", dim=2)
    B = 16

    def batch_peak(self):
        return traced_peak(lambda: sampling._em_batch_states(
            self.FIELD, sampling.dirac([0.0, 0.0]), 1.0, 2.0 ** -10, 11,
            list(range(self.B))))

    def test_within_budget(self):
        out, peak = self.batch_peak()
        assert peak <= 1.25 * out.nbytes

    def test_one_extra_batch_exceeds_it(self, monkeypatch):
        # one more path's worth of states per generator, held for the
        # whole call: one batch more in all
        out, _ = self.batch_peak()
        hold_per_generator(monkeypatch, out[0].size)
        _, peak = self.batch_peak()
        assert peak > 1.25 * out.nbytes


class TestEvaluateBudget:
    """The path sweeps hold one batch of states at a time: F and grad F
    live one block of rows at a time, and a batch is released before the
    next one is drawn."""

    B, N_TOP, D = 16, 10, 2
    CONFIG = {
        "field": {"name": "identity", "dim": D},
        "function": {"name": "quadratic", "dim": D},
        "law": {"kind": "dirac", "point": [0.0] * D},
        "horizon": 1.0,
        "orders": [4, 6, 8, N_TOP],
        "n_paths": 3 * B,
        "seed": 11,
        "sweeps": list(runner.PATH_SWEEPS),
    }

    def chunk_peak(self, monkeypatch, extra=False):
        monkeypatch.setattr(runner, "BATCH_PATHS", self.B)
        scn = runner.load_scenario(self.CONFIG)

        def call():
            held = np.ones(self.batch_shape()) if extra else None
            return runner.evaluate_chunk(scn, 0, 3 * self.B), held
        return traced_peak(call)[1]

    def batch_shape(self):
        return (self.B, 2 ** self.N_TOP + 1, self.D)

    def budget(self):
        """Two and a half batches of states: the batch itself and the
        pass's 64-row blocks, under one batch at this size."""
        return 2.5 * np.prod(self.batch_shape()) * 8

    def test_within_budget(self, monkeypatch):
        assert self.chunk_peak(monkeypatch) <= self.budget()

    def test_one_extra_batch_exceeds_it(self, monkeypatch):
        # one more (B, T, d) array, held for the whole call, as keeping a
        # batch's F and grad F or its states while the next is drawn costs
        assert self.chunk_peak(monkeypatch, extra=True) > self.budget()
