"""Memory budgets of the Monte Carlo potential, the integrability gate,
the lattice walk, the path sweeps and their reduction.

numpy reports every array allocation to tracemalloc, so the traced peak
of a call is deterministic.  Each budget is a few copies of the call's
sample arrays; a copy held for the whole call, which is what a
reintroduced temporary or a reference kept too long costs, must exceed it.
"""

import operator
import tracemalloc

import numpy as np
import pytest

from roughdiff import integrability, kernels as kn
from roughdiff import runner, sampling
from roughdiff.fields import make_field
from roughdiff.testfunctions import make_test_function


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
    # exact Gaussians: the samples, then while binning them the flat bin
    # index, one axis's bins and searchsorted's copy of that axis, half
    # an array each
    "2d-exact": (make_field("constant-diagonal", values=[0.2, 0.05]),
                 sampling.dirac([0.0, 0.0]), 2.0 ** -9, 16.0, 2.0),
}


def potential_peak(case):
    field, nu, step, t_cap, _ = POTENTIALS[case]
    U, peak = traced_peak(lambda: kn._potential_from_samples(
        field, nu, N, 4, step, t_cap))
    return U, peak


def potential_budget(case, U):
    """k n x d float64 arrays plus one table: the bin counts and the
    density table are live together only once the samples are gone, and
    the convolution runs in place."""
    field, *_, k = POTENTIALS[case]
    return k * N * field.dim * 8 + U.values.nbytes


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


class TestGateBudget:
    """The gate's quadrature on a 2-d box holds one table over every node
    of the box, which its contiguous sums run over, and otherwise only
    arrays on U's window."""

    F = make_test_function("quadratic", dim=2)
    BOX, H = [-25.0, 25.0], 0.1
    AX = np.linspace(-4.0, 4.0, 161)
    U = kn.PotentialField(route="table", dim=2, axes=[AX, AX],
                          values=np.exp(-(AX[:, None] ** 2 + AX ** 2)))

    def gate_peak(self):
        return traced_peak(lambda: integrability.check_condition_1(
            self.F, self.U, self.BOX, self.H))[1]

    def full_box(self):
        return 501 ** 2 * 8

    def budget(self):
        """The full-box table plus eight float arrays on the window: its
        points (two), the rows, U, their product, the weights and one
        weighted row, with room to spare."""
        q = np.linspace(*self.BOX, 501)
        window = np.prod([q[w].shape[0] for w in self.U.window([q, q])])
        return self.full_box() + 8 * window * 8

    def test_within_budget(self):
        assert self.gate_peak() <= self.budget()

    def test_one_extra_table_exceeds_it(self, monkeypatch):
        # one more full-box table, held for the whole gate, as a weight
        # table over every node costs
        held, real = [], kn.PotentialField.__call__

        def call(U, pts):
            held.append(np.ones(self.full_box() // 8))
            return real(U, pts)
        monkeypatch.setattr(kn.PotentialField, "__call__", call)
        assert self.gate_peak() > self.budget()


def drained(blocks):
    """Take every block and keep none, not even while the next is drawn:
    the largest block's nbytes."""
    return max(map(operator.attrgetter("nbytes"), blocks))


class TestLatticeBudget:
    """The walk holds one time block, each path's buffer of words and the
    arrays of one round of windows; 50 paths in 2-d are one block."""

    FIELD = make_field("checkerboard", lo=0.5, hi=2.0, cell=1.0, dim=2)
    H, FINE, B, D = 0.0625, 2.0 ** -15, 50, 2

    def walk_peak(self):
        return traced_peak(lambda: drained(sampling.generate_batch(
            "lattice", self.FIELD, sampling.dirac([0.0, 0.0]), 1.0,
            self.FINE, 3, list(range(self.B)), stride=128,
            scheme_params={"h": self.H})))

    def buffers(self):
        """Two words for each of a path's _DRAW_JUMPS + _LOOKAHEAD jumps."""
        jumps = sampling._DRAW_JUMPS + sampling._LOOKAHEAD
        return self.B * jumps * 2 * 8

    def budget(self, block):
        """The block, the buffers, and ten arrays of a round's field
        points, the 2d neighbours of _LOOKAHEAD positions a path, for the
        window's temporaries and the generators."""
        points = self.B * 2 * self.D * sampling._LOOKAHEAD
        return block + self.buffers() + 10 * points * self.D * 8

    def test_within_budget(self):
        block, peak = self.walk_peak()
        assert block == self.B * 257 * self.D * 8
        assert peak <= self.budget(block)

    def test_one_extra_block_exceeds_it(self, monkeypatch):
        # one more of the random blocks the walk once drew whole, 2,938
        # columns a path sized from the maximal jump rate, held for the
        # whole walk
        hold_per_generator(monkeypatch, 2938)
        block, peak = self.walk_peak()
        assert peak > self.budget(block)

    def test_one_extra_buffer_exceeds_it(self, monkeypatch):
        # each path's buffer held twice, as keeping the spent words while
        # the next are drawn costs
        hold_per_generator(monkeypatch, self.buffers() // (8 * self.B))
        block, peak = self.walk_peak()
        assert peak > self.budget(block)


class TestDeepLatticeBudget:
    """At a deep order the lattice walk pauses at each time block's end,
    so 4 paths to order 14 in 2-d, 1 MB of states, stay within three
    64 KiB blocks and the paths' buffers of words."""

    BLOCK_BYTES = 64 << 10
    CONFIG = {
        "field": {"name": "checkerboard", "lo": 0.5, "hi": 2.0, "cell": 1.0,
                  "dim": 2},
        "function": {"name": "quadratic", "dim": 2},
        "law": {"kind": "dirac", "point": [0.0, 0.0]},
        "orders": [4, 8, 12, 14],
        "n_paths": 4,
        "seed": 3,
        "scheme": "lattice",
        "scheme_params": {"h": 0.0625},
        "sweeps": ["qv", "covariation", "trapezoid"],
        "allow_unverified": True,
    }

    def chunk_peak(self, monkeypatch):
        monkeypatch.setattr(sampling, "BLOCK_BYTES", self.BLOCK_BYTES)
        scn = runner.load_scenario(self.CONFIG)
        return traced_peak(lambda: runner.evaluate_chunk(scn, 0, 4))[1]

    def budget(self):
        jumps = sampling._DRAW_JUMPS + sampling._LOOKAHEAD
        return 3 * self.BLOCK_BYTES + 4 * jumps * 2 * 8

    def test_within_budget(self, monkeypatch):
        assert self.chunk_peak(monkeypatch) <= self.budget()

    def test_a_whole_batch_exceeds_it(self, monkeypatch):
        # the batch's blocks all held at once, as walking it whole costs
        generate = sampling.generate_batch
        monkeypatch.setattr(sampling, "generate_batch",
                            lambda *a, **kw: list(generate(*a, **kw)))
        assert self.chunk_peak(monkeypatch) > self.budget()


class TestEulerBatchBudget:
    """A constant-field Euler-Maruyama batch holds one time block of its
    states and little else: each path's block row is scaled where it is
    drawn, and a block is released before the next is drawn."""

    FIELD = make_field("identity", dim=2)
    B = 16
    BLOCK_BYTES = 128 << 10   # 512 of the batch's 1,025 rows

    def batch_peak(self, monkeypatch):
        monkeypatch.setattr(sampling, "BLOCK_BYTES", self.BLOCK_BYTES)
        return traced_peak(lambda: drained(sampling.generate_batch(
            "euler-maruyama", self.FIELD, sampling.dirac([0.0, 0.0]), 1.0,
            2.0 ** -10, 11, list(range(self.B)))))

    def test_within_budget(self, monkeypatch):
        block, peak = self.batch_peak(monkeypatch)
        assert block == self.BLOCK_BYTES
        assert peak <= 1.25 * block

    def test_one_extra_batch_exceeds_it(self, monkeypatch):
        # one more path's worth of states (1,025 rows by 2 axes) per
        # generator, held for the whole call: one batch more in all
        hold_per_generator(monkeypatch, 1025 * 2)
        block, peak = self.batch_peak(monkeypatch)
        assert peak > 1.25 * block


class TestEvaluateBudget:
    """The path sweeps hold one time block of states at a time: a batch
    is given out in blocks, each fed to every order's pass and released
    before the next is drawn, and F and grad F live one pass block of
    rows at a time."""

    B, N_TOP, D = 16, 12, 2
    BLOCK_BYTES = 256 << 10   # 1,024 of the batch's 4,097 rows
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
        monkeypatch.setattr(sampling, "BLOCK_BYTES", self.BLOCK_BYTES)
        scn = runner.load_scenario(self.CONFIG)

        def call():
            held = np.ones(self.BLOCK_BYTES // 8) if extra else None
            return runner.evaluate_chunk(scn, 0, 3 * self.B), held
        return traced_peak(call)[1]

    def budget(self):
        """Two and a half time blocks: the block itself and the pass's
        64-row blocks with their terms, about one time block at this
        size; a batch is four."""
        return 2.5 * self.BLOCK_BYTES

    def test_within_budget(self, monkeypatch):
        assert self.chunk_peak(monkeypatch) <= self.budget()

    def test_one_extra_block_exceeds_it(self, monkeypatch):
        # one more time block, held for the whole call, as keeping a block
        # while the next is drawn costs
        assert self.chunk_peak(monkeypatch, extra=True) > self.budget()


class TestDeepOrderBudget:
    """At a deep order the path sweeps' working set is a few time blocks,
    not the batch: 4 paths to order 14 in 2-d are 1 MB of states, and the
    traced peak stays within three 64 KiB blocks."""

    BLOCK_BYTES = 64 << 10
    CONFIG = {
        "field": {"name": "constant-diagonal", "values": [0.2, 0.05]},
        "function": {"name": "quadratic", "dim": 2},
        "law": {"kind": "dirac", "point": [0.0, 0.0]},
        "orders": [4, 8, 12, 14],
        "n_paths": 4,
        "seed": 3,
        "sweeps": ["qv", "covariation", "trapezoid"],
        "allow_unverified": True,
    }

    def chunk_peak(self, monkeypatch):
        monkeypatch.setattr(sampling, "BLOCK_BYTES", self.BLOCK_BYTES)
        scn = runner.load_scenario(self.CONFIG)
        return traced_peak(lambda: runner.evaluate_chunk(scn, 0, 4))[1]

    def test_within_three_blocks(self, monkeypatch):
        assert self.chunk_peak(monkeypatch) <= 3 * self.BLOCK_BYTES

    def test_a_whole_batch_exceeds_it(self, monkeypatch):
        # the batch's blocks all held at once, as drawing it whole costs
        generate = sampling.generate_batch
        monkeypatch.setattr(sampling, "generate_batch",
                            lambda *a, **kw: list(generate(*a, **kw)))
        assert self.chunk_peak(monkeypatch) > 3 * self.BLOCK_BYTES


class TestReductionBudget:
    """The reduction makes the per-path values BATCH_PATHS paths at a time
    and streams them through its two compensated passes: with all eight
    path sweeps over 2,000 paths it holds less than one table of every
    path's values, where stacking them held three."""

    CONFIG = {
        "field": {"name": "identity", "dim": 1},
        "function": {"name": "quadratic", "dim": 1},
        "law": {"kind": "dirac", "point": [0.0]},
        "orders": [1, 2, 3, 4],
        "n_paths": 2000,
        "seed": 1,
        "sweeps": list(runner.PATH_SWEEPS),
        "allow_unverified": True,
    }
    DENOMS = {"prop1": 1.0, "prop2_k0": 1.0, "prop3": 1.0}
    # eight values per path per order, over four orders
    TABLE = 2000 * 8 * 4 * 8

    def reduction_peak(self, extra=False):
        scn = runner.load_scenario(self.CONFIG)
        chunks = [runner.evaluate_chunk(scn, 0, 1000),
                  runner.evaluate_chunk(scn, 1000, 2000)]

        def call():
            held = np.ones(self.TABLE // 8) if extra else None
            return runner._path_sweep_reports(scn, chunks, self.DENOMS), held
        return traced_peak(call)[1]

    def test_within_one_table(self):
        assert self.reduction_peak() <= self.TABLE

    def test_one_table_exceeds_it(self):
        # the stacked table of every path's values, held for the whole
        # reduction
        assert self.reduction_peak(extra=True) > self.TABLE
