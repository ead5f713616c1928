"""Path sampling for divergence-form diffusions along dyadic grids.

Two schemes approximate the process generated by L = div(a grad):

* Euler-Maruyama on a uniform fine grid, dX = (div a)(X) dt + sqrt(2 a)(X) dW,
  for smooth or mollified fields;
* a continuous-time lattice walk on x0 + h Z^d with edge-midpoint
  conductances a_kk(x +/- h e_k / 2) / h^2, for fields of any roughness,
  resampled onto the same uniform fine grid by carrying the last
  position forward.  The walk runs in look-ahead windows: each round
  guesses every live path's next jumps from its last known rates, checks
  them with one field call at all the guessed positions, and keeps the
  jumps up to the first wrong guess.  The states are those of the
  one-jump-at-a-time walk, bit for bit, whatever the window size.

Randomness is counter-based: every path owns the Philox stream keyed by
(seed, path_id), so path i is a bitwise-deterministic function of
(scheme, field, law, horizon, fine step, seed, path_id) no matter how paths
are batched or distributed over workers, its start included.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import Error

MAX_ORDER = 24
# bytes of recorded states per block a batch is given out in: a batch
# holds one block at a time, and states do not depend on it
BLOCK_BYTES = 4 << 20
# Euler-Maruyama steps of noise drawn per path at a time: a (B, 512, d)
# block; each path reads its own stream in order, so states do not depend
# on it
_CHUNK_STEPS = 512
_ATTEMPT_STRIDE = 0x9E3779B97F4A7C15  # odd 64-bit constant, attempt offset
_LOOKAHEAD = 12  # lattice jumps per window; 8-16 measured fastest


def fine_step_for(horizon, n_max, margin=4):
    """Simulation step ``margin`` dyadic levels below the finest grid.

    Non-constant Euler-Maruyama fields and the lattice walk take every
    fine step.  Constant-field Euler-Maruyama paths have independent
    Gaussian increments and no drift, so they draw one increment per
    recorded step and the margin costs them nothing.
    """
    if not (0 <= n_max + margin <= MAX_ORDER):
        raise Error(
            f"order {n_max} + fine_margin {margin} outside [0, {MAX_ORDER}]")
    return float(horizon) * 2.0 ** (-(n_max + margin))


# ---------------------------------------------------------------- initial laws

@dataclass
class InitialLaw:
    """Initial distribution: atoms ``points`` (K, d) with ``weights`` (K,),
    or a density, ``cell_probs`` per cell of the grid with ``edges``."""

    kind: str
    points: np.ndarray | None = None
    weights: np.ndarray | None = None
    edges: list | None = None
    cell_probs: np.ndarray | None = None

    @property
    def dim(self):
        if self.kind == "grid-density":
            return len(self.edges)
        return self.points.shape[1]

    def hull(self):
        """(lo, hi), the corners of the least box holding the support."""
        if self.kind == "grid-density":
            return tuple(np.array([e[[0, -1]] for e in self.edges]).T)
        return self.points.min(axis=0), self.points.max(axis=0)


def dirac(point):
    pt = np.atleast_1d(np.asarray(point, dtype=float))
    return InitialLaw(kind="dirac", points=pt[None], weights=np.ones(1))


def grid_density(edges, values):
    """Piecewise-constant density on a rectilinear grid in any d.

    ``edges`` is one strictly increasing edge array per axis; ``values``
    holds a nonnegative density value per cell.  Normalization is
    internal.
    """
    if len(edges) and np.ndim(edges[0]) == 0:   # one axis, given flat
        edges = [edges]
    edges = [np.asarray(e, dtype=float) for e in edges]
    if not all(np.all(np.diff(e) > 0) for e in edges):
        raise Error("edges must be strictly increasing on every axis")
    vals = np.asarray(values, dtype=float)
    expected = tuple(e.shape[0] - 1 for e in edges)
    if vals.shape != expected:
        raise Error(
            f"density shape {vals.shape} does not match cells {expected}")
    if np.any(vals < 0) or vals.sum() <= 0:
        raise Error("density values must be nonnegative, not all zero")
    probs = vals * functools.reduce(np.multiply.outer, map(np.diff, edges))
    return InitialLaw(kind="grid-density", edges=edges,
                      cell_probs=probs / probs.sum())


def mixture(weights, points):
    """Mixture of the Diracs at ``points`` with the given weights."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or w.sum() <= 0:
        raise Error("mixture weights must be nonnegative, not all zero")
    pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p in points]
    if len(pts) != w.shape[0]:
        raise Error("one weight per point required")
    dims = {p.shape[0] for p in pts}
    if len(dims) != 1:
        raise Error(f"points disagree on dimension: {dims}")
    return InitialLaw(kind="mixture", points=np.array(pts),
                      weights=w / w.sum())


# config parameters of each law kind as runner.Key tuples, ``...`` marking
# a required one; a list without an item kind holds numbers or lists
LAWS = {
    "dirac": {"point": ("list", ..., None, "number")},
    "mixture": {"weights": ("list", ..., None, "number"),
                "points": ("list", ..., None, ("list", ..., None, "number"))},
    "grid-density": {"edges": ("list", ...), "values": ("list", ...)},
}
_LAW_CATALOG = {"dirac": dirac, "mixture": mixture,
                "grid-density": grid_density}


def make_law(kind, **params):
    """Initial law of the ``LAWS`` kind ``kind`` from its parameters."""
    if kind not in _LAW_CATALOG:
        raise Error(f"unknown initial law kind {kind!r}")
    return _LAW_CATALOG[kind](**params)


def sample_initial(law, rng, n):
    """n starting points, (n, d), drawn from the law with ``rng``: none
    for a Dirac, else ``_uniforms`` per point, in point order."""
    if law.kind == "dirac":
        return np.repeat(law.points, n, axis=0)
    return _invert(law, rng.random((n, _uniforms(law))))


def _uniforms(law):
    return 1 if law.kind == "mixture" else law.dim


def _invert(law, u):
    """The points of a mixture or a density at uniforms u, (n, m): the
    first atom whose cumulative weight exceeds u, or, axis by axis, the
    inverse CDF, linear in a cell, of the marginal on the slab the earlier
    axes chose, divided by the slab's total on every axis but the first;
    the cell's mass is that marginal entry on every axis but the last,
    and the cumulative difference on the last."""
    if law.kind == "mixture":
        k = np.searchsorted(np.cumsum(law.weights), u[:, 0], side="right")
        return law.points[np.minimum(k, law.weights.shape[0] - 1)]
    n, d = u.shape
    x = np.empty((n, d))
    slab = np.zeros(n, dtype=np.intp)   # flat index of the earlier cells
    for k, e in enumerate(law.edges):
        c = e.shape[0] - 1
        # one row per slab: the marginal of axis k on it
        marg = law.cell_probs.sum(axis=tuple(range(k + 1, d))).reshape(-1, c)
        if k:
            total = marg.sum(axis=1, keepdims=True)
            marg = np.divide(marg, total, out=np.zeros_like(marg),
                             where=total > 0)
        cum = np.cumsum(marg, axis=1)
        # the cell: how many of the slab's sums are <= u, in one search of
        # exact (row, sum) pairs, which complex numbers order lexicographically
        keys = (np.arange(cum.shape[0])[:, None] + 1j * cum).ravel()
        j = np.searchsorted(keys, slab + 1j * u[:, k], side="right")
        j = np.minimum(j - slab * c, c - 1)
        lo = np.where(j > 0, cum[slab, j - 1], 0.0)
        p = cum[slab, j] - lo if k == d - 1 else marg[slab, j]
        frac = np.divide(u[:, k] - lo, p, out=np.zeros(n), where=p > 0)
        x[:, k] = e[j] + frac * (e[j + 1] - e[j])
        slab = slab * c + j
    return x


# ---------------------------------------------------------------- rng plumbing

@functools.cache
def _keyed_seed():
    """The ISeedSequence type that hands Philox a given key: Philox(key=...)
    would first draw OS entropy for a SeedSequence that the key then
    overrides.  Built on first use, so importing this module loads no
    numpy.random, and a run whose paths are drawn in forked workers never
    loads it in the parent."""

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key   # Philox asks for its key, 2 uint64 words

    return PhiloxKey


def path_rng(seed, path_id, attempt=0):
    """Counter-based generator for one path.

    The Philox key is (seed + attempt * odd constant, path_id); the step
    index lives in the Philox counter, so draws are reproducible and
    independent across paths regardless of evaluation order.
    """
    if seed < 0 or path_id < 0:
        raise Error("seed and path_id must be nonnegative")
    hi = (int(seed) + int(attempt) * _ATTEMPT_STRIDE) % (1 << 64)
    # the key must be an explicit uint64 array: a plain int list would be
    # inferred as float64 above 2^63 and silently drop the low key bits
    key = np.array([hi, int(path_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_keyed_seed()(key)))


def _nsteps(horizon, fine_step, stride):
    n = round(horizon / fine_step)
    if n < 1 or abs(n * fine_step - horizon) > 1e-9 * horizon:
        raise Error(
            f"fine step {fine_step} does not divide the horizon {horizon}")
    if n % stride != 0:
        raise Error(f"stride {stride} does not divide {n} steps")
    return int(n)


def _start_points(law, gens, dim):
    """Each path's start, drawn from its own stream; a Dirac draws none."""
    if law.dim != dim:
        raise Error(
            f"initial law dimension {law.dim} != field dimension {dim}")
    if law.kind == "dirac":
        return sample_initial(law, None, len(gens))
    return _invert(law, np.stack([g.random(_uniforms(law)) for g in gens]))


def check_em_field(field):
    """Raise Error on a rough field: its divergence, the
    Euler-Maruyama drift, only exists as a distribution."""
    if field.smoothness == "rough":
        raise Error(
            "Euler-Maruyama needs a smooth or mollified field; set "
            "field.mollify, or use the lattice scheme for paths and route "
            "grid for the potential")


def em_step(field, x, xi, fine_step):
    """One Euler-Maruyama step of a non-constant field for a batch.

    Returns x + (div a)(x) fine_step + sqrt(2 a(x)) xi sqrt(fine_step) for
    states x and standard normal draws xi, both of shape (B, d), on a
    field check_em_field admits, which the caller checks once per sweep;
    sqrt(2 a) is taken entrywise on the diagonal.
    """
    diag, drift = field.matrix_and_divergence(x)
    noise = np.sqrt(2.0 * diag) * xi
    return x + (drift * fine_step + noise * np.sqrt(fine_step))


def _block_rows(b, d):
    """Recorded rows per block of a (b, T', d) batch: BLOCK_BYTES of
    states, and at least one row."""
    return max(1, BLOCK_BYTES // (b * d * 8))


def _em_blocks(field, law, horizon, fine_step, seed, path_ids, stride=1):
    """Euler-Maruyama batch: the states at times i * stride * fine_step,
    both endpoints included, as consecutive (B, r, d) blocks of
    _block_rows rows, the last one shorter.  The field, the step and the
    law are checked here, before the first block is asked for."""
    check_em_field(field)
    nsteps = _nsteps(horizon, fine_step, stride)
    gens = [path_rng(seed, pid) for pid in path_ids]
    x = _start_points(law, gens, field.dim)
    rows = _block_rows(len(gens), field.dim)
    if field.is_constant:
        # constant coefficients: zero drift and independent
        # Gaussian increments, so one draw per recorded step is exact in law
        sig = np.sqrt(2.0 * field._diag_many(x[:1])[0])  # (d,)
        return _constant_blocks(gens, x, sig * np.sqrt(stride * fine_step),
                                nsteps // stride + 1, rows)
    return _stepped_blocks(field, gens, x, fine_step, nsteps, stride, rows)


def _constant_blocks(gens, x, scale, T, rows):
    """The running sums of the start x and each path's scaled normals.

    Block by block, each path draws its block's normals from its own
    stream and scales them; the block's first row adds the previous
    block's last, and np.add.accumulate runs on.  These are the additions,
    in order, of one accumulate over the whole batch."""
    for r0 in range(0, T, rows):
        out = np.empty((len(gens), min(rows, T - r0), x.shape[1]))
        head = 0 if r0 else 1   # the first block starts at x
        if head:
            out[:, 0] = x
        for b, g in enumerate(gens):
            # scaled row by row: a contiguous (r, d) row by a (d,) vector
            # needs no buffers, where the whole strided block takes three
            g.standard_normal(out=out[b, head:])
            out[b, head:] *= scale
        if r0:
            np.add(last, out[:, 0], out=out[:, 0])
        np.add.accumulate(out, axis=1, out=out)
        last = out[:, -1].copy()
        yield out
        del out   # the next block is drawn without this one


def _stepped_blocks(field, gens, x, fine_step, nsteps, stride, rows):
    """Every fine step of a non-constant field, each recorded row written
    into the block being filled, which is given out once full."""
    B, d = x.shape
    left = nsteps // stride + 1   # recorded rows not yet given out
    xi = np.empty((B, _CHUNK_STEPS, d))
    out, filled = None, 0
    for i in range(nsteps + 1):   # x is the state after i fine steps
        if i % stride == 0:
            if out is None:
                out = np.empty((B, min(rows, left), d))
            out[:, filled] = x
            filled += 1
            if filled == out.shape[1]:
                left -= filled
                yield out
                # the next block is allocated without this one
                out, filled = None, 0
        if i == nsteps:
            break
        j = i % _CHUNK_STEPS
        if j == 0:
            for b, g in enumerate(gens):
                g.standard_normal(out=xi[b, :min(_CHUNK_STEPS, nsteps - i)])
        x = em_step(field, x, xi[:, j], fine_step)


def lattice_jump_rate(field, h, fine_step):
    """Largest total jump rate 2 d lam / h^2 of the walk; raises
    Error unless a fine step holds at most 0.1 expected jumps."""
    rate = 2.0 * field.dim * field.lam / h ** 2
    if rate * fine_step > 0.1 + 1e-12:
        raise Error(
            f"embedding too coarse: max jump rate {rate:.3g} * fine step "
            f"{fine_step:.3g} exceeds 0.1; enlarge h or refine the grid")
    return rate


def _lattice_batch_states(field, law, horizon, fine_step, seed, path_ids,
                          stride=1, h=0.05):
    """Continuous-time lattice walk batch, recorded on the uniform grid.

    Each round moves every live path by a window of up to ``_LOOKAHEAD``
    jumps.  A path reads its next exponentials and uniforms from its own
    columns and guesses the window's choices from the rates at its last
    pre-jump position (equal rates at the start), which fixes the window's
    pre-jump positions; one field call gives the true rates at all of
    them.  The jumps up to and including the first whose true choice
    differs from the guess, or whose arrival passes the horizon, are kept
    and their output slots written.  A kept jump sees the position, rates,
    time and choice of the one-jump-at-a-time walk through the same
    floating-point operations, so the states do not depend on the window
    size, and a window of 1 is that walk.
    """
    nsteps = _nsteps(horizon, fine_step, stride)
    d = field.dim
    max_rate = lattice_jump_rate(field, h, fine_step)

    gens = [path_rng(seed, pid) for pid in path_ids]
    B = len(gens)
    x = _start_points(law, gens, d)
    dt_out = fine_step * stride
    T = nsteps // stride + 1
    out = np.empty((B, T, d))

    # pre-drawn randomness blocks; column j of a path drives its jump j
    mean_jumps = max_rate * horizon
    block = max(64, int(mean_jumps * 1.25 + 8.0 * np.sqrt(mean_jumps) + 16))
    expo = unif = np.empty((B, 0))

    K = _LOOKAHEAD
    window = np.arange(K)
    # the live paths: their rows of out and their state
    ids = np.arange(B)
    t = np.zeros(B)
    nf = np.zeros(B, dtype=np.int64)      # first output slot not written
    used = np.zeros(B, dtype=np.int64)    # jumps taken, columns consumed
    guess = np.ones((B, 2 * d))           # rates the choices are guessed from
    flat_out = out.reshape(B * T, d)
    # the 2d half-step neighbours: rows +e_0, -e_0, +e_1, -e_1, ...
    shifts = np.zeros((2 * d, 1, 1, d))
    shifts[0::2, 0, 0] = np.eye(d) * (h / 2.0)
    shifts[1::2, 0, 0] = -np.eye(d) * (h / 2.0)
    # the step of choice m, in the same order; x + -0.0 is x, even for -0.0
    moves = np.full((2 * d, d), -0.0)
    moves[0::2][np.eye(d, dtype=bool)] = h
    moves[1::2][np.eye(d, dtype=bool)] = -h

    while ids.size:
        n = ids.size
        while used.max() + K > expo.shape[1]:
            new_e = np.empty((B, block))
            new_u = np.empty((B, block))
            for b, g in enumerate(gens):
                g.standard_exponential(out=new_e[b])
                g.random(out=new_u[b])
            if expo.shape[1]:
                new_e = np.concatenate([expo, new_e], axis=1)
                new_u = np.concatenate([unif, new_u], axis=1)
            expo, unif = new_e, new_u
        rows, cols = ids[:, None], used[:, None] + window
        unif_w = unif[rows, cols]

        # guessed choices, and the pre-jump positions they lead through
        gsum = np.cumsum(guess, axis=1)
        ug = unif_w * gsum[:, -1:]
        mg = sum(ug >= gsum[:, j, None] for j in range(2 * d - 1))
        pre = np.add.accumulate(
            np.concatenate([x[:, None], moves[mg[:, :-1]]], axis=1), axis=1)

        # one field evaluation at the 2d half-step neighbours of every
        # position; jump j moves along axis j // 2 and its rate is that
        # diagonal entry
        diag = field._diag_many((pre + shifts).reshape(2 * d * n * K, d))
        diag = diag.reshape(2 * d, n, K, d)
        rates = np.empty((n, K, 2 * d))
        for j in range(2 * d):
            rates[..., j] = diag[j, ..., j // 2]
        rates /= h ** 2
        total = rates.sum(axis=-1)
        arrive = np.add.accumulate(np.concatenate(
            [t[:, None], expo[rows, cols] / total], axis=1), axis=1)[:, 1:]
        crossed = arrive > horizon
        csum = np.cumsum(rates, axis=-1)
        u = unif_w * total
        m = np.minimum(sum(u >= csum[..., j] for j in range(2 * d)), 2 * d - 1)

        # keep the jumps up to the first wrong guess or horizon crossing
        stop = crossed | (m != mg)
        stop[:, -1] = True
        r = np.arange(n)
        last = stop.argmax(axis=1)

        # record the pre-jump position on every output slot before the
        # arrival: slot s takes that of the first kept jump with idx_excl > s
        idx_excl = np.ceil(np.minimum(arrive, horizon + dt_out) / dt_out)
        idx_excl = np.minimum(idx_excl.astype(np.int64), T)
        idx_excl[crossed] = T
        end = idx_excl[r, last]
        count = end - nf
        if count.any():
            # ids increase, so the keys are sorted and slot s of a path,
            # flat index ids * T + s, finds the first of that path's jumps
            base = ids * T
            key = np.minimum(idx_excl, end[:, None]) + base[:, None]
            slot = np.repeat(base + nf - (np.cumsum(count) - count),
                             count) + np.arange(count.sum())
            k = np.searchsorted(key.ravel(), slot, side="right")
            flat_out[slot] = pre.reshape(n * K, d)[k]

        # take the last kept jump for paths still inside the horizon
        go = ~crossed[r, last]
        r, last = r[go], last[go]
        x = pre[r, last] + moves[m[r, last]]
        t = arrive[r, last]
        nf = end[r]
        used = used[r] + last + 1
        guess = rates[r, last]
        ids = ids[r]
    return out


def _lattice_blocks(field, law, horizon, fine_step, seed, path_ids,
                    stride=1, h=0.05):
    """The walk's states, drawn whole, given out in blocks of rows."""
    out = _lattice_batch_states(field, law, horizon, fine_step, seed,
                                path_ids, stride=stride, h=h)
    rows = _block_rows(out.shape[0], out.shape[2])
    return (out[:, r0:r0 + rows] for r0 in range(0, out.shape[1], rows))


_SAMPLERS = {"euler-maruyama": _em_blocks, "lattice": _lattice_blocks}


def generate_batch(scheme, field, law, horizon, fine_step, seed, path_ids,
                   stride=1, scheme_params=None):
    """The batch's states at stride multiples for either scheme, both
    endpoints included, as an iterator over consecutive, non-overlapping
    (B, r, d) blocks of time rows, r = _block_rows(B, d) in all but the
    last; ``scheme_params`` are the scheme's keyword arguments (h of the
    lattice).  Arguments are checked on the call, not on the first
    block."""
    if scheme not in _SAMPLERS:
        raise Error(f"unknown scheme {scheme!r}")
    return _SAMPLERS[scheme](field, law, horizon, fine_step, seed, path_ids,
                             stride=stride, **(scheme_params or {}))
