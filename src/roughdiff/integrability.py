"""Weighted integrability checks.

The central device is a trapezoid quadrature with local dyadic refinement:
around a declared singular point the integration region is peeled into
cubic shells whose half-size halves per level.  The partial-sum ladder
over levels is retained; the integral is declared divergent when all
successive shell increments keep their size (ratio above RATIO_THRESHOLD
= 0.99 over the LADDER_LEVELS = 5 refinement levels), and finite
otherwise, in which case a geometric extrapolation of the innermost gap is
added.

For an integrand behaving like r^(-s) near the singular point the shell
increments scale like 2^(l (s - d)), so the ladder ratio separates s < d
(ratios well below 1) from s >= d (ratios at or above 1); the threshold
0.99 puts the logarithmic borderline case on the divergent side.

U is a kernels.PotentialField.  Each rectangle evaluates the derivative
rows of F and U only on U's window (PotentialField.window): a tabulated
U is 0 off its table's axes, so the weighted rows are 0 there too.  The
products are zero-filled to the rectangle's full node set before the
weighted sums, so every sum has the bits of an evaluation at all nodes.

Condition 1 integrates |grad F|^2 U.  Condition 2 integrates, in one pass
over the same nodes, |grad f_k|^2 U for each weak derivative f_k = d_k F
(prop2's denominators) and each entry f_kl^2 U (prop3's); every row keeps
its own ladder and verdict.  check_box_mass, run once per gate, checks
that the box captures U; it reads U once, on one tensor grid over the
box (PotentialField.grid), and takes the boundary from that grid's faces.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .errors import Error

BOUNDARY_MASS_RATIO = 1e-4
SHELL_NODES_LONG = 65
SHELL_NODES_SHORT = 17
LADDER_LEVELS = 5
RATIO_THRESHOLD = 0.99


def _norm_box(box, dim):
    """Normalize a box spec to one (lo, hi) pair per axis."""
    arr = np.asarray(box, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (2,):
            raise Error(f"box must be (lo, hi) pairs, got {box}")
        pairs = [tuple(arr)] * dim
    else:
        if arr.shape != (dim, 2):
            raise Error(
                f"box must have one (lo, hi) per axis, got shape {arr.shape}")
        pairs = [tuple(row) for row in arr]
    for lo, hi in pairs:
        if not hi > lo:
            raise Error(f"degenerate box axis ({lo}, {hi})")
    return pairs


def _axis_nodes(lo, hi, h=None, count=None):
    if count is None:
        count = max(2, int(np.ceil((hi - lo) / h)) + 1)
    nodes = np.linspace(lo, hi, count)
    w = np.full(count, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return nodes, w


def _trap_rect(rows, U, pairs, hs=None, counts=None):
    """Composite tensor trapezoid over a rectangle of each row of
    rows(pts) * U(pts), rows mapping points (N, d) to values (P, N);
    returns the P sums.  rows and U run on U's window of the rectangle's
    nodes only, and the products are 0 on the other nodes."""
    axes = []
    weights = []
    for i, (lo, hi) in enumerate(pairs):
        n, w = _axis_nodes(lo, hi,
                           h=None if hs is None else hs[i],
                           count=None if counts is None else counts[i])
        axes.append(n)
        weights.append(w)
    win = tuple(U.window(axes))
    sub = [ax[w] for ax, w in zip(axes, win)]
    # no meshgrid stays live while rows runs: that keeps the gate's peak
    # RSS down on large 2-d boxes
    pts = np.stack([g.ravel() for g in np.meshgrid(*sub, indexing="ij")],
                   axis=-1)
    part = np.asarray(rows(pts), dtype=float) * U(pts)
    del pts
    # the weights on the window only: the same products as the full
    # box's outer product has there
    wt = functools.reduce(np.multiply.outer,
                          [w[s] for w, s in zip(weights, win)])
    full = np.zeros(tuple(ax.shape[0] for ax in axes))
    sums = []
    for row in part.reshape(len(part), *wt.shape):
        # off the window full stays 0; one contiguous 1-d sum over every
        # node keeps numpy's pairwise blocking, so a row sums to the same
        # bits as it would alone
        full[win] = row * wt
        sums.append(full.ravel().sum())
    return np.array(sums)


def _slabs(box, center, r, axes):
    """The box minus the cube of half-size r at center, which lies inside
    it, as rectangles with shell node counts attached.

    Along each of ``axes`` in turn the slab below the cube and the slab
    above it are cut off, and the axis is clipped to the cube for the
    later cuts; axis 0 lists the slab below first, the other axes the
    slab above.  A slab takes SHELL_NODES_LONG nodes per axis, and
    SHELL_NODES_SHORT across its cut when d > 1.
    """
    rect = list(box)
    for k in axes:
        inner = (center[k] - r, center[k] + r)
        sides = [(rect[k][0], inner[0]), (inner[1], rect[k][1])]
        counts = [SHELL_NODES_LONG] * len(rect)
        if len(rect) > 1:
            counts[k] = SHELL_NODES_SHORT
        for lo, hi in sides if k == 0 else sides[::-1]:
            if lo < hi:
                yield rect[:k] + [(lo, hi)] + rect[k + 1:], tuple(counts)
        rect[k] = inner


@dataclass
class LadderResult:
    """One refined quadrature: base value, shell increments, verdict."""

    finite: bool
    value: float | None
    base: float
    increments: list = dc_field(default_factory=list)
    partial_sums: list = dc_field(default_factory=list)
    ratios: list = dc_field(default_factory=list)
    remainder: float = 0.0


def refined_integral(fn, U, box, h, singular_points, dim):
    """Trapezoid integral of fn U, fn nonnegative, with dyadic shell
    refinement.

    fn maps points (N, d) to values (N,), and U is a PotentialField.  At
    most one singular point is supported (that is all the catalog ever
    declares).
    """
    return _refined_rows(lambda pts: np.asarray(fn(pts))[None], U, box, h,
                         singular_points, dim)[0]


def _refined_rows(rows, U, box, h, singular_points, dim):
    """refined_integral of every row of rows, which maps points (N, d) to
    values (P, N), on one set of nodes; one LadderResult per row."""
    pairs = _norm_box(box, dim)
    sing = [np.atleast_1d(np.asarray(p, dtype=float))
            for p in (singular_points or [])]
    sing = [p for p in sing
            if all(lo < p[i] < hi for i, (lo, hi) in enumerate(pairs))]
    if len(sing) > 1:
        raise Error("at most one singular point inside the box is supported")
    center = sing[0] if sing else None

    r0 = 0.0
    if center is not None:
        edge_gap = min(min(center[i] - lo, hi - center[i])
                       for i, (lo, hi) in enumerate(pairs))
        r0 = min(0.25, 16.0 * h, 0.5 * edge_gap)

    hs = [h] * dim
    base = 0.0
    rects = ([(pairs, None)] if center is None
             else _slabs(pairs, center, r0, range(dim)))
    for rect, _ in rects:
        base = base + _trap_rect(rows, U, rect, hs=hs)

    increments = []
    for lev in range(LADDER_LEVELS if center is not None else 0):
        s_out = r0 * 2.0 ** (-lev)
        s_in = r0 * 2.0 ** (-lev - 1)
        inc = 0.0
        shell = [(c - s_out, c + s_out) for c in center]
        for rect, counts in _slabs(shell, center, s_in, range(dim)[::-1]):
            inc = inc + _trap_rect(rows, U, rect, counts=counts)
        increments.append(inc)
    return [_ladder(b, [float(inc[p]) for inc in increments])
            for p, b in enumerate(base.tolist())]


def _ladder(base, increments):
    """The verdict on one row's shell increments below its base value
    (none without a singular point)."""
    partials = [base]
    running = base
    for inc in increments:
        running += inc
        partials.append(running)
    ratios = [increments[i] / increments[i - 1] if increments[i - 1] > 0
              else 0.0 for i in range(1, len(increments))]
    divergent = len(ratios) > 0 and all(r > RATIO_THRESHOLD for r in ratios)
    if divergent:
        return LadderResult(finite=False, value=None, base=base,
                            increments=increments, partial_sums=partials,
                            ratios=ratios)
    remainder = 0.0
    if len(increments) >= 2 and increments[-1] > 0 and increments[-2] > 0:
        rho = increments[-1] / increments[-2]
        if 0.0 < rho < 1.0:
            remainder = increments[-1] * rho / (1.0 - rho)
    return LadderResult(finite=True, value=running + remainder, base=base,
                        increments=increments, partial_sums=partials,
                        ratios=ratios, remainder=remainder)


def check_box_mass(U, box, h, dim):
    """The box must capture the weight: boundary values of U small
    relative to its maximum inside.  Raises Error when the box visibly
    truncates U.

    U is read once, on one tensor grid over the box: nodes at most h
    apart in 1-d, 65 per axis in 2-d; u_b is its maximum on the faces."""
    pairs = _norm_box(box, dim)
    counts = ([int(np.ceil((hi - lo) / h)) + 1 for lo, hi in pairs]
              if dim == 1 else [65] * dim)
    vals = U.grid([np.linspace(lo, hi, n)
                   for (lo, hi), n in zip(pairs, counts)])
    u_in = float(vals.max())
    u_b = float(np.max([np.take(vals, [0, -1], axis=k).max()
                        for k in range(dim)]))
    if u_in <= 0:
        raise Error("the potential vanishes on the whole box")
    if u_b > BOUNDARY_MASS_RATIO * u_in:
        raise Error(
            f"potential at the box boundary ({u_b:.3g}) exceeds "
            f"{BOUNDARY_MASS_RATIO:g} of its interior maximum ({u_in:.3g}); "
            "enlarge the box")


@dataclass
class ConditionResult:
    """Verdict of a weighted integrability condition."""

    kind: str
    finite: bool
    value: float | None
    ladder: LadderResult | None = None
    entry_values: np.ndarray | None = None
    entry_finite: np.ndarray | None = None
    entry_ladders: list | None = None
    components: list | None = None

    def payload(self):
        """The verdict as manifest evidence: every ladder without its
        value, and the per-entry verdicts of condition 2."""
        lads = [self.ladder] if self.ladder is not None else self.entry_ladders
        out = {"finite": self.finite,
               "value": None if self.value is None else float(self.value),
               "ladders": [{k: v for k, v in asdict(l).items()
                            if k != "value"} for l in lads]}
        if self.entry_finite is not None:
            out["entry_finite"] = self.entry_finite.ravel().tolist()
        return out


def _condition_1(lad):
    return ConditionResult(kind="condition_1", finite=lad.finite,
                           value=lad.value, ladder=lad)


def check_condition_1(F, U, box, h):
    """Quadrature verdict on the gradient condition  int |grad F|^2 U < oo.

    ``U`` is a PotentialField; grad F and U are evaluated on its window
    only.  The box is not checked here: see check_box_mass.
    """
    return _condition_1(refined_integral(
        lambda pts: (F.gradient(pts) ** 2).sum(axis=-1), U, box, h,
        F.singular_points, F.dim))


def check_condition_2(F, U, box, h):
    """Quadrature verdicts on the weak derivatives f_k = d_k F, in one pass:
    int sum_{k,l} f_kl^2 U < oo kept per entry (prop3's denominator), and
    in ``components`` the condition-1 result int |grad f_k|^2 U of each
    f_k (prop2's), from one hessian and one U call per node of U's window.

    ``U`` is a PotentialField; the box is not checked here (see
    check_box_mass).
    """
    d = F.dim

    def rows(pts):
        hess = F.hessian(pts)
        out = [(hess[..., k, :] ** 2).sum(-1) for k in range(d)]
        out += [hess[..., k, l] ** 2 for k in range(d) for l in range(d)]
        return np.stack(out)

    lads = _refined_rows(rows, U, box, h, F.singular_points, d)
    ladders = lads[d:]
    entry_finite = np.array([l.finite for l in ladders]).reshape(d, d)
    entry_values = np.array([l.value if l.finite else np.inf
                             for l in ladders]).reshape(d, d)
    finite = bool(entry_finite.all())
    value = float(entry_values.sum()) if finite else None
    return ConditionResult(kind="condition_2", finite=finite, value=value,
                           entry_values=entry_values,
                           entry_finite=entry_finite, entry_ladders=ladders,
                           components=[_condition_1(l) for l in lads[:d]])
