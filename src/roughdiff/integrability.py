"""Weighted integrability checks.

The central device is a trapezoid quadrature with local dyadic refinement:
around a declared singular point the integration region is peeled into
square shells whose half-size halves per level.  The partial-sum ladder
over levels is retained; the integral is declared divergent when all
successive shell increments keep their size (ratio above RATIO_THRESHOLD
= 0.99 over the LADDER_LEVELS = 5 refinement levels), and finite
otherwise, in which case a geometric extrapolation of the innermost gap is
added.

For an integrand behaving like r^(-s) near the singular point the shell
increments scale like 2^(l (s - d)), so the ladder ratio separates s < d
(ratios well below 1) from s >= d (ratios at or above 1); the threshold
0.99 puts the logarithmic borderline case on the divergent side.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BoxTooSmall, DimensionMismatch, NoHessian

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
            raise DimensionMismatch(f"box must be (lo, hi) pairs, got {box}")
        pairs = [tuple(arr)] * dim
    else:
        if arr.shape != (dim, 2):
            raise DimensionMismatch(
                f"box must have one (lo, hi) per axis, got shape {arr.shape}")
        pairs = [tuple(row) for row in arr]
    for lo, hi in pairs:
        if not hi > lo:
            raise DimensionMismatch(f"degenerate box axis ({lo}, {hi})")
    return pairs


def _axis_nodes(lo, hi, h=None, count=None):
    if count is None:
        count = max(2, int(np.ceil((hi - lo) / h)) + 1)
    nodes = np.linspace(lo, hi, count)
    w = np.full(count, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return nodes, w


def _trap_rect(fn, pairs, hs=None, counts=None):
    """Composite tensor trapezoid of fn over a rectangle."""
    axes = []
    weights = []
    for i, (lo, hi) in enumerate(pairs):
        n, w = _axis_nodes(lo, hi,
                           h=None if hs is None else hs[i],
                           count=None if counts is None else counts[i])
        axes.append(n)
        weights.append(w)
    # no meshgrid stays live while fn runs: that keeps the gate's peak
    # RSS down on large 2-d boxes
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                   axis=-1)
    vals = np.asarray(fn(pts), dtype=float)
    wt = functools.reduce(np.multiply.outer, weights).ravel()
    return float((vals * wt).sum())


def _base_rectangles(pairs, center, r0):
    """The box minus the central square of half-size r0, as rectangles."""
    if center is None:
        return [pairs]
    d = len(pairs)
    c = np.asarray(center, dtype=float)
    rects = []
    if d == 1:
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


def _shell_rectangles(center, s_in, s_out, dim):
    """Square annulus between half-sizes s_in < s_out, as rectangles with
    (long, short) node counts attached."""
    c = np.asarray(center, dtype=float)
    if dim == 1:
        return [
            ([(c[0] - s_out, c[0] - s_in)], (SHELL_NODES_LONG,)),
            ([(c[0] + s_in, c[0] + s_out)], (SHELL_NODES_LONG,)),
        ]
    return [
        ([(c[0] - s_out, c[0] + s_out), (c[1] + s_in, c[1] + s_out)],
         (SHELL_NODES_LONG, SHELL_NODES_SHORT)),
        ([(c[0] - s_out, c[0] + s_out), (c[1] - s_out, c[1] - s_in)],
         (SHELL_NODES_LONG, SHELL_NODES_SHORT)),
        ([(c[0] - s_out, c[0] - s_in), (c[1] - s_in, c[1] + s_in)],
         (SHELL_NODES_SHORT, SHELL_NODES_LONG)),
        ([(c[0] + s_in, c[0] + s_out), (c[1] - s_in, c[1] + s_in)],
         (SHELL_NODES_SHORT, SHELL_NODES_LONG)),
    ]


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


def refined_integral(fn, box, h, singular_points, dim):
    """Trapezoid integral of a nonnegative fn with dyadic shell refinement.

    fn maps points (N, d) to values (N,).  At most one singular point is
    supported (that is all the catalog ever declares).
    """
    pairs = _norm_box(box, dim)
    sing = [np.atleast_1d(np.asarray(p, dtype=float))
            for p in (singular_points or [])]
    sing = [p for p in sing
            if all(lo < p[i] < hi for i, (lo, hi) in enumerate(pairs))]
    if len(sing) > 1:
        raise ValueError("at most one singular point inside the box is "
                         "supported")
    center = sing[0] if sing else None

    r0 = 0.0
    if center is not None:
        edge_gap = min(min(center[i] - lo, hi - center[i])
                       for i, (lo, hi) in enumerate(pairs))
        r0 = min(0.25, 16.0 * h, 0.5 * edge_gap)

    hs = [h] * dim
    base = 0.0
    for rect in _base_rectangles(pairs, center, r0):
        base += _trap_rect(fn, rect, hs=hs)

    if center is None:
        return LadderResult(finite=True, value=base, base=base,
                            partial_sums=[base])

    increments = []
    partials = [base]
    running = base
    for lev in range(LADDER_LEVELS):
        s_out = r0 * 2.0 ** (-lev)
        s_in = r0 * 2.0 ** (-lev - 1)
        inc = 0.0
        for rect, counts in _shell_rectangles(center, s_in, s_out, dim):
            inc += _trap_rect(fn, rect, counts=counts)
        increments.append(inc)
        running += inc
        partials.append(running)
    ratios = [increments[i] / increments[i - 1] if increments[i - 1] > 0
              else 0.0 for i in range(1, LADDER_LEVELS)]
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


def _check_box_mass(potential, box, h, dim):
    """The box must capture the weight: boundary values of U small
    relative to its maximum inside."""
    pairs = _norm_box(box, dim)
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
    u_b = float(np.max(potential(boundary)))
    u_in = float(np.max(potential(inner)))
    if u_in <= 0:
        raise BoxTooSmall("the potential vanishes on the whole box")
    if u_b > BOUNDARY_MASS_RATIO * u_in:
        raise BoxTooSmall(
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

    def ladder_dict(self):
        src = [self.ladder] if self.ladder is not None else (
            self.entry_ladders or [])
        return [
            {"base": l.base, "increments": list(l.increments),
             "partial_sums": list(l.partial_sums), "ratios": list(l.ratios),
             "remainder": l.remainder, "finite": l.finite}
            for l in src if l is not None
        ]


def check_condition_1(F, potential, box, h):
    """Quadrature verdict on the gradient condition  int |grad F|^2 U < oo.

    ``potential`` is any callable mapping points (N, d) to U values (N,).
    Raises BoxTooSmall when the box visibly truncates U.
    """
    _check_box_mass(potential, box, h, F.dim)

    def integrand(pts):
        g = F.gradient(pts)
        return (g ** 2).sum(axis=-1) * np.asarray(potential(pts), dtype=float)

    lad = refined_integral(integrand, box, h, F.singular_points, F.dim)
    return ConditionResult(kind="condition_1", finite=lad.finite,
                           value=lad.value, ladder=lad)


def check_condition_2(F, potential, box, h):
    """Quadrature verdict on the hessian condition
    int sum_{k,l} f_kl^2 U < oo, kept per entry.

    Raises NoHessian when F provides no second derivatives at all.
    """
    if F.hessian is None:
        raise NoHessian(f"{F.name} has no second derivatives")
    _check_box_mass(potential, box, h, F.dim)
    d = F.dim
    entry_values = np.zeros((d, d))
    entry_finite = np.ones((d, d), dtype=bool)
    ladders = []
    for k in range(d):
        for l in range(d):
            def integrand(pts, _k=k, _l=l):
                hkl = F.hessian(pts)[..., _k, _l]
                return hkl ** 2 * np.asarray(potential(pts), dtype=float)

            lad = refined_integral(integrand, box, h, F.singular_points, d)
            ladders.append(lad)
            entry_finite[k, l] = lad.finite
            entry_values[k, l] = lad.value if lad.finite else np.inf
    finite = bool(entry_finite.all())
    value = float(entry_values.sum()) if finite else None
    return ConditionResult(kind="condition_2", finite=finite, value=value,
                           entry_values=entry_values,
                           entry_finite=entry_finite, entry_ladders=ladders)
