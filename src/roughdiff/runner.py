"""Scenario orchestration: configs, gating, dyadic sweeps, reports.

A scenario is a JSON document naming a coefficient field, a test function,
an initial law, a horizon, a list of dyadic orders, a path budget, and the
sweeps to run.  Loading fills defaults and canonicalizes the result
(sorted keys, every number as a float) before hashing, so semantically
equal configs share a hash.  Integrability gates run before any path is
simulated: a scenario whose test function fails its condition against the
initial law's potential dies in seconds, not minutes.

Per-path sums are a bitwise-deterministic function of (scenario,
path_id): workers receive contiguous path_id chunks and return one fixed
record of sums per dyadic grid (calculus.GridPass), whatever sweeps are
listed.  The reduction walks the records in path_id order, a block of
paths at a time, applies the sweep table, the gate's denominators and the
trapezoid gap to each path, and streams the values through two
compensated passes.  Each of these is elementwise per path, and every
reduction is a fixed-order compensated sum, so neither the worker count,
the batch and block sizes nor the companion sweeps can change a byte of
the emitted CSVs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import pickle
import signal
import time
from collections import namedtuple
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__
from . import calculus, fields, integrability, kernels, sampling, testfunctions
from .errors import ConditionViolated, ConfigError, Error

BATCH_PATHS = 256
TRAPEZOID_TOL = 1e-10
LEAKAGE_TOL = 1e-3
CSV_HEADER = "functional,n,mean,stderr,count"


# ---------------------------------------------------------------- sweep table

@dataclass(frozen=True)
class PathSweep:
    """One path sweep.  ``functional`` and ``denom`` hold ``{k}`` when the
    sweep reports one functional per axis k.  ``value(p, k)`` reads one
    dyadic grid's record ``p`` (see calculus.GridPass.record); the result is
    divided by the gate_scenario denominator ``denom`` if there is one.
    ``gate`` is the integrability condition (1 or 2) the sweep relies on,
    and ``verdict`` is "report", "trapezoid" (gap within TRAPEZOID_TOL) or
    "no-growth" (see _no_growth)."""

    name: str
    functional: str
    gate: int
    denom: str | None
    verdict: str
    value: object


def _half_covariation(p):
    cov = p["cov"]
    half = 0.5 * cov[0]
    for c in cov[1:]:
        half = half + 0.5 * c
    return half


def _covariation_total(p, k):
    cov = p["cov"]
    total = cov[0] + 0.0
    for c in cov[1:]:
        total = total + c
    return total


def _ito_residual(p, k):
    """|R_n|, R_n = F(X_S) - F(X_0) - forward sum - half covariation."""
    v = p["v"]
    return np.abs((v[1] - v[0]) - p["fwd"] - _half_covariation(p))


SWEEP_TABLE = {row.name: row for row in (
    #         name            functional          gate  denom
    #         verdict      value
    PathSweep("qv",           "qv",               1,    None,
              "report",    lambda p, k: p["qv"]),
    PathSweep("covariation",  "covariation",      1,    None,
              "report",    _covariation_total),
    PathSweep("forward",      "forward",          1,    None,
              "report",    lambda p, k: p["fwd"]),
    PathSweep("trapezoid",    "trapezoid",        1,    None,
              "trapezoid", lambda p, k: p["trap"]),
    PathSweep("ito_residual", "ito_residual_abs", 2,    None,
              "report",    _ito_residual),
    PathSweep("prop1",        "prop1_ratio",      1,    "prop1",
              "no-growth", lambda p, k: p["qv"]),
    PathSweep("prop2",        "prop2_ratio_k{k}", 1,    "prop2_k{k}",
              "no-growth", lambda p, k: p["cov_abs"][k]),
    PathSweep("prop3",        "prop3_ratio",      2,    "prop3",
              "no-growth", lambda p, k: p["taylor"]),
)}

PATH_SWEEPS = tuple(SWEEP_TABLE)
SWEEPS = PATH_SWEEPS + ("aronson", "potential")
RATIO_SWEEPS = frozenset(s for s, row in SWEEP_TABLE.items() if row.denom)


def sweep_values(rows, p, denoms):
    """Per-path values of the rows' functionals on one dyadic grid.

    p: the grid's record (see calculus.GridPass.record) over B paths; denoms:
    the gate_scenario denominators.  Returns ({(sweep, functional): (B,)
    array}, gap), where gap is the largest relative distance of the
    trapezoid sum from forward + half covariation.  Every value is
    elementwise per path, so the bits do not depend on B.
    """
    out = {}
    for row in rows:
        per_axis = "{k}" in row.functional
        for k in range(len(p["cov"])) if per_axis else [None]:
            val = row.value(p, k)
            if row.denom:
                val = val / denoms[row.denom.format(k=k)]
            out[(row.name, row.functional.format(k=k))] = val
    rel = np.abs(p["trap"] - p["fwd"] - _half_covariation(p))
    rel /= np.maximum(1.0, np.abs(p["trap"]))
    return out, float(rel.max())


def _no_growth(rows, window=3):
    """True iff the last ``window`` report rows (functional, n, mean,
    stderr, count), in increasing n, show no growth beyond 3 stderr."""
    tail = rows[-window:]
    for (_, _, m0, se0, _), (_, _, m1, se1, _) in zip(tail, tail[1:]):
        if m1 > m0 + 3.0 * float(np.hypot(se0, se1)):
            return False
    return True


# ---------------------------------------------------------------- canonical

def _canon(obj):
    """Sorted keys, every number a float; the shape hashes depend on."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, float)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _canon(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    raise ConfigError(f"value {obj!r} cannot appear in a scenario config")


def canonical_json(spec):
    return json.dumps(_canon(spec), sort_keys=True, separators=(",", ":"))


def scenario_hash(spec):
    """Stable digest of a canonicalized scenario (name and out_dir are
    presentation details and do not enter the hash)."""
    trimmed = {k: v for k, v in spec.items() if k not in ("name", "out_dir")}
    digest = hashlib.sha256(canonical_json(trimmed).encode()).hexdigest()
    return digest[:16]


# ---------------------------------------------------------------- schema

REQUIRED = ...


# One config key; the catalogs write theirs as plain tuples.  kind:
# integer, number, bool, enum, string, list, box or object.  default: a
# value, REQUIRED, or a function of the section and the top level parsed
# so far; with None the key may be left out.  bound: the least integer,
# the number a number must exceed, or the choices of an enum.  A list
# holds items of kind (or Key) item, or numbers and lists of them; a box
# is a (lo, hi) pair or one per axis.  An object is parsed against table,
# or against table[v] for v the value at the key path select (a key of
# the section, or a top-level key).
Key = namedtuple("Key", "kind default bound item table select",
                 defaults=(None,) * 5)


def _dim(top):
    field = top["field"]
    return field["dim"] if "dim" in field else len(field["values"])


def _default_potential(section, top):
    """The closed form for a constant 1-d field, mollified or not, from a
    Dirac start, the case kernels.check_closed_form admits, else Monte
    Carlo seeded like the paths."""
    law, field = top["law"], top["field"]
    if law and law["kind"] == "dirac" and field["name"] in (
            "identity", "constant-diagonal") and _dim(top) == 1:
        return {"route": "closed-form"}
    return {"route": "monte-carlo", "n_samples": 200_000, "seed": top["seed"]}


_GRID = {"box": Key("box", REQUIRED), "h": Key("number", REQUIRED, 0.0)}
# every route: the potential sweep integrates U over box at step h
_SWEEP = {"box": Key("box", [-10.0, 10.0]), "h": Key("number", 0.01, 0.0)}
POTENTIAL_ROUTES = {
    "closed-form": _SWEEP,
    "monte-carlo": {"n_samples": Key("integer", 200_000,
                                     kernels.MIN_KDE_SAMPLES),
                    "seed": Key("integer", lambda s, top: top["seed"], 0),
                    "step": Key("number", 2.0 ** -9, 0.0),
                    "t_cap": Key("number", 16.0, 0.0), **_SWEEP},
    "grid": {"kernel": Key("object", REQUIRED, table=_GRID), **_SWEEP},
}
KERNEL = {**_GRID, "dt": Key("number", REQUIRED, 0.0),
          "times": Key("list", REQUIRED, item=("number", None, 0.0)),
          "candidates": Key("list", REQUIRED, item="number"),
          "x0": Key("list", lambda s, top: [0.0] * _dim(top), item="number")}
SCHEME_PARAMS = {"euler-maruyama": {},
                 "lattice": {"h": Key("number", 0.05, 0.0)}}

CONFIG_SCHEMA = {
    "name": Key("string"),
    "field": Key("object", REQUIRED, table=fields.PARAMS,
                 select="field.name"),
    "function": Key("object", table=testfunctions.PARAMS,
                    select="function.name"),
    "law": Key("object", table=sampling.LAWS, select="law.kind"),
    "horizon": Key("number", 1.0, 0.0),
    "orders": Key("list", [4, 6, 8], item=("integer", None, 0)),
    "n_paths": Key("integer", 100, 1),
    "scheme": Key("enum", "euler-maruyama", tuple(SCHEME_PARAMS)),
    "scheme_params": Key("object", {}, table=SCHEME_PARAMS, select="scheme"),
    "fine_margin": Key("integer", 4, 1),
    "seed": Key("integer", 0, 0),
    "sweeps": Key("list", [], item=("enum", None, SWEEPS)),
    "allow_unverified": Key("bool", False),
    "box": Key("box", lambda s, top: [-10.0, 10.0] if _dim(top) == 1
               else [-25.0, 25.0]),
    "quad_h": Key("number", lambda s, top: 0.01 if _dim(top) == 1 else 0.1,
                  0.0),
    "potential": Key("object", _default_potential, table=POTENTIAL_ROUTES,
                     select="potential.route"),
    "kernel": Key("object", table=KERNEL),
    "out_dir": Key("string"),
}


def _key(spec):
    """A Key from its tuple, or from a bare kind such as "number"."""
    return Key(spec) if isinstance(spec, str) else Key(*spec)


def _is_list(value):
    return isinstance(value, (list, tuple))


def _finite(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _coerce(path, k, value, top):
    """``value`` of the key ``k`` at ``path``, checked and typed."""
    def bad(what):
        return ConfigError(f"{path}: must be {what}, got {value!r}")

    if k.kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int) and not (
                isinstance(value, float) and value.is_integer()):
            raise bad("an integer")
        if k.bound is not None and value < k.bound:
            raise bad(f">= {k.bound}")
        return int(value)
    if k.kind == "number":
        if not _finite(value):
            raise bad("a finite number")
        if k.bound is not None and value <= k.bound:
            raise bad(f"> {k.bound:g}")
        return float(value)
    if k.kind == "bool" and not isinstance(value, bool):
        raise bad("true or false")
    if k.kind in ("enum", "string") and not isinstance(value, str):
        raise bad("a string")
    if k.kind == "enum" and value not in k.bound:
        raise bad(f"one of {', '.join(k.bound)}")
    if k.kind in ("bool", "enum", "string"):
        return value
    if k.kind == "box":
        nested = _is_list(value) and len(value) > 0 and _is_list(value[0])
        pairs = value if nested else [value]
        if nested and len(pairs) != _dim(top) or not all(
                _is_list(p) and len(p) == 2 and _finite(p[0])
                and _finite(p[1]) and p[0] < p[1] for p in pairs):
            raise bad("a (lo, hi) pair with lo < hi, or one per axis")
        box = [[float(lo), float(hi)] for lo, hi in pairs]
        return box if nested else box[0]
    if k.kind == "list":
        if not _is_list(value):
            raise bad("a list")
        return [_coerce(path, _key(k.item) if k.item else (
                    k if _is_list(v) else Key("number")), v, top)
                for v in value]
    if not isinstance(value, dict):
        raise bad("an object")
    return _walk(path + ".", _subtable(path, k, value, top), value, top)[0]


def _subtable(path, k, raw, top):
    """The table of an object section; a selector inside the section is
    parsed first and heads the table."""
    if k.select is None:
        return k.table
    owner, _, sel = k.select.rpartition(".")
    if not owner:
        return k.table[top[sel]]
    choice = Key("enum", REQUIRED, tuple(k.table))
    value = _walk(path + ".", {sel: choice}, {sel: raw.get(sel)}, top)[0]
    return {sel: choice, **k.table[value[sel]]}


def _walk(path, table, raw, top=None):
    """(parsed, given) of the config section ``raw``: each key of
    ``table`` typed, or its default where ``raw`` leaves it out or null,
    and the values as written plus those defaults.  Raises ConfigError
    naming the key path of an unknown, missing or mistyped key."""
    for key in raw:
        if key not in table:
            raise ConfigError(f"{path}{key}: unknown key; " + (
                f"expected one of {', '.join(table)}" if table
                else "the section takes no keys"))
    out, given = {}, {}
    top = out if top is None else top
    for key, spec in table.items():
        k = _key(spec)
        value = raw.get(key)
        if value is None:
            value = k.default(out, top) if callable(k.default) else k.default
            if value is REQUIRED:
                raise ConfigError(f"{path}{key}: required")
        given[key] = value
        out[key] = None if value is None else _coerce(path + key, k, value,
                                                      top)
    return out, given


def _checked(key, fn, *args, **kw):
    """fn(*args, **kw) for a builder or check of the config key ``key``;
    a ValueError it raises (Error is one) becomes a ConfigError naming key."""
    try:
        return fn(*args, **kw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}")


def _gate_skipped(sweeps, allow_unverified):
    """allow_unverified skips the path sweeps' gates unless a ratio sweep
    needs the integrals they compute."""
    return allow_unverified and not set(sweeps) & RATIO_SWEEPS


# ---------------------------------------------------------------- scenario

@dataclass
class Scenario:
    """A validated run description plus its resolved objects: ``cfg`` is
    the parsed config and ``spec`` the canonical form the hash reads."""

    spec: dict
    hash: str
    cfg: dict
    field: object
    F: object
    law: object
    out_dir: str

    horizon = property(lambda self: self.cfg["horizon"])
    orders = property(lambda self: self.cfg["orders"])
    n_paths = property(lambda self: self.cfg["n_paths"])
    seed = property(lambda self: self.cfg["seed"])
    sweeps = property(lambda self: self.cfg["sweeps"])
    scheme = property(lambda self: self.cfg["scheme"])
    allow_unverified = property(lambda self: self.cfg["allow_unverified"])
    box = property(lambda self: self.cfg["box"])
    quad_h = property(lambda self: self.cfg["quad_h"])

    @property
    def fine_step(self):
        return sampling.fine_step_for(self.horizon, max(self.orders),
                                      margin=self.cfg["fine_margin"])


def read_config(path):
    """The JSON document in the config file ``path``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}")


def load_scenario(config, out_dir=None, seed_override=None):
    """Parse, default-fill, validate, and hash a scenario config.

    ``config`` is a path to a JSON file or an equivalent dict.  One walk
    over CONFIG_SCHEMA types every key; the rules that tie keys together
    follow.  Raises ConfigError naming the offending key path.
    """
    raw = (read_config(config) if isinstance(config, (str, os.PathLike))
           else config)
    if not isinstance(raw, dict):
        raise ConfigError("config: must be a JSON object")
    if seed_override is not None:
        raw = {**raw, "seed": seed_override}
    cfg, given = _walk("", CONFIG_SCHEMA, raw)

    sweeps = set(cfg["sweeps"])
    if len(sweeps) != len(cfg["sweeps"]):
        twice = sorted(s for s in sweeps if cfg["sweeps"].count(s) > 1)
        raise ConfigError(f"sweeps: {', '.join(twice)} listed more than once")
    paths = sweeps & set(PATH_SWEEPS)
    orders = cfg["orders"]
    if orders != sorted(set(orders)):
        raise ConfigError("orders: must be strictly increasing")
    if paths and not orders:
        raise ConfigError("orders: at least one dyadic order is required")
    if orders:
        _checked("orders", sampling.fine_step_for, cfg["horizon"],
                 orders[-1], cfg["fine_margin"])

    # the sweeps run and report the same in any order, so they hash in
    # table order
    given["sweeps"] = sorted(cfg["sweeps"], key=SWEEPS.index)
    spec = _canon({k: v for k, v in given.items()
                   if k not in ("name", "out_dir")})
    digest = scenario_hash(spec)
    scn = Scenario(
        spec=spec, hash=digest, cfg=cfg,
        field=_checked("field", fields.make_field, **cfg["field"]),
        F=cfg["function"] and _checked(
            "function", testfunctions.make_test_function, **cfg["function"]),
        law=cfg["law"] and _checked("law", sampling.make_law, **cfg["law"]),
        out_dir=str(out_dir or cfg["out_dir"]
                    or os.path.join("runs", digest)))
    field, F, law = scn.field, scn.F, scn.law
    for key, needed, obj in (("function", paths, F),
                             ("law", paths or "potential" in sweeps, law),
                             ("kernel", "aronson" in sweeps, cfg["kernel"])):
        if needed and obj is None:
            raise ConfigError(f"{key}: section required by the listed sweeps")
    for key, obj in (("function", F), ("law", law)):
        if obj is not None and obj.dim != field.dim:
            raise ConfigError(f"{key}: dimension {obj.dim} != field "
                              f"dimension {field.dim}")
    if paths and scn.scheme == "euler-maruyama":
        _checked("scheme", sampling.check_em_field, field)
    route = cfg["potential"]["route"]
    if "potential" in sweeps or paths and not _gate_skipped(
            sweeps, scn.allow_unverified):
        if route == "monte-carlo":
            _checked("potential.route", sampling.check_em_field, field)
        if route == "closed-form":
            _checked("potential.route", kernels.check_closed_form, field, law)
        # the Monte Carlo bandwidths, the L^2 tail and the box and quad_h
        # defaults stop at d = 2; the read and the quadrature run in any d
        if field.dim > 2:
            raise ConfigError(f"potential.route: {route} covers d = 1 or 2, "
                              f"got d = {field.dim}")
        if route == "grid":
            pk = cfg["potential"]["kernel"]
            _checked("potential.kernel.h", kernels.fv_grid, field, pk["box"],
                     pk["h"])
            _checked("potential.kernel.box", kernels.hull_gap, law, pk["box"])
            # the gate integrates U over box, and U is 0 off the kernel grid
            lo, hi = np.reshape(pk["box"], (-1, 2)).T
            qlo, qhi = np.reshape(cfg["box"], (-1, 2)).T
            if (paths and not _gate_skipped(sweeps, scn.allow_unverified)
                    and (np.any(qlo < lo) or np.any(qhi > hi))):
                raise ConfigError(
                    f"box: {cfg['box']} must lie inside potential.kernel.box "
                    f"{pk['box']}, where the grid route computes U")
    if "potential" in sweeps:
        # the L^2 tail is measured from the law's hull to the box faces
        _checked("potential.box", kernels.hull_gap, law,
                 cfg["potential"]["box"], interior=True)
        # the sweep integrates U on the vertex grid of box at step h
        _checked("potential.h", kernels._axes_volumes,
                 cfg["potential"]["box"], cfg["potential"]["h"], field.dim)
    if "aronson" in sweeps:
        k = cfg["kernel"]
        axes, _ = _checked("kernel.h", kernels.fv_grid, field, k["box"],
                           k["h"])
        _checked("kernel.dt", kernels.check_step, k["dt"], k["h"], field.lam)
        _checked("kernel.x0", kernels.source_node, axes, k["h"], k["x0"])
        _checked("kernel.times", kernels.snap_times, k["times"], k["dt"])
        _checked("kernel.candidates", kernels.check_candidates,
                 k["candidates"])
    return scn


# ---------------------------------------------------------------- gating

def resolve_potential(scn):
    """Build the potential U nu the scenario's checks and sweeps rely on."""
    cfg = scn.cfg["potential"]
    route = cfg["route"]
    # the route's own keys; box and h of the section are the sweep's
    kw = ({k: cfg[k] for k in ("n_samples", "seed", "step", "t_cap")}
          if route == "monte-carlo" else cfg.get("kernel", {}))
    return kernels.resolvent_potential(route, scn.law, field=scn.field, **kw)


def gate_scenario(scn):
    """Integrability checks before simulation; returns (conditions,
    denominators, U).  The box mass is checked once, then each requested
    condition; condition 2 also yields prop2's integrals.  A divergent
    condition raises ConditionViolated with its evidence ladder
    attached unless allow_unverified is set and no requested sweep divides
    by its integral.
    """
    sweeps = set(scn.sweeps) & set(PATH_SWEEPS)
    if not sweeps:
        return {}, {}, None
    if _gate_skipped(sweeps, scn.allow_unverified):
        return {"skipped": "allow_unverified"}, {}, None

    U = resolve_potential(scn)
    F, box, h = scn.F, scn.box, scn.quad_h
    integrability.check_box_mass(U, box, h, F.dim)
    gates = {SWEEP_TABLE[s].gate for s in sweeps}
    conditions = {}
    denoms = {}

    def passed(which, key, cond, divisor, detail):
        # divisor: the sweep that divides by the integral
        conditions[key] = cond.payload()
        if not cond.finite and (divisor in sweeps
                                or not scn.allow_unverified):
            exc = ConditionViolated(
                f"condition {which} diverges: {detail}; shell-increment "
                "ratios stay above the geometric threshold (evidence ladder "
                "attached)")
            exc.evidence = conditions[key]
            raise exc
        return cond.finite

    if 1 in gates:
        c1 = integrability.check_condition_1(F, U, box, h)
        if passed(1, "condition_1", c1, "prop1",
                  f"int |grad {F.name}|^2 U is not integrable"):
            denoms["prop1"] = float(c1.value)
    if "prop2" in sweeps or 2 in gates:
        c2 = integrability.check_condition_2(F, U, box, h)
        for k, ck in enumerate(c2.components if "prop2" in sweeps else ()):
            passed(1, f"condition_1_d{k}", ck, "prop2",
                   f"int |grad {F.name}.d{k}|^2 U is not integrable")
            denoms[f"prop2_k{k}"] = float(np.sqrt(ck.value))
        if 2 in gates and passed(
                2, "condition_2", c2, "prop3",
                f"a squared second derivative of {F.name} weighted by U is "
                "not integrable"):
            denoms["prop3"] = float(np.sqrt(c2.entry_values).sum())
    return conditions, denoms, U


# ---------------------------------------------------------------- evaluation

def evaluate_chunk(scn, start, stop):
    """The GridPass record of each order's grid for path_ids in
    [start, stop).

    Paths are drawn BATCH_PATHS at a time, and a batch's states arrive in
    time blocks (sampling.generate_batch); each block is fed to one
    calculus.GridPass per order, which takes the block's rows on its own
    grid, and is released before the next is drawn.  So the working set is
    one block of states, and F and grad F live one pass block of rows at a
    time.  Returns {n: record}, each array's last axis indexed by path_id -
    start.  Raises Error naming the first path whose F or grad F is not
    finite at a recorded state, or whose sum over a grid is not finite.
    """
    orders = scn.orders
    n_top = max(orders)
    stride = round(scn.horizon / scn.fine_step) // 2 ** n_top
    F = scn.F
    out = dict.fromkeys(orders)

    for b0 in range(start, stop, BATCH_PATHS):
        b1 = min(b0 + BATCH_PATHS, stop)
        # the top order first: its grid holds every recorded state
        passes = {n: calculus.GridPass(F, b1 - b0, scn.field.dim)
                  for n in reversed(orders)}
        row = 0   # the block's first row on the top order's grid
        for block in sampling.generate_batch(
                scn.scheme, scn.field, scn.law, scn.horizon, scn.fine_step,
                scn.seed, range(b0, b1), stride=stride,
                scheme_params=scn.cfg["scheme_params"]):
            for n, p in passes.items():
                step = 2 ** (n_top - n)
                p.feed(block[:, -row % step::step])
            row += block.shape[1]
            del block   # released before the next block is drawn
        for n, p in passes.items():
            rec = p.record()
            if not rec["finite"].all():
                raise Error(
                    f"path {b0 + int(np.argmax(~rec['finite']))}: {F.name} "
                    "or its gradient is not finite at a recorded state, or "
                    "a sum over its grid is not")
            if out[n] is None:
                out[n] = {k: np.empty(v.shape[:-1] + (stop - start,), v.dtype)
                          for k, v in rec.items()}
            for k, v in rec.items():
                out[n][k][..., b0 - start:b1 - start] = v
    return out


def _evaluate_spans(scn, spans):
    """evaluate_chunk(scn, a, b) for each span (a, b) of path_ids.  With
    more than one span, each runs in a forked child that inherits the
    loaded scenario and pickles (ok, result or exception) into its own
    pipe.  The results are read in span order and a child's exception is
    re-raised unchanged, so a failing run ends as a one-worker run does.
    Every child is killed and reaped on the way out.  One span, or a
    platform without os.fork, runs in this process, span after span."""
    if len(spans) == 1 or not hasattr(os, "fork"):
        return [evaluate_chunk(scn, a, b) for a, b in spans]
    kids = []   # (pid, read end of its pipe)
    try:
        for a, b in spans:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:   # the child: no atexit handlers, no stdout flush
                try:
                    try:
                        got = (True, evaluate_chunk(scn, a, b))
                    except BaseException as exc:
                        got = (False, exc)
                    with os.fdopen(w, "wb") as fh:
                        pickle.dump(got, fh, pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(0)
            os.close(w)
            kids.append((pid, os.fdopen(r, "rb")))
        chunks = []
        for (a, b), (_, fh) in zip(spans, kids):
            try:
                ok, got = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):
                raise Error(f"paths {a} to {b - 1}: the worker exited "
                            "without a result") from None
            if not ok:
                raise got
            chunks.append(got)
        return chunks
    finally:
        for pid, fh in kids:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------- manifest

@dataclass
class RunManifest:
    """What a run produced and whether its gated checks passed."""

    scenario_hash: str
    version: str
    out_dir: str
    spec: dict
    reports: dict = dc_field(default_factory=dict)
    artifacts: dict = dc_field(default_factory=dict)
    verdicts: dict = dc_field(default_factory=dict)
    conditions: dict = dc_field(default_factory=dict)
    incidents: dict = dc_field(default_factory=dict)
    wall_clock_s: float = 0.0
    workers: int = 1

    def all_pass(self):
        return all(v != "FAIL" for v in self.verdicts.values())

    def payload(self):
        return {k: v for k, v in dataclasses.asdict(self).items()
                if k != "out_dir"}

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.payload(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _fmt(v):
    return repr(float(v))


def write_report_csv(path, rows):
    """rows: iterables (functional, n, mean, stderr, count)."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for functional, n, mean, se, count in rows:
            fh.write(f"{functional},{int(n)},{_fmt(mean)},{_fmt(se)},"
                     f"{int(count)}\n")


def read_report_csv(path):
    """Rows (functional, n, mean, stderr, count) of a report file.  Raises
    Error naming the file when it is missing or malformed."""
    rows = []
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise Error(f"unexpected header {header!r}")
            for line in fh:
                functional, n, mean, se, count = line.strip().split(",")
                rows.append((functional, int(n), float(mean), float(se),
                             int(count)))
    except (OSError, ValueError) as exc:
        raise Error(f"report file {path} is unreadable: {exc}")
    return rows


# ---------------------------------------------------------------- sweeps

def _run_aronson(scn, U, incidents):
    k = scn.cfg["kernel"]
    kern = kernels.solve_kernel_pde(scn.field, k["x0"], k["box"], k["h"],
                                    k["times"], k["dt"])
    if kern.leakage > LEAKAGE_TOL:
        incidents["leakage_warnings"] += 1
    fit = kernels.fit_aronson_M(kern, k["candidates"])
    prefix = os.path.join(scn.out_dir, "kernel")
    kern.save(prefix)
    rows = [("aronson_fit", 0, np.nan if fit is None else fit, 0.0,
             len(kern.times))]
    verdict = "PASS" if fit is not None else "FAIL"
    return rows, verdict, {"kernel": ["kernel.csv", "kernel.json"]}


def _run_potential(scn, U, incidents):
    if U is None:
        U = resolve_potential(scn)
    pbox, ph = scn.cfg["potential"]["box"], scn.cfg["potential"]["h"]
    if U.axes is not None:
        mass = U.integral()
        count = int(np.prod([ax.shape[0] for ax in U.axes]))
    else:
        mass = U.integral(box=pbox, h=ph)
        count = 1
    box_l2, tail_l2 = kernels.potential_Lq_norm(U, scn.law, pbox, h=ph)
    rows = [("potential_mass", 0, mass, 0.0, count),
            ("potential_l2", 0, box_l2 + tail_l2, 0.0, count)]
    artifacts = {}
    if U.axes is not None:
        U.save(os.path.join(scn.out_dir, "potential_field"))
        artifacts["potential_field"] = ["potential_field.csv",
                                        "potential_field.json"]
    verdict = "PASS" if abs(mass - 1.0) <= 0.02 else "FAIL"
    return rows, verdict, artifacts


_KERNEL_SWEEPS = {"aronson": _run_aronson, "potential": _run_potential}


def _path_sweep_reports(scn, chunks, denoms):
    """Reduce the chunks' records into (CSV rows, verdict, artifacts) per
    sweep: the sweep table, the denominators and the trapezoid gap apply
    once per path.  The per-path values are made BATCH_PATHS paths at a
    time, in path_id order, and streamed twice through compensated sums
    (calculus.streamed_mean_stderr), so no table of every path's values
    is built."""
    table = [row for s, row in SWEEP_TABLE.items() if s in scn.sweeps]
    keys, gaps = [], [0.0]

    def blocks():
        """(paths, functionals) values of each block of paths."""
        for chunk in chunks:
            for a in range(0, chunk[scn.orders[0]]["finite"].shape[0],
                           BATCH_PATHS):
                got = {}
                for n in scn.orders:
                    p = {k: v[..., a:a + BATCH_PATHS]
                         for k, v in chunk[n].items()}
                    vals, gap = sweep_values(table, p, denoms)
                    got.update(((s, f, n), v) for (s, f), v in vals.items())
                    gaps.append(gap)
                keys[:] = got
                yield np.stack(list(got.values()), axis=-1)

    means, ses = calculus.streamed_mean_stderr(blocks, scn.n_paths)
    trap_violation = max(gaps)
    rows = {s: [] for s in scn.sweeps if s in PATH_SWEEPS}
    for (sweep, functional, n), mean, se in zip(keys, means, ses):
        rows[sweep].append((functional, n, float(mean), float(se),
                            scn.n_paths))
    out = {}
    for s, sweep_rows in rows.items():
        sweep_rows.sort(key=lambda r: (r[0], r[1]))
        rule = SWEEP_TABLE[s].verdict
        if rule == "trapezoid":
            ok = trap_violation <= TRAPEZOID_TOL
        else:
            ok = all(_no_growth(list(group)) for _, group in
                     itertools.groupby(sweep_rows, key=lambda r: r[0]))
        verdict = "REPORT" if rule == "report" else ("PASS" if ok else "FAIL")
        out[s] = (sweep_rows, verdict, {})
    return out


def run_scenario(config, workers=1, out_dir=None, seed_override=None):
    """Execute a scenario end to end and write its artifacts.

    ``config`` is a JSON file path or an equivalent dict.  Returns the
    RunManifest (also saved as manifest.json in the output directory).
    """
    t0 = time.monotonic()
    if int(workers) < 1:
        raise Error(f"workers: must be >= 1, got {workers}")
    scn = load_scenario(config, out_dir=out_dir, seed_override=seed_override)
    os.makedirs(scn.out_dir, exist_ok=True)
    incidents = {"leakage_warnings": 0}
    conditions, denoms, U = gate_scenario(scn)

    results = {}
    # the manifest's workers: the path chunks that ran
    chunked = 1
    if any(s in PATH_SWEEPS for s in scn.sweeps):
        n = scn.n_paths
        w = min(int(workers), n)
        bounds = np.linspace(0, n, w + 1).astype(int)
        spans = [(int(a), int(b)) for a, b in zip(bounds, bounds[1:])
                 if b > a]
        chunked = len(spans)
        results.update(_path_sweep_reports(
            scn, _evaluate_spans(scn, spans), denoms))
    for s, run in _KERNEL_SWEEPS.items():
        if s in scn.sweeps:
            results[s] = run(scn, U, incidents)

    reports, verdicts, artifacts = {}, {}, {}
    for s, (rows, verdict, arts) in results.items():
        reports[s] = f"{s}.csv"
        write_report_csv(os.path.join(scn.out_dir, reports[s]), rows)
        verdicts[s] = verdict
        artifacts.update(arts)

    manifest = RunManifest(
        scenario_hash=scn.hash, version=__version__, out_dir=scn.out_dir,
        spec=scn.spec, reports=reports, artifacts=artifacts,
        verdicts=verdicts, conditions=conditions, incidents=incidents,
        wall_clock_s=round(time.monotonic() - t0, 3),
        workers=chunked)
    manifest.save(os.path.join(scn.out_dir, "manifest.json"))
    return manifest


# ---------------------------------------------------------------- summaries

def summarize(manifest):
    """Fixed-width text table of every report a manifest points to.

    ``manifest`` is a manifest.json path or a RunManifest.  Raises Error
    when the manifest file or a listed report file is gone or unreadable.
    """
    if isinstance(manifest, RunManifest):
        data = manifest.payload()
        base = manifest.out_dir
    else:
        try:
            with open(manifest) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise Error(f"manifest {manifest} is unreadable: {exc}")
        if not (isinstance(data, dict)
                and isinstance(data.get("verdicts"), dict)
                and isinstance(data.get("reports"), dict)
                and all(isinstance(f, str) for f in data["reports"].values())):
            raise Error(f"manifest {manifest} is unreadable: not an "
                        "object with reports and verdicts objects")
        base = os.path.dirname(os.path.abspath(manifest))
    lines = [f"{'functional':<22}{'n':>4}  {'mean':>14}  {'stderr':>14}"
             f"  {'count':>7}  verdict"]
    for sweep in sorted(data["reports"]):
        rows = read_report_csv(os.path.join(base, data["reports"][sweep]))
        verdict = data["verdicts"].get(sweep, "REPORT")
        for functional, n, mean, se, count in rows:
            lines.append(f"{functional:<22}{n:>4}  {mean:>14.6e}  "
                         f"{se:>14.6e}  {count:>7}  {verdict}")
    return "\n".join(lines) + "\n"
