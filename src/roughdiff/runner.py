"""Scenario orchestration: configs, gating, dyadic sweeps, reports.

A scenario is a JSON document naming a coefficient field, a test function,
an initial law, a horizon, a list of dyadic orders, a path budget, and the
sweeps to run.  Loading fills defaults and canonicalizes the result
(sorted keys, every number as a float) before hashing, so semantically
equal configs share a hash.  Integrability gates run before any path is
simulated: a scenario whose test function fails its condition against the
initial law's potential dies in seconds, not minutes.

Per-path functional values are a bitwise-deterministic function of
(scenario, path_id): workers receive contiguous path_id chunks, results
are reassembled in path_id order, and every reduction is a fixed-order
compensated sum, so the worker count can never change a byte of the
emitted CSVs.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__
from . import calculus, fields, integrability, kernels, sampling, testfunctions
from .errors import (
    ConditionViolated,
    ConfigError,
    Error,
    MissingReport,
    SingularHit,
    UnknownName,
)

MAX_ATTEMPTS = 8
BATCH_PATHS = 256
TRAPEZOID_TOL = 1e-10
LEAKAGE_TOL = 1e-3
CSV_HEADER = "functional,n,mean,stderr,count"

_TOP_KEYS = frozenset((
    "name", "field", "function", "law", "horizon", "orders", "n_paths",
    "scheme", "scheme_params", "fine_margin", "seed", "sweeps",
    "allow_unverified", "box", "quad_h", "potential", "kernel", "out_dir"))


# ---------------------------------------------------------------- sweep table

@dataclass(frozen=True)
class PathSweep:
    """One path sweep.  ``functional`` and ``denom`` hold ``{k}`` when the
    sweep reports one functional per axis k.  ``value(p, k)`` reads the
    ``needs`` pieces of one dyadic grid from ``p``; the result is divided
    by the gate_scenario denominator ``denom`` if there is one.  ``gate``
    is the integrability condition (1 or 2) the sweep relies on, and
    ``verdict`` is "report", "trapezoid" (gap within TRAPEZOID_TOL) or
    "no-growth" (see _no_growth)."""

    name: str
    functional: str
    needs: tuple
    gate: int
    denom: str | None
    verdict: str
    value: object


def _covariations(p):
    return [calculus.covariation(p["g"][..., k], p["s"][..., k])
            for k in range(p["s"].shape[-1])]


def _half_covariation(p):
    covs = p["covs"]
    half = 0.5 * covs[0].value
    for c in covs[1:]:
        half = half + 0.5 * c.value
    return half


# shared pieces in dependency order ("halfcov" reads "covs"); the calculus
# primitives are looked up at call time so wrappers patched into the
# module see every call
_PIECES = (
    ("qv", lambda p: calculus.quadratic_variation(p["v"])),
    ("covs", _covariations),
    ("fwd", lambda p: calculus.forward_sum(p["g"], p["s"])),
    ("halfcov", _half_covariation),
)


def _covariation_total(p, k):
    covs = p["covs"]
    total = covs[0].value + 0.0
    for c in covs[1:]:
        total = total + c.value
    return total


def _ito_residual(p, k):
    """|R_n|, R_n = F(X_S) - F(X_0) - forward sum - half covariation."""
    v = p["v"]
    return np.abs((v[:, -1] - v[:, 0]) - p["fwd"] - p["halfcov"])


def _taylor_remainder(p, k):
    """sum_i |F(X_{i+1}) - F(X_i) - grad F(X_i) . dX_i|."""
    s, v, g = p["s"], p["v"], p["g"]
    dx = np.diff(s, axis=-2)
    rem = v[:, 1:] - v[:, :-1] - (g[:, :-1, :] * dx).sum(axis=-1)
    return calculus.kahan_sum(np.abs(rem))


SWEEP_TABLE = {row.name: row for row in (
    #         name            functional          needs
    #         gate  denom         verdict      value
    PathSweep("qv",           "qv",               ("qv",),
              1,    None,         "report",    lambda p, k: p["qv"]),
    PathSweep("covariation",  "covariation",      ("covs",),
              1,    None,         "report",    _covariation_total),
    PathSweep("forward",      "forward",          ("fwd",),
              1,    None,         "report",    lambda p, k: p["fwd"]),
    PathSweep("trapezoid",    "trapezoid",        ("covs", "fwd", "halfcov"),
              1,    None,         "trapezoid",
              lambda p, k: calculus.trapezoid_sum(p["g"], p["s"])),
    PathSweep("ito_residual", "ito_residual_abs", ("covs", "fwd", "halfcov"),
              2,    None,         "report",    _ito_residual),
    PathSweep("prop1",        "prop1_ratio",      ("qv",),
              1,    "prop1",      "no-growth", lambda p, k: p["qv"]),
    PathSweep("prop2",        "prop2_ratio_k{k}", ("covs",),
              1,    "prop2_k{k}", "no-growth",
              lambda p, k: p["covs"][k].abs_value),
    PathSweep("prop3",        "prop3_ratio",      (),
              2,    "prop3",      "no-growth", _taylor_remainder),
)}

PATH_SWEEPS = tuple(SWEEP_TABLE)
SWEEPS = PATH_SWEEPS + ("aronson", "potential")
GRADIENT_GATED = frozenset(s for s, row in SWEEP_TABLE.items()
                           if row.gate == 1)
HESSIAN_GATED = frozenset(s for s, row in SWEEP_TABLE.items()
                          if row.gate == 2)
RATIO_SWEEPS = frozenset(s for s, row in SWEEP_TABLE.items() if row.denom)


def grid_values(rows, states, values, grads, denoms):
    """Per-path values of the rows' functionals on one dyadic grid.

    states: (B, 2^n + 1, d); values and grads: F and grad F at those
    states.  Every shared piece the rows need is computed once.  Returns
    ({(sweep, functional): (B,) array}, gap), where gap is the largest
    relative distance of the trapezoid sum from forward + half covariation
    (0.0 without a trapezoid row).
    """
    p = {"s": states, "v": values, "g": grads}
    needs = {piece for row in rows for piece in row.needs}
    for piece, compute in _PIECES:
        if piece in needs:
            p[piece] = compute(p)
    out = {}
    gap = 0.0
    for row in rows:
        per_axis = "{k}" in row.functional
        for k in range(states.shape[-1]) if per_axis else [None]:
            val = row.value(p, k)
            if row.denom:
                val = val / denoms[row.denom.format(k=k)]
            out[(row.name, row.functional.format(k=k))] = val
        if row.verdict == "trapezoid":
            rel = np.abs(val - p["fwd"] - p["halfcov"])
            rel /= np.maximum(1.0, np.abs(val))
            gap = float(rel.max())
    return out, gap


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


# ---------------------------------------------------------------- builders

@contextlib.contextmanager
def _section(key, name):
    """Turn a constructor failure inside the block into a ConfigError
    naming the config section ``key`` (``name`` is the catalog entry)."""
    try:
        yield
    except UnknownName as exc:
        raise ConfigError(f"{key}.name: {exc}")
    except KeyError as exc:
        raise ConfigError(f"{key}.{exc.args[0]}: required for {name!r}")
    except (Error, ValueError, TypeError) as exc:
        raise ConfigError(f"{key}: {exc}")


def _build(key, cfg, make):
    """Catalog entry ``make(name, **params)`` from a config section."""
    if not isinstance(cfg, dict) or "name" not in cfg:
        raise ConfigError(f"{key}: a section with a 'name' key is required")
    params = {k: v for k, v in cfg.items() if k != "name"}
    with _section(key, cfg["name"]):
        return make(cfg["name"], **params)


def _build_law(cfg):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("law: a section with a 'kind' key is required")
    kind = cfg["kind"]
    with _section("law", kind):
        if kind == "dirac":
            return sampling.dirac([float(v) for v in cfg["point"]])
        if kind == "mixture":
            comps = [sampling.dirac([float(v) for v in p])
                     for p in cfg["points"]]
            return sampling.mixture([float(w) for w in cfg["weights"]], comps)
        if kind == "grid-density":
            edges = cfg["edges"]
            if edges and not isinstance(edges[0], (list, tuple)):
                edges = [edges]
            return sampling.grid_density(
                [np.asarray(e, dtype=float) for e in edges],
                np.asarray(cfg["values"], dtype=float))
    raise ConfigError(f"law.kind: unknown initial law kind {kind!r}")


# ---------------------------------------------------------------- scenario

@dataclass
class Scenario:
    """A validated run description plus its resolved objects."""

    spec: dict
    hash: str
    field: object
    F: object
    law: object
    out_dir: str

    @property
    def horizon(self):
        return self.spec["horizon"]

    @property
    def orders(self):
        return [int(n) for n in self.spec["orders"]]

    @property
    def n_paths(self):
        return int(self.spec["n_paths"])

    @property
    def seed(self):
        return int(self.spec["seed"])

    @property
    def sweeps(self):
        return list(self.spec["sweeps"])

    @property
    def scheme(self):
        return self.spec["scheme"]

    @property
    def allow_unverified(self):
        return bool(self.spec["allow_unverified"])

    @property
    def box(self):
        return self.spec["box"]

    @property
    def quad_h(self):
        return float(self.spec["quad_h"])

    @property
    def fine_step(self):
        return sampling.fine_step_for(self.horizon, max(self.orders),
                                      margin=int(self.spec["fine_margin"]))


def _integer(key, value):
    """``value`` as an int; integral floats such as 4.0 are accepted."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    return int(value)


def _number(key, value):
    """``value`` as a finite float; ints are accepted, strings are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            not math.isfinite(value)):
        raise ConfigError(f"{key}: must be a finite number, got {value!r}")
    return float(value)


def _list(key, value):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: must be a list, got {value!r}")
    return list(value)


def _object(key, value):
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: must be an object, got {value!r}")
    return value


def load_scenario(config, out_dir=None, seed_override=None):
    """Parse, default-fill, validate, and hash a scenario config.

    ``config`` is a path to a JSON file or an equivalent dict.  Raises
    ConfigError naming the offending key on any validation failure.
    """
    if isinstance(config, (str, os.PathLike)):
        try:
            with open(config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {config}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {config} is not valid JSON: {exc}")
    elif isinstance(config, dict):
        raw = config
    else:
        raise ConfigError("config must be a file path or a dict")
    for key in sorted(set(raw) - _TOP_KEYS):
        raise ConfigError(f"unknown config key {key!r}")
    if "field" not in raw:
        raise ConfigError("field: section is required")

    sweeps = _list("sweeps", raw.get("sweeps", []))
    for s in sweeps:
        if s not in SWEEPS:
            raise ConfigError(
                f"sweeps: unknown sweep {s!r}; choose from {', '.join(SWEEPS)}")
    needs_paths = any(s in PATH_SWEEPS for s in sweeps)

    horizon = _number("horizon", raw.get("horizon", 1.0))
    if horizon <= 0:
        raise ConfigError("horizon: must be > 0")
    orders = [_integer("orders", n)
              for n in _list("orders", raw.get("orders", [4, 6, 8]))]
    if orders != sorted(set(orders)):
        raise ConfigError("orders: must be strictly increasing")
    if orders and not (0 <= orders[0] and orders[-1] <= sampling.MAX_ORDER):
        raise ConfigError(
            f"orders: every order must lie in [0, {sampling.MAX_ORDER}]")
    if needs_paths and not orders:
        raise ConfigError("orders: at least one dyadic order is required")
    n_paths = _integer("n_paths", raw.get("n_paths", 100))
    if n_paths < 1:
        raise ConfigError("n_paths: must be >= 1")
    margin = _integer("fine_margin", raw.get("fine_margin", 4))
    if margin < 1:
        raise ConfigError("fine_margin: must be >= 1")
    if orders and orders[-1] + margin > sampling.MAX_ORDER:
        raise ConfigError(
            f"orders: max order {orders[-1]} + fine_margin {margin} exceeds "
            f"{sampling.MAX_ORDER}")
    scheme = raw.get("scheme", "euler-maruyama")
    if scheme not in ("euler-maruyama", "lattice"):
        raise ConfigError(f"scheme: unknown scheme {scheme!r}")
    seed = _integer("seed", seed_override if seed_override is not None
                    else raw.get("seed", 0))
    if seed < 0:
        raise ConfigError("seed: must be nonnegative")

    field = _build("field", raw["field"], fields.make_field)
    F = (_build("function", raw["function"],
                testfunctions.make_test_function)
         if raw.get("function") else None)
    law = _build_law(raw["law"]) if raw.get("law") else None
    if needs_paths:
        if F is None:
            raise ConfigError("function: required when path sweeps are listed")
        if law is None:
            raise ConfigError("law: required when path sweeps are listed")
    if F is not None and F.dim != field.dim:
        raise ConfigError(
            f"function: dimension {F.dim} != field dimension {field.dim}")
    if law is not None and law.dim != field.dim:
        raise ConfigError(
            f"law: dimension {law.dim} != field dimension {field.dim}")
    if needs_paths and scheme == "euler-maruyama" and (
            field.smoothness == "rough"):
        raise ConfigError(
            "scheme: euler-maruyama needs a smooth field; set field.mollify "
            "or use the lattice scheme")
    if needs_paths and scheme == "lattice" and not field.is_diagonal:
        raise ConfigError("scheme: the lattice scheme needs a diagonal field")
    if F is not None and law is not None and F.grad_singular:
        for atom in law.atoms():
            for p in F.singular_points:
                if np.array_equal(atom, np.asarray(p, dtype=float)):
                    raise ConfigError(
                        "law: an atom of the initial law sits exactly on a "
                        f"point where the gradient of {F.name} is undefined")

    kernel_cfg = raw.get("kernel")
    if "aronson" in sweeps and kernel_cfg is None:
        raise ConfigError("kernel: section is required for the aronson sweep")
    if kernel_cfg is not None:
        _object("kernel", kernel_cfg)

    potential_cfg = raw.get("potential")
    if potential_cfg is not None and not isinstance(potential_cfg, dict):
        raise ConfigError("potential: must be an object with a 'route' key")
    if potential_cfg is None:
        if (law is not None and law.kind == "dirac" and field.dim == 1
                and raw["field"].get("name") == "identity"):
            potential_cfg = {"route": "closed-form"}
        else:
            potential_cfg = {"route": "monte-carlo", "n_samples": 200_000,
                             "seed": seed}
    if potential_cfg.get("route") not in ("closed-form", "monte-carlo",
                                          "grid"):
        raise ConfigError(
            f"potential.route: unknown route {potential_cfg.get('route')!r}")
    if potential_cfg.get("kernel") is not None:
        _object("potential.kernel", potential_cfg["kernel"])

    spec = {
        "field": raw["field"],
        "function": raw.get("function"),
        "law": raw.get("law"),
        "horizon": horizon,
        "orders": orders,
        "n_paths": n_paths,
        "scheme": scheme,
        "scheme_params": _object("scheme_params",
                                 raw.get("scheme_params", {})),
        "fine_margin": margin,
        "seed": seed,
        "sweeps": sweeps,
        "allow_unverified": bool(raw.get("allow_unverified", False)),
        "box": raw.get("box", [-10.0, 10.0] if field.dim == 1
                       else [-25.0, 25.0]),
        "quad_h": _number("quad_h", raw.get("quad_h", 0.01 if field.dim == 1
                                            else 0.1)),
        "potential": potential_cfg,
        "kernel": kernel_cfg,
    }
    spec = _canon(spec)
    digest = scenario_hash(spec)
    resolved_out = out_dir or raw.get("out_dir") or os.path.join(
        "runs", digest)
    return Scenario(spec=spec, hash=digest, field=field, F=F, law=law,
                    out_dir=str(resolved_out))


# ---------------------------------------------------------------- gating

def resolve_potential(scn):
    """Build the potential U nu the scenario's checks and sweeps rely on."""
    cfg = scn.spec["potential"]
    route = cfg["route"]
    try:
        if route == "closed-form":
            return kernels.resolvent_potential("closed-form", scn.law)
        if route == "monte-carlo":
            return kernels.resolvent_potential(
                "monte-carlo", scn.law, field=scn.field,
                n_samples=int(cfg.get("n_samples", 200_000)),
                seed=int(cfg.get("seed", scn.seed)),
                step=float(cfg.get("step", 2.0 ** -9)),
                t_cap=float(cfg.get("t_cap", 16.0)))
        kcfg = cfg.get("kernel")
        if not kcfg:
            raise ConfigError(
                "potential.kernel: section required for the grid route")
        dt = float(kcfg["dt"])
        times = kernels.log_time_grid(float(kcfg.get("t_min", dt)),
                                      float(kcfg.get("t_max", 8.0)),
                                      int(kcfg.get("n_slices", 240)), dt)
        kern = kernels.solve_kernel_pde(
            scn.field, np.asarray(scn.law.point, dtype=float),
            kcfg["box"], float(kcfg["h"]), times, dt)
        return kernels.resolvent_potential(kern, scn.law)
    except (KeyError, AttributeError) as exc:
        raise ConfigError(f"potential: incomplete {route!r} config ({exc})")


def _ladder_payload(cond):
    out = {"finite": cond.finite,
           "value": None if cond.value is None else float(cond.value),
           "ladders": cond.ladder_dict()}
    if cond.entry_finite is not None:
        out["entry_finite"] = cond.entry_finite.astype(bool).ravel().tolist()
    return out


def _violated(which, detail, payload):
    exc = ConditionViolated(
        f"condition {which} diverges: {detail}; shell-increment ratios stay "
        "above the geometric threshold (evidence ladder attached)")
    exc.evidence = payload
    return exc


def gate_scenario(scn):
    """Integrability checks before simulation.

    Returns (conditions, denominators, U).  Raises ConditionViolated with
    the evidence ladder attached when a gated sweep's condition diverges;
    allow_unverified skips the gates but never the ratio denominators the
    prop sweeps intrinsically need.
    """
    sweeps = set(scn.sweeps) & set(PATH_SWEEPS)
    need1 = bool(sweeps & GRADIENT_GATED)
    need2 = bool(sweeps & HESSIAN_GATED)
    conditions = {}
    denoms = {}
    if not (need1 or need2):
        return conditions, denoms, None
    if scn.allow_unverified and not (sweeps & RATIO_SWEEPS):
        return {"skipped": "allow_unverified"}, denoms, None

    U = resolve_potential(scn)
    box, h = scn.box, scn.quad_h
    if need1:
        c1 = integrability.check_condition_1(scn.F, U, box, h)
        conditions["condition_1"] = _ladder_payload(c1)
        if not c1.finite:
            if "prop1" in sweeps or not scn.allow_unverified:
                raise _violated(
                    1, f"int |grad {scn.F.name}|^2 U is not integrable",
                    conditions["condition_1"])
        else:
            denoms["prop1"] = float(c1.value)
    if "prop2" in sweeps:
        for k in range(scn.field.dim):
            fk = testfunctions.component_function(scn.F, k)
            ck = integrability.check_condition_1(fk, U, box, h)
            conditions[f"condition_1_d{k}"] = _ladder_payload(ck)
            if not ck.finite:
                raise _violated(
                    1, f"int |grad {fk.name}|^2 U is not integrable",
                    conditions[f"condition_1_d{k}"])
            denoms[f"prop2_k{k}"] = float(np.sqrt(ck.value))
    if need2:
        c2 = integrability.check_condition_2(scn.F, U, box, h)
        conditions["condition_2"] = _ladder_payload(c2)
        if not c2.finite:
            if "prop3" in sweeps or not scn.allow_unverified:
                raise _violated(
                    2,
                    f"a squared second derivative of {scn.F.name} weighted "
                    "by U is not integrable", conditions["condition_2"])
        else:
            denoms["prop3"] = float(np.sqrt(c2.entry_values).sum())
    return conditions, denoms, U


# ---------------------------------------------------------------- evaluation

def _batch_ok(F, states):
    """Per-path flag: values and gradients finite, no exact singular hit."""
    B = states.shape[0]
    ok = np.isfinite(F.value(states)).all(axis=-1)
    ok &= np.isfinite(F.gradient(states).reshape(B, -1)).all(axis=-1)
    if F.grad_singular and F.singular_points:
        for p in F.singular_points:
            hit = np.any(np.all(states == np.asarray(p, dtype=float),
                                axis=-1), axis=-1)
            ok &= ~hit
    return ok


def _simulate_clean(scn, path_ids, stride):
    """Batch states at the finest dyadic grid, resampling singular hits.

    Each offending path is redrawn from its attempt-shifted stream so the
    outcome depends only on that path's own history, never on how paths
    were grouped into batches or workers.
    """
    params = scn.spec["scheme_params"]
    states = sampling.generate_batch(
        scn.scheme, scn.field, scn.law, scn.horizon, scn.fine_step, scn.seed,
        path_ids, stride=stride, scheme_params=params)
    resamples = 0
    ok = _batch_ok(scn.F, states)
    for b in np.flatnonzero(~ok):
        pid = path_ids[b]
        for attempt in range(1, MAX_ATTEMPTS + 1):
            redo = sampling.generate_batch(
                scn.scheme, scn.field, scn.law, scn.horizon, scn.fine_step,
                scn.seed, [pid], stride=stride, attempt=attempt,
                scheme_params=params)
            resamples += 1
            if _batch_ok(scn.F, redo)[0]:
                states[b] = redo[0]
                break
        else:
            raise SingularHit(
                f"path {pid} still hits singular values of {scn.F.name} "
                f"after {MAX_ATTEMPTS} resamples")
    return states, resamples


def evaluate_chunk(scn, start, stop, denoms):
    """Per-path functional values for path_ids in [start, stop).

    Returns {"values": {(sweep, functional, n): array}, "resamples": int,
    "trap_violation": float}.  Arrays are indexed by path_id - start.
    """
    rows = [row for s, row in SWEEP_TABLE.items() if s in scn.sweeps]
    orders = scn.orders
    n_top = max(orders)
    stride = round(scn.horizon / scn.fine_step) // 2 ** n_top
    F = scn.F
    values = {}
    resamples = 0
    trap_violation = 0.0

    for b0 in range(start, stop, BATCH_PATHS):
        b1 = min(b0 + BATCH_PATHS, stop)
        ids = list(range(b0, b1))
        states, r = _simulate_clean(scn, ids, stride)
        resamples += r
        sl = slice(b0 - start, b1 - start)
        Fv = F.value(states)
        g = F.gradient(states)
        for n in orders:
            step = 2 ** (n_top - n)
            got, gap = grid_values(rows, states[:, ::step, :], Fv[:, ::step],
                                   g[:, ::step, :], denoms)
            for (sweep, functional), arr in got.items():
                values.setdefault((sweep, functional, n),
                                  np.empty(stop - start))[sl] = arr
            trap_violation = max(trap_violation, gap)
    return {"values": values, "resamples": resamples,
            "trap_violation": trap_violation}


def _chunk_entry(spec_json, start, stop, denoms):
    """Worker entry point; rebuilds the scenario from its canonical JSON."""
    scn = load_scenario(json.loads(spec_json))
    return evaluate_chunk(scn, start, stop, denoms)


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
        return {
            "scenario_hash": self.scenario_hash,
            "version": self.version,
            "spec": self.spec,
            "reports": self.reports,
            "artifacts": self.artifacts,
            "verdicts": self.verdicts,
            "conditions": self.conditions,
            "incidents": self.incidents,
            "wall_clock_s": self.wall_clock_s,
            "workers": self.workers,
        }

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
    if not os.path.exists(path):
        raise MissingReport(f"report file {path} is missing")
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise MissingReport(f"{path} has unexpected header {header!r}")
        for line in fh:
            functional, n, mean, se, count = line.strip().split(",")
            rows.append((functional, int(n), float(mean), float(se),
                         int(count)))
    return rows


# ---------------------------------------------------------------- sweeps

def _run_aronson(scn, U, incidents):
    kcfg = scn.spec["kernel"]
    for key in ("box", "h", "dt", "times", "candidates"):
        if key not in kcfg:
            raise ConfigError(f"kernel.{key}: required for the aronson sweep")
    x0 = np.asarray(kcfg.get("x0", [0.0] * scn.field.dim), dtype=float)
    kern = kernels.solve_kernel_pde(scn.field, x0, kcfg["box"],
                                    float(kcfg["h"]),
                                    [float(t) for t in kcfg["times"]],
                                    float(kcfg["dt"]))
    if kern.leakage > LEAKAGE_TOL:
        incidents["leakage_warnings"] += 1
    fit = kernels.fit_aronson_M(kern, [float(c) for c in kcfg["candidates"]])
    prefix = os.path.join(scn.out_dir, "kernel")
    kern.save(prefix)
    rows = [("aronson_fit", 0, np.nan if fit is None else fit, 0.0,
             len(kern.times))]
    verdict = "PASS" if fit is not None else "FAIL"
    return rows, verdict, {"kernel": ["kernel.csv", "kernel.json"]}


def _run_potential(scn, U, incidents):
    if U is None:
        U = resolve_potential(scn)
    cfg = scn.spec["potential"]
    pbox = cfg.get("box", [-10.0, 10.0])
    ph = float(cfg.get("h", 0.01))
    if U.axes is not None:
        mass = U.integral()
        count = int(np.prod([ax.shape[0] for ax in U.axes]))
    else:
        mass = U.integral(box=pbox, h=ph)
        count = 1
    token = U.params.get("kernel_leakage")
    if token is not None and token > LEAKAGE_TOL:
        incidents["leakage_warnings"] += 1
    rows = [("potential_mass", 0, mass, 0.0, count)]
    if kernels.lq_admissible(2.0, U.dim):
        l2 = kernels.potential_Lq_norm(U, 2.0, pbox, h=ph)
        rows.append(("potential_l2", 0, l2.total, 0.0, count))
    artifacts = {}
    if U.axes is not None:
        U.save(os.path.join(scn.out_dir, "potential_field"))
        artifacts["potential_field"] = ["potential_field.csv",
                                        "potential_field.json"]
    verdict = "PASS" if abs(mass - 1.0) <= 0.02 else "FAIL"
    return rows, verdict, artifacts


_KERNEL_SWEEPS = {"aronson": _run_aronson, "potential": _run_potential}


def _path_sweep_reports(scn, chunks):
    """Reduce chunk values into (CSV rows, verdict, artifacts) per sweep."""
    trap_violation = max(c["trap_violation"] for c in chunks)
    rows = {s: [] for s in scn.sweeps if s in PATH_SWEEPS}
    for key in chunks[0]["values"]:
        sweep, functional, n = key
        arr = np.concatenate([c["values"][key] for c in chunks])
        mean, se = calculus.mean_stderr(arr)
        rows[sweep].append((functional, n, mean, se, arr.shape[0]))
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

    ``config`` is a JSON file path, an equivalent dict, or an already
    loaded Scenario.  Returns the RunManifest (also saved as
    manifest.json in the output directory).
    """
    t0 = time.monotonic()
    if isinstance(config, Scenario):
        scn = config
        if out_dir is not None:
            scn.out_dir = str(out_dir)
    else:
        scn = load_scenario(config, out_dir=out_dir,
                            seed_override=seed_override)
    os.makedirs(scn.out_dir, exist_ok=True)
    incidents = {"resamples": 0, "leakage_warnings": 0}
    conditions, denoms, U = gate_scenario(scn)

    results = {}
    if any(s in PATH_SWEEPS for s in scn.sweeps):
        spec_json = canonical_json(scn.spec)
        n = scn.n_paths
        w = max(1, min(int(workers), n))
        bounds = np.linspace(0, n, w + 1).astype(int)
        spans = [(int(a), int(b)) for a, b in zip(bounds, bounds[1:])
                 if b > a]
        if len(spans) == 1:
            chunks = [evaluate_chunk(scn, 0, n, denoms)]
        else:
            with ProcessPoolExecutor(max_workers=len(spans)) as pool:
                futs = [pool.submit(_chunk_entry, spec_json, a, b, denoms)
                        for a, b in spans]
                chunks = [f.result() for f in futs]
        incidents["resamples"] += sum(c["resamples"] for c in chunks)
        results.update(_path_sweep_reports(scn, chunks))
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
        workers=int(workers))
    manifest.save(os.path.join(scn.out_dir, "manifest.json"))
    return manifest


# ---------------------------------------------------------------- summaries

def summarize(manifest):
    """Fixed-width text table of every report a manifest points to.

    ``manifest`` is a manifest.json path or a RunManifest.  Raises
    MissingReport when a listed report file is gone.
    """
    if isinstance(manifest, RunManifest):
        data = manifest.payload()
        base = manifest.out_dir
    else:
        with open(manifest) as fh:
            data = json.load(fh)
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
