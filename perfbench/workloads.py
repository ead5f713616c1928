"""The benchmark's scenario workloads and the correctness gate on their outputs.

Each workload is a roughdiff scenario config built from the benchmark seed
and a size ("full" for measurement, "tiny" for the benchmark's own tests).
Every workload puts a different module on the critical path of
``roughdiff run``; the README lists which layer each one is meant to load.

The gate reads only the files a run leaves in its out dir and checks
oracles that hold for every seed: exact expectations for constant fields,
the ellipticity bracket for rough ones, and the program's own verdicts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

CSV_HEADER = ["functional", "n", "mean", "stderr", "count"]
ALL_PATH_SWEEPS = ["qv", "covariation", "forward", "trapezoid",
                   "ito_residual", "prop1", "prop2", "prop3"]


@dataclass
class Workload:
    """One scenario: why it is in the set, how to build it, what must hold.

    ``build(seed, **sizes[size])`` returns the scenario config.
    ``expect_cov`` is the exact mean of the summed covariation of grad F(X)
    against X for constant fields (checked within ``cov_sigmas`` standard
    errors); when it is None the mean must lie in the ellipticity bracket
    instead.  ``must_pass`` lists sweeps whose verdict must be PASS.
    """

    name: str
    why: str
    build: Callable[..., dict]
    workers: int
    sizes: dict
    must_pass: tuple
    expect_cov: float | None = None
    cov_sigmas: float = 3.0
    mass_tol: float | None = None

    def config(self, seed, size="full"):
        return self.build(seed, **self.sizes[size])


# ------------------------------------------------------------ configs

def _em_sweeps(seed, n_paths):
    return {
        "name": "em-sweeps",
        "field": {"name": "identity", "dim": 1},
        "function": {"name": "quadratic", "dim": 1},
        "law": {"kind": "dirac", "point": [0.0]},
        "horizon": 1.0,
        "orders": [4, 6, 8, 10],
        "n_paths": n_paths,
        "seed": seed,
        "sweeps": ALL_PATH_SWEEPS,
    }


POTENTIAL_2D_VALUES = [0.2, 0.05]


def _potential_2d(seed, n_paths):
    return {
        "name": "potential-2d",
        "field": {"name": "constant-diagonal", "values": POTENTIAL_2D_VALUES},
        "function": {"name": "quadratic", "dim": 2},
        "law": {"kind": "dirac", "point": [0.0, 0.0]},
        "horizon": 1.0,
        "orders": [3, 4, 5],
        "n_paths": n_paths,
        "fine_margin": 2,
        "seed": seed,
        "sweeps": ["covariation", "prop2", "potential"],
        # the KDE grid spans the extreme samples, so its size (and the time
        # to write it) moves ~10% from seed to seed; a fixed potential seed,
        # the one the d2_run test uses, keeps that out of the spread
        "potential": {"route": "monte-carlo", "n_samples": 100000,
                      "seed": 5},
    }


def _rough_2d(seed, n_paths, kernel_box, kernel_h, kernel_dt):
    return {
        "name": "rough-2d",
        "field": {"name": "checkerboard", "lo": 0.5, "hi": 2.0, "cell": 1.0,
                  "dim": 2},
        "function": {"name": "quadratic", "dim": 2},
        "law": {"kind": "dirac", "point": [0.0, 0.0]},
        "horizon": 1.0,
        "orders": [4, 6, 8],
        "n_paths": n_paths,
        # the jump-rate bound max_rate * fine_step <= 0.1 needs margin 7 in 2-d
        "fine_margin": 7,
        "scheme": "lattice",
        "scheme_params": {"h": 0.0625},
        "seed": seed,
        "allow_unverified": True,
        "sweeps": ["qv", "covariation", "aronson"],
        "kernel": {"box": kernel_box, "h": kernel_h, "dt": kernel_dt,
                   "times": [0.25, 0.5],
                   "candidates": [2.0, 4.0, 8.0, 16.0, 32.0]},
    }


def _mollified_gate(seed, n_paths, step):
    return {
        "name": "mollified-gate",
        "field": {"name": "checkerboard", "lo": 0.5, "hi": 2.0, "cell": 1.0,
                  "mollify": 0.1},
        "function": {"name": "quadratic", "dim": 1},
        "law": {"kind": "dirac", "point": [0.0]},
        "horizon": 1.0,
        "orders": [4, 6, 8],
        "n_paths": n_paths,
        "seed": seed,
        "sweeps": ["qv", "covariation", "prop1"],
        # the KDE folds samples beyond 24 of its median onto its edge, so a
        # box of +/-25 sees U = 0 on its boundary; +/-10 and even +/-16 can
        # raise BoxTooSmall, depending on the seed
        "box": [-25.0, 25.0],
        # potential.seed is left to default to the scenario seed, so the
        # potential's Euler draws reuse the path streams, as users' runs do.
        # t_cap 4 keeps every step count from 1 to 64 populated, so the
        # number of Euler sweeps does not depend on the seed's largest T
        "potential": {"route": "monte-carlo", "n_samples": 100000,
                      "step": step, "t_cap": 4.0},
    }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="em-sweeps",
        why="all eight path sweeps on constant-coefficient EM with two "
            "workers: sampling and the calculus sums dominate",
        build=_em_sweeps,
        workers=2,
        sizes={"full": {"n_paths": 2000}, "tiny": {"n_paths": 64}},
        must_pass=("trapezoid",),
        expect_cov=4.0, cov_sigmas=5.0),
    Workload(
        name="potential-2d",
        why="2-d Monte Carlo potential: writing potential_field.csv "
            "dominates, plus 2-d integrability quadrature",
        build=_potential_2d,
        workers=1,
        sizes={"full": {"n_paths": 300}, "tiny": {"n_paths": 32}},
        must_pass=(),
        expect_cov=4.0 * sum(POTENTIAL_2D_VALUES), cov_sigmas=5.0,
        mass_tol=0.02),
    Workload(
        name="rough-2d",
        why="lattice walk on a 2-d checkerboard and the finite-volume "
            "kernel PDE with the Aronson envelope fit",
        build=_rough_2d,
        workers=1,
        sizes={"full": {"n_paths": 100, "kernel_box": [-4.0, 4.0],
                        "kernel_h": 0.1, "kernel_dt": 5e-4},
               "tiny": {"n_paths": 16, "kernel_box": [-3.0, 3.0],
                        "kernel_h": 0.1, "kernel_dt": 2e-3}},
        must_pass=("aronson",)),
    Workload(
        name="mollified-gate",
        why="gated run on a mollified checkerboard: the Monte Carlo "
            "potential (_terminal_by_groups over MollifiedField) dominates",
        build=_mollified_gate,
        workers=1,
        sizes={"full": {"n_paths": 200, "step": 2.0 ** -4},
               "tiny": {"n_paths": 32, "step": 2.0 ** -3}},
        must_pass=("prop1",)),
)}


# ------------------------------------------------------------ gate

def read_report(path):
    """Rows of a report CSV as (functional, n, mean, stderr, count)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"{os.path.basename(path)}: bad header")
    return [(f, int(n), float(m), float(se), int(c))
            for f, n, m, se, c in rows[1:]]


def ellipticity_bracket(field_cfg, dim, horizon):
    """Bounds on the mean summed covariation of grad |x|^2 against X.

    For F(x) = |x|^2 the covariation is 2 sum_k QV(X_k), and QV(X_k)
    accrues at rate 2 a_kk, which lies in [1/lam, lam]."""
    lam = max(field_cfg["hi"], 1.0 / field_cfg["lo"], 1.0)
    return 4.0 * dim * horizon / lam, 4.0 * dim * horizon * lam


def check_outputs(workload, cfg, out_dir):
    """Problems found in one run's out dir; an empty list means it passed."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        reports = {sweep: read_report(os.path.join(out_dir, fname))
                   for sweep, fname in manifest["reports"].items()}
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    missing = set(cfg["sweeps"]) - set(reports)
    if missing:
        problems.append(f"missing reports: {sorted(missing)}")
    verdicts = manifest.get("verdicts", {})
    problems += [f"verdict {s} is FAIL" for s, v in sorted(verdicts.items())
                 if v == "FAIL"]
    problems += [f"verdict {s} is {verdicts.get(s)}, not PASS"
                 for s in workload.must_pass if verdicts.get(s) != "PASS"]

    dim = len(cfg["law"]["point"])
    if workload.expect_cov is not None:
        lo = hi = workload.expect_cov
    else:
        lo, hi = ellipticity_bracket(cfg["field"], dim, cfg["horizon"])
    k = workload.cov_sigmas
    for functional, n, mean, se, _ in reports.get("covariation", []):
        if not lo - k * se <= mean <= hi + k * se:
            problems.append(f"covariation n={n}: {mean:.6g} +/- {se:.3g} "
                            f"outside [{lo:.6g}, {hi:.6g}] by > {k} stderr")
    if workload.mass_tol is not None:
        for functional, _, mean, _, _ in reports.get("potential", []):
            if functional == "potential_mass" and (
                    abs(mean - 1.0) > workload.mass_tol):
                problems.append(f"potential_mass {mean:.6g} is not within "
                                f"{workload.mass_tol} of 1")
    return problems


def report_digests(out_dir):
    """SHA-256 of every report CSV in an out dir, by file name."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        names = sorted(json.load(fh)["reports"].values())
    out = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
