"""Acceptance checks, one test per criterion, each printing a verdict line.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASS/FAIL line
per criterion; add ``-s`` for the numeric evidence.  Every tolerance here
is part of the package contract: exact identities at 1e-10, Monte Carlo
means within three standard errors, kernels within 2 percent, potentials
within 5 percent sup / 2 percent in integral, and byte-identical CSV
output across worker counts.
"""

import json

import numpy as np
import pytest

from roughdiff import calculus, integrability, kernels, sampling
from roughdiff.fields import MollifiedField, make_field
from roughdiff.testfunctions import make_test_function

from reference import exact_brownian_kernel, joined, tabulate_kernel

HORIZON = 1.0


def _announce(cid, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid} {label}: {tag}  {detail}".rstrip(), flush=True)
    return ok


def _decreasing(means, stderrs, strict_net=True):
    """No step may grow beyond 3 stderr; the whole run must come down."""
    for i in range(len(means) - 1):
        slack = 3.0 * float(np.hypot(stderrs[i], stderrs[i + 1]))
        if means[i + 1] > means[i] + slack:
            return False
    return means[-1] < means[0] if strict_net else True


def _batched_states(field, law, seed, n_paths, n_top, margin, batch=250,
                    scheme="euler-maruyama", scheme_params=None):
    """Yield (batch, 2^n_top + 1, d) state arrays from a fresh simulation."""
    fine = sampling.fine_step_for(HORIZON, n_top, margin=margin)
    stride = 2 ** margin
    for lo in range(0, n_paths, batch):
        ids = list(range(lo, min(lo + batch, n_paths)))
        yield joined(sampling.generate_batch(
            scheme, field, law, HORIZON, fine, seed, ids, stride=stride,
            scheme_params=scheme_params))


# ------------------------------------------------------------ criterion 1

def test_c1_exact_algebraic_identities():
    """Trapezoid telescoping, the quadratic residual, and Cauchy-Schwarz
    hold pathwise to 1e-10 on every dyadic order up to 12."""
    field = make_field("identity", dim=1)
    law = sampling.dirac([0.0])
    states = next(_batched_states(field, law, seed=101, n_paths=100,
                                  n_top=12, margin=4, batch=100))
    F_lin = make_test_function("linear", c=[2.0])
    F_quad = make_test_function("quadratic", dim=1)
    worst = 0.0
    cs_ok = True
    for n in range(0, 13):
        s_n = states[:, ::2 ** (12 - n), :]
        x = s_n[..., 0]

        g_lin = F_lin.gradient(s_n)
        trap = calculus.trapezoid_sum(g_lin, s_n)
        fwd = calculus.forward_sum(g_lin, s_n)
        dF = F_lin.value(s_n[:, -1, :]) - F_lin.value(s_n[:, 0, :])
        worst = max(worst, np.abs(trap - dF).max(),
                    np.abs(fwd - trap).max())

        g_quad = F_quad.gradient(s_n)
        trap_q = calculus.trapezoid_sum(g_quad, s_n)
        fwd_q = calculus.forward_sum(g_quad, s_n)
        dF_q = F_quad.value(s_n[:, -1, :]) - F_quad.value(s_n[:, 0, :])
        cov = calculus.covariation(g_quad[..., 0], x)
        worst = max(worst, np.abs(trap_q - dF_q).max())
        worst = max(
            worst, np.abs(dF_q - fwd_q - 0.5 * cov.value).max())

        v_q = F_quad.value(s_n)
        cov_fx = calculus.covariation(v_q, x)
        qv_f = calculus.quadratic_variation(v_q)
        qv_x = calculus.quadratic_variation(x)
        cs_ok &= bool(
            (cov_fx.abs_value <= np.sqrt(qv_f * qv_x) + 1e-10).all())
    ok = worst <= 1e-10 and cs_ok
    assert _announce("C1", "exact algebraic identities", ok,
                     f"worst residual {worst:.3e}")


# ------------------------------------------------------------ criterion 2

def test_c2_brownian_quadratic_variation():
    """With a = Id and 10^4 paths the mean QV sits at 2S and the
    covariation against twice the path at 4S, within 3 stderr."""
    field = make_field("identity", dim=1)
    law = sampling.dirac([0.0])
    orders = range(6, 11)
    qv = {n: [] for n in orders}
    cov = {n: [] for n in orders}
    for states in _batched_states(field, law, seed=202, n_paths=10_000,
                                  n_top=10, margin=4, batch=1000):
        for n in orders:
            x = states[:, ::2 ** (10 - n), 0]
            qv[n].append(calculus.quadratic_variation(x))
            cov[n].append(calculus.covariation(2.0 * x, x).value)
    ok = True
    lines = []
    for n in orders:
        m, se = calculus.mean_stderr(np.concatenate(qv[n]))
        ok &= abs(m - 2.0) <= 3.0 * se
        lines.append(f"n={n} qv {m:.4f}+-{se:.4f}")
        mc, sec = calculus.mean_stderr(np.concatenate(cov[n]))
        ok &= abs(mc - 4.0) <= 3.0 * sec
    assert _announce("C2", "quadratic variation of Brownian paths", ok,
                     "; ".join(lines[:2]) + " ...")


# ------------------------------------------------------------ criterion 3

@pytest.fixture(scope="module")
def identity_kernel():
    field = make_field("identity", dim=1)
    return kernels.solve_kernel_pde(field, 0.0, (-4.0, 4.0), 0.01,
                                    times=[0.1, 0.25, 1.0], dt=2.5e-5)


def test_c3_kernel_solver_accuracy(identity_kernel):
    """The solved identity kernel tracks the exact one within 2 percent
    on the central half-box, and the exact kernel fits M = 4."""
    kern = identity_kernel
    x = kern.axes[0]
    central = np.abs(x) <= 2.0
    pts = x[central, None]
    worst = 0.0
    for it, t in enumerate(kern.times):
        exact = exact_brownian_kernel(1, float(t), np.zeros(1), pts)
        rel = np.abs(kern.values[it][central] - exact) / exact
        worst = max(worst, float(rel.max()))
    exact_tab = tabulate_kernel(
        lambda t, p: exact_brownian_kernel(1, t, np.zeros(1), p),
        (-6.0, 6.0), 0.01, [0.1, 0.25, 1.0], 0.0)
    fit = kernels.fit_aronson_M(exact_tab, [1.0, 2.0, 3.0, 3.6, 4.0, 8.0])
    ok = worst <= 0.02 and fit == 4.0
    assert _announce("C3", "kernel solver and envelope fit", ok,
                     f"max rel err {worst:.4f}, fitted M {fit}")


# ------------------------------------------------------------ criterion 4

@pytest.fixture(scope="module")
def potentials():
    """Closed form, grid route, and Monte Carlo route for U delta_0."""
    nu = sampling.dirac([0.0])
    field = make_field("identity", dim=1)
    closed = kernels.resolvent_potential("closed-form", nu, field=field)
    grid = kernels.resolvent_potential("grid", nu, field=field,
                                       box=(-8.0, 8.0), h=0.02)
    mc = kernels.resolvent_potential("monte-carlo", nu, field=field,
                                     n_samples=400_000, seed=2)
    return closed, grid, mc


def test_c4_resolvent_potential_two_routes(potentials):
    """Both the grid solve and Monte Carlo potentials agree with
    (1/2) exp(-|x|) to 5 percent sup on [-2, 2], carry unit mass to
    2 percent, and have squared L2 norm 0.25 to 2 percent."""
    closed, grid, mc = potentials
    pts = np.linspace(-2.0, 2.0, 401)[:, None]
    exact = closed(pts)
    ok = True
    details = []
    for label, U in (("grid", grid), ("monte-carlo", mc)):
        sup = float((np.abs(U(pts) - exact) / exact).max())
        mass = U.integral()
        box_l2, tail_l2 = kernels.potential_Lq_norm(
            U, sampling.dirac([0.0]), (-10.0, 10.0), h=0.01)
        l2 = box_l2 + tail_l2
        ok &= sup <= 0.05 and abs(mass - 1.0) <= 0.02
        ok &= abs(l2 - 0.25) <= 0.02 * 0.25
        details.append(f"{label}: sup {sup:.4f}, mass {mass:.4f}, "
                       f"L2 {l2:.4f}")
    assert _announce("C4", "resolvent potential routes", ok,
                     "; ".join(details))


# ------------------------------------------------------------ criterion 5

def test_c5_integrability_verdicts():
    """check_condition_2 calls the divergence for |x|^(1+a) exactly when
    a <= 1/2 under the double-exponential potential."""
    U = kernels.resolvent_potential("closed-form", sampling.dirac([0.0]),
                                    field=make_field("identity", dim=1))
    expected = {0.25: False, 0.4: False, 0.6: True, 0.75: True}
    got = {}
    for alpha, want in expected.items():
        F = make_test_function("abs_power", alpha=alpha)
        res = integrability.check_condition_2(F, U, (-10.0, 10.0), 0.01)
        got[alpha] = res.finite
    ok = got == expected
    assert _announce("C5", "second-derivative integrability verdicts", ok,
                     f"finite verdicts {got}")


# ------------------------------------------------------- criteria 6 and 7

RESID_ORDERS = (6, 8, 10, 12)


@pytest.fixture(scope="module")
def residual_stats():
    """Per-order residual and ratio statistics for sin and |x|^(7/4),
    1000 paths, shared by the decay and bound criteria."""
    field = make_field("identity", dim=1)
    law = sampling.dirac([0.0])
    F_sin = make_test_function("sin1d")
    F_abs = make_test_function("abs_power", alpha=0.75)

    acc = {("sin", n): [] for n in RESID_ORDERS}
    acc.update({("abs", n): [] for n in RESID_ORDERS})
    qv_sin = {n: [] for n in RESID_ORDERS}
    abscov_sin = {n: [] for n in RESID_ORDERS}
    taylor_sin = {n: [] for n in RESID_ORDERS}
    for states in _batched_states(field, law, seed=606, n_paths=1000,
                                  n_top=12, margin=4, batch=250):
        for F, tag in ((F_sin, "sin"), (F_abs, "abs")):
            v = F.value(states)
            g = F.gradient(states)
            for n in RESID_ORDERS:
                step = 2 ** (12 - n)
                s_n = states[:, ::step, :]
                v_n = v[:, ::step]
                g_n = g[:, ::step, :]
                fwd = calculus.forward_sum(g_n, s_n)
                cov = calculus.covariation(g_n[..., 0], s_n[..., 0])
                R = (v_n[:, -1] - v_n[:, 0]) - fwd - 0.5 * cov.value
                acc[(tag, n)].append(np.abs(R))
                if tag == "sin":
                    qv_sin[n].append(calculus.quadratic_variation(v_n))
                    abscov_sin[n].append(cov.abs_value)
                    dx = np.diff(s_n[..., 0], axis=-1)
                    rem = np.diff(v_n, axis=-1) - g_n[:, :-1, 0] * dx
                    taylor_sin[n].append(calculus.kahan_sum(np.abs(rem)))

    U = kernels.resolvent_potential("closed-form", law,
                                    field=make_field("identity", dim=1))
    box, h = (-10.0, 10.0), 0.01
    c1 = integrability.check_condition_1(F_sin, U, box, h)
    c2 = integrability.check_condition_2(F_sin, U, box, h)
    c1_f0 = c2.components[0]
    denoms = {
        "prop1": float(c1.value),
        "prop2": float(np.sqrt(c1_f0.value)),
        "prop3": float(np.sqrt(c2.entry_values).sum()),
    }
    stats = {}
    for key, chunks in acc.items():
        stats[key] = calculus.mean_stderr(np.concatenate(chunks))
    ratios = {}
    for name, per_n, denom in (("prop1", qv_sin, denoms["prop1"]),
                               ("prop2", abscov_sin, denoms["prop2"]),
                               ("prop3", taylor_sin, denoms["prop3"])):
        ratios[name] = {
            n: calculus.mean_stderr(np.concatenate(per_n[n]) / denom)
            for n in RESID_ORDERS}
    return stats, ratios


def test_c6_residual_decay(residual_stats):
    """mean |R_n| falls along n in {6, 8, 10, 12} for sin (ending below
    0.05) and for |x|^(7/4), with 3-stderr slack per step."""
    stats, _ = residual_stats
    ok = True
    details = []
    for tag in ("sin", "abs"):
        means = [stats[(tag, n)][0] for n in RESID_ORDERS]
        ses = [stats[(tag, n)][1] for n in RESID_ORDERS]
        ok &= _decreasing(means, ses)
        details.append(tag + " " + " ".join(f"{m:.2e}" for m in means))
    ok &= stats[("sin", 12)][0] < 0.05
    assert _announce("C6", "change-of-variable residual decay", ok,
                     "; ".join(details))


def test_c7_energy_ratio_bounds(residual_stats):
    """The three normalized functionals stay bounded: no ratio grows
    beyond 3 stderr across n in {8, 10, 12}."""
    _, ratios = residual_stats
    ok = True
    details = []
    for name in ("prop1", "prop2", "prop3"):
        rows = [ratios[name][n] for n in (8, 10, 12)]
        means = [r[0] for r in rows]
        ses = [r[1] for r in rows]
        ok &= _decreasing(means, ses, strict_net=False)
        details.append(f"{name} {means[0]:.3f}->{means[-1]:.3f}")
    assert _announce("C7", "normalized functional bounds", ok,
                     "; ".join(details))


# ------------------------------------------------------------ criterion 8

@pytest.fixture(scope="module")
def checkerboard_paths():
    """Terminal values and order-8 QV from the lattice walk and from
    mollified Euler-Maruyama, 2000 paths each."""
    rough = make_field("checkerboard", dim=1, lo=0.5, hi=2.0, cell=1.0)
    law = sampling.dirac([0.0])
    out = {}
    for tag, field, scheme, params, seed in (
            ("lattice", rough, "lattice", {"h": 0.0625}, 808),
            ("euler", MollifiedField(rough, 0.1), "euler-maruyama", None, 809)):
        terms, qvs = [], []
        for states in _batched_states(field, law, seed=seed, n_paths=2000,
                                      n_top=8, margin=6, batch=500,
                                      scheme=scheme, scheme_params=params):
            terms.append(states[:, -1, 0])
            qvs.append(calculus.quadratic_variation(states[..., 0]))
        out[tag] = (np.concatenate(terms), np.concatenate(qvs))
    return out


def test_c8_checkerboard_cross_validation(checkerboard_paths):
    """Lattice and mollified-EM agree on Var(X_S) within 10 percent, the
    QV means respect the ellipticity bracket [2S/lam, 2 lam S] within 3
    stderr, and the solved rough kernel admits an envelope constant
    M <= 32."""
    lam = 2.0
    var = {tag: float(np.var(vals[0], ddof=1))
           for tag, vals in checkerboard_paths.items()}
    rel_gap = abs(var["euler"] - var["lattice"]) / var["lattice"]
    ok = rel_gap <= 0.10
    for tag, (_, qvs) in checkerboard_paths.items():
        m, se = calculus.mean_stderr(qvs)
        ok &= (2.0 * HORIZON / lam - 3 * se <= m
               <= 2.0 * lam * HORIZON + 3 * se)
    rough = make_field("checkerboard", dim=1, lo=0.5, hi=2.0, cell=1.0)
    kern = kernels.solve_kernel_pde(rough, 0.0, (-6.0, 6.0), 0.01,
                                    times=[0.25, 0.5, 1.0], dt=5e-5)
    fit = kernels.fit_aronson_M(kern, [2.0, 4.0, 8.0, 16.0, 32.0])
    ok &= fit is not None and fit <= 32.0
    assert _announce(
        "C8", "checkerboard lattice vs mollified EM", ok,
        f"Var gap {rel_gap:.3f}, vars {var['lattice']:.3f}/"
        f"{var['euler']:.3f}, fitted M {fit}")


# ------------------------------------------------------------ criterion 9

def test_c9_worker_count_byte_determinism(tmp_path, cli):
    """The CLI emits bitwise-identical CSV reports for the same (config,
    seed) no matter how many workers share the path budget."""
    cfg = {
        "field": {"name": "identity", "dim": 1},
        "function": {"name": "quadratic", "dim": 1},
        "law": {"kind": "dirac", "point": [0.0]},
        "horizon": 1.0,
        "orders": [4, 6, 8],
        "n_paths": 200,
        "seed": 123,
        "sweeps": ["qv", "covariation", "forward", "trapezoid",
                   "ito_residual", "prop1", "prop2", "prop3"],
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        proc = cli("run", str(cfg_path), "--workers", str(workers),
                   "--out-dir", str(out), cwd=tmp_path, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outs[workers] = out
    same = True
    for sweep in cfg["sweeps"]:
        a = (outs[1] / f"{sweep}.csv").read_bytes()
        b = (outs[2] / f"{sweep}.csv").read_bytes()
        same &= a == b
    hashes = [json.loads((outs[w] / "manifest.json").read_text())
              ["scenario_hash"] for w in (1, 2)]
    ok = same and hashes[0] == hashes[1]
    assert _announce("C9", "worker-count byte determinism", ok,
                     f"hash {hashes[0]}")
