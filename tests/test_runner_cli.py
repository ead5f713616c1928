"""Scenario loading, the run driver, report files, and the CLI.

The expensive runs (full sweep set, two worker counts, a 2-d scenario)
are module fixtures shared by many assertions.  Oracle values for the
identity field started at the origin: summed covariation of grad F(X)
against X is 4 for F(x) = x^2 in d = 1 and 4*(a_11 + a_22) for the
quadratic in d = 2; the prop ratios for the quadratic settle at 1, 2S
and S.
"""

import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

import roughdiff
from roughdiff import fields, integrability, kernels, runner
from roughdiff.cli import main as cli_main
from roughdiff.errors import ConditionViolated, ConfigError, Error


def quad_config(**over):
    """A small d = 1 scenario exercising every path sweep."""
    cfg = {
        "name": "quad-smoke",
        "field": {"name": "identity", "dim": 1},
        "function": {"name": "quadratic", "dim": 1},
        "law": {"kind": "dirac", "point": [0.0]},
        "horizon": 1.0,
        "orders": [2, 4, 6],
        "n_paths": 40,
        "scheme": "euler-maruyama",
        "fine_margin": 2,
        "seed": 11,
        "sweeps": ["qv", "covariation", "forward", "trapezoid",
                   "ito_residual", "prop1", "prop2", "prop3"],
    }
    cfg.update(over)
    return cfg


@pytest.fixture(scope="module")
def quad_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("quad_w1")
    return runner.run_scenario(quad_config(), out_dir=str(out))


@pytest.fixture(scope="module")
def quad_run_w3(tmp_path_factory):
    out = tmp_path_factory.mktemp("quad_w3")
    return runner.run_scenario(quad_config(), workers=3, out_dir=str(out))


D2_RUN = {
    "field": {"name": "constant-diagonal", "values": [2.0, 0.5]},
    "function": {"name": "quadratic", "dim": 2},
    "law": {"kind": "dirac", "point": [0.0, 0.0]},
    "horizon": 1.0,
    "orders": [3, 4, 5],
    "n_paths": 300,
    "fine_margin": 2,
    "seed": 5,
    "sweeps": ["covariation", "prop2", "potential"],
    "potential": {"route": "monte-carlo", "n_samples": 100000, "seed": 5},
}


@pytest.fixture(scope="module")
def d2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("d2")
    return runner.run_scenario(D2_RUN, out_dir=str(out))


# a 2-d scenario running every path sweep, so prop2 reports one ratio per
# axis; report SHA-256s pinned with one Gaussian draw per recorded step
# on constant diagonal fields
D2_ALL_SWEEPS = {
    "field": {"name": "constant-diagonal", "values": [1.5, 0.75]},
    "function": {"name": "bump", "dim": 2},
    "law": {"kind": "dirac", "point": [0.25, -0.125]},
    "horizon": 0.5,
    "orders": [2, 3, 4],
    "n_paths": 20,
    "fine_margin": 2,
    "seed": 17,
    "sweeps": ["qv", "covariation", "forward", "trapezoid", "ito_residual",
               "prop1", "prop2", "prop3"],
    "potential": {"route": "monte-carlo", "n_samples": 100000, "seed": 17},
}
# d2_run's Monte Carlo potential report and the prop2 ratios it weighs
D2_RUN_SHA256 = {
    "potential.csv":
        "e34ef794263e6a01a833f265feb9e308d44ee41c19f4647aa2a2dceb028343db",
    "prop2.csv":
        "a6ae66628fa7770c6371870af26074057c063e33b348874303b6093276dff325",
}
# SHA-256 of json.dumps(man.conditions, sort_keys=True): every evidence
# ladder of the gate, bit for bit
D2_ALL_SWEEPS_CONDITIONS_SHA256 = (
    "53094055c88c85deb000eda045f685aa75982179e9cdc185a870c629895f7db5")
ABS_POWER_CONDITIONS_SHA256 = (
    "18873ede163ce49bd9c47e51f21a6084ef91c6805471c209063e2bc2518056f0")
D2_ALL_SWEEPS_SHA256 = {
    "covariation.csv":
        "707eee52d65a9a38e94eb075312cfe42fcc98857403235ace107dc25b818bc4b",
    "forward.csv":
        "be43b7d9e38acc41625ec7442e485e1dd871fae2deb4a69b0e987ae017a2d7fd",
    "ito_residual.csv":
        "5e048a672225eaee5513b5fc82ce16e5b86b26e91562f5fedd85386e2bf5791b",
    "prop1.csv":
        "d8a41ecaa1f52441a6a27faf05800e21c6e2ef1c78054cf54e1f5108c8c45af7",
    "prop2.csv":
        "0f4ec3a35c82a66e06ea8b9166274bf98d01afc6624855ceacabbaf8fa131c42",
    "prop3.csv":
        "76c5b866208c19831a49a74ae0b0a66226c4c6d5d2a01f250ff77cd44fecb337",
    "qv.csv":
        "751d6145a6fe358dc57d6811e036cd37b37a305cef6d82b172cc4cb1edc4eb30",
    "trapezoid.csv":
        "a4de15c208fe28ab6491b90dc6d7cc3c7c44f90b3cea570b63af5d991f3e4898",
}


# a 1-d scenario running every path sweep up to order 9, so the finest
# grids span several blocks of the one compensated pass; report SHA-256s
# taken before the sweeps' sums were fused into that pass
D1_ALL_SWEEPS = {
    "field": {"name": "identity", "dim": 1},
    "function": {"name": "quadratic", "dim": 1},
    "law": {"kind": "dirac", "point": [0.5]},
    "horizon": 1.0,
    "orders": [2, 5, 8, 9],
    "n_paths": 300,
    "fine_margin": 2,
    "seed": 23,
    "sweeps": ["qv", "covariation", "forward", "trapezoid", "ito_residual",
               "prop1", "prop2", "prop3"],
}
D1_ALL_SWEEPS_SHA256 = {
    "covariation.csv":
        "8afe886420c64540bed35e990197711b8ceb7171d4510a66094882c0b40130c4",
    "forward.csv":
        "22802b3341ae2d4cbc2beeb5b58f3ae096249b1be30f8f762f19f47c7c07a762",
    "ito_residual.csv":
        "a5066a3314cc360a0cb133cd10d6492ebab3ef3a0cee515510d400a93c24f0f7",
    "prop1.csv":
        "b8d79af3c15e10766bbe16fd250bf34a08c466a64c3fe08ca57c16cbaec95585",
    "prop2.csv":
        "f55179e6e7d3dd731d74647afdffc184bc22013d57d32f2f1407890bbaea1086",
    "prop3.csv":
        "bfeb5ccf98262035453c7e8d2ca3c2ee7228d2ecabc36d928a4bcee639a74d26",
    "qv.csv":
        "d4d9c7ca0a042a6f61089bfcfd5df67d4372dc204dc8e5f6fa7aca0c6420a5f5",
    "trapezoid.csv":
        "609d8af1d8527328eed2f027701db50f3c271d5a6f3a81cb64bc517aac10415f",
}


KERNEL_CFG = {"box": [-4.0, 4.0], "h": 0.05, "dt": 5e-4, "times": [0.25],
              "candidates": [2.0, 4.0]}
# a lattice walk on the default h and fine_margin: 2 lam / h^2 jumps per
# unit time times the fine step 2^-7 exceeds 0.1
COARSE_LATTICE = {"field": {"name": "checkerboard", "lo": 0.5, "hi": 2.0},
                  "scheme": "lattice", "orders": [2, 3], "fine_margin": 4,
                  "sweeps": ["qv"], "allow_unverified": True}
# a gated rough-field run: the walk embeds, and the default potential
# route is monte-carlo, which cannot run on a rough field
GATED_ROUGH = {"field": {"name": "checkerboard", "lo": 0.5, "hi": 2.0},
               "scheme": "lattice", "scheme_params": {"h": 0.0625},
               "fine_margin": 8, "sweeps": ["qv", "prop1"]}
GRID = {"route": "grid", "kernel": {"box": [-6.0, 6.0], "h": 0.05}}
D3 = {"field": {"name": "identity", "dim": 3},
      "function": {"name": "quadratic", "dim": 3},
      "law": {"kind": "dirac", "point": [0.0] * 3}}
MIXTURE = {"kind": "mixture", "weights": [0.25, 0.75],
           "points": [[-1.0], [2.0]]}
# configs whose potential or kernel cannot be built as asked; the load
# rules name the key at fault
LOAD_RULES = [
    ("potential.route", {"law": MIXTURE, "sweeps": ["potential"],
                         "potential": {"route": "closed-form"}}),
    ("potential.route", {"field": {"name": "checkerboard", "lo": 0.5,
                                   "hi": 2.0, "mollify": 0.1},
                         "potential": {"route": "closed-form"}}),
    ("potential.route", dict(D3, potential=GRID)),
    ("potential.kernel.box", {"law": {"kind": "dirac", "point": [9.0]},
                              "potential": GRID}),
    ("potential.kernel.box", {"law": {"kind": "grid-density",
                                      "edges": [[5.0, 6.5, 7.0]],
                                      "values": [1.0, 1.0]},
                              "potential": GRID}),
    ("potential.kernel.h", dict(GATED_ROUGH, potential={
        "route": "grid", "kernel": {"box": [-6.0, 6.0], "h": 0.75}})),
    ("potential.kernel.h", {"potential": {
        "route": "grid", "kernel": {"box": [-6.0, 6.0], "h": 0.07}}}),
    ("potential.kernel.box", {"potential": {
        "route": "grid", "kernel": {"box": [[-6.0, 6.0]] * 2, "h": 0.05}}}),
    ("kernel.x0", {"sweeps": ["aronson"],
                   "kernel": dict(KERNEL_CFG, x0=[0.0, 7.0])}),
    ("kernel.x0", {"field": {"name": "identity", "dim": 2},
                   "function": {"name": "quadratic", "dim": 2},
                   "law": {"kind": "dirac", "point": [0.0, 0.0]},
                   "sweeps": ["aronson"], "kernel": dict(KERNEL_CFG,
                                                         x0=[0.0])}),
    ("kernel.x0", {"sweeps": ["aronson"],
                   "kernel": dict(KERNEL_CFG, box=[-6.0, 6.0], x0=[9.0])}),
    ("kernel.h", {"sweeps": ["aronson"], "kernel": dict(KERNEL_CFG, h=0.07)}),
    ("kernel.dt", {"sweeps": ["aronson"],
                   "kernel": dict(KERNEL_CFG, dt=0.01)}),
    # the gate would read U = 0 beyond +-2 and halve the prop1 denominator
    ("box", {"sweeps": ["prop1"], "potential": {
        "route": "grid", "kernel": {"box": [-2.0, 2.0], "h": 0.05}}}),
    # the start on a face of potential.box leaves the L^2 tail no room
    ("potential.box", {"field": {"name": "identity", "dim": 2},
                       "function": {"name": "quadratic", "dim": 2},
                       "law": {"kind": "dirac", "point": [0.0, 0.0]},
                       "sweeps": ["potential"],
                       "potential": {"route": "grid", "box": [0.0, 10.0],
                                     "kernel": {"box": [-6.0, 6.0],
                                                "h": 0.1}}}),
    # every potential route stops at d = 2, while the kernel solver takes
    # any d and checks a 3-d x0 like any other; the kernel's h must
    # resolve the checkerboard cell
    ("potential.route", dict(D3, sweeps=["potential"], potential={
        "route": "monte-carlo", "n_samples": 100_000})),
    ("potential.route", dict(D3, potential={"route": "monte-carlo"})),
    ("kernel.x0", dict(D3, sweeps=["aronson"],
                       kernel=dict(KERNEL_CFG, x0=[0.0] * 2))),
    ("kernel.h", {"field": {"name": "checkerboard", "lo": 0.5, "hi": 2.0},
                  "sweeps": ["aronson"], "kernel": dict(KERNEL_CFG, h=0.8)}),
    # the kernel solver's time and candidate rules, and the Monte Carlo
    # route's sample floor, hold at load
    ("kernel.times", {"sweeps": ["aronson"],
                      "kernel": dict(KERNEL_CFG, times=[0.5, 0.25])}),
    ("kernel.times", {"sweeps": ["aronson"], "kernel": dict(
        KERNEL_CFG, h=0.1, dt=1e-3, times=[0.25, 0.2501])}),
    ("kernel.candidates", {"sweeps": ["aronson"],
                           "kernel": dict(KERNEL_CFG, candidates=[8, 4])}),
    ("kernel.candidates", {"sweeps": ["aronson"],
                           "kernel": dict(KERNEL_CFG, candidates=[])}),
    ("potential.n_samples", {"potential": {"route": "monte-carlo",
                                           "n_samples": 5000}}),
    # the potential sweep integrates U on the vertex grid of potential.box
    ("potential.h", {"sweeps": ["potential"],
                     "potential": {"route": "closed-form", "h": 0.3}}),
]
LOAD_RULE_IDS = ["closed-form-mixture", "closed-form-mollified",
                 "grid-d3", "grid-atom-outside", "grid-density-outside",
                 "grid-too-coarse", "grid-h-untiled", "grid-box-axes",
                 "x0-too-long", "x0-too-short", "x0-outside",
                 "aronson-h-untiled", "aronson-dt-unstable",
                 "grid-quadrature-box-outside", "potential-box-on-the-law",
                 "monte-carlo-d3", "monte-carlo-d3-gated", "x0-too-short-d3",
                 "aronson-too-coarse", "times-decreasing", "times-collide",
                 "candidates-decreasing", "candidates-empty",
                 "n-samples-below-kde-floor", "potential-h-untiled"]


def report(manifest, sweep):
    return runner.read_report_csv(
        os.path.join(manifest.out_dir, manifest.reports[sweep]))


class TestLoadScenario:
    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            runner.load_scenario(quad_config(bogus=1))

    def test_missing_field_section(self):
        cfg = quad_config()
        del cfg["field"]
        with pytest.raises(ConfigError, match="field"):
            runner.load_scenario(cfg)

    def test_unknown_field_name(self):
        cfg = quad_config(field={"name": "granite"})
        with pytest.raises(ConfigError, match="field.name"):
            runner.load_scenario(cfg)

    def test_missing_field_param(self):
        cfg = quad_config(field={"name": "constant-diagonal"})
        with pytest.raises(ConfigError, match="field.values"):
            runner.load_scenario(cfg)

    def test_unknown_function_name(self):
        cfg = quad_config(function={"name": "septic"})
        with pytest.raises(ConfigError, match="function.name"):
            runner.load_scenario(cfg)

    def test_missing_function_param(self):
        cfg = quad_config(function={"name": "linear"})
        with pytest.raises(ConfigError, match="function.c"):
            runner.load_scenario(cfg)

    def test_unknown_law_kind(self):
        cfg = quad_config(law={"kind": "cauchy"})
        with pytest.raises(ConfigError, match="law.kind"):
            runner.load_scenario(cfg)

    def test_missing_law_param(self):
        cfg = quad_config(law={"kind": "dirac"})
        with pytest.raises(ConfigError, match="law.point"):
            runner.load_scenario(cfg)

    def test_unknown_sweep(self):
        with pytest.raises(ConfigError, match="sweeps"):
            runner.load_scenario(quad_config(sweeps=["qv", "turbo"]))

    def test_sweep_listed_twice(self):
        # ["qv", "qv"] would run like ["qv"] under another hash
        with pytest.raises(ConfigError, match="sweeps: qv listed more"):
            runner.load_scenario(quad_config(sweeps=["qv", "prop1", "qv"]))

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            runner.load_scenario(quad_config(scheme="milstein"))

    def test_zero_paths(self):
        with pytest.raises(ConfigError, match="n_paths"):
            runner.load_scenario(quad_config(n_paths=0))

    def test_orders_not_increasing(self):
        with pytest.raises(ConfigError, match="orders"):
            runner.load_scenario(quad_config(orders=[4, 4, 6]))

    def test_orders_above_cap(self):
        with pytest.raises(ConfigError, match="orders"):
            runner.load_scenario(quad_config(orders=[2, 40]))

    def test_order_plus_margin_over_budget(self):
        with pytest.raises(ConfigError, match="fine_margin"):
            runner.load_scenario(quad_config(orders=[22], fine_margin=4))

    def test_bad_horizon(self):
        with pytest.raises(ConfigError, match="horizon"):
            runner.load_scenario(quad_config(horizon=0.0))

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            runner.load_scenario(quad_config(seed=-1))

    def test_function_dim_mismatch(self):
        cfg = quad_config(function={"name": "quadratic", "dim": 2})
        with pytest.raises(ConfigError, match="dimension"):
            runner.load_scenario(cfg)

    def test_law_dim_mismatch(self):
        cfg = quad_config(law={"kind": "dirac", "point": [0.0, 0.0]})
        with pytest.raises(ConfigError, match="law"):
            runner.load_scenario(cfg)

    def test_rough_field_rejects_euler(self):
        cfg = quad_config(field={"name": "checkerboard", "lo": 0.5,
                                 "hi": 2.0})
        with pytest.raises(ConfigError, match="scheme"):
            runner.load_scenario(cfg)

    def test_rough_field_fine_without_paths(self):
        cfg = {
            "field": {"name": "checkerboard", "lo": 0.5, "hi": 2.0},
            "sweeps": ["aronson"],
            "kernel": {"box": [-4.0, 4.0], "h": 0.05, "dt": 3e-4,
                       "times": [0.1], "candidates": [8.0, 16.0]},
        }
        scn = runner.load_scenario(cfg)
        assert scn.spec["scheme"] == "euler-maruyama"

    def test_mollified_rough_field_accepted(self):
        cfg = quad_config(field={"name": "checkerboard", "lo": 0.5,
                                 "hi": 2.0, "mollify": 0.1})
        scn = runner.load_scenario(cfg)
        assert scn.field.smoothness != "rough"

    def test_function_required_with_path_sweeps(self):
        cfg = quad_config()
        del cfg["function"]
        with pytest.raises(ConfigError, match="function"):
            runner.load_scenario(cfg)

    def test_law_required_with_path_sweeps(self):
        cfg = quad_config()
        del cfg["law"]
        with pytest.raises(ConfigError, match="law"):
            runner.load_scenario(cfg)

    def test_aronson_needs_kernel_section(self):
        cfg = quad_config(sweeps=["aronson"])
        with pytest.raises(ConfigError, match="kernel"):
            runner.load_scenario(cfg)

    @pytest.mark.parametrize("key, over", [
        ("field", {"field": {"name": "identity", "mollify": -0.1}}),
        ("field", {"field": {"name": "constant-diagonal",
                             "values": [-1.0]}}),
        ("function", {"function": {"name": "abs_power", "alpha": 0}}),
        ("law", {"law": {"kind": "grid-density", "edges": [0.0, 1.0, 2.0],
                         "values": [1.0]}}),
        ("law", {"law": {"kind": "grid-density", "edges": [1.0, 0.0, -1.0],
                         "values": [1.0, 1.0]}}),
        ("potential", {"potential": "closed-form"}),
        ("orders", {"orders": [4.5]}),
        ("n_paths", {"n_paths": 10.7}),
        ("fine_margin", {"fine_margin": 2.5}),
        ("seed", {"seed": 3.9}),
        ("kernel", {"kernel": 5, "sweeps": ["aronson"]}),
        ("potential.kernel", {"potential": {"route": "grid", "kernel": 5}}),
        ("horizon", {"horizon": "abc"}),
        ("quad_h", {"quad_h": [1, 2]}),
        ("sweeps", {"sweeps": 5}),
        ("scheme_params", {"scheme_params": 5}),
        ("horizon", {"horizon": float("nan")}),
        ("n_paths", {"n_paths": True}),
        ("allow_unverified", {"allow_unverified": "no"}),
        ("field.dimm", {"field": {"name": "identity", "dimm": 2}}),
        ("function.dimm", {"function": {"name": "quadratic", "dimm": 1}}),
        ("potential.n_sample", {"potential": {"route": "monte-carlo",
                                              "n_sample": 150000}}),
        ("kernel.dtt", {"kernel": dict(KERNEL_CFG, dtt=1e-4)}),
        ("scheme_params.fdstep", {"scheme_params": {"fdstep": 1e-3}}),
        ("field.dim", {"field": {"name": "identity", "dim": 2.7}}),
        ("kernel.h", {"kernel": dict(KERNEL_CFG, h="abc"),
                      "sweeps": ["aronson"]}),
        ("kernel.box", {"kernel": dict(KERNEL_CFG, box=5),
                        "sweeps": ["aronson"]}),
        ("potential.n_samples", {"potential": {"route": "monte-carlo",
                                               "n_samples": "abc"}}),
        ("scheme_params.h", {"scheme": "lattice",
                             "scheme_params": {"h": "abc"}}),
        ("box", {"box": "abc"}),
        ("box", {"box": [[-10.0, 10.0]] * 2}),
        ("scheme_params.h", COARSE_LATTICE),
        ("potential.route", GATED_ROUGH),
    ] + LOAD_RULES, ids=["mollify", "diagonal", "alpha", "density-shape",
            "edges-decreasing",
            "potential-string", "fractional-order", "fractional-n-paths",
            "fractional-margin", "fractional-seed", "kernel-number",
            "potential-kernel-number", "horizon-string", "quad-h-list",
            "sweeps-number", "scheme-params-number", "horizon-nan",
            "n-paths-bool", "allow-unverified-string", "field-unknown-key",
            "function-unknown-key", "potential-unknown-key",
            "kernel-unknown-key", "scheme-params-unknown-key",
            "fractional-field-dim", "kernel-h-string", "kernel-box-number",
            "n-samples-string", "lattice-h-string", "box-string", "box-axes",
            "lattice-too-coarse", "rough-monte-carlo"] + LOAD_RULE_IDS)
    def test_error_names_its_key(self, key, over):
        with pytest.raises(ConfigError) as err:
            runner.load_scenario(quad_config(**over))
        assert str(err.value).startswith(f"{key}:")

    def test_closed_form_points_to_grid(self):
        with pytest.raises(ConfigError, match="route grid"):
            runner.load_scenario(quad_config(**LOAD_RULES[0][1]))
        # the default route and an explicit closed form on its own case
        for over in ({}, {"potential": {"route": "closed-form"}}):
            scn = runner.load_scenario(quad_config(**over))
            assert scn.cfg["potential"]["route"] == "closed-form"
        # which is any 1-d constant field
        scn = runner.load_scenario(quad_config(
            field={"name": "constant-diagonal", "values": [2.0]},
            potential={"route": "closed-form"}))
        assert scn.cfg["potential"]["route"] == "closed-form"

    @pytest.mark.parametrize("mollify", [None, 0.1],
                             ids=["plain", "mollified"])
    def test_constant_1d_field_defaults_to_closed_form(self, mollify):
        # the default is the closed form wherever check_closed_form admits
        # the config, not 200,000 Monte Carlo samples
        field = {"name": "constant-diagonal", "values": [2.0],
                 "mollify": mollify}
        scn = runner.load_scenario(quad_config(field=field))
        assert scn.cfg["potential"] == {"route": "closed-form",
                                        "box": [-10.0, 10.0], "h": 0.01}
        # a 2-d constant field or a law other than a Dirac has none
        for over in ({"field": dict(field, values=[2.0, 0.5]),
                      "law": {"kind": "dirac", "point": [0.0, 0.0]},
                      "function": {"name": "quadratic", "dim": 2}},
                     {"field": field, "law": MIXTURE}):
            scn = runner.load_scenario(quad_config(**over))
            assert scn.cfg["potential"]["route"] == "monte-carlo"

    @pytest.mark.parametrize("key", ["dt", "t_min", "t_max", "n_slices"])
    def test_grid_time_stepping_keys_are_gone(self, key):
        cfg = quad_config(potential={
            "route": "grid", "kernel": dict(GRID["kernel"], **{key: 1.0})})
        with pytest.raises(ConfigError) as err:
            runner.load_scenario(cfg)
        assert str(err.value).startswith(
            f"potential.kernel.{key}: unknown key")

    def test_x0_on_the_box_edge_node(self):
        # x0 within kernel.h / 2 of the edge snaps to a boundary node
        over = {"sweeps": ["aronson"],
                "kernel": dict(KERNEL_CFG, x0=[3.98])}
        with pytest.raises(ConfigError, match="kernel.x0"):
            runner.load_scenario(quad_config(**over))
        over["kernel"]["x0"] = [3.9]
        assert runner.load_scenario(quad_config(**over)).cfg["kernel"][
            "x0"] == [3.9]

    def test_rough_field_potential_points_to_grid(self):
        with pytest.raises(ConfigError, match="route grid"):
            runner.load_scenario(quad_config(**GATED_ROUGH))
        # explicit monte-carlo as well, and a potential sweep alone
        with pytest.raises(ConfigError, match="potential.route"):
            runner.load_scenario(quad_config(**dict(
                GATED_ROUGH, potential={"route": "monte-carlo"})))
        with pytest.raises(ConfigError, match="potential.route"):
            runner.load_scenario(quad_config(**dict(
                GATED_ROUGH, sweeps=["potential"])))
        # ungated rough runs never build the potential
        runner.load_scenario(quad_config(**dict(
            GATED_ROUGH, allow_unverified=True, sweeps=["qv"])))

    def test_unknown_potential_route(self):
        cfg = quad_config(potential={"route": "psychic"})
        with pytest.raises(ConfigError, match="potential.route"):
            runner.load_scenario(cfg)

    def test_defaults_fill(self):
        scn = runner.load_scenario({"field": {"name": "identity", "dim": 1}})
        assert scn.spec["horizon"] == 1.0
        assert scn.spec["orders"] == [4.0, 6.0, 8.0]
        assert scn.spec["box"] == [-10.0, 10.0]
        assert scn.spec["sweeps"] == []
        assert scn.spec["scheme"] == "euler-maruyama"

    def test_closed_form_potential_default(self):
        scn = runner.load_scenario(quad_config())
        assert scn.spec["potential"]["route"] == "closed-form"

    def test_monte_carlo_potential_default_for_rough_field(self):
        cfg = quad_config(field={"name": "checkerboard", "lo": 0.5,
                                 "hi": 2.0}, scheme="lattice",
                          sweeps=["qv"], allow_unverified=True,
                          orders=[4, 5], fine_margin=9)
        scn = runner.load_scenario(cfg)
        assert scn.spec["potential"]["route"] == "monte-carlo"

    def test_fine_step_budget(self):
        scn = runner.load_scenario(quad_config())
        assert scn.fine_step == 2.0 ** -8


def _canonical_copy(cfg):
    return json.loads(runner.canonical_json(cfg))


class TestScenarioHash:
    def test_int_float_equivalence(self):
        a = runner.load_scenario(quad_config(horizon=1, seed=11))
        b = runner.load_scenario(quad_config(horizon=1.0, seed=11.0,
                                             n_paths=40.0, fine_margin=2.0))
        assert a.hash == b.hash
        assert (b.n_paths, b.seed, b.spec["fine_margin"]) == (40, 11, 2)
        # a canonical JSON copy, orders as floats, loads to the same scenario
        c = runner.load_scenario(_canonical_copy(quad_config(seed=11)))
        assert c.orders == a.orders
        assert c.hash == a.hash

    def test_defaults_hash_like_explicit_values(self):
        minimal = quad_config()
        for key in ("horizon", "n_paths", "scheme", "fine_margin"):
            del minimal[key]
        explicit = quad_config(horizon=1.0, n_paths=100, fine_margin=4)
        explicit["n_paths"] = 100
        minimal["n_paths"] = 100
        a = runner.load_scenario(minimal)
        b = runner.load_scenario(explicit)
        assert a.hash == b.hash

    def test_name_and_out_dir_do_not_hash(self, tmp_path):
        a = runner.load_scenario(quad_config(name="alpha"))
        b = runner.load_scenario(quad_config(name="beta",
                                             out_dir=str(tmp_path)))
        assert a.hash == b.hash
        assert b.out_dir == str(tmp_path)

    def test_seed_enters_hash(self):
        a = runner.load_scenario(quad_config(seed=11))
        b = runner.load_scenario(quad_config(seed=12))
        assert a.hash != b.hash

    def test_seed_override(self):
        scn = runner.load_scenario(quad_config(), seed_override=99)
        assert scn.spec["seed"] == 99.0
        assert scn.hash != runner.load_scenario(quad_config()).hash


class TestRunScenario:
    def test_reports_written(self, quad_run):
        for sweep in runner.PATH_SWEEPS:
            assert quad_run.reports[sweep] == f"{sweep}.csv"
            assert os.path.exists(
                os.path.join(quad_run.out_dir, f"{sweep}.csv"))
        assert os.path.exists(os.path.join(quad_run.out_dir,
                                           "manifest.json"))

    def test_manifest_round_trips(self, quad_run):
        with open(os.path.join(quad_run.out_dir, "manifest.json")) as fh:
            data = json.load(fh)
        assert data["scenario_hash"] == quad_run.scenario_hash
        assert data["spec"] == quad_run.spec
        assert data["verdicts"] == quad_run.verdicts

    def test_verdicts(self, quad_run):
        v = quad_run.verdicts
        assert v["trapezoid"] == "PASS"
        assert v["prop1"] == "PASS"
        assert v["prop2"] == "PASS"
        assert v["prop3"] == "PASS"
        for sweep in ("qv", "covariation", "forward", "ito_residual"):
            assert v[sweep] == "REPORT"
        assert quad_run.all_pass()

    def test_conditions_recorded(self, quad_run):
        conds = quad_run.conditions
        assert conds["condition_1"]["finite"]
        assert conds["condition_1_d0"]["finite"]
        assert conds["condition_2"]["finite"]
        assert "ratios" in conds["condition_1"]["ladders"][0]
        assert conds["condition_1"]["value"] > 0.0

    def test_covariation_tracks_oracle(self, quad_run):
        rows = report(quad_run, "covariation")
        for _, n, mean, se, count in rows:
            assert count == 40
            assert abs(mean - 4.0) <= 5.0 * se

    def test_qv_tracks_oracle(self, quad_run):
        rows = report(quad_run, "qv")
        _, n, mean, se, _ = rows[-1]
        assert abs(mean - 8.0) <= 5.0 * se

    def test_prop_ratios_near_oracles(self, quad_run):
        by_name = {}
        for sweep in ("prop1", "prop2", "prop3"):
            for functional, n, mean, se, _ in report(quad_run, sweep):
                by_name.setdefault(functional, []).append((mean, se))
        for mean, se in by_name["prop1_ratio"]:
            assert abs(mean - 1.0) <= 6.0 * se
        for mean, se in by_name["prop2_ratio_k0"]:
            assert abs(mean - 2.0) <= 6.0 * se
        for mean, se in by_name["prop3_ratio"]:
            assert abs(mean - 1.0) <= 6.0 * se

    def test_trapezoid_telescopes(self, quad_run):
        rows = report(quad_run, "trapezoid")
        means = [r[2] for r in rows]
        assert np.ptp(means) <= 1e-12

    def test_worker_count_never_changes_bytes(self, quad_run, quad_run_w3):
        assert quad_run.scenario_hash == quad_run_w3.scenario_hash
        for sweep in runner.PATH_SWEEPS:
            a = open(os.path.join(quad_run.out_dir, f"{sweep}.csv"),
                     "rb").read()
            b = open(os.path.join(quad_run_w3.out_dir, f"{sweep}.csv"),
                     "rb").read()
            assert a == b

    def test_batch_size_never_changes_bytes(self, tmp_path, monkeypatch):
        for batch in (runner.BATCH_PATHS, 7):
            monkeypatch.setattr(runner, "BATCH_PATHS", batch)
            out = tmp_path / f"b{batch}"
            man = runner.run_scenario(D2_ALL_SWEEPS, out_dir=str(out))
            got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                   for f in man.reports.values()}
            assert got == D2_ALL_SWEEPS_SHA256
            assert man.all_pass()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_d1_all_sweeps_pinned(self, tmp_path, workers):
        man = runner.run_scenario(D1_ALL_SWEEPS, workers=workers,
                                  out_dir=str(tmp_path))
        got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in man.reports.values()}
        assert got == D1_ALL_SWEEPS_SHA256
        assert man.all_pass()

    def test_more_workers_than_paths(self, tmp_path):
        cfg = quad_config(n_paths=3, orders=[2], sweeps=["qv"])
        man = runner.run_scenario(cfg, workers=8, out_dir=str(tmp_path))
        rows = report(man, "qv")
        assert rows[0][4] == 3
        # the manifest records the three path chunks that ran
        assert man.workers == 3
        saved = json.loads((tmp_path / "manifest.json").read_text())
        assert saved["workers"] == 3

    def test_workers_without_path_sweeps(self, tmp_path):
        man = runner.run_scenario(quad_config(sweeps=["potential"]),
                                  workers=4, out_dir=str(tmp_path))
        assert man.workers == 1

    def test_spans_run_serially_without_fork(self, tmp_path, monkeypatch,
                                             quad_run):
        monkeypatch.delattr(os, "fork")
        man = runner.run_scenario(quad_config(), workers=3,
                                  out_dir=str(tmp_path))
        assert man.workers == 3
        for sweep in runner.PATH_SWEEPS:
            assert ((tmp_path / f"{sweep}.csv").read_bytes() == open(
                os.path.join(quad_run.out_dir, f"{sweep}.csv"), "rb").read())

    @pytest.mark.parametrize("over", [
        {"field": {"name": "checkerboard", "lo": 0.5, "hi": 2.0},
         "scheme": "lattice", "scheme_params": {"h": 0.125},
         "fine_margin": 6},
        {"field": {"name": "checkerboard", "lo": 0.5, "hi": 2.0,
                   "cell": 0.25, "mollify": 0.1},
         "law": {"kind": "dirac", "point": [0.1]}, "fine_margin": 4},
    ], ids=["lattice-checkerboard", "em-mollified"])
    def test_worker_count_never_changes_bytes_either_sampler(self, tmp_path,
                                                             over):
        # 31 paths: three workers take uneven spans of 10, 10 and 11
        cfg = quad_config(n_paths=31, allow_unverified=True, sweeps=[
            "qv", "covariation", "forward", "trapezoid", "ito_residual"],
            **over)
        got = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            man = runner.run_scenario(cfg, workers=workers, out_dir=str(out))
            assert man.workers == workers
            got[workers] = {f: (out / f).read_bytes()
                            for f in man.reports.values()}
        assert len(got[1]) == 5
        assert got[1] == got[2] == got[3]

    @pytest.mark.parametrize("cfg", [
        quad_config(orders=[2, 5, 8], n_paths=24, potential={
            "route": "grid", "kernel": {"box": [-11.0, 11.0], "h": 0.05}}),
        dict(D2_ALL_SWEEPS, box=[-10.0, 10.0], quad_h=0.2, potential={
            "route": "grid", "kernel": {"box": [-11.0, 11.0], "h": 0.2}})],
        ids=["d1", "d2"])
    def test_sweeps_do_not_depend_on_companions(self, tmp_path, cfg):
        # every grid yields one fixed record of sums, so a sweep's report
        # is the same bytes alone as beside all eight
        together = runner.run_scenario(cfg, out_dir=str(tmp_path / "all"))
        assert set(together.reports) == set(runner.PATH_SWEEPS)
        for sweep in runner.PATH_SWEEPS:
            alone = runner.run_scenario(dict(cfg, sweeps=[sweep]),
                                        out_dir=str(tmp_path / sweep))
            assert ((tmp_path / sweep / f"{sweep}.csv").read_bytes()
                    == (tmp_path / "all" / f"{sweep}.csv").read_bytes()), sweep
            assert alone.verdicts == {sweep: together.verdicts[sweep]}

    def test_linear_ito_residual_vanishes(self, tmp_path):
        cfg = quad_config(function={"name": "linear", "c": [2.0]},
                          sweeps=["forward", "trapezoid", "ito_residual"])
        man = runner.run_scenario(cfg, out_dir=str(tmp_path))
        for _, n, mean, se, _ in report(man, "ito_residual"):
            assert mean <= 1e-12
        assert man.all_pass()

    def test_lattice_scheme_runs(self, tmp_path):
        # the walk embeds in the fine grid by thinning, so the jump rate
        # 2 lam / h^2 caps the usable fine step; margin 9 gets us there
        cfg = quad_config(
            field={"name": "checkerboard", "lo": 0.5, "hi": 2.0},
            function={"name": "linear", "c": [1.0]},
            scheme="lattice", sweeps=["qv"], allow_unverified=True,
            orders=[4, 5], fine_margin=9, n_paths=60)
        man = runner.run_scenario(cfg, out_dir=str(tmp_path))
        for _, n, mean, se, _ in report(man, "qv"):
            assert 2.0 * 0.5 - 6 * se <= mean <= 2.0 * 2.0 + 6 * se

    def test_gated_rough_field_on_grid_route(self, tmp_path):
        # the kernel box holds the quadrature box, +-10 by default
        cfg = quad_config(**GATED_ROUGH, potential={
            "route": "grid",
            "kernel": {"box": [-10.0, 10.0], "h": 0.05}})
        man = runner.run_scenario(cfg, out_dir=str(tmp_path))
        assert man.conditions["condition_1"]["finite"]
        assert man.verdicts == {"qv": "REPORT", "prop1": "PASS"}

    def test_condition_1_violation(self, tmp_path, monkeypatch):
        # no catalog function fails condition 1 (gradients of |x|^(1+a)
        # stay square integrable), so force the verdict to cover the gate
        from roughdiff import integrability
        real = integrability.check_condition_1

        def divergent(F, U, box, h):
            return dataclasses.replace(real(F, U, box, h), finite=False)

        monkeypatch.setattr(runner.integrability, "check_condition_1",
                            divergent)
        with pytest.raises(ConditionViolated, match="condition 1") as err:
            runner.run_scenario(quad_config(sweeps=["qv"]),
                                out_dir=str(tmp_path))
        assert not err.value.evidence["finite"]
        assert "ratios" in err.value.evidence["ladders"][0]

    def test_condition_2_violation(self, tmp_path):
        cfg = quad_config(function={"name": "abs_power", "alpha": 0.4},
                          law={"kind": "dirac", "point": [0.1]},
                          sweeps=["ito_residual"])
        with pytest.raises(ConditionViolated, match="condition 2") as err:
            runner.run_scenario(cfg, out_dir=str(tmp_path))
        assert not err.value.evidence["finite"]
        assert not all(err.value.evidence["entry_finite"])

    def test_allow_unverified_skips_gate(self, tmp_path):
        cfg = quad_config(function={"name": "abs_power", "alpha": 0.25},
                          law={"kind": "dirac", "point": [0.1]},
                          sweeps=["ito_residual"], allow_unverified=True,
                          n_paths=5, orders=[2])
        man = runner.run_scenario(cfg, out_dir=str(tmp_path))
        assert man.conditions == {"skipped": "allow_unverified"}
        assert os.path.exists(os.path.join(man.out_dir, "ito_residual.csv"))

    def test_prop_sweeps_always_gated(self, tmp_path):
        cfg = quad_config(function={"name": "abs_power", "alpha": 0.25},
                          law={"kind": "dirac", "point": [0.1]},
                          sweeps=["prop3"], allow_unverified=True)
        with pytest.raises(ConditionViolated, match="condition 2"):
            runner.run_scenario(cfg, out_dir=str(tmp_path))

    @pytest.mark.parametrize("cfg,digest", [
        (D2_ALL_SWEEPS, D2_ALL_SWEEPS_CONDITIONS_SHA256),
        # |x|^(7/4) is singular at 0, so its ladders carry shell increments
        (quad_config(function={"name": "abs_power", "alpha": 0.75}),
         ABS_POWER_CONDITIONS_SHA256),
    ], ids=["d2-all-sweeps", "abs-power"])
    def test_condition_ladders_pinned(self, tmp_path, cfg, digest):
        man = runner.run_scenario(cfg, out_dir=str(tmp_path))
        got = hashlib.sha256(json.dumps(man.conditions, sort_keys=True)
                             .encode()).hexdigest()
        assert got == digest

    def test_gate_evaluates_potential_on_its_window(self, monkeypatch):
        # U is sampled once for the box mass, on one 65 x 65 grid, then
        # once per condition at the nodes of its window only: condition 2
        # yields prop2's per-axis integrals from its own pass, and off the
        # Monte Carlo table U is 0
        points = []
        call = kernels.PotentialField.__call__
        grid = kernels.PotentialField.grid

        def counting(self, pts):
            points.append(len(pts))
            return call(self, pts)

        def counting_grid(self, qaxes):
            points.append(math.prod(len(q) for q in qaxes))
            return grid(self, qaxes)

        monkeypatch.setattr(kernels.PotentialField, "__call__", counting)
        monkeypatch.setattr(kernels.PotentialField, "grid", counting_grid)
        scn = runner.load_scenario(D2_ALL_SWEEPS)
        _, _, U = runner.gate_scenario(scn)
        seen = sum(points)

        def count(fn, *args):
            points.clear()
            fn(*args)
            return sum(points)

        def one_pass(potential):
            return count(integrability.refined_integral,
                         lambda p: np.ones(len(p)), potential, scn.box,
                         scn.quad_h, scn.F.singular_points, 2)

        mass = count(integrability.check_box_mass, U, scn.box, scn.quad_h, 2)
        assert mass == 65 * 65
        window = one_pass(U)
        # the same U on a closed form has every node in its window
        full_box = one_pass(kernels.PotentialField(
            route="closed-form", dim=2, fn=lambda p: call(U, p)))
        assert 0 < window < full_box
        assert mass + window <= seen <= mass + 2 * window < full_box


class TestKernelPotentialSweeps:
    def test_aronson_sweep(self, tmp_path):
        cfg = {
            "field": {"name": "identity", "dim": 1},
            "sweeps": ["aronson"],
            "kernel": {"box": [-4.0, 4.0], "h": 0.05, "dt": 5e-4,
                       "times": [0.25, 0.5],
                       "candidates": [2.0, 4.0, 8.0, 16.0, 32.0]},
        }
        man = runner.run_scenario(cfg, out_dir=str(tmp_path))
        rows = report(man, "aronson")
        assert rows == [("aronson_fit", 0, 4.0, 0.0, 2)]
        assert man.verdicts["aronson"] == "PASS"
        assert os.path.exists(os.path.join(man.out_dir, "kernel.csv"))
        assert os.path.exists(os.path.join(man.out_dir, "kernel.json"))

    def test_aronson_sweep_fails_without_candidate(self, tmp_path):
        cfg = {
            "field": {"name": "identity", "dim": 1},
            "sweeps": ["aronson"],
            "kernel": {"box": [-4.0, 4.0], "h": 0.05, "dt": 5e-4,
                       "times": [0.25], "candidates": [1.0]},
        }
        man = runner.run_scenario(cfg, out_dir=str(tmp_path))
        assert man.verdicts["aronson"] == "FAIL"
        assert not man.all_pass()
        assert np.isnan(report(man, "aronson")[0][2])

    def test_aronson_sweep_incomplete_kernel_config(self, tmp_path):
        cfg = {
            "field": {"name": "identity", "dim": 1},
            "sweeps": ["aronson"],
            "kernel": {"box": [-4.0, 4.0], "h": 0.05},
        }
        with pytest.raises(ConfigError, match="kernel.dt"):
            runner.run_scenario(cfg, out_dir=str(tmp_path))

    def test_potential_sweep_closed_form(self, tmp_path):
        cfg = quad_config(sweeps=["potential"])
        man = runner.run_scenario(cfg, out_dir=str(tmp_path))
        rows = dict((r[0], r) for r in report(man, "potential"))
        assert abs(rows["potential_mass"][2] - 1.0) <= 5e-4
        assert abs(rows["potential_l2"][2] - 0.25) <= 5e-3
        assert man.verdicts["potential"] == "PASS"

    def test_potential_sweep_monte_carlo(self, tmp_path):
        cfg = quad_config(sweeps=["potential"],
                          potential={"route": "monte-carlo",
                                     "n_samples": 150000, "seed": 3})
        man = runner.run_scenario(cfg, out_dir=str(tmp_path))
        rows = dict((r[0], r) for r in report(man, "potential"))
        assert abs(rows["potential_mass"][2] - 1.0) <= 0.02
        assert man.verdicts["potential"] == "PASS"
        assert os.path.exists(os.path.join(man.out_dir,
                                           "potential_field.csv"))

    @pytest.mark.parametrize("law", [
        {"kind": "dirac", "point": [0.5]}, MIXTURE,
        {"kind": "grid-density", "edges": [[-1.03, 0.0, 0.5, 2.01]],
         "values": [1.0, 3.0, 0.5]}], ids=["dirac", "mixture", "density"])
    def test_potential_sweep_grid(self, tmp_path, law):
        cfg = quad_config(sweeps=["potential"], law=law, potential=GRID)
        man = runner.run_scenario(cfg, out_dir=str(tmp_path))
        rows = dict((r[0], r) for r in report(man, "potential"))
        assert abs(rows["potential_mass"][2] - 1.0) <= 1e-12
        assert rows["potential_mass"][4] == 241
        assert man.verdicts["potential"] == "PASS"
        assert man.incidents["leakage_warnings"] == 0

    def test_potential_sweep_grid_matches_closed_form(self, tmp_path):
        # the grid route's L2 norm lands on the closed form's 1/4
        cfg = quad_config(sweeps=["potential"], potential=GRID)
        man = runner.run_scenario(cfg, out_dir=str(tmp_path))
        rows = dict((r[0], r) for r in report(man, "potential"))
        assert abs(rows["potential_l2"][2] - 0.25) <= 5e-3

    def test_potential_sweep_too_few_samples(self, tmp_path):
        cfg = quad_config(sweeps=["potential"],
                          potential={"route": "monte-carlo",
                                     "n_samples": 50000})
        with pytest.raises(ConfigError, match="^potential.n_samples: "):
            runner.run_scenario(cfg, out_dir=str(tmp_path))
        assert not os.listdir(tmp_path)


class TestTwoDimensions:
    def test_covariation_oracle(self, d2_run):
        rows = report(d2_run, "covariation")
        for _, n, mean, se, count in rows:
            assert count == 300
            assert abs(mean - 10.0) <= 5.0 * se

    def test_prop2_components(self, d2_run):
        rows = report(d2_run, "prop2")
        names = sorted(set(r[0] for r in rows))
        assert names == ["prop2_ratio_k0", "prop2_ratio_k1"]
        assert d2_run.verdicts["prop2"] == "PASS"

    def test_component_conditions_recorded(self, d2_run):
        assert d2_run.conditions["condition_1_d0"]["finite"]
        assert d2_run.conditions["condition_1_d1"]["finite"]

    def test_potential_mass(self, d2_run):
        rows = dict((r[0], r) for r in report(d2_run, "potential"))
        assert abs(rows["potential_mass"][2] - 1.0) <= 0.02
        assert rows["potential_l2"][2] > 0.0
        assert d2_run.verdicts["potential"] == "PASS"

    def test_report_bytes_pinned(self, d2_run):
        got = {f: hashlib.sha256(open(os.path.join(d2_run.out_dir, f),
                                      "rb").read()).hexdigest()
               for f in D2_RUN_SHA256}
        assert got == D2_RUN_SHA256

    def test_potential_field_table(self, d2_run):
        # the value matrix, shaped by its sidecar's axes, is U bit for bit
        assert d2_run.artifacts == {"potential_field": [
            "potential_field.csv", "potential_field.json"]}
        prefix = os.path.join(d2_run.out_dir, "potential_field")
        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        values = np.loadtxt(prefix + ".csv", delimiter=",", ndmin=2)
        U = runner.resolve_potential(runner.load_scenario(D2_RUN))
        assert values.shape == U.values.shape
        assert values.tobytes() == U.values.tobytes()
        assert [np.array(ax).tobytes() for ax in meta["axes"]] == [
            ax.tobytes() for ax in U.axes]


class TestReportFiles:
    def test_csv_round_trip(self, tmp_path):
        rows = [("qv", 4, 1.9921875, 0.03125, 100),
                ("qv", 6, float("nan"), 0.0, 100)]
        path = tmp_path / "r.csv"
        runner.write_report_csv(path, rows)
        back = runner.read_report_csv(path)
        assert back[0] == rows[0]
        assert back[1][0] == "qv" and np.isnan(back[1][2])

    def test_missing_file(self, tmp_path):
        with pytest.raises(Error, match="absent.csv is unreadable"):
            runner.read_report_csv(tmp_path / "absent.csv")

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(Error, match="unexpected header"):
            runner.read_report_csv(path)

    def test_summarize_matches_from_path_and_object(self, quad_run):
        from_obj = runner.summarize(quad_run)
        from_path = runner.summarize(
            os.path.join(quad_run.out_dir, "manifest.json"))
        assert from_obj == from_path
        assert from_obj.splitlines()[0].startswith("functional")
        assert "PASS" in from_obj and "REPORT" in from_obj

    def test_summarize_fixed_width(self, quad_run):
        lines = runner.summarize(quad_run).splitlines()
        body = [ln for ln in lines[1:] if ln]
        assert body
        for ln in body:
            assert ln[:22].strip()
            int(ln[22:26])
            float(ln[28:42])
            float(ln[44:58])
            int(ln[60:67])
            assert ln[69:] in ("PASS", "FAIL", "REPORT")

    def test_summarize_missing_report(self, tmp_path):
        cfg = quad_config(sweeps=["qv"], n_paths=5, orders=[2])
        man = runner.run_scenario(cfg, out_dir=str(tmp_path))
        os.remove(os.path.join(man.out_dir, "qv.csv"))
        with pytest.raises(Error, match="report file .* is unreadable"):
            runner.summarize(os.path.join(man.out_dir, "manifest.json"))

    def test_summarize_empty_manifest(self, tmp_path):
        man = runner.run_scenario({"field": {"name": "identity", "dim": 1}},
                                  out_dir=str(tmp_path))
        table = runner.summarize(man)
        assert table.splitlines()[0].startswith("functional")
        assert len(table.splitlines()) == 1


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory, cli):
    """One CLI `run` shared by the stdout and summarize assertions."""
    base = tmp_path_factory.mktemp("cli")
    cfg_path = base / "scenario.json"
    cfg_path.write_text(json.dumps(quad_config(
        sweeps=["qv", "trapezoid"], n_paths=20, orders=[2, 3])))
    out = base / "out"
    proc = cli("run", str(cfg_path), "--out-dir", str(out), cwd=base)
    return base, cfg_path, out, proc


class TestCli:
    def test_run_exit_zero(self, cli_run):
        base, cfg_path, out, proc = cli_run
        assert proc.returncode == 0, proc.stderr
        assert "manifest:" in proc.stdout
        assert proc.stdout.splitlines()[0].startswith("functional")
        assert (out / "manifest.json").exists()

    def test_summarize_reproduces_table(self, cli_run, cli):
        base, cfg_path, out, proc = cli_run
        again = cli("summarize", str(out / "manifest.json"), cwd=base)
        assert again.returncode == 0
        assert again.stdout in proc.stdout

    def test_worker_count_identical_bytes(self, cli_run, cli):
        base, cfg_path, out, proc = cli_run
        out2 = base / "out2"
        proc2 = cli("run", str(cfg_path), "--out-dir", str(out2),
                    "--workers", "2", cwd=base)
        assert proc2.returncode == 0, proc2.stderr
        for sweep in ("qv", "trapezoid"):
            assert ((out / f"{sweep}.csv").read_bytes()
                    == (out2 / f"{sweep}.csv").read_bytes())

    def test_seed_override_changes_hash(self, cli_run, tmp_path, cli):
        base, cfg_path, out, proc = cli_run
        out3 = tmp_path / "out3"
        proc3 = cli("run", str(cfg_path), "--out-dir", str(out3),
                    "--seed-override", "99", cwd=base)
        assert proc3.returncode == 0
        a = json.loads((out / "manifest.json").read_text())
        b = json.loads((out3 / "manifest.json").read_text())
        assert a["scenario_hash"] != b["scenario_hash"]

    def test_failing_verdict_exit_one(self, tmp_path, cli):
        cfg = {
            "field": {"name": "identity", "dim": 1},
            "sweeps": ["aronson"],
            "kernel": {"box": [-4.0, 4.0], "h": 0.05, "dt": 5e-4,
                       "times": [0.25], "candidates": [1.0]},
        }
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(cfg))
        proc = cli("run", str(path), "--out-dir", str(tmp_path / "o"),
                   cwd=tmp_path)
        assert proc.returncode == 1
        assert "FAIL: aronson" in proc.stdout

    def test_3d_density_lattice_exit_zero(self, tmp_path, cli):
        # a grid density in d = 3 starts lattice walks on a 3-d checkerboard
        cfg = {
            "field": {"name": "checkerboard", "dim": 3, "lo": 0.5,
                      "hi": 2.0, "cell": 1.0},
            "function": {"name": "quadratic", "dim": 3},
            "law": {"kind": "grid-density",
                    "edges": [[-0.5, 0.0, 0.5], [-0.5, 0.5],
                              [-0.25, 0.25, 0.75]],
                    "values": [[[1.0, 2.0]], [[3.0, 0.5]]]},
            "horizon": 0.25, "orders": [2, 3], "n_paths": 8,
            "fine_margin": 6, "scheme": "lattice",
            "scheme_params": {"h": 0.25}, "seed": 5,
            "allow_unverified": True, "sweeps": ["qv"],
        }
        path = tmp_path / "density3d.json"
        path.write_text(json.dumps(cfg))
        proc = cli("run", str(path), "--out-dir", str(tmp_path / "o"),
                   cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "o" / "qv.csv").read_text().splitlines()) == 3

    def test_config_error_exit_two(self, tmp_path, cli):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(quad_config(n_paths=0)))
        proc = cli("run", str(path), cwd=tmp_path)
        assert proc.returncode == 2
        assert "config error:" in proc.stderr

    def test_construction_error_exit_two(self, tmp_path, cli):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(quad_config(
            field={"name": "identity", "mollify": -0.1})))
        proc = cli("run", str(path), cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: field:")

    @pytest.mark.parametrize("key, over", [
        ("n_paths", {"n_paths": 10.7}),
        ("potential.kernel", {"potential": {"route": "grid", "kernel": 5}}),
        ("horizon", {"horizon": "abc"}),
        ("scheme_params", {"scheme_params": 5}),
        ("kernel.h", {"kernel": dict(KERNEL_CFG, h="abc"),
                      "sweeps": ["aronson"]}),
        ("allow_unverified", {"allow_unverified": "no"}),
        ("scheme_params.h", COARSE_LATTICE),
    ] + LOAD_RULES)
    def test_config_type_error_exit_two(self, tmp_path, cli, key, over):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(quad_config(**over)))
        proc = cli("run", str(path), cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"config error: {key}:")

    @pytest.mark.parametrize("key, over", LOAD_RULES, ids=LOAD_RULE_IDS)
    def test_load_rule_exit_two_in_process(self, tmp_path, capsys, key,
                                           over):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(quad_config(**over)))
        assert cli_main(["run", str(path), "--out-dir",
                         str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}:")
        assert not (tmp_path / "o").exists()

    def test_mixture_potential_on_grid_route(self, tmp_path, cli):
        path = tmp_path / "mix.json"
        path.write_text(json.dumps(quad_config(
            law=MIXTURE, sweeps=["potential"], potential=GRID)))
        proc = cli("run", str(path), "--out-dir", str(tmp_path / "o"),
                   cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert any(line.startswith("potential_mass") and
                   line.endswith("PASS") for line in proc.stdout.splitlines())

    def test_condition_violation_exit_two(self, tmp_path, cli):
        cfg = quad_config(function={"name": "abs_power", "alpha": 0.25},
                          law={"kind": "dirac", "point": [0.1]},
                          sweeps=["ito_residual"])
        path = tmp_path / "div.json"
        path.write_text(json.dumps(cfg))
        proc = cli("run", str(path), "--out-dir", str(tmp_path / "o"),
                   cwd=tmp_path)
        assert proc.returncode == 2
        assert "condition violated:" in proc.stderr
        assert "condition 2" in proc.stderr

    def test_missing_config_exit_two(self, tmp_path, cli):
        proc = cli("run", str(tmp_path / "nope.json"), cwd=tmp_path)
        assert proc.returncode == 2
        assert "config error:" in proc.stderr

    @pytest.mark.parametrize("command, h", [("run", 0.3),
                                            ("potential", 15.0)])
    def test_untiled_potential_h_exit_two(self, tmp_path, cli, command, h):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(quad_config(
            sweeps=["potential"], potential={"route": "closed-form", "h": h})))
        proc = cli(command, str(path), cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == (f"config error: potential.h: h = {h} does not "
                               "tile the box (-10.0, 10.0)\n")

    @pytest.mark.parametrize("command", ["kernel", "potential"])
    def test_non_object_config_exit_two(self, tmp_path, capsys, command):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert cli_main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: config: must be a JSON object\n")

    # valid JSON that is not a manifest object, too
    @pytest.mark.parametrize("text", [None, "{not json", "[1]", "{}"])
    def test_summarize_unreadable_manifest_exit_two(self, tmp_path, capsys,
                                                    text):
        path = tmp_path / "manifest.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(Error, match=f"manifest {path} "):
            runner.summarize(str(path))
        assert cli_main(["summarize", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {path} ") and (
            err.count("\n") == 1)

    def test_summarize_short_report_row_exit_two(self, tmp_path, capsys):
        man = runner.run_scenario(quad_config(sweeps=["qv"], n_paths=5,
                                              orders=[2]),
                                  out_dir=str(tmp_path))
        report_path = os.path.join(man.out_dir, "qv.csv")
        with open(report_path, "a") as fh:
            fh.write("qv,2,1.0\n")
        path = os.path.join(man.out_dir, "manifest.json")
        with pytest.raises(Error, match=f"report file {report_path} "):
            runner.summarize(path)
        assert cli_main(["summarize", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: report file {report_path} ") and (
            err.count("\n") == 1)

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_two(self, tmp_path, capsys, workers):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(quad_config(sweeps=["qv"])))
        with pytest.raises(Error, match="workers"):
            runner.run_scenario(str(path), workers=int(workers),
                                out_dir=str(tmp_path / "o"))
        assert cli_main(["run", str(path), "--workers", workers,
                         "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: workers: must be >= 1, got {workers}\n")
        assert not (tmp_path / "o").exists()

    def huge_config(self, tmp_path):
        # F = c x overflows at the start point; nothing redraws the path
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(quad_config(
            function={"name": "linear", "c": [1e308]},
            law={"kind": "dirac", "point": [2.0]}, sweeps=["qv"],
            allow_unverified=True, n_paths=3, orders=[2])))
        return path

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_function_exit_two(self, tmp_path, capsys):
        path = self.huge_config(tmp_path)
        with pytest.raises(Error, match="path 0: linear"):
            runner.run_scenario(str(path), out_dir=str(tmp_path / "o"))
        assert cli_main(["run", str(path), "--out-dir",
                         str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: path 0: linear ")

    def test_nonfinite_function_one_stderr_line(self, tmp_path, cli):
        # the overflow is the refusal's to report, not numpy's warnings'
        proc = cli("run", str(self.huge_config(tmp_path)), "--out-dir",
                   str(tmp_path / "o"), cwd=tmp_path)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: path 0: linear ")

    def test_failing_worker_ends_like_one_worker(self, tmp_path, cli):
        # path 0 overflows in the first of two forked workers: the same
        # exit code and stderr line as one worker, and no child left over
        path = self.huge_config(tmp_path)
        procs = [cli("run", str(path), "--workers", w, "--out-dir",
                     str(tmp_path / f"o{w}"), cwd=tmp_path)
                 for w in ("1", "2")]
        assert [p.returncode for p in procs] == [2, 2]
        assert procs[1].stderr == procs[0].stderr
        assert len(procs[1].stderr.splitlines()) == 1, procs[1].stderr
        with pytest.raises(Error, match="^path 0: linear "):
            runner.run_scenario(str(path), workers=2,
                                out_dir=str(tmp_path / "in-process"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_without_result_names_its_span(self, tmp_path,
                                                  monkeypatch):
        real = runner.evaluate_chunk

        def dies_past_path_0(scn, start, stop):
            if start > 0:
                os._exit(3)
            return real(scn, start, stop)

        monkeypatch.setattr(runner, "evaluate_chunk", dies_past_path_0)
        cfg = quad_config(n_paths=3, orders=[2], sweeps=["qv"],
                          allow_unverified=True)
        with pytest.raises(Error, match="^paths 1 to 2: the worker exited "
                                        "without a result$"):
            runner.run_scenario(cfg, workers=2, out_dir=str(tmp_path))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_overflowing_sum_exit_two(self, tmp_path, cli):
        # F = c x and its gradient are finite at every state, but dF^2
        # overflows, so the qv sum over the grid is not a number: the
        # path is refused, not reported as a nan mean
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(quad_config(
            function={"name": "linear", "c": [1e200]},
            law={"kind": "dirac", "point": [0.0]}, sweeps=["qv"],
            allow_unverified=True, n_paths=8, orders=[2, 3])))
        proc = cli("run", str(path), "--out-dir", str(tmp_path / "o"),
                   cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: path 0: linear ")
        assert "or a sum over its grid" in lines[0]
        assert not (tmp_path / "o" / "qv.csv").exists()

    def test_kernel_subcommand(self, tmp_path, cli):
        cfg = {
            "field": {"name": "identity", "dim": 1},
            "kernel": {"box": [-4.0, 4.0], "h": 0.05, "dt": 5e-4,
                       "times": [0.25],
                       "candidates": [2.0, 4.0, 8.0]},
        }
        path = tmp_path / "kern.json"
        path.write_text(json.dumps(cfg))
        proc = cli("kernel", str(path), "--out-dir", str(tmp_path / "k"),
                   cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "aronson_fit" in proc.stdout
        assert (tmp_path / "k" / "kernel.csv").exists()

    def test_kernel_subcommand_late_time_alone(self, tmp_path):
        # one late time, dt on the check_step bound: the written kernel is
        # the last row of a solve that also asks for an early time, not
        # the flat table of coefficients that all underflow
        kernel = {"box": [-6.0, 6.0], "h": 0.02, "dt": 2e-4, "times": [4.0],
                  "candidates": [2.0, 4.0, 8.0]}
        field = {"name": "checkerboard", "lo": 0.5, "hi": 2.0}
        path = tmp_path / "kern.json"
        path.write_text(json.dumps({"field": field, "kernel": kernel}))
        assert cli_main(["kernel", str(path), "--out-dir",
                         str(tmp_path / "k")]) == 0
        got = np.loadtxt(tmp_path / "k" / "kernel.csv", delimiter=",")
        want = kernels.solve_kernel_pde(
            fields.make_field(**field), [0.0], kernel["box"], kernel["h"],
            [0.05, 4.0], kernel["dt"]).values[-1]
        assert np.ptp(got) > 0.1
        assert np.abs(got - want).max() <= kernels.KRYLOV_TOL * want.max()

    def test_potential_subcommand(self, tmp_path, cli):
        cfg = {
            "field": {"name": "identity", "dim": 1},
            "law": {"kind": "dirac", "point": [0.0]},
        }
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(cfg))
        proc = cli("potential", str(path), "--out-dir",
                   str(tmp_path / "p"), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "potential_mass" in proc.stdout

    def test_child_imports_tree_under_test(self, tmp_path, run_python):
        """CLI children import the parent's roughdiff, whatever the cwd."""
        proc = run_python("-c", "import roughdiff; print(roughdiff.__file__)",
                          cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == os.path.abspath(roughdiff.__file__)

    def test_two_workers_load_no_executor(self, tmp_path, run_python):
        """A run's workers are forked directly: two of them bring in
        neither concurrent.futures nor multiprocessing, and the run's own
        process, which draws no path, loads no numpy.random."""
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(quad_config(n_paths=8, orders=[2, 3])))
        proc = run_python(
            "-c", "import sys; from roughdiff import runner; "
                  "man = runner.run_scenario(sys.argv[1], workers=2, "
                  "out_dir=sys.argv[2]); "
                  "assert man.workers == 2, man.workers; "
                  "loaded = [m for m in ('concurrent.futures', "
                  "'multiprocessing', 'numpy.random') if m in sys.modules]; "
                  "assert not loaded, loaded",
            str(path), str(tmp_path / "o"), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_runner_import_defers_scipy(self, tmp_path, run_python):
        """Loading the runner pulls in no scipy, which no route of the
        package imports."""
        proc = run_python(
            "-c", "import roughdiff.runner, sys; "
                  "assert 'scipy.sparse' not in sys.modules",
            cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_import_defers_process_pool(self, tmp_path, run_python):
        """Loading the package pulls in no multiprocessing."""
        proc = run_python(
            "-c", "import roughdiff, roughdiff.cli, sys; "
                  "assert 'multiprocessing' not in sys.modules; "
                  "assert 'concurrent.futures.process' not in sys.modules",
            cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_aronson_sweep_loads_no_scipy(self, tmp_path, run_python):
        """The checkerboard_lattice demo, aronson sweep included, and
        ``roughdiff kernel`` run on numpy alone."""
        demo = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "demos", "checkerboard_lattice.json")
        proc = run_python(
            "-c", "import sys; from roughdiff import cli, runner; "
                  "man = runner.run_scenario(sys.argv[1], "
                  "out_dir=sys.argv[2]); "
                  "assert 'kernel.csv' in man.artifacts['kernel']; "
                  "assert cli.main(['kernel', sys.argv[1], '--out-dir', "
                  "sys.argv[3]]) == 0; "
                  "assert not [m for m in sys.modules "
                  "if m.partition('.')[0] == 'scipy'], 'scipy loaded'",
            demo, str(tmp_path / "demo"), str(tmp_path / "kernel"),
            cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_2d_potential_sweep_loads_no_scipy(self, tmp_path, run_python):
        """A 2-d Monte Carlo potential sweep, envelope tail included,
        runs on numpy alone."""
        cfg = {"field": {"name": "constant-diagonal", "values": [2.0, 0.5]},
               "law": {"kind": "dirac", "point": [0.0, 0.0]},
               "sweeps": ["potential"],
               "potential": {"route": "monte-carlo", "n_samples": 100000}}
        proc = run_python(
            "-c", "import json, sys; from roughdiff import runner; "
                  "man = runner.run_scenario(json.loads(sys.argv[1]), "
                  "out_dir=sys.argv[2]); "
                  "assert 'potential_l2' in open(man.out_dir + "
                  "'/potential.csv').read(); "
                  "assert not [m for m in sys.modules "
                  "if m.partition('.')[0] == 'scipy'], 'scipy loaded'",
            json.dumps(cfg), str(tmp_path / "out"), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
