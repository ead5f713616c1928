"""Golden SHA-256s of every report CSV and artifact file the three demos
write, and the scenario hashes of their configs.

The demos run in-process through ``run_scenario`` with their shipped
configs.  A change that alters any report or artifact byte of a demo must
say why and update the hash here.  CSV bytes hold floats printed with
``repr``, so the hashes also pin the NumPy build the suite runs with.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from roughdiff.runner import load_scenario, read_config, run_scenario

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "demos")

GOLDEN = {
    "brownian_quadratic": {
        "covariation.csv":
            "9847641819ea54e600de19f91cb00a40baeea784b768590ab6388d7c2238b136",
        "forward.csv":
            "338e8462705e9f77f0c0b7355af6e8a52fc65cc22cf55d3bc0a124bb874491d8",
        "ito_residual.csv":
            "9707565b3c71e79cf3a88a11d271f2e92153398bce9ddd0e9311f592d9be0d0e",
        "prop1.csv":
            "4abae9ae26b061160af67b3f567bc849aeec52dbccb2e01a8f22470a0b80e95e",
        "prop2.csv":
            "393eee71cf652aa1e72913f1403821d0de652e60b1b1c9390763360f3de78bea",
        "prop3.csv":
            "39aa98a5c0b2377423bb03cb2a1f0a9ac5a284463fc5732e0d4c4c6aa45d2203",
        "qv.csv":
            "c5440df8869a999b474ed2ed66264f97f01c58a7ea7b2df13de43b145527a39e",
        "trapezoid.csv":
            "1cb151446966bd03faf65c0cdeb7284e333710cd37221bb661aef32fa5d87b63",
    },
    "sin_residual": {
        "ito_residual.csv":
            "0b94d2c625de63af2f56efc151d9cbeb5e60d46577336daef3187805ea0da3c3",
        "potential.csv":
            "afe857c7392dea11412dc001295e25967bbd48f4ad14efd36095da6b5120e438",
        "trapezoid.csv":
            "d8f6357370c034bc641daa3b027a4365b3bd74c4ea5de92795d301e07b8eb37e",
    },
    "checkerboard_lattice": {
        "aronson.csv":
            "1a29537dcb4979bf40917ef85149ff184e2104d88baf0bd57a7f026f8ad4e0f5",
        "covariation.csv":
            "dfe02367696154b92550feaf6e26c1e7bf5fd5b8467625e3ac87f30c1e4ed15c",
        "kernel.csv":
            "eb017ca147de96722fe91b358b0f4abe5bbe4d2256469230d0e89fc5d4b8a58f",
        "kernel.json":
            "389665d98026f160aec184384cc7b0ce1df101c0f0b363abdefdbac6b3f54d93",
        "qv.csv":
            "4e27f9f538918d877cf522f3be26c078ccef7e6dc9f793a5796ea8d633ced2fd",
    },
}


# SHA-256 of the float64 bytes of the checkerboard_lattice kernel's axis,
# times and values, in that order, as read back from kernel.csv and
# kernel.json; taken when tables were long t,x,value files, so it shows
# that the value-matrix layout moved no table value
CHECKERBOARD_KERNEL_SHA256 = (
    "5937540676e16e4912685377f3bb65f62e6d49bd71d7a71bc3564bef231ab27a")


# scenario hashes of the shipped configs; a parser change must leave them
SCENARIO_HASH = {
    "brownian_quadratic": "379a6736d7120a0c",
    "sin_residual": "ae40ee1efe8c9b75",
    "checkerboard_lattice": "1394ac59ec72c330",
}


@pytest.mark.parametrize("demo", sorted(SCENARIO_HASH))
def test_demo_scenario_hash(demo):
    path = os.path.join(DEMOS, f"{demo}.json")
    assert load_scenario(path).hash == SCENARIO_HASH[demo]
    # the sweeps hash in table order, whatever order the config lists
    raw = read_config(path)
    reordered = load_scenario(dict(raw, sweeps=raw["sweeps"][::-1]))
    assert reordered.hash == SCENARIO_HASH[demo]


@pytest.mark.parametrize("demo", sorted(GOLDEN))
def test_demo_report_hashes(demo, tmp_path):
    manifest = run_scenario(os.path.join(DEMOS, f"{demo}.json"),
                            out_dir=tmp_path)
    files = list(manifest.reports.values())
    for names in manifest.artifacts.values():
        files.extend(names)
    got = {}
    for fname in files:
        with open(tmp_path / fname, "rb") as fh:
            got[fname] = hashlib.sha256(fh.read()).hexdigest()
    assert got == GOLDEN[demo]


def test_demo_kernel_values(tmp_path):
    run_scenario(os.path.join(DEMOS, "checkerboard_lattice.json"),
                 out_dir=tmp_path)
    with open(tmp_path / "kernel.json") as fh:
        meta = json.load(fh)
    (axis,) = meta["axes"]
    values = np.loadtxt(tmp_path / "kernel.csv", delimiter=",", ndmin=2)
    assert values.shape == (len(meta["times"]), len(axis))
    digest = hashlib.sha256()
    for arr in (axis, meta["times"], values):
        digest.update(np.asarray(arr, dtype="<f8").tobytes())
    assert digest.hexdigest() == CHECKERBOARD_KERNEL_SHA256


@pytest.mark.parametrize("margin", [1, 6])
def test_lattice_reports_do_not_depend_on_fine_margin(margin, tmp_path):
    # the walk runs in continuous time and is recorded every
    # horizon / 2^max(orders), so the fine step moves no state
    raw = read_config(os.path.join(DEMOS, "checkerboard_lattice.json"))
    run_scenario(dict(raw, fine_margin=margin, sweeps=["qv", "covariation"]),
                 out_dir=tmp_path)
    for fname in ("qv.csv", "covariation.csv"):
        with open(tmp_path / fname, "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        assert got == GOLDEN["checkerboard_lattice"][fname], fname
