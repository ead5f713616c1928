"""Golden SHA-256s of every report CSV and artifact file the three demos
write.

The demos run in-process through ``run_scenario`` with their shipped
configs.  A change that alters any report or artifact byte of a demo must
say why and update the hash here.  CSV bytes hold floats printed with
``repr``, so the hashes also pin the NumPy build the suite runs with.
"""

import hashlib
import os

import pytest

from roughdiff.runner import run_scenario

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "demos")

GOLDEN = {
    "brownian_quadratic": {
        "covariation.csv":
            "9ce42c8f39561ab10f15c85ef42b60008fd2932213c8997c64d4a7fafe88c480",
        "forward.csv":
            "537878434d09d26340604206d140db942941a02ff4d0dcc8791507a8410e6043",
        "ito_residual.csv":
            "fbc3933c363cd5939a3ef912133ae42cd44f532c8a356f707692b7fd0973ae60",
        "prop1.csv":
            "d9480a034a07fcbbe98289bfaf180644f2e7db3cff9e070d2e3cbfcdd5f5b19f",
        "prop2.csv":
            "e541fd8815c065d3590f2227a7c285ca0940627177da6756e68cdda3239f157b",
        "prop3.csv":
            "e81500cbeaa34503b0a0db275ab21a5a3026cf5f311025022ee334d968f6c99d",
        "qv.csv":
            "99ad0b999ff55c70357fd63128a9510a332b72c95e07a262306fb56a1f6851b7",
        "trapezoid.csv":
            "238fd84b80f5365619b83bba77de3a66c0cfb5702d06752555fee2ae4956e57d",
    },
    "sin_residual": {
        "ito_residual.csv":
            "12821f6def9c30fb43be6cf2a175e02e87371a53c3369261669721eba60e6c2a",
        "potential.csv":
            "bb76813c932405636e5f8342e9de9bb1426e32c0e5e3283ef6da49d4bd825dc5",
        "trapezoid.csv":
            "d3506b0bf1e9069cae211c73c14872bdf85e627cfca3520571ce4cb2becd90ae",
    },
    "checkerboard_lattice": {
        "aronson.csv":
            "1a29537dcb4979bf40917ef85149ff184e2104d88baf0bd57a7f026f8ad4e0f5",
        "covariation.csv":
            "d7c2f8a883599dcc17a1b7ffbdde7bb7da59a11d86fd11a0644bd5dd14f2bfaa",
        "kernel.csv":
            "a4268565588d2701d2ba6bf9107fb470395ee0d6517287c1ae8debe19dd11c81",
        "kernel.json":
            "101d948deb63a0f2b26bd8a77b3b8858fc235cd6d1467e25638461d617af4757",
        "qv.csv":
            "85e5ee25df52f7aa31f0b8c228c6fa0fb0e8c5ca7e18f7d076f139733e9a3cb6",
    },
}


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
