"""Properties of the config schema: every key of ``runner.CONFIG_SCHEMA``
rejects a mistyped value and every section an unknown key, naming the key
path; the scenario hash ignores key order and the int/float spelling of
integer keys; a loaded spec reloads to itself; the README documents every
key path and names no other.
"""

import json
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from roughdiff import runner
from roughdiff.errors import ConfigError

PROPERTY = settings(max_examples=60, deadline=None)
MINIMAL = {"field": {"name": "identity"}}
SECTION_PREFIXES = ("field.", "function.", "law.", "scheme_params.",
                    "potential.", "kernel.")
WRONG = {"integer": "abc", "number": "abc", "bool": "no", "enum": "no-such",
         "string": 5, "list": 5, "box": 5, "object": 5}


def _valid(spec):
    """A value of the key ``spec`` that the walk accepts."""
    k = runner._key(spec)
    if k.kind == "integer":
        return max(1, k.bound)
    if k.kind == "number":
        return 1.0
    if k.kind == "box":
        return [-1.0, 1.0]
    if k.kind == "list":
        return [1.0 if k.item is None else _valid(k.item)]
    return {key: _valid(sub) for key, sub in k.table.items()
            if runner._key(sub).default is runner.REQUIRED}


def _sections(path="", table=runner.CONFIG_SCHEMA, embed=None):
    """(path, table, embed) for every section of the schema and every
    selector choice; ``embed(section)`` is a config that places the keys
    of ``section`` at ``path``, next to valid required keys."""
    embed = embed or (lambda sec: {**MINIMAL, **sec})
    yield path, table, embed
    for key, spec in table.items():
        k = runner._key(spec)
        if k.kind != "object":
            continue
        owner, _, sel = (k.select or "").rpartition(".")
        for choice, sub in (k.table.items() if k.select
                            else [(None, k.table)]):
            base = _valid(("object", None, None, None, sub))
            if owner:   # the selector is a key of the section
                base = {sel: choice, **base}
                sub = {sel: ("enum", runner.REQUIRED, tuple(k.table)), **sub}

            def place(sec, key=key, base=base, outer=embed,
                      top={sel: choice} if k.select and not owner else {}):
                return {**outer({key: {**base, **sec}}), **top}

            yield from _sections(f"{path}{key}.", sub, place)


def _cases():
    """(id, key path, config with a mistyped value at that path)."""
    out = {}
    for path, table, embed in _sections():
        for key, spec in table.items():
            case_id = name = f"{path}{key}"
            while case_id in out:
                case_id += "'"
            out[case_id] = (name, embed({key: WRONG[runner._key(spec).kind]}))
    return [(i, name, cfg) for i, (name, cfg) in out.items()]


CASES = _cases()
SECTIONS = [(path or "top", path, embed) for path, _, embed in _sections()]


def _key_paths():
    return {f"{path}{key}" for path, table, _ in _sections() for key in table}


class TestEveryKey:
    @pytest.mark.parametrize("name, cfg", [(n, c) for _, n, c in CASES],
                             ids=[i for i, _, _ in CASES])
    def test_mistyped_value_names_its_path(self, name, cfg):
        with pytest.raises(ConfigError) as err:
            runner.load_scenario(cfg)
        assert str(err.value).startswith(f"{name}:")

    @pytest.mark.parametrize("path, embed", [(p, e) for _, p, e in SECTIONS],
                             ids=[i for i, _, _ in SECTIONS])
    def test_unknown_key_names_section_and_key(self, path, embed):
        with pytest.raises(ConfigError) as err:
            runner.load_scenario(embed({"bogus_key": 1}))
        assert str(err.value).startswith(f"{path}bogus_key: unknown key")

    def test_every_section_reached(self):
        paths = {p for _, p, _ in SECTIONS}
        assert {"", "field.", "function.", "law.", "scheme_params.",
                "potential.", "potential.kernel.", "kernel."} <= paths

    def test_readme_lists_every_key_path(self):
        readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
        section = re.search(r"^## Command line$(.*?)^## ", text,
                            re.S | re.M).group(1)
        listed = set(re.findall(r"`([a-z_0-9.]+)`", section))
        assert _key_paths() - listed == set()
        # and every key path it names exists, file names aside
        named = {t for t in listed if t.startswith(SECTION_PREFIXES)
                 and not t.endswith((".json", ".csv"))}
        assert named - _key_paths() == set()


# integer keys at every level, so their spelling can vary; the gated
# Monte Carlo potential covers d = 1 and 2
def _config(dim, orders, n_paths, seed, margin, n_samples, pseed):
    return {
        "name": "prop",
        "field": {"name": "identity", "dim": dim},
        "function": {"name": "quadratic", "dim": dim},
        "law": {"kind": "dirac", "point": [0.0] * dim},
        "orders": orders,
        "n_paths": n_paths,
        "seed": seed,
        "fine_margin": margin,
        "sweeps": ["qv", "prop1"],
        "potential": {"route": "monte-carlo", "n_samples": n_samples,
                      "seed": pseed},
        "kernel": {"box": [-2, 2], "h": 0.5, "dt": 0.01, "times": [1],
                   "candidates": [2, 4]},
    }


CONFIGS = st.builds(
    _config, st.integers(1, 2),
    st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True).map(
        sorted),
    st.integers(1, 10 ** 6), st.integers(0, 2 ** 53), st.integers(1, 8),
    st.integers(1, 10 ** 7), st.integers(0, 2 ** 53))


def _respell(obj, rnd):
    """``obj`` with dict keys shuffled and integers randomly written as
    floats (4 as 4.0)."""
    if isinstance(obj, dict):
        keys = list(obj)
        rnd.shuffle(keys)
        return {k: _respell(obj[k], rnd) for k in keys}
    if isinstance(obj, list):
        return [_respell(v, rnd) for v in obj]
    if type(obj) is int and rnd.random() < 0.5:
        return float(obj)
    return obj


class TestScenarioHashProperties:
    @PROPERTY
    @given(CONFIGS, st.randoms(use_true_random=False))
    def test_hash_ignores_key_order_and_integer_spelling(self, cfg, rnd):
        a = runner.load_scenario(cfg)
        b = runner.load_scenario(_respell(cfg, rnd))
        assert a.hash == b.hash
        assert a.spec == b.spec
        assert a.cfg == b.cfg
        assert all(type(b.cfg[k]) is int
                   for k in ("n_paths", "seed", "fine_margin"))

    @PROPERTY
    @given(CONFIGS)
    def test_spec_reloads_to_itself(self, cfg):
        scn = runner.load_scenario(cfg)
        again = runner.load_scenario(scn.spec)
        assert again.spec == scn.spec
        assert again.hash == scn.hash
        # workers rebuild from the canonical JSON, every number a float
        worker = runner.load_scenario(
            json.loads(runner.canonical_json(scn.spec)))
        assert worker.cfg == {**scn.cfg, "name": None, "out_dir": None}
