"""Property test: ``cli.run`` on mutated shipped configs never raises.

Each shipped config, cut to at most 4 sites and short grids, gets one or
two mutations: a node replaced by an arbitrary JSON value, a key or item
deleted, or a key added.  The run must return 0, 1 or 2, and a run that
fails must print a JSON object with an ``error`` field as its last line.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicert import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _small(config: dict) -> dict:
    """``config`` on 4 sites with short grids, one sample and a loose flow
    defect target (few substeps), so that a valid example runs in 0.2 s."""
    config["lattice"]["lengths"] = [4]
    if "observables" in config:
        config["observables"]["B"]["site"] = 3
    for grid in ("time", "flow"):
        if grid in config:
            config[grid]["points"] = 5
    if "samples" in config:
        config["samples"] = 1
    if "flow" in config:
        config["flow"]["defect_target"] = 1e-3
    return config


CONFIGS = {path.name: _small(json.loads(path.read_text()))
           for path in sorted(CONFIG_DIR.glob("*.json"))}

# Integers stay small, apart from a few far out of range: a count inside the
# cap is valid and would only make an example slow.
_SCALARS = (st.none() | st.booleans() | st.text(max_size=6) | st.floats()
            | st.integers(-3, 64) | st.sampled_from([10**12, -(2**63), 2**64]))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                     max_leaves=6)
# A leaf is often replaced by a value of its own JSON type that a careless
# reader would take for valid, and added keys are often ones the schema knows.
_NUMBERS = st.sampled_from([0, -1, 1, 2, 2.5, 1e-12, 1e308, -1e308, 10**12,
                            float("nan"), float("inf")])
_STRINGS = (st.sampled_from(["random_even", "kitaev_chain", "monomial", "sine", "closing",
                             "periodic", "anticommutator"])
            | st.text(alphabet="a./\\", max_size=4))   # file-name-like
_KEYS = (st.sampled_from(["ramp", "mode", "step", "tol", "samples", "params", "n_terms",
                          "max_range", "dimension", "boundary", "kind", "label", "site",
                          "rate", "defect_target", "site_cap", "flow", "time"])
         | st.text(max_size=6))


def _value_like(old):
    if isinstance(old, str):
        return _STRINGS | _JSON
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        return _NUMBERS | _JSON
    return _JSON


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(config, path):
    for key in path:
        config = config[key]
    return config


def _mutate(config: dict, data) -> None:
    paths = list(_paths(config))
    how = data.draw(st.sampled_from(["replace", "replace", "delete", "add"] if len(paths) > 1
                                    else ["add"]))
    if how == "add":
        objects = [p for p in paths if isinstance(_at(config, p), dict)]
        _at(config, data.draw(st.sampled_from(objects)))[data.draw(_KEYS)] = data.draw(_JSON)
        return
    *parent, key = data.draw(st.sampled_from(paths[1:]))
    node = _at(config, parent)
    if how == "delete":
        del node[key]
    else:
        node[key] = data.draw(_value_like(node[key]))


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_configs_exit_with_a_code_and_an_error_object(name, data):
    config = copy.deepcopy(CONFIGS[name])
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(config, data)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        rc = cli.run(config, tmp)
    assert rc in (0, 1, 2)
    if rc:
        error = json.loads(out.getvalue().splitlines()[-1])
        assert isinstance(error, dict) and "error" in error
