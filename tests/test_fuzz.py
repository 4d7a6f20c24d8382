"""Fuzzing the input boundary: configs and algebra files.

Each example replaces one field of a small valid input with a drawn JSON
value and runs the CLI in-process.  Whatever the value, the run must end
with a documented exit code (0 success, 1 config error, 2 numerical
failure, 3 validation failure) and at most one line on stderr, never an
exception.  That line starts with the prefix of its exit code, and a
failed ``validate`` exits 3 whichever instance built the algebra.  Numeric draws for the fields that set the amount of work
(``dt``, ``t_end``, ``K``, ``n``, ``max_iter``, ``num_states`` and
``num_triples``) stay in ranges that run in milliseconds: a legal
``t_end`` of 1e9 at dt 0.01 is 10^11 steps.  Every JSON file that a
fuzzed config's run writes must be strict JSON, with no ``NaN`` or
``Infinity`` token.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest

from fluidalg.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SIMULATE_BASES = {
    "random": {
        "instance": {"name": "random", "seed": 1, "n": 4},
        "initial_state": {"seed": 2, "norm": 1.0},
        "probe": {"seed": 3, "norm": 1.0},
        "integrator": {"method": "rk4-projected", "dt": 0.01, "t_end": 0.05,
                       "record_every": 2,
                       "projection": {"max_iter": 5, "tol": 1e-12}},
    },
    "torus": {
        "instance": {"name": "torus", "K": 1, "max_dim": 52},
        "initial_state": "beltrami",
        "probe": {"seed": 3},
        "integrator": {"dt": 0.01, "t_end": 0.03},
    },
    "rigid": {
        "instance": {"name": "rigid-body", "moments": [1, 2, 3]},
        "initial_state": "axis2",
        "integrator": {"method": "rk4-projected", "dt": 0.1, "t_end": 1.0,
                       "record_every": 3},
    },
}

DIAGNOSE_BASE = {
    "instance": {"name": "random", "seed": 1, "n": 4},
    "diagnostics": {"num_states": 4, "num_triples": 3, "seed": 5},
}

ALGEBRA_BASE = {
    "dim": 3,
    "triple": [[0, 1, 2, 1.0]],
    "linking": np.eye(3).tolist(),
    "metric": np.diag([1.0, 2.0, 3.0]).tolist(),
}


def _paths(node, prefix=()):
    """Every path to a value inside ``node``, the containers included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(base, path, value):
    doc = copy.deepcopy(base)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


SPECIAL = st.sampled_from([
    None, True, False, "", "x", "1", "rk4", "beltrami", float("inf"),
    float("-inf"), float("nan"), [], {}, [1], [[1, "a"]], {"seed": 1},
    {"name": "so3"},
])
HUGE = st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 63, 1e300])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    st.floats(allow_nan=True, allow_infinity=True),
)
JSON = st.one_of(
    SPECIAL, HUGE, SCALARS,
    st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                 max_leaves=8),
)


def _bounded(numbers):
    # a non-numeric or non-finite JSON value, or a number in a range that
    # runs fast
    return st.one_of(SPECIAL, st.text(max_size=4),
                     st.lists(SCALARS, max_size=3), numbers)


# numeric draws of the fields that set the amount of work
BOUNDED = {
    "dt": _bounded(st.floats(max_value=0.0) | st.floats(0.01, 2.0)),
    "t_end": _bounded(st.floats(max_value=0.05)),
    "K": _bounded(st.integers(-2, 2) | st.floats(-2.0, 2.5)),
    "n": _bounded(st.integers(-2, 6) | st.floats(-2.0, 6.5)),
    "max_iter": _bounded(st.integers(-2, 20) | st.floats(-2.0, 20.0)),
    "num_states": _bounded(st.integers(-2, 8) | st.floats(-2.0, 8.0)),
    "num_triples": _bounded(st.integers(-2, 8) | st.floats(-2.0, 8.0)),
}


def _value_for(path):
    return BOUNDED.get(path[-1], JSON) if path else JSON


@st.composite
def _field_and_value(draw, base):
    paths = [p for p in _paths(base) if p]
    path = draw(st.sampled_from(paths))
    return path, draw(_value_for(path))


def _run(args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    return code, err.getvalue()


# the stderr prefixes of each nonzero exit code
PREFIXES = {1: ("config error: ",), 2: ("numerical failure: ",),
            3: ("validation error: ", "identity suite FAILED")}


def _check(code, err):
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1 and "Traceback" not in err
    if code:
        assert err.endswith("\n") and err.startswith(PREFIXES[code])
    if "algebra validation failed" in err:
        assert code == 3


FUZZ = settings(derandomize=True, deadline=None, max_examples=100,
                database=None)


@pytest.mark.parametrize("name", list(SIMULATE_BASES))
def test_fuzzed_simulate_config_exits_cleanly(name):
    base = SIMULATE_BASES[name]

    @FUZZ
    @given(_field_and_value(base))
    def run(field):
        path, value = field
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w") as fh:
                json.dump(_replace(base, path, value), fh)
            _check(*_run(["simulate", "--config", cfg, "--output",
                          os.path.join(tmp, "out")]))

    run()


@FUZZ
@given(_field_and_value(DIAGNOSE_BASE))
def test_fuzzed_diagnose_config_exits_cleanly(field):
    path, value = field
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(_replace(DIAGNOSE_BASE, path, value), fh)
        _check(*_run(["diagnose", "--config", cfg, "--output",
                      os.path.join(tmp, "out")]))


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
def test_fuzzed_algebra_file_exits_cleanly(command):
    @FUZZ
    @given(_field_and_value(ALGEBRA_BASE))
    def run(field):
        path, value = field
        with tempfile.TemporaryDirectory() as tmp:
            alg = os.path.join(tmp, "alg.json")
            with open(alg, "w") as fh:
                json.dump(_replace(ALGEBRA_BASE, path, value), fh)
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w") as fh:
                json.dump({"instance": {"name": "custom", "path": alg},
                           "initial_state": [0.0, 1.0, 1.0],
                           "integrator": {"dt": 0.1, "t_end": 0.5},
                           "diagnostics": {"num_states": 4,
                                           "num_triples": 2}}, fh)
            _check(*_run([command, "--config", cfg, "--output",
                          os.path.join(tmp, "out")]))

    run()


def _refuse(token):
    raise ValueError(f"non-strict JSON token {token}")


def _check_strict_json(out):
    """Every JSON file the run wrote parses with NaN and Infinity refused."""
    names = os.listdir(out) if os.path.isdir(out) else []
    for name in names:
        if name.endswith(".json"):
            with open(os.path.join(out, name)) as fh:
                json.load(fh, parse_constant=_refuse)


CONFIG_BASES = {**{f"simulate-{name}": ("simulate", base)
                   for name, base in SIMULATE_BASES.items()},
                "diagnose": ("diagnose", DIAGNOSE_BASE)}


@pytest.mark.parametrize("name", list(CONFIG_BASES))
def test_fuzzed_config_writes_strict_json(name):
    command, base = CONFIG_BASES[name]

    @FUZZ
    @given(_field_and_value(base))
    def run(field):
        path, value = field
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w") as fh:
                json.dump(_replace(base, path, value), fh)
            out = os.path.join(tmp, "out")
            _check(*_run([command, "--config", cfg, "--output", out]))
            _check_strict_json(out)

    run()
