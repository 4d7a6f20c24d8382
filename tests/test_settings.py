"""Each numeric setting has one check, in the library object that owns it.

The CLI passes these settings through unchecked, so a bad value is refused
by the library with the same words the CLI prints after ``config error: ``.
"""

import json

import pytest

from fluidalg import (
    ConfigError,
    IntegratorSpec,
    ProjectionSettings,
    build_torus_algebra,
    random_algebra,
    rigid_body,
    run_identity_suite,
    so3,
)
from fluidalg.cli import main

_SO3 = {"name": "so3"}


def _simulate(instance=_SO3, projection=None, **integrator):
    integrator = {"dt": 0.1, "t_end": 0.1, **integrator}
    if projection is not None:
        integrator["projection"] = projection
    return "simulate", {"instance": instance, "initial_state": [0, 1, 1],
                        "integrator": integrator}


def _diagnose(**diagnostics):
    return "diagnose", {"instance": _SO3, "diagnostics": diagnostics}


# each library-owned setting: the command and config that carry the value
# v, and the library call given v
_OWNED = {
    "method": (lambda v: _simulate(method=v),
               lambda v: IntegratorSpec(method=v)),
    "dt": (lambda v: _simulate(dt=v), lambda v: IntegratorSpec(dt=v)),
    "t_end": (lambda v: _simulate(t_end=v),
              lambda v: IntegratorSpec(t_end=v)),
    "record_every": (lambda v: _simulate(record_every=v),
                     lambda v: IntegratorSpec(record_every=v)),
    "max_iter": (lambda v: _simulate(projection={"max_iter": v}),
                 lambda v: ProjectionSettings(max_iter=v)),
    "tol": (lambda v: _simulate(projection={"tol": v}),
            lambda v: ProjectionSettings(tol=v)),
    "num_states": (lambda v: _diagnose(num_states=v),
                   lambda v: run_identity_suite(so3(), num_states=v)),
    "num_triples": (lambda v: _diagnose(num_triples=v),
                    lambda v: run_identity_suite(so3(), num_triples=v)),
    "diagnostics.seed": (lambda v: _diagnose(seed=v),
                         lambda v: run_identity_suite(so3(), seed=v)),
    "moments": (lambda v: _simulate({"name": "rigid-body",
                                     "moments": [1, 2, v]}),
                lambda v: rigid_body(1, 2, v)),
    "K": (lambda v: _simulate({"name": "torus", "K": v}),
          lambda v: build_torus_algebra(v)),
    "max_dim": (lambda v: _simulate({"name": "torus", "K": 1, "max_dim": v}),
                lambda v: build_torus_algebra(1, max_dim=v)),
    "instance.seed": (lambda v: _simulate({"name": "random", "seed": v,
                                           "n": 3}),
                      lambda v: random_algebra(v, 3)),
}

_INF, _NAN = float("inf"), float("nan")
_BAD = {
    "method": ["euler", 1, None],
    "dt": [0, -1.0, _INF, _NAN, True, "0.1", None],
    "t_end": [-1, _INF, True, "1"],
    "record_every": [0, 1.5, 2.0, True, "1"],
    "max_iter": [0, 2.5, True, None],
    "tol": [0, -1.0, _INF, True, "1e-12"],
    "num_states": [1, 1000001, 2.0, True, None],
    "num_triples": [-1, 1000001, False, 1.5],
    "diagnostics.seed": [-1, 1.5, None, "1"],
    "moments": [0, -2, _INF, _NAN, True, "3", None],
    # K = 3 is past the default dimension cap
    "K": [0, 1.5, True, "1", None, 3],
    "max_dim": [0, 52.5, True, "52", 51],
    "instance.seed": [-1, 0.5, True, None],
}


@pytest.mark.parametrize("setting, value", [
    (setting, value) for setting, values in _BAD.items() for value in values
])
def test_library_refuses_a_setting_with_the_cli_line(tmp_path, capsys,
                                                     setting, value):
    config, call = _OWNED[setting]
    command, payload = config(value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
    line = capsys.readouterr().err
    with pytest.raises(ConfigError) as refused:
        call(value)
    assert line == f"config error: {refused.value}\n"
    assert not out.exists()


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


def test_integer_settings_are_echoed_as_floats(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "instance": {"name": "rigid-body", "moments": [1, 2, 3]},
        "initial_state": [0, 1, 1],
        "integrator": {"method": "rk4-projected", "dt": 1, "t_end": 2,
                       "projection": {"max_iter": 3, "tol": 1}},
    }))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--output",
                 str(out)]) == 0
    text = (out / "summary.json").read_text()
    echo = json.loads(text)["config"]
    assert echo["integrator"] == {
        "method": "rk4-projected", "dt": 1.0, "t_end": 2.0,
        "record_every": 1, "projection": {"max_iter": 3, "tol": 1.0},
    }
    assert '"dt": 1.0,' in text and '"t_end": 2.0,' in text
    assert '"tol": 1.0\n' in text and '"record_every": 1,' in text
    # the instance is echoed as given
    assert echo["instance"]["moments"] == [1, 2, 3]
    assert '"moments": [\n        1,\n' in text


def test_real_settings_are_stored_as_floats():
    spec = IntegratorSpec(dt=1, t_end=2, projection=ProjectionSettings(tol=1))
    assert type(spec.dt) is float and spec.dt == 1.0
    assert type(spec.t_end) is float and spec.t_end == 2.0
    assert type(spec.projection.tol) is float
    moments = rigid_body(1, 2, 3).meta["moments"]
    assert moments == (1.0, 2.0, 3.0)
    assert all(type(m) is float for m in moments)
