"""Each numeric setting has one check and one default, in the library
object that owns it.

The CLI passes these settings through unchecked, so a bad value is refused
by the library with the same words the CLI prints after ``config error: ``,
and a key the config leaves out takes the library's default.
"""

import inspect
import json
import shutil

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
from fluidalg.instances import TORUS_MAX_DIM
from fluidalg.integrators import integrate

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


@pytest.mark.parametrize("dt, t_end", [(5e-324, 1.0), (1e-300, 1e10)])
def test_a_step_count_past_the_float_range_is_refused(tmp_path, capsys, dt,
                                                      t_end):
    with pytest.raises(ConfigError) as refused:
        IntegratorSpec(dt=dt, t_end=t_end)
    assert str(refused.value) == (
        f"bad integrator config: t_end / dt must be finite, "
        f"got {t_end!r} / {dt!r}")
    command, payload = _simulate(dt=dt, t_end=t_end)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {refused.value}\n"
    assert not out.exists()


def test_a_tiny_step_with_a_zero_horizon_runs():
    spec = IntegratorSpec(dt=5e-324, t_end=0.0)
    result = integrate(so3(), [0.0, 1.0, 1.0], spec)
    assert result.steps == 0 and len(result.records) == 1


def _set_default(monkeypatch, func, name, value):
    """Make ``value`` the default of the parameter ``name`` of ``func``, in
    the function object that holds it."""
    func = inspect.unwrap(func)
    names = [p.name for p in inspect.signature(func).parameters.values()
             if p.default is not p.empty]
    defaults = list(func.__defaults__)
    defaults[names.index(name)] = value
    monkeypatch.setattr(func, "__defaults__", tuple(defaults))


def _outcome(capsys, command, payload, cfg, out):
    """Exit code, stdout, stderr and output files of ``command`` run on
    ``payload``; the output directory is removed after."""
    cfg.write_text(json.dumps(payload))
    code = main([command, "--config", str(cfg), "--output", str(out)])
    files = {}
    if out.exists():
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        shutil.rmtree(out)
    return code, capsys.readouterr(), files


_TORUS2 = {"name": "torus", "K": 2}

# each library default: the function that holds it, a value other than
# the default, and the command and config given {key: value}, or {} to
# leave the key out
_DEFAULTS = {
    "method": (IntegratorSpec.__init__, "rk4-projected",
               lambda kv: _simulate(**kv)),
    "record_every": (IntegratorSpec.__init__, 2,
                     lambda kv: _simulate(t_end=0.4, **kv)),
    "max_iter": (ProjectionSettings.__init__, 3,
                 lambda kv: _simulate(method="rk4-projected", projection=kv)),
    "tol": (ProjectionSettings.__init__, 1e-9,
            lambda kv: _simulate(method="rk4-projected", projection=kv)),
    "num_states": (run_identity_suite, 7, lambda kv: _diagnose(**kv)),
    "num_triples": (run_identity_suite, 5, lambda kv: _diagnose(**kv)),
    "seed": (run_identity_suite, 7, lambda kv: _diagnose(**kv)),
    "max_dim": (build_torus_algebra, 52,
                lambda kv: _simulate({**_TORUS2, **kv})),
}


@pytest.mark.parametrize("name", _DEFAULTS)
def test_the_cli_follows_the_library_default(tmp_path, capsys, monkeypatch,
                                             name):
    # a config that leaves a setting out runs as one that gives the
    # library's default, whatever that default is
    func, value, config = _DEFAULTS[name]
    monkeypatch.delenv("FLUIDALG_SEED_OVERRIDE", raising=False)
    paths = tmp_path / "cfg.json", tmp_path / "out"
    given = _outcome(capsys, *config({name: value}), *paths)
    _set_default(monkeypatch, func, name, value)
    assert _outcome(capsys, *config({}), *paths) == given


def test_the_echo_reads_the_patched_default(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FLUIDALG_SEED_OVERRIDE", raising=False)
    paths = tmp_path / "cfg.json", tmp_path / "out"
    for name in ("record_every", "num_states", "max_dim"):
        func, value, _ = _DEFAULTS[name]
        _set_default(monkeypatch, func, name, value)
    code, _, files = _outcome(capsys, *_simulate(t_end=0.4), *paths)
    summary = json.loads(files["summary.json"])
    assert code == 0 and summary["steps"] == 4 and summary["records"] == 3
    assert summary["config"]["integrator"]["record_every"] == 2
    code, _, files = _outcome(capsys, *_diagnose(), *paths)
    echo = json.loads(files["diagnostics.json"])["diagnostics"]
    assert code == 0 and echo["num_states"] == 7
    code, captured, files = _outcome(capsys, *_simulate(_TORUS2), *paths)
    assert code == 1 and not files
    assert captured.err.startswith("config error: torus truncation K=2 ")
    assert captured.err.endswith(" above the cap 52; raise max_dim to "
                                 "build it anyway\n")


def test_instances_print_the_torus_default(capsys):
    # the listing and build_torus_algebra's real default cannot drift
    # apart: both read TORUS_MAX_DIM
    default = inspect.signature(build_torus_algebra).parameters["max_dim"]
    assert default.default == TORUS_MAX_DIM
    assert main(["instances"]) == 0
    line = ("  torus        K: int >= 1; max_dim: int "
            f"(default {default.default})\n")
    assert line in capsys.readouterr().out
