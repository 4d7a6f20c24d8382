"""CLI subcommands, file formats, exit codes, and determinism."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fluidalg
from fluidalg import (ValidationReport, cli, random_algebra,
                      save_algebra)
from fluidalg.cli import main


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def rigid_config(tmp_path, **integrator):
    spec = {"method": "rk4", "dt": 1e-3, "t_end": 1.0, "record_every": 100}
    spec.update(integrator)
    return write_config(
        tmp_path / "config.json",
        {
            "instance": {"name": "rigid-body", "moments": [1, 2, 3]},
            "initial_state": [0.0, 1.0, 1.0],
            "integrator": spec,
        },
    )


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_expected_outputs(tmp_path):
    cfg = rigid_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    trace = (out / "trace.csv").read_text()
    assert trace.splitlines()[0] == "t,energy,helicity,probe_linking"
    assert "\r" not in trace
    state_header = (out / "state.csv").read_text().splitlines()[0]
    assert state_header == "t,x0,x1,x2"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["initial"]["energy"] == 5.0
    assert summary["initial"]["helicity"] == 2.0
    assert summary["max_energy_drift"] <= 1e-10
    assert summary["max_helicity_drift"] <= 1e-10
    assert summary["steps"] == 1000
    assert summary["failed"] is False
    assert summary["version"]
    assert summary["config"]["integrator"]["dt"] == 1e-3


def test_zero_horizon_single_row(tmp_path):
    cfg = rigid_config(tmp_path, t_end=0.0)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    rows = read_rows(out / "trace.csv")
    assert len(rows) == 1
    assert rows[0]["t"] == "0.0"


def test_repeated_runs_byte_identical(tmp_path):
    cfg = rigid_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--output", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--output", str(out2)]) == 0
    for name in ("trace.csv", "state.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_a_saved_random_algebra_simulates_with_the_bits_of_the_instance(
        tmp_path):
    # the file holds the canonical entries, which are all that the random
    # instance contracts, so the custom run writes the same trace
    path = tmp_path / "random32.json"
    save_algebra(random_algebra(4, 32), path)
    traces = []
    for instance in ({"name": "random", "seed": 4, "n": 32},
                     {"name": "custom", "path": str(path)}):
        cfg = write_config(tmp_path / "config.json", {
            "instance": instance,
            "initial_state": {"seed": 5, "norm": 1.0},
            "integrator": {"method": "rk4", "dt": 0.25, "t_end": 25.0,
                           "record_every": 1},
        })
        out = tmp_path / instance["name"]
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_a_saved_random_algebra_diagnoses_with_the_bits_of_the_instance(
        tmp_path):
    path = tmp_path / "random32.json"
    save_algebra(random_algebra(0, 32), path)
    payloads = []
    for instance in ({"name": "random", "seed": 0, "n": 32},
                     {"name": "custom", "path": str(path)}):
        cfg = write_config(tmp_path / "config.json", {"instance": instance})
        out = tmp_path / instance["name"]
        assert main(["diagnose", "--config", cfg, "--output", str(out)]) == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        del payload["instance"], payload["algebra"]["kind"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_summary_drifts_match_independent_reader(tmp_path):
    # recompute the drift fields from trace.csv with the csv module only
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "random", "seed": 5, "n": 6},
            "initial_state": {"seed": 9, "norm": 3.0},
            "probe": {"seed": 10, "norm": 2.0},
            "integrator": {"method": "rk4", "dt": 5e-3, "t_end": 1.0,
                           "record_every": 7},
        },
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    rows = read_rows(out / "trace.csv")
    e0 = float(rows[0]["energy"])
    h0 = float(rows[0]["helicity"])
    p0 = float(rows[0]["probe_linking"])
    max_de = max(abs(float(r["energy"]) - e0) for r in rows)
    max_dh = max(abs(float(r["helicity"]) - h0) for r in rows)
    max_dp = max(abs(float(r["probe_linking"]) - p0) for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_energy_drift"] == max_de
    assert summary["max_helicity_drift"] == max_dh
    assert summary["max_probe_linking_drift"] == max_dp
    assert summary["records"] == len(rows)


def test_summary_drift_is_null_when_the_trace_holds_nan(tmp_path):
    # one step so long that the state nears the float range: its energy
    # and helicity overflow to NaN, which the drifts must not drop
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "random", "seed": 2, "n": 6},
            "initial_state": {"seed": 1, "norm": 1.0},
            "integrator": {"method": "rk4", "dt": 3.1622776601683794e+23,
                           "t_end": 3.1622776601683794e+23},
        },
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    last = (out / "trace.csv").read_text().splitlines()[-1]
    assert last.split(",")[1:3] == ["nan", "nan"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_energy_drift"] is None
    assert summary["max_helicity_drift"] is None
    assert summary["non_finite"] == [
        "final.energy", "final.helicity", "max_energy_drift",
        "max_helicity_drift"]


def test_probe_column_empty_without_probe(tmp_path):
    cfg = rigid_config(tmp_path, t_end=0.01)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[1].endswith(",")


def test_set_overrides(tmp_path):
    cfg = rigid_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--config", cfg,
            "--output", str(out),
            "--set", "integrator.dt=1e-2",
            "--set", "integrator.t_end=0.1",
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["integrator"]["dt"] == 1e-2
    assert summary["steps"] == 10


def test_set_keeps_a_value_that_is_not_json_as_a_string(tmp_path):
    cfg = rigid_config(tmp_path, dt=1e-2, t_end=0.1)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out),
                 "--set", "integrator.method=rk4-projected"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["integrator"]["method"] == "rk4-projected"


@pytest.mark.parametrize("item, message", [
    ("x", "--set expects KEY=VALUE, got 'x'"),
    ("instance.K.x=1", "--set path 'instance.K.x' crosses a non-object"),
])
def test_bad_set_is_config_error(tmp_path, capsys, item, message):
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": {"name": "torus", "K": 1},
        "initial_state": {"seed": 1},
        "integrator": {"dt": 0.01, "t_end": 0.02},
    })
    assert main(["simulate", "--config", cfg, "--output",
                 str(tmp_path / "out"), "--set", item]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_seed_override_env(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "random", "seed": 5, "n": 6},
            "initial_state": {"seed": 9},
            "integrator": {"method": "rk4", "dt": 1e-2, "t_end": 0.1},
        },
    )
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    monkeypatch.delenv("FLUIDALG_SEED_OVERRIDE", raising=False)
    assert main(["simulate", "--config", cfg, "--output", str(out1)]) == 0
    monkeypatch.setenv("FLUIDALG_SEED_OVERRIDE", "99")
    assert main(["simulate", "--config", cfg, "--output", str(out2)]) == 0
    assert main(["simulate", "--config", cfg, "--output", str(out3)]) == 0
    a = (out1 / "trace.csv").read_bytes()
    b = (out2 / "trace.csv").read_bytes()
    c = (out3 / "trace.csv").read_bytes()
    assert a != b  # the override changes the run
    assert b == c  # reproducibly
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["config"]["instance"]["seed"] == 99
    assert summary["config"]["initial_state"]["seed"] == 99


@pytest.mark.parametrize("diagnostics", [None, {}, {"num_states": 5}])
def test_seed_override_reaches_the_default_diagnose_seed(
        tmp_path, monkeypatch, diagnostics):
    # a config with no "diagnostics" section runs as one with an empty one
    payload = {"instance": {"name": "so3"}}
    if diagnostics is not None:
        payload["diagnostics"] = diagnostics
    cfg = write_config(tmp_path / "cfg.json", payload)
    seeded = write_config(tmp_path / "seeded.json", {
        "instance": {"name": "so3"},
        "diagnostics": {**(diagnostics or {}), "seed": 7},
    })
    out = tmp_path / "out"
    monkeypatch.delenv("FLUIDALG_SEED_OVERRIDE", raising=False)
    assert main(["diagnose", "--config", seeded, "--output", str(out)]) == 0
    expected = (out / "diagnostics.json").read_bytes()
    assert json.loads(expected)["diagnostics"]["seed"] == 7
    monkeypatch.setenv("FLUIDALG_SEED_OVERRIDE", "7")
    assert main(["diagnose", "--config", cfg, "--output", str(out)]) == 0
    assert (out / "diagnostics.json").read_bytes() == expected


def test_unset_seed_override_keeps_the_default_diagnose_seed(
        tmp_path, monkeypatch):
    monkeypatch.delenv("FLUIDALG_SEED_OVERRIDE", raising=False)
    outputs = []
    for i, payload in enumerate([{"instance": {"name": "so3"}},
                                 {"instance": {"name": "so3"},
                                  "diagnostics": {}}]):
        cfg = write_config(tmp_path / f"cfg{i}.json", payload)
        out = tmp_path / "out"
        assert main(["diagnose", "--config", cfg, "--output", str(out)]) == 0
        outputs.append((out / "diagnostics.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_projected_method_from_config(tmp_path):
    cfg = rigid_config(tmp_path, method="rk4-projected", dt=1e-2, t_end=1.0)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_energy_drift"] <= 1e-9 * 5.0
    assert summary["projection_failures"] == 0


def test_numerical_failure_flushes_partial_outputs(tmp_path):
    alg_path = tmp_path / "blowup.json"
    big = 1e150
    payload = {
        "dim": 3,
        "triple": [[0, 1, 2, big]],
        "linking": np.diag([1.0, 2.0, 3.0]).tolist(),
        "metric": np.eye(3).tolist(),
    }
    alg_path.write_text(json.dumps(payload))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "custom", "path": str(alg_path)},
            "initial_state": [1e80, 1e80, 2e80],
            "integrator": {"method": "rk4", "dt": 1.0, "t_end": 5.0},
        },
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
    assert (out / "trace.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] is True
    assert "non-finite" in summary["failure_message"]


def blowup_config(tmp_path, linking):
    # a 1e150 triple form; from (1e80, 1e80, 2e80) the first RK4 stage
    # overflows unless D X is parallel to X
    alg_path = tmp_path / "blowup.json"
    alg_path.write_text(json.dumps({
        "dim": 3,
        "triple": [[0, 1, 2, 1e150]],
        "linking": linking,
        "metric": np.eye(3).tolist(),
    }))
    return write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "custom", "path": str(alg_path)},
            "initial_state": [1e80, 1e80, 2e80],
            "integrator": {"method": "rk4", "dt": 1.0, "t_end": 5.0},
        },
    )


def run_cli(args, cwd, stdin=None):
    """Run ``python -m fluidalg`` in a fresh process."""
    src = os.path.dirname(os.path.dirname(fluidalg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "fluidalg", *args],
                          capture_output=True, text=True, timeout=120,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path},
                          stdin=stdin)


def test_identity_curl_is_an_exact_equilibrium(tmp_path):
    # with L = G = I, D X = X and {X, X, Z} = 0: the pair kernel returns
    # exact zeros, so nothing overflows however large T and X are
    from fluidalg import euler_rhs, load_algebra

    cfg = blowup_config(tmp_path, np.eye(3).tolist())
    alg = load_algebra(tmp_path / "blowup.json")
    rhs = euler_rhs(alg, [1e80, 1e80, 2e80])
    assert np.array_equal(rhs, np.zeros(3))
    assert not np.any(np.signbit(rhs))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    rows = read_rows(out / "state.csv")
    assert len(rows) == 6
    assert all(row["x2"] == "2e+80" for row in rows)


def test_numerical_failure_prints_one_stderr_line(tmp_path):
    cfg = blowup_config(tmp_path, np.diag([1.0, 2.0, 3.0]).tolist())
    done = run_cli(["simulate", "--config", cfg, "--output", "out"],
                   cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "numerical failure: non-finite value in stage 1 at t=0.0"
    ]


def test_overflowing_identities_fail_the_suite(tmp_path):
    # a triple entry near the float64 maximum passes validate, and the
    # operators overflow on unit states: the suite fails, no traceback
    alg_path = tmp_path / "overflow.json"
    alg_path.write_text(json.dumps({
        "dim": 3,
        "triple": [[0, 1, 2, 1.7e308]],
        "linking": np.eye(3).tolist(),
        "metric": np.eye(3).tolist(),
    }))
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": {"name": "custom", "path": str(alg_path)},
        "diagnostics": {"num_states": 4, "num_triples": 2},
    })
    done = run_cli(["diagnose", "--config", cfg, "--output", "out"],
                   cwd=tmp_path)
    assert done.returncode == 3
    assert done.stderr.splitlines() == ["identity suite FAILED"]
    report = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    failed = [r["name"] for r in report["identities"] if r["passed"] is False]
    assert failed == ["transport-antisymmetry", "bracket-antisymmetry",
                      "bracket-triple-compatibility"]


def test_projected_step_with_overflowing_energy_fails(tmp_path):
    # one dt=1e30 step gives a finite state whose energy overflows: its
    # projection fails, not rescales it to zero, and the next step's first
    # stage is non-finite
    cfg = rigid_config(tmp_path, method="rk4-projected", dt=1e30,
                       t_end=3e30)
    done = run_cli(["simulate", "--config", cfg, "--output", "out"],
                   cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "numerical failure: non-finite value in stage 1 at t=1e+30"
    ]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["projection_failures"] == 1 and summary["failed"] is True
    rows = read_rows(tmp_path / "out" / "trace.csv")
    assert [(r["t"], r["energy"]) for r in rows] == [("0.0", "5.0"),
                                                     ("1e+30", "inf")]


def test_diagnose_random32_repeats_byte_for_byte_in_fresh_processes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": {"name": "random", "seed": 7, "n": 32},
        "diagnostics": {"num_states": 20, "num_triples": 20},
    })
    runs = []
    for out in ("a", "b"):
        done = run_cli(["diagnose", "--config", cfg, "--output", out],
                       cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        runs.append((done.stdout,
                     (tmp_path / out / "diagnostics.json").read_bytes()))
    assert runs[0] == runs[1]
    assert "triple-alternating" in runs[0][0]


# ---------------------------------------------------------------------------
# exit codes and validation


def test_missing_config_is_config_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1


def test_bad_json_config_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["simulate", "--config", str(p)]) == 1


def _one_stderr_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    return err


def test_config_that_is_not_an_object_is_config_error(tmp_path, capsys):
    p = tmp_path / "list.json"
    p.write_text("[]")
    assert main(["simulate", "--config", str(p)]) == 1
    assert capsys.readouterr().err == (
        "config error: config must be a JSON object\n")


def test_seed_override_that_is_not_an_integer_is_config_error(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLUIDALG_SEED_OVERRIDE", "abc")
    out = tmp_path / "out"
    assert main(["simulate", "--config", rigid_config(tmp_path), "--output",
                 str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: FLUIDALG_SEED_OVERRIDE must be an integer, "
        "got 'abc'\n")
    assert not out.exists()


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    p = tmp_path / "bom.json"
    p.write_bytes(b"\xff\xfe{}")
    assert main(["simulate", "--config", str(p)]) == 1
    err = _one_stderr_line(capsys)
    assert err.startswith(f"config error: config {p} is not valid JSON: ")
    assert "can't decode byte 0xff" in err


def test_config_too_deep_to_parse_is_config_error(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["simulate", "--config", str(p)]) == 1
    err = _one_stderr_line(capsys)
    assert err.startswith(f"config error: config {p} is not valid JSON: ")
    assert "recursion" in err


def test_set_value_too_deep_to_parse_is_config_error(tmp_path, capsys):
    cfg = rigid_config(tmp_path, t_end=0.0)
    value = "[" * 50_000 + "]" * 50_000
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out),
                 "--set", f"instance.moments={value}"]) == 1
    err = _one_stderr_line(capsys)
    assert err.startswith("config error: --set value of 'instance.moments': ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
@pytest.mark.parametrize("depth", ["one-past-the-limit", 500])
def test_deeply_nested_config_fails_before_any_output(tmp_path, capsys,
                                                      command, depth):
    if depth == "one-past-the-limit":
        depth = cli.MAX_CONFIG_DEPTH + 1
    # instance.note is not read; the config object and the instance take
    # two levels, and note nests the rest
    note = 0.0
    for _ in range(depth - 2):
        note = [note]
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": {"name": "rigid-body", "moments": [1, 2, 3],
                     "note": note},
        "initial_state": [0.0, 1.0, 1.0],
        "integrator": {"method": "rk4", "dt": 1e-3, "t_end": 1e-3},
    })
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--output", str(out)]) == 1
    assert _one_stderr_line(capsys) == (
        f"config error: config nests deeper than {cli.MAX_CONFIG_DEPTH} "
        "objects and arrays\n")
    assert not out.exists()


def test_config_at_the_nesting_limit_runs(tmp_path):
    note = 0.0
    for _ in range(cli.MAX_CONFIG_DEPTH - 2):
        note = [note]
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": {"name": "rigid-body", "moments": [1, 2, 3],
                     "note": note},
        "initial_state": [0.0, 1.0, 1.0],
        "integrator": {"method": "rk4", "dt": 1e-3, "t_end": 1e-3},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["instance"]["note"] == note


def test_set_past_the_nesting_limit_is_config_error(tmp_path, capsys):
    cfg = rigid_config(tmp_path, t_end=0.0)
    # the config object and MAX_CONFIG_DEPTH objects below it
    key = ".".join(["a"] * (cli.MAX_CONFIG_DEPTH + 1))
    assert main(["simulate", "--config", cfg, "--output",
                 str(tmp_path / "out"), "--set", f"{key}=1"]) == 1
    assert "nests deeper than" in _one_stderr_line(capsys)


def test_unknown_instance_is_config_error(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "hexagon"},
            "initial_state": [0, 1],
            "integrator": {"dt": 0.1, "t_end": 0.0},
        },
    )
    assert main(["simulate", "--config", cfg]) == 1


def test_torus_cap_is_config_error(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "torus", "K": 3},
            "initial_state": "beltrami",
            "integrator": {"dt": 0.1, "t_end": 0.0},
        },
    )
    assert main(["simulate", "--config", cfg]) == 1


def test_corrupted_custom_file_is_validation_error(tmp_path):
    alg_path = tmp_path / "corrupt.json"
    payload = {
        "dim": 3,
        "triple": [[0, 0, 1, 1.0]],  # violates i < j < k
        "linking": np.eye(3).tolist(),
        "metric": np.eye(3).tolist(),
    }
    alg_path.write_text(json.dumps(payload))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "custom", "path": str(alg_path)},
            "initial_state": [1.0, 0.0, 0.0],
            "integrator": {"dt": 0.1, "t_end": 0.1},
        },
    )
    assert main(["simulate", "--config", cfg, "--output",
                 str(tmp_path / "out")]) == 3


def test_custom_file_that_is_not_utf8_is_validation_error(tmp_path, capsys):
    alg_path = tmp_path / "alg.json"
    alg_path.write_bytes(b"\xff\xfe{}")
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": {"name": "custom", "path": str(alg_path)},
        "initial_state": [1.0, 0.0, 0.0],
        "integrator": {"dt": 0.1, "t_end": 0.1},
    })
    assert main(["simulate", "--config", cfg, "--output",
                 str(tmp_path / "out")]) == 3
    err = _one_stderr_line(capsys)
    assert err.startswith("validation error: not valid JSON: ")
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize("row", [
    [0, 1.5, 2, 1.0],            # a float index is not truncated
    [False, True, 2, 1.0],       # nor are bools taken as 0 and 1
    [0, "1", 2, 1.0],
    [0, 1, 2, "1.0"],
])
def test_custom_file_with_a_bad_triple_row_is_validation_error(
        tmp_path, capsys, row):
    alg_path = tmp_path / "bad.json"
    alg_path.write_text(json.dumps({
        "dim": 3,
        "triple": [row],
        "linking": np.eye(3).tolist(),
        "metric": np.eye(3).tolist(),
    }))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "custom", "path": str(alg_path)},
            "initial_state": [1.0, 0.0, 0.0],
            "integrator": {"dt": 0.1, "t_end": 0.1},
        },
    )
    assert main(["simulate", "--config", cfg, "--output",
                 str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == f"validation error: bad triple entry {row!r}\n"


@pytest.mark.parametrize("name", ["linking", "metric"])
def test_custom_file_with_a_ragged_matrix_is_validation_error(
        tmp_path, capsys, name):
    payload = {
        "dim": 3,
        "triple": [[0, 1, 2, 1.0]],
        "linking": np.eye(3).tolist(),
        "metric": np.eye(3).tolist(),
    }
    payload[name][1] = [0.0, 1.0]
    alg_path = tmp_path / "ragged.json"
    alg_path.write_text(json.dumps(payload))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "custom", "path": str(alg_path)},
            "initial_state": [1.0, 0.0, 0.0],
            "integrator": {"dt": 0.1, "t_end": 0.1},
        },
    )
    assert main(["simulate", "--config", cfg, "--output",
                 str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {name} must be a 3 x 3 matrix")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_non_numeric_initial_state_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "so3"},
            "initial_state": [0, "a", 1],
            "integrator": {"dt": 0.1, "t_end": 0.1},
        },
    )
    assert main(["simulate", "--config", cfg, "--output",
                 str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: initial_state coordinates must be numbers\n"


@pytest.mark.parametrize("label, coordinates", [
    ("initial_state", "[Infinity, 0, 0]"),
    ("initial_state", "[0, -Infinity, 0]"),
    ("probe", "[Infinity, 0, 0]"),
    ("probe", "[0, 0, NaN]"),
    ("initial_state", "[1" + "0" * 400 + ", 0, 0]"),
])
def test_non_finite_state_coordinates_are_config_error(
        tmp_path, capsys, label, coordinates):
    # JSON has no Infinity or NaN, but Python's json module reads them
    states = {"initial_state": "[0, 1, 1]", "probe": "[1, 0, 0]",
              label: coordinates}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"instance": {"name": "rigid-body", "moments": [1, 2, 3]}, '
        f'"initial_state": {states["initial_state"]}, '
        f'"probe": {states["probe"]}, '
        '"integrator": {"dt": 0.1, "t_end": 0}}')
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--output",
                 str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {label} coordinates must be finite\n"
    assert not out.exists()


def _strict_json(path):
    """The JSON file at ``path``, parsed with NaN and Infinity refused."""
    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def _value_at(doc, key):
    """The value at the dotted ``key`` of ``doc``, list items by index."""
    for part in key.split("."):
        doc = doc[int(part) if isinstance(doc, list) else part]
    return doc


def test_non_finite_summary_values_are_null_and_listed(tmp_path):
    # one dt=1e30 step gives a finite state whose energy overflows, and the
    # run ends there: the final invariants and the drifts are infinite
    cfg = rigid_config(tmp_path, method="rk4-projected", dt=1e30,
                       t_end=1e30)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    summary = _strict_json(out / "summary.json")
    assert summary["non_finite"] == [
        "final.energy", "final.helicity", "max_energy_drift",
        "max_helicity_drift"]
    assert all(_value_at(summary, key) is None
               for key in summary["non_finite"])
    assert summary["initial"]["energy"] == 5.0
    assert list(summary)[-1] == "non_finite"
    # a finite run has no such key
    cfg = rigid_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    assert "non_finite" not in _strict_json(out / "summary.json")


def test_non_finite_defects_are_null_and_listed(tmp_path):
    # the overflowing algebra above: NaN defects and Jacobiator statistics
    alg_path = tmp_path / "overflow.json"
    alg_path.write_text(json.dumps({
        "dim": 3,
        "triple": [[0, 1, 2, 1.7e308]],
        "linking": np.eye(3).tolist(),
        "metric": np.eye(3).tolist(),
    }))
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": {"name": "custom", "path": str(alg_path)},
        "diagnostics": {"num_states": 4, "num_triples": 2},
    })
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--output", str(out)]) == 3
    text = (out / "diagnostics.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    report = _strict_json(out / "diagnostics.json")
    assert report["non_finite"]
    assert all(_value_at(report, key) is None
               for key in report["non_finite"])


@pytest.mark.parametrize("key, value", [
    ("dt", "Infinity"), ("dt", "NaN"), ("t_end", "Infinity"), ("t_end", "NaN"),
])
def test_non_finite_step_or_horizon_is_config_error(
        tmp_path, capsys, key, value):
    # JSON has no Infinity or NaN, but Python's json module reads them
    spec = {"dt": "0.1", "t_end": "1.0", key: value}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"instance": {"name": "so3"}, "initial_state": [0, 1, 1], '
        f'"integrator": {{"dt": {spec["dt"]}, "t_end": {spec["t_end"]}}}}}')
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--output",
                 str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: bad integrator config: {key} must be finite")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


# simulate configs that are valid but for the field at "@", a raw JSON value
_TORUS = ('{"instance": {"name": "torus", "K": @K, "max_dim": @max_dim}, '
          '"initial_state": {"seed": @seed, "norm": @norm}, '
          '"integrator": {"dt": @dt, "t_end": 0.002, '
          '"record_every": @record_every}}')
_RANDOM = ('{"instance": {"name": "random", "seed": 1, "n": @n}, '
           '"initial_state": [1, 0, 0, 0, 0, 0], '
           '"integrator": {"method": "rk4-projected", "dt": 0.01, '
           '"t_end": 0.02, "projection": {"max_iter": @max_iter}}}')
_RIGID = ('{"instance": {"name": "rigid-body", "moments": @moments}, '
          '"initial_state": [0, 1, 1], '
          '"integrator": {"dt": 0.01, "t_end": 0.02}}')
_VALID = {"K": "1", "max_dim": "52", "seed": "1", "norm": "1", "dt": "0.001",
          "record_every": "1", "n": "6", "max_iter": "10",
          "moments": "[1, 2, 3]"}


def _config_text(template, key, raw):
    fields = {**_VALID, key: raw}
    for name in sorted(fields, key=len, reverse=True):
        template = template.replace("@" + name, fields[name])
    return template


@pytest.mark.parametrize("template, section, key, raw", [
    # read as another value, or sign-flipped, before these were checked
    (_TORUS, "instance", "K", "1.7"),
    (_TORUS, "instance", "K", "true"),
    (_TORUS, "instance", "K", '"1"'),
    (_TORUS, "instance", "max_dim", "52.5"),
    (_RANDOM, "instance", "n", "6.9"),
    (_TORUS, "initial_state", "seed", "2.5"),
    (_TORUS, "initial_state", "norm", "-1"),
    (_TORUS, "integrator", "record_every", "1.5"),
    (_TORUS, "integrator", "dt", "true"),
    (_RANDOM, "integrator.projection", "max_iter", "2.5"),
    (_RIGID, "instance", "moments", '[1, 2, "3"]'),
    (_RIGID, "instance", "moments", "[1, 2, true]"),
    # a traceback before these were checked
    (_TORUS, "instance", "K", "null"),
    (_TORUS, "instance", "K", "1e400"),
    (_RANDOM, "instance", "n", "[6]"),
    (_TORUS, "initial_state", "norm", '"x"'),
    # a numerical failure (exit 2) before it was checked
    (_TORUS, "initial_state", "norm", "1e400"),
])
def test_bad_config_field_is_config_error(tmp_path, capsys, template,
                                          section, key, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_config_text(template, key, raw))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--output",
                 str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad {section} config: {key} must")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("template", [_TORUS, _RANDOM, _RIGID])
def test_config_field_bases_are_valid(tmp_path, template):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_config_text(template, "K", "1"))
    assert main(["simulate", "--config", str(cfg), "--output",
                 str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
def test_rigid_body_failing_validate_exits_three(tmp_path, capsys, command):
    # the metric's smallest eigenvalue is below 1e-10 of its largest
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_config_text(_RIGID, "moments", "[1, 1e11, 1]"))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        "validation error: algebra validation failed: "
        "metric-positive-definite (value 1.000e+00 <= 1.000e+01)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
@pytest.mark.parametrize("instance", [
    {"name": "rigid-body", "moments": [1, 2, 3]},
    {"name": "so3"},
    {"name": "torus", "K": 1},
    {"name": "random", "seed": 1, "n": 4},
    {"name": "custom"},
], ids=lambda instance: instance["name"])
def test_each_command_validates_its_algebra_once(tmp_path, monkeypatch,
                                                 command, instance):
    # the builder validates what it returns, and the command validates
    # nothing more
    if instance["name"] == "custom":
        instance = {**instance, "path": str(tmp_path / "alg.json")}
        save_algebra(random_algebra(2, 3), instance["path"])
    calls = []
    require = ValidationReport.require

    def spy(report):
        calls.append(report)
        return require(report)

    monkeypatch.setattr(ValidationReport, "require", spy)
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": instance,
        "initial_state": {"seed": 3},
        "integrator": {"dt": 0.01, "t_end": 0.02},
        "diagnostics": {"num_states": 2, "num_triples": 1},
    })
    assert main([command, "--config", cfg, "--output",
                 str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("integrator, message", [
    ({"method": "euler", "dt": 0.01, "t_end": 0.02},
     "bad integrator config: method must be one of ('rk4', 'rk4-projected'), "
     "got 'euler'"),
    ({"t_end": 0.02}, "integrator config missing 'dt'"),
    ({"dt": 0.01}, "integrator config missing 't_end'"),
    ({"dt": 0.01, "t_end": 0.02, "projection": 5},
     '"integrator.projection" must be an object'),
])
def test_bad_integrator_section_message(tmp_path, capsys, integrator,
                                        message):
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": {"name": "so3"},
        "initial_state": [0, 1, 1],
        "integrator": integrator,
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# a simulate config that is valid but for the entries given
@pytest.mark.parametrize("entries, message", [
    ({"instance": {"name": "torus"}}, 'torus needs "K"'),
    ({"instance": {"name": "random", "n": 4}}, 'random needs "seed" and "n"'),
    ({"instance": {"name": "custom"}}, 'custom needs "path"'),
    ({"instance": {"name": "random", "seed": 1, "n": 2},
      "initial_state": "axis3"},
     "initial_state preset 'axis3' needs dim > 2"),
    ({"initial_state": "beltrami"},
     "initial_state preset 'beltrami' needs the torus instance"),
])
def test_bad_config_shape_message(tmp_path, capsys, entries, message):
    config = {"instance": {"name": "rigid-body", "moments": [1, 2, 3]},
              "initial_state": [0, 1, 1],
              "integrator": {"dt": 0.01, "t_end": 0.02}, **entries}
    cfg = write_config(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def _deep(depth):
    # a list nested depth deep around one number
    value = 1.0
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("name", ["linking", "metric"])
@pytest.mark.parametrize("depth", [1, 3, 500])
def test_custom_file_with_a_nested_matrix_is_validation_error(
        tmp_path, capsys, name, depth):
    # past 32 dimensions, the matrix's .flat raised a RuntimeError
    payload = {
        "dim": 3,
        "triple": [[0, 1, 2, 1.0]],
        "linking": np.eye(3).tolist(),
        "metric": np.eye(3).tolist(),
        name: _deep(depth),
    }
    alg_path = tmp_path / "nested.json"
    alg_path.write_text(json.dumps(payload))
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": {"name": "custom", "path": str(alg_path)},
        "initial_state": [1.0, 0.0, 0.0],
        "integrator": {"dt": 0.1, "t_end": 0.1},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"validation error: {name} must be a 3 x 3 matrix of numbers\n")
    assert not out.exists()


def test_deeply_nested_triple_entry_gives_a_short_line(tmp_path, capsys):
    alg_path = tmp_path / "nested.json"
    alg_path.write_text(json.dumps({
        "dim": 3,
        "triple": [[0, 1, 2, _deep(500)]],
        "linking": np.eye(3).tolist(),
        "metric": np.eye(3).tolist(),
    }))
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": {"name": "custom", "path": str(alg_path)},
        "initial_state": [1.0, 0.0, 0.0],
        "integrator": {"dt": 0.1, "t_end": 0.1},
    })
    assert main(["simulate", "--config", cfg, "--output",
                 str(tmp_path / "out")]) == 3
    err = _one_stderr_line(capsys)
    assert err.startswith("validation error: bad triple entry [0, 1, 2, [")
    assert len(err) < 100


@pytest.mark.parametrize("name", ["linking", "metric"])
@pytest.mark.parametrize("entry", ["1", True])
def test_custom_file_with_a_non_number_entry_is_validation_error(
        tmp_path, capsys, name, entry):
    payload = {
        "dim": 3,
        "triple": [[0, 1, 2, 1.0]],
        "linking": np.eye(3).tolist(),
        "metric": np.eye(3).tolist(),
    }
    payload[name][1][1] = entry
    alg_path = tmp_path / "entry.json"
    alg_path.write_text(json.dumps(payload))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "custom", "path": str(alg_path)},
            "initial_state": [1.0, 0.0, 0.0],
            "integrator": {"dt": 0.1, "t_end": 0.1},
        },
    )
    assert main(["simulate", "--config", cfg, "--output",
                 str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == f"validation error: {name} must be a 3 x 3 matrix of numbers\n"


def test_unwritable_output_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = rigid_config(tmp_path, t_end=0.01)
    assert main(["simulate", "--config", cfg, "--output",
                 str(blocker / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


# a number as a path would be opened as a file descriptor (0 is stdin, true
# is 1), and a list raised a TypeError
@pytest.mark.parametrize("command", ["simulate", "diagnose"])
@pytest.mark.parametrize("label, value", [
    ("output_dir", 5), ("output_dir", ["a"]),
    ("instance.path", 0), ("instance.path", True), ("instance.path", ["a"]),
])
def test_non_string_path_is_config_error(tmp_path, capsys, monkeypatch,
                                         command, label, value):
    config = {"instance": {"name": "so3"}, "initial_state": [0, 1, 1],
              "integrator": {"dt": 0.1, "t_end": 0.1}}
    if label == "output_dir":
        config["output_dir"] = value
    else:
        config["instance"] = {"name": "custom", "path": value}
    cfg = write_config(tmp_path / "cfg.json", config)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {label} must be a path string, got " \
        f"{value!r}\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_output_dir_set_to_a_number_is_config_error(tmp_path, capsys):
    cfg = rigid_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--set", "output_dir=5"]) == 1
    assert capsys.readouterr().err == (
        "config error: output_dir must be a path string, got 5\n")


def test_custom_path_zero_does_not_read_stdin(tmp_path):
    # stdin holds a valid algebra: read as the custom file, it would run
    alg_path = tmp_path / "alg.json"
    save_algebra(random_algebra(6, 4), alg_path)
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": {"name": "custom", "path": 0},
        "diagnostics": {"num_states": 2, "num_triples": 1},
    })
    with open(alg_path) as stdin:
        done = run_cli(["diagnose", "--config", cfg, "--output", "out"],
                       cwd=tmp_path, stdin=stdin)
        assert os.lseek(stdin.fileno(), 0, os.SEEK_CUR) == 0
    assert done.returncode == 1
    assert done.stderr == ("config error: instance.path must be a path "
                           "string, got 0\n")
    assert not (tmp_path / "out").exists()


def test_valid_custom_file_round_trips(tmp_path):
    alg = random_algebra(6, 4)
    alg_path = tmp_path / "alg.json"
    save_algebra(alg, alg_path)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "custom", "path": str(alg_path)},
            "initial_state": {"seed": 2, "norm": 1.5},
            "integrator": {"dt": 1e-2, "t_end": 0.2},
        },
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dim"] == 4
    assert summary["initial"]["energy"] == pytest.approx(1.5 ** 2)


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    err = capsys.readouterr().err
    assert err.endswith("fluidalg: error: the following arguments are "
                        "required: command\n")


def test_entry_exits_with_the_code_of_main(capsys, monkeypatch):
    # entry is the console script of pyproject.toml and of python -m
    monkeypatch.setattr(sys, "argv", ["fluidalg", "instances"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("built-in instances:\n")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["simulate", "--help"]) == 0
    out = capsys.readouterr().out
    assert "usage" in out


# ---------------------------------------------------------------------------
# instances and diagnose


def test_instances_lists_all_names(capsys):
    assert main(["instances"]) == 0
    out = capsys.readouterr().out
    for name in ("rigid-body", "so3", "torus", "random", "custom"):
        assert name in out


def test_diagnose_so3(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", {"instance": {"name": "so3"}}
    )
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--output", str(out)]) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert payload["passed"] is True
    names = [r["name"] for r in payload["identities"]]
    assert len(names) == len(set(names))
    jac = [r for r in payload["identities"] if r["name"] == "jacobiator"][0]
    assert jac["max_defect"] <= 1e-11


def test_diagnose_without_jacobiator_triples_reports_no_sample(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "rigid-body", "moments": [1, 2, 3]},
            "diagnostics": {"num_states": 5, "num_triples": 0},
        },
    )
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--output", str(out)]) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert payload["algebra"]["jacobiator_norm"] == {
        "max": None, "mean": None, "median": None, "samples": 0,
    }
    jac = [r for r in payload["identities"] if r["name"] == "jacobiator"][0]
    assert jac["tolerance"] == 1e-11  # a Lie-kind instance
    assert jac["max_defect"] is None
    assert jac["passed"] is None
    assert payload["passed"] is True


def test_random_instance_without_a_linking_form_is_config_error(tmp_path,
                                                                capsys):
    # seed 3 at n = 256 draws no acceptable linking form in its retries
    cfg = write_config(
        tmp_path / "cfg.json",
        {"instance": {"name": "random", "seed": 3, "n": 256}},
    )
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("config error: no acceptable linking form in 16 retries "
                   "(seed=3, n=256)\n")
    assert not out.exists()


def test_diagnose_random_reports_jacobiator(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "instance": {"name": "random", "seed": 11, "n": 5},
            "diagnostics": {"num_states": 10, "num_triples": 20},
        },
    )
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--output", str(out)]) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert payload["passed"] is True
    jac = [r for r in payload["identities"] if r["name"] == "jacobiator"][0]
    assert jac["max_defect"] > 0.0
    assert jac["passed"] is None


@pytest.mark.parametrize("key, raw", [
    ("num_states", '"abc"'),
    ("num_states", "null"),
    ("num_states", "1e400"),
    ("seed", "-1"),
    ("num_states", "2.7"),
    ("num_states", "true"),
    ("seed", "1.5"),
    ("num_triples", "-3"),
    ("num_states", "0"),
])
def test_bad_diagnostics_sample_is_config_error(tmp_path, capsys, key, raw):
    # raw JSON text: 1e400 reads as an infinite float
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"instance": {"name": "so3"}, '
                   f'"diagnostics": {{"{key}": {raw}}}}}')
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--output",
                 str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad diagnostics config: {key} ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, raw", [
    ("num_states", "1000001"),
    ("num_states", "9223372036854775808"),  # past NumPy's index range
    ("num_triples", "1000001"),
])
def test_sample_past_the_cap_is_config_error(tmp_path, capsys, key, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"instance": {"name": "so3"}, '
                   f'"diagnostics": {{"{key}": {raw}}}}}')
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--output",
                 str(out)]) == 1
    err = capsys.readouterr().err
    least = 0 if key == "num_triples" else 2
    assert err == (f"config error: bad diagnostics config: {key} must be "
                   f"an integer >= {least} and <= 1000000, got {raw}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
@pytest.mark.parametrize("n", ["257", "9223372036854775808"])
def test_random_n_past_the_cap_is_config_error(tmp_path, capsys,
                                               monkeypatch, command, n):
    def refuse(*args):
        raise AssertionError("random_algebra called")

    monkeypatch.setattr(cli, "random_algebra", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_config_text(_RANDOM, "n", n))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("config error: bad instance config: n must be an "
                   f"integer >= 1 and <= 256, got {n}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    ("simulate", {"integrator": {"dt": 0.01, "t_end": 0.02}},
     'config needs "initial_state"'),
    ("diagnose", {"diagnostics": {"num_states": 1}},
     "bad diagnostics config: num_states must be an integer >= 2 and "
     "<= 1000000, got 1"),
])
def test_config_is_checked_before_the_algebra_is_built(
        tmp_path, capsys, monkeypatch, command, config, message):
    def refuse(*args):
        raise AssertionError("random_algebra called")

    monkeypatch.setattr(cli, "random_algebra", refuse)
    cfg = write_config(tmp_path / "cfg.json", {
        "instance": {"name": "random", "seed": 0, "n": 256}, **config})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_diagnose_corrupt_custom_exits_three(tmp_path):
    alg_path = tmp_path / "corrupt.json"
    payload = {
        "dim": 3,
        "triple": [[0, 0, 1, 1.0]],
        "linking": np.eye(3).tolist(),
        "metric": np.eye(3).tolist(),
    }
    alg_path.write_text(json.dumps(payload))
    cfg = write_config(
        tmp_path / "cfg.json",
        {"instance": {"name": "custom", "path": str(alg_path)}},
    )
    assert main(["diagnose", "--config", cfg,
                 "--output", str(tmp_path / "out")]) == 3


# ---------------------------------------------------------------------------
# dependencies


def test_cli_import_does_not_load_scipy():
    # SciPy is a test-only oracle; the package runs on NumPy alone
    code = "import sys, fluidalg.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(fluidalg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout == "False\n"


def test_commands_do_not_load_numpy_ma(tmp_path):
    # np.median and np.unique import numpy.ma, some 10 ms; the commands
    # use neither
    runs = [
        ("diagnose", {"instance": {"name": "random", "seed": 1, "n": 6},
                      "diagnostics": {"num_states": 4, "num_triples": 3}}),
        ("simulate", {"instance": {"name": "so3"},
                      "initial_state": [0.0, 1.0, 1.0],
                      "probe": [1.0, 0.0, 1.0],
                      "integrator": {"dt": 0.01, "t_end": 0.02}}),
        ("simulate", {"instance": {"name": "torus", "K": 2},
                      "initial_state": {"seed": 1},
                      "integrator": {"dt": 0.001, "t_end": 0.002}}),
    ]
    argvs = []
    for i, (command, config) in enumerate(runs):
        cfg = write_config(tmp_path / f"cfg{i}.json", config)
        argvs.append([command, "--config", cfg, "--output",
                      str(tmp_path / f"out{i}")])
    code = ("import sys; from fluidalg.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv) == 0\n"
            "    print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(fluidalg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    flags = [line for line in done.stdout.splitlines()
             if line in ("True", "False")]
    assert flags == ["False"] * len(runs)


@pytest.mark.parametrize("code", [
    "import sys, fluidalg.cli",
    "import sys, numpy as np, fluidalg\n"
    "alg = fluidalg.build_torus_algebra(2)[0]\n"
    "assert alg.triple.kind == 'spectral'\n"
    "alg.triple.contract_pair(np.ones(alg.dim), np.arange(alg.dim) + 0.5)",
], ids=["cli-import", "spectral-contraction"])
def test_numpy_fft_is_never_loaded(code):
    # the spectral form contracts by its own DFT matrices
    code += "\nprint('numpy.fft' in sys.modules)"
    src = os.path.dirname(os.path.dirname(fluidalg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout == "False\n"
