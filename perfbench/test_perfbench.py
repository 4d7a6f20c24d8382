"""Tests of the benchmark's own arithmetic and output checks.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
from spans import SpanTable, Tracer, nearest, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_self_times_on_a_hand_built_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    dur, own = self_times(start, end, parent)
    assert dur.tolist() == [10.0, 3.0, 4.0, 1.0]
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0]
    assert nearest([0, 1, 2, 1], parent, 2) == [-1, -1, 2, 2]
    t = SpanTable(["root", "leaf", "mid"], [0, 1, 2, 1], parent, start, end)
    assert t.calls("leaf") == 2
    assert t.calls_within("leaf", "mid") == 1
    assert t.self_total("root") == 3.0
    assert t.total("leaf") == 4.0


def test_tracer_links_nested_calls_to_their_parent(tmp_path):
    tracer = Tracer()

    def inner(x):
        return x + 1

    inner = tracer.wrap("m.inner", inner)

    def outer(x):
        return inner(inner(x))

    outer = tracer.wrap("m.outer", outer)
    assert outer(1) == 3
    assert inner(0) == 1
    assert list(tracer.parent) == [-1, 0, 0, -1]
    tracer.save(tmp_path / "spans.npz")
    t = SpanTable.load(tmp_path / "spans.npz")
    assert t.calls("m.inner") == 3
    assert t.calls_within("m.inner", "m.outer") == 2
    assert np.all(t.self_time >= 0.0)


def _simulate(workload, tmp_path, **integrator):
    """Run one pass of a shortened workload through the worker; returns
    (config, output dir, algebra dump)."""
    command, config = run.WORKLOADS[workload](3)
    config["integrator"].update(integrator)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    dump = tmp_path / "algebra.npz"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), ROOT,
         str(tmp_path / "pass.json"), "--dump", str(dump), "--", command,
         "--config", str(cfg), "--output", str(out)],
        check=True, stdout=subprocess.DEVNULL, timeout=120)
    assert json.loads((tmp_path / "pass.json").read_text())["exit_code"] == 0
    return config, str(out), str(dump)


def _failed(results):
    return [name for name, ok, _ in results if not ok]


@pytest.fixture(scope="module")
def rigid(tmp_path_factory):
    return _simulate("rigid-projected", tmp_path_factory.mktemp("rigid"),
                     t_end=1.0)


@pytest.fixture(scope="module")
def random32(tmp_path_factory):
    return _simulate("random32-trace", tmp_path_factory.mktemp("random32"),
                     t_end=25.0)


def _corrupt(src, tmp_path, name, line, edit):
    """Copy the outputs and apply ``edit`` to one line of one file."""
    out = tmp_path / "corrupt"
    shutil.copytree(src, out)
    lines = (out / name).read_text().splitlines(keepends=True)
    lines[line] = edit(lines[line])
    (out / name).write_text("".join(lines))
    return str(out)


def _scale_field(col, factor):
    def edit(line):
        fields = line.rstrip("\n").split(",")
        fields[col] = repr(float(fields[col]) * factor)
        return ",".join(fields) + "\n"
    return edit


@pytest.mark.parametrize("workload", ["rigid-projected", "random32-trace"])
def test_clean_outputs_pass(workload, rigid, random32):
    config, out, dump = rigid if workload == "rigid-projected" else random32
    assert _failed(checks.check_outputs(workload, config, out, dump)) == []


@pytest.mark.parametrize("workload", ["rigid-projected", "random32-trace"])
def test_perturbed_trace_energy_fails(workload, rigid, random32, tmp_path):
    config, out, dump = rigid if workload == "rigid-projected" else random32
    # one energy in trace.csv, off in its 12th digit
    bad = _corrupt(out, tmp_path, "trace.csv", 5, _scale_field(1, 1 + 1e-12))
    assert _failed(checks.check_outputs(workload, config, bad, dump)) == [
        "trace.csv energy equals fsum over state.csv"]


@pytest.mark.parametrize("workload", ["rigid-projected", "random32-trace"])
def test_wrong_state_row_fails(workload, rigid, random32, tmp_path):
    config, out, dump = rigid if workload == "rigid-projected" else random32
    # one coordinate of one state.csv row, off in its 8th digit
    bad = _corrupt(out, tmp_path, "state.csv", 7, _scale_field(2, 1 + 1e-8))
    failed = _failed(checks.check_outputs(workload, config, bad, dump))
    assert any(name.startswith("states match") for name in failed)


def test_diagnose_failed_identity_fails(tmp_path):
    config = {"instance": {"n": 32}, "diagnostics": {"num_triples": 2}}
    out = tmp_path / "out"
    out.mkdir()
    report = {
        "passed": True,
        "identities": [
            {"name": "curl-self-adjoint", "max_defect": 2e-11,
             "tolerance": 1e-11, "passed": True},
            {"name": "jacobiator", "max_defect": 0.1, "tolerance": None,
             "passed": None},
        ],
        "algebra": {"dim": 32, "kind": "random", "triple_entries": 4960,
                    "jacobiator_norm": {"max": 0.1, "samples": 2}},
    }
    (out / "diagnostics.json").write_text(json.dumps(report))
    assert _failed(checks.check_diagnose(config, str(out))) == [
        "every identity with a tolerance passes"]
