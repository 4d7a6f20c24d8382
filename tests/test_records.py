"""The package's records: plain classes with the fields, defaults and
checks of their constructors, frozen where they are values."""

import copy
import json
import os
import pickle
import subprocess
import sys

import pytest

import fluidalg
from fluidalg import (
    DiagnosticsReport,
    IntegrationResult,
    IntegratorSpec,
    LieAlgebraInput,
    ProjectionSettings,
    TorusMode,
    TraceRecord,
    ValidationReport,
    rigid_body,
    validate,
)
from fluidalg.cli import main
from fluidalg.core import CheckResult
from fluidalg.diagnostics import IdentityResult

FROZEN = [
    (ProjectionSettings(max_iter=3, tol=1e-9), "tol"),
    (IntegratorSpec(method="rk4-projected", dt=0.5, t_end=2.0), "dt"),
    (TorusMode((0, 0, 1), 1, "cos"), "k"),
]


def test_importing_the_cli_leaves_dataclasses_unimported():
    src = os.path.dirname(os.path.dirname(fluidalg.__file__))
    code = ("import sys, fluidalg.cli; "
            "print('dataclasses' in sys.modules, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "False True\n"


@pytest.mark.parametrize("record, name", FROZEN,
                         ids=[type(r).__name__ for r, _ in FROZEN])
def test_frozen_records_refuse_assignment(record, name):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1
    assert repr(record) == before


@pytest.mark.parametrize("copier", [
    lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_records_pickle_and_copy(copier):
    for record, _ in FROZEN:
        assert copier(record) == record
    trace = TraceRecord(0.5, None, 2.0, 3.0, flag="f")
    back = copier(trace)
    assert (back.t, back.state, back.energy, back.helicity, back.flag) == (
        0.5, None, 2.0, 3.0, "f")


def test_frozen_records_are_values():
    assert TorusMode((0, 1, -1), 1, "sin") == TorusMode((0, 1, -1), 1, "sin")
    assert TorusMode((0, 1, -1), 1, "sin") != TorusMode((0, 1, -1), 2, "sin")
    assert len({TorusMode((1, 0, 0), 2, "cos"),
                TorusMode((1, 0, 0), 2, "cos")}) == 1
    assert IntegratorSpec(dt=1, t_end=2) == IntegratorSpec(dt=1.0, t_end=2.0)
    assert IntegratorSpec() != ProjectionSettings()
    assert (repr(TorusMode((0, 0, 1), 1, "cos"))
            == "TorusMode(k=(0, 0, 1), polarization=1, phase='cos')")
    assert (repr(IntegratorSpec()) == "IntegratorSpec(method='rk4', "
            "dt=0.001, t_end=1.0, record_every=1, "
            "projection=ProjectionSettings(max_iter=10, tol=1e-12))")


def test_records_keep_their_constructor_keywords_and_defaults():
    spec = IntegratorSpec("rk4", 1, 3)
    assert (spec.method, spec.dt, spec.t_end, spec.record_every) == (
        "rk4", 1.0, 3.0, 1)
    assert type(spec.dt) is float and spec.projection == ProjectionSettings()
    assert ProjectionSettings(4).tol == 1e-12
    record = TraceRecord(t=0.5, state=[1.0], energy=2.0, helicity=3.0)
    assert (record.probe_linking, record.flag, record.state_lo) == (
        None, "", None)
    result = IntegrationResult([], 0)
    assert (result.failed, result.failure_message,
            result.projection_failures) == (False, "", 0)
    lie = LieAlgebraInput(structure_constants=[[[0]]], pairing=[[1]],
                          metric=[[2]])
    assert lie.dim == 1 and lie.metric.dtype == float
    a, b = DiagnosticsReport(), DiagnosticsReport()
    assert a.identities == [] and a.algebra_summary == {} and a.sample == {}
    assert a.identities is not b.identities
    assert ValidationReport().checks == [] and ValidationReport().passed
    check = CheckResult("c", 1.0, 2.0, True)
    assert ValidationReport([check]).to_dict() == {
        "passed": True,
        "checks": [{"name": "c", "defect": 1.0, "threshold": 2.0,
                    "passed": True}],
    }
    identity = IdentityResult(name="i", max_defect=None, tolerance=None,
                              passed=None)
    assert list(DiagnosticsReport([identity]).to_dict()["identities"][0]) == [
        "name", "max_defect", "tolerance", "passed"]
    assert list(validate(rigid_body(1.0, 2.0, 3.0)).to_dict()) == [
        "passed", "checks"]


def test_summary_echoes_the_integrator_section_in_field_order(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "instance": {"name": "rigid-body", "moments": [1, 2, 3]},
        "initial_state": [0.0, 1.0, 1.0],
        "integrator": {"projection": {"tol": 1e-11, "max_iter": 5},
                       "record_every": 2, "t_end": 1, "dt": 0.25,
                       "method": "rk4-projected"},
    }))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
    text = (out / "summary.json").read_text()
    echoed = json.loads(text)["config"]["integrator"]
    assert list(echoed) == ["method", "dt", "t_end", "record_every",
                            "projection"]
    assert echoed == {"method": "rk4-projected", "dt": 0.25, "t_end": 1.0,
                      "record_every": 2,
                      "projection": {"max_iter": 5, "tol": 1e-11}}
    assert list(echoed["projection"]) == ["max_iter", "tol"]
    assert '"t_end": 1.0' in text
