"""The one compensated RK4 step against a reference copy of the two-step
implementation it replaced, and the operation counts of a step.

The reference below keeps a separate joint (velocity, probe) step, takes
each record's invariants with single-state calls and attaches the low
words to all records afterwards.  ``integrate`` steps the velocity stacked
over its probe and evaluates the recorded states as one block; its records
must equal the reference's bit for bit.
"""

import numpy as np
import pytest

from fluidalg import (
    FluidAlgebra,
    IntegratorSpec,
    ProjectionError,
    ProjectionSettings,
    TripleForm,
    build_torus_algebra,
    integrate,
    make_rng,
    random_algebra,
    rigid_body,
)
from fluidalg import integrators
from fluidalg.core import curl, dd_values, energy, helicity, linking, two_sum
from fluidalg.integrators import (
    NumericalFailure,
    TraceRecord,
    _plan_steps,
    project_to_invariants,
)

# ---------------------------------------------------------------------------
# reference: separate plain and joint steps, per-record evaluation


def _ref_checked(stage, label, t):
    if not np.all(np.isfinite(stage)):
        raise NumericalFailure(f"non-finite value in {label} at t={t!r}", t)
    return stage


def _ref_stage_rhs(alg, X, label, t):
    return _ref_checked(integrators.euler_rhs(alg, X), label, t)


def _ref_probe_rhs(alg, X, Z):
    return alg.solve_metric(alg.triple.contract_pair(X, curl(alg, Z)))


def _ref_rk4(alg, X, X_lo, dt, t0):
    k1 = _ref_stage_rhs(alg, X, "stage 1", t0)
    k2 = _ref_stage_rhs(alg, X + 0.5 * dt * k1, "stage 2", t0)
    k3 = _ref_stage_rhs(alg, X + 0.5 * dt * k2, "stage 3", t0)
    k4 = _ref_stage_rhs(alg, X + dt * k3, "stage 4", t0)
    X1, X1_lo = two_sum(X, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                        + X_lo)
    return _ref_checked(X1, "step result", t0 + dt), X1_lo


def _ref_rk4_joint(alg, X, X_lo, Z, Z_lo, dt, t0):
    k1x = _ref_stage_rhs(alg, X, "stage 1", t0)
    k1z = _ref_probe_rhs(alg, X, Z)
    x2 = X + 0.5 * dt * k1x
    k2x = _ref_stage_rhs(alg, x2, "stage 2", t0)
    k2z = _ref_probe_rhs(alg, x2, Z + 0.5 * dt * k1z)
    x3 = X + 0.5 * dt * k2x
    k3x = _ref_stage_rhs(alg, x3, "stage 3", t0)
    k3z = _ref_probe_rhs(alg, x3, Z + 0.5 * dt * k2z)
    x4 = X + dt * k3x
    k4x = _ref_stage_rhs(alg, x4, "stage 4", t0)
    k4z = _ref_probe_rhs(alg, x4, Z + dt * k3z)
    X1, X1_lo = two_sum(
        X, (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) + X_lo)
    Z1, Z1_lo = two_sum(
        Z, (dt / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) + Z_lo)
    return (_ref_checked(X1, "step result", t0 + dt), X1_lo,
            _ref_checked(Z1, "probe step result", t0 + dt), Z1_lo)


def _ref_attach_low_words(alg, records, probes):
    X = [r.state for r in records]
    X_lo = [r.state_lo for r in records]
    energies = dd_values(alg, "metric", [r.energy for r in records], X, X_lo)
    helicities = dd_values(alg, "linking", [r.helicity for r in records],
                           X, X_lo)
    linkings = [None] * len(records)
    if probes:
        linkings = dd_values(
            alg, "linking", [r.probe_linking for r in records], X, X_lo,
            [z for z, _ in probes], [z_lo for _, z_lo in probes])
    for r, e, h, p in zip(records, energies, helicities, linkings):
        r.energy, r.helicity, r.probe_linking = e, h, p


@np.errstate(all="ignore")
def reference_integrate(alg, X0, spec, probe=None):
    X = np.asarray(X0, dtype=float)
    X_lo = zero_low = np.full(X.shape, -0.0)
    Z = Z_lo = None
    if probe is not None:
        Z = np.asarray(probe, dtype=float)
        Z_lo = np.full(Z.shape, -0.0)
    E0, H0 = energy(alg, X), helicity(alg, X)
    records, probes = [], []

    def record(t, flag=""):
        records.append(TraceRecord(
            t=t, state=X.copy(), energy=energy(alg, X),
            helicity=helicity(alg, X),
            probe_linking=None if Z is None else linking(alg, X, Z),
            flag=flag, state_lo=X_lo.copy()))
        if Z is not None:
            probes.append((Z, Z_lo))

    record(0.0)
    n_full, remainder = _plan_steps(spec.dt, spec.t_end)
    total = n_full + (1 if remainder > 0.0 else 0)
    steps = failures = 0
    message = ""
    pending = []
    for step in range(total):
        t = step * spec.dt
        dt = spec.dt if step < n_full else remainder
        t_next = (step + 1) * spec.dt if step < n_full else spec.t_end
        try:
            if Z is None:
                X, X_lo = _ref_rk4(alg, X, X_lo, dt, t)
            else:
                X, X_lo, Z, Z_lo = _ref_rk4_joint(alg, X, X_lo, Z, Z_lo,
                                                  dt, t)
            if spec.method == "rk4-projected":
                try:
                    X = project_to_invariants(alg, X, E0, H0,
                                              spec.projection)
                    X_lo = zero_low
                except ProjectionError:
                    failures += 1
                    pending.append("projection-failed")
        except NumericalFailure as exc:
            message = str(exc)
            flags = pending + ["numerical-failure"]
            if records[-1].t == t:
                last = records[-1]
                last.flag = ",".join(filter(None, [last.flag, *flags]))
            else:
                record(t, flag=",".join(flags))
            break
        steps = step + 1
        if (step + 1) % spec.record_every == 0 or step == total - 1:
            record(t_next, flag=",".join(pending))
            pending = []
    _ref_attach_low_words(alg, records, probes)
    return records, steps, failures, message


# ---------------------------------------------------------------------------
# bit-for-bit comparison


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _same_dd(a, b):
    return _bits(a) == _bits(b) and _bits(a.lo) == _bits(b.lo)


def _assert_same_records(alg, X0, spec, probe):
    res = integrate(alg, X0, spec, probe=probe)
    ref, steps, failures, message = reference_integrate(alg, X0, spec, probe)
    assert (res.steps, res.projection_failures, res.failure_message) == (
        steps, failures, message)
    assert res.failed == bool(message)
    assert len(res.records) == len(ref)
    for got, want in zip(res.records, ref):
        assert _bits(got.t) == _bits(want.t)
        assert _bits(got.state) == _bits(want.state)
        assert _bits(got.state_lo) == _bits(want.state_lo)
        assert _same_dd(got.energy, want.energy)
        assert _same_dd(got.helicity, want.helicity)
        if probe is None:
            assert got.probe_linking is None and want.probe_linking is None
        else:
            assert _same_dd(got.probe_linking, want.probe_linking)
        assert got.flag == want.flag
    return res


def _sparse_n70():
    alg = random_algebra(5, 70)
    form = TripleForm(70, alg.triple.index, alg.triple.values)
    return FluidAlgebra(70, form, alg.linking, alg.metric)


# name -> (builder, dt, steps); a closing remainder step is added
CASES = {
    "rigid": (lambda: rigid_body(1.0, 2.0, 3.0), 1e-2, 40),
    "random-n6": (lambda: random_algebra(3, 6), 1e-2, 40),
    "random-n32": (lambda: random_algebra(7, 32), 0.1, 20),
    "random-n70": (lambda: random_algebra(5, 70), 1e-2, 6),
    "sparse-n70": (_sparse_n70, 1e-2, 6),
    "torus-k1": (lambda: build_torus_algebra(1)[0], 1e-3, 8),
    "torus-k3": (lambda: build_torus_algebra(3, max_dim=684)[0], 1e-3, 3),
}


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("method", ["rk4", "rk4-projected"])
@pytest.mark.parametrize("with_probe", [False, True])
def test_integrate_matches_the_two_step_reference_bitwise(
        name, method, with_probe):
    build, dt, steps = CASES[name]
    alg = build()
    rng = make_rng(90)
    X0 = rng.standard_normal(alg.dim)
    probe = rng.standard_normal(alg.dim) if with_probe else None
    spec = IntegratorSpec(method=method, dt=dt, t_end=(steps + 0.5) * dt,
                          record_every=3)
    _assert_same_records(alg, X0, spec, probe)


@pytest.mark.parametrize("with_probe", [False, True])
def test_blow_up_matches_the_two_step_reference_bitwise(with_probe):
    # three projected steps fail to project, then the fourth overflows
    alg = FluidAlgebra(3, [[0, 1, 2, 1e150]], np.eye(3),
                       np.diag([1.0, 2.0, 3.0]))
    spec = IntegratorSpec(
        method="rk4-projected", dt=1.0, t_end=200.0, record_every=10,
        projection=ProjectionSettings(max_iter=1, tol=1e-300))
    probe = np.array([1.0, -2.0, 0.5]) if with_probe else None
    res = _assert_same_records(alg, [1e-149, 2e-149, 0.5e-149], spec, probe)
    assert res.failed and res.records[-1].flag.endswith("numerical-failure")


def test_probe_overflow_matches_the_two_step_reference_bitwise():
    # the velocity stays finite; only the probe overflows
    alg = rigid_body(1.0, 2.0, 3.0)
    spec = IntegratorSpec(method="rk4", dt=10.0, t_end=50.0)
    res = _assert_same_records(alg, [0.0, 1.0, 1.0], spec,
                               np.full(3, 1e307))
    assert "probe step result" in res.failure_message


# ---------------------------------------------------------------------------
# operation counts per step


def _count_calls(monkeypatch):
    """Wrap the Euler RHS, the pair contraction and the two solves."""
    counts = dict.fromkeys(("rhs", "contractions", "solves"), 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(integrators, "euler_rhs",
                        counted("rhs", integrators.euler_rhs))
    monkeypatch.setattr(TripleForm, "contract_pair",
                        counted("contractions", TripleForm.contract_pair))
    for solve in ("solve_metric", "solve_linking"):
        monkeypatch.setattr(FluidAlgebra, solve,
                            counted("solves", getattr(FluidAlgebra, solve)))
    return counts


@pytest.mark.parametrize("name", ["rigid", "random-n32", "torus-k1"])
@pytest.mark.parametrize("with_probe, per_step", [
    (False, {"rhs": 4, "contractions": 4, "solves": 8}),
    (True, {"rhs": 4, "contractions": 8, "solves": 16}),
])
def test_a_step_makes_the_hand_counted_operations(
        monkeypatch, name, with_probe, per_step):
    build, dt, _ = CASES[name]
    alg = build()
    rng = make_rng(91)
    X0 = rng.standard_normal(alg.dim)
    probe = rng.standard_normal(alg.dim) if with_probe else None
    counts = _count_calls(monkeypatch)
    # the records' invariants make no RHS evaluation, contraction or solve
    res = integrate(alg, X0, IntegratorSpec(dt=dt, t_end=3 * dt),
                    probe=probe)
    assert res.steps == 3
    assert counts == {key: 3 * n for key, n in per_step.items()}
