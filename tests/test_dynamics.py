"""Euler RHS, transport, bracket, Jacobiator, circulation defect."""

import numpy as np

from fluidalg import (
    FluidAlgebra,
    circulation_defect,
    curl,
    energy,
    euler_rhs,
    g_dual_norm,
    g_norm,
    helicity,
    induced_bracket,
    inverse_curl,
    jacobiator,
    linking,
    make_rng,
    metric_inner,
    random_algebra,
    so3,
    transport,
    triple,
    validate,
    vorticity_rhs,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def brute_rhs(alg, X):
    """Independent oracle: nested-loop contraction and dense solves."""
    T = alg.triple.to_dense()
    n = alg.dim
    DX = np.linalg.solve(alg.metric, alg.linking @ X)
    c = np.zeros(n)
    for m in range(n):
        for i in range(n):
            for j in range(n):
                c[m] += T[i, j, m] * X[i] * DX[j]
    return np.linalg.solve(alg.metric, c)


# ---------------------------------------------------------------------------
# euler_rhs


def test_rigid_body_rhs_matches_cross_product_oracle(rigid123):
    X = np.array([0.0, 1.0, 1.0])
    # DX = G^-1 X, rhs = G^-1 (X x DX)
    DX = X / np.array([1.0, 2.0, 3.0])
    expected = np.cross(X, DX) / np.array([1.0, 2.0, 3.0])
    assert np.allclose(expected, [-1.0 / 6.0, 0.0, 0.0])
    assert np.allclose(euler_rhs(rigid123, X), expected, atol=1e-15)


def test_principal_axis_is_equilibrium(rigid123):
    for axis in (E1, E2, E3):
        assert np.allclose(euler_rhs(rigid123, axis), 0.0, atol=1e-15)


def test_beltrami_state_is_equilibrium():
    # with L = G the curl is the identity, so every state is Beltrami
    rng = make_rng(31)
    G = rng.standard_normal((4, 4))
    G = G.T @ G + 4 * np.eye(4)
    from fluidalg import FluidAlgebra

    T = rng.standard_normal((4, 4, 4))
    T = (
        T
        + T.transpose(1, 2, 0)
        + T.transpose(2, 0, 1)
        - T.transpose(1, 0, 2)
        - T.transpose(0, 2, 1)
        - T.transpose(2, 1, 0)
    ) / 6.0
    alg = FluidAlgebra(4, T, G, G)
    X = rng.standard_normal(4)
    assert np.allclose(curl(alg, X), X, atol=1e-12)
    scale = alg.triple.max_abs() * g_norm(alg, X) ** 2
    assert np.linalg.norm(euler_rhs(alg, X)) <= 1e-12 * scale


def test_rhs_matches_brute_force_oracle(random_n6):
    rng = make_rng(32)
    for _ in range(5):
        X = rng.standard_normal(6)
        expected = brute_rhs(random_n6, X)
        got = euler_rhs(random_n6, X)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-13)


def test_rhs_orthogonality_contracts(random_n6):
    rng = make_rng(33)
    tmax = random_n6.triple.max_abs()
    for _ in range(30):
        X = rng.standard_normal(6)
        DX = curl(random_n6, X)
        V = euler_rhs(random_n6, X)
        scale = tmax * g_norm(random_n6, X) * g_norm(random_n6, DX)
        assert abs(metric_inner(random_n6, V, X)) <= 1e-12 * scale * g_norm(
            random_n6, X
        )
        assert abs(metric_inner(random_n6, V, DX)) <= 1e-12 * scale * g_norm(
            random_n6, DX
        )


# ---------------------------------------------------------------------------
# vorticity_rhs


def test_vorticity_rhs_rigid_body_oracle(rigid123):
    Y = np.array([0.0, 1.0, 1.0])
    # X = D'Y = G Y = (0, 2, 3); rhs(X) = G^-1 (X x G^-1 X) = (-1, 0, 0);
    # vorticity rhs = curl of that = G^-1 (-1, 0, 0) = (-1, 0, 0)
    assert np.allclose(inverse_curl(rigid123, Y), [0.0, 2.0, 3.0])
    assert np.allclose(vorticity_rhs(rigid123, Y), [-1.0, 0.0, 0.0],
                       atol=1e-14)


def test_vorticity_rhs_equals_curl_of_euler_rhs(random_n6):
    rng = make_rng(34)
    for _ in range(20):
        Y = rng.standard_normal(6)
        lhs = vorticity_rhs(random_n6, Y)
        rhs = curl(random_n6, euler_rhs(random_n6, inverse_curl(random_n6, Y)))
        ref = max(g_norm(random_n6, lhs), g_norm(random_n6, rhs))
        assert g_norm(random_n6, lhs - rhs) <= 1e-10 * max(ref, 1e-30)


def test_vorticity_rhs_equals_transport(random_n6):
    rng = make_rng(35)
    for _ in range(20):
        Y = rng.standard_normal(6)
        lhs = vorticity_rhs(random_n6, Y)
        rhs = transport(random_n6, inverse_curl(random_n6, Y), Y)
        ref = max(g_norm(random_n6, lhs), g_norm(random_n6, rhs))
        assert g_norm(random_n6, lhs - rhs) <= 1e-10 * max(ref, 1e-30)


# ---------------------------------------------------------------------------
# transport


def test_transport_rigid_body_oracle(rigid123):
    # b = contract(e1, e2) = e3, D^T b = (0,0,1/3), G^-1 -> (0,0,1/9)
    got = transport(rigid123, E1, E2)
    assert np.allclose(got, [0.0, 0.0, 1.0 / 9.0], atol=1e-15)
    # independent nested-loop oracle
    T = rigid123.triple.to_dense()
    b = np.zeros(3)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                b[k] += T[i, j, k] * E1[i] * E2[j]
    D = np.linalg.solve(rigid123.metric, rigid123.linking)
    expected = np.linalg.solve(rigid123.metric, D.T @ b)
    assert np.allclose(got, expected, atol=1e-15)


def test_transport_self_is_zero(random_n6):
    rng = make_rng(36)
    tmax = random_n6.triple.max_abs()
    for _ in range(20):
        X = rng.standard_normal(6)
        scale = tmax * g_norm(random_n6, X) ** 2
        assert g_norm(random_n6, transport(random_n6, X, X)) <= 1e-12 * scale


def test_transport_antisymmetry(random_n6):
    rng = make_rng(37)
    tmax = random_n6.triple.max_abs()
    for _ in range(20):
        X = rng.standard_normal(6)
        Z = rng.standard_normal(6)
        scale = tmax * g_norm(random_n6, X) * g_norm(random_n6, Z)
        s = transport(random_n6, X, Z) + transport(random_n6, Z, X)
        assert g_norm(random_n6, s) <= 1e-12 * scale


def test_transport_equality(random_n6):
    rng = make_rng(38)
    for _ in range(20):
        X = rng.standard_normal(6)
        DX = curl(random_n6, X)
        a = curl(random_n6, euler_rhs(random_n6, X))
        b = transport(random_n6, X, DX)
        c = vorticity_rhs(random_n6, DX)
        ref = max(g_norm(random_n6, a), g_norm(random_n6, b),
                  g_norm(random_n6, c), 1e-30)
        assert g_norm(random_n6, a - b) <= 1e-10 * ref
        assert g_norm(random_n6, a - c) <= 1e-10 * ref


# ---------------------------------------------------------------------------
# induced bracket and Jacobiator


def test_bracket_recovers_cross_product():
    alg = so3()
    assert np.allclose(induced_bracket(alg, E1, E2), E3, atol=1e-14)
    assert np.allclose(induced_bracket(alg, E2, E3), E1, atol=1e-14)


def test_bracket_halves_when_linking_doubles():
    from fluidalg import FluidAlgebra
    from fluidalg.instances import LEVI_CIVITA

    alg = FluidAlgebra(3, LEVI_CIVITA.copy(), 2.0 * np.eye(3), np.eye(3))
    assert np.allclose(induced_bracket(alg, E1, E2), E3 / 2.0, atol=1e-14)


def test_bracket_round_trips_structure_constants():
    from fluidalg import LieAlgebraInput, from_lie_algebra
    from fluidalg.instances import LEVI_CIVITA

    rng = make_rng(39)
    G = rng.standard_normal((3, 3))
    G = G.T @ G + 3 * np.eye(3)
    P = 1.7 * np.eye(3)
    alg = from_lie_algebra(LieAlgebraInput(LEVI_CIVITA, P, G))
    e = np.eye(3)
    tmax = alg.triple.max_abs()
    for i in range(3):
        for j in range(3):
            expected = LEVI_CIVITA[i, j]  # structure constants row
            got = induced_bracket(alg, e[i], e[j])
            assert np.max(np.abs(got - expected)) <= 1e-12 * max(tmax, 1.0)


def test_bracket_antisymmetry_and_compatibility(random_n6):
    rng = make_rng(40)
    tmax = random_n6.triple.max_abs()
    for _ in range(20):
        X, Y, Z = (rng.standard_normal(6) for _ in range(3))
        nx, ny, nz = (g_norm(random_n6, v) for v in (X, Y, Z))
        br = induced_bracket(random_n6, X, Y)
        assert g_norm(
            random_n6, br + induced_bracket(random_n6, Y, X)
        ) <= 1e-12 * tmax * nx * ny
        assert abs(
            linking(random_n6, br, Z) - triple(random_n6, X, Y, Z)
        ) <= 1e-11 * tmax * nx * ny * nz


def test_jacobiator_vanishes_on_lie_instances(rigid123):
    rng = make_rng(41)
    tmax = rigid123.triple.max_abs()
    for _ in range(30):
        X, Y, Z = (rng.standard_normal(3) for _ in range(3))
        scale = (
            tmax
            * g_norm(rigid123, X)
            * g_norm(rigid123, Y)
            * g_norm(rigid123, Z)
        )
        assert g_norm(rigid123, jacobiator(rigid123, X, Y, Z)) <= 1e-11 * scale


def test_jacobiator_nonzero_on_generic_algebra():
    alg = random_algebra(11, 5)
    rng = make_rng(42)
    norms = []
    for _ in range(20):
        X, Y, Z = (rng.standard_normal(5) for _ in range(3))
        norms.append(g_norm(alg, jacobiator(alg, X, Y, Z)))
    assert max(norms) > 0.0


# ---------------------------------------------------------------------------
# circulation defect


def test_circulation_defect_zero_at_euler_rhs(random_n6):
    rng = make_rng(43)
    tmax = random_n6.triple.max_abs()
    for _ in range(20):
        X = rng.standard_normal(6)
        F = euler_rhs(random_n6, X)
        scale = tmax * g_norm(random_n6, X) * g_norm(
            random_n6, curl(random_n6, X)
        )
        r = circulation_defect(random_n6, F, X)
        assert g_dual_norm(random_n6, r) <= 1e-11 * scale


def test_circulation_defect_detects_perturbations(random_n6):
    rng = make_rng(44)
    for _ in range(20):
        X = rng.standard_normal(6)
        F = euler_rhs(random_n6, X) + 1e-3 * E1_pad(6)
        r = circulation_defect(random_n6, F, X)
        assert g_dual_norm(random_n6, r) > 0.0


def E1_pad(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


def test_circulation_defect_at_zero_rhs(random_n6):
    # F = 0 gives r = -D^T G euler_rhs(X), computed by an independent path
    rng = make_rng(45)
    D = np.linalg.solve(random_n6.metric, random_n6.linking)
    for _ in range(10):
        X = rng.standard_normal(6)
        r = circulation_defect(random_n6, np.zeros(6), X)
        expected = -D.T @ (random_n6.metric @ euler_rhs(random_n6, X))
        assert np.allclose(r, expected, rtol=1e-10, atol=1e-12)


def test_circulation_pairing_cancellation_is_exact(random_n6):
    # the two terms of the probe-linking balance cancel exactly thanks to
    # the grouped evaluation of the triple form
    rng = make_rng(46)
    for _ in range(20):
        X = rng.standard_normal(6)
        Z = rng.standard_normal(6)
        DX = curl(random_n6, X)
        DZ = curl(random_n6, Z)
        total = triple(random_n6, X, DX, DZ) + triple(random_n6, X, DZ, DX)
        assert total == 0.0


def test_energy_helicity_values_are_conserved_quantities(rigid123):
    # differential-level conservation: d/dt of both invariants is a triple
    # with a repeated argument
    X = np.array([0.4, -1.1, 0.7])
    V = euler_rhs(rigid123, X)
    assert abs(metric_inner(rigid123, V, X)) <= 1e-14
    assert abs(
        metric_inner(rigid123, V, curl(rigid123, X))
    ) <= 1e-14
    assert energy(rigid123, X) > 0
    assert isinstance(helicity(rigid123, X), float)


def test_operators_return_non_finite_values_without_raising():
    # a triple entry near the float64 maximum passes validate; the
    # operators overflow on it and return what they compute
    alg = FluidAlgebra(3, [[0, 1, 2, 1.7e308]], np.eye(3), np.eye(3))
    assert validate(alg).passed
    big = np.array([1e200, 2e200, 3e200])
    with np.errstate(all="ignore"):
        values = [euler_rhs(alg, big), vorticity_rhs(alg, big),
                  transport(alg, [1.0, 2.0, 0.0], [0.0, 1.0, 3.0])]
    for v in values:
        assert v.shape == (3,) and not np.all(np.isfinite(v))
