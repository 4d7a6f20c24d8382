"""Spectral flat-torus instance: lattice, frames, spectrum, tensor oracle."""

import itertools
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from fluidalg import (
    ConfigError,
    FluidAlgebra,
    IntegratorSpec,
    TorusBasis,
    TorusMode,
    TorusSizeError,
    TripleForm,
    beltrami_state,
    build_torus_algebra,
    co_evolve_probe,
    curl,
    energy,
    euler_rhs,
    g_norm,
    helicity,
    integrate,
    inverse_curl,
    linking,
    make_rng,
    metric_inner,
    random_algebra,
    rk4_step,
    run_identity_suite,
    validate,
)
from fluidalg import instances
from fluidalg.cli import main
from fluidalg.core import _canonical_entries
from fluidalg.instances import (
    _DET_NOISE,
    _SpectralContraction,
    _frame,
    _frames,
    _torus_entries,
)


@pytest.fixture(scope="module")
def torus_k2():
    return build_torus_algebra(2)


@pytest.fixture(scope="module")
def torus_k1():
    return build_torus_algebra(1)


def midpoint_grid(N):
    g = (np.arange(N) + 0.5) / N
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


def quadrature_entry(basis, p, q, r, points):
    """Independent oracle: midpoint-rule integral of det(f_p, f_q, f_r)."""
    cols = np.stack(
        [basis.field_at(p, points), basis.field_at(q, points),
         basis.field_at(r, points)],
        axis=-1,
    )
    return float(np.mean(np.linalg.det(cols)))


def count_half_lattice(K):
    """Independent enumeration of lexicographically positive wavevectors."""
    count = 0
    for k in itertools.product(range(-K, K + 1), repeat=3):
        if k == (0, 0, 0):
            continue
        first = next(c for c in k if c != 0)
        if first > 0:
            count += 1
    return count


def test_dimension_counts(torus_k1):
    alg, basis = torus_k1
    assert count_half_lattice(1) == 13
    assert alg.dim == 52  # 13 representatives x 2 polarizations x 2 phases
    assert len(basis.modes) == 52
    assert validate(alg).passed


def test_polarization_frames(torus_k1):
    _, basis = torus_k1
    for r, k in enumerate(basis.reps):
        kf = np.asarray(k, float)
        e1, e2 = basis.e1[r], basis.e2[r]
        assert abs(e1 @ kf) <= 1e-13
        assert abs(e2 @ kf) <= 1e-13
        assert abs(e1 @ e2) <= 1e-13
        assert np.linalg.norm(e1) == pytest.approx(1.0, abs=1e-13)
        assert np.linalg.norm(e2) == pytest.approx(1.0, abs=1e-13)
        # right-handed: e1 x e2 = k/|k|
        assert np.allclose(np.cross(e1, e2), kf / np.linalg.norm(kf),
                           atol=1e-13)


def test_metric_is_identity_and_linking_block_structure(torus_k1):
    alg, basis = torus_k1
    assert np.array_equal(alg.metric, np.eye(alg.dim))
    L = alg.linking
    assert np.array_equal(L, L.T)
    # only the cos/sin pairs within one representative couple
    for p in range(alg.dim):
        for q in range(alg.dim):
            if L[p, q] != 0.0:
                assert p // 4 == q // 4
                mp, mq = basis.modes[p], basis.modes[q]
                assert mp.phase != mq.phase
                assert mp.polarization != mq.polarization


def test_curl_spectrum_matches_lattice(torus_k1):
    alg, basis = torus_k1
    D = np.linalg.solve(alg.metric, alg.linking)
    got = np.sort(np.linalg.eigvals(D).real)
    expected = basis.analytic_curl_eigenvalues()
    assert np.max(np.abs(got - expected)) <= 1e-9
    # the |k| = 1 shell gives +-2 pi with multiplicity 6 each
    lam = 2.0 * np.pi
    assert np.sum(np.abs(got - lam) < 1e-9) == 6
    assert np.sum(np.abs(got + lam) < 1e-9) == 6


def test_curl_squared_is_shell_laplacian(torus_k1):
    alg, basis = torus_k1
    D = alg.linking  # G = I
    D2 = D @ D
    for r, k in enumerate(basis.reps):
        lam2 = (2.0 * np.pi) ** 2 * float(k @ k)
        block = D2[4 * r: 4 * r + 4, 4 * r: 4 * r + 4]
        assert np.allclose(block, lam2 * np.eye(4), atol=1e-9)
    # no off-block coupling
    off = D2.copy()
    for r in range(len(basis.reps)):
        off[4 * r: 4 * r + 4, 4 * r: 4 * r + 4] = 0.0
    assert np.max(np.abs(off)) <= 1e-12


def test_every_sparse_entry_matches_quadrature(torus_k1):
    alg, basis = torus_k1
    points = midpoint_grid(8)  # N >= 3K + 2 makes the rule exact here
    for (p, q, r), v in zip(alg.triple.index, alg.triple.values):
        assert abs(quadrature_entry(basis, p, q, r, points) - v) <= 1e-10


def test_sampled_zero_entries_match_quadrature(torus_k1):
    alg, basis = torus_k1
    points = midpoint_grid(8)
    present = {tuple(row) for row in alg.triple.index.tolist()}
    rng = make_rng(60)
    checked = 0
    while checked < 100:
        p, q, r = sorted(int(x) for x in rng.integers(0, alg.dim, 3))
        if p == q or q == r or (p, q, r) in present:
            continue
        assert abs(quadrature_entry(basis, p, q, r, points)) <= 1e-10
        checked += 1


def test_beltrami_state_is_steady(torus_k1):
    alg, basis = torus_k1
    X = beltrami_state(basis)
    DX = curl(alg, X)
    lam = 2.0 * np.pi
    assert np.max(np.abs(DX - lam * X)) <= 1e-12
    scale = alg.triple.max_abs() * g_norm(alg, X) * g_norm(alg, DX)
    assert np.linalg.norm(euler_rhs(alg, X)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# the basis as a value of K


@pytest.mark.parametrize("K", [1, 2, 3])
def test_basis_is_a_value_of_K(K):
    alg, built = build_torus_algebra(K, max_dim=684)
    basis = TorusBasis(K)
    for a, b in [(basis.reps, built.reps), (basis.e1, built.e1),
                 (basis.e2, built.e2)]:
        assert a.tobytes() == b.tobytes()
    # read-only: the spectral form reads its entries from the basis later
    for a in (basis.reps, basis.e1, basis.e2, basis.lam):
        assert not a.flags.writeable
    assert basis.dim == alg.dim
    assert (basis.analytic_curl_eigenvalues().tobytes()
            == np.sort(alg._L.w).tobytes())
    # an independent enumeration: lexicographically positive wavevectors in
    # order, each with the local order of its four coordinates
    reps = [k for k in itertools.product(range(-K, K + 1), repeat=3)
            if any(k) and next(c for c in k if c != 0) > 0]
    local = [(1, "cos"), (1, "sin"), (2, "cos"), (2, "sin")]
    modes = basis.modes
    assert modes == [TorusMode(k, pol, phase)
                     for k in reps for pol, phase in local]
    assert all(type(c) is int for mode in modes for c in mode.k)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_curl_eigenvalues_have_the_bits_of_the_representative_loop(K):
    basis = TorusBasis(K)
    out = []
    for k in basis.reps:
        lam = 2.0 * np.pi * float(np.linalg.norm(k))
        out.extend([lam, lam, -lam, -lam])
    expected = np.sort(np.array(out))
    assert basis.analytic_curl_eigenvalues().tobytes() == expected.tobytes()


@pytest.mark.parametrize("K", [1, 2, 3])
def test_beltrami_state_has_the_bits_of_the_shell_loop(K):
    basis = TorusBasis(K)
    X = np.zeros(basis.dim)
    for r, k in enumerate(basis.reps):
        if int(k @ k) == 1:
            X[4 * r + 1] += 1.0
            X[4 * r + 2] += 1.0
    expected = X / np.linalg.norm(X)
    assert beltrami_state(basis).tobytes() == expected.tobytes()


@pytest.mark.parametrize("K", [0, 1.5, True])
def test_basis_refuses_K_as_build_torus_algebra_does(K):
    with pytest.raises(ConfigError) as built:
        build_torus_algebra(K)
    with pytest.raises(ConfigError) as basis:
        TorusBasis(K)
    assert str(basis.value) == str(built.value)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_lattice_table_maps_each_cell_to_its_representative(K):
    basis = TorusBasis(K)
    side = 2 * K + 1
    for table in (basis.rep_of, basis.sign_of):
        assert table.shape == (side,) * 3
        assert table.dtype == np.intp
        assert not table.flags.writeable
    origin = (K, K, K)
    assert basis.rep_of[origin] == -1
    assert basis.sign_of[origin] == 0
    for c in itertools.product(range(-K, K + 1), repeat=3):
        if not any(c):
            continue
        cell = tuple(np.add(c, K))
        rep = basis.reps[basis.rep_of[cell]]
        assert tuple(basis.sign_of[cell] * rep) == c


def _operator_arrays_by_mirror(basis):
    """The spectral operator's gather, synthesis, read and projection, with
    the half cube built apart from the lattice table: each representative
    flipped into k_z >= 0, the plane k_z = 0 mirrored and the origin
    zeroed.  The cube's floats are laid out [component, kz, ky, re/im, kx]
    (the planar layout)."""
    reps, K = basis.reps, basis.K
    side, half = 2 * K + 1, K + 1
    m = reps.shape[0]
    cube = (side, side, half)
    flip = np.where(reps[:, 2] < 0, -1, 1)
    origin = np.array([K, K, 0])
    stored = np.ravel_multi_index((flip[:, None] * reps + origin).T, cube)
    plane = np.flatnonzero(reps[:, 2] == 0)
    rep = np.zeros(side * side * half, dtype=np.intp)
    rep[stored] = np.arange(m)
    rep[np.ravel_multi_index((origin - reps[plane]).T, cube)] = plane
    sign = np.ones((rep.size, 2))
    sign[stored, 1] = -flip
    sign[np.ravel_multi_index(origin, cube)] = 0.0
    frame = np.stack([basis.e1, basis.e2])
    p, c, z, y, ri, x = np.indices((2, 3, half, side, 2, side))
    s = np.ravel_multi_index((x, y, z), cube)
    gather = (4 * rep[s] + 2 * p + ri).ravel()
    synthesis = (np.sqrt(0.5) * frame[p, rep[s], c]
                 * sign[s, ri]).reshape(2, -1)
    c, r, p, ri = np.indices((3, m, 2, 2))
    x, y, z = np.unravel_index(stored[r], cube)
    read = np.ravel_multi_index((c, z, y, ri, x),
                                (3, half, side, 2, side)).reshape(3, -1)
    projection = (np.sqrt(2.0) * frame[p, r, c]
                  * sign[stored[r], ri]).reshape(3, -1)
    return gather, synthesis, read, projection


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_operator_arrays_from_the_table_have_the_bits_of_the_mirror(K):
    basis = TorusBasis(K)
    op = _SpectralContraction(basis)
    got = (op._gather, op._synthesis, op._read, op._projection)
    for a, b in zip(got, _operator_arrays_by_mirror(basis)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def _real_form(T):
    return np.block([[T.real, -T.imag], [T.imag, T.real]])


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_transform_matrices_are_real_forms_of_the_dft(K):
    """Each real GEMM matrix of the kernel is, bit for bit, the real form
    [[Re T, -Im T], [Im T, Re T]] of a complex DFT matrix T, with its rows
    or columns in the order of the planar layout; along z, the real and
    imaginary parts of the DFT over the half spectrum."""
    op = _SpectralContraction(TorusBasis(K))
    n, side, half = op._shape
    x, k = np.arange(n), np.arange(-K, K + 1)
    # exp(2 pi i ((x k) mod N) / N), the angle from the exact residue
    dft = np.exp(1j * (2 * np.pi / n) * ((x[:, None] * k) % n))
    forward = _real_form(dft)
    inverse = _real_form(dft.conj().T) / n
    # the y step reads and writes (k, re/im), not (re/im, k)
    interleaved = (np.arange(2)[None, :] * side + np.arange(side)[:, None])
    interleaved = interleaved.ravel()
    expected = {
        "_x_to_grid": forward.T,
        "_y_to_grid": forward[:, interleaved],
        "_x_from_grid": inverse.T,
        "_y_from_grid": inverse[interleaved],
    }
    # c2r weighs kz = 0 once and the others twice; rows (kz, re/im)
    half_dft = np.exp(1j * (2 * np.pi / n) * ((np.arange(half)[:, None] * x)
                                              % n))
    parts = np.stack((half_dft.real, -half_dft.imag), axis=1)
    expected["_z_from_grid"] = parts.reshape(2 * half, n) / n
    parts[1:] *= 2.0
    expected["_z_to_grid"] = parts.reshape(2 * half, n).T
    for name, want in expected.items():
        got = getattr(op, name)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable


@pytest.mark.parametrize("K", [30, 10 ** 4])
def test_dimension_cap_is_checked_before_the_lattice_exists(K, monkeypatch):
    def refused(K):
        raise AssertionError("the basis was built past the cap")

    monkeypatch.setattr(instances, "TorusBasis", refused)
    tracemalloc.start()
    try:
        with pytest.raises(TorusSizeError, match="above the cap"):
            build_torus_algebra(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the K = 30 table alone is 2 x 61^3 x 8 bytes, 3.6 MB
    assert peak < 64 * 1024


@pytest.mark.parametrize("p", [-1, True, 2.0, 52, "0"])
def test_mode_refuses_an_index_outside_the_basis(torus_k1, p):
    _, basis = torus_k1
    with pytest.raises(IndexError, match=r"integer in \[0, 52\)"):
        basis.mode(p)
    with pytest.raises(IndexError, match=r"integer in \[0, 52\)"):
        basis.field_at(p, np.zeros((1, 3)))


def test_mode_takes_a_numpy_integer(torus_k1):
    _, basis = torus_k1
    assert (basis.mode(np.int64(5)) == basis.mode(5)
            == TorusMode((0, 1, -1), 1, "sin"))
    points = midpoint_grid(2)
    assert np.array_equal(basis.field_at(np.int64(51), points),
                          basis.field_at(51, points))


def test_mixed_state_invariants_are_finite(torus_k1):
    alg, _ = torus_k1
    rng = make_rng(61)
    X = rng.standard_normal(alg.dim)
    assert energy(alg, X) > 0
    assert np.isfinite(helicity(alg, X))


def test_dimension_cap():
    with pytest.raises(TorusSizeError, match="684"):
        build_torus_algebra(3)
    # K = 2 fits under the default cap
    alg, basis = build_torus_algebra(2)
    assert alg.dim == 248
    assert basis.dim == 248


def test_k2_uses_sparse_storage_and_validates():
    alg, basis = build_torus_algebra(2)
    assert alg.triple.dense is None  # above the dense threshold
    assert validate(alg).passed
    # spot-check a few entries against quadrature on a finer exact grid
    points = midpoint_grid(8)  # 3K + 2 = 8
    rng = make_rng(62)
    rows = rng.integers(0, alg.triple.nnz, 25)
    for row in rows:
        p, q, r = (int(x) for x in alg.triple.index[row])
        v = float(alg.triple.values[row])
        assert abs(quadrature_entry(basis, p, q, r, points) - v) <= 1e-10


def test_rejects_bad_K():
    with pytest.raises(ValueError):
        build_torus_algebra(0)


# ---------------------------------------------------------------------------
# vectorized assembly and exact structured operators


def oracle_entries(basis):
    """Per-entry assembly: every multiset r1 <= r2 <= r3 of representatives
    with a signed zero sum, each local slot with its own determinant."""
    reps = [tuple(int(c) for c in k) for k in basis.reps]
    frames = [_frame(np.array(k)) for k in reps]
    amplitude = 2.0 * np.sqrt(2.0)
    rows, vals = [], []
    for r1, r2, r3 in itertools.combinations_with_replacement(range(len(reps)), 3):
        k1, k2, k3 = reps[r1], reps[r2], reps[r3]
        signs = next(
            ((1, s2, s3) for s2 in (1, -1) for s3 in (1, -1)
             if all(a + s2 * b + s3 * c == 0 for a, b, c in zip(k1, k2, k3))),
            None,
        )
        if signs is None:
            continue
        for l1, l2, l3 in itertools.product(range(4), repeat=3):
            if (r1 == r2 and l2 <= l1) or (r2 == r3 and l3 <= l2):
                continue
            # local slots 1 and 3 are sines; an odd number integrates to 0
            sines = [s for s, l in zip(signs, (l1, l2, l3)) if l % 2]
            if len(sines) % 2:
                continue
            tri = -0.25 * sines[0] * sines[1] if sines else 0.25
            cols = [frames[r][l // 2] for r, l in ((r1, l1), (r2, l2), (r3, l3))]
            det = float(np.linalg.det(np.column_stack(cols)))
            if abs(det) <= _DET_NOISE:
                continue
            rows.append((4 * r1 + l1, 4 * r2 + l2, 4 * r3 + l3))
            vals.append(amplitude * det * tri)
    index = np.array(rows)
    order = np.lexsort(index.T[::-1])
    return index[order], np.array(vals)[order]


@pytest.mark.parametrize("fixture", ["torus_k1", "torus_k2"])
def test_vectorized_assembly_matches_per_entry_oracle(fixture, request):
    alg, basis = request.getfixturevalue(fixture)
    index, values = oracle_entries(basis)
    assert np.array_equal(alg.triple.index, index)
    assert np.array_equal(alg.triple.values, values)


def test_identity_metric_solve_is_an_exact_copy(torus_k1):
    alg, _ = torus_k1
    assert alg._G.diagonal and np.all(alg._G.w == 1.0)
    # no -0.0 in rhs: the blocked triangular solve keeps or clears the sign
    # of a zero depending on its row; the right-hand sides of the package
    # (contractions and linking products) never hold one
    rhs = make_rng(63).standard_normal(alg.dim)
    rhs[::5] = 0.0
    out = alg.solve_metric(rhs)
    assert out is not rhs
    factor = scipy.linalg.cho_factor(np.eye(alg.dim), lower=True)
    expected = scipy.linalg.cho_solve(factor, rhs)
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))
    assert np.array_equal(alg._G.eigenvalues, np.ones(alg.dim))


@pytest.mark.parametrize("fixture", ["torus_k1", "torus_k2"])
def test_permutation_curl_is_the_dense_product_bitwise(fixture, request):
    alg, basis = request.getfixturevalue(fixture)
    assert alg._L.w is not None
    rng = make_rng(64)
    # the Beltrami state has exact zeros, which the gather must not turn
    # into -0.0 where the dense sum gives +0.0
    for X in (rng.standard_normal(alg.dim), beltrami_state(basis),
              -beltrami_state(basis)):
        got = curl(alg, X)
        expected = alg.solve_metric(alg.linking @ X)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("fixture", ["torus_k1", "torus_k2"])
def test_structured_operators_leave_diagnose_unchanged(fixture, request,
                                                       monkeypatch):
    alg, basis = request.getfixturevalue(fixture)
    assert alg._G.diagonal and np.all(alg._G.w == 1.0)
    assert alg._L.w is not None
    rng = make_rng(69)
    X = rng.standard_normal(alg.dim)
    for Y in (rng.standard_normal(alg.dim), beltrami_state(basis)):
        assert metric_inner(alg, X, Y) == float(X @ (alg.metric @ Y))
        assert linking(alg, X, Y) == float(X @ (alg.linking @ Y))
        assert helicity(alg, Y) == float(Y @ (alg.linking @ Y))
        assert g_norm(alg, Y) == float(np.sqrt(Y @ (alg.metric @ Y)))
        assert np.array_equal(inverse_curl(alg, Y),
                              alg.solve_linking(alg.metric @ Y))
    # the identity-metric copy keeps a zero norm +0.0
    zero = g_norm(alg, np.full(alg.dim, -0.0))
    assert zero == 0.0 and not np.signbit(zero)
    # the suite reports the same bytes with the dense products, one GEMV
    # per row of its blocks
    fast = json.dumps(run_identity_suite(alg, 6, num_triples=3).to_dict())
    monkeypatch.setattr(FluidAlgebra, "apply_metric",
                        lambda self, v: (self.metric @ v[..., None])[..., 0])
    monkeypatch.setattr(FluidAlgebra, "apply_linking",
                        lambda self, v: (self.linking @ v[..., None])[..., 0])
    dense = json.dumps(run_identity_suite(alg, 6, num_triples=3).to_dict())
    assert fast == dense


def test_permutation_singular_values_match_svd(torus_k2):
    alg, _ = torus_k2
    expected = scipy.linalg.svdvals(alg.linking)
    got = alg._L.singular_values
    assert np.max(np.abs(got - expected) / expected) <= 1e-15


def test_general_algebra_takes_the_dense_path():
    alg = random_algebra(5, 7)
    assert alg._L.w is None
    assert alg._G.w is None
    X = make_rng(65).standard_normal(alg.dim)
    got = curl(alg, X)
    assert np.array_equal(got, np.linalg.inv(alg.metric) @ (alg.linking @ X))
    # the backward-stable solve, to the forward error of either
    factor = scipy.linalg.cho_factor(alg.metric, lower=True)
    expected = scipy.linalg.cho_solve(factor, alg.linking @ X)
    bound = 4 * alg.metric_condition * np.finfo(float).eps
    assert np.linalg.norm(got - expected) <= bound * np.linalg.norm(expected)
    assert np.array_equal(alg._L.singular_values,
                          scipy.linalg.svdvals(alg.linking))


def test_k4_builds_and_steps():
    alg, _ = build_torus_algebra(4, max_dim=1456)
    assert alg.dim == 1456
    assert alg.triple.nnz == 493776
    X = make_rng(66).standard_normal(alg.dim)
    X /= g_norm(alg, X)
    out = rk4_step(alg, X, 1e-3)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out - X)) > 0.0


def test_simulate_torus_k2_with_probe_is_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "instance": {"name": "torus", "K": 2},
        "initial_state": {"seed": 5, "norm": 1.0},
        "probe": {"seed": 6, "norm": 1.0},
        "integrator": {"method": "rk4", "dt": 1e-3, "t_end": 0.01},
    }))
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["simulate", "--config", str(cfg), "--output",
                     str(out)]) == 0
        # summary.json differs only in the echoed output directory
        summary = (out / "summary.json").read_text().replace(str(out), "OUT")
        outputs.append((
            (out / "trace.csv").read_bytes(),
            (out / "state.csv").read_bytes(),
            summary,
        ))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# the spectral kind: pruned-DFT contraction, lazy entries, batched frames


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_batched_frames_equal_the_per_representative_frame(K):
    reps = TorusBasis(K).reps
    e1, e2 = _frames(reps)
    for r, k in enumerate(reps):
        f1, f2 = _frame(k)
        assert np.array_equal(e1[r], f1)
        assert np.array_equal(e2[r], f2)


@pytest.mark.parametrize("K", [2, 3, 4])
def test_spectral_contraction_matches_the_stored_entries(K):
    alg, _ = build_torus_algebra(K, max_dim=1456)
    assert alg.triple.kind == "spectral"
    stored = TripleForm(alg.dim, alg.triple.index, alg.triple.values)
    assert stored.kind == "sparse"
    rng = make_rng(70 + K)
    for _ in range(5):
        X, Y = rng.standard_normal((2, alg.dim))
        got = alg.triple.contract_pair(X, Y)
        expected = stored.contract_pair(X, Y)
        bound = 1e-14 * np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= bound
    # a 3-row block, each row within the bound of its own scale
    A, B = rng.standard_normal((2, 3, alg.dim))
    got = alg.triple.contract_pair(A, B)
    expected = stored.contract_pair(A, B)
    assert got.shape == expected.shape == (3, alg.dim)
    bound = 1e-14 * np.max(np.abs(expected), axis=1)
    assert np.all(np.max(np.abs(got - expected), axis=1) <= bound)


def test_k1_forms_of_each_kind_hold_one_set_of_entries(torus_k1):
    alg, basis = torus_k1
    dense = alg.triple
    assert dense.kind == "dense"
    forms = [
        TripleForm(alg.dim, dense.index, dense.values),
        TripleForm.spectral(
            alg.dim, _SpectralContraction(basis),
            lambda: _canonical_entries(alg.dim, *_torus_entries(basis))),
    ]
    for form, kind in zip(forms, ["sparse", "spectral"]):
        assert form.kind == kind
        assert form.index.tobytes() == dense.index.tobytes()
        assert form.values.tobytes() == dense.values.tobytes()
        assert form.nnz == dense.nnz
        assert form.max_abs() == dense.max_abs() == 0.7071067811865476
        # one to_dense for every kind: the same array, zero signs included
        assert form.to_dense().tobytes() == dense.to_dense().tobytes()


def test_k1_is_built_from_its_entries_with_no_antisymmetry_defect(torus_k1):
    # exact by construction: its packed rows are written from its entries
    checks = {c.name: c for c in validate(torus_k1[0]).checks}
    assert checks["triple-antisymmetry"].defect == 0.0


@pytest.mark.parametrize("K", [2, 3, 4])
def test_spectral_contraction_is_exactly_antisymmetric(K):
    alg, basis = build_torus_algebra(K, max_dim=1456)
    rng = make_rng(67)
    for X, Y in [rng.standard_normal((2, alg.dim)) for _ in range(10)] + [
            (beltrami_state(basis), rng.standard_normal(alg.dim))]:
        b = alg.triple.contract_pair(X, Y)
        assert np.array_equal(alg.triple.contract_pair(Y, X), -b)
        assert not np.any(alg.triple.contract_pair(X, X))


def test_spectral_identity_suite_passes_at_k2(torus_k2):
    alg, _ = torus_k2
    report = run_identity_suite(alg, num_states=10, num_triples=5)
    assert report.passed
    for name in ("transport-antisymmetry", "bracket-antisymmetry",
                 "circulation-pairing-cancellation"):
        assert report.identity(name).max_defect == 0.0


@pytest.mark.parametrize("K", [1, 2, 3])
def test_permutation_linking_solve_is_a_gather(K):
    alg, _ = build_torus_algebra(K, max_dim=684)
    assert alg._L.w is not None
    rng = make_rng(68)
    rhs = rng.standard_normal(alg.dim)
    got = alg.solve_linking(rhs)
    expected = np.linalg.solve(alg.linking, rhs)
    assert np.all(np.abs(got - expected) <= np.spacing(np.abs(expected)))
    X = rng.standard_normal(alg.dim)
    roundtrip = inverse_curl(alg, curl(alg, X))
    assert np.all(np.abs(roundtrip - X) <= 2 * np.spacing(np.abs(X)))


def test_simulate_k3_never_assembles_the_entries(tmp_path, monkeypatch):
    calls = []

    def assembly(*args):
        calls.append(args)
        return _torus_entries(*args)

    monkeypatch.setattr(instances, "_torus_entries", assembly)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "instance": {"name": "torus", "K": 3, "max_dim": 684},
        "initial_state": {"seed": 7, "norm": 1.0},
        "probe": {"seed": 8, "norm": 1.0},
        "integrator": {"method": "rk4", "dt": 1e-3, "t_end": 0.005},
    }))
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["simulate", "--config", str(cfg), "--output",
                     str(out)]) == 0
        outputs.append(((out / "trace.csv").read_bytes(),
                        (out / "state.csv").read_bytes()))
    assert calls == []
    assert outputs[0] == outputs[1]
    # the entries are assembled when first read, and only then
    alg, _ = build_torus_algebra(3, max_dim=684)
    assert alg.triple.nnz == 106264
    assert alg.triple.values.shape == (106264,)
    assert len(calls) == 1


def _loop_contraction(op, X, Y):
    """The spectral contraction with its cross product as a loop over the
    three components, one ufunc call per product and difference: the
    reference for the full-array cross product of the kernel.  The fields
    are laid out [component, z, y, x], the cube [component, kz, ky, re/im,
    kx] (the planar layout)."""
    n, side, half = op._shape
    fields = (2,) + np.shape(X)[:-1]
    lead = fields[1:]
    Z = np.stack((X, Y)).take(op._gather, axis=-1)
    Z = Z.reshape(fields + op._synthesis.shape)
    a, b = op._synthesis
    cube = a * Z[..., 0, :] + b * Z[..., 1, :]
    F = cube.reshape(fields + (3 * half * side, 2 * side)) @ op._x_to_grid
    F = op._y_to_grid @ F.reshape(fields + (3 * half, 2 * side, n))
    u, v = op._z_to_grid @ F.reshape(fields + (3, 2 * half, n * n))
    w = np.empty(u.shape)
    for c in range(3):
        p, q = (c + 1) % 3, (c + 2) % 3
        np.subtract(u[..., p, :, :] * v[..., q, :, :],
                    u[..., q, :, :] * v[..., p, :, :], out=w[..., c, :, :])
    W = op._z_from_grid @ w
    W = op._y_from_grid @ W.reshape(lead + (3 * half, 2 * n, n))
    W = W.reshape(lead + (3 * half * side, 2 * n)) @ op._x_from_grid
    RI = W.reshape(lead + (-1,)).take(op._read, axis=-1)
    p0, p1, p2 = op._projection
    return RI[..., 0, :] * p0 + RI[..., 1, :] * p1 + RI[..., 2, :] * p2


@pytest.mark.parametrize("K", [2, 3])
def test_full_array_cross_product_matches_the_component_loop(K):
    alg, basis = build_torus_algebra(K, max_dim=684)
    op = alg.triple.operator
    rng = make_rng(90 + K)
    X, Y = rng.standard_normal((2, alg.dim))
    A, B = rng.standard_normal((2, 5, alg.dim))
    cases = [(X, Y), (beltrami_state(basis), Y), (A, B)]
    for P, Q in cases:
        got = op(P, Q)
        assert got.tobytes() == _loop_contraction(op, P, Q).tobytes()
        assert np.array_equal(op(Q, P), -got)
        assert not np.any(op(P, P))
    # a block through the chunked kernel gives each row its own bits
    block = alg.triple.contract_pair(A, B)
    for r in range(len(A)):
        want = _loop_contraction(op, A[r], B[r])
        assert block[r].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the memo of the spectral operator: the grid field of its last first argument


def _fresh_operator(K):
    """A spectral operator that has never been called: its memo is empty."""
    return _SpectralContraction(TorusBasis(K))


def _counted(monkeypatch, op):
    """The rows that ``op`` synthesizes, one entry per synthesis: 2 per
    state on a miss, which synthesizes (X, Y), and 1 on a hit."""
    rows = []
    synthesize = op._synthesize

    def counted(S):
        rows.append(int(np.prod(S.shape[:-1])))
        return synthesize(S)

    monkeypatch.setattr(op, "_synthesize", counted)
    return rows


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_memo_hit_gives_the_bits_of_a_cold_call(K, lead, monkeypatch):
    op = _fresh_operator(K)
    dim = TorusBasis(K).dim
    rows = _counted(monkeypatch, op)
    rng = make_rng(110 + K)
    X, Y, W = rng.standard_normal((3,) + lead + (dim,))
    size = int(np.prod(lead))
    op(X, Y)
    assert rows == [2 * size]
    for Q in (W, Y, X, -W):
        got = op(X, Q)
        assert rows[-1] == size  # a hit: Q alone is synthesized
        assert got.tobytes() == _fresh_operator(K)(X, Q).tobytes()


def test_memo_hit_keeps_exact_antisymmetry(monkeypatch):
    op = _fresh_operator(3)
    rows = _counted(monkeypatch, op)
    rng = make_rng(113)
    X, Y = rng.standard_normal((2, op._projection.shape[1]))
    b = op(X, Y)
    zero = op(X, X)
    assert rows == [2, 1]
    assert not np.any(zero)
    assert np.array_equal(op(Y, X), -b)
    assert np.array_equal(op(Y, X), -b)
    assert rows == [2, 1, 2, 1]


def test_memo_misses_on_an_argument_changed_in_place(monkeypatch):
    op = _fresh_operator(2)
    rows = _counted(monkeypatch, op)
    rng = make_rng(114)
    X, Y = rng.standard_normal((2, op._projection.shape[1]))
    op(X, Y)
    X[7] += 1.0
    got = op(X, Y)
    assert rows == [2, 2]
    assert got.tobytes() == _fresh_operator(2)(X, Y).tobytes()


def test_memo_keys_negative_zero_apart(monkeypatch):
    op = _fresh_operator(2)
    rows = _counted(monkeypatch, op)
    rng = make_rng(115)
    X, Y = rng.standard_normal((2, op._projection.shape[1]))
    X[3] = 0.0
    negative = X.copy()
    negative[3] = -0.0
    assert np.array_equal(X, negative)
    op(X, Y)
    got = op(negative, Y)
    assert rows == [2, 2]
    assert got.tobytes() == _fresh_operator(2)(negative, Y).tobytes()


def test_memo_hit_on_a_nan_input_matches_a_cold_call(monkeypatch):
    op = _fresh_operator(2)
    rows = _counted(monkeypatch, op)
    rng = make_rng(116)
    X, Y, W = rng.standard_normal((3, op._projection.shape[1]))
    X[11] = np.nan
    with np.errstate(all="ignore"):
        op(X, Y)
        got = op(X, W)
        want = _fresh_operator(2)(X, W)
    assert rows == [2, 1]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("other", [
    lambda A: A.view(np.float32).reshape(2, -1),  # the same byte length
    lambda A: A.view(np.int64),  # the same shape and bytes
], ids=["float32", "int64"])
def test_memo_never_hits_across_dtypes(other, monkeypatch):
    op = _fresh_operator(2)
    rows = _counted(monkeypatch, op)
    rng = make_rng(117)
    X, Y = rng.standard_normal((2, op._projection.shape[1]))
    P, Q = other(X), other(Y)
    assert P.tobytes() == X.tobytes()
    with np.errstate(all="ignore"):
        op(X, Y)
        got = op(P, Q)
        want = _fresh_operator(2)(P, Q)
        again = op(X, Y)
    assert rows == [2, 2 * P[..., 0].size, 2]
    assert got.tobytes() == want.tobytes()
    assert again.tobytes() == _fresh_operator(2)(X, Y).tobytes()


@pytest.mark.parametrize("probe, expected", [(True, 12), (False, 8)])
def test_rows_synthesized_in_one_rk4_step(probe, expected, monkeypatch):
    """A probe stage contracts its velocity twice and synthesizes it once:
    (V, D V) misses and (V, D Z) hits, 3 rows a stage, where a stage
    without a probe synthesizes (V, D V), 2 rows."""
    alg, _ = build_torus_algebra(2)
    rows = _counted(monkeypatch, alg.triple.operator)
    rng = make_rng(118)
    X, Z = rng.standard_normal((2, alg.dim)) / 10.0
    if probe:
        co_evolve_probe(alg, X, Z, 1e-3)
    else:
        rk4_step(alg, X, 1e-3)
    assert sum(rows) == expected


def _record_bits(result):
    return [
        (r.t, r.state.tobytes(), r.state_lo.tobytes(), r.flag,
         *(np.array([v, v.lo]).tobytes()
           for v in (r.energy, r.helicity, r.probe_linking)))
        for r in result.records
    ]


def test_concurrent_probe_runs_on_one_algebra_are_independent():
    """The memo is mutable state in an operator that threads may share:
    probe runs started together on one algebra give their records alone."""
    alg, _ = build_torus_algebra(2)
    spec = IntegratorSpec(method="rk4", dt=1e-3, t_end=0.03)
    rng = make_rng(119)
    # more threads than the cores of a small machine
    runs = [rng.standard_normal((2, alg.dim)) / 10.0 for _ in range(4)]
    want = [_record_bits(integrate(alg, X, spec, probe=Z)) for X, Z in runs]
    assert len({w[-1] for w in want}) == len(want)
    barrier = threading.Barrier(len(runs))
    got = {}

    def run(worker):
        X, Z = runs[worker]
        barrier.wait(timeout=60)
        got[worker] = _record_bits(integrate(alg, X, spec, probe=Z))

    threads = [threading.Thread(target=run, args=(w,))
               for w in range(len(runs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [got.get(w) for w in range(len(runs))] == want
