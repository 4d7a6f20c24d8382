"""Lie-algebra constructors, the rigid-body family, random algebras."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from fluidalg import (
    AlgebraFormatError,
    AlgebraValidationError,
    GenerationError,
    LieAlgebraInput,
    TripleForm,
    build_torus_algebra,
    euler_rhs,
    from_lie_algebra,
    make_rng,
    random_algebra,
    rigid_body,
    so3,
    validate,
)
from fluidalg import instances
from fluidalg.core import _antisymmetrize
from fluidalg.instances import LEVI_CIVITA, _RANDOM_LINKING_MIN_EIG


# ---------------------------------------------------------------------------
# from_lie_algebra


def _assert_same_algebra(alg, ref):
    # bit for bit: the packed rows and entries, the two numbers validate
    # reads off the form, L, G, the tags and the validation report
    t, r = alg.triple, ref.triple
    assert type(t) is type(r)
    for a, b in ((t.dense, r.dense), (t.index, r.index),
                 (t.values, r.values), (alg.linking, ref.linking),
                 (alg.metric, ref.metric)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert (t.max_abs(), t._defect) == (r.max_abs(), r._defect)
    assert alg.meta == ref.meta and list(alg.meta) == list(ref.meta)
    assert validate(alg).to_dict() == validate(ref).to_dict()


def test_levi_civita_is_the_permutation_sign():
    for slot in itertools.product(range(3), repeat=3):
        inversions = sum(slot[a] > slot[b]
                         for a in range(3) for b in range(a + 1, 3))
        sign = 0.0 if len(set(slot)) < 3 else (-1.0) ** inversions
        assert LEVI_CIVITA[slot] == sign
    assert LEVI_CIVITA.dtype == float and not LEVI_CIVITA.flags.writeable


def test_so3_triple_is_levi_civita():
    alg = so3()
    assert np.array_equal(alg.triple.to_dense(), LEVI_CIVITA)
    _assert_same_algebra(alg, from_lie_algebra(
        LieAlgebraInput(LEVI_CIVITA, np.eye(3), np.eye(3)),
        meta={"name": "so3"}))
    assert validate(alg).passed
    M = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.1], [0.0, 0.1, 4.0]])
    _assert_same_algebra(so3(M), from_lie_algebra(
        LieAlgebraInput(LEVI_CIVITA, np.eye(3), M), meta={"name": "so3"}))


def test_metric_choice_gives_rigid_body():
    custom = from_lie_algebra(
        LieAlgebraInput(LEVI_CIVITA, np.eye(3), np.diag([1.0, 2.0, 3.0])),
        meta={"name": "rigid-body", "moments": (1.0, 2.0, 3.0)},
    )
    _assert_same_algebra(rigid_body(1.0, 2.0, 3.0), custom)


def test_so3_and_the_rigid_body_build_from_the_determinant_entry(
        monkeypatch):
    # the determinant's one canonical entry, not the Lie-algebra checks
    # and einsums of from_lie_algebra, whatever they may cost
    def spy(*args, **kwargs):
        raise AssertionError("from_lie_algebra called")

    monkeypatch.setattr(instances, "from_lie_algebra", spy)
    for alg in (so3(), so3(np.diag([1.0, 2.0, 3.0])),
                rigid_body(1.0, 2.0, 3.0)):
        assert alg.triple.index.tolist() == [[0, 1, 2]]
        assert alg.triple.values.tolist() == [1.0]


def test_abelian_algebra_has_constant_dynamics():
    alg = from_lie_algebra(
        LieAlgebraInput(np.zeros((4, 4, 4)), np.eye(4), np.eye(4))
    )
    assert alg.triple.nnz == 0
    rng = make_rng(50)
    X = rng.standard_normal(4)
    assert np.allclose(euler_rhs(alg, X), 0.0)


def test_non_invariant_pairing_is_rejected():
    # break invariance with a generic (symmetric, nondegenerate) pairing
    P = np.diag([1.0, 2.0, 5.0])
    with pytest.raises(AlgebraValidationError, match="invariant"):
        from_lie_algebra(LieAlgebraInput(LEVI_CIVITA, P, np.eye(3)))


def test_non_antisymmetric_structure_constants_rejected():
    c = np.zeros((3, 3, 3))
    c[0, 0, 1] = 1.0
    with pytest.raises(AlgebraValidationError, match="antisymmetric"):
        from_lie_algebra(LieAlgebraInput(c, np.eye(3), np.eye(3)))


def test_structure_constants_of_the_wrong_shape_are_rejected():
    c = np.zeros((3, 3, 2))
    with pytest.raises(AlgebraFormatError, match=re.escape(
            "structure constants must be (3,3,3), got (3, 3, 2)")):
        from_lie_algebra(LieAlgebraInput(c, np.eye(3), np.eye(3)))


@pytest.mark.parametrize("c, P, G, message", [
    (LEVI_CIVITA, np.eye(2), np.eye(3), "pairing must be (3,3), got (2, 2)"),
    (LEVI_CIVITA, np.eye(3), np.eye(4), "metric must be (3,3), got (4, 4)"),
    (0.0, np.eye(3), np.eye(3), "structure constants must be (n,n,n), got ()"),
], ids=["pairing", "metric", "0-d-constants"])
def test_lie_input_of_the_wrong_shape_is_rejected(c, P, G, message):
    with pytest.raises(AlgebraFormatError, match=re.escape(message)):
        from_lie_algebra(LieAlgebraInput(c, P, G))


def test_asymmetric_pairing_is_rejected():
    P = np.eye(3)
    P[0, 1] = 0.5
    with pytest.raises(AlgebraValidationError,
                       match="^pairing not symmetric: defect 5.000e-01$"):
        from_lie_algebra(LieAlgebraInput(LEVI_CIVITA, P, np.eye(3)))


def test_so3_direct_sum_is_a_lie_instance():
    # block-diagonal so(3) + so(3) with independently scaled pairings
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3] = LEVI_CIVITA
    c[3:, 3:, 3:] = LEVI_CIVITA
    P = np.diag([1.3] * 3 + [-0.7] * 3)
    rng = make_rng(51)
    A = rng.standard_normal((6, 6))
    G = A.T @ A + 6 * np.eye(6)
    alg = from_lie_algebra(LieAlgebraInput(c, P, G))
    assert validate(alg).passed
    assert alg.meta["kind"] == "lie"


# ---------------------------------------------------------------------------
# rigid body


def test_rigid_body_rejects_nonpositive_moments():
    with pytest.raises(ValueError):
        rigid_body(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        rigid_body(1.0, -2.0, 1.0)


def test_isotropic_body_is_all_equilibria():
    alg = rigid_body(1.0, 1.0, 1.0)
    rng = make_rng(52)
    for _ in range(10):
        X = rng.standard_normal(3)
        assert np.allclose(euler_rhs(alg, X), 0.0, atol=1e-15)


def test_axes_are_equilibria(rigid123):
    for axis in np.eye(3):
        assert np.allclose(euler_rhs(rigid123, axis), 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# random algebras


def test_random_algebra_is_deterministic():
    a = random_algebra(123, 5)
    b = random_algebra(123, 5)
    assert np.array_equal(a.triple.to_dense(), b.triple.to_dense())
    assert np.array_equal(a.linking, b.linking)
    assert np.array_equal(a.metric, b.metric)


def test_random_algebra_validates():
    assert validate(random_algebra(1, 5)).passed


def test_small_n_has_zero_triple():
    assert random_algebra(0, 1).triple.nnz == 0
    assert random_algebra(0, 2).triple.nnz == 0


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_a_form_without_entries_has_no_size_and_no_defect(seed, n):
    # the draw's antisymmetrization is rounding residue alone at n < 3,
    # and the form reads none of it
    alg = random_algebra(seed, n)
    assert alg.triple.max_abs() == 0.0
    check = validate(alg).checks[0]
    assert check.name == "triple-antisymmetry"
    assert check.defect == 0.0


@pytest.mark.parametrize("n", [3, 32, 65, 100])
def test_random_entries_are_those_of_the_antisymmetrized_draw(n):
    # the triple form's draw is the first on the stream of SeedSequence(n)
    draw = make_rng(np.random.SeedSequence(n)).standard_normal((n, n, n))
    form = random_algebra(n, n).triple
    whole = TripleForm.from_dense(_antisymmetrize(draw))
    assert form.kind == whole.kind == "dense"
    assert form.index.tobytes() == whole.index.tobytes()
    assert form.values.tobytes() == whole.values.tobytes()
    assert form.dense.tobytes() == whole.dense.tobytes()


def test_random_algebra_holds_no_antisymmetrized_cube():
    # the peak, 2.16 n^3 floats, is the draw beside the (i, j, k) index of
    # its C(n, 3) canonical slots; the antisymmetrization of the whole draw
    # beside it reads 2.53
    n = 100
    random_algebra(0, 3)  # one-time allocations of the first call
    tracemalloc.start()
    try:
        random_algebra(0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.35 * 8 * n ** 3


def test_random_linking_eigenvalue_floor():
    for seed in range(10):
        alg = random_algebra(seed, 6)
        eigs = np.linalg.eigvalsh(alg.linking)
        assert np.min(np.abs(eigs)) >= _RANDOM_LINKING_MIN_EIG


def test_generation_error_when_budget_exhausted(monkeypatch):
    import fluidalg.instances as inst

    monkeypatch.setattr(inst, "_RANDOM_LINKING_MIN_EIG", 1e9)
    with pytest.raises(GenerationError):
        random_algebra(0, 4)


def test_pcg64_stream_is_frozen():
    # test vectors for the documented generator (PCG64, SeedSequence(12345));
    # a platform or library change that shifts the stream must be caught
    rng = make_rng(12345)
    expected = [
        -1.4238250364546312,
        1.2637284581291104,
        -0.8706617379590857,
        -0.2591732349343976,
    ]
    assert np.allclose(rng.standard_normal(4), expected, rtol=0, atol=0)


def test_random_algebra_fixture_values_are_frozen():
    alg = random_algebra(1, 5)
    assert alg.triple.to_dense()[0, 1, 2] == pytest.approx(
        0.2288693485039431, rel=0, abs=0
    )
    assert alg.linking[0, 0] == pytest.approx(
        -0.6403185283986665, rel=0, abs=0
    )
    assert alg.metric[0, 0] == pytest.approx(8.20804431607524, rel=0, abs=0)


def test_random_algebra_rejects_bad_n():
    with pytest.raises(ValueError):
        random_algebra(0, 0)


@pytest.mark.parametrize("build, args", [
    (build_torus_algebra, (True,)),
    (build_torus_algebra, (1.5,)),
    (build_torus_algebra, (1, 52.5)),
    (build_torus_algebra, (1, True)),
    (random_algebra, (True, 3)),
    (random_algebra, (0, True)),
    (random_algebra, (0.5, 3)),
    (random_algebra, (0, 3.0)),
    (random_algebra, (-1, 3)),
    (rigid_body, (True, 2, 3)),
    (rigid_body, (1, 2, "3")),
    (rigid_body, (1, float("nan"), 3)),
])
def test_constructors_refuse_bools_and_non_integers(build, args):
    with pytest.raises(ValueError):
        build(*args)


def test_constructors_accept_numpy_scalars():
    torus = build_torus_algebra(np.int64(1), np.int64(52))[0]
    assert torus.dim == build_torus_algebra(1)[0].dim
    assert np.array_equal(random_algebra(np.int64(4), np.int64(3)).metric,
                          random_algebra(4, 3).metric)
    body = rigid_body(np.float64(1.0), np.int64(2), 3)
    assert np.array_equal(body.metric, rigid_body(1.0, 2.0, 3.0).metric)
