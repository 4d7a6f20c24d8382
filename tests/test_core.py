"""Core forms, validation, curl pair, and the algebra file format."""

import fractions
import itertools
import json
import math
import re
import reprlib
import warnings

import numpy as np
import pytest
import scipy.linalg

from fluidalg import (
    AlgebraFormatError,
    ConditioningWarning,
    FluidAlgebra,
    LieAlgebraInput,
    TripleForm,
    build_torus_algebra,
    curl,
    energy,
    from_lie_algebra,
    g_norm,
    helicity,
    inverse_curl,
    linking,
    load_algebra,
    make_rng,
    metric_inner,
    random_algebra,
    rigid_body,
    save_algebra,
    triple,
    validate,
)
from fluidalg import core
from fluidalg.cli import RANDOM_MAX_N
from fluidalg.core import _antisymmetrize, _canonical_entries
from fluidalg.diagnostics import run_identity_suite


def trivial_algebra(n=3):
    return FluidAlgebra(n, np.zeros((n, n, n)), np.eye(n), np.eye(n))


# ---------------------------------------------------------------------------
# validation


def test_trivial_algebra_passes_validation():
    report = validate(trivial_algebra())
    assert report.passed


def test_repeated_index_entry_fails_antisymmetry():
    T = np.zeros((3, 3, 3))
    T[0, 0, 1] = 1.0
    alg = FluidAlgebra(3, T, np.eye(3), np.eye(3))
    report = validate(alg)
    check = {c.name: c for c in report.checks}["triple-antisymmetry"]
    assert not check.passed
    assert check.defect == pytest.approx(1.0)


def test_random_algebra_passes_validation_and_entrywise_scan():
    alg = random_algebra(1, 5)
    assert validate(alg).passed
    # independent entrywise oracle: all six permutations agree up to sign
    T = alg.triple.to_dense()
    worst = 0.0
    for i in range(5):
        for j in range(5):
            for k in range(5):
                v = T[i, j, k]
                worst = max(
                    worst,
                    abs(T[j, k, i] - v),
                    abs(T[k, i, j] - v),
                    abs(T[j, i, k] + v),
                    abs(T[i, k, j] + v),
                    abs(T[k, j, i] + v),
                )
    assert worst <= 1e-13 * max(np.max(np.abs(T)), 1.0)


def test_degenerate_linking_fails_validation():
    L = np.diag([1.0, 1.0, 1e-12])
    alg = FluidAlgebra(3, np.zeros((3, 3, 3)), L, np.eye(3))
    report = validate(alg)
    assert not report.passed
    with pytest.raises(Exception):
        report.require()


def test_indefinite_linking_is_legal():
    # the linking form only needs symmetric nondegenerate, not definite
    L = np.diag([1.0, -1.0, 2.0])
    alg = FluidAlgebra(3, np.zeros((3, 3, 3)), L, np.eye(3))
    assert validate(alg).passed


def test_non_positive_metric_fails():
    G = np.diag([1.0, 1.0, -1.0])
    alg = FluidAlgebra(3, np.zeros((3, 3, 3)), np.eye(3), G)
    assert not validate(alg).passed


@pytest.mark.parametrize("L, G, message", [
    (np.zeros((3, 3)), np.eye(3),
     "linking-nondegenerate (value 0.000e+00 <= 0.000e+00)"),
    (np.diag([1.0, 1.0, 1e-12]), np.eye(3),
     "linking-nondegenerate (value 1.000e-12 <= 1.000e-08)"),
    (np.eye(3), np.diag([1.0, 1e11, 1.0]),
     "metric-positive-definite (value 1.000e+00 <= 1.000e+01)"),
])
def test_failed_lower_bound_states_a_true_inequality(L, G, message):
    # nondegeneracy and definiteness fail at or below their threshold
    from fluidalg import AlgebraValidationError

    alg = FluidAlgebra(3, np.zeros((3, 3, 3)), L, G)
    with pytest.raises(AlgebraValidationError) as info:
        validate(alg).require()
    assert str(info.value) == f"algebra validation failed: {message}"


def test_solves_refuse_a_singular_linking_or_indefinite_metric():
    from fluidalg import AlgebraValidationError

    Z = np.zeros((3, 3, 3))
    singular = FluidAlgebra(3, Z, np.diag([1.0, 1.0, 0.0]), np.eye(3))
    with pytest.warns(ConditioningWarning), \
            pytest.raises(AlgebraValidationError, match="singular"):
        inverse_curl(singular, np.ones(3))
    indefinite = FluidAlgebra(3, Z, np.eye(3), np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(AlgebraValidationError, match="positive definite"):
        curl(indefinite, np.ones(3))


@pytest.mark.parametrize("dim, accepted", [
    (3, True), (np.int64(3), True),
    (3.7, False), (3.0, False), ("3", False), (True, False), (None, False),
])
def test_dim_is_an_integer_never_coerced(dim, accepted):
    args = (np.zeros((3, 3, 3)), np.eye(3), np.eye(3))
    if accepted:
        assert FluidAlgebra(dim, *args).dim == 3
    else:
        with pytest.raises(AlgebraFormatError, match="dim"):
            FluidAlgebra(dim, *args)


# every constructor of TripleForm, and an algebra given such a form
FORM_BUILDERS = {
    "sparse": lambda dim: TripleForm(dim, [(0, 1, 2)], [1.0]),
    "from_entries": lambda dim: TripleForm.from_entries(dim,
                                                        [[0, 1, 2, 1.0]]),
    "spectral": lambda dim: TripleForm.spectral(
        dim, lambda X, Y: np.zeros(X.shape), lambda: None),
    "algebra": lambda dim: FluidAlgebra(
        3, TripleForm(dim, [(0, 1, 2)], [1.0]), None, None).triple,
}


@pytest.mark.parametrize("dim", [2.7, 3.9, "3", True, -3, 0, None])
@pytest.mark.parametrize("build", list(FORM_BUILDERS))
def test_triple_form_dim_is_an_integer_never_coerced(build, dim):
    with pytest.raises(AlgebraFormatError, match="dim"):
        FORM_BUILDERS[build](dim)


@pytest.mark.parametrize("build", list(FORM_BUILDERS))
def test_triple_form_takes_an_integer_dim(build):
    form = FORM_BUILDERS[build](np.int64(3))
    assert form.dim == 3 and type(form.dim) is int


def test_from_dense_refuses_an_empty_array():
    with pytest.raises(AlgebraFormatError, match="dim"):
        TripleForm.from_dense(np.zeros((0, 0, 0)))


def test_shape_mismatch_is_structural_error():
    with pytest.raises(AlgebraFormatError):
        FluidAlgebra(3, np.zeros((3, 3, 3)), np.eye(4), np.eye(3))
    with pytest.raises(AlgebraFormatError):
        FluidAlgebra(3, np.zeros((2, 2, 2)), np.eye(3), np.eye(3))


def test_non_finite_entries_are_data_errors():
    from fluidalg import AlgebraDataError

    G = np.eye(3)
    G[0, 0] = np.nan
    with pytest.raises(AlgebraDataError):
        FluidAlgebra(3, np.zeros((3, 3, 3)), np.eye(3), G)


def test_triple_form_refuses_unmatched_or_non_finite_entries():
    from fluidalg import AlgebraDataError

    with pytest.raises(AlgebraFormatError,
                       match="^sparse index/value length mismatch$"):
        TripleForm(4, [[0, 1, 2]], [1.0, 2.0])
    with pytest.raises(AlgebraDataError,
                       match="^non-finite value in sparse entries$"):
        TripleForm(4, [[0, 1, 2]], [np.nan])


def test_from_dense_refuses_a_non_cubic_or_non_finite_array():
    from fluidalg import AlgebraDataError

    with pytest.raises(AlgebraFormatError, match=re.escape(
            "triple tensor must be cubic rank 3, got shape (3, 3, 2)")):
        TripleForm.from_dense(np.zeros((3, 3, 2)))
    array = np.zeros((3, 3, 3))
    array[0, 1, 2] = np.nan
    with pytest.raises(AlgebraDataError,
                       match="^non-finite value in triple tensor$"):
        TripleForm.from_dense(array)


def test_linking_structure_of_one_array_is_a_format_error():
    with pytest.raises(AlgebraFormatError, match=re.escape(
            "a linking structure is a tuple (cols, w)")):
        FluidAlgebra(3, [], (np.arange(3),), None)


def test_small_dimensions_are_permitted():
    for n in (1, 2):
        alg = random_algebra(0, n)
        assert validate(alg).passed
        assert alg.triple.nnz == 0  # no alternating 3-form below dim 3


def test_arrays_are_frozen(rigid123):
    with pytest.raises(ValueError):
        rigid123.linking[0, 0] = 2.0
    with pytest.raises(ValueError):
        rigid123.metric[0, 0] = 2.0


# ---------------------------------------------------------------------------
# the triple form


def test_rigid_body_triple_is_determinant():
    alg = rigid_body(1.0, 1.0, 1.0)
    e = np.eye(3)
    assert triple(alg, e[0], e[1], e[2]) == pytest.approx(1.0)
    assert triple(alg, e[1], e[0], e[2]) == pytest.approx(-1.0)


def test_triple_vanishes_exactly_on_repeated_arguments(random_n6):
    rng = make_rng(11)
    for _ in range(10):
        X = rng.standard_normal(6)
        Z = rng.standard_normal(6)
        assert triple(random_n6, X, X, Z) == 0.0
        assert triple(random_n6, X, Z, X) == 0.0
        assert triple(random_n6, Z, X, X) == 0.0


def test_dense_arithmetic_alternating_within_roundoff(random_n6):
    T = random_n6.triple.to_dense()
    rng = make_rng(12)
    tmax = np.max(np.abs(T))
    for _ in range(20):
        X = rng.standard_normal(6)
        Z = rng.standard_normal(6)
        val = np.einsum("ijk,i,j,k->", T, X, X, Z)
        scale = tmax * g_norm(random_n6, X) ** 2 * g_norm(random_n6, Z)
        assert abs(val) <= 1e-13 * scale


def test_triple_swap_last_two_is_exact_negation(random_n6):
    rng = make_rng(13)
    for _ in range(10):
        X, Y, Z = (rng.standard_normal(6) for _ in range(3))
        assert triple(random_n6, X, Y, Z) == -triple(random_n6, X, Z, Y)


def test_triple_matches_permutation_sum_oracle():
    # six-term signed permutation expansion over the canonical entries
    alg = random_algebra(7, 4)
    rng = make_rng(14)
    tmax = alg.triple.max_abs()
    for _ in range(20):
        X, Y, Z = (rng.standard_normal(4) for _ in range(3))
        expected = 0.0
        for (i, j, k), v in zip(alg.triple.index, alg.triple.values):
            expected += v * (
                X[i] * Y[j] * Z[k]
                + X[j] * Y[k] * Z[i]
                + X[k] * Y[i] * Z[j]
                - X[j] * Y[i] * Z[k]
                - X[i] * Y[k] * Z[j]
                - X[k] * Y[j] * Z[i]
            )
        scale = (
            tmax
            * g_norm(alg, X)
            * g_norm(alg, Y)
            * g_norm(alg, Z)
        )
        assert abs(triple(alg, X, Y, Z) - expected) <= 1e-13 * scale


def test_dense_and_sparse_paths_agree():
    alg = random_algebra(9, 5)
    dense_form = alg.triple
    sparse_form = TripleForm(5, dense_form.index, dense_form.values)
    assert sparse_form.dense is None
    rng = make_rng(15)
    tmax = dense_form.max_abs()
    for _ in range(20):
        X, Y, Z = (rng.standard_normal(5) for _ in range(3))
        dense_val = np.einsum(
            "ijk,i,j,k->", dense_form.to_dense(), X, Y, Z, optimize=False
        )
        scale = tmax * g_norm(alg, X) * g_norm(alg, Y) * g_norm(alg, Z)
        assert abs(sparse_form(X, Y, Z) - dense_val) <= 1e-13 * scale
        pair_dense = dense_form.contract_pair(X, Y)
        pair_sparse = sparse_form.contract_pair(X, Y)
        assert np.max(np.abs(pair_dense - pair_sparse)) <= 1e-13 * scale


def _dense_algebra(n):
    if n == "torus-k1":
        return build_torus_algebra(1)[0]
    return random_algebra(n, n)


@pytest.mark.parametrize("n", [3, 6, 32, 65, 128, "torus-k1"])
def test_dense_pair_kernel_is_exactly_antisymmetric(n):
    alg = _dense_algebra(n)
    form = alg.triple
    assert form.kind == "dense"
    rng = make_rng(16)
    tmax = form.max_abs()
    T = form.to_dense()
    for _ in range(10):
        X, Y = rng.standard_normal((2, alg.dim))
        b = form.contract_pair(X, Y)
        assert np.array_equal(form.contract_pair(Y, X), -b)
        assert np.array_equal(form.contract_pair(X, X), np.zeros(alg.dim))
        expected = np.einsum("ijm,i,j->m", T, X, Y, optimize=False)
        scale = tmax * np.linalg.norm(X) * np.linalg.norm(Y)
        assert np.max(np.abs(b - expected)) <= 1e-13 * scale


def _json_algebra(tmp_path):
    path = tmp_path / "n8.json"
    save_algebra(random_algebra(21, 8), path)
    return load_algebra(path)


@pytest.mark.parametrize("build", [
    lambda tmp_path: rigid_body(1.0, 2.0, 3.0),
    lambda tmp_path: build_torus_algebra(1)[0],
    _json_algebra,
], ids=["rigid", "torus-k1", "json-n8"])
def test_packed_rows_of_a_dense_array_are_those_of_the_entries(tmp_path,
                                                               build):
    form = build(tmp_path).triple
    rows = [list(entry) for entry in form.entry_list()]
    packed = TripleForm.from_entries(form.dim, rows).dense
    assert packed.tobytes() == form.dense.tobytes()
    again = TripleForm.from_dense(form.to_dense())
    assert again.kind == "dense"
    assert again.dense.tobytes() == packed.tobytes()
    assert again.max_abs() == form.max_abs()


# (seed, n): seeds 3, 9, 21 and 22 hold their largest |entry| at i > j only,
# where the rounding of the antisymmetrization leaves it apart from the
# canonical slots
MAX_ABS_CASES = [(0, 6), (3, 6), (9, 6), (0, 32), (21, 32), (22, 32)]


@pytest.mark.parametrize("seed, n", MAX_ABS_CASES)
def test_max_abs_is_that_of_the_whole_array(seed, n):
    array = _antisymmetrize(
        make_rng(np.random.SeedSequence(seed)).standard_normal((n, n, n)))
    form = TripleForm.from_dense(array)
    assert form.max_abs() == np.max(np.abs(array))


@pytest.mark.parametrize("seed, n", MAX_ABS_CASES)
def test_a_random_form_has_the_max_abs_of_its_entries(seed, n):
    # built from its entries, as its saved file is, so its size is theirs
    form = random_algebra(seed, n).triple
    assert form.max_abs() == np.max(np.abs(form.to_dense()))


@pytest.mark.parametrize("n", [32, 65, 128])
def test_a_dense_form_holds_its_packed_rows_alone(n):
    form = random_algebra(n, n).triple
    X, Y = make_rng(n).standard_normal((2, n))
    for _ in range(2):  # after construction, and after a contraction
        held = [a for a in vars(form).values()
                if isinstance(a, np.ndarray)]
        held += [a for t in vars(form).values() if isinstance(t, tuple)
                 for a in t if isinstance(a, np.ndarray)]
        assert form.dense.size == n * n * (n - 1) // 2
        assert max(a.size for a in held) == form.dense.size
        form.contract_pair(X, Y)


@pytest.mark.parametrize("n", [6, 32, 65, 128])
def test_packed_rows_are_64_byte_aligned_with_the_bits_of_the_array(n):
    # the rows are those of the array's canonical slots i < j < k alone,
    # extended by antisymmetry: the other slots of an antisymmetrized
    # array differ from them in their last bits, and are not read
    array = _antisymmetrize(make_rng(n).standard_normal((n, n, n)))
    pairs = np.triu_indices(n, 1)
    index = np.array(list(itertools.combinations(range(n), 3)))
    canonical = TripleForm(n, index, array[tuple(index.T)]).to_dense()
    assert not np.array_equal(canonical[pairs], array[pairs])
    form = TripleForm.from_dense(array)
    forms = [form, TripleForm.from_dense(np.asfortranarray(array)),
             TripleForm.from_entries(n, [list(e) for e in form.entry_list()])]
    for form in forms:
        assert form.kind == "dense"
        assert form.dense.ctypes.data % 64 == 0
        assert not form.dense.flags.writeable
        assert form.dense.tobytes() == canonical[pairs].tobytes()


@pytest.mark.parametrize("build", [
    lambda: rigid_body(1.0, 2.0, 3.0),
    lambda: random_algebra(7, 32),
    lambda: build_torus_algebra(1)[0],
], ids=["rigid", "random-n32", "torus-k1"])
def test_dense_entries_come_canonical_without_a_sort(build, monkeypatch):
    form = build().triple
    assert form.kind == "dense"

    def refuse(*args):
        raise AssertionError("the entries were checked and sorted again")

    monkeypatch.setattr(core, "_canonical_entries", refuse)
    index, values = form.index, form.values
    monkeypatch.undo()
    assert not index.flags.writeable and not values.flags.writeable
    again = _canonical_entries(form.dim, index, values)
    assert again[0].dtype == index.dtype and again[1].dtype == values.dtype
    assert again[0].tobytes() == index.tobytes()
    assert again[1].tobytes() == values.tobytes()


# ---------------------------------------------------------------------------
# one set of entries and one rule for the kind


def _so(m):
    """so(m) by from_lie_algebra, in the basis E_ab = e_a e_b^T - e_b e_a^T
    (a < b), in which the pairing -tr(XY)/2 is the identity."""
    a, b = np.triu_indices(m, 1)
    E = np.zeros((a.size, m, m))
    E[np.arange(a.size), a, b], E[np.arange(a.size), b, a] = 1.0, -1.0
    # [E_r, E_s] = sum_t c[r, s, t] E_t, read off at the slots (a_t, b_t)
    c = (E[:, None] @ E[None] - E[None] @ E[:, None])[..., a, b]
    return from_lie_algebra(LieAlgebraInput(c, np.eye(a.size),
                                            np.eye(a.size)))


def test_a_zero_entry_is_no_entry_in_any_kind():
    rows = [[0, 1, 2, 0.0], [0, 1, 3, 1.5], [1, 2, 3, -0.0]]
    index, values = [r[:3] for r in rows], [r[3] for r in rows]
    forms = [TripleForm.from_entries(4, rows), TripleForm(4, index, values)]
    assert [form.kind for form in forms] == ["dense", "sparse"]
    for form in forms:
        assert form.nnz == 1
        assert form.entry_list() == [(0, 1, 3, 1.5)]
    assert forms[0].to_dense().tobytes() == forms[1].to_dense().tobytes()


@pytest.mark.parametrize("n", [32, 100])
def test_a_reloaded_random_algebra_is_dense_with_the_bits_in_memory(tmp_path,
                                                                   n):
    alg = random_algebra(0, n)
    save_algebra(alg, tmp_path / "alg.json")
    again = load_algebra(tmp_path / "alg.json")
    assert alg.triple.kind == again.triple.kind == "dense"
    assert again.triple.dense.tobytes() == alg.triple.dense.tobytes()
    X, Y = make_rng(n).standard_normal((2, 7, n))
    for form in (alg.triple, again.triple):
        assert np.array_equal(form.contract_pair(X[0], Y[0]),
                              alg.triple.contract_pair(X[0], Y[0]))
        assert np.array_equal(form.contract_pair(X, Y),
                              alg.triple.contract_pair(X, Y))


def test_a_reloaded_random_algebra_reports_the_defects_of_the_instance(
        tmp_path):
    # the suite scales its defects by max_abs(), which is that of the
    # entries the file holds
    alg = random_algebra(0, 32)
    save_algebra(alg, tmp_path / "alg.json")
    again = load_algebra(tmp_path / "alg.json")
    assert again.triple.max_abs() == alg.triple.max_abs()
    reports = [run_identity_suite(a, num_states=20, num_triples=5).to_dict()
               for a in (alg, again)]
    assert reports[0]["identities"] == reports[1]["identities"]


def test_from_dense_contracts_the_form_that_to_dense_gives():
    # A[0, 1, 1] is no canonical slot: the form is zero, and the array's
    # defect and largest entry are still measured and reported
    A = np.zeros((3, 3, 3))
    A[0, 1, 1] = 1.0
    alg = FluidAlgebra(3, A, np.eye(3), np.eye(3))
    form = alg.triple
    e = np.eye(3)
    assert not form.to_dense().any()
    assert np.array_equal(form.contract_pair(e[0], e[1]), np.zeros(3))
    assert form.nnz == 0 and form.max_abs() == 1.0
    check = validate(alg).checks[0]
    assert check.name == "triple-antisymmetry" and not check.passed
    assert check.defect == form._defect == 1.0


@pytest.mark.parametrize("build, kind", [
    (lambda: random_algebra(7, 32), "dense"),
    (lambda: _so(12), "sparse"),
], ids=["random-n32", "so12"])
def test_from_dense_checks_and_sorts_no_slot_again(build, kind, monkeypatch):
    # the slots come canonical and sorted from the array's C order
    def refuse(*args):
        raise AssertionError("the entries were checked and sorted again")

    monkeypatch.setattr(core, "_canonical_entries", refuse)
    form = build().triple
    assert form.kind == kind
    monkeypatch.undo()
    again = _canonical_entries(form.dim, form.index, form.values)
    assert again[0].tobytes() == form.index.tobytes()
    assert again[1].tobytes() == form.values.tobytes()


def _kinds(n, nnz, monkeypatch):
    # the kind that the rule picks for nnz entries at n, with no form built
    monkeypatch.setattr(core, "_PackedRows", lambda *args: "dense")
    monkeypatch.setattr(core, "_Entries", lambda *args, **kw: "sparse")
    return TripleForm._canonical(n, None, np.broadcast_to(1.0, (nnz,)))


def test_a_random_algebra_is_dense_up_to_the_cli_cap(monkeypatch):
    assert {_kinds(n, math.comb(n, 3), monkeypatch)
            for n in range(1, RANDOM_MAX_N + 1)} == {"dense"}


@pytest.mark.parametrize("n", [3, 65, 100])
def test_a_random_algebra_is_dense_by_either_constructor(n):
    form = random_algebra(n, n).triple
    again = TripleForm.from_entries(n, [list(e) for e in form.entry_list()])
    assert form.kind == again.kind == "dense"
    assert again.dense.tobytes() == form.dense.tobytes()


def test_the_torus_k1_is_dense_and_its_k2_entries_sparse():
    k1 = build_torus_algebra(1)[0].triple
    assert k1.kind == "dense"
    assert 146 < 52 * 52 * 51 / 2 / k1.nnz < 147
    k2 = build_torus_algebra(2)[0].triple
    entries = TripleForm.from_entries(248, [list(e) for e in k2.entry_list()])
    assert entries.kind == "sparse"
    assert 585 < 248 * 248 * 247 / 2 / entries.nnz < 586


@pytest.mark.parametrize("m, kind", [(5, "dense"), (8, "dense"),
                                     (12, "sparse"), (14, "sparse")])
def test_so_n_is_sparse_past_the_crossover(m, kind):
    alg = _so(m)
    form = alg.triple
    assert form.kind == kind
    assert form.nnz == math.comb(m, 3)
    assert validate(alg).passed
    X, Y = make_rng(m).standard_normal((2, alg.dim))
    expected = np.einsum("ijk,i,j->k", form.to_dense(), X, Y)
    assert np.max(np.abs(form.contract_pair(X, Y) - expected)) <= 1e-13 * (
        np.linalg.norm(X) * np.linalg.norm(Y))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("build", [
    lambda n: TripleForm.from_dense(np.zeros((n, n, n))),
    lambda n: TripleForm.from_entries(n, []),
    lambda n: TripleForm(n, np.zeros((0, 3), int), []),
], ids=["from_dense", "from_entries", "sparse"])
def test_a_form_with_no_entry_builds_and_contracts_to_zeros(build, n):
    form = build(n)
    assert form.nnz == 0 and form.max_abs() == 0.0
    X, Y = make_rng(n).standard_normal((2, 3, n))
    assert np.array_equal(form.contract_pair(X[0], Y[0]), np.zeros(n))
    assert np.array_equal(form.contract_pair(X, Y), np.zeros((3, n)))


@pytest.mark.parametrize("n", [6, 32, "torus-k1"])
def test_dense_pair_kernel_ignores_alignment_and_strides(n):
    alg = _dense_algebra(n)
    m = alg.dim
    rng = make_rng(17)
    X, Y = rng.standard_normal((2, m))
    b = alg.triple.contract_pair(X, Y)
    # a view at offset 1 of a larger buffer: misaligned by 8 bytes
    buf = np.empty(2 * m + 1)
    Xm, Ym = buf[1:m + 1], buf[m + 1:]
    Xm[:], Ym[:] = X, Y
    assert Xm.ctypes.data % 16 == 8
    assert np.array_equal(alg.triple.contract_pair(Xm, Ym), b)
    # strided views
    wide = np.zeros((2, 3 * m))
    wide[0, ::3], wide[1, 1::3] = X, Y
    assert np.array_equal(alg.triple.contract_pair(wide[0, ::3],
                                                   wide[1, 1::3]), b)


@pytest.mark.parametrize("kind", ["dense", "sparse", "spectral"])
def test_triple_swap_is_exact_negation_for_every_kind(kind):
    if kind == "spectral":
        alg, _ = build_torus_algebra(2)
    else:
        alg = random_algebra(18, 7)
        if kind == "sparse":
            form = TripleForm(7, alg.triple.index, alg.triple.values)
            alg = FluidAlgebra(7, form, alg.linking, alg.metric)
    assert alg.triple.kind == kind
    rng = make_rng(19)
    for _ in range(10):
        X, Y, Z = rng.standard_normal((3, alg.dim))
        value = triple(alg, X, Y, Z)
        assert value != 0.0
        assert triple(alg, X, Z, Y) == -value
        assert value == float(X @ alg.triple.contract_pair(Y, Z))
    if kind == "spectral":
        # evaluating the form never materializes its entries
        assert alg.triple._entry_source is not None


def test_triple_form_rejects_bad_entries():
    with pytest.raises(AlgebraFormatError):
        TripleForm.from_entries(3, [[0, 0, 1, 1.0]])
    with pytest.raises(AlgebraFormatError):
        TripleForm.from_entries(3, [[1, 0, 2, 1.0]])
    with pytest.raises(AlgebraFormatError):
        TripleForm.from_entries(3, [[0, 1, 3, 1.0]])
    with pytest.raises(AlgebraFormatError):
        TripleForm.from_entries(3, [[0, 1, 2, 1.0], [0, 1, 2, 2.0]])
    with pytest.raises(AlgebraFormatError):
        TripleForm.from_entries(3, [[0, 1, 2 ** 70, 1.0]])
    with pytest.raises(AlgebraFormatError):
        TripleForm.from_entries(3, {"0": [0, 1, 2, 1.0]})


@pytest.mark.parametrize("row", [
    [True, 1, 2, 1.0],          # a bool index
    [0, 1.0, 2, 1.0],           # a float index
    [0, 1, np.float64(2), 1.0],
    [0, 1, 2, "1.0"],           # a string value
    [0, 1, 2, True],
    [0, 1, 2, None],
    [0, 1, 2],                  # three items
    (0, 1, 2, 1.0, 1.0),
    "0123",
])
def test_from_entries_names_the_first_bad_row(row):
    rows = [[0, 1, 3, 1.0], row, [1, 2, 3, "x"]]
    with pytest.raises(AlgebraFormatError) as info:
        TripleForm.from_entries(4, rows)
    assert str(info.value) == f"bad triple entry {reprlib.repr(row)}"


class _Row(list):
    pass


def test_from_entries_takes_numpy_scalars_and_other_reals():
    rows = [
        [0, 1, 2, 1.5],
        (np.int64(0), np.int32(1), np.uint8(3), np.float64(-2.0)),
        _Row([1, 2, 3, np.float32(0.5)]),
        [0, 2, 3, fractions.Fraction(1, 4)],
    ]
    plain = [[0, 1, 2, 1.5], [0, 1, 3, -2.0], [1, 2, 3, 0.5],
             [0, 2, 3, 0.25]]
    form = TripleForm.from_entries(4, rows)
    assert form.entry_list() == TripleForm.from_entries(4, plain).entry_list()


# ---------------------------------------------------------------------------
# bilinear forms, energy, helicity


def test_energy_helicity_rigid_body(rigid123):
    X = np.array([0.0, 1.0, 1.0])
    assert energy(rigid123, X) == pytest.approx(5.0)  # 2*1 + 3*1
    assert helicity(rigid123, X) == pytest.approx(2.0)  # L = I


def test_linking_is_symmetric(random_n6):
    rng = make_rng(16)
    lmax = np.max(np.abs(random_n6.linking))
    for _ in range(20):
        X = rng.standard_normal(6)
        Y = rng.standard_normal(6)
        scale = lmax * g_norm(random_n6, X) * g_norm(random_n6, Y)
        assert abs(
            linking(random_n6, X, Y) - linking(random_n6, Y, X)
        ) <= 1e-13 * scale


def test_helicity_two_expressions_agree(random_n6):
    rng = make_rng(17)
    for _ in range(20):
        X = rng.standard_normal(6)
        via_curl = metric_inner(random_n6, X, curl(random_n6, X))
        direct = helicity(random_n6, X)
        assert abs(via_curl - direct) <= 1e-12 * max(abs(direct), 1.0)


def test_energy_positive_definite(random_n6):
    rng = make_rng(18)
    for _ in range(20):
        X = rng.standard_normal(6)
        assert energy(random_n6, X) > 0.0
    assert energy(random_n6, np.zeros(6)) == 0.0


# ---------------------------------------------------------------------------
# curl and its inverse


def test_curl_identity_case():
    alg = trivial_algebra()
    X = np.array([1.0, -2.0, 0.5])
    assert np.allclose(curl(alg, X), X)
    assert np.allclose(inverse_curl(alg, X), X)


def test_curl_diagonal_case():
    alg = FluidAlgebra(3, np.zeros((3, 3, 3)), np.eye(3),
                       np.diag([1.0, 2.0, 3.0]))
    DX = curl(alg, np.ones(3))
    assert np.allclose(DX, [1.0, 0.5, 1.0 / 3.0])
    DpY = inverse_curl(alg, np.ones(3))
    assert np.allclose(DpY, [1.0, 2.0, 3.0])


def test_curl_defining_relation():
    alg = random_algebra(3, 6)
    rng = make_rng(19)
    X = rng.standard_normal(6)
    DX = curl(alg, X)
    lmax = np.max(np.abs(alg.linking))
    for _ in range(100):
        Y = rng.standard_normal(6)
        scale = lmax * g_norm(alg, X) * g_norm(alg, Y)
        assert abs(
            metric_inner(alg, DX, Y) - linking(alg, X, Y)
        ) <= 1e-11 * scale


def test_curl_self_adjointness(random_n6):
    rng = make_rng(20)
    lmax = np.max(np.abs(random_n6.linking))
    for _ in range(50):
        X = rng.standard_normal(6)
        Y = rng.standard_normal(6)
        scale = lmax * g_norm(random_n6, X) * g_norm(random_n6, Y)
        lhs = metric_inner(random_n6, curl(random_n6, X), Y)
        rhs = metric_inner(random_n6, X, curl(random_n6, Y))
        assert abs(lhs - rhs) <= 1e-11 * scale


def test_curl_inverse_roundtrip(random_n6):
    rng = make_rng(21)
    for _ in range(50):
        X = rng.standard_normal(6)
        back = inverse_curl(random_n6, curl(random_n6, X))
        assert g_norm(random_n6, back - X) <= 1e-10 * g_norm(random_n6, X)
        fwd = curl(random_n6, inverse_curl(random_n6, X))
        assert g_norm(random_n6, fwd - X) <= 1e-10 * g_norm(random_n6, X)


def test_conditioning_warning_on_nearly_singular_linking():
    from fluidalg import ConditioningWarning

    L = np.diag([1.0, 1.0, 1e-7])
    alg = FluidAlgebra(3, np.zeros((3, 3, 3)), L, np.eye(3))
    assert validate(alg).passed  # above the hard nondegeneracy threshold
    with pytest.warns(ConditioningWarning):
        inverse_curl(alg, np.ones(3))


# ---------------------------------------------------------------------------
# solves at the conditioning edge


def _conditioned_algebra(seed, n, kappa_linking, kappa_metric):
    """A random triple with rotated, geometrically spaced spectra: L
    indefinite with condition number ``kappa_linking``, G positive definite
    with condition number ``kappa_metric``."""
    rng = make_rng(seed)

    def rotated(spectrum):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = (Q * spectrum) @ Q.T
        return (M + M.T) / 2.0

    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    L = rotated(signs * np.geomspace(1.0, 1.0 / kappa_linking, n))
    G = rotated(np.geomspace(1.0, 1.0 / kappa_metric, n))
    return FluidAlgebra(n, random_algebra(seed, n).triple, L, G)


class _FactorizedAlgebra(FluidAlgebra):
    """The same algebra, solved with SciPy's Cholesky and LU factorizations
    (backward-stable solves, the oracle for the precomputed inverses).  A
    (B, n) block of right-hand sides is solved as B columns."""

    def solve_metric(self, rhs):
        factor = scipy.linalg.cho_factor(self.metric, lower=True)
        return scipy.linalg.cho_solve(factor, rhs.T).T

    def solve_linking(self, rhs):
        factor = scipy.linalg.lu_factor(self.linking)
        return scipy.linalg.lu_solve(factor, rhs.T).T


@pytest.mark.parametrize("kappa_linking, kappa_metric", [
    (1.01e6, 10.0),  # just past CONDITION_WARN_THRESHOLD
    (5e7, 10.0),     # within the LINKING_SV_RATIO limit of 1e8
    (1.01e6, 1e9),   # within the METRIC_EIG_RATIO limit of 1e10
])
def test_inverses_at_the_conditioning_edge(kappa_linking, kappa_metric):
    alg = _conditioned_algebra(30, 8, kappa_linking, kappa_metric)
    assert validate(alg).passed
    assert alg.linking_condition == pytest.approx(kappa_linking, rel=1e-6)
    assert alg.metric_condition == pytest.approx(kappa_metric, rel=1e-6)
    oracle = _FactorizedAlgebra(alg.dim, alg.triple, alg.linking, alg.metric)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_identity_suite(alg, num_states=20, num_triples=5)
        reference = run_identity_suite(oracle, num_states=20, num_triples=5)
    assert [w.category for w in caught] == [ConditioningWarning]
    # At these condition numbers several solve-dependent identities exceed
    # their fixed tolerances with the factorizations too, by up to 12
    # orders of magnitude; the inverses must pass every identity that the
    # factorizations pass with a margin of 4.
    for got, ref in zip(report.identities, reference.identities):
        if ref.passed and ref.max_defect <= ref.tolerance / 4:
            assert got.passed, got.name

    eps = np.finfo(float).eps
    rng = make_rng(31)
    for _ in range(50):
        X = rng.standard_normal(alg.dim)
        for op, kappa in ((curl, kappa_metric), (inverse_curl, kappa_linking)):
            got, expected = op(alg, X), op(oracle, X)
            err = np.linalg.norm(got - expected)
            assert err <= 10 * kappa * eps * np.linalg.norm(expected)


# ---------------------------------------------------------------------------
# file format


def test_save_load_roundtrip(tmp_path):
    alg = random_algebra(4, 5)
    path = tmp_path / "alg.json"
    save_algebra(alg, path)
    loaded = load_algebra(path)
    assert loaded.dim == 5
    rng = make_rng(22)
    for _ in range(5):
        X, Y, Z = (rng.standard_normal(5) for _ in range(3))
        assert triple(loaded, X, Y, Z) == pytest.approx(
            triple(alg, X, Y, Z), rel=1e-14, abs=1e-14
        )
    assert np.allclose(loaded.linking, alg.linking)
    assert np.allclose(loaded.metric, alg.metric)


def test_save_emits_keys_in_order(tmp_path):
    path = tmp_path / "alg.json"
    save_algebra(random_algebra(4, 4), path)
    payload = json.loads(path.read_text())
    assert list(payload.keys()) == ["dim", "triple", "linking", "metric"]


def test_load_rejects_unordered_entries(tmp_path):
    path = tmp_path / "bad.json"
    payload = {
        "dim": 3,
        "triple": [[0, 0, 1, 1.0]],
        "linking": np.eye(3).tolist(),
        "metric": np.eye(3).tolist(),
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(AlgebraFormatError):
        load_algebra(path)


def test_load_rejects_a_bool_dim(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": True, "triple": [], "linking": [[1.0]], "metric": [[1.0]],
    }))
    with pytest.raises(AlgebraFormatError, match="dim"):
        load_algebra(path)


def test_load_rejects_missing_keys_and_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"dim\": 3}")
    with pytest.raises(AlgebraFormatError):
        load_algebra(path)
    path.write_text("not json")
    with pytest.raises(AlgebraFormatError):
        load_algebra(path)
    path.write_text("[]")
    with pytest.raises(AlgebraFormatError,
                       match="^top-level JSON value must be an object$"):
        load_algebra(path)


def test_load_validates_invariants(tmp_path):
    from fluidalg import AlgebraValidationError

    path = tmp_path / "degenerate.json"
    payload = {
        "dim": 3,
        "triple": [],
        "linking": np.diag([1.0, 1.0, 0.0]).tolist(),
        "metric": np.eye(3).tolist(),
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(AlgebraValidationError):
        load_algebra(path)
