"""Structured linking and metric: an algebra given ``linking=(cols, w)``
and ``metric=None`` stores no (n, n) array, and gives the bits and the
validation results of the dense matrices built from its structure."""

import json
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from test_blocks import ENTRY_POINTS, bits

from fluidalg import (
    AlgebraDataError,
    AlgebraFormatError,
    ConditioningWarning,
    FluidAlgebra,
    TripleForm,
    build_torus_algebra,
    make_rng,
    random_algebra,
    rigid_body,
    so3,
    validate,
)
from fluidalg import cli, core, diagnostics, integrators
from fluidalg.cli import main
from fluidalg.core import AlgebraValidationError, dd_values


def dense_twin(alg):
    """The algebra with its linking and metric given as dense matrices."""
    return FluidAlgebra(alg.dim, alg.triple, np.array(alg.linking),
                        np.array(alg.metric))


def forced_dense(monkeypatch, *args):
    """``FluidAlgebra(*args)`` with its matrices held dense: no structure
    detected, so validate scans M - M^T and takes the SVD or eigvalsh, and
    a solve runs through the inverse."""
    with monkeypatch.context() as m:
        m.setattr(core, "_permutation_of", lambda M: None)
        alg = FluidAlgebra(*args)
    assert alg._L.w is None and alg._G.w is None
    return alg


def is_identity(M):
    return M.diagonal and bits(M.w) == bits(np.ones(M.w.size))


@pytest.fixture(scope="module")
def torus_pair():
    given = build_torus_algebra(1)[0]
    return given, dense_twin(given)


def test_torus_is_given_its_structures_and_stores_no_matrix():
    alg = build_torus_algebra(1)[0]
    assert alg._L._dense is None and alg._G._dense is None
    assert is_identity(alg._G)
    cols, w = alg._L.cols, alg._L.w
    L = alg.linking
    assert not L.flags.writeable and not alg.metric.flags.writeable
    assert alg.linking is L  # built once
    expected = np.zeros((alg.dim, alg.dim))
    expected[np.arange(alg.dim), cols] = w
    assert bits(L) == bits(expected)
    assert bits(alg.metric) == bits(np.eye(alg.dim))


def test_given_and_detected_structures_are_one_representation(torus_pair):
    given, detected = torus_pair
    assert detected._L._dense is not None and detected._G._dense is not None
    assert is_identity(detected._G)
    for name in ("_L", "_G"):
        a_matrix, b_matrix = getattr(given, name), getattr(detected, name)
        for a, b in zip((a_matrix.cols, a_matrix.w),
                        (b_matrix.cols, b_matrix.w)):
            assert a.dtype == b.dtype and bits(a) == bits(b)
        for a, b in zip(a_matrix.nonzeros, b_matrix.nonzeros):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert a_matrix.max_abs == b_matrix.max_abs
    assert (validate(given).to_dict()
            == validate(detected).to_dict())


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_given_structures_have_the_bits_of_the_dense_ones(torus_pair, name):
    given, detected = torus_pair
    f, nargs = ENTRY_POINTS[name]
    for shape in ((given.dim,), (5, given.dim)):
        args = make_rng(81).standard_normal((nargs,) + shape)
        assert bits(f(given, *args)) == bits(f(detected, *args)), name


@pytest.mark.parametrize("form", ["metric", "linking"])
def test_given_structures_have_the_low_words_of_the_dense_ones(torus_pair,
                                                                form):
    given, detected = torus_pair
    rng = make_rng(82)
    X = rng.standard_normal((4, given.dim))
    X_lo = 1e-17 * rng.standard_normal((4, given.dim))
    hi = [float(x @ (detected.metric if form == "metric"
                     else detected.linking) @ x) for x in X]
    a = dd_values(given, form, hi, X, X_lo)
    b = dd_values(detected, form, hi, X, X_lo)
    assert [(float(v), v.lo) for v in a] == [(float(v), v.lo) for v in b]


# hand-built structures on n = 6 that fail a check
BAD_STRUCTURES = {
    # a 3-cycle: rows 0, 1, 2 have no mirror entry
    "non-involutive": ([1, 2, 0, 3, 5, 4], [1.0, 2.0, 3.0, 4.0, 5.0, 5.0]),
    "asymmetric-weights": ([1, 0, 3, 2, 5, 4],
                           [1.0, 2.0, 3.0, 3.0, -1.0, -1.5]),
    "zero-weight": ([1, 0, 3, 2, 5, 4], [1.0, 1.0, 0.0, 0.0, 2.0, 2.0]),
}


@pytest.mark.parametrize("name", list(BAD_STRUCTURES))
def test_bad_structures_validate_as_their_dense_matrices(name, monkeypatch):
    triple = random_algebra(3, 6).triple
    cols, w = BAD_STRUCTURES[name]
    given = FluidAlgebra(6, triple, (np.array(cols), np.array(w)), None)
    L = np.zeros((6, 6))
    L[np.arange(6), cols] = w
    dense = forced_dense(monkeypatch, 6, triple, L, np.eye(6))
    report = validate(given)
    assert report.to_dict() == validate(dense).to_dict()
    for a, b in zip(given._L.nonzeros, dense._L.nonzeros):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    failed = {c.name for c in report.failures()}
    if name == "zero-weight":
        assert failed == {"linking-nondegenerate"}
    else:
        assert failed == {"linking-symmetry"}


# solves that a structure must refuse as its dense matrix does: a swap is
# a permutation but not positive definite, and neither is a diagonal with a
# negative weight; a zero weight makes the linking matrix singular
REFUSED_SOLVES = {
    "swap-metric": ("metric", np.array([[0.0, 1.0], [1.0, 0.0]])),
    "indefinite-diagonal": ("metric", np.diag([1.0, 1.0, -1.0])),
    "zero-weight": ("linking",
                    tuple(map(np.array, BAD_STRUCTURES["zero-weight"]))),
}


@pytest.mark.parametrize("name", list(REFUSED_SOLVES))
def test_structured_solves_refuse_what_dense_solves_refuse(name, monkeypatch):
    form, value = REFUSED_SOLVES[name]
    n = len(value[0])
    matrices = {"linking": None, "metric": None, form: value}
    structured = FluidAlgebra(n, [], matrices["linking"], matrices["metric"])
    assert {"linking": structured._L, "metric": structured._G}[form].w \
        is not None
    dense = forced_dense(monkeypatch, n, [], np.array(structured.linking),
                         np.array(structured.metric))
    errors = []
    for alg in (structured, dense):
        with warnings.catch_warnings():
            # a singular linking matrix warns of its conditioning first
            warnings.simplefilter("ignore", ConditioningWarning)
            with pytest.raises(AlgebraValidationError) as info:
                getattr(alg, f"solve_{form}")(np.ones(n))
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert ("positive definite" if form == "metric" else "singular") \
        in errors[0]


def test_rigid_body_metric_is_a_diagonal_solved_by_division():
    moments = np.array([1.0, 3.0, 7.0])
    alg = rigid_body(*moments)
    assert alg._G.diagonal and bits(alg._G.w) == bits(moments)
    assert alg._L.diagonal
    rhs = make_rng(83).standard_normal((5, 3))
    assert bits(alg.solve_metric(rhs)) == bits(rhs / moments)
    for row in rhs:
        assert bits(alg.solve_metric(row)) == bits(row / moments)


def test_diagonal_metric_is_its_detected_dense_twin():
    base = random_algebra(3, 6)
    w = 1.0 + make_rng(84).random(6)
    given = FluidAlgebra(6, base.triple, base.linking, (np.arange(6), w))
    detected = FluidAlgebra(6, base.triple, base.linking, np.diag(w))
    assert given._G._dense is None and detected._G._dense is not None
    assert given._G.diagonal and detected._G.diagonal
    assert bits(given.metric) == bits(detected.metric)
    assert validate(given).to_dict() == validate(detected).to_dict()
    for name, (f, nargs) in ENTRY_POINTS.items():
        for shape in ((6,), (5, 6)):
            args = make_rng(85).standard_normal((nargs,) + shape)
            assert bits(f(given, *args)) == bits(f(detected, *args)), name
    rng = make_rng(86)
    X = rng.standard_normal((4, 6))
    X_lo = 1e-17 * rng.standard_normal((4, 6))
    hi = [float(x @ (w * x)) for x in X]
    a = dd_values(given, "metric", hi, X, X_lo)
    b = dd_values(detected, "metric", hi, X, X_lo)
    assert [(float(v), v.lo) for v in a] == [(float(v), v.lo) for v in b]


@pytest.mark.parametrize("cols, w", [
    ([0, 0, 2], [1.0, 1.0, 1.0]),  # repeated
    ([0, 1, 3], [1.0, 1.0, 1.0]),  # out of range
    ([0, 1, -1], [1.0, 1.0, 1.0]),
    ([0, 1], [1.0, 1.0]),  # wrong length
    ([0, 1, 2], [1.0, 1.0]),
    ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),  # not integers
    ([True, False, True], [1.0, 1.0, 1.0]),
    ([0, 1, 2], ["1", "1", "1"]),
])
def test_bad_linking_structure_is_a_format_error(cols, w):
    with pytest.raises(AlgebraFormatError):
        FluidAlgebra(3, [], (np.array(cols), np.array(w)), None)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_linking_weight_is_a_data_error(bad):
    with pytest.raises(AlgebraDataError):
        FluidAlgebra(3, [], (np.arange(3), np.array([1.0, bad, 1.0])), None)


def test_given_structure_is_copied_and_frozen():
    cols, w = np.array([1, 0, 2]), np.array([2.0, 2.0, 1.0])
    alg = FluidAlgebra(3, [], (cols, w), None)
    cols[0], w[0] = 2, 5.0
    stored = alg._L.cols, alg._L.w
    assert stored[0].tolist() == [1, 0, 2] and stored[1].tolist() == [2, 2, 1]
    assert not stored[0].flags.writeable and not stored[1].flags.writeable
    assert validate(alg).passed


@pytest.mark.parametrize("order", ["C", "F"])
def test_given_matrices_are_copied_and_caller_arrays_stay_writeable(order):
    # a diagonal L (stored as a permutation) and a dense G
    L = np.array(np.diag([1.0, -2.0, 3.0]), order=order)
    G = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
                 order=order)
    M = np.array(np.diag([1.0, 2.0, 3.0]), order=order)
    alg = FluidAlgebra(3, [], L, G)
    body = so3(metric=M)
    expected = alg.linking.copy(), alg.metric.copy(), body.metric.copy()
    rhs = np.array([1.0, 2.0, 3.0])
    solved = alg.solve_metric(rhs), body.solve_metric(rhs)
    assert L.flags.writeable and G.flags.writeable and M.flags.writeable
    assert alg.metric.flags.c_contiguous
    L[:], G[:], M[:] = 7.0, 9.0, 11.0
    assert bits(alg.linking) == bits(expected[0])
    assert bits(alg.metric) == bits(expected[1])
    assert bits(body.metric) == bits(expected[2])
    assert bits(alg.solve_metric(rhs)) == bits(solved[0])
    assert bits(body.solve_metric(rhs)) == bits(solved[1])


def test_dense_view_has_w_r_at_row_r_column_cols_r():
    alg = FluidAlgebra(3, [], (np.array([1, 2, 0]), np.array([1.0, 2.0, 3.0])),
                       None)
    assert alg.linking.tolist() == [[0, 1, 0], [0, 0, 2], [3, 0, 0]]
    assert alg.metric.tolist() == np.eye(3).tolist()


def test_torus_k5_build_holds_no_dense_matrix():
    # the dense linking matrix and metric alone would take 2 x 56.6 MB
    build_torus_algebra(1)  # imports outside the traced build
    tracemalloc.start()
    try:
        alg, _ = build_torus_algebra(5, max_dim=2660)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.dim == 2660
    assert peak < 8e6


def test_torus_commands_never_build_the_dense_matrices(tmp_path,
                                                       monkeypatch):
    def refuse(self):
        raise AssertionError(f"dense {self.name} built")

    monkeypatch.setattr(core._Matrix, "dense", property(refuse))
    runs = {
        "simulate": {
            "instance": {"name": "torus", "K": 3, "max_dim": 684},
            "initial_state": {"seed": 7, "norm": 1.0},
            "probe": {"seed": 8, "norm": 1.0},
            "integrator": {"method": "rk4", "dt": 1e-3, "t_end": 0.003},
        },
        "diagnose": {
            "instance": {"name": "torus", "K": 2},
            "diagnostics": {"num_states": 4, "num_triples": 2},
        },
    }
    for command, config in runs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), "--output",
                     str(tmp_path / command)]) == 0


def test_the_names_the_benchmark_reaches_are_there():
    # perfbench/spans.py and worker.py reach these by name, and a missing
    # one is skipped silently, so its figures would read 0
    for cls, name in [(TripleForm, "contract_pair"),
                      (FluidAlgebra, "solve_metric"),
                      (FluidAlgebra, "solve_linking")]:
        assert isinstance(vars(cls)[name], types.FunctionType)
    # spans.py wraps contract_pair on TripleForm alone, so no kind may
    # define its own contraction or evaluation
    kinds = TripleForm.__subclasses__()
    assert {kind.kind for kind in kinds} == {"dense", "sparse", "spectral"}
    for kind in kinds:
        assert not {"contract_pair", "__call__"} & set(vars(kind))
    form = TripleForm(3, [[0, 1, 2]], [1.0])
    assert form.kind == "sparse" and isinstance(form, TripleForm)
    for module, name in [(cli, "_write_trace"), (cli, "_write_states"),
                         (cli, "_write_json"), (integrators, "_rk4")]:
        function = getattr(module, name)
        assert isinstance(function, types.FunctionType)
        assert function.__module__ == module.__name__
    assert cli.integrate is integrators.integrate
    assert "integrate" in integrators.__all__
    assert cli.run_identity_suite is diagnostics.run_identity_suite
    assert "run_identity_suite" in diagnostics.__all__


def test_dense_is_the_packed_matrix_of_the_dense_kind_alone(kind_algebra):
    # spans.py charges a contraction by form.dense and form.nnz
    form = kind_algebra.triple
    n = form.dim
    if form.kind == "dense":
        assert form.dense.shape == (n * (n - 1) // 2, n)
        assert not form.dense.flags.writeable
    else:
        assert form.dense is None
    assert type(form.nnz) is int


def test_repr_does_not_assemble_spectral_entries():
    alg = build_torus_algebra(2)[0]
    text = repr(alg)
    assert alg.triple._entry_source is not None
    assert "'spectral'" in text and "nnz" not in text
    nnz = alg.triple.nnz
    assert f"nnz={nnz}" in repr(alg)
    assert f"nnz={random_algebra(3, 6).triple.nnz}" in repr(
        random_algebra(3, 6))
