"""Blocks of states: every operator-layer entry point takes one state (n,)
or a (B, n) block, and a block gives each row the bits of that row alone."""

import inspect
import re

import numpy as np
import pytest

from fluidalg import (
    AlgebraFormatError,
    FluidAlgebra,
    TripleForm,
    build_torus_algebra,
    curl,
    energy,
    g_dual_norm,
    g_norm,
    helicity,
    inverse_curl,
    linking,
    make_rng,
    metric_inner,
    random_algebra,
    rigid_body,
    triple,
)
from fluidalg.dynamics import (
    circulation_defect,
    euler_rhs,
    induced_bracket,
    jacobiator,
    transport,
    vorticity_rhs,
)


# name -> (f(alg, *states), number of state arguments)
ENTRY_POINTS = {
    "TripleForm.contract_pair": (lambda a, X, Y: a.triple.contract_pair(X, Y), 2),
    "TripleForm.__call__": (lambda a, X, Y, Z: a.triple(X, Y, Z), 3),
    "FluidAlgebra.apply_metric": (lambda a, X: a.apply_metric(X), 1),
    "FluidAlgebra.solve_metric": (lambda a, X: a.solve_metric(X), 1),
    "FluidAlgebra.apply_linking": (lambda a, X: a.apply_linking(X), 1),
    "FluidAlgebra.solve_linking": (lambda a, X: a.solve_linking(X), 1),
    "curl": (curl, 1),
    "inverse_curl": (inverse_curl, 1),
    "triple": (triple, 3),
    "linking": (linking, 2),
    "metric_inner": (metric_inner, 2),
    "energy": (energy, 1),
    "helicity": (helicity, 1),
    "g_norm": (g_norm, 1),
    "g_dual_norm": (g_dual_norm, 1),
    "euler_rhs": (euler_rhs, 1),
    "vorticity_rhs": (vorticity_rhs, 1),
    "transport": (transport, 2),
    "induced_bracket": (induced_bracket, 2),
    "jacobiator": (jacobiator, 3),
    "circulation_defect": (circulation_defect, 2),
}

SCALAR_VALUED = {"TripleForm.__call__", "triple", "linking", "metric_inner",
                 "energy", "helicity", "g_norm", "g_dual_norm"}


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


# 40 rows cross the chunks of rows that every kernel here runs at once, 17
# give chunks of uneven sizes, and 50 is the identity suite's block
@pytest.mark.parametrize("rows", [0, 1, 7, 17, 40, 50])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_block_rows_have_the_bits_of_single_states(kind_algebra, name, rows):
    alg = kind_algebra
    f, nargs = ENTRY_POINTS[name]
    blocks = make_rng(31).standard_normal((nargs, rows, alg.dim))
    got = f(alg, *blocks)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    expected_shape = (rows,) if name in SCALAR_VALUED else (rows, alg.dim)
    assert got.shape == expected_shape
    for r in range(rows):
        one = f(alg, *(block[r] for block in blocks))
        if name in SCALAR_VALUED:
            assert isinstance(one, float)
        assert bits(got[r]) == bits(one), (name, r)


def test_repeated_arguments_give_exact_zero_rows(kind_algebra):
    alg = kind_algebra
    rng = make_rng(32)
    X, Y, Z = rng.standard_normal((3, 5, alg.dim))
    Y[0] = X[0]
    Z[1] = Y[1]
    Z[2] = X[2]
    values = triple(alg, X, Y, Z)
    assert bits(values[:3]) == bits(np.zeros(3))
    for r in range(5):
        assert bits(values[r]) == bits(triple(alg, X[r], Y[r], Z[r]))
    assert np.all(values[3:] != 0.0)


def test_only_kept_rows_reach_the_kernel(kind_algebra, monkeypatch):
    form = kind_algebra.triple
    kernel, given = form._kernel, []

    def spy(X, Y):
        given.append((X.copy(), Y.copy()))
        return kernel(X, Y)

    monkeypatch.setattr(form, "_kernel", spy)
    X, Y, Z = make_rng(35).standard_normal((3, 6, form.dim))
    Y[0] = X[0]
    Z[2] = Y[2]
    Z[5] = X[5]
    values = form(X, Y, Z)
    kept = [1, 3, 4]
    assert bits(np.concatenate([g[0] for g in given])) == bits(Y[kept])
    assert bits(np.concatenate([g[1] for g in given])) == bits(Z[kept])
    assert bits(values[[0, 2, 5]]) == bits(np.zeros(3))
    # an all-repeated block, and a repeated state, make no kernel call
    given.clear()
    assert bits(form(X, X, Z)) == bits(np.zeros(6))
    assert form(X[0], Y[0], Z[0]) == 0.0
    assert given == []


@pytest.mark.parametrize("row_terms", [1 << 14, 1 << 13, 2000, 512])
def test_chunks_are_the_fewest_with_even_sizes(row_terms):
    from fluidalg import core

    step = max(1, core._BLOCK_TERMS // row_terms)
    for rows in range(1, 101):
        sizes = []

        def kernel(X):
            sizes.append(len(X))
            return X

        X = np.arange(rows * 2.0).reshape(rows, 2)
        assert bits(core._in_chunks(kernel, row_terms, X)) == bits(X)
        assert len(sizes) == -(-rows // step)
        assert max(sizes) <= step and max(sizes) - min(sizes) <= 1


def _sparse_torus(K):
    form = build_torus_algebra(K)[0].triple
    return TripleForm(form.dim, form.index, form.values)


# one form of each kind whose blocks the kernel splits into chunks
CHUNKED_FORMS = {
    "dense": lambda: random_algebra(7, 32).triple,
    "sparse": lambda: _sparse_torus(2),
    "spectral": lambda: build_torus_algebra(2)[0].triple,
}


@pytest.mark.parametrize("kind", list(CHUNKED_FORMS))
def test_blocks_across_chunk_boundaries_have_the_bits_of_single_states(
        kind, monkeypatch):
    from fluidalg import core

    form = CHUNKED_FORMS[kind]()
    assert form.kind == kind
    kernel, chunks = form._kernel, []

    def spy(X, Y):
        chunks.append(len(X) if X.ndim == 2 else None)
        return kernel(X, Y)

    monkeypatch.setattr(form, "_kernel", spy)
    step = max(1, core._BLOCK_TERMS // form._row_terms)
    rng = make_rng(36)
    for rows in sorted({step - 1, step, step + 1, 2 * step + 1}):
        X, Y, Z = rng.standard_normal((3, rows, form.dim))
        chunks.clear()
        pair = form.contract_pair(X, Y)
        assert len(chunks) == max(1, -(-rows // step)) and sum(chunks) == rows
        value = form(Z, X, Y)
        for r in range(rows):
            assert bits(pair[r]) == bits(form.contract_pair(X[r], Y[r]))
            assert bits(value[r]) == bits(form(Z[r], X[r], Y[r]))


def test_states_of_any_real_dtype_contract_as_their_float64_values(
        kind_algebra):
    form = kind_algebra.triple
    rng = make_rng(37)
    ints = rng.integers(-3, 4, (3, 4, form.dim))
    floats = rng.standard_normal((3, 4, form.dim))
    cases = {
        "int64": ints,
        "int64/float64": (ints[0], floats[1], ints[2]),
        "float64/int64": (floats[0], ints[1], floats[2]),
        "float32": floats.astype(np.float32),
    }
    for name, states in cases.items():
        wide = [np.asarray(A, dtype=float) for A in states]
        for rows in (slice(None), 0):  # the block, and its first state
            X, Y, Z = (A[rows] for A in states)
            U, V, W = (A[rows] for A in wide)
            got, want = form.contract_pair(X, Y), form.contract_pair(U, V)
            assert got.dtype == np.float64, name
            assert bits(got) == bits(want), name
            assert bits(form(X, Y, Z)) == bits(form(U, V, W)), name


def _sparse_random32():
    alg = random_algebra(7, 32)
    form = TripleForm(alg.dim, alg.triple.index, alg.triple.values)
    return FluidAlgebra(alg.dim, form, alg.linking, alg.metric)


# one algebra of each storage kind, and the rigid body: name -> builder
SHAPE_ALGEBRAS = {
    "dense-n32": lambda: random_algebra(7, 32),
    "sparse-n32": _sparse_random32,
    "spectral-k2": lambda: build_torus_algebra(2)[0],
    "rigid": lambda: rigid_body(1.0, 2.0, 3.0),
}


@pytest.fixture(scope="module", params=list(SHAPE_ALGEBRAS))
def shape_algebra(request):
    return SHAPE_ALGEBRAS[request.param]()


def _state_parameters(name):
    """The state parameters of an entry point as ``inspect.signature``
    gives them, those after ``self`` or ``alg``."""
    owner, _, method = name.rpartition(".")
    f = (getattr({"TripleForm": TripleForm, "FluidAlgebra": FluidAlgebra}[
        owner], method) if owner else ENTRY_POINTS[name][0])
    return list(inspect.signature(f).parameters)[1:]


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_bad_block_shapes_raise_format_error(shape_algebra, name):
    """A state one float too long or too short, a block of such states, a
    3-d or 0-d array and arguments of different shapes raise the
    AlgebraFormatError of ``_as_state`` at every entry point of every
    kind: none is truncated, read past its end or broadcast.  The message
    starts with the bad argument's parameter name at that entry point, and
    for two valid shapes that differ with the name and the shape of one of
    the pair: a check left to the call below must not report an argument
    under the name that it has there."""
    alg, (f, nargs) = shape_algebra, ENTRY_POINTS[name]
    params = _state_parameters(name)
    assert len(params) == nargs
    n = alg.dim
    good = make_rng(35).standard_normal((4, n))
    for shape in [(n + 1,), (n - 1,), (4, n + 1), (2, 4, n), ()]:
        for slot in range(nargs):
            args = [good[0] if len(shape) < 2 else good] * nargs
            args[slot] = np.ones(shape)
            with pytest.raises(AlgebraFormatError,
                               match=rf"^{params[slot]} has shape "
                                     rf"{re.escape(str(shape))}, expected \("):
                f(alg, *args)
    # another B beside a (4, n) block, or a single state beside it: in
    # each slot, and in every slot after the first
    for other in (good[:3], good[0]) if nargs > 1 else ():
        cases = [[good] + [other] * (nargs - 1)] + [
            [other if s == slot else good for s in range(nargs)]
            for slot in range(nargs)]
        for args in cases:
            with pytest.raises(AlgebraFormatError,
                               match=r"has shape .*, expected \(") as err:
                f(alg, *args)
            named = str(err.value).split(" ", 1)[0]
            assert named in params, str(err.value)
            shape = args[params.index(named)].shape
            assert str(err.value).startswith(f"{named} has shape {shape}, ")


@pytest.mark.parametrize("K", [2, 3, 4])
def test_spectral_blocks_have_the_bits_of_single_states(K):
    # grids of 7^3, 10^3 and 13^3; contract_pair runs these 3 rows in one
    # piece at K = 2, as 2 + 1 at K = 3 and row by row at K = 4, the
    # operator in one piece
    alg = build_torus_algebra(K, max_dim=1456)[0]
    X, Y = make_rng(33).standard_normal((2, 3, alg.dim))
    for got in (alg.triple.contract_pair(X, Y), alg.triple.operator(X, Y)):
        for r in range(3):
            assert bits(got[r]) == bits(alg.triple.contract_pair(X[r], Y[r]))


DD_ALGEBRAS = {
    "random-n6": lambda: random_algebra(3, 6),
    "random-n32": lambda: random_algebra(7, 32),
    "torus-k3": lambda: build_torus_algebra(3, max_dim=684)[0],
}


@pytest.mark.parametrize("name", list(DD_ALGEBRAS))
@pytest.mark.parametrize("form", ["energy", "helicity", "linking"])
def test_dd_values_gives_each_row_the_low_word_it_has_alone(name, form):
    from fluidalg import core

    alg = DD_ALGEBRAS[name]()
    matrix = "metric" if form == "energy" else "linking"
    # one row past a whole batch leaves a one-row last batch
    vals = {"metric": alg._G, "linking": alg._L}[matrix].nonzeros[2]
    rows = max(1, core._DD_BATCH_TERMS // vals.size) + 1
    rng = make_rng(34)
    X, Y = rng.standard_normal((2, rows, alg.dim))
    X_lo, Y_lo = 1e-17 * rng.standard_normal((2, rows, alg.dim))
    if form == "linking":
        args, hi = (X, X_lo, Y, Y_lo), linking(alg, X, Y)
    else:
        args, hi = (X, X_lo), {"energy": energy, "helicity": helicity}[form](
            alg, X)
    block = core.dd_values(alg, matrix, hi, *args)
    for r in range(rows):
        alone = core.dd_values(alg, matrix, hi[r:r + 1],
                               *(a[r:r + 1] for a in args))[0]
        assert bits(block[r]) == bits(alone)
        assert bits(block[r].lo) == bits(alone.lo)
