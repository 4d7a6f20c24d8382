"""The products, solves and step update that are made in place or skipped
give the bits, the dtype and the fresh array of the plain expressions.

The identity metric of the torus solves as a copy; the torus linking
form makes its product in its own gather; the RK4 step makes its update in
an array that it owns.  Each is compared here with the expression that it
replaces, computed in the test, as are canonical entries given out of
order, duplicated or near the int range.
"""

import numpy as np
import pytest

from fluidalg import (
    AlgebraFormatError,
    build_torus_algebra,
    make_rng,
    random_algebra,
    rigid_body,
)
from fluidalg import integrators
from fluidalg.core import _canonical_entries, two_sum
from fluidalg.integrators import NumericalFailure, _rk4

SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 2.0e-308, -1.5e-310, np.inf,
            -np.inf, np.nan, -np.nan, 1.0, -2.5, 1e308, -1e-300]


@pytest.fixture(scope="module")
def torus():
    return build_torus_algebra(1)[0]


def _inputs(dim, dtype):
    """States and a (6, dim) block of the dtype; the floats hold every
    special value, -0.0, subnormals, infinities and NaN among them."""
    rng = make_rng(5)
    if np.dtype(dtype).kind == "i":
        return [rng.integers(-10**6, 10**6, size=(B, dim)).astype(dtype)
                for B in (1, 6)]
    block = rng.standard_normal((6, dim)) * 1e3
    block.flat[:len(SPECIALS)] = SPECIALS
    block.flat[-len(SPECIALS):] = SPECIALS[::-1]
    with np.errstate(over="ignore"):  # 1e308 is inf in float32
        block = block.astype(dtype)
    return [block[0].copy(), block[-1].copy(), block]


def _same(out, expected):
    assert out.dtype == np.float64 and expected.dtype == np.float64
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


def _fresh(op, X):
    before = X.copy()
    out = op(X)
    assert not np.shares_memory(out, X)
    out[...] = 7.0
    assert X.tobytes() == before.tobytes()


# the operators return what IEEE arithmetic gives, overflow included


@np.errstate(all="ignore")
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_identity_metric_gives_the_bits_of_its_products(torus, dtype):
    G = torus._G
    assert G.unit and np.all(G.w == 1.0)
    for X in _inputs(torus.dim, dtype):
        _same(torus.solve_metric(X), X / G.w)
        _same(torus.apply_metric(X), G.w * X + 0.0)
        _fresh(torus.solve_metric, X)
        _fresh(torus.apply_metric, X)


@np.errstate(all="ignore")
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_permutation_gathers_the_bits_of_its_product(torus, dtype):
    # the torus linking form pairs the cos and sin slots of each mode; its
    # gather must not keep an int or float32 input's dtype
    L = torus._L
    assert not L.diagonal and L.w is not None
    for X in _inputs(torus.dim, dtype):
        _same(torus.apply_linking(X), L.w * X[..., L.cols] + 0.0)
        _fresh(torus.apply_linking, X)


@np.errstate(all="ignore")
def test_unit_needs_every_weight_one():
    alg = rigid_body(1.0, 2.0, 3.0)
    # L is the identity, G the diagonal of the moments
    assert alg._L.unit and alg._G.diagonal and not alg._G.unit
    for X in _inputs(3, np.float64):
        _same(alg.apply_linking(X), alg._L.w * X + 0.0)
        _same(alg.solve_metric(X), X / alg._G.w)


# ---------------------------------------------------------------------------
# the RK4 step


def _captured_step(alg, monkeypatch, probe):
    """One compensated step from a nonzero low word, with the stage inputs
    and derivatives that ``_rhs`` saw and gave, copied as they were."""
    seen = []
    rhs = integrators._rhs

    def spy(alg, X, probe, label, t):
        k = rhs(alg, X, probe, label, t)
        seen.append((X.copy(), k.copy()))
        return k

    monkeypatch.setattr(integrators, "_rhs", spy)
    rng = make_rng(11)
    shape = (2, alg.dim) if probe else (alg.dim,)
    X = rng.standard_normal(shape)
    X_lo = rng.standard_normal(shape) * 1e-17
    dt = 1e-2
    X1, X1_lo = _rk4(alg, X, X_lo, dt, 0.0, probe)
    return X, X_lo, dt, seen, X1, X1_lo


@pytest.mark.parametrize("probe", [False, True], ids=["plain", "probe"])
@pytest.mark.parametrize("build", [
    lambda: build_torus_algebra(2)[0],
    lambda: random_algebra(7, 32),
], ids=["torus-k2", "random-n32"])
def test_step_gives_the_bits_of_the_rk4_update(build, probe, monkeypatch):
    alg = build()
    X, X_lo, dt, seen, X1, X1_lo = _captured_step(alg, monkeypatch, probe)
    (S1, k1), (S2, k2), (S3, k3), (S4, k4) = seen
    assert S1.tobytes() == X.tobytes()
    assert S2.tobytes() == (X + 0.5 * dt * k1).tobytes()
    assert S3.tobytes() == (X + 0.5 * dt * k2).tobytes()
    assert S4.tobytes() == (X + dt * k3).tobytes()
    hi, lo = two_sum(X, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4) + X_lo)
    assert X1.tobytes() == hi.tobytes() and X1_lo.tobytes() == lo.tobytes()


def _failure(alg, X, dt=1e-2, probe=False):
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure) as info:
        _rk4(alg, X, np.full(X.shape, -0.0), dt, 0.5, probe)
    return str(info.value), info.value.t


@pytest.mark.parametrize("probe", [False, True], ids=["plain", "probe"])
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_each_stage_failure_is_named(torus, monkeypatch, stage, probe):
    calls = []
    rhs = integrators.euler_rhs

    def failing(alg, V):
        calls.append(None)
        dV = rhs(alg, V)
        return dV * np.inf if len(calls) == stage else dV

    monkeypatch.setattr(integrators, "euler_rhs", failing)
    X = make_rng(2).standard_normal((2, torus.dim) if probe else torus.dim)
    message, t = _failure(torus, X, probe=probe)
    assert message == f"non-finite value in stage {stage} at t=0.5"
    assert t == 0.5 and len(calls) == stage


def test_step_result_failures_are_named(torus, monkeypatch):
    # finite stages whose update overflows: 2 k2 is already infinite
    monkeypatch.setattr(integrators, "euler_rhs",
                        lambda alg, V: np.full(V.shape, 1e308))
    X = np.zeros(torus.dim)
    assert _failure(torus, X, dt=1.0) == (
        "non-finite value in step result at t=1.5", 1.5)
    monkeypatch.undo()
    monkeypatch.setattr(integrators, "_probe_rhs",
                        lambda alg, V, Z: np.full(Z.shape, np.nan))
    S = make_rng(3).standard_normal((2, torus.dim))
    assert _failure(torus, S, probe=True) == (
        "non-finite value in probe step result at t=0.51", 0.51)


# ---------------------------------------------------------------------------
# canonical entries


def _reference(index, values):
    # sorted by (i, j, k), the zero values dropped
    order = np.lexsort((index[:, 2], index[:, 1], index[:, 0]))
    index, values = index[order], values[order]
    keep = values != 0.0
    return index[keep], values[keep]


@pytest.fixture(scope="module")
def random100_entries():
    entries = random_algebra(0, 100).triple.entry_list()
    index = np.array([e[:3] for e in entries], dtype=np.intp)
    values = np.array([e[3] for e in entries])
    return index, values


def test_unsorted_entries_are_sorted(random100_entries):
    index, values = random100_entries
    values = values.copy()
    values[::7] = 0.0
    order = make_rng(4).permutation(len(values))
    out = _canonical_entries(100, index[order], values[order])
    for got, expected in zip(out, _reference(index, values)):
        assert got.tobytes() == expected.tobytes()
    assert out[1].size == np.count_nonzero(values)


@pytest.mark.parametrize("rows", [
    [[0, 1, 2], [0, 1, 3], [0, 1, 3]],
    [[0, 1, 3], [0, 1, 2], [0, 1, 3]],
    [[1, 2, 3], [0, 1, 2], [1, 2, 3], [0, 2, 3]],
], ids=["sorted", "apart", "unsorted"])
def test_duplicate_entries_are_refused(rows):
    with pytest.raises(AlgebraFormatError, match="^duplicate sparse entry$"):
        _canonical_entries(4, rows, np.ones(len(rows)))


def test_entries_out_of_order_within_a_row_are_refused():
    with pytest.raises(AlgebraFormatError,
                       match="^sparse entries must satisfy i < j < k$"):
        _canonical_entries(4, [[0, 1, 2], [0, 3, 2]], [1.0, 2.0])


def test_the_order_check_takes_indices_near_the_int_range():
    # a key i n^2 + j n + k would overflow at this n; the sort must not
    # form one
    dim = 2 ** 62
    big = dim - 1
    rows = [[0, 1, big], [0, 2, 3], [1, 2 ** 40, big]]
    index, values = _canonical_entries(dim, rows, [1.0, 2.0, 3.0])
    assert index.tolist() == rows and values.tolist() == [1.0, 2.0, 3.0]
    index, values = _canonical_entries(dim, rows[::-1], [3.0, 2.0, 1.0])
    assert index.tolist() == rows and values.tolist() == [1.0, 2.0, 3.0]
