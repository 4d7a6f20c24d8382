"""Euler dynamics on a fluid algebra.

The evolution of a velocity state X is defined weakly by

    (dX/dt, Z) = {X, D X, Z}        for every Z,

so the right-hand side is ``G^-1 c`` with ``c_m = sum_ij T[i,j,m] X_i (DX)_j``.
Energy (X, X) and helicity (X, D X) are first integrals: pairing the RHS
with X or D X lands in the alternating form with a repeated argument.

The companion operators implemented here:

* ``vorticity_rhs`` -- evolution of Y = D X, paired as {D'Y, Y, D Z},
* ``transport``     -- infinitesimal transport, (T(X,Z), W) = {X, Z, D W},
* ``induced_bracket`` -- [X, Y] with <[X,Y], Z> = {X, Y, Z},
* ``jacobiator``    -- cyclic bracket sum; zero exactly when the algebra
  comes from a Lie algebra with invariant pairing,
* ``circulation_defect`` -- residual functional that vanishes only on the
  Euler right-hand side (the uniqueness characterization).

All functions are pure; they share the metric and linking inverses
precomputed once per ``FluidAlgebra`` value.  Each takes single states
(n,) or (B, n) blocks of states with one B, and gives a block the rows it
gives each of its states alone, bit for bit (see :mod:`fluidalg.core`).

They return what IEEE arithmetic gives, ``inf`` and ``nan`` included, and
never judge it: the integrator and the identity suite, which need finite
numbers, are the only judges.
"""

from __future__ import annotations

import numpy as np

from .core import FluidAlgebra, _as_state, curl, inverse_curl

__all__ = [
    "euler_rhs",
    "vorticity_rhs",
    "transport",
    "induced_bracket",
    "jacobiator",
    "circulation_defect",
]


def euler_rhs(alg: FluidAlgebra, X) -> np.ndarray:
    """Right-hand side of the Euler ODE: V with (V, Z) = {X, D X, Z}."""
    DX = curl(alg, X)
    c = alg.triple.contract_pair(X, DX)
    return alg.solve_metric(c)


def vorticity_rhs(alg: FluidAlgebra, Y) -> np.ndarray:
    """Evolution of a vorticity state: W with (W, Z) = {D'Y, Y, D Z}."""
    X = inverse_curl(alg, Y)
    b = alg.triple.contract_pair(X, Y)
    # {X, Y, D Z} = b . (D Z) = (D^T b) . Z, and G^-1 D^T = G^-1 L G^-1,
    # which is curl applied after a metric solve.
    return curl(alg, alg.solve_metric(b))


def transport(alg: FluidAlgebra, X, Z) -> np.ndarray:
    """Infinitesimal transport of Z by X: t with (t, W) = {X, Z, D W}."""
    X = _as_state(alg.dim, X, "X", block=True)
    Z = _as_state(alg.dim, Z, "Z", like=X)
    b = alg.triple.contract_pair(X, Z)
    return curl(alg, alg.solve_metric(b))


def induced_bracket(alg: FluidAlgebra, X, Y) -> np.ndarray:
    """Bracket [X, Y] defined through the linking form: <[X,Y], Z> = {X,Y,Z}."""
    b = alg.triple.contract_pair(X, Y)
    return alg.solve_linking(b)


def jacobiator(alg: FluidAlgebra, X, Y, Z) -> np.ndarray:
    """Cyclic sum [[X,Y],Z] + [[Y,Z],X] + [[Z,X],Y] of the induced bracket.

    Its norm is the Jacobi defect: identically zero on algebras built from
    a Lie algebra with invariant pairing, generically nonzero otherwise.
    """
    X = _as_state(alg.dim, X, "X", block=True)
    Z = _as_state(alg.dim, Z, "Z", like=X)
    return (
        induced_bracket(alg, induced_bracket(alg, X, Y), Z)
        + induced_bracket(alg, induced_bracket(alg, Y, Z), X)
        + induced_bracket(alg, induced_bracket(alg, Z, X), Y)
    )


def circulation_defect(alg: FluidAlgebra, F, X) -> np.ndarray:
    """Residual functional separating F from the Euler right-hand side at X.

    Returns r with ``r . Z = (F, D Z) - {X, D X, D Z}`` for every Z; as a
    probe-linking balance this vanishes iff F is the Euler RHS, and since D
    is invertible the residual detects any perturbation of F.  Both pairings
    are deterministic, so at F = euler_rhs(X) the residual is exactly zero.
    """
    F = _as_state(alg.dim, F, "F", block=True)
    X = _as_state(alg.dim, X, "X", like=F)
    DX = curl(alg, X)
    c = alg.triple.contract_pair(X, DX)
    # (F, D Z) = (L F) . Z  since D^T G = L;  {X, DX, D Z} = (L G^-1 c) . Z
    return alg.apply_linking(F) - alg.apply_linking(alg.solve_metric(c))
