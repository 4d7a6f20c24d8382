"""Mechanical verification of the algebra/dynamics identities.

Runs every proved identity over a seeded sample of states and reports the
worst scaled defect per identity.  Defects are normalized: each sample's
raw defect is divided by a scale built from the metric norms of the inputs
times the largest triple-tensor entry (or the largest linking entry for
the curl identities), so the recorded tolerances are dimensionless.

Vector defects are measured in the metric norm, functional defects in the
dual metric norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    FluidAlgebra,
    curl,
    g_dual_norm,
    g_norm,
    inverse_curl,
    linking,
    make_rng,
    metric_inner,
    triple,
)
from .dynamics import (
    circulation_defect,
    euler_rhs,
    induced_bracket,
    jacobiator,
    transport,
    vorticity_rhs,
)

__all__ = [
    "IdentityResult",
    "DiagnosticsReport",
    "IDENTITY_NAMES",
    "run_identity_suite",
]

# every identity of the dynamics contract, in report order
IDENTITY_NAMES = (
    "triple-alternating",
    "curl-defining-relation",
    "curl-self-adjoint",
    "curl-inverse-roundtrip",
    "energy-orthogonality",
    "helicity-orthogonality",
    "transport-equality",
    "transport-antisymmetry",
    "bracket-antisymmetry",
    "bracket-triple-compatibility",
    "circulation-pairing-cancellation",
    "circulation-defect-zero",
    "jacobiator",
)

# relative tolerances; None marks a reported-only quantity
_TOLERANCES = {
    "triple-alternating": 1e-12,
    "curl-defining-relation": 1e-11,
    "curl-self-adjoint": 1e-11,
    "curl-inverse-roundtrip": 1e-10,
    "energy-orthogonality": 1e-12,
    "helicity-orthogonality": 1e-12,
    "transport-equality": 1e-10,
    "transport-antisymmetry": 1e-12,
    "bracket-antisymmetry": 1e-12,
    "bracket-triple-compatibility": 1e-11,
    "circulation-pairing-cancellation": 0.0,
    "circulation-defect-zero": 1e-11,
    "jacobiator": None,
}

_JACOBIATOR_LIE_TOL = 1e-11
_FLOOR = 1e-300


@dataclass
class IdentityResult:
    name: str
    max_defect: float | None  # None when nothing was sampled
    tolerance: float | None
    passed: bool | None

    def to_dict(self):
        return {
            "name": self.name,
            "max_defect": self.max_defect,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass
class DiagnosticsReport:
    identities: list = field(default_factory=list)
    algebra_summary: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.identities if r.passed is not None)

    def identity(self, name: str) -> IdentityResult:
        for r in self.identities:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self):
        return {
            "passed": self.passed,
            "identities": [r.to_dict() for r in self.identities],
            "algebra": self.algebra_summary,
        }


def _dense_triple(alg, X, Y, Z):
    # contract the stored (n, n, n) array itself when there is one, so that
    # a defect in it shows; the pair kernels are exactly alternating
    T = alg.triple.dense
    if T is not None:
        n = alg.dim
        return float((T.reshape(n * n, n) @ Z) @ np.outer(X, Y).ravel())
    return alg.triple(X, Y, Z)


# A non-finite defect fails its identity; NumPy's floating-point warnings
# would only repeat it, so they are silenced once, for the whole suite.
@np.errstate(all="ignore")
def run_identity_suite(alg: FluidAlgebra, num_states: int = 20,
                       seed: int = 2024,
                       num_triples: int = 40) -> DiagnosticsReport:
    """Evaluate every identity over a seeded random sample of states."""
    rng = make_rng(seed)
    n = alg.dim
    states = [rng.standard_normal(n) for _ in range(max(num_states, 2))]
    t_max = max(alg.triple.max_abs(), _FLOOR)
    l_max = max(float(np.max(np.abs(alg.linking))), _FLOOR)

    worst = {name: 0.0 for name in IDENTITY_NAMES}

    def bump(name, defect, scale):
        worst[name] = max(worst[name], defect / max(scale, _FLOOR))

    for idx, X in enumerate(states):
        Y = states[(idx + 1) % len(states)]
        Z = states[(idx + 2) % len(states)]
        nx, ny, nz = g_norm(alg, X), g_norm(alg, Y), g_norm(alg, Z)

        bump(
            "triple-alternating",
            abs(_dense_triple(alg, X, X, Z)),
            t_max * nx * nx * nz,
        )

        DX = curl(alg, X)
        bump(
            "curl-defining-relation",
            abs(metric_inner(alg, DX, Y) - linking(alg, X, Y)),
            l_max * nx * ny,
        )
        bump(
            "curl-self-adjoint",
            abs(metric_inner(alg, DX, Y) - metric_inner(alg, X, curl(alg, Y))),
            l_max * nx * ny,
        )
        roundtrip = inverse_curl(alg, DX)
        bump("curl-inverse-roundtrip", g_norm(alg, roundtrip - X), nx)

        V = euler_rhs(alg, X)
        rhs_scale = t_max * nx * g_norm(alg, DX)
        bump("energy-orthogonality", abs(metric_inner(alg, V, X)),
             rhs_scale * nx)
        bump("helicity-orthogonality", abs(metric_inner(alg, V, DX)),
             rhs_scale * g_norm(alg, DX))

        a = curl(alg, V)
        b = transport(alg, X, DX)
        c = vorticity_rhs(alg, DX)
        ref = max(g_norm(alg, a), g_norm(alg, b), g_norm(alg, c))
        if ref > 0.0:
            bump("transport-equality",
                 max(g_norm(alg, a - b), g_norm(alg, a - c)), ref)

        bump(
            "transport-antisymmetry",
            g_norm(alg, transport(alg, X, Z) + transport(alg, Z, X)),
            t_max * nx * nz,
        )
        br = induced_bracket(alg, X, Y)
        bump(
            "bracket-antisymmetry",
            g_norm(alg, br + induced_bracket(alg, Y, X)),
            t_max * nx * ny,
        )
        bump(
            "bracket-triple-compatibility",
            abs(linking(alg, br, Z) - triple(alg, X, Y, Z)),
            t_max * nx * ny * nz,
        )

        DZ = curl(alg, Z)
        cancel = triple(alg, X, DX, DZ) + triple(alg, X, DZ, DX)
        bump("circulation-pairing-cancellation", abs(cancel), 1.0)

        bump(
            "circulation-defect-zero",
            g_dual_norm(alg, circulation_defect(alg, V, X)),
            t_max * nx * g_norm(alg, DX),
        )

    jac_samples = []
    for _ in range(num_triples):
        X, Y, Z = (rng.standard_normal(n) for _ in range(3))
        scale = t_max * g_norm(alg, X) * g_norm(alg, Y) * g_norm(alg, Z)
        jac_samples.append(
            g_norm(alg, jacobiator(alg, X, Y, Z)) / max(scale, _FLOOR)
        )
    # with no triple drawn the Jacobiator has no sample: its statistics are
    # None and the identity is neither passed nor failed
    jac_stats = {"max": None, "mean": None, "median": None, "samples": 0}
    if jac_samples:
        jac_samples = np.array(jac_samples)
        jac_stats = {
            "max": float(np.max(jac_samples)),
            "mean": float(np.mean(jac_samples)),
            "median": float(np.median(jac_samples)),
            "samples": int(jac_samples.size),
        }
    worst["jacobiator"] = jac_stats["max"]

    is_lie = alg.meta.get("kind") == "lie"
    identities = []
    for name in IDENTITY_NAMES:
        tol = _TOLERANCES[name]
        if name == "jacobiator" and is_lie:
            tol = _JACOBIATOR_LIE_TOL
        defect = worst[name]
        passed = None if tol is None or defect is None else bool(defect <= tol)
        identities.append(IdentityResult(
            name, None if defect is None else float(defect), tol, passed
        ))

    report = DiagnosticsReport(identities=identities)
    report.algebra_summary = {
        "dim": alg.dim,
        "kind": alg.meta.get("kind", "custom"),
        "triple_entries": alg.triple.nnz,
        "metric_condition": alg.metric_condition,
        "linking_condition": alg.linking_condition,
        "jacobiator_norm": jac_stats,
    }
    return report
