"""Mechanical verification of the algebra/dynamics identities.

Runs every proved identity over a seeded sample of states and reports the
worst scaled defect per identity.  Defects are normalized: each sample's
raw defect is divided by a scale built from the metric norms of the inputs
times the largest triple-tensor entry (or the largest linking entry for
the curl identities), so the recorded tolerances are dimensionless.

Vector defects are measured in the metric norm, functional defects in the
dual metric norm.  The samples run through the operators in blocks of
states, which give each sample the bits it has alone.
"""

from __future__ import annotations

import numpy as np

from .core import (
    FluidAlgebra,
    _Record,
    _number,
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

# every identity of the dynamics contract, in report order, with its
# relative tolerance; None marks a reported-only quantity
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
IDENTITY_NAMES = tuple(_TOLERANCES)

_JACOBIATOR_LIE_TOL = 1e-11
_FLOOR = 1e-300


class IdentityResult(_Record):
    __slots__ = ("name", "max_defect", "tolerance", "passed")

    # None: max_defect when nothing was sampled, tolerance for a
    # reported-only quantity, passed for either
    def __init__(self, name, max_defect, tolerance, passed):
        self.name, self.max_defect, self.tolerance, self.passed = (
            name, max_defect, tolerance, passed)


class DiagnosticsReport(_Record):
    __slots__ = ("identities", "algebra_summary", "sample")

    def __init__(self, identities=None, algebra_summary=None):
        self.identities = [] if identities is None else identities
        self.algebra_summary = ({} if algebra_summary is None
                                else algebra_summary)
        # num_states, num_triples and seed of the sample the suite ran on
        self.sample = {}

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
            "identities": [r._asdict() for r in self.identities],
            "algebra": self.algebra_summary,
        }


# Rows per block of the suite.  Each identity's operator calls are made
# once per block of states, and a block gives every row the bits of that
# state alone, so the report does not depend on this size.  Larger blocks
# cost memory for little time: at n = 32 (2-core x86), 200-row blocks
# raised the suite's peak resident memory by 0.55 MB over 50-row ones,
# and their time difference was within the machine's run-to-run spread.
_BLOCK_ROWS = 50


# Largest sample size.  A size past NumPy's index range would end in a
# traceback.  The suite holds a few blocks of states, whatever the size,
# so the bound is one of time: 200 states and 200 triples take about
# 12 ms at n = 32.
_MAX_SAMPLE = 10 ** 6

# The sample sizes and the seed that the suite takes when not given them.
_NUM_STATES, _NUM_TRIPLES, _SEED = 20, 40, 2024


def _check_sample(num_states=_NUM_STATES, num_triples=_NUM_TRIPLES,
                  seed=_SEED) -> None:
    """Raise :class:`ConfigError` unless the sample sizes and the seed are
    ``int`` values (not ``bool``) with ``2 <= num_states <= _MAX_SAMPLE``,
    ``0 <= num_triples <= _MAX_SAMPLE`` and ``seed >= 0``.  A value not
    given takes the suite's default."""
    _number("diagnostics", "num_states", num_states, 2, integer=True,
            most=_MAX_SAMPLE)
    _number("diagnostics", "num_triples", num_triples, 0, integer=True,
            most=_MAX_SAMPLE)
    _number("diagnostics", "seed", seed, 0, integer=True)


def _median(v: np.ndarray) -> float:
    """``float(np.median(v))`` of a nonempty 1-D array, bit for bit, with
    the NaN of ``v`` when it holds one.  ``np.median`` itself imports
    ``numpy.ma``, 9-13 ms on a 2-core x86, a third of the suite's time at
    n = 32."""
    s = np.sort(v)
    if np.isnan(s[-1]):  # sorting puts NaN last
        return float(s[-1])
    half = s.size // 2
    # np.median takes the mean of the middle one or two
    return float(np.mean(s[half - 1 + s.size % 2:half + 1]))


# A non-finite defect fails its identity; NumPy's floating-point warnings
# would only repeat it, so they are silenced once, for the whole suite.
@np.errstate(all="ignore")
def run_identity_suite(alg: FluidAlgebra, num_states: int = _NUM_STATES,
                       seed: int = _SEED,
                       num_triples: int = _NUM_TRIPLES) -> DiagnosticsReport:
    """Evaluate every identity over a seeded random sample of states.

    The arguments are checked by :func:`_check_sample`.  Sample k
    pairs state k with its neighbours k + 1 and k + 2, wrapping around the
    whole sample, and the states are drawn and run through the operators
    in blocks of ``_BLOCK_ROWS`` rows, so the suite's memory does not grow
    with ``num_states``.
    """
    _check_sample(num_states, num_triples, seed)
    rng = make_rng(seed)
    n = alg.dim
    t_max = max(alg.triple.max_abs(), _FLOOR)
    l_max = max(alg._L.max_abs, _FLOOR)

    worst = dict.fromkeys(IDENTITY_NAMES, 0.0)

    def bump(name, defect, scale):
        # np.maximum, unlike Python's max, keeps a NaN defect
        ratio = defect / np.maximum(scale, _FLOOR)
        if ratio.size:
            worst[name] = np.maximum(worst[name], ratio.max())

    # The states are drawn a block at a time, one block ahead, so the
    # memory they take does not grow with the sample: the generator fills
    # in order, so the stream is that of one draw.  The neighbours of a
    # block's rows are its own, the next block's first two and, wrapping
    # around, rows 0 and 1 of the first block, kept as ``head``.
    head = block = rng.standard_normal((min(_BLOCK_ROWS, num_states), n))
    for start in range(0, num_states, _BLOCK_ROWS):
        rows = len(block)
        ahead = rng.standard_normal(
            (min(_BLOCK_ROWS, num_states - start - rows), n))
        window = np.concatenate((block, ahead[:2], head[:2]))
        X, Y, Z = window[:rows], window[1:rows + 1], window[2:rows + 2]
        block = ahead
        nx, ny, nz = g_norm(alg, X), g_norm(alg, Y), g_norm(alg, Z)

        bump(
            "triple-alternating",
            np.abs(alg.triple(X, X, Z)),
            t_max * nx * nx * nz,
        )

        DX = curl(alg, X)
        bump(
            "curl-defining-relation",
            np.abs(metric_inner(alg, DX, Y) - linking(alg, X, Y)),
            l_max * nx * ny,
        )
        bump(
            "curl-self-adjoint",
            np.abs(metric_inner(alg, DX, Y)
                   - metric_inner(alg, X, curl(alg, Y))),
            l_max * nx * ny,
        )
        roundtrip = inverse_curl(alg, DX)
        bump("curl-inverse-roundtrip", g_norm(alg, roundtrip - X), nx)

        V = euler_rhs(alg, X)
        nDX = g_norm(alg, DX)
        rhs_scale = t_max * nx * nDX
        bump("energy-orthogonality", np.abs(metric_inner(alg, V, X)),
             rhs_scale * nx)
        bump("helicity-orthogonality", np.abs(metric_inner(alg, V, DX)),
             rhs_scale * nDX)

        a = curl(alg, V)
        b = transport(alg, X, DX)
        c = vorticity_rhs(alg, DX)
        ref = np.maximum(np.maximum(g_norm(alg, a), g_norm(alg, b)),
                         g_norm(alg, c))
        # a row with a NaN value is kept, so that its NaN defect fails
        moved = ref != 0.0
        bump("transport-equality",
             np.maximum(g_norm(alg, a - b), g_norm(alg, a - c))[moved],
             ref[moved])

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
            np.abs(linking(alg, br, Z) - triple(alg, X, Y, Z)),
            t_max * nx * ny * nz,
        )

        DZ = curl(alg, Z)
        cancel = triple(alg, X, DX, DZ) + triple(alg, X, DZ, DX)
        bump("circulation-pairing-cancellation", np.abs(cancel), 1.0)

        bump(
            "circulation-defect-zero",
            g_dual_norm(alg, circulation_defect(alg, V, X)),
            t_max * nx * nDX,
        )

    # the triples are drawn after the states, block by block, in the order
    # X, Y, Z of each triple
    jac_samples = []
    for start in range(0, num_triples, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, num_triples - start)
        X, Y, Z = np.ascontiguousarray(
            rng.standard_normal((rows, 3, n)).transpose(1, 0, 2))
        scale = t_max * g_norm(alg, X) * g_norm(alg, Y) * g_norm(alg, Z)
        jac_samples.append(
            g_norm(alg, jacobiator(alg, X, Y, Z)) / np.maximum(scale, _FLOOR)
        )
    # with no triple drawn the Jacobiator has no sample: its statistics are
    # None and the identity is neither passed nor failed
    jac_stats = {"max": None, "mean": None, "median": None, "samples": 0}
    if jac_samples:
        jac_samples = np.concatenate(jac_samples)
        jac_stats = {
            "max": float(np.max(jac_samples)),
            "mean": float(np.mean(jac_samples)),
            "median": _median(jac_samples),
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
    report.sample = {"num_states": num_states, "num_triples": num_triples,
                     "seed": seed}
    report.algebra_summary = {
        "dim": alg.dim,
        "kind": alg.meta.get("kind", "custom"),
        "triple_entries": alg.triple.nnz,
        "metric_condition": alg.metric_condition,
        "linking_condition": alg.linking_condition,
        "jacobiator_norm": jac_stats,
    }
    return report
