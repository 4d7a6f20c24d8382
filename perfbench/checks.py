"""Checks of each workload's outputs, made apart from the program.

Every check returns ``(name, ok, detail)``.  The references are computed
here from the config, or from the algebra's arrays as the program built
them (``worker.py --dump``), never by calling the package:

* ``rigid-projected``: each recorded state against a DOP853 solve of
  ``G dX/dt = X x (G^-1 X)``;
* ``random32-trace``: each recorded state against a DOP853 solve of the
  Euler ODE assembled here from the canonical entries of ``T`` and from
  ``L`` and ``G``;
* ``torus-k3-probe``: energy, helicity and probe linking held within an
  RK4 drift bound, the curl spectrum against ``+-2 pi |k|`` of the
  wavevectors enumerated here, and sampled triple entries against grid
  quadrature of the basis fields;
* every simulate workload: ``trace.csv`` energy and helicity recomputed
  from ``state.csv`` with ``math.fsum``, and ``summary.json`` step and
  record counts;
* ``diagnose-random32``: every identity with a tolerance within it, and a
  nonzero Jacobiator, as this algebra is not built from a Lie algebra.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

EPS = np.finfo(float).eps

# A recorded state may differ from the reference solve by this share of the
# largest state coordinate.  Measured differences are below 1e-12 of it
# (RK4 at the workload's step plus the reference's own error); a state
# written wrong in its leading digits is far above it.
STATE_RTOL = 1e-10
REFERENCE_RTOL = 1e-13

# Drift bound for the torus invariants over the workload's 24 steps,
# relative to max(1, |initial value|).  Measured drifts are at most 4e-11
# (helicity and probe linking; energy 7e-13).
TORUS_DRIFT_BOUND = 1e-9
# Sampled triple entries and the quadrature grid (exact for K=3 at 3K+2).
QUADRATURE_SAMPLES = 8
QUADRATURE_TOL = 1e-10
SPECTRUM_RTOL = 1e-12

JACOBIATOR_MIN = 1e-3


def _result(name, ok, detail=""):
    return (name, bool(ok), detail)


def read_csv(path):
    """Header and rows of a CSV of floats; empty fields read as NaN."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[float(x) if x else math.nan for x in line.rstrip("\n").split(",")]
                for line in fh]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _dense_triple(dim, index, values):
    """Dense antisymmetric tensor from canonical i < j < k entries."""
    T = np.zeros((dim, dim, dim))
    i, j, k = np.asarray(index).T
    v = np.asarray(values)
    for a, b, c, sign in ((i, j, k, 1), (j, k, i, 1), (k, i, j, 1),
                          (j, i, k, -1), (i, k, j, -1), (k, j, i, -1)):
        T[a, b, c] = sign * v
    return T


def _form_terms(M, states):
    """Per row, the terms M_ij x_i x_j over the nonzeros of M."""
    rows, cols = np.nonzero(M)
    return M[rows, cols] * states[:, rows] * states[:, cols]


def check_invariants_from_states(trace, states, G, L):
    """``trace.csv`` energy and helicity against ``math.fsum`` of the
    quadratic forms at the ``state.csv`` states.

    The program evaluates ``X @ (M @ X)`` in float64, whose error is at
    most about (n + 1) unit roundoffs of the sum of the terms' magnitudes;
    the bound used is twice that.
    """
    out = []
    n = states.shape[1]
    for label, col, M in (("energy", 1, G), ("helicity", 2, L)):
        terms = _form_terms(M, states)
        exact = np.array([math.fsum(row) for row in terms])
        bound = 2.0 * (n + 2) * EPS * np.abs(terms).sum(axis=1)
        err = np.abs(trace[:, col] - exact)
        worst = int(np.argmax(err - bound))
        out.append(_result(
            f"trace.csv {label} equals fsum over state.csv",
            np.all(err <= bound),
            f"worst row {worst}: |{float(trace[worst, col])!r} - "
            f"{float(exact[worst])!r}|, bound {bound[worst]:.3e}"))
    return out


def check_states_against(times, states, rhs, label):
    """Recorded states against a DOP853 solve of ``dX/dt = rhs(X)``."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, x: rhs(x), (times[0], times[-1]), states[0],
                    method="DOP853", rtol=REFERENCE_RTOL, atol=1e-16,
                    t_eval=times)
    if sol.status != 0:
        return [_result(f"states match {label}", False, sol.message)]
    scale = np.abs(sol.y).max()
    err = np.abs(sol.y.T - states).max(axis=1)
    worst = int(np.argmax(err))
    return [_result(
        f"states match {label}", err[worst] <= STATE_RTOL * scale,
        f"worst row {worst} (t={float(times[worst])!r}) off by "
        f"{err[worst]:.3e}, bound {STATE_RTOL * scale:.3e}")]


def _simulate_files(config, out):
    """Checks shared by the simulate workloads; returns (results, trace,
    states) with the CSVs read back."""
    results = []
    names = sorted(os.listdir(out))
    results.append(_result("simulate writes trace.csv, state.csv, summary.json",
                           names == ["state.csv", "summary.json", "trace.csv"],
                           f"found {names}"))
    header_t, trace = read_csv(os.path.join(out, "trace.csv"))
    header_s, states = read_csv(os.path.join(out, "state.csv"))
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    spec = config["integrator"]
    steps = round(spec["t_end"] / spec["dt"])
    every = spec["record_every"]
    records = steps // every + 1 + (1 if steps % every else 0)
    results.append(_result(
        "summary.json has every step and record, and no failure",
        summary["steps"] == steps and summary["records"] == records
        and not summary["failed"] and len(trace) == records == len(states),
        f"steps {summary['steps']}/{steps}, records {summary['records']}/"
        f"{records}, rows {len(trace)}/{len(states)}, failed {summary['failed']}"))
    expected_t = np.minimum(np.arange(records) * every, steps) * spec["dt"]
    results.append(_result(
        "records at the expected times",
        header_t == ["t", "energy", "helicity", "probe_linking"]
        and np.array_equal(trace[:, 0], states[:, 0])
        and np.allclose(trace[:, 0], expected_t, rtol=0, atol=1e-9 * spec["t_end"]),
        "headers or t columns differ"))
    return results, trace, states[:, 1:]


def check_rigid(config, out, algebra=None):
    results, trace, states = _simulate_files(config, out)
    moments = np.array(config["instance"]["moments"], dtype=float)
    G = np.diag(moments)
    results += check_invariants_from_states(trace, states, G, np.eye(3))
    x0 = np.array(config["initial_state"], dtype=float)
    results.append(_result("first record is the initial state",
                           np.array_equal(states[0], x0), f"{states[0]}"))
    results += check_states_against(
        trace[:, 0], states,
        lambda x: np.cross(x, x / moments) / moments,
        "DOP853 solve of G dX/dt = X x (G^-1 X)")
    return results


def check_random(config, out, algebra):
    results, trace, states = _simulate_files(config, out)
    with np.load(algebra) as z:
        L, G = z["linking"], z["metric"]
        T = _dense_triple(L.shape[0], z["index"], z["values"])
    results += check_invariants_from_states(trace, states, G, L)

    def rhs(x):
        dx = np.linalg.solve(G, L @ x)
        return np.linalg.solve(G, np.einsum("ijm,i,j->m", T, x, dx))

    results += check_states_against(trace[:, 0], states, rhs,
                                    "DOP853 solve of the Euler ODE")
    return results


def half_lattice(K):
    """Wavevectors with |k|_inf <= K whose first nonzero component is
    positive, in lexicographic order."""
    return [k for k in itertools.product(range(-K, K + 1), repeat=3)
            if any(k) and next(c for c in k if c) > 0]


def polarizations(k):
    """The documented frame of wavevector k: e1 = unit(k x u), with u the
    first of x, y not parallel to k, and e2 = unit(k) x e1."""
    k = np.asarray(k, dtype=float)
    u = np.array([0.0, 1.0, 0.0]) if k[1] == k[2] == 0 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(k, u)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(k / np.linalg.norm(k), e1)


def torus_field(p, lattice, points):
    """Torus basis field p at points of shape (m, 3): sqrt(2) trig(2 pi k.x)
    e, with per wavevector the slots (e1, cos), (e1, sin), (e2, cos),
    (e2, sin)."""
    k = lattice[p // 4]
    e = polarizations(k)[(p % 4) // 2]
    arg = 2.0 * np.pi * (points @ np.asarray(k, dtype=float))
    trig = np.sin(arg) if p % 2 else np.cos(arg)
    return np.sqrt(2.0) * trig[:, None] * e


def check_torus(config, out, algebra):
    results, trace, states = _simulate_files(config, out)
    K = config["instance"]["K"]
    with np.load(algebra) as z:
        index, values = z["index"], z["values"]
        L, G = z["linking"], z["metric"]
    results += check_invariants_from_states(trace, states, G, L)

    for label, col in (("energy", 1), ("helicity", 2), ("probe linking", 3)):
        v = trace[:, col]
        drift = float(np.max(np.abs(v - v[0])))
        bound = TORUS_DRIFT_BOUND * max(1.0, abs(v[0]))
        results.append(_result(f"torus {label} drift within the RK4 bound",
                               np.all(np.isfinite(v)) and drift <= bound,
                               f"drift {drift:.3e}, bound {bound:.3e}"))

    lattice = half_lattice(K)
    lam = [2.0 * np.pi * math.sqrt(sum(c * c for c in k)) for k in lattice]
    expected = np.sort(np.concatenate([lam, lam, np.negative(lam), np.negative(lam)]))
    err = math.inf
    if L.shape == (len(expected),) * 2:
        err = float(np.max(np.abs(np.linalg.eigvalsh(L) - expected)))
    results.append(_result(
        "torus curl spectrum is +-2 pi |k| over the half lattice",
        np.array_equal(G, np.eye(len(G))) and err <= SPECTRUM_RTOL * expected[-1],
        f"dim {len(G)}, {len(expected)} expected; max eigenvalue error {err:.3e}"))

    n = 3 * K + 2
    g = (np.arange(n) + 0.5) / n
    points = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    # the sampled entries follow the workload's seed
    rng = np.random.default_rng(config["initial_state"]["seed"])
    rows = rng.choice(len(values), QUADRATURE_SAMPLES, replace=False)
    worst = 0.0
    for row in rows:
        p, q, r = (int(x) for x in index[row])
        quad = float(np.mean(np.linalg.det(
            np.stack([torus_field(a, lattice, points) for a in (p, q, r)],
                     axis=-1))))
        worst = max(worst, abs(quad - float(values[row])))
    results.append(_result("sampled torus triple entries match quadrature",
                           worst <= QUADRATURE_TOL, f"worst error {worst:.3e}"))
    return results


def check_diagnose(config, out, algebra=None):
    names = sorted(os.listdir(out))
    results = [_result("diagnose writes diagnostics.json",
                       names == ["diagnostics.json"], f"found {names}")]
    with open(os.path.join(out, "diagnostics.json")) as fh:
        report = json.load(fh)
    diag = config["diagnostics"]
    failing = [r["name"] for r in report["identities"]
               if r["tolerance"] is not None
               and not (r["passed"] and r["max_defect"] <= r["tolerance"])]
    results.append(_result("every identity with a tolerance passes",
                           not failing and report["passed"],
                           f"failing: {failing}"))
    jac = report["algebra"]["jacobiator_norm"]
    results.append(_result(
        "Jacobiator is nonzero on every sample of this non-Lie algebra",
        jac["samples"] == diag["num_triples"] and jac["max"] >= JACOBIATOR_MIN
        and report["algebra"]["kind"] == "random",
        f"{jac}"))
    n = config["instance"]["n"]
    results.append(_result(
        "algebra summary is the dense n=32 random algebra",
        report["algebra"]["dim"] == n
        and report["algebra"]["triple_entries"] == math.comb(n, 3),
        f"{report['algebra']}"))
    return results


CHECKS = {
    "rigid-projected": check_rigid,
    "random32-trace": check_random,
    "torus-k3-probe": check_torus,
    "diagnose-random32": check_diagnose,
}


def check_outputs(workload, config, out, algebra):
    try:
        return CHECKS[workload](config, out, algebra)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [_result(f"{workload} outputs readable", False, repr(exc))]
