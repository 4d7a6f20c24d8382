"""Time integration of the Euler ODE with optional invariant projection.

Fixed-step classical RK4 only; conservation order studies need controlled
steps.  The projected variant pulls each step back onto the intersection
of the energy sphere with the helicity level set by a two-parameter Newton
correction in span{X, DX} (the metric gradients of the two invariants).

The state is carried as an unevaluated sum ``X + X_lo`` of a float64 high
word and a low word.  The RK4 stages run in plain float64 on the high word;
only the step update is compensated (Kahan): the increment plus the low
word is added to the high word by an error-free TwoSum, whose rounding
error becomes the next low word.  From a zero low word the high word is the
plain float64 RK4 step bit for bit.  This keeps the state's rounding from
random-walking over many steps, so the invariants drift at the RK4
truncation order even where that drift is below one ulp of their values.

A probe field Z can be co-evolved with dZ/dt = D' T(X, D Z), using the same
RK4 stages and stage-consistent X values, to measure the invariance of the
probe linking <X, Z> numerically.  There is one step, :func:`_rk4`; with
a probe it advances the (2, n) stack of X over Z through the same stages
and update.  A run records copies of the carried states and evaluates the
float64 invariants of all records at its end (:func:`_trace_records`);
their low words are evaluated on first read, for all records at once.

The operators return non-finite values unjudged; here a non-finite stage
or step result raises :class:`NumericalFailure`, and a non-finite Newton
matrix :class:`ProjectionError`.  A recorded invariant that is not finite
ends a run too: it is judged on the records' float64 invariants, which
the run evaluates anyway, so no step pays for the check.

A single integration is sequential; separate integrations are independent
and may run concurrently.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConfigError,
    FluidAlgebra,
    _FrozenRecord,
    _Record,
    _as_state,
    _lazy_dd_values,
    _number,
    curl,
    energy,
    helicity,
    linking,
    two_sum,
)
from .dynamics import euler_rhs

__all__ = [
    "ProjectionSettings",
    "IntegratorSpec",
    "TraceRecord",
    "IntegrationResult",
    "ProjectionError",
    "NumericalFailure",
    "rk4_step",
    "co_evolve_probe",
    "project_to_invariants",
    "integrate",
]

METHODS = ("rk4", "rk4-projected")

# Condition number of the 2x2 Newton system above which the correction
# directions X and DX are treated as parallel (DX || X) and projection
# degrades to the energy-only rescaling.
_NEWTON_SINGULAR_COND = 1e10


class ProjectionError(RuntimeError):
    """Newton projection ran out of iterations, met a non-finite matrix or
    had a zero-energy state to rescale."""


class NumericalFailure(RuntimeError):
    """A non-finite value appeared during integration."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class ProjectionSettings(_FrozenRecord):
    """The Newton projection's settings; ``tol`` is the relative constraint
    tolerance, stored as a float."""

    __slots__ = ("max_iter", "tol")

    def __init__(self, max_iter: int = 10, tol: float = 1e-12):
        section = "integrator.projection"
        _number(section, "max_iter", max_iter, 1, integer=True)
        self._set(max_iter=max_iter,
                  tol=_number(section, "tol", tol, 0, strict=True))


class IntegratorSpec(_FrozenRecord):
    """The settings of a run; ``dt`` and ``t_end`` are stored as floats."""

    __slots__ = ("method", "dt", "t_end", "record_every", "projection")

    # one default ProjectionSettings serves every spec, as it is a value
    def __init__(self, method="rk4", dt=1e-3, t_end=1.0, record_every=1,
                 projection=ProjectionSettings()):
        if method not in METHODS:
            raise ConfigError(f"bad integrator config: method must be one "
                              f"of {METHODS}, got {method!r}")
        dt = _number("integrator", "dt", dt, 0, strict=True)
        t_end = _number("integrator", "t_end", t_end, 0)
        if not math.isfinite(t_end / dt):
            raise ConfigError(f"bad integrator config: t_end / dt must be "
                              f"finite, got {t_end!r} / {dt!r}")
        _number("integrator", "record_every", record_every, 1, integer=True)
        self._set(method=method, dt=dt, t_end=t_end,
                  record_every=record_every, projection=projection)


class TraceRecord(_Record):
    """One recorded point of an integration.

    ``state`` is the float64 high word of the carried state and
    ``state_lo`` its low word.  ``energy``, ``helicity`` and
    ``probe_linking`` are :class:`~fluidalg.core.DoubleDouble` values: the
    float value is the float64 invariant of ``state``, and the low word
    carries the invariant of ``state + state_lo`` beyond it, so the
    difference of two records resolves drifts below one ulp.  The low
    words of a run are evaluated on the first read of any one, for all
    its records at once, from ``state`` and ``state_lo`` as recorded (so
    write into neither before); a caller that reads only the float values
    never pays for them.
    """

    __slots__ = ("t", "state", "energy", "helicity", "probe_linking",
                 "flag", "state_lo")

    def __init__(self, t, state, energy, helicity, probe_linking=None,
                 flag="", state_lo=None):
        self.t, self.state, self.state_lo = t, state, state_lo
        self.energy, self.helicity = energy, helicity
        self.probe_linking, self.flag = probe_linking, flag


class IntegrationResult(_Record):
    __slots__ = ("records", "steps", "failed", "failure_message",
                 "projection_failures")

    def __init__(self, records: list, steps: int, failed: bool = False,
                 failure_message: str = "", projection_failures: int = 0):
        self.records, self.steps, self.failed = records, steps, failed
        self.failure_message = failure_message
        self.projection_failures = projection_failures


# Overflow ends a step through the finiteness checks below, as a
# NumericalFailure with a one-line message; NumPy's floating-point warnings
# would only repeat it, so the public entry points silence them once, for
# the whole call.
_quiet = np.errstate(all="ignore")


def _check_finite(X: np.ndarray, label: str, t: float) -> None:
    if not np.isfinite(X).all():
        raise NumericalFailure(f"non-finite value in {label} at t={t!r}", t)


def _zero_low(X: np.ndarray) -> np.ndarray:
    # -0.0, not 0.0: x + (-0.0) is x bitwise for every float, -0.0 included,
    # so a zero low word leaves the float64 step unchanged to the bit
    return np.full(X.shape, -0.0)


def _probe_rhs(alg: FluidAlgebra, X, Z) -> np.ndarray:
    # dZ/dt = D' T(X, D Z); since T(X, W) = G^-1 D^T contract(X, W) and
    # D' D = id, this collapses to a single metric solve.
    b = alg.triple.contract_pair(X, curl(alg, Z))
    return alg.solve_metric(b)


def _rhs(alg: FluidAlgebra, X, probe: bool, label: str, t: float):
    """The stage derivative at ``X``: the Euler right-hand side, or with
    ``probe``, that of the velocity ``X[0]`` stacked over that of its probe
    ``X[1]``, which sees the velocity at the same stage."""
    V = X[0] if probe else X
    dV = euler_rhs(alg, V)
    _check_finite(dV, label, t)
    # np.array, not np.stack, which costs 4x as much on small states
    return np.array((dV, _probe_rhs(alg, V, X[1]))) if probe else dV


def _rk4(alg: FluidAlgebra, X, X_lo, dt: float, t0: float,
         probe: bool = False):
    """Compensated RK4 step of the state ``X + X_lo``; stages see ``X``.

    With ``probe``, ``X`` and ``X_lo`` stack the velocity over its probe.
    The probe stages see the velocity at its stage-consistent values, which
    makes the probe linking drift a pure order-4 integrator error, and the
    elementwise update gives each row the bits of its own step.
    """
    k1 = _rhs(alg, X, probe, "stage 1", t0)
    k2 = _rhs(alg, X + 0.5 * dt * k1, probe, "stage 2", t0)
    k3 = _rhs(alg, X + 0.5 * dt * k2, probe, "stage 3", t0)
    k4 = _rhs(alg, X + dt * k3, probe, "stage 4", t0)
    # in place in the sum and in k3 (each _rhs gives a fresh array): the
    # bits of (dt / 6) * (k1 + 2 k2 + 2 k3 + k4) + X_lo
    dX = k1 + 2.0 * k2
    dX += np.multiply(k3, 2.0, out=k3)
    dX += k4
    dX *= dt / 6.0
    dX += X_lo
    X1, X1_lo = two_sum(X, dX)
    _check_finite(X1[0] if probe else X1, "step result", t0 + dt)
    if probe:
        _check_finite(X1[1], "probe step result", t0 + dt)
    return X1, X1_lo


@_quiet
def rk4_step(alg: FluidAlgebra, X, dt: float, t0: float = 0.0) -> np.ndarray:
    """One classical RK4 step of dX/dt = euler_rhs(X), in float64.

    This is the compensated step from a zero low word, whose high word is
    the plain float64 RK4 update.
    """
    X = _as_state(alg.dim, X, "X")
    return _rk4(alg, X, _zero_low(X), dt, t0)[0]


@_quiet
def co_evolve_probe(alg: FluidAlgebra, X, Z, dt: float,
                    t0: float = 0.0) -> np.ndarray:
    """Advance the probe by one RK4 step of dZ/dt = D' T(X, D Z).

    X is advanced internally along its own Euler stages so the probe sees
    stage-consistent velocity values; only the new probe is returned.
    """
    S = np.stack((_as_state(alg.dim, X, "X"), _as_state(alg.dim, Z, "Z")))
    return _rk4(alg, S, _zero_low(S), dt, t0, probe=True)[0][1]


@_quiet
def project_to_invariants(alg: FluidAlgebra, X, E0: float, H0: float,
                          settings: ProjectionSettings = ProjectionSettings(),
                          ) -> np.ndarray:
    """Pull X back onto {energy = E0, helicity = H0}.

    The corrected state is X' = (1 + 2a) X + 2b DX, the minimal correction
    within the span of the two constraint gradients; (a, b) solve the two
    constraint equations by Newton iteration.  When DX is parallel to X the
    2x2 system is singular (detected at condition number 1e10) and the
    projection falls back to the energy-only radial rescaling.

    Returns X' with |energy - E0| <= tol * E0 and
    |helicity - H0| <= tol * max(|H0|, E0); raises ProjectionError if the
    iteration budget is exhausted first, the Newton matrix is not finite,
    the radial fallback meets a state of zero energy (X = 0 off the
    targets), which no rescaling moves, or the targets are out of reach:
    E0 negative or not finite, or H0 not finite.
    """
    X = _as_state(alg.dim, X, "X")
    if not (0.0 <= E0 < math.inf and math.isfinite(H0)):
        raise ProjectionError(
            f"no state has energy {E0!r} and helicity {H0!r}")
    e_tol = settings.tol * E0
    h_tol = settings.tol * max(abs(H0), E0)
    e_X = energy(alg, X)
    fE, fH = e_X - E0, helicity(alg, X) - H0
    if abs(fE) <= e_tol and abs(fH) <= h_tol:
        return X

    DX = curl(alg, X)
    GX = alg.apply_metric(X)
    GD = alg.apply_metric(DX)
    LX = alg.apply_linking(X)
    LD = alg.apply_linking(DX)
    u, a, b = X, 0.0, 0.0
    for _ in range(settings.max_iter):
        J = np.array(
            [
                [4.0 * (u @ GX), 4.0 * (u @ GD)],
                [4.0 * (u @ LX), 4.0 * (u @ LD)],
            ]
        )
        if not np.all(np.isfinite(J)):
            raise ProjectionError("non-finite Newton matrix in projection")
        if np.linalg.cond(J) > _NEWTON_SINGULAR_COND:
            # DX || X: energy and helicity constraints are not independent
            if e_X <= 0.0:
                raise ProjectionError("cannot rescale a zero-energy state")
            return X * np.sqrt(E0 / e_X)
        da, db = np.linalg.solve(J, [-fE, -fH])
        a += da
        b += db
        u = (1.0 + 2.0 * a) * X + (2.0 * b) * DX
        fE, fH = energy(alg, u) - E0, helicity(alg, u) - H0
        if abs(fE) <= e_tol and abs(fH) <= h_tol:
            return u
    raise ProjectionError(
        f"projection did not converge in {settings.max_iter} iterations"
    )


def _plan_steps(dt: float, t_end: float):
    """Number of full dt steps plus an optional closing remainder step."""
    if t_end == 0.0:
        return 0, 0.0
    ratio = t_end / dt
    n = int(round(ratio))
    if n > 0 and abs(n * dt - t_end) <= 1e-9 * max(dt, t_end):
        return n, 0.0
    n = int(np.floor(ratio))
    return n, t_end - n * dt


@_quiet
def integrate(alg: FluidAlgebra, X0, spec: IntegratorSpec,
              probe=None) -> IntegrationResult:
    """Advance X from t=0 to t=t_end, recording invariants along the way.

    Records are taken at t=0, every ``record_every`` steps, and at t_end.
    With a probe, Z is co-advanced through the same RK4 stages and the
    record carries the probe linking <X, Z>.  X and Z are carried with low
    words through compensated steps, and each record holds the invariants
    of the carried state as double-doubles (see :class:`TraceRecord`).
    With method "rk4-projected", every step is followed by the invariant
    projection of the high word, which resets the low word to zero; a
    projection failure falls back to the unprojected step and flags the
    record.

    On numerical failure the partial trace is preserved and the result is
    marked failed.  The last good state, at the start of the failed step,
    ends the trace with the flag "numerical-failure", after the flags of
    the steps since the last record: on a new record, or on the record
    already taken at that time.  A recorded energy, helicity or probe
    linking that is not finite also ends the run: the first such record
    ends the trace with that flag, and ``steps`` counts the steps up to
    it (see :func:`_trace_records`).  A start whose invariants are not
    finite takes no step.
    """
    X = _as_state(alg.dim, X0, "X0")
    E0 = energy(alg, X)
    H0 = helicity(alg, X)
    # the carried state is the velocity, or the velocity stacked over the
    # probe; X[v] is the velocity
    has_probe = probe is not None
    v = 0 if has_probe else ...
    if has_probe:
        X = np.stack((X, _as_state(alg.dim, probe, "probe")))
    X_lo = _zero_low(X)
    result = IntegrationResult(records=[], steps=0)
    rows: list = []  # [t, steps, X, X_lo, Z, Z_lo, flags] per record

    def _record(t, flags):
        if rows and rows[-1][0] == t:
            # the state at t is already recorded: flag that row rather
            # than write a second one at the same time
            rows[-1][-1] += flags
            return
        # copies: a view of a row would keep the whole step array alive
        Z, Z_lo = (X[1].copy(), X_lo[1].copy()) if has_probe else (None, None)
        rows.append([t, result.steps, X[v].copy(), X_lo[v].copy(), Z, Z_lo,
                     flags])

    _record(0.0, [])
    n_full, remainder = _plan_steps(spec.dt, spec.t_end)
    total_steps = n_full + (1 if remainder > 0.0 else 0)
    # a start whose invariants are not finite ends the run at t=0, where
    # _trace_records flags it: no step is taken from it
    start = [E0, H0, linking(alg, X[0], X[1])] if has_probe else [E0, H0]
    if not np.isfinite(start).all():
        total_steps = 0
    pending_flags: list = []

    for step in range(total_steps):
        t = step * spec.dt
        dt = spec.dt if step < n_full else remainder
        is_last = step == total_steps - 1
        # the last step ends at t_end, not at (n dt)'s rounding of it
        t_next = spec.t_end if is_last else (step + 1) * spec.dt
        try:
            # each step returns new arrays, so they are written in place
            X, X_lo = _rk4(alg, X, X_lo, dt, t, has_probe)
            if spec.method == "rk4-projected":
                try:
                    X[v] = project_to_invariants(alg, X[v], E0, H0,
                                                 spec.projection)
                    X_lo[v] = -0.0
                except ProjectionError:
                    pending_flags.append("projection-failed")
        except NumericalFailure as exc:
            result.failed = True
            result.failure_message = str(exc)
            _record(t, pending_flags + ["numerical-failure"])
            break
        result.steps = step + 1
        if (step + 1) % spec.record_every == 0 or is_last:
            _record(t_next, pending_flags)
            pending_flags = []
    _trace_records(alg, rows, result)
    return result


def _trace_records(alg: FluidAlgebra, rows: list,
                   result: IntegrationResult) -> None:
    """Set ``result.records`` to the :class:`TraceRecord` of each row
    ``[t, steps, X, X_lo, Z, Z_lo, flags]``, taken after ``steps`` steps,
    and ``result.projection_failures`` to the count of their
    "projection-failed" flags.

    Energy, helicity and, with a probe, the probe linking are evaluated on
    the (R, n) block of the recorded states, whose rows have the bits of
    each state alone.  The first row with one of them not finite ends the
    run: the rows after it are dropped and, unless a failed step already
    flagged it, it takes the flag "numerical-failure" and the run fails
    with its step count, naming the first invariant that is not finite.
    The low words of the carried states ``X + X_lo`` and ``Z + Z_lo`` are
    those of :func:`~fluidalg.core.dd_values`, evaluated on first read.
    """
    t, steps, X, X_lo, Z, Z_lo, flags = zip(*rows)
    block = np.array(X)
    values = [energy(alg, block), helicity(alg, block)]
    if Z[0] is not None:
        values.append(linking(alg, block, np.array(Z)))
    finite = np.isfinite(values)
    bad = np.flatnonzero(~finite.all(axis=0))
    n = bad[0] + 1 if bad.size else len(rows)
    if bad.size and "numerical-failure" not in flags[n - 1]:
        flags[n - 1].append("numerical-failure")
        name = ("energy", "helicity", "probe linking")[
            np.argmin(finite[:, n - 1])]
        result.failed = True
        result.failure_message = (f"non-finite {name} in record at "
                                  f"t={t[n - 1]!r}")
        result.steps = steps[n - 1]
    result.projection_failures = sum(
        f.count("projection-failed") for f in flags[:n])
    X, X_lo = X[:n], X_lo[:n]
    energies = _lazy_dd_values(alg, "metric", values[0][:n], X, X_lo)
    helicities = _lazy_dd_values(alg, "linking", values[1][:n], X, X_lo)
    linkings = [None] * n
    if Z[0] is not None:
        linkings = _lazy_dd_values(alg, "linking", values[2][:n], X, X_lo,
                                   Z[:n], Z_lo[:n])
    result.records = [
        TraceRecord(t=t_r, state=x, energy=e, helicity=h, probe_linking=p,
                    flag=",".join(f), state_lo=x_lo)
        for t_r, x, x_lo, f, e, h, p
        in zip(t, X, X_lo, flags, energies, helicities, linkings)
    ]
