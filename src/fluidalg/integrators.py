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
Records carry the invariants of ``X + X_lo`` as double-doubles.

A probe field Z can be co-evolved with dZ/dt = D' T(X, D Z), using the same
RK4 stages and stage-consistent X values, to measure the invariance of the
probe linking <X, Z> numerically.

A single integration is sequential; separate integrations are independent
and may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    FluidAlgebra,
    curl,
    dd_values,
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
    """Newton projection failed to converge within its iteration budget."""


class NumericalFailure(RuntimeError):
    """A non-finite value appeared during integration."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class ProjectionSettings:
    max_iter: int = 10
    tol: float = 1e-12  # relative constraint tolerance


@dataclass(frozen=True)
class IntegratorSpec:
    method: str = "rk4"
    dt: float = 1e-3
    t_end: float = 1.0
    record_every: int = 1
    projection: ProjectionSettings = field(default_factory=ProjectionSettings)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(
                f"t_end must be finite and >= 0, got {self.t_end!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class TraceRecord:
    """One recorded point of an integration.

    ``state`` is the float64 high word of the carried state and
    ``state_lo`` its low word.  ``energy``, ``helicity`` and
    ``probe_linking`` are :class:`~fluidalg.core.DoubleDouble` values: the
    float value is the float64 invariant of ``state``, and the low word
    carries the invariant of ``state + state_lo`` beyond it, so the
    difference of two records resolves drifts below one ulp.
    """

    t: float
    state: np.ndarray
    energy: float
    helicity: float
    probe_linking: float | None = None
    flag: str = ""
    state_lo: np.ndarray | None = None


@dataclass
class IntegrationResult:
    records: list
    steps: int
    failed: bool = False
    failure_message: str = ""
    projection_failures: int = 0

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


# Overflow ends a step through the finiteness checks below, as a
# NumericalFailure with a one-line message; NumPy's floating-point warnings
# would only repeat it, so the public entry points silence them once, for
# the whole call.
_quiet = np.errstate(all="ignore")


def _checked(stage: np.ndarray, label: str, t: float) -> np.ndarray:
    if not np.all(np.isfinite(stage)):
        raise NumericalFailure(f"non-finite value in {label} at t={t!r}", t)
    return stage


def _stage_rhs(alg, X, label: str, t: float) -> np.ndarray:
    try:
        return euler_rhs(alg, X)
    except FloatingPointError as exc:
        raise NumericalFailure(f"non-finite value in {label} at t={t!r}",
                               t) from exc


def _zero_low(X: np.ndarray) -> np.ndarray:
    # -0.0, not 0.0: x + (-0.0) is x bitwise for every float, -0.0 included,
    # so a zero low word leaves the float64 step unchanged to the bit
    return np.full(X.shape, -0.0)


def _compensated_add(X, X_lo, inc):
    """Kahan update of the state ``X + X_lo`` by ``inc``: (high, low) words."""
    return two_sum(X, inc + X_lo)


def _rk4(alg: FluidAlgebra, X, X_lo, dt: float, t0: float):
    """Compensated RK4 step of the state ``X + X_lo``; stages see ``X``."""
    k1 = _stage_rhs(alg, X, "stage 1", t0)
    k2 = _stage_rhs(alg, X + 0.5 * dt * k1, "stage 2", t0)
    k3 = _stage_rhs(alg, X + 0.5 * dt * k2, "stage 3", t0)
    k4 = _stage_rhs(alg, X + dt * k3, "stage 4", t0)
    X1, X1_lo = _compensated_add(
        X, X_lo, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    )
    return _checked(X1, "step result", t0 + dt), X1_lo


@_quiet
def rk4_step(alg: FluidAlgebra, X, dt: float, t0: float = 0.0) -> np.ndarray:
    """One classical RK4 step of dX/dt = euler_rhs(X), in float64.

    This is the compensated step from a zero low word, whose high word is
    the plain float64 RK4 update.
    """
    X = alg.state(X, "X")
    return _rk4(alg, X, _zero_low(X), dt, t0)[0]


def _probe_rhs(alg: FluidAlgebra, X, Z) -> np.ndarray:
    # dZ/dt = D' T(X, D Z); since T(X, W) = G^-1 D^T contract(X, W) and
    # D' D = id, this collapses to a single metric solve.
    b = alg.triple.contract_pair(X, curl(alg, Z))
    return alg.solve_metric(b)


def _rk4_joint(alg: FluidAlgebra, X, X_lo, Z, Z_lo, dt: float, t0: float):
    """Compensated RK4 step of the coupled (velocity, probe) system.

    The probe stages see the velocity at its stage-consistent values, which
    is what makes the probe linking drift a pure order-4 integrator error.
    Both fields are carried as high and low words, as in :func:`_rk4`;
    returns ``(X1, X1_lo, Z1, Z1_lo)``.
    """
    k1x = _stage_rhs(alg, X, "stage 1", t0)
    k1z = _probe_rhs(alg, X, Z)
    x2 = X + 0.5 * dt * k1x
    k2x = _stage_rhs(alg, x2, "stage 2", t0)
    k2z = _probe_rhs(alg, x2, Z + 0.5 * dt * k1z)
    x3 = X + 0.5 * dt * k2x
    k3x = _stage_rhs(alg, x3, "stage 3", t0)
    k3z = _probe_rhs(alg, x3, Z + 0.5 * dt * k2z)
    x4 = X + dt * k3x
    k4x = _stage_rhs(alg, x4, "stage 4", t0)
    k4z = _probe_rhs(alg, x4, Z + dt * k3z)
    X1, X1_lo = _compensated_add(
        X, X_lo, (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    )
    Z1, Z1_lo = _compensated_add(
        Z, Z_lo, (dt / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
    )
    return (
        _checked(X1, "step result", t0 + dt),
        X1_lo,
        _checked(Z1, "probe step result", t0 + dt),
        Z1_lo,
    )


@_quiet
def co_evolve_probe(alg: FluidAlgebra, X, Z, dt: float,
                    t0: float = 0.0) -> np.ndarray:
    """Advance the probe by one RK4 step of dZ/dt = D' T(X, D Z).

    X is advanced internally along its own Euler stages so the probe sees
    stage-consistent velocity values; only the new probe is returned.
    """
    X = alg.state(X, "X")
    Z = alg.state(Z, "Z")
    return _rk4_joint(alg, X, _zero_low(X), Z, _zero_low(Z), dt, t0)[2]


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
    iteration budget is exhausted first.
    """
    X = alg.state(X, "X")
    e_tol = settings.tol * E0
    h_tol = settings.tol * max(abs(H0), E0)

    def _converged(u):
        return (
            abs(energy(alg, u) - E0) <= e_tol
            and abs(helicity(alg, u) - H0) <= h_tol
        )

    if _converged(X):
        return X

    DX = curl(alg, X)
    GX = alg.apply_metric(X)
    GD = alg.apply_metric(DX)
    LX = alg.apply_linking(X)
    LD = alg.apply_linking(DX)
    a = b = 0.0
    for _ in range(settings.max_iter):
        u = (1.0 + 2.0 * a) * X + (2.0 * b) * DX
        fE = energy(alg, u) - E0
        fH = helicity(alg, u) - H0
        if abs(fE) <= e_tol and abs(fH) <= h_tol:
            return u
        J = np.array(
            [
                [4.0 * (u @ GX), 4.0 * (u @ GD)],
                [4.0 * (u @ LX), 4.0 * (u @ LD)],
            ]
        )
        if not np.all(np.isfinite(J)) or np.linalg.cond(J) > _NEWTON_SINGULAR_COND:
            # DX || X: energy and helicity constraints are not independent
            e_now = energy(alg, X)
            if e_now <= 0.0:
                return X
            return X * np.sqrt(E0 / e_now)
        da, db = np.linalg.solve(J, [-fE, -fH])
        a += da
        b += db
    u = (1.0 + 2.0 * a) * X + (2.0 * b) * DX
    if _converged(u):
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
    already taken at that time.
    """
    X = alg.state(X0, "X0")
    X_lo = zero_low = _zero_low(X)  # low words are never written in place
    Z = Z_lo = None
    if probe is not None:
        Z = alg.state(probe, "probe")
        Z_lo = _zero_low(Z)
    E0 = energy(alg, X)
    H0 = helicity(alg, X)
    records: list = []
    probes: list = []  # (Z, Z_lo) at each record

    def _record(t, flag=""):
        records.append(TraceRecord(
            t=t,
            state=X.copy(),
            energy=energy(alg, X),
            helicity=helicity(alg, X),
            probe_linking=None if Z is None else linking(alg, X, Z),
            flag=flag,
            state_lo=X_lo.copy(),
        ))
        if Z is not None:
            probes.append((Z, Z_lo))

    _record(0.0)
    n_full, remainder = _plan_steps(spec.dt, spec.t_end)
    total_steps = n_full + (1 if remainder > 0.0 else 0)
    result = IntegrationResult(records=records, steps=0)
    pending_flags: list = []

    for step in range(total_steps):
        t = step * spec.dt
        dt = spec.dt if step < n_full else remainder
        t_next = (step + 1) * spec.dt if step < n_full else spec.t_end
        try:
            if Z is None:
                X, X_lo = _rk4(alg, X, X_lo, dt, t)
            else:
                X, X_lo, Z, Z_lo = _rk4_joint(alg, X, X_lo, Z, Z_lo, dt, t)
            if spec.method == "rk4-projected":
                try:
                    X = project_to_invariants(alg, X, E0, H0, spec.projection)
                    X_lo = zero_low
                except ProjectionError:
                    result.projection_failures += 1
                    pending_flags.append("projection-failed")
        except NumericalFailure as exc:
            result.failed = True
            result.failure_message = str(exc)
            flags = pending_flags + ["numerical-failure"]
            if records[-1].t == t:
                # the last good state is already recorded: flag that row
                # rather than write a second one at the same time
                last = records[-1]
                last.flag = ",".join(filter(None, [last.flag, *flags]))
            else:
                _record(t, flag=",".join(flags))
            break
        result.steps = step + 1
        is_last = step == total_steps - 1
        if (step + 1) % spec.record_every == 0 or is_last:
            flag = ",".join(pending_flags)
            pending_flags = []
            _record(t_next, flag=flag)
    _attach_low_words(alg, records, probes)
    return result


def _attach_low_words(alg: FluidAlgebra, records: list, probes: list):
    """Turn each record's float64 invariants into double-doubles of its
    carried state, evaluated for all records in one batch."""
    X = [r.state for r in records]
    X_lo = [r.state_lo for r in records]
    energies = dd_values(alg, "metric", [r.energy for r in records], X, X_lo)
    helicities = dd_values(
        alg, "linking", [r.helicity for r in records], X, X_lo
    )
    linkings = [None] * len(records)
    if probes:
        linkings = dd_values(
            alg, "linking", [r.probe_linking for r in records], X, X_lo,
            [z for z, _ in probes], [z_lo for _, z_lo in probes],
        )
    for r, e, h, p in zip(records, energies, helicities, linkings):
        r.energy, r.helicity, r.probe_linking = e, h, p
