"""Per-layer figures of the traced run, read from the spans of its passes.

Names are ``<module>.<function>.<figure>``:

* ``calls`` -- calls in one pass of the command;
* ``us`` -- median duration of one call, in microseconds;
* ``self_us`` -- median self time of one call (its duration minus its
  wrapped children's), in microseconds;
* ``s`` / ``self_s`` -- summed duration / self time over one pass, in
  seconds;
* per-step counts are calls made inside a step span, over the steps.

Counts repeat exactly from pass to pass.  Each time is the fastest of the
traced passes, the statistic used for the end-to-end times too.
"""

from __future__ import annotations

import os

from spans import SpanTable

STEP = "integrators.step"

# (metric, unit): every per-layer metric, in BENCHMARK.json's order.
METRICS = (
    ("core.contract_pair.calls", "count"),
    ("core.contract_pair.us", "us"),
    ("core.contract_pair.bytes", "bytes"),
    ("core.solve_metric.calls", "count"),
    ("core.solve_metric.us", "us"),
    ("core.curl.self_us", "us"),
    ("dynamics.euler_rhs.calls", "count"),
    ("dynamics.euler_rhs.self_us", "us"),
    ("core.solve_linking.calls", "count"),
    ("core.solve_linking.us", "us"),
    ("dynamics.induced_bracket.calls", "count"),
    ("dynamics.transport.calls", "count"),
    ("diagnostics.run_identity_suite.self_s", "s"),
    ("core.dd_values.rows", "count"),
    ("core.dd_values.us_per_row", "us"),
    ("integrators.step.calls", "count"),
    ("integrators.step.us", "us"),
    ("integrators.integrate.self_s", "s"),
    ("integrators.rhs_per_step", "count/step"),
    ("integrators.solves_per_step", "count/step"),
    ("integrators.contractions_per_step", "count/step"),
    ("integrators.project_to_invariants.calls", "count"),
    ("integrators.project_to_invariants.us", "us"),
    ("instances.build_torus_algebra.s", "s"),
    ("core.validate.s", "s"),
    ("instances.random_algebra.s", "s"),
    ("cli.import.s", "s"),
    ("cli.write.s", "s"),
    ("cli.write.bytes", "bytes"),
    ("trace.compute_s", "s"),
    ("trace.overhead_s", "s"),
)

COUNTS = {name for name, unit in METRICS if unit in ("count", "count/step", "bytes")}


def from_spans(t: SpanTable, p) -> dict:
    """The per-layer figures of one traced pass ``p`` (a ``run.Pass``)."""
    steps = t.calls(STEP)
    per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
    contractions = t.calls("core.contract_pair")
    rows = t.sizes.get("core.dd_values", 0)
    us = 1e6
    return {
        "core.contract_pair.calls": contractions,
        "core.contract_pair.us": t.median("core.contract_pair") * us,
        "core.contract_pair.bytes": (
            t.sizes.get("core.contract_pair", 0) // contractions if contractions else 0),
        "core.solve_metric.calls": t.calls("core.solve_metric"),
        "core.solve_metric.us": t.median("core.solve_metric") * us,
        "core.curl.self_us": t.self_median("core.curl") * us,
        "dynamics.euler_rhs.calls": t.calls("dynamics.euler_rhs"),
        "dynamics.euler_rhs.self_us": t.self_median("dynamics.euler_rhs") * us,
        "core.solve_linking.calls": t.calls("core.solve_linking"),
        "core.solve_linking.us": t.median("core.solve_linking") * us,
        "dynamics.induced_bracket.calls": t.calls("dynamics.induced_bracket"),
        "dynamics.transport.calls": t.calls("dynamics.transport"),
        "diagnostics.run_identity_suite.self_s":
            t.self_total("diagnostics.run_identity_suite"),
        "core.dd_values.rows": rows,
        "core.dd_values.us_per_row": (
            t.total("core.dd_values") * us / rows if rows else 0.0),
        "integrators.step.calls": steps,
        "integrators.step.us": t.median(STEP) * us,
        "integrators.integrate.self_s": t.self_total("integrators.integrate"),
        "integrators.rhs_per_step":
            per_step(t.calls_within("dynamics.euler_rhs", STEP)),
        "integrators.solves_per_step": per_step(
            t.calls_within("core.solve_metric", STEP)
            + t.calls_within("core.solve_linking", STEP)),
        "integrators.contractions_per_step":
            per_step(t.calls_within("core.contract_pair", STEP)),
        "integrators.project_to_invariants.calls":
            t.calls("integrators.project_to_invariants"),
        "integrators.project_to_invariants.us":
            t.median("integrators.project_to_invariants") * us,
        "instances.build_torus_algebra.s": t.total("instances.build_torus_algebra"),
        "core.validate.s": t.total("core.validate"),
        "instances.random_algebra.s": t.total("instances.random_algebra"),
        "cli.write.s": t.total("cli.write"),
        "cli.write.bytes": sum(os.path.getsize(os.path.join(p.out, f))
                               for f in os.listdir(p.out)),
        "cli.import.s": p.import_s,
        "trace.compute_s": p.compute_s,
    }


# Hand counts per step: a plain RK4 step makes 4 Euler right-hand sides,
# each one contraction and two metric solves (curl, then the RHS solve);
# with a probe each stage adds one contraction and two metric solves.
EXPECTED_PER_STEP = {
    "rigid-projected": (4, 4, 8),
    "random32-trace": (4, 4, 8),
    "torus-k3-probe": (4, 8, 16),
}


def check_counts(workload, t: SpanTable):
    """The traced pass's per-step counts against the hand counts."""
    steps = t.calls(STEP)
    got = (t.calls_within("dynamics.euler_rhs", STEP),
           t.calls_within("core.contract_pair", STEP),
           t.calls_within("core.solve_metric", STEP)
           + t.calls_within("core.solve_linking", STEP))
    if workload not in EXPECTED_PER_STEP:
        return [("diagnose makes no integration step", steps == 0,
                 f"{steps} steps")]
    expected = tuple(steps * k for k in EXPECTED_PER_STEP[workload])
    results = [(
        "per-step RHS, contraction and solve counts equal the hand count",
        steps > 0 and got == expected, f"{got} for {steps} steps, expected {expected}")]
    if workload == "rigid-projected":
        projections = t.calls("integrators.project_to_invariants")
        results.append(("one projection per step", projections == steps,
                         f"{projections} projections, {steps} steps"))
    return results


def summarise(traced, plain) -> dict:
    """Per-layer metrics of a traced run: counts from the traced passes
    (which must agree), times as the fastest traced pass, import time as
    the fastest of all passes, and the tracing overhead as the fastest
    traced compute phase minus the fastest untraced one."""
    out = {}
    for name, unit in METRICS:
        if name == "cli.import.s":
            value = min([p.import_s for p in plain] + [f[name] for f in traced])
        elif name == "trace.overhead_s":
            value = (min(f["trace.compute_s"] for f in traced)
                     - min(p.compute_s for p in plain))
        elif name in COUNTS:
            value = traced[0][name]
        else:
            value = min(f[name] for f in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def counts_agree(traced) -> bool:
    return all(f[name] == traced[0][name] for f in traced for name in COUNTS)
