"""Command-line front end: simulate, diagnose, instances.

Configs are JSON; outputs are deterministic (byte-identical for identical
inputs on one platform): ``trace.csv`` and ``state.csv`` use LF endings,
``.`` decimals and shortest round-trip float formatting; ``summary.json``
echoes the integrator settings as run, the other sections as given.  The
JSON outputs are strict: a non-finite value is written as ``null``, and
its dotted key is listed under a top-level ``non_finite``.

Exit codes: 0 success, 1 config error, 2 numerical failure (partial
outputs flushed), 3 validation failure.  ``main`` alone turns exceptions
into codes: a usage error, a ``ConfigError``, an ``OSError`` or a
``GenerationError`` exits 1, and an ``Algebra*Error`` exits 3.  Every
instance builder validates the algebra it returns, once, so a failed
``validate`` exits 3 whichever instance built the algebra.  Each
numeric setting is checked and defaulted once, by the library object that
owns it, which raises ``ConfigError`` with the line printed here; the CLI
passes on only the settings a config gives and checks only the config's
shape, its paths, the state forms and its own caps.  The subcommands
return 2 for a failed integration and 3 for a failed identity suite.
``FLUIDALG_SEED_OVERRIDE`` (integer) overrides every seed a run uses, for
CI reruns.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .core import (
    AlgebraDataError,
    AlgebraFormatError,
    AlgebraValidationError,
    ConfigError,
    FluidAlgebra,
    _is_finite_real,
    _is_real,
    _number,
    g_norm,
    load_algebra,
    make_rng,
)
from .diagnostics import _check_sample, run_identity_suite
from .instances import (
    TORUS_MAX_DIM,
    GenerationError,
    beltrami_state,
    build_torus_algebra,
    random_algebra,
    rigid_body,
    so3,
)
from .integrators import IntegratorSpec, ProjectionSettings, integrate

__all__ = ["main", "entry"]

SEED_OVERRIDE_ENV = "FLUIDALG_SEED_OVERRIDE"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VALIDATION = 3

# Building the random instance peaks at about 2.2 n^3 floats: its n^3 draw,
# 128 MiB at this n, beside the (i, j, k) index of its C(n, 3) canonical
# slots.  Measured at this n: 277 MiB by tracemalloc, a 315 MB process.
RANDOM_MAX_N = 256

# Objects and arrays a config may nest, counting the config itself.  The
# deepest field read, integrator.projection.tol, is 3 deep; the writers
# recurse over the echoed config, and depth 500 exhausted the stack.
MAX_CONFIG_DEPTH = 32

INSTANCE_SCHEMAS = [
    ("rigid-body", "moments: [I1, I2, I3], all > 0"),
    ("so3", "no parameters"),
    ("torus", f"K: int >= 1; max_dim: int (default {TORUS_MAX_DIM})"),
    ("random", f"seed: int; n: int, 1 <= n <= {RANDOM_MAX_N}"),
    ("custom", "path: JSON algebra file (dim/triple/linking/metric)"),
]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fluidalg",
        description="Finite-dimensional fluid algebra simulator and checker.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="integrate the Euler ODE and write CSV traces"
    )
    sim.set_defaults(run=cmd_simulate)
    sim.add_argument("--config", required=True, help="JSON config path")
    sim.add_argument("--output", default=None, help="output directory")
    sim.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry by dotted path, e.g. integrator.dt=1e-3",
    )

    diag = sub.add_parser(
        "diagnose", help="run the identity suite against an instance"
    )
    diag.set_defaults(run=cmd_diagnose)
    diag.add_argument("--config", required=True, help="JSON config path")
    diag.add_argument("--output", default=None, help="output directory")

    inst = sub.add_parser("instances", help="list built-in instances")
    inst.set_defaults(run=cmd_instances)
    return parser


# ---------------------------------------------------------------------------
# config handling


def _config(args) -> dict:
    """The config file of ``args``, its ``--set`` overrides applied, then
    checked for depth, then the seed override applied."""
    cfg = _apply_overrides(_load_config(args.config),
                           getattr(args, "overrides", ()))
    if not _nests_within(cfg, MAX_CONFIG_DEPTH):
        raise ConfigError(
            f"config nests deeper than {MAX_CONFIG_DEPTH} objects and arrays")
    return _override_seeds(cfg, _seed_override())


def _nests_within(value, depth: int) -> bool:
    # whether value nests at most depth objects and arrays; the recursion
    # stops one level past depth
    if not isinstance(value, (dict, list)):
        return True
    if depth == 0:
        return False
    items = value.values() if isinstance(value, dict) else value
    return all(_nests_within(v, depth - 1) for v in items)


def _load_config(path) -> dict:
    try:
        # JSON text is UTF-8 (RFC 8259)
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _apply_overrides(cfg: dict, overrides) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except RecursionError as exc:
            raise ConfigError(f"--set value of {key!r}: {exc}") from exc
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = value
    return cfg


def _seed_override():
    raw = os.environ.get(SEED_OVERRIDE_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(
            f"{SEED_OVERRIDE_ENV} must be an integer, got {raw!r}"
        ) from exc


def _override_seeds(cfg: dict, seed) -> dict:
    if seed is None:
        return cfg
    inst = cfg.get("instance")
    if isinstance(inst, dict) and "seed" in inst:
        inst["seed"] = seed
    for key in ("initial_state", "probe"):
        val = cfg.get(key)
        if isinstance(val, dict) and "seed" in val:
            val["seed"] = seed
    # the diagnose seed has a default, so an absent section takes the seed
    diag = cfg.setdefault("diagnostics", {})
    if isinstance(diag, dict):
        diag["seed"] = seed
    return cfg


def _given(section: dict, keys) -> dict:
    """The settings among ``keys`` that ``section`` gives, by key."""
    return {key: section[key] for key in keys if key in section}


def _path(label: str, value) -> str:
    """A path field of the config, checked: a string, never a number,
    which ``open`` reads as a file descriptor (0 is stdin)."""
    if isinstance(value, str):
        return value
    raise ConfigError(f"{label} must be a path string, got {value!r}")


def _build_instance(spec) -> tuple:
    """Returns (algebra, torus_basis_or_None)."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError('config needs an "instance" object with a "name"')
    name = spec["name"]
    if name == "rigid-body":
        moments = spec.get("moments")
        if (
            not isinstance(moments, (list, tuple))
            or len(moments) != 3
        ):
            raise ConfigError('rigid-body needs "moments": [I1, I2, I3]')
        return rigid_body(*moments), None
    if name == "so3":
        return so3(), None
    if name == "torus":
        if "K" not in spec:
            raise ConfigError('torus needs "K"')
        return build_torus_algebra(spec["K"], **_given(spec, ("max_dim",)))
    if name == "random":
        if "seed" not in spec or "n" not in spec:
            raise ConfigError('random needs "seed" and "n"')
        # the cap is the CLI's own: random_algebra takes any n >= 1
        _number("instance", "n", spec["n"], 1, integer=True, most=RANDOM_MAX_N)
        return random_algebra(spec["seed"], spec["n"]), None
    if name == "custom":
        if "path" not in spec:
            raise ConfigError('custom needs "path"')
        return load_algebra(_path("instance.path", spec["path"])), None
    known = ", ".join(name for name, _ in INSTANCE_SCHEMAS)
    raise ConfigError(f"unknown instance {name!r}; known: {known}")


_AXIS_PRESETS = {"axis1": 0, "axis2": 1, "axis3": 2}


def _resolve_state(alg: FluidAlgebra, basis, form, label: str) -> np.ndarray:
    if isinstance(form, (list, tuple)):
        if not all(_is_real(x) for x in form):
            raise ConfigError(f"{label} coordinates must be numbers")
        if not all(_is_finite_real(x) for x in form):
            raise ConfigError(f"{label} coordinates must be finite")
        state = np.asarray(form, dtype=float)
        if state.shape != (alg.dim,):
            raise ConfigError(
                f"{label} has {state.size} coordinates, expected {alg.dim}"
            )
        return state
    if isinstance(form, str):
        if form in _AXIS_PRESETS:
            axis = _AXIS_PRESETS[form]
            if axis >= alg.dim:
                raise ConfigError(f"{label} preset {form!r} needs dim > {axis}")
            state = np.zeros(alg.dim)
            state[axis] = 1.0
            return state
        if form == "beltrami":
            if basis is None:
                raise ConfigError(
                    f"{label} preset 'beltrami' needs the torus instance"
                )
            return beltrami_state(basis)
        raise ConfigError(f"unknown {label} preset {form!r}")
    if isinstance(form, dict):
        if "seed" not in form:
            raise ConfigError(f"{label} object form needs a \"seed\"")
        norm = _number(label, "norm", form.get("norm", 1.0), 0, strict=True)
        rng = make_rng(_number(label, "seed", form["seed"], 0, integer=True))
        state = rng.standard_normal(alg.dim)
        current = g_norm(alg, state)
        if current == 0.0:
            raise ConfigError(f"{label} random draw degenerate")
        return state * (norm / current)
    raise ConfigError(
        f"{label} must be a coordinate list, a preset name, or "
        f'{{"seed": ..., "norm": ...}}'
    )


def _integrator_spec(cfg: dict) -> IntegratorSpec:
    section = cfg.get("integrator")
    if not isinstance(section, dict):
        raise ConfigError('config needs an "integrator" object')
    proj = section.get("projection", {})
    if not isinstance(proj, dict):
        raise ConfigError('"integrator.projection" must be an object')
    for key in ("dt", "t_end"):
        if key not in section:
            raise ConfigError(f"integrator config missing {key!r}")
    return IntegratorSpec(
        **_given(section, ("method", "dt", "t_end", "record_every")),
        projection=ProjectionSettings(**_given(proj, ("max_iter", "tol"))),
    )


def _echo_config(cfg: dict, spec: IntegratorSpec, output_dir: str) -> dict:
    return {
        "instance": cfg.get("instance"),
        "initial_state": cfg.get("initial_state"),
        "probe": cfg.get("probe"),
        # the spec's fields in order, the projection's nested as a dict
        "integrator": {**spec._asdict(),
                       "projection": spec.projection._asdict()},
        "output_dir": output_dir,
    }


# ---------------------------------------------------------------------------
# output writers


def _fmt(x: float) -> str:
    return repr(float(x))


def _max_drift(values) -> float:
    # NaN when any difference is: max() would drop it, since every
    # comparison with NaN is false
    drifts = [abs(v - values[0]) for v in values]
    return math.nan if any(map(math.isnan, drifts)) else max(drifts)


def _write_trace(path, times, series: dict) -> None:
    """``trace.csv``: a row per record, ``t`` then each series of
    ``series``, a series that is None (no probe) left empty."""
    columns = [[_fmt(x) for x in values] if values is not None
               else [""] * len(times)
               for values in (times, *series.values())]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(("t", *series)) + "\n")
        for row in zip(*columns):
            fh.write(",".join(row) + "\n")


def _write_states(path, records, dim: int) -> None:
    header = "t," + ",".join(f"x{i}" for i in range(dim))
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for r in records:
            # repr of a Python float is _fmt of the float64
            coords = ",".join(map(repr, r.state.tolist()))
            fh.write(f"{_fmt(r.t)},{coords}\n")


def _finite(value, path: tuple, non_finite: list):
    """``value`` with each non-finite float in it replaced by None, whose
    dotted key (list items by index) is appended to ``non_finite``."""
    if isinstance(value, dict):
        return {k: _finite(v, path + (k,), non_finite)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v, path + (i,), non_finite)
                for i, v in enumerate(value)]
    if isinstance(value, float) and not math.isfinite(value):
        non_finite.append(".".join(map(str, path)))
        return None
    return value


def _write_json(path, payload: dict) -> None:
    """Strict JSON: a non-finite float is written as null, and the dotted
    keys of those values are listed under a top-level ``non_finite``, which
    is present only when one is."""
    non_finite: list = []
    payload = _finite(payload, (), non_finite)
    if non_finite:
        payload["non_finite"] = non_finite
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg = _config(args)
    spec = _integrator_spec(cfg)
    output_dir = args.output or _path("output_dir",
                                      cfg.get("output_dir", "."))
    if "initial_state" not in cfg:
        raise ConfigError('config needs "initial_state"')

    alg, basis = _build_instance(cfg.get("instance"))
    X0 = _resolve_state(alg, basis, cfg["initial_state"], "initial_state")
    probe = None
    if cfg.get("probe") is not None:
        probe = _resolve_state(alg, basis, cfg["probe"], "probe")

    os.makedirs(output_dir, exist_ok=True)
    result = integrate(alg, X0, spec, probe=probe)
    records = result.records

    # the invariant series by column of trace.csv: the float64 values it
    # writes, which the summary reports and recomputes its drifts from,
    # not from the records' low words; None for a run without a probe
    series = {name: None if getattr(records[0], name) is None
              else [float(getattr(r, name)) for r in records]
              for name in ("energy", "helicity", "probe_linking")}

    _write_trace(os.path.join(output_dir, "trace.csv"),
                 [r.t for r in records], series)
    _write_states(os.path.join(output_dir, "state.csv"), records, alg.dim)
    summary = {
        "tool": "fluidalg",
        "version": __version__,
        "config": _echo_config(cfg, spec, output_dir),
        "dim": alg.dim,
        "initial": {k: None if v is None else v[0] for k, v in series.items()},
        "final": {k: None if v is None else v[-1] for k, v in series.items()},
        **{f"max_{k}_drift": None if v is None else _max_drift(v)
           for k, v in series.items()},
        "steps": result.steps,
        "records": len(records),
        "projection_failures": result.projection_failures,
        "failed": result.failed,
        "failure_message": result.failure_message,
    }
    _write_json(os.path.join(output_dir, "summary.json"), summary)
    if result.failed:
        print(f"numerical failure: {result.failure_message}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_diagnose(args) -> int:
    cfg = _config(args)
    output_dir = args.output or _path("output_dir",
                                      cfg.get("output_dir", "."))
    diag_cfg = cfg.get("diagnostics", {})
    if not isinstance(diag_cfg, dict):
        raise ConfigError('"diagnostics" must be an object')
    sample = _given(diag_cfg, ("num_states", "num_triples", "seed"))
    _check_sample(**sample)

    alg, _ = _build_instance(cfg.get("instance"))
    report = run_identity_suite(alg, **sample)
    os.makedirs(output_dir, exist_ok=True)
    payload = {
        "tool": "fluidalg",
        "version": __version__,
        "instance": cfg.get("instance"),
        "diagnostics": report.sample,
    }
    payload.update(report.to_dict())
    _write_json(os.path.join(output_dir, "diagnostics.json"), payload)
    for r in report.identities:
        status = "pass" if r.passed else ("FAIL" if r.passed is not None else "info")
        tol = "-" if r.tolerance is None else f"{r.tolerance:g}"
        defect = "-" if r.max_defect is None else f"{r.max_defect:10.3e}"
        print(f"{r.name:34s} defect {defect:>10s}  tol {tol:>8s}  {status}")
    if not report.passed:
        print("identity suite FAILED", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_instances(_args) -> int:
    print("built-in instances:")
    for name, schema in INSTANCE_SCHEMAS:
        print(f"  {name:12s} {schema}")
    return EXIT_OK


def main(argv=None) -> int:
    """The exit code of the command line ``argv`` (``sys.argv[1:]`` when
    None): parse it and run the chosen subcommand.  This is the one place
    where an exception becomes an exit code: configuration, file and
    instance-building errors exit 1 and algebra errors exit 3, each with a
    one-line message.  argparse exits 0 for ``--help`` and ``--version``
    and 1 (see ``_Parser``) on a usage error."""
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    except (ConfigError, OSError, GenerationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AlgebraValidationError, AlgebraFormatError, AlgebraDataError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())
