"""Benchmark of `fluidalg simulate` and `fluidalg diagnose`.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload torus-k3-probe --seed 1 --seconds 60 --trace 0

The workload's config is written from the seed.  Each pass runs the command
once in a fresh process (``worker.py``) and records its set-up, compute and
total time and its peak memory; passes repeat until ``--seconds`` have been
spent.  The outputs of every pass are checked (``checks.py``).  The last line
printed is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  The line before it records the
machine and the library versions.  See README.md for what each figure
means and how it is summarised.
"""

import os

# one BLAS/OpenMP thread, here and in every pass (set before NumPy loads)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def _seeds(seed: int, count: int):
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def rigid_projected(seed):
    # a fixed input: the seed does not enter it
    return "simulate", {
        "instance": {"name": "rigid-body", "moments": [1, 2, 3]},
        "initial_state": [0.0, 1.0, 1.0],
        "integrator": {"method": "rk4-projected", "dt": 1e-3, "t_end": 10.0,
                       "record_every": 100},
    }


def random32_trace(seed):
    alg_seed, state_seed = _seeds(seed, 2)
    return "simulate", {
        "instance": {"name": "random", "seed": alg_seed, "n": 32},
        "initial_state": {"seed": state_seed, "norm": 1.0},
        "integrator": {"method": "rk4", "dt": 0.25, "t_end": 500.0,
                       "record_every": 1},
    }


def torus_k3_probe(seed):
    state_seed, probe_seed = _seeds(seed, 2)
    return "simulate", {
        "instance": {"name": "torus", "K": 3, "max_dim": 684},
        "initial_state": {"seed": state_seed, "norm": 1.0},
        "probe": {"seed": probe_seed, "norm": 1.0},
        "integrator": {"method": "rk4", "dt": 1e-3, "t_end": 0.024,
                       "record_every": 1},
    }


def diagnose_random32(seed):
    alg_seed, diag_seed = _seeds(seed, 2)
    return "diagnose", {
        "instance": {"name": "random", "seed": alg_seed, "n": 32},
        "diagnostics": {"num_states": 200, "num_triples": 200,
                        "seed": diag_seed},
    }


WORKLOADS = {
    "rigid-projected": rigid_projected,
    "random32-trace": random32_trace,
    "torus-k3-probe": torus_k3_probe,
    "diagnose-random32": diagnose_random32,
}


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Pass:
    """One fresh-process run of the command, and what it recorded."""

    def __init__(self, root, work, command, config_path, trace=False,
                 dump=False):
        self.out = os.path.join(work, "out")
        shutil.rmtree(self.out, ignore_errors=True)
        result = os.path.join(work, "pass.json")
        opts = []
        self.spans = os.path.join(work, "spans.npz") if trace else None
        self.algebra = os.path.join(work, "algebra.npz") if dump else None
        if trace:
            opts += ["--trace", self.spans]
        if dump:
            opts += ["--dump", self.algebra]
        argv = [sys.executable, os.path.join(HERE, "worker.py"), root, result,
                *opts, "--", command, "--config", config_path,
                "--output", self.out]
        t_spawn = time.monotonic()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
        self.stderr = proc.stderr
        self.ok = proc.returncode == 0
        self.exit_code = proc.returncode
        if not self.ok:
            return
        with open(result) as fh:
            rec = json.load(fh)
        self.exit_code = rec["exit_code"]
        self.ok = self.exit_code == 0 and len(rec["phase_calls"]) == 1
        if not self.ok:
            return
        (p0, p1), = rec["phase_calls"]
        self.setup_s = p0 - t_spawn
        self.compute_s = p1 - p0
        self.wall_s = rec["main_end"] - t_spawn
        self.import_s = rec["import_end"] - rec["import_start"]
        self.peak_rss_mb = rec["peak_rss_kb"] / 1024.0
        self.digest = {name: _sha256(os.path.join(self.out, name))
                       for name in sorted(os.listdir(self.out))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fluidalg", "cli.py")):
        print("perfbench: run from the root of a fluidalg checkout "
              "(src/fluidalg/cli.py not found)", file=sys.stderr)
        return 2

    import checks
    import layers

    command, config = WORKLOADS[args.workload](args.seed)
    work = os.path.join(root, OUT_DIR, args.workload)
    os.makedirs(work, exist_ok=True)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2)

    # compile the package and fill the file cache before anything is timed
    subprocess.run([sys.executable, "-c", "import fluidalg.cli"],
                   env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
                   timeout=PASS_TIMEOUT_S)

    attempted = failed = 0
    problems = []
    passes = []
    traced = []
    reference = None
    start = time.monotonic()
    deadline = start + args.seconds
    while True:
        t0 = time.monotonic()
        # the traced run alternates untraced and traced passes
        trace = bool(args.trace) and len(passes) % 2 == 1
        p = Pass(root, work, command, config_path, trace=trace,
                 dump=not passes)
        attempted += 1
        if not p.ok:
            failed += 1
            problems.append(f"pass {len(passes)} exit {p.exit_code}: "
                            f"{p.stderr.strip()[-500:]}")
            break
        if reference is None:
            reference = p.digest
            results = checks.check_outputs(args.workload, config, p.out,
                                           p.algebra)
        else:
            results = [("outputs byte-identical to the first pass",
                        p.digest == reference, "")]
        if trace:
            table = layers.SpanTable.load(p.spans)
            results += layers.check_counts(args.workload, table)
            traced.append(layers.from_spans(table, p))
        for name, ok, detail in results:
            attempted += 1
            if not ok:
                failed += 1
                problems.append(f"{name}: {detail}")
        passes.append(p)
        now = time.monotonic()
        enough = len(passes) >= (2 * MIN_PASSES if args.trace else MIN_PASSES)
        if enough and now + (now - t0) > deadline:
            break

    if len(traced) > 1:
        attempted += 1
        if not layers.counts_agree(traced):
            failed += 1
            problems.append("traced counts differ between passes")

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "config": config, "environment": env, "problems": problems,
              "passes": [
                  {k: getattr(p, k) for k in ("setup_s", "compute_s", "wall_s",
                                              "import_s", "peak_rss_mb")}
                  for p in passes]}
    plain = [p for p in passes if p.spans is None]
    metrics = {}
    if args.trace and traced:
        metrics = layers.summarise(traced, plain)
    elif not args.trace and passes:
        metrics = end_to_end(passes)
    record["metrics"] = metrics
    with open(os.path.join(work, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


# ---------------------------------------------------------------------------
# end-to-end figures: each time is the fastest of the run's passes, and peak
# memory the median (see README.md for the measurements behind that choice)


def end_to_end(passes) -> dict:
    def fastest(attr):
        return min(getattr(p, attr) for p in passes)

    return {
        "setup_s": {"value": fastest("setup_s"), "unit": "s"},
        "compute_s": {"value": fastest("compute_s"), "unit": "s"},
        "wall_s": {"value": fastest("wall_s"), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(p.peak_rss_mb for p in passes),
            "unit": "MB",
        },
    }


if __name__ == "__main__":
    sys.exit(main())
