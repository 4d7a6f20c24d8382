"""One pass of the benchmark: a fresh process that runs one `fluidalg`
command through ``fluidalg.cli.main`` and records when its phases ran.

Usage (from ``run.py``, never by hand)::

    python3 perfbench/worker.py ROOT RESULT.json -- simulate --config C --output D

The package is imported from ``ROOT/src``.  ``fluidalg.cli.integrate`` and
``fluidalg.cli.run_identity_suite`` are wrapped by a timer before ``main``
runs, so the first call's start ends the set-up phase and its length is the
compute phase.  Times are ``time.monotonic`` readings, which share one clock
with the parent process, so the parent measures set-up from before it
started this process.  Options before ``--``:

* ``--trace SPANS.npz`` wraps every public function of the package
  (see ``spans.py``) and saves the spans when ``main`` has returned;
* ``--dump ALGEBRA.npz`` saves the arrays of the algebra the timed phase
  was given, for the output checks.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _peak_rss_kb() -> int:
    # VmHWM is the high-water mark of this process's own memory map.  The
    # rusage figure is not used: after exec it starts from the peak of the
    # parent that forked this process.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM not found in /proc/self/status")


def _dump_algebra(path, alg) -> None:
    import numpy as np

    np.savez(path, index=alg.triple.index, values=alg.triple.values,
             linking=alg.linking, metric=alg.metric)


def main(argv) -> int:
    root, result_path = argv[0], argv[1]
    sep = argv.index("--")
    opts = dict(zip(argv[2:sep:2], argv[3:sep:2]))
    command = argv[sep + 1:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    t_import = time.monotonic()
    import fluidalg
    import fluidalg.cli as cli
    t_imported = time.monotonic()
    if not os.path.abspath(fluidalg.__file__).startswith(os.path.abspath(src)):
        print(f"fluidalg imported from {fluidalg.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if "--trace" in opts:
        import spans

        tracer = spans.Tracer()
        tracer.install(fluidalg)

    phase = "integrate" if command[0] == "simulate" else "run_identity_suite"
    inner = getattr(cli, phase)
    calls = []
    algebras = []  # both phases take the algebra first

    def timed(*args, **kwargs):
        algebras.append(args[0])
        t0 = time.monotonic()
        try:
            return inner(*args, **kwargs)
        finally:
            calls.append((t0, time.monotonic()))

    setattr(cli, phase, timed)
    code = cli.main(command)
    t_done = time.monotonic()
    peak_kb = _peak_rss_kb()

    if tracer is not None:
        tracer.save(opts["--trace"])
    if "--dump" in opts and algebras:
        _dump_algebra(opts["--dump"], algebras[0])
    with open(result_path, "w") as fh:
        json.dump(
            {
                "exit_code": code,
                "process_start": T_START,
                "import_start": t_import,
                "import_end": t_imported,
                "phase_calls": calls,
                "main_end": t_done,
                "peak_rss_kb": peak_kb,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
