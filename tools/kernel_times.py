"""Time the contraction kernels, RK4 step, identity suite and projection.

    PYTHONPATH=src python3 tools/kernel_times.py [--repeat 7] [--pool 20]

For each algebra below it prints, as one Markdown table, the packed
floats n^2 (n-1)/2 per canonical entry, which with n picks the kind of a
form given by its entries (``core._SPARSE_ENTRY_FLOATS``), the
microseconds of ``TripleForm.contract_pair`` on one state and the
microseconds per row on a 50-row block, the identity suite's block.
For a spectral form it also prints the microseconds of a memo hit: one
state contracted with the same first argument as the call before it and
a new second, the pattern of a probe stage's second contraction.  The
rows on either side of that rule are forms that it makes dense (random
n=100, which ``random_algebra`` builds from its entries as a saved file
is, the K=1 torus) and sparse (so(12), built by ``from_lie_algebra``),
and the entries of the K=1 and K=2 tori built sparse for comparison.
Each figure is the best of ``--repeat`` passes over a pool of ``--pool``
distinct pairs, so that no pass reruns one cache-hot pair and a spectral
form misses its memo but on the memo-hit figure, whose pool pairs share
their first argument.  A second table gives the microseconds of one
step, ``rk4_step`` and ``co_evolve_probe`` (dt 1e-3), on random n=32 and
the K=2 and K=3 tori, the best of ``--repeat`` passes over ``--pool``
distinct (state, probe) pairs.  A third gives the milliseconds of
``run_identity_suite`` with 200 states and 200 triples, the compute of
the benchmark's ``diagnose-random32`` workload, on random n=32 and the
K=2 torus: the best of ``--repeat`` calls, after one untimed call in
which the torus assembles its entries.  A fourth gives the microseconds
of ``project_to_invariants`` on the rigid body and random n=32: for a
state on its targets, which returns after one evaluation of the
invariants, and for one whose energy is 1e-6 relative off, which takes
the Newton path; the best of ``--repeat`` passes over ``--pool`` states,
each projected onto its own energy and helicity.  A fifth gives the
microseconds per row of ``dd_values``, the low words of the recorded
invariants, for the metric and the linking form on random n=32 and the
K=3 torus: the best of ``--repeat`` calls on a ``--pool``-row block of
states whose low words are within one ulp.  It checks nothing and
has no thresholds.  Set-up (building the algebras, the sparse form's
entries among them) is not timed.  BLAS runs on one thread, as in the
benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from fluidalg import (  # noqa: E402
    LieAlgebraInput,
    TripleForm,
    build_torus_algebra,
    co_evolve_probe,
    dd_values,
    energy,
    from_lie_algebra,
    helicity,
    linking,
    make_rng,
    metric_inner,
    project_to_invariants,
    random_algebra,
    rigid_body,
    rk4_step,
    run_identity_suite,
)

BLOCK_ROWS = 50


def _sparse_torus(K: int) -> TripleForm:
    form = build_torus_algebra(K)[0].triple
    return TripleForm(form.dim, form.index, form.values)


def _so(m: int) -> TripleForm:
    # so(m) in the basis E_ab = e_a e_b^T - e_b e_a^T (a < b), whose
    # pairing -tr(XY)/2 is the identity: C(m, 3) entries, each +-1
    a, b = np.triu_indices(m, 1)
    E = np.zeros((a.size, m, m))
    E[np.arange(a.size), a, b], E[np.arange(a.size), b, a] = 1.0, -1.0
    c = (E[:, None] @ E[None] - E[None] @ E[:, None])[..., a, b]
    identity = np.eye(a.size)
    return from_lie_algebra(LieAlgebraInput(c, identity, identity)).triple


# name -> builder of the triple form
FORMS = {
    "rigid body, n=3": lambda: rigid_body(1.0, 2.0, 3.0).triple,
    "random(7), n=32": lambda: random_algebra(7, 32).triple,
    "random(0), n=100": lambda: random_algebra(0, 100).triple,
    "torus K=1, n=52": lambda: build_torus_algebra(1)[0].triple,
    "torus K=1 entries, n=52": lambda: _sparse_torus(1),
    "so(12), n=66": lambda: _so(12),
    "torus K=2 entries, n=248": lambda: _sparse_torus(2),
    "torus K=2, n=248": lambda: build_torus_algebra(2)[0].triple,
    "torus K=3, n=684": lambda: build_torus_algebra(3, max_dim=684)[0].triple,
}


# name -> builder of the algebra whose RK4 step is timed
STEPS = {
    "random(7), n=32": lambda: random_algebra(7, 32),
    "torus K=2, n=248": lambda: build_torus_algebra(2)[0],
    "torus K=3, n=684": lambda: build_torus_algebra(3, max_dim=684)[0],
}
STEP_DT = 1e-3

# name -> builder of the algebra whose identity suite is timed
SUITES = {
    "random(7), n=32": lambda: random_algebra(7, 32),
    "torus K=2, n=248": lambda: build_torus_algebra(2)[0],
}
SUITE_SAMPLE = 200  # states, and Jacobiator triples

# name -> builder of the algebra whose invariant projection is timed
PROJECTIONS = {
    "rigid body, n=3": lambda: rigid_body(1.0, 2.0, 3.0),
    "random(7), n=32": lambda: random_algebra(7, 32),
}
PROJECTION_OFF = 1e-6  # relative energy offset of the Newton-path states

# name -> builder of the algebra whose double-double values are timed
DD_VALUES = {
    "random(7), n=32": lambda: random_algebra(7, 32),
    "torus K=3, n=684": lambda: build_torus_algebra(3, max_dim=684)[0],
}


def best_us(contract, pool, repeat: int) -> float:
    """The fastest pass over the pool, in microseconds per pair."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for X, Y in pool:
            contract(X, Y)
        best = min(best, time.perf_counter() - start)
    return best / len(pool) * 1e6


def hit_us(form, states, repeat: int) -> float:
    """:func:`best_us` of the pairs (X, Y_i), X the pool's first state:
    after the first call every contraction hits a spectral form's memo."""
    X = states[0, 0]
    pool = [(X, Y) for Y in states[:, 1]]
    form.contract_pair(*pool[-1])
    return best_us(form.contract_pair, pool, repeat)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=7,
                        help="passes over each pool (default 7)")
    parser.add_argument("--pool", type=int, default=20,
                        help="distinct pairs in each pool (default 20)")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.pool < 1:
        parser.error("--repeat and --pool must be at least 1")
    rng = make_rng(0)
    print("| form | floats/entry | kind | one state (µs) "
          "| memo hit (µs) | 50-row block (µs/row) |")
    print("|---|---:|---|---:|---:|---:|")
    for name, build in FORMS.items():
        form = build()
        states = rng.standard_normal((args.pool, 2, form.dim))
        blocks = rng.standard_normal((args.pool, 2, BLOCK_ROWS, form.dim))
        single = best_us(form.contract_pair, states, args.repeat)
        hit = (f"{hit_us(form, states, args.repeat):.1f}"
               if form.kind == "spectral" else "-")
        block = best_us(form.contract_pair, blocks, args.repeat) / BLOCK_ROWS
        ratio = form.dim ** 2 * (form.dim - 1) / 2 / max(form.nnz, 1)
        print(f"| {name} | {ratio:.0f} | {form.kind} | {single:.1f} "
              f"| {hit} | {block:.2f} |")
    print()
    print("| algebra | rk4_step (µs) | co_evolve_probe (µs) |")
    print("|---|---:|---:|")
    for name, build in STEPS.items():
        alg = build()
        pool = rng.standard_normal((args.pool, 2, alg.dim))
        plain = best_us(lambda X, Z: rk4_step(alg, X, STEP_DT), pool,
                        args.repeat)
        probe = best_us(lambda X, Z: co_evolve_probe(alg, X, Z, STEP_DT),
                        pool, args.repeat)
        print(f"| {name} | {plain:.1f} | {probe:.1f} |")
    print()
    print("| algebra | run_identity_suite (ms) |")
    print("|---|---:|")
    for name, build in SUITES.items():
        alg = build()

        def suite(X, Y):
            run_identity_suite(alg, SUITE_SAMPLE, num_triples=SUITE_SAMPLE)

        suite(None, None)  # the torus assembles its entries in this call
        best = best_us(suite, [(None, None)], args.repeat) / 1e3
        print(f"| {name} | {best:.2f} |")
    print()
    print("| algebra | project_to_invariants on targets (µs) "
          "| 1e-6 off (µs) |")
    print("|---|---:|---:|")
    for name, build in PROJECTIONS.items():
        alg = build()
        # (state, its targets); scaling by sqrt(1 + off) moves the energy
        # off by the factor 1 + off
        on = [(X, (energy(alg, X), helicity(alg, X)))
              for X in rng.standard_normal((args.pool, alg.dim))]
        off = [(X * np.sqrt(1.0 + PROJECTION_OFF), T) for X, T in on]

        def project(X, targets):
            project_to_invariants(alg, X, *targets)

        print(f"| {name} | {best_us(project, on, args.repeat):.1f} "
              f"| {best_us(project, off, args.repeat):.1f} |")
    print()
    print("| algebra | dd_values metric (µs/row) "
          "| dd_values linking (µs/row) |")
    print("|---|---:|---:|")
    for name, build in DD_VALUES.items():
        alg = build()
        X = rng.standard_normal((args.pool, alg.dim))
        X_lo = np.spacing(X) * rng.uniform(-1.0, 1.0, X.shape)
        # one call per pass, on the (form, its float64 values) pair
        times = [best_us(lambda form, hi: dd_values(alg, form, hi, X, X_lo),
                         [(form, value(alg, X, X))], args.repeat) / args.pool
                 for form, value in (("metric", metric_inner),
                                     ("linking", linking))]
        print(f"| {name} | {times[0]:.1f} | {times[1]:.1f} |")


if __name__ == "__main__":
    main()
