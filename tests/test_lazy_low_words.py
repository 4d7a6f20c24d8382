"""Low words of trace records, evaluated on first read.

``integrate`` gives each record's ``energy``, ``helicity`` and
``probe_linking`` a pending low word.  The first read of any one runs one
``dd_values`` call per form over all records, so each low word must have
the bits of the eager call on the same rows, and a caller that reads only
the float values, as the CLI does, must never evaluate one.
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from fluidalg import (
    IntegratorSpec,
    build_torus_algebra,
    core,
    integrate,
    integrators,
    make_rng,
    random_algebra,
    rigid_body,
)
from fluidalg.cli import main
from fluidalg.core import DoubleDouble, dd_values


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _pending(value):
    # a pending low word is the cached function that evaluates them all
    return callable(value._lo)


CASES = {
    "rigid": (lambda: rigid_body(1.0, 2.0, 3.0), False),
    "random-n6-probe": (lambda: random_algebra(3, 6), True),
    "torus-k2-probe": (lambda: build_torus_algebra(2)[0], True),
}


@pytest.mark.parametrize("name", list(CASES))
def test_lazy_low_words_equal_the_eager_call(monkeypatch, name):
    build, with_probe = CASES[name]
    alg = build()
    rng = make_rng(31)
    X0 = rng.standard_normal(alg.dim)
    probe = rng.standard_normal(alg.dim) if with_probe else None
    spec = IntegratorSpec(method="rk4", dt=1e-2, t_end=0.07, record_every=2)
    calls = []  # the arguments of each lazy dd_values call

    def spy(*args):
        calls.append(args)
        return core._lazy_dd_values(*args)

    monkeypatch.setattr(integrators, "_lazy_dd_values", spy)
    records = integrate(alg, X0, spec, probe=probe).records
    fields = ["energy", "helicity"] + (["probe_linking"] if with_probe else [])
    assert len(calls) == len(fields)
    values = {f: [getattr(r, f) for r in records] for f in fields}
    assert all(_pending(v) for vs in values.values() for v in vs)
    evaluated = []

    def counted(*args):
        evaluated.append(args)
        return dd_values(*args)

    monkeypatch.setattr(core, "dd_values", counted)
    for field, args in zip(fields, calls):
        eager = dd_values(*args)
        # read from the last record back: the first read evaluates them all
        lazy = [v.lo for v in reversed(values[field])][::-1]
        (got,) = evaluated
        evaluated.clear()
        assert all(a is b for a, b in zip(got, args))
        assert not any(_pending(v) for v in values[field])
        assert [_bits(v) for v in values[field]] == [_bits(v) for v in eager]
        assert [_bits(v) for v in lazy] == [_bits(v.lo) for v in eager]
    # the rows are the records' own states and low words
    states = [r.state for r in records]
    lows = [r.state_lo for r in records]
    for field, form in (("energy", "metric"), ("helicity", "linking")):
        direct = dd_values(alg, form, values[field], states, lows)
        assert [_bits(d.lo) for d in direct] == [
            _bits(v.lo) for v in values[field]]


def test_simulate_never_evaluates_a_low_word(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"instance": {"name": "torus", "K": 2}, '
        '"initial_state": {"seed": 5, "norm": 1.0}, '
        '"probe": {"seed": 6, "norm": 1.0}, '
        '"integrator": {"method": "rk4", "dt": 1e-3, "t_end": 0.01}}')
    outputs = []
    for run in ("eager", "patched"):
        if run == "patched":
            def refuse(*args, **kwargs):
                raise AssertionError("dd_values was called")

            monkeypatch.setattr(core, "dd_values", refuse)
            monkeypatch.setattr(integrators, "dd_values", refuse,
                                raising=False)
        work = tmp_path / run
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["simulate", "--config", str(cfg), "--output",
                     "out"]) == 0
        outputs.append([(work / "out" / f).read_bytes()
                        for f in ("trace.csv", "state.csv", "summary.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("copier", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_pending_value_pickles_and_copies_as_resolved(copier):
    alg = random_algebra(3, 6)
    rng = make_rng(32)
    spec = IntegratorSpec(method="rk4", dt=1e-2, t_end=0.05)
    res = integrate(alg, rng.standard_normal(6), spec,
                    probe=rng.standard_normal(6))
    value = res.records[-1].probe_linking
    assert _pending(value)
    got = copier(value)
    assert type(got) is DoubleDouble and not _pending(got)
    assert _bits(got) == _bits(value)
    assert _bits(got.lo) == _bits(value.lo)
    records = copier(res.records)
    for got, want in zip(records, res.records):
        assert _bits(got.energy.lo) == _bits(want.energy.lo)
        assert _bits(got.probe_linking.lo) == _bits(want.probe_linking.lo)


def test_concurrent_first_reads_agree():
    alg = rigid_body(1.0, 2.0, 3.0)
    spec = IntegratorSpec(method="rk4", dt=1e-2, t_end=2.0)
    X0 = [0.3, 1.0, 1.0]
    want = [_bits(r.helicity.lo) for r in integrate(alg, X0, spec).records]
    res = integrate(alg, X0, spec)
    results = {}

    def read(worker):
        order = res.records[::-1] if worker % 2 else res.records
        results[worker] = [_bits(r.helicity.lo) for r in order]
        if worker % 2:
            results[worker].reverse()

    threads = [threading.Thread(target=read, args=(w,)) for w in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(results[w] == want for w in range(6))
