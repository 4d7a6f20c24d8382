"""Identity suite coverage and reporting."""

import json
import tracemalloc

import numpy as np
import pytest

from fluidalg import (
    IDENTITY_NAMES,
    FluidAlgebra,
    TripleForm,
    build_torus_algebra,
    random_algebra,
    rigid_body,
    run_identity_suite,
    so3,
    validate,
)
from fluidalg import cli, instances


def test_every_identity_listed_exactly_once():
    report = run_identity_suite(so3(), num_states=5, num_triples=5)
    names = [r.name for r in report.identities]
    assert names == list(IDENTITY_NAMES)
    assert len(set(names)) == len(names)


def test_so3_passes_including_jacobiator():
    report = run_identity_suite(so3(), num_states=20, num_triples=30)
    assert report.passed
    jac = report.identity("jacobiator")
    assert jac.tolerance == 1e-11  # asserted for Lie-built instances
    assert jac.passed
    assert jac.max_defect <= 1e-11


def test_rigid_body_passes():
    report = run_identity_suite(rigid_body(1.0, 2.0, 3.0), num_states=20)
    assert report.passed


def test_random_algebra_passes_with_nonzero_jacobiator():
    report = run_identity_suite(random_algebra(11, 5), num_states=20,
                                num_triples=40)
    assert report.passed  # jacobiator is reported, not asserted
    jac = report.identity("jacobiator")
    assert jac.tolerance is None
    assert jac.passed is None
    assert jac.max_defect > 1e-3
    stats = report.algebra_summary["jacobiator_norm"]
    assert stats["max"] > 0.0
    assert stats["samples"] == 40


def test_torus_passes():
    alg, _ = build_torus_algebra(1)
    report = run_identity_suite(alg, num_states=10, num_triples=10)
    assert report.passed


def test_exact_cancellation_identity():
    report = run_identity_suite(random_algebra(2, 5), num_states=10)
    cancel = report.identity("circulation-pairing-cancellation")
    assert cancel.tolerance == 0.0
    assert cancel.max_defect == 0.0
    assert cancel.passed


def test_identity_of_an_unknown_name_raises_key_error():
    report = run_identity_suite(so3(), num_states=2, num_triples=0)
    with pytest.raises(KeyError, match="no-such"):
        report.identity("no-such")


def test_report_serializes():
    report = run_identity_suite(random_algebra(4, 4), num_states=5,
                                num_triples=5)
    payload = report.to_dict()
    assert set(payload) == {"passed", "identities", "algebra"}
    assert payload["algebra"]["dim"] == 4
    assert isinstance(payload["passed"], bool)
    assert len(payload["identities"]) == len(IDENTITY_NAMES)


def test_suite_is_deterministic():
    a = run_identity_suite(random_algebra(8, 5), num_states=10, seed=7)
    b = run_identity_suite(random_algebra(8, 5), num_states=10, seed=7)
    for ra, rb in zip(a.identities, b.identities):
        assert ra.max_defect == rb.max_defect


@pytest.mark.parametrize("n", [5, 64, 65])
def test_a_lone_bad_entry_fails_validation_at_every_n(tmp_path, capsys,
                                                      monkeypatch, n):
    # the pair kernels are alternating by construction, so an array that
    # is not antisymmetric is caught where it is given, with one defect at
    # every n and of either kind: |1 - 1/6| at T[0, 1, 2].  One entry is
    # dense at n = 5 and sparse at n = 64 and 65, by the kind rule
    T = np.zeros((n, n, n))
    T[0, 1, 2] = 1.0
    alg = FluidAlgebra(n, T, np.eye(n), np.eye(n))
    assert alg.triple.kind == ("dense" if n == 5 else "sparse")
    check = validate(alg).checks[0]
    assert check.name == "triple-antisymmetry" and not check.passed
    assert check.defect == 1.0 - 1.0 / 6.0
    report = run_identity_suite(alg, num_states=5, num_triples=0)
    assert report.identity("triple-alternating").max_defect == 0.0

    # the random builder draws as ever, then builds alg in place of its
    # own algebra: its validation must refuse it
    monkeypatch.setattr(instances, "FluidAlgebra", lambda *a, **k: alg)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instance": {"name": "random", "seed": 0,
                                            "n": n}}))
    out = tmp_path / "out"
    assert cli.main(["diagnose", "--config", str(cfg), "--output",
                     str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("validation error: algebra validation failed: "
                   "triple-antisymmetry (defect 8.333e-01 > 1.000e-12)\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# the suite on blocks of states against its per-sample loop


def _per_sample_suite(alg, num_states, seed, num_triples):
    """The identity suite as a loop over single samples: the reference
    for the suite on blocks, which must report the same bits."""
    from fluidalg import (curl, g_dual_norm, g_norm, inverse_curl, linking,
                          make_rng, metric_inner, triple)
    from fluidalg.diagnostics import (_FLOOR, _JACOBIATOR_LIE_TOL,
                                      _TOLERANCES, DiagnosticsReport,
                                      IdentityResult)
    from fluidalg.dynamics import (circulation_defect, euler_rhs,
                                   induced_bracket, jacobiator, transport,
                                   vorticity_rhs)

    rng = make_rng(seed)
    n = alg.dim
    states = [rng.standard_normal(n) for _ in range(num_states)]
    t_max = max(alg.triple.max_abs(), _FLOOR)
    l_max = max(float(np.max(np.abs(alg.linking))), _FLOOR)
    worst = {name: 0.0 for name in IDENTITY_NAMES}

    def bump(name, defect, scale):
        worst[name] = max(worst[name], defect / max(scale, _FLOOR))

    for idx, X in enumerate(states):
        Y = states[(idx + 1) % len(states)]
        Z = states[(idx + 2) % len(states)]
        nx, ny, nz = g_norm(alg, X), g_norm(alg, Y), g_norm(alg, Z)
        bump("triple-alternating", abs(alg.triple(X, X, Z)),
             t_max * nx * nx * nz)
        DX = curl(alg, X)
        bump("curl-defining-relation",
             abs(metric_inner(alg, DX, Y) - linking(alg, X, Y)),
             l_max * nx * ny)
        bump("curl-self-adjoint",
             abs(metric_inner(alg, DX, Y) - metric_inner(alg, X, curl(alg, Y))),
             l_max * nx * ny)
        bump("curl-inverse-roundtrip",
             g_norm(alg, inverse_curl(alg, DX) - X), nx)
        V = euler_rhs(alg, X)
        rhs_scale = t_max * nx * g_norm(alg, DX)
        bump("energy-orthogonality", abs(metric_inner(alg, V, X)),
             rhs_scale * nx)
        bump("helicity-orthogonality", abs(metric_inner(alg, V, DX)),
             rhs_scale * g_norm(alg, DX))
        a = curl(alg, V)
        b = transport(alg, X, DX)
        c = vorticity_rhs(alg, DX)
        ref = max(g_norm(alg, a), g_norm(alg, b), g_norm(alg, c))
        if ref > 0.0:
            bump("transport-equality",
                 max(g_norm(alg, a - b), g_norm(alg, a - c)), ref)
        bump("transport-antisymmetry",
             g_norm(alg, transport(alg, X, Z) + transport(alg, Z, X)),
             t_max * nx * nz)
        br = induced_bracket(alg, X, Y)
        bump("bracket-antisymmetry",
             g_norm(alg, br + induced_bracket(alg, Y, X)), t_max * nx * ny)
        bump("bracket-triple-compatibility",
             abs(linking(alg, br, Z) - triple(alg, X, Y, Z)),
             t_max * nx * ny * nz)
        DZ = curl(alg, Z)
        cancel = triple(alg, X, DX, DZ) + triple(alg, X, DZ, DX)
        bump("circulation-pairing-cancellation", abs(cancel), 1.0)
        bump("circulation-defect-zero",
             g_dual_norm(alg, circulation_defect(alg, V, X)),
             t_max * nx * g_norm(alg, DX))

    jac_samples = []
    for _ in range(num_triples):
        X, Y, Z = (rng.standard_normal(n) for _ in range(3))
        scale = t_max * g_norm(alg, X) * g_norm(alg, Y) * g_norm(alg, Z)
        jac_samples.append(
            g_norm(alg, jacobiator(alg, X, Y, Z)) / max(scale, _FLOOR))
    jac_stats = {"max": None, "mean": None, "median": None, "samples": 0}
    if jac_samples:
        jac_samples = np.array(jac_samples)
        jac_stats = {
            "max": float(np.max(jac_samples)),
            "mean": float(np.mean(jac_samples)),
            "median": float(np.median(jac_samples)),
            "samples": int(jac_samples.size),
        }
    worst["jacobiator"] = jac_stats["max"]

    identities = []
    for name in IDENTITY_NAMES:
        tol = _TOLERANCES[name]
        if name == "jacobiator" and alg.meta.get("kind") == "lie":
            tol = _JACOBIATOR_LIE_TOL
        defect = worst[name]
        passed = None if tol is None or defect is None else bool(defect <= tol)
        identities.append(IdentityResult(
            name, None if defect is None else float(defect), tol, passed))
    report = DiagnosticsReport(identities=identities)
    report.algebra_summary = {
        "dim": alg.dim,
        "kind": alg.meta.get("kind", "custom"),
        "triple_entries": alg.triple.nnz,
        "metric_condition": alg.metric_condition,
        "linking_condition": alg.linking_condition,
        "jacobiator_norm": jac_stats,
    }
    return report


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return value


@pytest.mark.parametrize("with_triples", [False, True])
def test_block_suite_reports_the_bits_of_the_per_sample_loop(kind_algebra,
                                                             with_triples):
    alg = kind_algebra
    # 60 states and 55 triples cross the 50-row blocks, and the neighbours
    # wrap around the sample; the blocks do not depend on the kind, so the
    # two slowest algebras (a contraction takes about 1 ms) draw fewer
    num_states, num_triples = (60, 55) if alg.dim < 70 else (12, 5)
    num_triples *= with_triples
    got = run_identity_suite(alg, num_states=num_states, seed=11,
                             num_triples=num_triples).to_dict()
    expected = _per_sample_suite(alg, num_states, 11, num_triples).to_dict()
    assert _hexed(got) == _hexed(expected)


@pytest.mark.parametrize("num_triples", [0, 55])
@pytest.mark.parametrize("num_states", [2, 3, 49, 50, 51, 101, 200])
def test_states_drawn_by_block_give_the_bits_of_one_draw(num_states,
                                                         num_triples):
    # sizes at and around the 50-row blocks: a last block of one or two
    # rows takes its neighbours from the next block and from rows 0 and 1
    alg = random_algebra(3, 6)
    got = run_identity_suite(alg, num_states=num_states, seed=5,
                             num_triples=num_triples).to_dict()
    expected = _per_sample_suite(alg, num_states, 5, num_triples).to_dict()
    assert json.dumps(_hexed(got)) == json.dumps(_hexed(expected))


def test_suite_memory_does_not_grow_with_the_sample():
    alg = random_algebra(7, 32)
    run_identity_suite(alg, num_states=50, num_triples=0)  # warm the caches
    peaks = []
    for num_states in (200, 5000):
        tracemalloc.start()
        try:
            run_identity_suite(alg, num_states=num_states, num_triples=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # all 5000 states at n = 32 hold 1.28 MB, with their two shifted
    # copies 3.84 MB
    assert peaks[1] - peaks[0] < 0.5e6


def test_block_suite_contracts_once_per_block(monkeypatch):
    calls = []
    contract = TripleForm.contract_pair

    def counted(self, X, Y):
        calls.append(np.shape(X))
        return contract(self, X, Y)

    monkeypatch.setattr(TripleForm, "contract_pair", counted)
    run_identity_suite(random_algebra(7, 32), num_states=200, num_triples=200)
    assert len(calls) < 100
    assert max(shape[0] for shape in calls) == 50


@pytest.mark.parametrize("kwargs", [
    {"num_states": 1}, {"num_states": 2.0}, {"num_states": True},
    {"num_triples": -1}, {"num_triples": False}, {"seed": -1},
    {"seed": 1.5}, {"seed": None},
])
def test_suite_rejects_bad_sample_sizes_and_seeds(kwargs):
    with pytest.raises(ValueError):
        run_identity_suite(so3(), **kwargs)


def test_a_nan_defect_fails_its_identity(monkeypatch):
    # a NaN defect is kept by the maximum over the samples, not passed over
    import fluidalg.diagnostics as diagnostics

    monkeypatch.setattr(diagnostics, "linking",
                        lambda alg, X, Y: np.full(len(X), np.nan))
    report = run_identity_suite(so3(), num_states=60, num_triples=0)
    result = report.identity("curl-defining-relation")
    assert np.isnan(result.max_defect) and result.passed is False
    assert not report.passed


def test_a_nan_sample_fails_transport_equality(monkeypatch):
    # a sample whose operator values hold a NaN has a NaN reference norm;
    # it is kept, not passed over as a sample that does not move
    import fluidalg.diagnostics as diagnostics

    vorticity_rhs = diagnostics.vorticity_rhs

    def nan_in_first_row(alg, Y):
        out = vorticity_rhs(alg, Y)
        out[0, 0] = np.nan
        return out

    monkeypatch.setattr(diagnostics, "vorticity_rhs", nan_in_first_row)
    result = run_identity_suite(random_algebra(3, 4), num_states=4,
                                num_triples=0).identity("transport-equality")
    assert np.isnan(result.max_defect) and result.passed is False


def test_median_has_the_bits_of_numpy_median():
    # the suite's median sorts instead of calling np.median, which imports
    # numpy.ma; the NaN and sign of zero of np.median must carry over
    from fluidalg import make_rng
    from fluidalg.diagnostics import _median

    rng = make_rng(91)
    specials = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0])
    for trial in range(2000):
        size = int(rng.integers(1, 80))
        v = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        hit = rng.random(size) < (0.0, 0.05, 0.3)[trial % 3]
        v[hit] = rng.choice(specials, int(hit.sum()))
        assert (np.float64(_median(v)).tobytes()
                == np.float64(np.median(v)).tobytes()), v
