"""Identity suite coverage and reporting."""

import numpy as np

from fluidalg import (
    IDENTITY_NAMES,
    FluidAlgebra,
    build_torus_algebra,
    random_algebra,
    rigid_body,
    run_identity_suite,
    so3,
)


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


def test_triple_alternating_reads_the_stored_array():
    # the pair kernels are alternating by construction; the identity must
    # still see a stored array that is not antisymmetric
    T = random_algebra(13, 5).triple.to_dense().copy()
    T[0, 0, 1] = 1e-3
    alg = FluidAlgebra(5, T, np.eye(5), np.eye(5))
    report = run_identity_suite(alg, num_states=5, num_triples=0)
    result = report.identity("triple-alternating")
    assert not result.passed and result.max_defect > 1e-6
