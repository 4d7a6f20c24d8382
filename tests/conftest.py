import pytest

from fluidalg import (
    FluidAlgebra,
    TripleForm,
    build_torus_algebra,
    make_rng,
    random_algebra,
    rigid_body,
)


@pytest.fixture
def rigid123():
    return rigid_body(1.0, 2.0, 3.0)


@pytest.fixture
def random_n6():
    return random_algebra(3, 6)


def states(alg, count, seed):
    """Seeded sample of generic states for an algebra."""
    rng = make_rng(seed)
    return [rng.standard_normal(alg.dim) for _ in range(count)]


@pytest.fixture
def sample_states():
    return states


def _sparse(alg):
    form = TripleForm(alg.dim, alg.triple.index, alg.triple.values)
    return FluidAlgebra(alg.dim, form, alg.linking, alg.metric)


# one algebra or more of each storage kind of the triple form:
# name -> (builder, kind)
KIND_ALGEBRAS = {
    "rigid": (lambda: rigid_body(1.0, 2.0, 3.0), "dense"),
    "random-n6": (lambda: random_algebra(3, 6), "dense"),
    "random-n32": (lambda: random_algebra(7, 32), "dense"),
    "random-n70": (lambda: random_algebra(5, 70), "dense"),
    "sparse-n70": (lambda: _sparse(random_algebra(5, 70)), "sparse"),
    # few entries: several rows of a block share one bincount
    "sparse-n7": (lambda: _sparse(random_algebra(18, 7)), "sparse"),
    "torus-k1": (lambda: build_torus_algebra(1)[0], "spectral"),
    "torus-k2": (lambda: build_torus_algebra(2)[0], "spectral"),
    "torus-k3": (lambda: build_torus_algebra(3, max_dim=684)[0], "spectral"),
}


@pytest.fixture(scope="session", params=list(KIND_ALGEBRAS))
def kind_algebra(request):
    """Each algebra of KIND_ALGEBRAS in turn, built once per session."""
    build, kind = KIND_ALGEBRAS[request.param]
    alg = build()
    assert alg.triple.kind == kind
    return alg
