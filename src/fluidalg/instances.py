"""Constructors for concrete fluid algebras.

* :func:`from_lie_algebra` -- any Lie algebra with an invariant
  nondegenerate symmetric pairing yields a fluid algebra with
  ``{X, Y, Z} = P([X, Y], Z)``.
* :func:`so3` / :func:`rigid_body` -- the three-dimensional family where
  the triple form is the determinant and the Euler ODE reduces to
  ``G dX/dt = X x (G^-1 X)`` (free rigid body in disguise).
* :func:`build_torus_algebra` -- spectral Galerkin truncation of the
  divergence-free, mean-zero velocity fields on the unit flat 3-torus,
  cut off at max-norm wavenumber K.  The level's basis,
  :class:`TorusBasis`, is a value of K alone: its lattice table, frames
  and curl weights, from which the torus assembly and contraction are
  built.
* :func:`random_algebra` -- seeded random algebras for property testing.

Every builder returns an algebra that has passed
``validate(alg).require()``, validated once, by the code that built it.

Sign convention: the determinant orientation fixes the overall sign of the
triple form for the Lie and torus families; flipping it globally reverses
time in the Euler ODE and nothing else.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (
    AlgebraFormatError,
    AlgebraValidationError,
    ConfigError,
    FluidAlgebra,
    TripleForm,
    make_rng,
    _FrozenRecord,
    _Record,
    _aligned_empty,
    _antisymmetrize,
    _canonical_entries,
    _canonical_slots,
    _is_index,
    _number,
    validate,
)

__all__ = [
    "LieAlgebraInput",
    "from_lie_algebra",
    "so3",
    "rigid_body",
    "TorusMode",
    "TorusBasis",
    "TorusSizeError",
    "build_torus_algebra",
    "beltrami_state",
    "GenerationError",
    "random_algebra",
    "LEVI_CIVITA",
]

# Minimum |eigenvalue| accepted for a random linking form, and the retry
# budget before giving up (reached by 2 of 20 seeds at n = 128, 6 at 256).
_RANDOM_LINKING_MIN_EIG = 0.1
_RANDOM_LINKING_RETRIES = 16

# The default cap on the torus dimension: K = 2 (248) builds, K = 3 (684)
# needs a larger max_dim.
TORUS_MAX_DIM = 512

# Relative tolerance of from_lie_algebra's checks of its input: the (i, j)
# antisymmetry of the structure constants, the symmetry of the pairing and
# its invariance.
LIE_INPUT_TOL = 1e-10


def _levi_civita() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for perm in itertools.permutations(range(3)):
        inversions = sum(
            1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
        )
        eps[perm] = -1.0 if inversions % 2 else 1.0
    return eps


LEVI_CIVITA = _levi_civita()
LEVI_CIVITA.setflags(write=False)


# ---------------------------------------------------------------------------
# Lie-algebra instances


class LieAlgebraInput(_Record):
    """A Lie algebra with an invariant pairing and a free metric choice.

    ``structure_constants[i, j, k]`` gives [e_i, e_j] = sum_k c[i,j,k] e_k.
    ``pairing`` must be symmetric, nondegenerate, and invariant:
    P([X, Y], Z) + P(Y, [X, Z]) = 0 on all basis triples.
    ``metric`` is any symmetric positive definite matrix.  The structure
    constants must be an (n, n, n) array and the pairing and the metric
    (n, n), or :class:`AlgebraFormatError` is raised.
    """

    __slots__ = ("structure_constants", "pairing", "metric")

    def __init__(self, structure_constants, pairing, metric):
        c = self.structure_constants = np.asarray(structure_constants, float)
        self.pairing = np.asarray(pairing, float)
        self.metric = np.asarray(metric, float)
        # a 0-d array has no n to read: "n" stands in for it
        n = c.shape[0] if c.ndim else "n"
        for label, array, shape in (("structure constants", c, (n, n, n)),
                                    ("pairing", self.pairing, (n, n)),
                                    ("metric", self.metric, (n, n))):
            if array.shape != shape:
                raise AlgebraFormatError(
                    f"{label} must be ({','.join(map(str, shape))}), "
                    f"got {array.shape}")

    @property
    def dim(self) -> int:
        return self.structure_constants.shape[0]


def from_lie_algebra(spec: LieAlgebraInput, meta=None) -> FluidAlgebra:
    """Build the fluid algebra {X,Y,Z} = P([X,Y], Z), <,> = P, metric free.

    The pairing invariance is validated (not assumed); a violation beyond
    ``LIE_INPUT_TOL`` = 1e-10 times the natural scale is rejected
    reporting the worst basis triple.  Full antisymmetry of the resulting
    tensor is then validated through the ordinary algebra validation.
    """
    c = spec.structure_constants
    P = spec.pairing
    n = spec.dim
    scale = max(float(np.max(np.abs(c))) * max(float(np.max(np.abs(P))), 1.0),
                1.0)
    anti = float(np.max(np.abs(c + c.transpose(1, 0, 2))))
    if anti > LIE_INPUT_TOL * scale:
        raise AlgebraValidationError(
            f"structure constants not antisymmetric in (i, j): "
            f"defect {anti:.3e}"
        )
    sym = float(np.max(np.abs(P - P.T)))
    if sym > LIE_INPUT_TOL * scale:
        raise AlgebraValidationError(
            f"pairing not symmetric: defect {sym:.3e}"
        )
    # invariance: P([e_i,e_j], e_k) + P(e_j, [e_i,e_k]) = 0, whose first
    # term is the triple tensor
    T = np.einsum("ijm,mk->ijk", c, P)
    inv = T + np.einsum("ikm,jm->ijk", c, P)
    worst = float(np.max(np.abs(inv)))
    if worst > LIE_INPUT_TOL * scale:
        i, j, k = np.unravel_index(np.argmax(np.abs(inv)), inv.shape)
        raise AlgebraValidationError(
            f"pairing is not invariant: worst basis triple "
            f"({i}, {j}, {k}) with defect {worst:.3e}"
        )
    base_meta = {"kind": "lie"}
    if meta:
        base_meta.update(meta)
    alg = FluidAlgebra(n, T, P, spec.metric, meta=base_meta)
    validate(alg).require()
    return alg


def so3(metric=None) -> FluidAlgebra:
    """The so(3) instance: determinant triple form, identity pairing.

    The induced bracket is the vector cross product.  An optional metric
    turns this into the rigid-body family.
    """
    if metric is None:
        metric = np.eye(3)
    return from_lie_algebra(
        LieAlgebraInput(LEVI_CIVITA, np.eye(3), metric),
        meta={"name": "so3"},
    )


def rigid_body(i1: float, i2: float, i3: float) -> FluidAlgebra:
    """Rigid-body family: n = 3, determinant triple form, L = I,
    G = diag(i1, i2, i3) with finite positive moments.

    The Euler ODE becomes G dX/dt = X x (G^-1 X).
    """
    moments = tuple(_number("instance", "moments", m, 0, strict=True)
                    for m in (i1, i2, i3))
    alg = from_lie_algebra(
        LieAlgebraInput(LEVI_CIVITA, np.eye(3), np.diag(moments)),
        meta={"name": "rigid-body", "moments": moments},
    )
    return alg


# ---------------------------------------------------------------------------
# spectral flat-torus instance


class TorusSizeError(ConfigError):
    """Requested truncation exceeds the configured dimension cap."""


class TorusMode(_FrozenRecord):
    """One real basis field sqrt(2) * trig(2 pi k.x) * e_a(k)."""

    __slots__ = ("k", "polarization", "phase")

    # k: the integer wavevector, the lexicographically positive
    # representative; polarization: 1 or 2; phase: "cos" or "sin"
    def __init__(self, k: tuple, polarization: int, phase: str):
        self._set(k=k, polarization=polarization, phase=phase)


class TorusBasis:
    """The basis of the torus truncation at |k|_inf <= K, a value of K alone.

    The basis covers one representative per +-k pair for all
    0 < |k|_inf <= K, with two polarizations orthogonal to k and two
    phases, on the unit-volume torus (x in [0,1)^3, wavevectors 2 pi k).
    Per representative the four coordinates are ordered
    (pol 1, cos), (pol 1, sin), (pol 2, cos), (pol 2, sin).

    It holds the (m, 3) integer representatives ``reps``, their
    polarization frames ``e1`` and ``e2``, the curl weights
    ``lam = 2 pi |k|`` and the lattice table, all read-only, since a torus
    algebra reads its entries from them when first asked; the
    :class:`TorusMode` of a coordinate is made when asked for.  K is
    checked as :func:`build_torus_algebra` checks it.

    The lattice table is the one map from wavevectors to representatives:
    at the cell ``k + K`` of the (2K+1)^3 cube, ``rep_of`` holds the index
    of the representative of +-k and ``sign_of`` the sign (+1 or -1) that
    turns it into k, with -1 and 0 at the origin.  The representatives
    are the wavevectors whose first nonzero component is positive, in
    lexicographic order.  The torus assembly and the spectral contraction
    read their wavevectors' representatives from this table.
    """

    def __init__(self, K: int):
        self.K = _number("instance", "K", K, 1, integer=True)
        side = 2 * K + 1
        # C order over [-K, K]^3 is lexicographic: the cells after the
        # origin are the representatives in order, and the cell as far
        # before it holds the negative of one
        offset = np.arange(side ** 3, dtype=np.intp) - side ** 3 // 2
        self.rep_of = (np.abs(offset) - 1).reshape((side,) * 3)
        self.sign_of = np.sign(offset).reshape((side,) * 3)
        cells = np.unravel_index(np.flatnonzero(offset > 0), (side,) * 3)
        self.reps = np.stack(cells, axis=1) - K
        self.e1, self.e2 = _frames(self.reps)
        self.lam = 2.0 * np.pi * np.linalg.norm(self.reps, axis=1)
        for array in (self.rep_of, self.sign_of, self.reps, self.e1,
                      self.e2, self.lam):
            array.setflags(write=False)

    @property
    def dim(self) -> int:
        return 4 * self.reps.shape[0]

    def linking(self):
        """The linking form as the weighted permutation ``(cols, w)``,
        ``L[r, cols[r]] = w[r]``: within mode k, in local order
        (c1, s1, c2, s2), curl(c1) = -lam s2, curl(c2) = +lam s1, and
        symmetrically."""
        cols = (4 * np.arange(len(self.reps))[:, None] + [3, 2, 1, 0]).ravel()
        w = (self.lam[:, None] * [-1.0, 1.0, 1.0, -1.0]).ravel()
        return cols, w

    def mode(self, p: int) -> TorusMode:
        """The mode of coordinate p, an integer in [0, dim)."""
        if not (_is_index(p) and 0 <= p < self.dim):
            raise IndexError(
                f"mode index must be an integer in [0, {self.dim}), "
                f"got {p!r}")
        polarization, phase = _LOCAL_ORDER[p % 4]
        return TorusMode(tuple(self.reps[p // 4].tolist()), polarization,
                         phase)

    @property
    def modes(self) -> list:
        """The 4m modes in coordinate order."""
        return [self.mode(p) for p in range(self.dim)]

    def field_at(self, p: int, points: np.ndarray) -> np.ndarray:
        """Evaluate basis field p at Cartesian points of shape (..., 3)."""
        mode = self.mode(p)
        e = (self.e1 if mode.polarization == 1 else self.e2)[p // 4]
        phase = 2.0 * np.pi * (np.asarray(points) @ np.asarray(mode.k, float))
        trig = np.cos(phase) if mode.phase == "cos" else np.sin(phase)
        return np.sqrt(2.0) * trig[..., None] * e

    def analytic_curl_eigenvalues(self) -> np.ndarray:
        """Sorted curl eigenvalues: +-2 pi |k| twice per representative,
        the weights of :meth:`linking`."""
        return np.sort(self.linking()[1])


def _frame(k: np.ndarray):
    """Orthonormal polarization pair: e1 = unit(k x u), e2 = unit(k) x e1.

    u is the first standard basis vector not parallel to k; the pair
    (e1, e2, k/|k|) is right-handed.  :func:`_frames` computes the same
    bits for all representatives at once.
    """
    kf = np.asarray(k, float)
    u = np.zeros(3)
    u[1 if (k[1] == 0 and k[2] == 0) else 0] = 1.0
    e1 = np.cross(kf, u)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(kf / np.linalg.norm(kf), e1)
    return e1, e2


def _frames(reps: np.ndarray):
    """:func:`_frame` of each row of the (m, 3) integer array ``reps``.

    The norms are of integer vectors, so their squares sum exactly in any
    order; the crosses and quotients are the same operations as in
    :func:`_frame`, which makes the bits equal.
    """
    kf = reps.astype(float)
    on_x = (reps[:, 1] == 0) & (reps[:, 2] == 0)
    u = np.zeros_like(kf)
    u[np.arange(len(kf)), np.where(on_x, 1, 0)] = 1.0
    e1 = np.cross(kf, u)
    e1 = e1 / np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(kf / np.linalg.norm(kf, axis=1, keepdims=True), e1)
    return e1, e2


# index of the (polarization, phase) slot within a representative's block
_LOCAL_ORDER = [(1, "cos"), (1, "sin"), (2, "cos"), (2, "sin")]

# polarization dets below this are geometric round-off of an exact zero
_DET_NOISE = 1e-14


def _representative_triples(basis: TorusBasis):
    """Multisets r1 <= r2 <= r3 of representatives whose wavevectors admit
    a signed zero sum, with the sign vectors (1, s2, s3) of
    k1 + s2 k2 + s3 k3 = 0.

    The basis's lattice table maps c = k1 + s k2 to the representative of
    +-c and to the sign of that representative.  The sign solution is
    unique: the other sign vectors would force one wavevector to vanish,
    and k1 + k2 + k3 is lexicographically positive.
    """
    reps, K = basis.reps, basis.K
    r1, r2 = np.triu_indices(reps.shape[0])
    found = []
    for s in (1, -1):
        c = reps[r1] + s * reps[r2]
        inside = np.all(np.abs(c) <= K, axis=1)
        cell = tuple((c[inside] + K).T)
        a, b, r3 = r1[inside], r2[inside], basis.rep_of[cell]
        keep = r3 >= b  # the zero vector maps to -1
        # k1 + s k2 = sigma k3, so the signs are (1, s, -sigma)
        sigma = basis.sign_of[cell][keep]
        found.append((a[keep], b[keep], r3[keep],
                      np.full(sigma.shape, s), -sigma))
    return [np.concatenate(parts) for parts in zip(*found)]


def _torus_entries(basis: TorusBasis):
    """Canonical ``(index, values)`` of the torus triple form, in closed
    form from the selection rule k1 +- k2 +- k3 = 0.

    The entry at local slots (l1, l2, l3) of the representatives
    (r1, r2, r3) is amplitude * det * tri, where det is the determinant of
    the three polarization vectors and tri the integral of the three trig
    factors over the unit torus.  The product vanishes with an odd number
    of sine factors; with none it is 1/4, and with sines in slots a and b
    it is -s_a s_b / 4.
    """
    r1, r2, r3, sign2, sign3 = _representative_triples(basis)
    # the 8 polarization dets of each triple cover all of its local slots
    pol = np.stack([basis.e1, basis.e2], axis=1)
    choice = np.indices((2, 2, 2)).reshape(3, -1)
    dets = np.linalg.det(np.stack(
        [pol[r[:, None], a] for r, a in zip((r1, r2, r3), choice)], axis=-1
    ))

    # local slots 1 and 3 are sines; keep the slots with an even count
    slots = np.indices((4, 4, 4)).reshape(3, -1)
    slots = slots[:, (slots & 1).sum(axis=0) % 2 == 0]
    l1, l2, l3 = slots
    # repeated representatives take strictly increasing local slots
    allowed = (((r1 != r2)[:, None] | (l2 > l1))
               & ((r2 != r3)[:, None] | (l3 > l2)))
    t, slot = np.nonzero(allowed)
    l1, l2, l3 = slots[:, slot]
    sign_product = (np.where(l2 & 1, sign2[t], 1)
                    * np.where(l3 & 1, sign3[t], 1))
    tri = np.where((l1 | l2 | l3) & 1, -0.25 * sign_product, 0.25)
    det = dets[t, 4 * (l1 >> 1) + 2 * (l2 >> 1) + (l3 >> 1)]

    amplitude = 2.0 * np.sqrt(2.0)  # (sqrt 2)^3 from the field normalization
    keep = np.abs(det) > _DET_NOISE
    index = np.stack([4 * r1[t] + l1, 4 * r2[t] + l2, 4 * r3[t] + l3],
                     axis=1)[keep]
    return index, (amplitude * det * tri)[keep]


def _frozen(array: np.ndarray) -> np.ndarray:
    # a 64-byte-aligned, read-only copy of a fixed operand
    out = _aligned_empty(array.shape, array.dtype)
    out[...] = array
    out.setflags(write=False)
    return out


# the components c + 1 and c + 2 (mod 3) of each component c: the cross
# product is (u x v)_c = u_next v_prev - u_prev v_next
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _planar(T: np.ndarray) -> np.ndarray:
    # the real form [[Re T, -Im T], [Im T, Re T]] of a complex matrix: rows
    # (re/im, output), columns (re/im, input)
    return np.block([[T.real, -T.imag], [T.imag, T.real]])


class _SpectralContraction:
    """The torus pair contraction by pruned DFTs, with no stored tensor.

    Since ``T[i,j,m] = integral of (f_i x f_j) . f_m``, the contraction of
    X and Y is the projection of the pointwise cross product of their
    velocity fields onto the basis.  With ``A`` and ``B`` the cos and sin
    vectors of representative k (``A = X_c1 e1 + X_c2 e2``, ``B`` from the
    sin slots), the field's Fourier coefficient at k is ``(A - iB) / sqrt 2``.
    Conversely, the cos and sin coordinates of a field w along polarization
    e are ``sqrt 2 e . Re w^(k)`` and ``-sqrt 2 e . Im w^(k)``.  Each
    wavevector's representative and sign come from the basis's lattice
    table (see :class:`TorusBasis`).

    The fields are sampled on an N^3 grid, N = 3K + 1.  Their product
    holds wavenumbers up to 2K per axis; its aliases onto |k| <= K come
    from N - 2K > K, so none reaches the coefficients read (the 3/2 rule,
    Orszag 1971).  Only the (2K+1)^2 (K+1) coefficients with |k| <= K and
    k_z >= 0, the cube, are nonzero going in or read coming out, so the
    transforms are pruned separable DFTs: three real GEMMs with fixed
    matrices, along x, y and then z, the axis of the half spectrum, and the
    mirror of these back.  A coefficient is held as its real and imaginary
    floats in two places of one real array, the planar layout, and each
    complex DFT matrix T along x or y as its real form
    ``[[Re T, -Im T], [Im T, Re T]]``, whose rows and columns may be
    permuted to fit the layout; on this layout a real GEMM does the work
    of a complex one in about half its time.  The c2r step along z reads
    the (k_z, re/im) floats as one real contraction and gives the real
    field.  A field on the grid is laid out [component, z, y, x], the
    cube [component, k_z, k_y, re/im, k_x]: the x step contracts the
    trailing (re/im, k_x) as one GEMM from the right, giving (re/im, x);
    the y step the (k_y, re/im) before it, for each (component, k_z),
    giving (re/im, y); the c2r step the (k_z, re/im) before that, for
    each component, giving z.  Analysis runs the mirror: r2c, then y, then
    x.  No step moves data between GEMMs.  The two fields and the rows of a
    block are batch axes of ``np.matmul``, never GEMM rows or columns, so
    each goes through GEMMs of fixed shapes with the bits that a state has
    alone.  (BLAS may round a GEMM column by its place: with the two
    fields as columns of one GEMM, the contraction lost exact antisymmetry
    at K=2 and K=4.)  Swapping X and Y thus swaps the fields bit for bit
    and negates the cross product, and so the result, exactly; X = Y gives
    exact zeros.  The cross product is two full-array products and one
    difference over the components gathered in cyclic order (``_NEXT``,
    ``_PREV``), made in place in the two gathers of Y's field: the
    products and differences of each component in turn, bit for bit; with
    the component axis first, each gather copies three runs of N^3
    floats.  Likewise the synthesis weighs both polarizations in place in
    its gather of the states' slots, in one product, and adds them in one
    sum.  X and Y of any real dtype are contracted as their float64
    values.

    A probe step contracts each stage's velocity twice, as
    ``(V, D V)`` and ``(V, D Z)``, so the operator remembers the grid field
    of its last first argument (:meth:`_synthesize` makes the fields).  A
    call whose X equals it synthesizes Y alone and reuses X's field;
    any other synthesizes (X, Y) as one batch and remembers X's field.
    A field alone is the same batch of fixed-shape GEMMs, so a hit gives
    the bits of a cold call.  The memo is keyed by value, X's shape, dtype
    and bytes, not by identity: an X changed in place misses, and so does
    ``-0.0`` in the place of ``0.0``.  It is one immutable tuple of the key
    and X's field, in the two cyclic orders that the cross product reads,
    frozen and holding X's rows alone; it is read once per call and
    replaced whole, so threads that share an algebra stay correct.  No
    key is made for Y; a run without a probe always misses and pays one
    key, ``X.tobytes()``, per call.
    """

    def __init__(self, basis: TorusBasis):
        reps, K = basis.reps, basis.K
        n, side, half = 3 * K + 1, 2 * K + 1, K + 1
        self._shape = (n, side, half)
        # sets the chunks of a block's rows (see TripleForm.spectral): the
        # largest temporaries, the two fields' 3 components on the grid,
        # give 7 rows to a chunk at K=2, 2 at K=3 and 1 from K=4 on.  A
        # 50-row block then took 0.90 and 2.8 ms, in one piece 1.8 and
        # 4.7 ms, row by row 1.8 and 3.3 ms (best of 5 passes over 20
        # blocks, as tools/kernel_times.py times them, 2-core x86, one
        # BLAS thread)
        self.row_terms = 2 * 3 * n ** 3
        m = reps.shape[0]
        # the cube [kx + K, ky + K, kz] is the half k_z >= 0 of the basis's
        # lattice table: the slot of wavevector c holds the coefficient of
        # sigma r, with r the representative of +-c and sigma its sign,
        # the conjugate of r's when sigma = -1.  The origin holds zero: it
        # gathers coordinate 0 with sign 0
        rep = np.maximum(basis.rep_of[:, :, K:].ravel(), 0)
        sigma = basis.sign_of[:, :, K:].ravel()
        # (re, im) signs of a coefficient against (A, B)
        sign = np.stack([np.abs(sigma), -sigma], axis=1)
        # the slot where each representative's coefficient is read: k when
        # k_z >= 0, else -k
        flip = np.where(reps[:, 2] < 0, -1, 1)
        stored = np.ravel_multi_index(
            (flip[:, None] * reps + [K, K, 0]).T, (side, side, half))
        # the cube's floats are laid out [component, kz, ky, re/im, kx]
        frame = np.stack([basis.e1, basis.e2])  # (polarization, rep, 3)
        p, c, z, y, ri, x = np.indices((2, 3, half, side, 2, side))
        s = (x * side + y) * half + z
        # the synthesis gathers, for polarization p, the (cos, sin) slot
        # of each float's representative, and weighs it by e_p . e_c
        self._gather = (4 * rep[s] + 2 * p + ri).ravel()
        self._synthesis = _frozen(
            (np.sqrt(0.5) * frame[p, rep[s], c] * sign[s, ri]).reshape(2, -1))
        # the projection reads, for component c, the (re, im) floats of
        # each representative once per polarization: [c, rep, pol, phase]
        c, r, p, ri = np.indices((3, m, 2, 2))
        x, yz = np.divmod(stored[r], side * half)
        y, z = np.divmod(yz, half)
        self._read = ((((c * half + z) * side + y) * 2 + ri) * side
                      + x).reshape(3, -1)
        self._projection = _frozen(
            (np.sqrt(2.0) * frame[p, r, c] * sign[stored[r], ri])
            .reshape(3, -1))

        grid = np.arange(n)
        k = np.arange(-K, K + 1)
        kz = np.arange(half)
        # exp(2 pi i x k / n) from the exact residue of x k mod n, and its
        # inverse on the kept k: the conjugate transpose over n
        turn = 2.0 * np.pi / n
        dft = np.exp(1j * turn * ((grid[:, None] * k) % n))  # (x, k)
        dft, inverse = _planar(dft), _planar(dft.conj().T) / n
        # x multiplies the trailing (re/im, k) from the right, by the
        # transposes: rows (re/im, k), columns (re/im, x), and the mirror
        self._x_to_grid = _frozen(dft.T)
        self._x_from_grid = _frozen(inverse.T)
        # y multiplies from the left the (k, re/im) that comes before x,
        # and gives (re/im, y); its mirror reads (re/im, y), gives (k, re/im)
        self._y_to_grid = _frozen(
            dft.reshape(2 * n, 2, side).swapaxes(1, 2).reshape(2 * n, -1))
        self._y_from_grid = _frozen(
            inverse.reshape(2, side, 2 * n).swapaxes(0, 1).reshape(-1, 2 * n))
        # c2r along z, the real part of sum_kz c_kz exp(2 pi i kz z / n),
        # weighs kz = 0 once and the others twice, for the conjugates of
        # -kz; r2c is its mirror.  Both multiply from the left: rows or
        # columns (kz, re/im)
        phase = turn * ((kz[:, None] * grid) % n)  # (kz, z)
        trig = np.stack((np.cos(phase), -np.sin(phase)), axis=1)
        self._z_from_grid = _frozen(trig.reshape(2 * half, n) / n)
        trig[1:] *= 2.0
        self._z_to_grid = _frozen(trig.reshape(2 * half, n).T)
        # (key, field) of the last first argument, or None: see __call__
        self._memo = None

    def __call__(self, X, Y) -> np.ndarray:
        # X and Y are states (dim,) or (B, dim) blocks
        n, side, half = self._shape
        lead = X.shape[:-1]
        # read once: another thread sharing the operator may replace it
        memo = self._memo
        key = (X.shape, X.dtype.str, X.tobytes())
        # the fields are made in place from float64 gathers of the states
        Y = np.asarray(Y, dtype=float)
        if memo is not None and memo[0] == key:
            (u_next, u_prev), v = memo[1], self._synthesize(Y[None])[0]
        else:
            u, v = self._synthesize(np.array((X, Y), dtype=float))
            # X's field in the two cyclic orders that the cross product
            # reads: fresh arrays, so they hold X's rows alone
            u_next, u_prev = u.take(_NEXT, axis=-2), u.take(_PREV, axis=-2)
            u_next.setflags(write=False)
            u_prev.setflags(write=False)
            self._memo = (key, (u_next, u_prev))
        # in place in the gathers of v: the bits of
        # u_next v_prev - u_prev v_next
        w = v.take(_PREV, axis=-2)
        w *= u_next
        t = v.take(_NEXT, axis=-2)
        t *= u_prev
        w -= t
        # [*row, component, z, y, x]: z, then y, then x
        W = self._z_from_grid @ w.reshape(lead + (3, n, n * n))
        W = self._y_from_grid @ W.reshape(lead + (3 * half, 2 * n, n))
        W = W.reshape(lead + (3 * half * side, 2 * n)) @ self._x_from_grid
        cube = W.reshape(lead + (6 * side * side * half,))
        Q = cube.take(self._read, axis=-1)
        # [representative, polarization, phase] is the local slot order.
        # The read floats R times the projection p in one ufunc call, in
        # place, then summed in order: the bits of R_0 p_0 + R_1 p_1 + R_2 p_2
        Q *= self._projection
        out = Q[..., 0, :] + Q[..., 1, :]
        out += Q[..., 2, :]
        return out

    def _synthesize(self, S) -> np.ndarray:
        """The velocity fields on the grid of a ``(fields, *rows, dim)``
        stack of states, as ``[field, *row, component, (z, y, x)]``."""
        n, side, half = self._shape
        fields = S.shape[:-1]
        Z = S.take(self._gather, axis=-1)
        Z = Z.reshape(fields + self._synthesis.shape)
        # both products in place in the gather, then one sum: the bits of
        # a Z_0 + b Z_1, with (a, b) the synthesis weights
        Z *= self._synthesis
        cube = Z[..., 0, :] + Z[..., 1, :]
        # [field, *row, component, kz, ky, re/im, kx]: x, then y, then z
        F = cube.reshape(fields + (3 * half * side, 2 * side))
        F = F @ self._x_to_grid
        F = self._y_to_grid @ F.reshape(fields + (3 * half, 2 * side, n))
        F = self._z_to_grid @ F.reshape(fields + (3, 2 * half, n * n))
        return F.reshape(fields + (3, n ** 3))


def build_torus_algebra(K: int, max_dim: int = TORUS_MAX_DIM):
    """Galerkin truncation of the torus fluid algebra at |k|_inf <= K.

    Returns ``(algebra, basis)``, with ``basis`` the
    :class:`TorusBasis` of K, built once after the cap on the dimension
    is checked.  The basis is L2-orthonormal so the metric is the
    identity; the linking form, :meth:`TorusBasis.linking`, couples the
    cos/sin pair within each mode with weight 2 pi |k| (curl eigenvalues
    +-2 pi |k|).  Both are given to the algebra as weighted permutations,
    the metric as None (the identity) and the linking form as
    ``(cols, w)``, so no (dim, dim) array is built; ``linking`` and
    ``metric`` are materialized only when first read.
    At K = 1 the triple form is of the kind that the entries' rule picks
    (:meth:`TripleForm.from_entries`), dense, its packed rows written
    straight from the entries, which are assembled in closed form from the
    selection rule k1 +- k2 +- k3 = 0 and products of trigonometric
    integrals.  At K >= 2 it is of the spectral kind: contractions run by
    pruned DFTs on a (3K+1)^3 grid, and the closed-form entries are
    assembled only when first read.
    """
    _number("instance", "K", K, 1, integer=True)
    _number("instance", "max_dim", max_dim, 1, integer=True)
    # four modes for each of the ((2K+1)^3 - 1) / 2 representatives,
    # counted before the lattice is enumerated
    dim = 2 * ((2 * K + 1) ** 3 - 1)
    if dim > max_dim:
        raise TorusSizeError(
            f"torus truncation K={K} has dimension {dim}, above the cap "
            f"{max_dim}; raise max_dim to build it anyway"
        )
    basis = TorusBasis(K)

    def entries():
        return _canonical_entries(dim, *_torus_entries(basis))

    # the entries' kind (dense) at K = 1 and spectral above, the faster
    # kernel at each K: one contract_pair on one state took 17 us dense
    # against 23 us spectral at K = 1 (dim 52), and 33 us spectral
    # against 224 us sparse at K = 2 (dim 248), a spectral call missing
    # its memo; best of 7 timeit repeats, 2-core x86, one BLAS thread
    if K == 1:
        tf = TripleForm._canonical(dim, *entries())
    else:
        tf = TripleForm.spectral(dim, _SpectralContraction(basis), entries)
    alg = FluidAlgebra(
        dim, tf, basis.linking(), None, meta={"kind": "torus", "K": K}
    )
    validate(alg).require()
    return alg, basis


def beltrami_state(basis: TorusBasis) -> np.ndarray:
    """Curl eigenfield with eigenvalue +2 pi built on the |k| = 1 shell.

    Combines the eigenvector (cos e2 + sin e1)/sqrt(2) of each unit
    wavevector (the ABC-flow pattern), normalized to unit energy.  Being a
    curl eigenvector it is a steady state of the Euler ODE.
    """
    # local order (c1, s1, c2, s2); +2pi eigenvectors are c2+s1 and c1-s2
    unit = 4 * np.flatnonzero(np.sum(basis.reps ** 2, axis=1) == 1)
    X = np.zeros(basis.dim)
    X[unit + 1] = 1.0  # s1
    X[unit + 2] = 1.0  # c2
    return X / np.linalg.norm(X)


# ---------------------------------------------------------------------------
# seeded random algebras


class GenerationError(RuntimeError):
    """Random generation exhausted its retry budget."""


def random_algebra(seed: int, n: int) -> FluidAlgebra:
    """Deterministic random fluid algebra, a pure function of (seed, n).

    * triple form: the full antisymmetrization of an (n, n, n) array of
      standard normals, evaluated at the canonical slots i < j < k alone
      and built from those entries, as a saved file's are (no entries for
      n < 3),
    * metric: A^T A + n I for standard-normal A (comfortably posdef),
    * linking: (B + B^T)/2 for standard-normal B, resampled from a freshly
      spawned seed until min |eigenvalue| >= 0.1 (bounded retries).

    Draws come from PCG64 seeded via SeedSequence(seed); retries use
    spawned child sequences, so the output never depends on how many
    retries earlier shapes consumed.
    """
    _number("instance", "seed", seed, 0, integer=True)
    _number("instance", "n", n, 1, integer=True)
    ss = np.random.SeedSequence(seed)
    # L first, so that a failure draws no n^3 array (ss.spawn ignores rng)
    for child in ss.spawn(_RANDOM_LINKING_RETRIES):
        B = make_rng(child).standard_normal((n, n))
        L = (B + B.T) / 2.0
        if np.min(np.abs(np.linalg.eigvalsh(L))) >= _RANDOM_LINKING_MIN_EIG:
            break
    else:
        raise GenerationError(
            f"no acceptable linking form in {_RANDOM_LINKING_RETRIES} "
            f"retries (seed={seed}, n={n})"
        )
    rng = make_rng(ss)
    T = TripleForm._canonical(
        n, *_canonical_slots(rng.standard_normal((n, n, n)), _antisymmetrize))
    A = rng.standard_normal((n, n))
    G = A.T @ A + n * np.eye(n)
    alg = FluidAlgebra(
        n, T, L, G, meta={"kind": "random", "seed": int(seed), "n": int(n)}
    )
    validate(alg).require()
    return alg
