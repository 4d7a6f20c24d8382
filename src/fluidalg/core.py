"""Core data model for finite-dimensional fluid algebras.

A fluid algebra on R^n is the triple (T, L, G):

* ``T`` -- a fully antisymmetric rank-3 tensor realizing the alternating
  trilinear form ``{X, Y, Z} = sum_ijk T[i,j,k] X_i Y_j Z_k``,
* ``L`` -- a symmetric nondegenerate matrix realizing the bilinear
  linking form ``<X, Y> = X^T L Y``,
* ``G`` -- a symmetric positive definite matrix realizing the metric
  inner product ``(X, Y) = X^T G Y``.

The curl operator ``D`` is the unique operator with ``(D X, Y) = <X, Y>``,
i.e. ``D = G^-1 L``; it is self-adjoint for the metric because ``L`` is
symmetric.  Energy is ``(X, X)`` and helicity is ``(X, D X) = X^T L X``.
:func:`dd_values` returns values of either form as :class:`DoubleDouble`
numbers: the float64 evaluation plus a low word holding the remainder of
the exact value, computed with the error-free transforms :func:`two_sum`
and :func:`two_product`.

All arrays are float64 and are frozen (non-writeable) once an algebra is
constructed, so algebra values are immutable and safely shareable between
threads.  Evaluation is sequential, and each pair contraction has one
kernel per storage kind of :class:`TripleForm`, with a fixed order of
operations: for the dense kind, the pair differences ``X_i Y_j - X_j Y_i``
(i < j, in ``np.triu_indices`` order) times the packed rows ``T[i, j, :]``
in one BLAS GEMV; one ``np.bincount`` in canonical entry order for the
sparse kind; and, for the spectral kind of the torus, pruned separable
DFTs between the kept wavevectors and a fixed N^3 grid with N = 3K + 1,
the smallest N at which the 3/2 rule removes all aliasing from the
quadratic product (Orszag, J. Atmos. Sci. 1971): small real GEMMs with
fixed matrices, each complex DFT matrix in its real block form acting on
the real and imaginary parts of the coefficients held apart (a planar
layout), since a real GEMM does the flops of a complex one at this size in
about half the time.  The spectral operator remembers the grid field of
the last first argument it was given, keyed by value (shape, dtype and
bytes), and a call with the same first argument synthesizes only the
second field, with the bits of a cold call: a probe stage contracts its
velocity twice.  Its memo is one immutable tuple, replaced whole, so
threads sharing an algebra stay correct.  The results of every operation
are thus pure functions of the input values, and every operation is
bit-reproducible on one platform and NumPy version.  All three kernels are
exactly antisymmetric, and the form is evaluated as
``{X, Y, Z} = X . contract_pair(Y, Z)``.  A dense form stores its packed
rows alone and a spectral form no tensor; the canonical entries of both
are materialized on demand.  Each kind is one subclass of
:class:`TripleForm`: the packed rows (:class:`_PackedRows`),
the canonical entries (:class:`_Entries`), and the operator with its
entry source (:class:`_Spectral`).  A subclass gives the kernel, its
chunk size, the entries and their count; :class:`TripleForm` defines the
rest once -- the largest entry, ``to_dense``, ``contract_pair`` and the
evaluation -- so no other code asks which kind a form is.  Packed rows
are written in one place, from canonical entries, each entry into its
three slots, with no (n, n, n) array.  An (n, n, n) array gives its
nonzero slots i < j < k as those entries, and its other slots are only
measured, so every kind contracts the form that ``to_dense`` gives back.
One rule in n and the entry count picks the dense or the sparse kind of
every form built from entries or from an array.

Every operator-layer entry point -- :meth:`TripleForm.contract_pair` and
``__call__``, the four products of :class:`FluidAlgebra` with G, G^-1, L
and L^-1, and the forms, curl pair and norms below -- takes one state of
shape (n,) or a block of B states of shape (B, n), states along the last
axis, and gives a block, row for row, the bits that each of its states
gives alone.  Products are one GEMV per contiguous row (``np.matvec``,
``np.vecmat``, whose bits for a 1-D operand are those of ``@``), inner
products are ``np.vecdot`` (the bits of ``x @ y``), the sparse kernel
offsets the slots of each row in one ``np.bincount``, and the spectral
DFTs are GEMMs batched over the rows (``np.matmul``), each row's of one
fixed shape.  A GEMM with the rows of a block as its columns would be
faster but rounds differently, so it is not used.  A kernel contracts a
block in the fewest chunks of rows whose temporaries hold at most about
128 KiB, the chunk sizes differing by at most one row, and makes its
products, differences and weights in place in arrays that it owns, with
the operations and order of a fresh array each.  The dense kernel
gathers its pair factors from the transposed chunk, so that each index
copies a run of B floats, and takes the differences back to contiguous
rows for the GEMVs; a gather moves the data and rounds nothing.  The form
``{X, Y, Z}`` contracts only the rows whose three arguments differ.
The arguments of one call are all states or all blocks of one B; any
other shape, a state of another length included, raises the
:class:`AlgebraFormatError` of :func:`_as_state` at every one of these
entry points, so none is truncated, read past its end or broadcast.
The operator layer -- ``contract_pair``, ``__call__`` and the four
products -- checks each argument under its own parameter name, and a
function above it checks an argument only where that layer cannot, so
that the error names the argument as the caller passed it: where two
arguments meet outside any operator (``X`` and ``Y`` of :func:`linking`
and :func:`metric_inner`, ``F`` and ``X`` of
:func:`~fluidalg.dynamics.circulation_defect`), and where the operator
below would give the argument another name (``Y`` of
:func:`inverse_curl`, ``v`` of :func:`g_norm`, ``r`` of
:func:`g_dual_norm`, and ``Z`` of ``transport`` and ``jacobiator``,
checked against their ``X``).

L and G follow one rule (:class:`_Matrix`): given as a tuple
``(cols, w)``, as None for the identity, or as an array with one nonzero
per row and column, a matrix is the weighted permutation
``M[r, cols[r]] = w[r]``, applied as ``w * X[cols]``, made in place in
its own float64 gather, and solved as ``x[cols] = rhs / w``, one
correctly rounded division per entry; with ``cols = range(n)`` it is a
diagonal, applied as ``w * X`` and solved as ``rhs / w`` in O(n).  The
identity, a diagonal of weights 1.0, solves as a float64 copy of
``rhs``, the bits of ``rhs / 1.0``, with no division.  For finite inputs
the products give the bits of the dense ``M @ X``, and the identity's
solve is the product with the inverse of ``I`` for an ``rhs`` without
``-0.0``, as the package passes it.
An algebra given its permutations stores no (n, n) array until
``linking`` or ``metric`` is first read.  Any other matrix is dense and
solved as the product with its inverse, precomputed once per algebra,
whose normwise backward error measured at most 7.2e-16 at the
condition-number limits that :func:`validate` admits (figures at
``_Matrix._inverse``).
"""

from __future__ import annotations

import json
import numbers
import reprlib
import sys
import warnings
from functools import cache, cached_property

import numpy as np

__all__ = [
    "ConfigError",
    "AlgebraFormatError",
    "AlgebraDataError",
    "AlgebraValidationError",
    "ConditioningWarning",
    "TripleForm",
    "FluidAlgebra",
    "ValidationReport",
    "CheckResult",
    "validate",
    "triple",
    "linking",
    "metric_inner",
    "energy",
    "helicity",
    "DoubleDouble",
    "two_sum",
    "two_product",
    "dd_values",
    "curl",
    "inverse_curl",
    "g_norm",
    "g_dual_norm",
    "make_rng",
    "save_algebra",
    "load_algebra",
]

# The kind of a form given by its canonical entries, by one rule in its
# dimension n and its entry count nnz: dense when its packed rows,
# n^2 (n-1)/2 floats, are at most _SPARSE_CALL_FLOATS +
# _SPARSE_ENTRY_FLOATS * nnz, sparse otherwise.  The rule weighs the two
# kernels' costs in floats of the dense GEMV: the sparse kernel costs
# about as much as 50 of them per entry, plus 100 000 per call for its
# fixed NumPy overhead.  TripleForm._canonical is its one reader.
# Contraction times in us, on one state / per row of a 50-row block; the
# named forms are rows of tools/kernel_times.py, the others random forms
# thinned to nnz entries, timed the same way (best of 5 passes over 20
# pairs, 2-core x86, one BLAS thread; f/e is the packed rows' floats per
# entry):
#    n     nnz   f/e  rule       dense         sparse
#   24      22   300  dense    4.8 /   1.0   11.3 /   0.8
#   45     120   371  dense   11.2 /   7.8   12.3 /   2.8  so(10)
#   52     472   146  dense   12.6 /   8.9   16.2 /   9.8  torus K=1 entries
#   64     430   300  sparse  16.4 /  13.0   16.4 /   8.6
#   66     220   644  sparse  23.6 /  20.4   13.6 /   4.7  so(12)
#   80    3370    75  dense   43.1 /  35.0   45.8 /  48.0
#   80    2528   100  sparse  41.9 /  31.7   37.2 /  39.1
#  100    8250    60  dense  135.9 / 137.4  102.8 / 104.9
#  100  161700     3  dense  133.3 / 135.3   2739 /  2751  random
#  150   33525    50  dense  448.5 / 450.5  457.5 / 463.5
#  200   88444    45  dense  958.5 / 968.0   1318 /  1326
#  248   12984   585  sparse  1748 /  1761  146.6 / 151.0  torus K=2 entries
# Rows of up to 1 MB (n <= 64) stay in cache; past that the GEMV costs
# about twice as much per float, and the crossover falls from 150-300
# floats per entry to about 50 from n = 100 on.  The fixed term keeps
# small forms dense, where the sparse kernel's overhead dominates.  The
# rule follows the one-state times, those of a simulation: the worst miss
# there is 1.3x (n = 100, 60 floats per entry), while on blocks, which
# share that overhead, a small form of few entries runs up to 2.8x
# faster sparse (so(10)).  The rule also caps the rows at 400 bytes per
# entry plus 800 kB, against the 80 bytes per entry that the sparse kind
# keeps.  No absolute cap is needed: a form near full density, as a
# random one (3 floats per entry), is dense at every n, and its rows take
# fewer bytes than its entries would.
_SPARSE_ENTRY_FLOATS = 50
_SPARSE_CALL_FLOATS = 100_000

# Floats per temporary array when a kernel runs on a block of states,
# which it does in chunks of rows: 128 KiB, the size from which the C
# allocator maps an array fresh and faults it in, or trims it back to the
# system once freed.  The kernels make their products and differences in
# place, so a chunk holds few such arrays.  `fluidalg diagnose` (200
# states, 200 triples, 50-row blocks, timed run_identity_suite, median of
# 7 fresh processes, 2-core x86, one BLAS thread) took, at 1 << 12, 13,
# 14, 15 and 16:
#   n =  9:  2.8,  2.8,  2.8,  2.8,  2.8 ms (50 rows in one piece at all);
#   n = 32: 13.3, 12.2, 11.1, 15.9, 15.9 ms;
#   n = 48: 37.0, 27.4, 26.0, 24.8, 23.6 ms;
#   n = 64: 57.5, 50.0, 51.3, 51.2, 48.6 ms.
# At n = 32, one 50-row piece (temporaries of 198 kB) costs 43% more than
# 25/25 rows: the allocator maps or trims those temporaries at every call.
# At n = 48 and 64 the algebra's (n, n, n) array has already raised its
# threshold above them, and fewer chunks win.  1 << 14 is the fastest at
# n = 32 and about 10% and 6% behind the fastest at 48 and 64.  The chunks
# are made even, since a short chunk costs more per row (a 2-row chunk
# about twice as much as a 12-16-row one): 50 rows run as 25/25 at
# n = 32, not 33/17.
_BLOCK_TERMS = 1 << 14

# Byte alignment of the fixed matrices of the contraction kernels.  At
# n = 32 the dense kernel's GEMV of a 50-row block took 80-87 us with its
# packed rows 64-byte aligned and 109-138 us at the other 8-byte offsets,
# with the same bits (2-core x86, one BLAS thread).
_ALIGNMENT = 64

# Nondegeneracy thresholds for validation (relative to the largest
# singular value / eigenvalue).  Chosen so that curl solves remain
# trustworthy at double precision.
LINKING_SV_RATIO = 1e-8
METRIC_EIG_RATIO = 1e-10

# Symmetry threshold for validation: the antisymmetry defect of T and the
# symmetry defects of L and G fail above this times the largest |entry| of
# their form (at least 1).
SYMMETRY_TOL = 1e-12

# Above this condition number of L, inverse_curl and induced_bracket emit a
# ConditioningWarning (validation itself fails only at LINKING_SV_RATIO).
CONDITION_WARN_THRESHOLD = 1e6


class ConfigError(ValueError):
    """A bad setting: a value outside the range that its owner accepts."""


class AlgebraFormatError(ValueError):
    """Structural problem: wrong shapes, bad sparse entries, bad file schema."""


class AlgebraDataError(ValueError):
    """Non-finite entries in algebra data."""


class AlgebraValidationError(ValueError):
    """A validated invariant of the algebra does not hold."""


class ConditioningWarning(UserWarning):
    """The linking form is ill-conditioned; solves against it lose accuracy."""


def make_rng(seed) -> np.random.Generator:
    """Project-wide deterministic generator: PCG64 (O'Neill's PCG XSL RR 128/64).

    Every seeded feature of the package draws from this generator, so
    fixtures are bit-identical across platforms.  ``seed`` may be an int or
    a ``numpy.random.SeedSequence``.
    """
    return np.random.Generator(np.random.PCG64(seed))


def _as_state(dim: int, X, name: str = "state", block: bool = False,
              like=None) -> np.ndarray:
    """``X`` as a float64 array of shape (dim,); with ``block``, a (B, dim)
    block of states is taken too, and with ``like``, exactly the shape of
    that array is."""
    X = np.asarray(X, dtype=float)
    if like is not None:
        if X.shape == like.shape:
            return X
        expected = like.shape
    else:
        if X.shape == (dim,) or (block and X.ndim == 2
                                 and X.shape[1] == dim):
            return X
        expected = f"({dim},) or (B, {dim})" if block else f"({dim},)"
    raise AlgebraFormatError(f"{name} has shape {X.shape}, expected "
                             f"{expected}")


# BLAS takes a different path for a strided vector than for a contiguous
# one, with other bits, and advanced indexing along the last axis of a
# block gives strided rows; so the products below first make the rows
# contiguous.  A state's bits then depend on its values alone.


def _aligned_empty(shape, dtype=float) -> np.ndarray:
    """An uninitialized C-ordered array whose data starts on a 64-byte
    boundary, the line that BLAS kernels load fastest."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(nbytes + _ALIGNMENT, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGNMENT
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def _matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    # M applied to each state along the last axis, one GEMV per row; for a
    # contiguous 1-D X the bits are those of M @ X
    return np.matvec(M, np.ascontiguousarray(X))


def _dot(X: np.ndarray, Y: np.ndarray):
    # the inner products of the rows, one BLAS dot each, with the bits of
    # x @ y for contiguous 1-D x and y
    return np.vecdot(np.ascontiguousarray(X), np.ascontiguousarray(Y))


def _in_chunks(kernel, row_terms: int, *blocks):
    """``kernel(*blocks)`` for states or (B, n) blocks, run on chunks of
    rows whose temporaries hold about ``_BLOCK_TERMS`` floats when each
    row takes ``row_terms`` of them."""
    rows = blocks[0].shape[0] if blocks[0].ndim == 2 else 1
    step = max(1, _BLOCK_TERMS // row_terms)
    if rows <= step:
        return kernel(*blocks)
    # the fewest chunks of at most step rows, their sizes differing by at
    # most one: a short last chunk costs more per row than a full one
    chunks = -(-rows // step)
    size, extra = divmod(rows, chunks)
    starts = [c * size + min(c, extra) for c in range(chunks + 1)]
    return np.concatenate([
        kernel(*(block[start:stop] for block in blocks))
        for start, stop in zip(starts, starts[1:])
    ])


def _scalars(v):
    # a float for one state, the array of per-row values for a block
    return float(v) if v.ndim == 0 else v


def _is_index(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_finite_real(x) -> bool:
    # abs(...) <= max rejects infinities, NaN and ints past the float range
    return _is_real(x) and abs(x) <= sys.float_info.max


def _number(section: str, key: str, value, least, integer: bool = False,
            strict: bool = False, most=None):
    """The setting ``key`` of ``section``, checked: with ``integer`` an
    ``int`` >= ``least`` (and <= ``most`` when given), otherwise a finite
    real number >= ``least``, or > ``least`` when ``strict``, returned as a
    float.  ``bool`` is not a number here.  Any other value raises
    :class:`ConfigError` naming the section, as the CLI prints it."""
    if (integer and _is_index(value) and value >= least
            and (most is None or value <= most)):
        return value
    if (not integer and _is_finite_real(value)
            and (value > least if strict else value >= least)):
        return float(value)
    expected = (f"an integer >= {least}" if integer
                else f"finite and {'>' if strict else '>='} {least}")
    if most is not None:
        expected += f" and <= {most}"
    raise ConfigError(
        f"bad {section} config: {key} must be {expected}, got {value!r}")


def _is_permutation(cols: np.ndarray) -> bool:
    # each of range(n) once, for n integers (np.unique imports numpy.ma)
    return np.array_equal(np.sort(cols), np.arange(cols.size))


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _canonical_entries(dim: int, index, values):
    """Check canonical ``i < j < k`` entries and return the nonzero ones
    sorted by ``(i, j, k)`` as frozen arrays."""
    index = np.asarray(index, dtype=np.intp).reshape(-1, 3)
    values = np.asarray(values, dtype=float).reshape(-1)
    if index.shape[0] != values.shape[0]:
        raise AlgebraFormatError("sparse index/value length mismatch")
    if index.size:
        if index.min() < 0 or index.max() >= dim:
            raise AlgebraFormatError("sparse entry index out of range")
        i, j, k = index.T
        if not (np.all(i < j) and np.all(j < k)):
            raise AlgebraFormatError(
                "sparse entries must satisfy i < j < k"
            )
    if not np.all(np.isfinite(values)):
        raise AlgebraDataError("non-finite value in sparse entries")
    order = np.lexsort((index[:, 2], index[:, 1], index[:, 0]))
    index = index[order]
    values = values[order]
    if np.all(index[1:] == index[:-1], axis=1).any():
        raise AlgebraFormatError("duplicate sparse entry")
    # a zero entry is no entry, so every kind counts the same ones
    nonzero = values != 0.0
    return _read_only(index[nonzero], values[nonzero])


def _canonical_slots(array: np.ndarray, read=np.ndarray.__getitem__):
    """The nonzero values ``read(array, (i, j, k))`` at the slots
    i < j < k of a cubic array, ``array[i, j, k]`` by default, as
    canonical entries, frozen, sorted by (i, j, k) as they are read, so
    that they need no check or sort: for each i, the last
    (n-1-i)(n-2-i)/2 pairs j < k of ``np.triu_indices``, those with
    j > i."""
    dim = _checked_dim(len(array))
    ju, ku = np.triu_indices(dim, 1)
    counts = np.arange(dim - 1, -1, -1) * np.arange(dim - 2, -2, -1) // 2
    ends = np.cumsum(counts)
    p = np.arange(ends[-1]) + np.repeat(ju.size - ends, counts)
    index = np.stack((np.repeat(np.arange(dim), counts), ju[p], ku[p]), axis=1)
    values = read(array, tuple(index.T))
    # views, not copies, when no slot is zero, as in a random draw
    nonzero = slice(None) if values.all() else values != 0.0
    return _read_only(index[nonzero], values[nonzero])


def _checked_dim(dim) -> int:
    # one rule for every dimension given: an int, not a bool, of at least 1
    if not _is_index(dim) or dim < 1:
        raise AlgebraFormatError("dim must be a positive integer")
    return int(dim)


class TripleForm:
    """Fully antisymmetric rank-3 form, in one of three storage kinds.

    The canonical representation is the list of entries ``(i, j, k, value)``
    with ``i < j < k`` (``index`` and ``values``); the other five index
    orders are implied by full antisymmetry.  The kind fixes what is stored
    and how :meth:`contract_pair`, the integrator hot path, is computed,
    and each kind is one subclass:

    * ``"dense"`` (:class:`_PackedRows`) -- the packed (n(n-1)/2, n)
      matrix of the rows ``T[i, j, :]`` with i < j (``dense``) alone,
      written from the entries, each into its three packed slots, and
      contracted by one BLAS GEMV;
    * ``"sparse"`` (:class:`_Entries`) -- the canonical entries alone,
      contracted by one ``np.bincount`` in entry order;
      ``TripleForm(dim, index, values)`` gives this kind;
    * ``"spectral"`` (:class:`_Spectral`) -- no stored tensor: a
      matrix-free operator computes the contraction (:meth:`spectral`).

    :meth:`from_entries` and :meth:`from_dense` give the dense or the
    sparse kind by one rule in n and the entry count, whichever contracts
    faster (``_SPARSE_ENTRY_FLOATS``): dense for a random algebra at every
    n, sparse for the torus K=2 entries and for so(m) from m = 12.  The
    dense and spectral kinds build their entries on the first access to
    them.  A zero entry is dropped, so every kind counts the same entries.
    A subclass gives its kernel ``_kernel(X, Y)``, the pair contraction of
    one state or one chunk of rows; ``_row_terms``, the floats per row in
    the kernel's largest temporaries; the canonical ``_entries``, checked,
    sorted and frozen; and ``_nnz``, their count, or None until it is
    first read.  ``dense`` and ``operator`` are None but in their own
    kind.  Everything else is defined once, here, on the entries and the
    kernel, so no code asks which kind a form is.
    Every constructor refuses a ``dim`` that is not an ``int`` (``bool``
    is not) of at least 1 with :class:`AlgebraFormatError`.  Every kind's
    contraction is *exactly* antisymmetric in its two arguments, and
    ``__call__`` is ``X . contract_pair(Y, Z)``, so it exactly negates
    when the last two arguments are swapped and is exactly zero whenever
    two arguments are equal.
    """

    dense = operator = None
    # max |T - antisym(T)| of an input array, for validate(); entries have
    # none
    _defect = 0.0

    def __new__(cls, *args, **kwargs):
        # the base class called as TripleForm(dim, index, values) gives a
        # form of the sparse kind
        return super().__new__(_Entries if cls is TripleForm else cls)

    # -- constructors -------------------------------------------------

    @classmethod
    def spectral(cls, dim: int, operator, entries) -> "TripleForm":
        """A form of the spectral kind, stored as no tensor at all.

        ``operator(X, Y)`` returns the pair contraction of two states, or
        of two (B, dim) blocks row by row with the bits of each row alone;
        it must be exactly antisymmetric in its arguments, as a pointwise
        cross product is.  A block is given to it in chunks of at most
        ``_BLOCK_TERMS // row_terms`` rows, with ``row_terms`` its
        optional attribute (``dim`` without it).
        ``entries()`` returns the canonical ``(index, values)``, checked,
        sorted by (i, j, k) and frozen, as :func:`_canonical_entries` gives
        them; they are stored as they come.  It is called on the first
        access to the entries (``index``, ``values``, ``entry_list``,
        ``to_dense``), and never for a contraction or an evaluation of the
        form.  ``nnz`` and ``max_abs`` are read together, on the first
        read of either: from ``entries.summary()``, the optional attribute
        that returns them as the entries would give them, bit for bit,
        while the entries are not stored, else from the entries.  Two
        threads making a first access together may each compute the same
        values.
        """
        return _Spectral(dim, operator, entries)

    @classmethod
    def from_dense(cls, array) -> "TripleForm":
        """A form on the nonzero canonical slots ``array[i, j, k]``,
        i < j < k, as :meth:`from_entries` takes them, recording the
        array's largest |entry| (:meth:`max_abs`) and its antisymmetry
        defect ``max |A - antisym(A)|`` (:func:`validate`); the other slots
        are read for these two alone."""
        array = np.asarray(array, dtype=float)
        if array.ndim != 3 or len(set(array.shape)) != 1:
            raise AlgebraFormatError(
                f"triple tensor must be cubic rank 3, got shape {array.shape}"
            )
        if not np.all(np.isfinite(array)):
            raise AlgebraDataError("non-finite value in triple tensor")
        # slab by slab, so that no temporary holds n^3 floats: the largest
        # |entry| and the defect
        t_max = defect = 0.0
        for i, slab in enumerate(array):
            t_max = max(t_max, float(np.max(np.abs(slab))))
            defect = max(defect, float(np.max(np.abs(
                slab - _antisymmetrize(array, i)))))
        form = cls._canonical(len(array), *_canonical_slots(array))
        form._max_abs, form._defect = t_max, defect
        return form

    @classmethod
    def from_entries(cls, dim: int, entries) -> "TripleForm":
        """Build from canonical ``(i, j, k, value)`` rows with i < j < k,
        of the kind that the rule of :meth:`_canonical` picks.

        Each row is a list or tuple of three ``int`` indices (not ``bool``)
        and a real value; any other row raises :class:`AlgebraFormatError`,
        so nothing is truncated or coerced.
        """
        if not isinstance(entries, (list, tuple)):
            raise AlgebraFormatError(
                "triple entries must be a list of [i, j, k, value] rows"
            )
        for row in entries:
            # the exact types first: the numbers checks take 15x as long
            if not (isinstance(row, (list, tuple)) and len(row) == 4 and (
                    type(row[0]) is type(row[1]) is type(row[2]) is int
                    and type(row[3]) in (float, int)
                    or all(map(_is_index, row[:3])) and _is_real(row[3]))):
                raise AlgebraFormatError(
                    f"bad triple entry {reprlib.repr(row)}")
        try:
            index = np.array([row[:3] for row in entries], dtype=np.intp)
            values = np.array([row[3] for row in entries], dtype=float)
        except OverflowError as exc:
            raise AlgebraFormatError(
                "sparse entry index or value out of range") from exc
        dim = _checked_dim(dim)
        return cls._canonical(dim, *_canonical_entries(dim, index, values))

    @classmethod
    def _canonical(cls, dim: int, index, values) -> "TripleForm":
        """A form on canonical entries, checked, sorted and frozen as
        :func:`_canonical_entries` gives them: of the dense kind when its
        packed rows, n^2 (n-1)/2 floats, are at most
        ``_SPARSE_CALL_FLOATS + _SPARSE_ENTRY_FLOATS * nnz``, else of the
        sparse kind."""
        floats = dim * dim * (dim - 1) // 2
        if floats <= _SPARSE_CALL_FLOATS + _SPARSE_ENTRY_FLOATS * values.size:
            return _PackedRows(dim, index, values)
        return _Entries(dim, index, values, checked=True)

    # -- queries ------------------------------------------------------

    @property
    def index(self) -> np.ndarray:
        return self._entries[0]

    @property
    def values(self) -> np.ndarray:
        return self._entries[1]

    @property
    def nnz(self) -> int:
        return self._nnz

    @cached_property
    def _max_abs(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    def max_abs(self) -> float:
        """The largest |entry|; for :meth:`from_dense`, that of its input."""
        return self._max_abs

    @property
    def _scale(self) -> float:
        # the scale of validate()'s antisymmetry threshold
        return max(self._max_abs, 1.0)

    def entry_list(self):
        """Canonical entries as a list of (i, j, k, value) tuples."""
        return list(zip(*self.index.T.tolist(), self.values.tolist()))

    def to_dense(self) -> np.ndarray:
        """A new (n, n, n) array of the form, from its canonical entries;
        every other slot is +0.0."""
        out = np.zeros((self.dim,) * 3)
        (i, j, k), v = self.index.T, self.values
        out[i, j, k] = out[j, k, i] = out[k, i, j] = v
        out[j, i, k] = out[i, k, j] = out[k, j, i] = -v
        return out

    # -- evaluation ---------------------------------------------------

    def __call__(self, X, Y, Z):
        """Evaluate {X, Y, Z} as ``X . contract_pair(Y, Z)``.

        The arguments are single states (n,), giving a float, or (B, n)
        blocks of one shape, giving the B values of the rows, each with the
        bits of its row evaluated alone; any other shapes raise
        :class:`AlgebraFormatError`.  A row is exactly 0.0 when two of its
        arguments are equal, and the value exactly negates when the last
        two arguments are swapped, since every kernel of
        :meth:`contract_pair` is exactly antisymmetric.  Such a row is not
        contracted at all: only the other rows, as contiguous copies, reach
        the kernel.  A spectral form evaluates it without materializing its
        entries.
        """
        X, Y, Z = (np.asarray(A, dtype=float) for A in (X, Y, Z))
        if (X.shape[-1:] != (self.dim,) or X.ndim > 2
                or not X.shape == Y.shape == Z.shape):
            _as_state(self.dim, X, "X", block=True)
            _as_state(self.dim, Y, "Y", like=X)
            _as_state(self.dim, Z, "Z", like=X)
        repeated = ((X == Y).all(axis=-1) | (Y == Z).all(axis=-1)
                    | (X == Z).all(axis=-1))
        value = np.zeros(repeated.shape)
        keep = ~repeated
        if keep.any():
            value[keep] = _dot(X[keep], self.contract_pair(Y[keep], Z[keep]))
        return _scalars(value)

    def contract_pair(self, X, Y) -> np.ndarray:
        """Return b with ``b[m] = sum_ij T[i,j,m] X_i Y_j``.

        ``X`` and ``Y`` are single states (n,) or (B, n) blocks of one
        shape, of any real dtype, contracted as their float64 values; a
        block gives, row for row, the bits of its rows contracted alone.
        Any other shapes raise :class:`AlgebraFormatError`.
        One kernel per storage kind, each exactly antisymmetric in X and Y
        (``contract_pair(Y, X)`` is ``-contract_pair(X, Y)`` bit for bit,
        and ``contract_pair(X, X)`` is zero) and with a fixed order of
        operations:

        * dense: the pair differences ``X_i Y_j - X_j Y_i`` for i < j, in
          ``np.triu_indices`` order, gathered from the transposed chunk,
          times the packed (n(n-1)/2, n) matrix of the entries
          ``T[i, j, :]``, as one BLAS GEMV per contiguous row;
        * sparse: one ``np.bincount`` over the canonical entries, with the
          slots of row r offset by r n, adds the terms landing on k, then
          on i, then on j, each in entry order;
        * spectral: the matrix-free operator (on the torus, pruned DFTs
          to a fixed grid and back, as real GEMMs of fixed shape on the
          planar re/im layout, batched over the two fields and the rows);
          it never materializes the entries.

        A block runs through the kernel in the fewest chunks of rows, of
        sizes differing by at most one (:func:`_in_chunks`).
        """
        X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
        state = (self.dim,)
        if X.shape == state and Y.shape == state:
            return self._kernel(X, Y)
        if X.shape[-1:] != state or X.ndim > 2 or Y.shape != X.shape:
            _as_state(self.dim, X, "X", block=True)
            _as_state(self.dim, Y, "Y", like=X)
        return _in_chunks(self._kernel, self._row_terms, X, Y)


class _PackedRows(TripleForm):
    """The dense kind: the packed (n(n-1)/2, n) matrix of the rows
    ``T[i, j, :]`` with i < j, in ``np.triu_indices`` order, alone."""

    kind = "dense"

    def __init__(self, dim: int, index, values):
        # the one writer of packed rows: from canonical entries, as
        # TripleForm._canonical takes them, into a fresh 64-byte-aligned
        # matrix with no (n, n, n) array.  Entry (a, b, c, v) puts v at row
        # (a, b), column c, -v at row (a, c), column b and v at row (b, c),
        # column a; the entries themselves are not kept
        self.dim = dim = _checked_dim(dim)
        packed = _aligned_empty((dim * (dim - 1) // 2, dim))
        packed.fill(0.0)
        a, b, c = index.T
        # the row of the pair (i, j), i < j, in np.triu_indices order is
        # first[i] + j
        first = np.arange(dim) * (2 * dim - np.arange(dim) - 3) // 2 - 1
        packed[first[a] + b, c] = values
        packed[first[a] + c, b] = -values
        packed[first[b] + c, a] = values
        packed.setflags(write=False)
        self.dense = packed
        self._row_terms = max(1, packed.shape[0])
        # the index pairs i < j of the rows, in np.triu_indices order
        self._pairs = np.triu_indices(dim, 1)
        # from_dense() puts the largest |entry| of its whole array in place
        # of _max_abs
        self._nnz = int(values.size)
        self._max_abs = float(np.max(np.abs(values), initial=0.0))

    @cached_property
    def _entries(self):
        # the nonzero slots k > j of the rows (i, j) in np.triu_indices
        # order come out sorted by (i, j, k), so they need no check or sort
        iu, ju = self._pairs
        p, k = np.nonzero((self.dense != 0.0)
                          & (np.arange(self.dim) > ju[:, None]))
        return _read_only(np.stack((iu[p], ju[p], k), axis=1),
                          self.dense[p, k])

    def _kernel(self, X, Y) -> np.ndarray:
        iu, ju = self._pairs
        block = X.ndim == 2
        if block:
            # gathered from the transposed chunk, each index copies a run
            # of B floats; a state is its own transposed chunk, and
            # skipping the copies keeps the single-state path as fast
            X, Y = np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T)
        # X_i Y_j - X_j Y_i, each product and the difference made in place
        # in a gather that the kernel owns
        D = X.take(iu, axis=0)
        D *= Y.take(ju, axis=0)
        E = X.take(ju, axis=0)
        E *= Y.take(iu, axis=0)
        D -= E
        if block:
            # back to contiguous rows: one GEMV per contiguous row has the
            # bits of the 1-D kernel
            D = np.ascontiguousarray(D.T)
        return np.vecmat(D, self.dense)


class _Entries(TripleForm):
    """The sparse kind: the canonical entries alone."""

    kind = "sparse"

    def __init__(self, dim: int, index, values, checked: bool = False):
        # checked: the entries come as _canonical_entries gives them
        self.dim = _checked_dim(dim)
        if not checked:
            index, values = _canonical_entries(dim, index, values)
        self._entries = index, values
        self._nnz = int(values.size)
        # the index columns i, j, k, each contiguous, which halves the time
        # of the gathers, and the output slot of each term: k, i, j
        self._columns = i, j, k = [np.ascontiguousarray(c) for c in index.T]
        self._targets = np.concatenate((k, i, j))
        self._row_terms = max(1, self._targets.size)

    def _kernel(self, X, Y) -> np.ndarray:
        v = self._entries[1]
        if not (v.size and X.size):
            return np.zeros(X.shape)
        Xi, Xj, Xk = (X.take(c, axis=-1) for c in self._columns)
        Yi, Yj, Yk = (Y.take(c, axis=-1) for c in self._columns)
        # the terms (X_i Y_j - X_j Y_i) v, (X_j Y_k - X_k Y_j) v and
        # (X_k Y_i - X_i Y_k) v of each row, laid out (3, nnz), made in
        # place in one buffer, with one more for the second products
        terms = np.empty(X.shape[:-1] + (3, v.size))
        second = np.empty(X.shape[:-1] + (v.size,))
        for t, (a, b, c, d) in zip(np.moveaxis(terms, -2, 0), (
                (Xi, Yj, Xj, Yi), (Xj, Yk, Xk, Yj), (Xk, Yi, Xi, Yk))):
            np.multiply(a, b, out=t)
            t -= np.multiply(c, d, out=second)
            t *= v
        slots = self._targets
        if X.ndim == 2 and len(X) > 1:
            # the slots of row r are offset by r n; a lone row keeps them
            slots = (slots + self.dim * np.arange(len(X))[:, None]).ravel()
        out = np.bincount(slots, weights=terms.ravel(), minlength=X.size)
        return out.reshape(X.shape)


class _Spectral(TripleForm):
    """The spectral kind: a matrix-free operator, and the source of the
    entries until they are first read."""

    kind = "spectral"
    # the unscaled threshold, so that building reads neither the entries
    # nor max_abs() (on the torus they are at most 1/sqrt(2) in any case)
    _scale = 1.0
    # no count until it is first read, so that building reads nothing
    _nnz = None

    def __init__(self, dim: int, operator, entries):
        self.dim = _checked_dim(dim)
        self._entry_source = entries
        self._kernel = self.operator = operator
        self._row_terms = getattr(operator, "row_terms", self.dim)

    @property
    def _entries(self):
        # the source gives canonical frozen entries; they are stored before
        # the source is dropped, so a reader never finds neither
        source = self._entry_source
        if source is not None:
            self._stored, self._entry_source = source(), None
            self._nnz = int(self._stored[1].size)
        return self._stored

    @property
    def nnz(self) -> int:
        return self._counts[0]

    @property
    def _max_abs(self) -> float:
        return self._counts[1]

    @cached_property
    def _counts(self):
        # (nnz, max_abs()), from the source's summary while the entries
        # are not stored, which assembles none of them
        summary = getattr(self._entry_source, "summary", None)
        if summary is None:
            values = self.values
            return (int(values.size),
                    float(np.max(np.abs(values), initial=0.0)))
        counts = summary()
        self._nnz = counts[0]
        return counts


def _permutation_of(M: np.ndarray):
    """``(cols, w)``, frozen, when row r of M has the single nonzero
    ``M[r, cols[r]] = w[r]`` and ``cols`` is a permutation, else None."""
    rows, cols = np.nonzero(M)
    if not (np.array_equal(rows, np.arange(len(M))) and _is_permutation(cols)):
        return None
    return _read_only(cols, M[rows, cols])


def _checked_permutation(dim: int, value, name: str):
    """A ``(cols, w)`` tuple checked: ``cols`` a permutation of
    ``range(dim)``, ``w`` dim finite weights; both copied and frozen."""
    if len(value) != 2:
        raise AlgebraFormatError(f"a {name} structure is a tuple (cols, w)")
    cols, w = (np.array(a) for a in value)
    if cols.shape != (dim,) or w.shape != (dim,):
        raise AlgebraFormatError(
            f"{name} cols and w have shapes {cols.shape} and {w.shape}, "
            f"expected ({dim},)")
    if cols.dtype.kind not in "iu" or not _is_permutation(cols):
        raise AlgebraFormatError(
            f"{name} cols must be a permutation of range({dim})")
    if w.dtype.kind not in "iuf":
        raise AlgebraFormatError(f"{name} weights must be real numbers")
    w = w.astype(float)
    if not np.all(np.isfinite(w)):
        raise AlgebraDataError(f"non-finite value in {name} weights")
    return _read_only(cols.astype(np.intp), w)


class _Matrix:
    """L or G, held as a weighted permutation (``cols`` and ``w``) or
    dense (``w`` is None) by the rule of the module docstring.  A solve
    refuses a singular matrix, or with ``definite`` one that is not
    positive definite, with :class:`AlgebraValidationError`.
    """

    def __init__(self, dim: int, value, name: str, definite: bool = False):
        self.name, self.definite = name, definite
        self._dense = None
        if value is None:
            value = (np.arange(dim), np.ones(dim))
        if isinstance(value, tuple):
            self.cols, self.w = _checked_permutation(dim, value, name)
        else:
            M = np.array(value, dtype=float, order="C")
            if M.shape != (dim, dim):
                raise AlgebraFormatError(
                    f"{name} matrix has shape {M.shape}, expected "
                    f"({dim}, {dim})")
            if not np.all(np.isfinite(M)):
                raise AlgebraDataError(f"non-finite value in {name} matrix")
            M.setflags(write=False)
            self._dense = M
            self.cols, self.w = _permutation_of(M) or (None, None)
        self.diagonal = (self.w is not None
                         and np.array_equal(self.cols, np.arange(dim)))
        self.unit = self.diagonal and bool(np.all(self.w == 1.0))

    @property
    def dense(self) -> np.ndarray:
        """The (n, n) array, frozen; for a permutation built on first read."""
        if self._dense is None:
            M = np.zeros((self.w.size, self.w.size))
            M[np.arange(self.w.size), self.cols] = self.w
            M.setflags(write=False)
            self._dense = M
        return self._dense

    # Both products take a state (n,) or a (B, n) block of states and give
    # each row the bits of that row alone, in a fresh float64 array.  For
    # finite inputs a permutation gives the bits of the dense product;
    # + 0.0 turns the -0.0 of a zero product into the +0.0 of a sum.  A
    # permutation makes w * X[cols] + 0.0 in place in its own float64
    # gather; the identity (``unit``) solves as a float64 copy, the bits
    # of rhs / 1.0.

    def apply(self, X: np.ndarray) -> np.ndarray:
        if self.w is None:
            return _matvec(self._dense, X)
        if self.diagonal:
            return self.w * X + 0.0
        out = X.take(self.cols, axis=-1).astype(float, copy=False)
        out *= self.w
        out += 0.0
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        inverse = self._inverse
        if inverse is not None:
            return _matvec(inverse, rhs)
        if self.unit:
            return np.array(rhs, dtype=float)
        if self.diagonal:
            return rhs / self.w
        x = np.empty(np.shape(rhs))
        x[..., self.cols] = rhs / self.w
        return x

    # Measured normwise backward error of the product with the inverse,
    # ||A x - r|| / (||A|| ||x||), worst of 300 random right-hand sides at
    # n = 32: 7.2e-16 for a metric at condition number 1e10 (a Cholesky
    # solve gives 9.1e-17), 1.8e-16 for a linking form at 1e8 (an LU solve
    # gives 1.3e-16).

    @cached_property
    def _inverse(self):
        # the inverse of a dense matrix, None for a permutation, once the
        # solve is known to be well defined; a permutation is positive
        # definite only as a diagonal of positive weights
        if self.w is None:
            try:
                if self.definite:
                    np.linalg.cholesky(self._dense)
                return np.linalg.inv(self._dense)
            except np.linalg.LinAlgError:
                pass
        elif ((self.diagonal and np.all(self.w > 0.0)) if self.definite
              else np.all(self.w != 0.0)):
            return None
        what = ("is not positive definite (Cholesky failed)"
                if self.definite else "matrix is singular")
        raise AlgebraValidationError(
            f"{self.name} {what}; run validate() for details")

    @cached_property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self._dense if self.w is None
                                   else self.w)))

    @cached_property
    def symmetry_defect(self) -> float:
        # max |M - M^T|: for a permutation, M[r, cols[r]] - M[cols[r], r]
        # is w[r] - w[cols[r]] where cols pairs r with cols[r], else w[r],
        # and every other entry of M - M^T is one of those negated or zero
        if self.w is None:
            return float(np.max(np.abs(self._dense - self._dense.T)))
        cols, w = self.cols, self.w
        paired = cols[cols] == np.arange(cols.size)
        return float(np.max(np.abs(np.where(paired, w - w[cols], w))))

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Descending: the sorted ``|w|`` of a permutation, else the SVD."""
        if self.w is not None:
            return np.sort(np.abs(self.w))[::-1]
        return np.linalg.svd(self._dense, compute_uv=False)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending: the sorted ``w`` of a diagonal, else ``eigvalsh``."""
        if self.diagonal:
            return np.sort(self.w)
        return np.linalg.eigvalsh(self.dense)

    @cached_property
    def nonzeros(self):
        # the terms of dd_values: the nonzeros in row-major order, padded
        if self.w is None:
            rows, cols = np.nonzero(self._dense)
            return _padded(rows, cols, self._dense[rows, cols])
        rows = np.flatnonzero(self.w)
        return _padded(rows, self.cols[rows], self.w[rows])


class FluidAlgebra:
    """Immutable value bundling the three forms on an n-dimensional space.

    Parameters
    ----------
    dim : int (not bool), at least 1
    triple : TripleForm, dense (n, n, n) array, or iterable of (i, j, k, v)
    linking, metric : L, symmetric nondegenerate, and G, symmetric positive
        definite, each an (n, n) array or list of rows; a tuple
        ``(cols, w)``, the weighted permutation ``M[r, cols[r]] = w[r]``
        (a tuple is always read as this); or None for the identity
    meta : optional dict of provenance tags (instance name, seeds, ...)

    Construction performs structural checks only (shapes, finiteness, and
    that ``cols`` is a permutation of ``range(n)``); the mathematical
    invariants are checked by :func:`validate`.  ``linking`` and
    ``metric`` read back as frozen (n, n) arrays; one given as a
    permutation is built on the first read.
    """

    def __init__(self, dim: int, triple, linking, metric, meta=None):
        self.dim = _checked_dim(dim)
        self._state = (self.dim,)
        if isinstance(triple, TripleForm):
            tf = triple
        elif isinstance(triple, np.ndarray) and triple.ndim == 3:
            tf = TripleForm.from_dense(triple)
        else:
            tf = TripleForm.from_entries(self.dim, triple)
        if tf.dim != self.dim:
            raise AlgebraFormatError(
                f"triple form dimension {tf.dim} != algebra dim {self.dim}"
            )
        self.triple = tf
        self._L = _Matrix(self.dim, linking, "linking")
        self._G = _Matrix(self.dim, metric, "metric", definite=True)
        self.meta = dict(meta) if meta else {}
        self._conditioning_warned = False

    @property
    def linking(self) -> np.ndarray:
        """The (n, n) linking matrix L, frozen."""
        return self._L.dense

    @property
    def metric(self) -> np.ndarray:
        """The (n, n) metric matrix G, frozen."""
        return self._G.dense

    @property
    def linking_condition(self) -> float:
        sv = self._L.singular_values
        return float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf

    @property
    def metric_condition(self) -> float:
        ev = self._G.eigenvalues
        return float(ev[-1] / ev[0]) if ev[0] > 0 else np.inf

    # The four products take a state (n,) or a (B, n) block of states and
    # give each row the bits of that row alone; any other shape raises
    # AlgebraFormatError.  A state passes one comparison with ``_state``,
    # (n,), and a block one more in _block.  Non-finite right-hand sides
    # propagate as non-finite output; the callers that need a finite
    # result check it.

    def _block(self, X, name: str):
        # a (B, n) array as it is; anything else through _as_state, which
        # raises, or makes a list of states an array
        shape = getattr(X, "shape", ())
        if len(shape) == 2 and shape[1:] == self._state:
            return X
        return _as_state(self.dim, X, name, block=True)

    def solve_metric(self, rhs: np.ndarray) -> np.ndarray:
        """Solve G x = rhs."""
        if getattr(rhs, "shape", None) != self._state:
            rhs = self._block(rhs, "rhs")
        return self._G.solve(rhs)

    def apply_metric(self, X: np.ndarray) -> np.ndarray:
        """The product G X."""
        if getattr(X, "shape", None) != self._state:
            X = self._block(X, "X")
        return self._G.apply(X)

    def apply_linking(self, X: np.ndarray) -> np.ndarray:
        """The product L X."""
        if getattr(X, "shape", None) != self._state:
            X = self._block(X, "X")
        return self._L.apply(X)

    def solve_linking(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L x = rhs, warning once if L is ill-conditioned."""
        if getattr(rhs, "shape", None) != self._state:
            rhs = self._block(rhs, "rhs")
        self._warn_if_ill_conditioned()
        return self._L.solve(rhs)

    def _warn_if_ill_conditioned(self):
        if self._conditioning_warned:
            return
        cond = self.linking_condition
        if cond > CONDITION_WARN_THRESHOLD:
            self._conditioning_warned = True
            warnings.warn(
                f"linking form condition number ~{cond:.3e}; solves against "
                "it lose roughly that many digits",
                ConditioningWarning,
                stacklevel=3,
            )

    def __repr__(self):
        # no entry count where only assembling the entries would give it
        nnz = self.triple._nnz
        nnz = "" if nnz is None else f", nnz={nnz}"
        tag = self.meta.get("kind", "custom")
        return (f"FluidAlgebra(dim={self.dim}, triple={self.triple.kind!r}"
                f"{nnz}, kind={tag!r})")


# ---------------------------------------------------------------------------
# validation


class _Record:
    """A record: the fields that ``__slots__`` names, set by a hand-written
    ``__init__``, with a repr by field.  A plain class costs microseconds to
    define, where a dataclass writes and compiles its methods at every
    import."""

    __slots__ = ()

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__name__}({fields})"


class _FrozenRecord(_Record):
    """A record that is a value: its ``__init__`` sets the fields once,
    through ``_set``, assignment raises :class:`AttributeError`, and records
    of one class with equal fields are equal and hash alike."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return (self._asdict() == other._asdict()
                if type(other) is type(self) else NotImplemented)

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __reduce__(self):
        # pickle and copy through __init__, as __setattr__ refuses
        return type(self), tuple(self._asdict().values())


class CheckResult(_Record):
    __slots__ = ("name", "defect", "threshold", "passed")

    def __init__(self, name, defect, threshold, passed):
        self.name, self.defect, self.threshold, self.passed = (
            name, defect, threshold, passed)


# checks whose value fails at or below its threshold, not above it
_LOWER_BOUNDED = ("linking-nondegenerate", "metric-positive-definite")


class ValidationReport(_Record):
    __slots__ = ("checks",)

    def __init__(self, checks=None):
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def require(self):
        if not self.passed:
            names = ", ".join(
                f"{c.name} (value {c.defect:.3e} <= {c.threshold:.3e})"
                if c.name in _LOWER_BOUNDED else
                f"{c.name} (defect {c.defect:.3e} > {c.threshold:.3e})"
                for c in self.failures()
            )
            raise AlgebraValidationError(f"algebra validation failed: {names}")
        return self

    def to_dict(self):
        return {"passed": self.passed,
                "checks": [c._asdict() for c in self.checks]}


def _antisymmetrize(A: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Full antisymmetrization (signed sum over the 6 orders / 6) at rows:
    an index of the first axis, or a tuple of three index arrays for the
    values at those slots alone."""
    return (
        A[rows]
        + A.transpose(1, 2, 0)[rows]
        + A.transpose(2, 0, 1)[rows]
        - A.transpose(1, 0, 2)[rows]
        - A.transpose(0, 2, 1)[rows]
        - A.transpose(2, 1, 0)[rows]
    ) / 6.0


def _symmetry_check(M: _Matrix) -> CheckResult:
    # max |M - M^T| against SYMMETRY_TOL times the matrix's scale
    threshold = SYMMETRY_TOL * max(M.max_abs, 1.0)
    return CheckResult(f"{M.name}-symmetry", M.symmetry_defect, threshold,
                       M.symmetry_defect <= threshold)


def validate(alg: FluidAlgebra) -> ValidationReport:
    """Check the three structural invariants, returning measured defects.

    * full antisymmetry of the triple tensor: the defect
      ``max |T - antisym(T)|`` that :meth:`TripleForm.from_dense` measured
      on its input array, and 0.0 for a form built from canonical entries
      or of the spectral kind, which are antisymmetric by construction,
    * symmetry and nondegeneracy of the linking form (minimum singular
      value at least ``1e-8`` of the maximum),
    * symmetry and positive definiteness of the metric (minimum eigenvalue
      at least ``1e-10`` of the maximum).

    The antisymmetry and symmetry defects fail above ``SYMMETRY_TOL`` =
    1e-12 times the largest |entry| of their form (at least 1; 1 for a
    spectral form, whose entries are not built to scale it).  The
    nondegeneracy ratios are fixed so that curl solves stay trustworthy at
    double precision.
    """
    tf = alg.triple
    t_threshold = SYMMETRY_TOL * tf._scale
    sv = alg._L.singular_values
    l_threshold = LINKING_SV_RATIO * float(sv[0])
    ev = alg._G.eigenvalues
    g_threshold = METRIC_EIG_RATIO * float(ev[-1])
    return ValidationReport([
        CheckResult("triple-antisymmetry", tf._defect, t_threshold,
                    tf._defect <= t_threshold),
        _symmetry_check(alg._L),
        CheckResult("linking-nondegenerate", float(sv[-1]), l_threshold,
                    bool(sv[-1] >= l_threshold) and sv[0] > 0),
        _symmetry_check(alg._G),
        CheckResult("metric-positive-definite", float(ev[0]), g_threshold,
                    bool(ev[0] > 0.0) and bool(ev[0] >= g_threshold)),
    ])


# ---------------------------------------------------------------------------
# the three forms and the curl pair


# Each function below takes single states (n,) or (B, n) blocks of states
# with one B, and gives for a block the values of its rows, each with the
# bits of that row evaluated alone: a product is one GEMV per row and an
# inner product is ``np.vecdot``, which has the bits of ``x @ y``.


def triple(alg: FluidAlgebra, X, Y, Z):
    """Evaluate the alternating form {X, Y, Z}."""
    return alg.triple(X, Y, Z)


def linking(alg: FluidAlgebra, X, Y):
    """Evaluate the linking form <X, Y> = X^T L Y."""
    X = _as_state(alg.dim, X, "X", block=True)
    Y = _as_state(alg.dim, Y, "Y", like=X)
    return _scalars(_dot(X, alg.apply_linking(Y)))


def metric_inner(alg: FluidAlgebra, X, Y):
    """Evaluate the metric inner product (X, Y) = X^T G Y."""
    X = _as_state(alg.dim, X, "X", block=True)
    Y = _as_state(alg.dim, Y, "Y", like=X)
    return _scalars(_dot(X, alg.apply_metric(Y)))


def energy(alg: FluidAlgebra, X):
    """(X, X); nonnegative, zero only at X = 0."""
    return metric_inner(alg, X, X)


def helicity(alg: FluidAlgebra, X):
    """(X, D X) = X^T L X; the two expressions agree to round-off."""
    return _scalars(_dot(X, alg.apply_linking(X)))


def curl(alg: FluidAlgebra, X) -> np.ndarray:
    """Apply the curl operator D = G^-1 L, defined by (D X, Y) = <X, Y>."""
    return alg.solve_metric(alg.apply_linking(X))


def inverse_curl(alg: FluidAlgebra, Y) -> np.ndarray:
    """Apply D' = L^-1 G, the inverse of the curl operator."""
    Y = _as_state(alg.dim, Y, "Y", block=True)
    return alg.solve_linking(alg.apply_metric(Y))


def g_norm(alg: FluidAlgebra, v):
    """Metric norm sqrt(v^T G v) of a state vector."""
    v = _as_state(alg.dim, v, "v", block=True)
    return _scalars(np.sqrt(np.maximum(_dot(v, alg.apply_metric(v)),
                                       0.0)))


def g_dual_norm(alg: FluidAlgebra, r):
    """Dual metric norm sqrt(r^T G^-1 r) of a linear functional."""
    r = _as_state(alg.dim, r, "r", block=True)
    return _scalars(np.sqrt(np.maximum(_dot(r, alg.solve_metric(r)),
                                       0.0)))


# ---------------------------------------------------------------------------
# compensated arithmetic: error-free transforms and double-double invariants
# (Ogita, Rump & Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput.
# 26, 2005)

# Veltkamp splitting constant 2^27 + 1: splits a float64 into two halves of
# at most 26 significant bits each, whose pairwise products are exact.
_SPLITTER = 134217729.0


def two_sum(a, b):
    """Error-free sum (Knuth): ``s = fl(a + b)`` and ``s + e == a + b``.

    Works elementwise on arrays; exact unless ``a + b`` overflows.
    """
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_product(a, b):
    """Error-free product (Dekker): ``p = fl(a * b)`` and ``p + e == a * b``.

    Works elementwise on arrays; exact unless a factor exceeds about 2^996
    (the splitting overflows) or the product underflows.
    """
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


class DoubleDouble(float):
    """A float64 value carrying the low word of a double-double.

    The float value is the high word, so formatting, comparison, JSON and
    NumPy see the plain float64 number.  ``lo`` holds the remainder of the
    exact value.  Subtraction resolves differences below one ulp of the
    high words: ``x - y`` is ``(float(x) - float(y)) + (x.lo - y.lo)``,
    returned as a float.  Every other operation acts on the high word
    alone.  A value from :func:`_lazy_dd_values` computes ``lo`` on its
    first read; it pickles and copies as the value with that low word.
    """

    __slots__ = ("_lo", "_row")

    def __new__(cls, hi, lo=0.0):
        self = super().__new__(cls, hi)
        self._lo = float(lo)
        return self

    @property
    def lo(self) -> float:
        lo = self._lo
        if callable(lo):
            lo = self._lo = lo()[self._row]
        return lo

    def __reduce__(self):
        return DoubleDouble, (float(self), self.lo)

    def __sub__(self, other):
        if isinstance(other, DoubleDouble):
            return (float(self) - float(other)) + (self.lo - other.lo)
        if isinstance(other, (int, float)):
            return (float(self) - other) + self.lo
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return (other - float(self)) - self.lo
        return NotImplemented


def _padded(rows, cols, vals):
    """Entries padded with zero entries at (0, 0) to a power-of-two count
    for the pairwise sum."""
    pad = (0, (1 << max(0, rows.size - 1).bit_length()) - rows.size)
    return np.pad(rows, pad), np.pad(cols, pad), np.pad(vals, pad)


# Rows per batch in dd_values, sized so that each temporary array holds
# about 2^16 terms.
_DD_BATCH_TERMS = 1 << 16


def dd_values(alg: FluidAlgebra, form: str, hi, X, X_lo, Y=None, Y_lo=None):
    """Attach low words to float64 values of the metric or linking form.

    ``form`` is ``"metric"`` (``G``) or ``"linking"`` (``L``).  ``X``,
    ``X_lo``, ``Y`` and ``Y_lo`` are sequences of R states (lists of
    arrays, or arrays of shape (R, n)), with ``Y`` defaulting to ``X``;
    ``hi[r]`` is the float64 value of the form at ``(X[r], Y[r])``.
    Returns R :class:`DoubleDouble` values whose low words carry
    ``sum M_ij (X + X_lo)_ri (Y + Y_lo)_rj - hi[r]``.

    The terms run over the nonzeros of ``M``, found once per algebra, and
    the R rows are evaluated together, in batches of rows.  Each leading
    term ``M_ij X_i Y_j`` is split exactly into two floats by two
    TwoProducts, ``q + eq``.  The leading parts ``q`` are summed by a
    pairwise TwoSum cascade; every rounding error on the way (``eq``, the
    cascade's TwoSum errors, the low words' contributions) is a unit
    roundoff u below the terms and is summed in plain float64, pairwise
    alongside the cascade, so its own error is of order u^2.  This is the
    scheme of Dot2 in Ogita, Rump & Oishi: the result is as accurate as a
    float64 evaluation in twice the precision.  Every operation is
    elementwise, so a row gets the bits that it gets alone, whatever batch
    it falls in (a NumPy row sum would not: it orders a one-row batch
    differently).  A non-finite ``hi[r]``, or terms past the float range,
    give a zero low word.
    """
    rows, cols, vals = {"metric": alg._G, "linking": alg._L}[form].nonzeros
    if Y is None:
        Y, Y_lo = X, X_lo
    batch = max(1, _DD_BATCH_TERMS // vals.size)
    out = []
    for start in range(0, len(hi), batch):
        chunk = slice(start, start + batch)
        h = np.array(hi[chunk], dtype=float)
        a = np.asarray(X[chunk])[:, rows]
        a_lo = np.asarray(X_lo[chunk])[:, rows]
        b = np.asarray(Y[chunk])[:, cols]
        b_lo = np.asarray(Y_lo[chunk])[:, cols]
        with np.errstate(all="ignore"):
            p, ep = two_product(a, b)
            q, eq = two_product(vals, p)
            err = eq + vals * (ep + a * b_lo + a_lo * (b + b_lo))
            while q.shape[1] > 1:
                q, e = two_sum(q[:, 0::2], q[:, 1::2])
                err = err[:, 0::2] + err[:, 1::2] + e
            d, ed = two_sum(q[:, 0], -h)
            lo = d + (ed + err[:, 0])
            lo[~(np.isfinite(h) & np.isfinite(lo))] = 0.0
        out.extend(map(DoubleDouble, hi[chunk], lo.tolist()))
    return out


def _lazy_dd_values(alg: FluidAlgebra, form: str, hi, X, X_lo, Y=None,
                    Y_lo=None) -> list:
    """The values of :func:`dd_values`, whose low words are evaluated on
    the first read of any one of them, by one :func:`dd_values` call over
    all rows.  A row's bits do not depend on its batch, so they are those
    of the eager call.  Each value holds the words as one cached function
    until its first read; two threads that call it at once may both
    evaluate the words, to the same bits.  The sequences passed must not
    change after."""
    words = cache(lambda: [v.lo for v in dd_values(alg, form, hi, X, X_lo,
                                                   Y, Y_lo)])
    out = list(map(DoubleDouble, hi))
    for row, value in enumerate(out):
        value._lo, value._row = words, row
    return out


# ---------------------------------------------------------------------------
# file format: JSON with keys dim, triple, linking, metric (in that order)


def save_algebra(alg: FluidAlgebra, path) -> None:
    """Write the algebra as JSON.

    Keys are emitted in the order ``dim``, ``triple``, ``linking``,
    ``metric``; the triple is the canonical sparse list ``[i, j, k, value]``
    with ``i < j < k`` (zero-based), matrices are row-major nested lists.
    """
    payload = {
        "dim": alg.dim,
        "triple": [[i, j, k, v] for i, j, k, v in alg.triple.entry_list()],
        "linking": alg.linking.tolist(),
        "metric": alg.metric.tolist(),
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_algebra(path) -> FluidAlgebra:
    """Load an algebra from the JSON format written by :func:`save_algebra`.

    Triple rows are checked by :meth:`TripleForm.from_entries`; entries
    violating ``i < j < k`` are rejected.  The full invariant validation
    runs, and failures raise :class:`AlgebraValidationError`.
    """
    # JSON text is UTF-8 (RFC 8259)
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:
            raise AlgebraFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise AlgebraFormatError("top-level JSON value must be an object")
    missing = {"dim", "triple", "linking", "metric"} - set(payload)
    if missing:
        raise AlgebraFormatError(f"missing keys: {sorted(missing)}")
    dim = _checked_dim(payload["dim"])
    matrices = []
    for name in ("linking", "metric"):
        # ragged rows leave lists among the entries, a bool or a string
        # would convert to a float, an int past the float range overflows,
        # and .flat refuses more than 32 dimensions
        M = np.asarray(payload[name], dtype=object)
        try:
            if M.ndim == 2 and all(map(_is_real, M.flat)):
                matrices.append(M.astype(float))
                continue
        except OverflowError:
            pass
        raise AlgebraFormatError(
            f"{name} must be a {dim} x {dim} matrix of numbers")
    alg = FluidAlgebra(
        dim,
        payload["triple"],
        *matrices,
        meta={"kind": "custom", "path": str(path)},
    )
    validate(alg).require()
    return alg
