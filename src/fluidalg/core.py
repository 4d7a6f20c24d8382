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
DFTs, small GEMMs with fixed matrices, between the kept wavevectors and a
fixed N^3 grid with N = 3K + 1, the smallest N at which the 3/2 rule
removes all aliasing from the quadratic product (Orszag, J. Atmos. Sci.
1971).  The spectral operator remembers the grid field of the last first
argument it was given, keyed by value (shape, dtype and bytes), and a
call with the same first argument synthesizes only the second field, with
the bits of a cold call: a probe stage contracts its velocity twice.  Its
memo is one immutable tuple, replaced whole, so threads sharing an algebra
stay correct.  The results of every operation are thus pure functions of
the input values, and every operation is bit-reproducible on one platform
and NumPy version.  All three kernels are exactly antisymmetric, and the
form is evaluated as ``{X, Y, Z} = X . contract_pair(Y, Z)``.  A dense
form stores its packed rows alone and a spectral form no tensor; the
canonical entries of both are materialized on demand.  Each kind is one
subclass of :class:`TripleForm`: the packed rows (:class:`_PackedRows`),
the canonical entries (:class:`_Entries`), and the operator with its
entry source (:class:`_Spectral`).  A subclass gives the kernel, its
chunk size, the entries and their count; :class:`TripleForm` defines the
rest once -- the largest entry, ``to_dense``, ``contract_pair`` and the
evaluation -- so no other code asks which kind a form is.  Packed rows
built from entries are written straight from them, each entry into its
three slots, with no (n, n, n) array.

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
64 kB, the chunk sizes differing by at most one row.  The dense kernel
gathers its pair factors from the transposed chunk, so that each index
copies a run of B floats, and takes the differences back to contiguous
rows for the GEMVs; a gather moves the data and rounds nothing.  The form
``{X, Y, Z}`` contracts only the rows whose three arguments differ.
The arguments of one call are all states or all blocks of one B; any
other shape raises :class:`AlgebraFormatError` where the functions below
check their arguments.

L and G follow one rule (:class:`_Matrix`): given as a tuple
``(cols, w)``, as None for the identity, or as an array with one nonzero
per row and column, a matrix is the weighted permutation
``M[r, cols[r]] = w[r]``, applied as ``w * X[cols]`` and solved as
``x[cols] = rhs / w``, one correctly rounded division per entry; with
``cols = range(n)`` it is a diagonal, applied as ``w * X`` and solved as
``rhs / w`` in O(n).  For finite inputs the products give the bits of the
dense ``M @ X``, and the identity's solve is an exact copy of ``rhs``,
the product with the inverse of ``I`` for an ``rhs`` without ``-0.0``,
as the package passes it.
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
from dataclasses import asdict, dataclass, field
from functools import cached_property

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

# Entry lists give the dense kind up to this dimension, sparse above it;
# TripleForm._canonical is its one reader.
_DENSE_DIM_LIMIT = 64

# Floats per temporary array when a kernel runs on a block of states,
# which it does in chunks of rows: 64 kB stays in cache and below the size
# that the C allocator maps fresh, and faults in, on every allocation.  At
# n = 32 the identity suite ran 2.5x slower with its 50-row blocks
# contracted in one piece than in 16-row chunks, and the chunks are made
# even because a 2-row chunk took about 7.8 us a row against about 4 us
# at 12-16 rows, so 50 rows run as 13/13/12/12, not 16/16/16/2 (2-core
# x86, one BLAS thread).
_BLOCK_TERMS = 1 << 13

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


def _canonical_entries(dim: int, index, values):
    """Check canonical ``i < j < k`` entries and return them sorted by
    ``(i, j, k)`` as frozen arrays."""
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
    if index.shape[0] > 1:
        same = np.all(index[1:] == index[:-1], axis=1)
        if same.any():
            raise AlgebraFormatError("duplicate sparse entry")
    index.setflags(write=False)
    values.setflags(write=False)
    return index, values


def _canonical_slots(packed: np.ndarray) -> np.ndarray:
    """The nonzero canonical slots (k > j) of packed rows ``T[i, j, :]``."""
    ju = np.triu_indices(packed.shape[1], 1)[1]
    return (packed != 0.0) & (np.arange(packed.shape[1]) > ju[:, None])


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
      contracted by one BLAS GEMV; :meth:`from_dense` gives this kind at
      every n, and :meth:`from_entries` up to dimension 64, writing each
      entry straight into its three packed slots;
    * ``"sparse"`` (:class:`_Entries`) -- the canonical entries alone,
      contracted by one ``np.bincount`` in entry order;
      ``TripleForm(dim, index, values)`` gives this kind;
    * ``"spectral"`` (:class:`_Spectral`) -- no stored tensor: a
      matrix-free operator computes the contraction (:meth:`spectral`).

    The other two kinds build their entries on the first access to them.
    A subclass gives its kernel ``_kernel(X, Y)``, the pair contraction of
    one state or one chunk of rows; ``_row_terms``, the floats per row in
    the kernel's largest temporaries; the canonical ``_entries``, checked,
    sorted and frozen; and ``_nnz``, their count, or None while only
    assembling them would give it.  ``dense`` and ``operator`` are None
    but in their own kind.  Everything else is defined once, here, on the
    entries and the kernel, so no code asks which kind a form is.
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
        access to the entries (``index``, ``values``, ``nnz``,
        ``entry_list``, ``to_dense``, ``max_abs``), and never for a
        contraction or an evaluation of the form.  Two threads making that
        first access together may each compute the same entries.
        """
        return _Spectral(dim, operator, entries)

    @classmethod
    def from_dense(cls, array) -> "TripleForm":
        """A form of the dense kind on the rows ``array[i, j, :]``, i < j,
        recording the array's largest |entry| (:meth:`max_abs`) and its
        antisymmetry defect ``max |A - antisym(A)|`` (:func:`validate`)."""
        array = np.asarray(array, dtype=float)
        if array.ndim != 3 or len(set(array.shape)) != 1:
            raise AlgebraFormatError(
                f"triple tensor must be cubic rank 3, got shape {array.shape}"
            )
        if not np.all(np.isfinite(array)):
            raise AlgebraDataError("non-finite value in triple tensor")
        # the rows array[i, j, :], i < j, copied slab by slab straight into
        # a fresh 64-byte-aligned matrix, keeping the array's largest
        # |entry| and its defect max |A - antisym(A)|
        dim = len(array)
        packed = _aligned_empty((dim * (dim - 1) // 2, dim))
        t_max, defect, start = 0.0, 0.0, 0
        for i in range(dim):
            slab = array[i]
            t_max = max(t_max, float(np.max(np.abs(slab))))
            defect = max(defect, float(np.max(np.abs(
                slab - _antisymmetrize(array, i)))))
            packed[start:start + dim - 1 - i] = slab[i + 1:]
            start += dim - 1 - i
        form = _PackedRows(dim, packed)
        form._max_abs, form._defect = t_max, defect
        return form

    @classmethod
    def from_entries(cls, dim: int, entries) -> "TripleForm":
        """Build from canonical ``(i, j, k, value)`` rows with i < j < k:
        of the dense kind up to dimension 64, else sparse.

        Each row is a list or tuple of three ``int`` indices (not ``bool``)
        and a real value; any other row raises :class:`AlgebraFormatError`,
        so nothing is truncated or coerced.
        """
        if not isinstance(entries, (list, tuple)):
            raise AlgebraFormatError(
                "triple entries must be a list of [i, j, k, value] rows"
            )
        for row in entries:
            if not (isinstance(row, (list, tuple)) and len(row) == 4
                    and all(map(_is_index, row[:3])) and _is_real(row[3])):
                raise AlgebraFormatError(
                    f"bad triple entry {reprlib.repr(row)}")
        try:
            index = np.array([row[:3] for row in entries], dtype=np.intp)
            values = np.array([row[3] for row in entries], dtype=float)
        except OverflowError as exc:
            raise AlgebraFormatError(
                "sparse entry index or value out of range") from exc
        return cls._canonical(dim, index.reshape(-1, 3), values)

    @classmethod
    def _canonical(cls, dim: int, index, values) -> "TripleForm":
        """A form on arrays of canonical entries: the entries themselves
        above ``_DENSE_DIM_LIMIT``, else their packed rows in a fresh
        64-byte-aligned matrix, written with no (n, n, n) array: entry
        (a, b, c, v) puts v at row (a, b), column c, -v at row (a, c),
        column b and v at row (b, c), column a."""
        if _checked_dim(dim) > _DENSE_DIM_LIMIT:
            return _Entries(dim, index, values)
        index, values = _canonical_entries(dim, index, values)
        packed = _aligned_empty((dim * (dim - 1) // 2, dim))
        packed.fill(0.0)
        a, b, c = index.T
        # the row of the pair (i, j), i < j, in np.triu_indices order is
        # i (2n - i - 3) / 2 - 1 + j
        ra, rb = a * (2 * dim - a - 3) // 2 - 1, b * (2 * dim - b - 3) // 2 - 1
        packed[ra + b, c] = values
        packed[ra + c, b] = -values
        packed[rb + c, a] = values
        return _PackedRows(dim, packed)

    # -- queries ------------------------------------------------------

    @property
    def index(self) -> np.ndarray:
        return self._entries[0]

    @property
    def values(self) -> np.ndarray:
        return self._entries[1]

    @property
    def nnz(self) -> int:
        # a spectral form is counted by storing its entries
        return self._nnz or int(self.values.size)

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
        blocks, giving the B values of the rows, each with the bits of its
        row evaluated alone.  A row is exactly 0.0 when two of its
        arguments are equal, and the value exactly negates when the last
        two arguments are swapped, since every kernel of
        :meth:`contract_pair` is exactly antisymmetric.  Such a row is not
        contracted at all: only the other rows, as contiguous copies, reach
        the kernel.  A spectral form evaluates it without materializing its
        entries.
        """
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
        shape; a block gives, row for row, the bits of its rows contracted
        alone.  One kernel per storage kind, each exactly antisymmetric in
        X and Y (``contract_pair(Y, X)`` is ``-contract_pair(X, Y)`` bit for
        bit, and ``contract_pair(X, X)`` is zero) and with a fixed order of
        operations:

        * dense: the pair differences ``X_i Y_j - X_j Y_i`` for i < j, in
          ``np.triu_indices`` order, gathered from the transposed chunk,
          times the packed (n(n-1)/2, n) matrix of the entries
          ``T[i, j, :]``, as one BLAS GEMV per contiguous row;
        * sparse: one ``np.bincount`` over the canonical entries, with the
          slots of row r offset by r n, adds the terms landing on k, then
          on i, then on j, each in entry order;
        * spectral: the matrix-free operator (on the torus, pruned DFTs
          to a fixed grid and back, as GEMMs of fixed shape batched over
          the two fields and the rows); it never materializes the
          entries.

        A block runs through the kernel in the fewest chunks of rows, of
        sizes differing by at most one (:func:`_in_chunks`).
        """
        if X.ndim == 1:
            return self._kernel(X, Y)
        return _in_chunks(self._kernel, self._row_terms, X, Y)


class _PackedRows(TripleForm):
    """The dense kind: the packed (n(n-1)/2, n) matrix of the rows
    ``T[i, j, :]`` with i < j, in ``np.triu_indices`` order, alone."""

    kind = "dense"

    def __init__(self, dim: int, packed: np.ndarray):
        self.dim = _checked_dim(dim)
        packed.setflags(write=False)
        self.dense = packed
        self._row_terms = max(1, packed.shape[0])
        # the index pairs i < j of the rows, in np.triu_indices order
        self._pairs = np.triu_indices(dim, 1)
        # counted without reading the entries off the rows; from_dense()
        # puts the largest |entry| of its whole array in place of _max_abs
        self._nnz = int(np.count_nonzero(_canonical_slots(packed)))
        self._max_abs = float(np.max(np.abs(packed), initial=0.0))

    @cached_property
    def _entries(self):
        # the slots k > j of the rows (i, j) in np.triu_indices order come
        # out sorted by (i, j, k), so they need no check or sort
        iu, ju = self._pairs
        p, k = np.nonzero(_canonical_slots(self.dense))
        index, values = np.stack((iu[p], ju[p], k), axis=1), self.dense[p, k]
        index.setflags(write=False)
        values.setflags(write=False)
        return index, values

    def _kernel(self, X, Y) -> np.ndarray:
        iu, ju = self._pairs
        if X.ndim == 2:
            # gathered from the transposed chunk, each index copies a run
            # of B floats; a state is its own transposed chunk, and
            # skipping the copies keeps the single-state path as fast
            X, Y = np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T)
        D = (X.take(iu, axis=0) * Y.take(ju, axis=0)
             - X.take(ju, axis=0) * Y.take(iu, axis=0))
        # back to contiguous rows: one GEMV per contiguous row has the bits
        # of the 1-D kernel
        return np.vecmat(np.ascontiguousarray(D.T), self.dense)


class _Entries(TripleForm):
    """The sparse kind: the canonical entries alone."""

    kind = "sparse"

    def __init__(self, dim: int, index, values):
        self.dim = _checked_dim(dim)
        self._entries = index, values = _canonical_entries(dim, index, values)
        self._nnz = int(values.size)
        # the index columns i, j, k, each contiguous, which halves the time
        # of the gathers, and the output slot of each term: k, i, j
        self._columns = i, j, k = [np.ascontiguousarray(c) for c in index.T]
        self._targets = np.concatenate((k, i, j))
        self._row_terms = max(1, self._targets.size)

    def _kernel(self, X, Y) -> np.ndarray:
        v = self._entries[1]
        if not v.size:
            return np.zeros(X.shape)
        i, j, k = self._columns
        Xi, Xj, Xk = X.take(i, axis=-1), X.take(j, axis=-1), X.take(k, axis=-1)
        Yi, Yj, Yk = Y.take(i, axis=-1), Y.take(j, axis=-1), Y.take(k, axis=-1)
        terms = np.concatenate((
            v * (Xi * Yj - Xj * Yi),
            v * (Xj * Yk - Xk * Yj),
            v * (Xk * Yi - Xi * Yk),
        ), axis=-1)
        slots = self._targets
        if X.ndim == 2:
            # the slots of row r are offset by r n
            slots = (slots + self.dim * np.arange(X.shape[0])[:, None]).ravel()
        out = np.bincount(slots, weights=terms.ravel(), minlength=X.size)
        return out.reshape(X.shape)


class _Spectral(TripleForm):
    """The spectral kind: a matrix-free operator, and the source of the
    entries until they are first read."""

    kind = "spectral"
    # the unscaled threshold, rather than building the entries to scale it
    # (on the torus they are at most 1/sqrt(2) in any case)
    _scale = 1.0
    # no count until the entries are stored: counting would assemble them
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


def _permutation_of(M: np.ndarray):
    """``(cols, w)``, frozen, when row r of M has the single nonzero
    ``M[r, cols[r]] = w[r]`` and ``cols`` is a permutation, else None."""
    rows, cols = np.nonzero(M)
    if not (np.array_equal(rows, np.arange(len(M))) and _is_permutation(cols)):
        return None
    w = M[rows, cols]
    cols.setflags(write=False)
    w.setflags(write=False)
    return cols, w


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
    cols = cols.astype(np.intp)
    cols.setflags(write=False)
    w.setflags(write=False)
    return cols, w


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
    # each row the bits of that row alone.  For finite inputs a permutation
    # gives the bits of the dense product; + 0.0 turns the -0.0 of a zero
    # product into the +0.0 of a sum.

    def apply(self, X: np.ndarray) -> np.ndarray:
        if self.w is None:
            return _matvec(self._dense, X)
        if self.diagonal:
            return self.w * X + 0.0
        return self.w * X.take(self.cols, axis=-1) + 0.0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        inverse = self._inverse
        if inverse is not None:
            return _matvec(inverse, rhs)
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
    # give each row the bits of that row alone.  Non-finite right-hand
    # sides propagate as non-finite output; the callers that need a finite
    # result check it.

    def solve_metric(self, rhs: np.ndarray) -> np.ndarray:
        """Solve G x = rhs."""
        return self._G.solve(rhs)

    def apply_metric(self, X: np.ndarray) -> np.ndarray:
        """The product G X."""
        return self._G.apply(X)

    def apply_linking(self, X: np.ndarray) -> np.ndarray:
        """The product L X."""
        return self._L.apply(X)

    def solve_linking(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L x = rhs, warning once if L is ill-conditioned."""
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

    def state(self, X, name: str = "state", block: bool = False,
              like=None) -> np.ndarray:
        """``X`` checked as one state (n,); see :func:`_as_state` for
        ``block`` and ``like``."""
        return _as_state(self.dim, X, name, block, like)

    def __repr__(self):
        # no entry count where only assembling the entries would give it
        nnz = self.triple._nnz
        nnz = "" if nnz is None else f", nnz={nnz}"
        tag = self.meta.get("kind", "custom")
        return (f"FluidAlgebra(dim={self.dim}, triple={self.triple.kind!r}"
                f"{nnz}, kind={tag!r})")


# ---------------------------------------------------------------------------
# validation


@dataclass
class CheckResult:
    name: str
    defect: float
    threshold: float
    passed: bool


# checks whose value fails at or below its threshold, not above it
_LOWER_BOUNDED = ("linking-nondegenerate", "metric-positive-definite")


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

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
        return {"passed": self.passed, **asdict(self)}


def _antisymmetrize(A: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Full antisymmetrization (signed sum over the 6 orders / 6) at rows."""
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
    X = alg.state(X, "X", block=True)
    Y = alg.state(Y, "Y", like=X)
    Z = alg.state(Z, "Z", like=X)
    return alg.triple(X, Y, Z)


def linking(alg: FluidAlgebra, X, Y):
    """Evaluate the linking form <X, Y> = X^T L Y."""
    X = alg.state(X, "X", block=True)
    Y = alg.state(Y, "Y", like=X)
    return _scalars(_dot(X, alg.apply_linking(Y)))


def metric_inner(alg: FluidAlgebra, X, Y):
    """Evaluate the metric inner product (X, Y) = X^T G Y."""
    X = alg.state(X, "X", block=True)
    Y = alg.state(Y, "Y", like=X)
    return _scalars(_dot(X, alg.apply_metric(Y)))


def energy(alg: FluidAlgebra, X):
    """(X, X); nonnegative, zero only at X = 0."""
    return metric_inner(alg, X, X)


def helicity(alg: FluidAlgebra, X):
    """(X, D X) = X^T L X; the two expressions agree to round-off."""
    X = alg.state(X, "X", block=True)
    return _scalars(_dot(X, alg.apply_linking(X)))


def curl(alg: FluidAlgebra, X) -> np.ndarray:
    """Apply the curl operator D = G^-1 L, defined by (D X, Y) = <X, Y>."""
    X = alg.state(X, "X", block=True)
    return alg.solve_metric(alg.apply_linking(X))


def inverse_curl(alg: FluidAlgebra, Y) -> np.ndarray:
    """Apply D' = L^-1 G, the inverse of the curl operator."""
    Y = alg.state(Y, "Y", block=True)
    return alg.solve_linking(alg.apply_metric(Y))


def g_norm(alg: FluidAlgebra, v):
    """Metric norm sqrt(v^T G v) of a state vector."""
    v = alg.state(v, "v", block=True)
    return _scalars(np.sqrt(np.maximum(_dot(v, alg.apply_metric(v)),
                                       0.0)))


def g_dual_norm(alg: FluidAlgebra, r):
    """Dual metric norm sqrt(r^T G^-1 r) of a linear functional."""
    r = alg.state(r, "r", block=True)
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
        if isinstance(lo, _LowWords):
            lo = self._lo = lo[self._row]
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


class _LowWords:
    """The low words of one :func:`dd_values` call, evaluated for all of
    its rows at the first read of any one.  The one attribute holds the
    call's arguments until then and the low words after; two threads that
    read it at once may both evaluate them, to the same bits."""

    __slots__ = ("_words",)

    def __init__(self, *args):
        self._words = args

    def __getitem__(self, row: int) -> float:
        words = self._words
        if isinstance(words, tuple):
            words = self._words = [v.lo for v in dd_values(*words)]
        return words[row]


def _lazy_dd_values(alg: FluidAlgebra, form: str, hi, X, X_lo, Y=None,
                    Y_lo=None) -> list:
    """The values of :func:`dd_values`, whose low words are evaluated on
    the first read of any one of them, by one :func:`dd_values` call over
    all rows.  A row's bits do not depend on its batch, so they are those
    of the eager call.  The sequences passed must not change after."""
    words = _LowWords(alg, form, hi, X, X_lo, Y, Y_lo)
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
