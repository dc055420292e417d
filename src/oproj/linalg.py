"""Dense column arithmetic and orthogonal projection.

All arithmetic is float64. Only orthonormalize mutates its input. The two
transformations write every column into a row-major n x k array that the
caller hands them, a block of rows at a time, and map each block back to
native scale while it is in cache. The audited column's cells are finite
placeholders, and the caller overwrites that column.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateFeatureError,
    DegenerateSubspaceError,
    DimensionError,
    FeatureLookupError,
)

# Rank-deficiency cutoff: residual norms below DROP_TOL times the candidate's
# original norm are treated as rounding debris, not a new direction.
DROP_TOL = 1e-10

_TINY = float(np.finfo(np.float64).tiny)

# Rows of a query the transformations write at a time, so their scratch is
# ROW_BLOCK x k rather than n x k, and each block is mapped back to native
# scale while it is still in cache. Not a power of two, so that the columns
# of a column-major block do not all fall in one set of the CPU's caches.
ROW_BLOCK = 1000

# (set, get) names of OpenBLAS's thread-count functions: numpy's wheel
# ships scipy-openblas, others link a plain OpenBLAS, LP64 or ILP64.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)


@functools.cache
def _openblas():
    """The (set, get) thread-count functions of the OpenBLAS mapped into
    this process, found by name in /proc/self/maps; None where there is no
    such library or it exports none of the names tried."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = lib[set_name], lib[get_name]
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


def blas_threads() -> int | None:
    """How many threads numpy's OpenBLAS may use now; None where no
    OpenBLAS is found."""
    found = _openblas()
    return None if found is None else found[1]()


_pin_lock = threading.Lock()
_pin_depth = 0  # one_blas_thread blocks running now
_pin_restore = 0  # the count before the first of them began


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    count it had, also when the block raises.

    One thread gives every product and dot the same summation order
    whatever OPENBLAS_NUM_THREADS is, and stops idle OpenBLAS threads
    spinning between calls. The count is process-wide: overlapping blocks,
    on any threads, restore it when the last of them exits. Where no
    OpenBLAS is found this does nothing.
    """
    global _pin_depth, _pin_restore
    found = _openblas()
    if found is None:
        yield
        return
    set_threads, get_threads = found
    with _pin_lock:
        if _pin_depth == 0:
            _pin_restore = get_threads()
            set_threads(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_threads(_pin_restore)


class FeatureMatrix:
    """Uniquely named columns of n finite float64 samples. Immutable.

    ``data`` is the one (n, k) array behind the matrix: read-only and
    column-major, so every column is a contiguous view and per-column
    arithmetic sums in the same order as on a standalone vector.

    ``FeatureMatrix(names, data)`` copies an n x k array whose columns line
    up with ``names`` and checks that every value is finite. ``load_csv``
    checks its cells as it parses them. Matrices the package derives from
    these (standardized data, a matrix less one column) wrap their fresh
    arrays without a copy or a second check.
    """

    __slots__ = ("names", "data")

    def __init__(self, names: Sequence[str], data: np.ndarray):
        names = tuple(names)
        arr = np.array(data, dtype=np.float64, order="F")
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-D array, got shape {arr.shape}")
        if arr.shape[1] != len(names):
            raise DimensionError(f"{len(names)} names for {arr.shape[1]} columns")
        finite = np.isfinite(arr).all(axis=0)
        if not finite.all():
            bad = names[int(np.argmin(finite))]
            raise ValueError(f"feature '{bad}' contains non-finite entries")
        self._init(names, arr)

    @classmethod
    def from_arrays(cls, names: Sequence[str], data: np.ndarray) -> "FeatureMatrix":
        """The constructor under another name: copy and check ``data``."""
        return cls(names, data)

    @classmethod
    def _adopt(cls, names: Sequence[str], data: np.ndarray) -> "FeatureMatrix":
        """Wrap a fresh Fortran-order float64 n x k array without copying
        it or checking its values, and make it read-only. The caller must
        hold no other writable reference to it."""
        matrix = object.__new__(cls)
        matrix._init(tuple(names), data)
        return matrix

    def _init(self, names: tuple[str, ...], data: np.ndarray) -> None:
        if data.shape[1] < 1:
            raise DimensionError("matrix needs at least one column")
        if data.shape[0] < 2:
            raise DimensionError("matrix needs at least two samples")
        if len(set(names)) != len(names):
            dupes = sorted({x for x in names if names.count(x) > 1})
            raise DimensionError(f"duplicate column names: {dupes}")
        data.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError(f"FeatureMatrix is immutable; cannot set '{name}'")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def k(self) -> int:
        return self.data.shape[1]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise FeatureLookupError(
                f"no feature named '{name}' (have {list(self.names)})"
            ) from None

    def as_array(self) -> np.ndarray:
        """Fresh, writable, C-ordered n x k copy in column order."""
        return np.array(self.data, order="C")

    def drop(self, name: str) -> "FeatureMatrix":
        idx = self.index(name)
        names = self.names[:idx] + self.names[idx + 1 :]
        return FeatureMatrix._adopt(names, np.delete(self.data, idx, axis=1))


@dataclass(frozen=True, eq=False)
class ProjectionBasis:
    """Orthonormal columns spanning the subspace to remove.

    ``array`` is n x r and C-ordered. ``dropped_count`` is how many
    near-dependent candidates were discarded while building the basis.
    """

    array: np.ndarray
    dropped_count: int = 0

    def __post_init__(self):
        arr = np.ascontiguousarray(self.array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] == 0:
            raise DegenerateSubspaceError("a projection basis needs at least one vector")
        # One r x r Gram matrix serves both checks, so no n x r temporary is
        # made. Written as "not within" so that a NaN fails the checks too.
        gram = arr.T @ arr
        unit = np.abs(np.sqrt(np.diag(gram)) - 1.0) <= 1e-10
        if not unit.all():
            raise ValueError(f"basis vector {int(np.argmin(unit))} is not unit-norm")
        off = gram - np.eye(arr.shape[1])
        if not np.max(np.abs(off)) <= 1e-10 * arr.shape[0]:
            raise ValueError("basis vectors are not mutually orthogonal")
        object.__setattr__(self, "array", arr)

    @property
    def vectors(self) -> np.ndarray:
        """The r basis vectors, one per row: a view of ``array``."""
        return self.array.T


def orthonormalize(rows: np.ndarray) -> ProjectionBasis:
    """Modified Gram-Schmidt over the rows of ``rows``, in order, with one
    re-orthogonalization pass per vector. Works in place: ``rows`` must be
    a writable, C-order (c x n) float64 array, else DimensionError, and it
    is overwritten; each accepted row ends as its basis vector.

    A candidate is dropped when its residual after projection against the
    vectors accepted so far has norm < DROP_TOL times its original norm
    (rank deficiency rather than a new direction). Raises
    DegenerateSubspaceError when nothing survives.
    """
    # carray: C-contiguous, aligned and writeable.
    if not (rows.ndim == 2 and rows.dtype == np.float64 and rows.flags.carray):
        raise DimensionError(
            f"rows must be a writable C-order float64 c x n array, got {rows.dtype} {rows.shape}"
        )
    accepted: list[np.ndarray] = []
    for v in rows:
        top = float(np.max(np.abs(v)))
        if top == 0.0:
            continue
        # A power of two brings v's largest magnitude into [0.5, 1). It
        # scales v and its residuals exactly, so their norms can neither
        # overflow nor underflow, and a vector whose norms were in range
        # keeps its bits.
        np.ldexp(v, -int(np.frexp(top)[1]), out=v)
        orig = float(np.linalg.norm(v))
        for _ in range(2):  # second sweep mops up cancellation error
            for q in accepted:
                v -= np.dot(q, v) * q
        resid = float(np.linalg.norm(v))
        if resid < DROP_TOL * orig:
            continue
        v /= resid
        accepted.append(v)
    if not accepted:
        raise DegenerateSubspaceError(
            f"all {len(rows)} candidates were dropped as rank-deficient"
        )
    return ProjectionBasis(
        np.column_stack(accepted), dropped_count=len(rows) - len(accepted)
    )


def _audited_index(
    X: FeatureMatrix,
    current: str,
    out: np.ndarray,
    scale: np.ndarray | None,
    offset: np.ndarray | None,
) -> int:
    idx = X.index(current)
    if X.k == 1:
        raise DimensionError("cannot transform a single-column matrix; nothing remains")
    if out.shape != X.data.shape or not out.flags.c_contiguous:
        raise DimensionError(f"out must be a C-order {X.n} x {X.k} array")
    if (scale is None) != (offset is None):
        raise DimensionError("the back-map needs both scale and offset, or neither")
    return idx


def _row_blocks(n: int) -> list[slice]:
    """Slices of at most ROW_BLOCK rows that split range(n) evenly. None
    has one row when n > 1: numpy computes a one-row product as a
    matrix-vector product, which rounds unlike the matrix product."""
    count = -(-n // ROW_BLOCK)
    edges = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _subtract_blocks(
    src: np.ndarray,
    factor: np.ndarray,
    coef: np.ndarray,
    out: np.ndarray,
    scale: np.ndarray | None = None,
    offset: np.ndarray | None = None,
) -> None:
    """Write ``src - factor @ coef`` into ``out``, a C-order n x k array, a
    block of rows at a time, mapping each block back as
    ``block * scale + offset`` when ``scale`` is given.

    Each block is formed in a scratch of ``src``'s layout, where every step
    runs along the lines ``src`` stores contiguously, then copied into
    ``out``: subtracting column-major rows straight into row-major ones took
    twice as long. A one-column ``factor`` is multiplied elementwise, so each
    product factor_i * coef_j is rounded once; np.matmul rounds it the same
    way but took longer.
    """
    n, k = out.shape
    scratch = np.empty((min(ROW_BLOCK, n), k), order="F" if src.flags.f_contiguous else "C")
    product = np.multiply if factor.shape[1] == 1 else np.matmul
    for rows in _row_blocks(n):
        part = product(factor[rows], coef, out=scratch[: rows.stop - rows.start])
        np.subtract(src[rows], part, out=part)
        if scale is not None:
            part *= scale
            part += offset
        out[rows] = part


def transform_against_feature(
    X: FeatureMatrix,
    current: str,
    basis: ProjectionBasis,
    out: np.ndarray,
    scale: np.ndarray | None = None,
    offset: np.ndarray | None = None,
) -> None:
    """Project every column of X onto the orthogonal complement of
    span(basis), into the same column of ``out``, a C-order n x k array,
    then map it back as ``out * scale + offset`` when ``scale`` and
    ``offset`` are given; one without the other raises DimensionError.
    Column ``current`` gets its own projection, which the caller
    overwrites.
    """
    _audited_index(X, current, out, scale, offset)
    if basis.array.shape[0] != X.n:
        raise DimensionError(f"basis length {basis.array.shape[0]} does not match {X.n} rows")
    B = basis.array
    # Two passes: the second removes the components reintroduced by
    # rounding, keeping residuals orthogonal relative to their own
    # (possibly tiny) norms. Each forms B^T src in one product, whose bits
    # a split by columns would change; the first reads X itself.
    _subtract_blocks(X.data, B, B.T @ X.data, out)
    _subtract_blocks(out, B, B.T @ out, out, scale, offset)


def transform_against_vector(
    X: FeatureMatrix,
    current: str,
    out: np.ndarray,
    scale: np.ndarray | None = None,
    offset: np.ndarray | None = None,
) -> None:
    """Single-vector removal: v - u (u.v / u.u) for every column v but
    ``current``, with u the column ``current`` itself, written and mapped
    back as transform_against_feature does; column ``current`` gets a copy
    of u, which the caller overwrites. This is the linear-only
    transformation; the basis route reduces to it when no nonlinear
    companions are enabled.
    """
    idx = _audited_index(X, current, out, scale, offset)
    u = X.data[:, idx]
    with np.errstate(over="ignore"):
        uu = float(np.dot(u, u))
    if not _TINY <= uu < np.inf:
        # u.u underflows or overflows. The projection does not depend on
        # u's length, so scale u by the power of two that brings its
        # largest magnitude into [0.5, 1).
        top = float(np.max(np.abs(u)))
        if top == 0.0:
            raise DegenerateFeatureError(f"cannot project against '{current}': it is all zero")
        u = np.ldexp(u, -int(np.frexp(top)[1]))
        uu = float(np.dot(u, u))
    # The coefficients u.v / u.u, one np.dot per contiguous column: u @ X
    # would round differently. Column current's is 0, which leaves u.
    coef = np.array(
        [0.0 if j == idx else float(np.dot(u, X.data[:, j])) / uu for j in range(X.k)]
    )
    _subtract_blocks(X.data, u[:, None], coef, out, scale, offset)
