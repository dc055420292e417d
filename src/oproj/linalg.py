"""Dense column arithmetic and orthogonal projection.

All arithmetic is float64, and inputs are never mutated. The two
transformations write every column into an n x k buffer that the caller
hands them: the audit query in the making. The audited column's cells are
finite placeholders, and the caller overwrites that column.
"""

from __future__ import annotations

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


class FeatureMatrix:
    """Uniquely named columns of n finite float64 samples. Immutable.

    ``data`` is the one (n, k) array behind the matrix: read-only and
    column-major, so every column is a contiguous view and per-column
    arithmetic sums in the same order as on a standalone vector.

    ``FeatureMatrix(names, data)`` copies an n x k array whose columns line
    up with ``names`` and checks that every value is finite. ``load_csv``
    checks its cells as it parses them. Matrices the package derives from
    these (standardized data, removal candidates, audit queries) wrap their
    fresh arrays without a copy or a second check.
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

    def __len__(self) -> int:
        """The number of columns: a matrix is a sequence of named columns."""
        return self.data.shape[1]

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


@dataclass(frozen=True)
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
        # Written as "not within" so that a NaN fails the checks too.
        unit = np.abs(np.linalg.norm(arr, axis=0) - 1.0) <= 1e-10
        if not unit.all():
            raise ValueError(f"basis vector {int(np.argmin(unit))} is not unit-norm")
        off = arr.T @ arr - np.eye(arr.shape[1])
        if not np.max(np.abs(off)) <= 1e-10 * arr.shape[0]:
            raise ValueError("basis vectors are not mutually orthogonal")
        object.__setattr__(self, "array", arr)

    @property
    def vectors(self) -> np.ndarray:
        """The r basis vectors, one per row: a view of ``array``."""
        return self.array.T


def project_out(v: np.ndarray, u: np.ndarray, uu: float | None = None) -> np.ndarray:
    """Component of ``v`` orthogonal to ``u``: v - (u.v / u.u) u.

    ``uu`` is ``float(np.dot(u, u))``, for a caller that projects many
    columns against one ``u``. ``u.u`` must be a positive normal float;
    transform_against_vector rescales ``u`` to make it one.
    """
    if uu is None:
        uu = float(np.dot(u, u))
    coef = float(np.dot(u, v)) / uu
    return v - coef * u


def orthonormalize(candidates: FeatureMatrix) -> ProjectionBasis:
    """Modified Gram-Schmidt over the columns of ``candidates``, in order,
    with one re-orthogonalization pass per vector.

    A candidate is dropped when its residual after projection against the
    vectors accepted so far has norm < DROP_TOL times its original norm
    (rank deficiency rather than a new direction). Raises
    DegenerateFeatureError naming a candidate whose norm overflows float64,
    and DegenerateSubspaceError when nothing survives.
    """
    # A writable copy; its columns are contiguous, so every dot product
    # below runs on plain vectors.
    work = np.array(candidates.data, order="F")
    accepted: list[np.ndarray] = []
    for name, v in zip(candidates.names, work.T):
        with np.errstate(over="ignore"):
            orig = float(np.linalg.norm(v))
        if not np.isfinite(orig):
            raise DegenerateFeatureError(
                f"candidate '{name}' has norm {orig} beyond float64 range; "
                "standardize the data or drop the transform"
            )
        top = float(np.max(np.abs(v)))
        if top == 0.0:
            continue
        # A power of two brings v's largest magnitude into [0.5, 1). It
        # scales v and its residuals below exactly, so their norms cannot
        # underflow, and a vector whose norms were in range keeps its bits.
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
            f"all {candidates.k} candidates were dropped as rank-deficient"
        )
    return ProjectionBasis(
        np.column_stack(accepted), dropped_count=candidates.k - len(accepted)
    )


def _audited_index(X: FeatureMatrix, current: str, out: np.ndarray) -> int:
    idx = X.index(current)
    if X.k == 1:
        raise DimensionError("cannot transform a single-column matrix; nothing remains")
    if out.shape != X.data.shape or not out.flags.f_contiguous:
        raise DimensionError(f"out must be a Fortran-order {X.n} x {X.k} array")
    return idx


def transform_against_feature(
    X: FeatureMatrix, current: str, basis: ProjectionBasis, out: np.ndarray
) -> None:
    """Project every column of X onto the orthogonal complement of
    span(basis), into the same column of ``out``, a Fortran-order n x k
    array. Column ``current`` gets its own projection, which the caller
    overwrites.
    """
    _audited_index(X, current, out)
    if basis.array.shape[0] != X.n:
        raise DimensionError(f"basis length {basis.array.shape[0]} does not match {X.n} rows")
    B = basis.array
    # Two passes: the second removes the components reintroduced by
    # rounding, keeping residuals orthogonal relative to their own
    # (possibly tiny) norms.
    out[...] = X.data
    scratch = np.empty(out.shape, order="F")
    for _ in range(2):
        out -= np.matmul(B, B.T @ out, out=scratch)


def transform_against_vector(X: FeatureMatrix, current: str, out: np.ndarray) -> None:
    """Single-vector removal: apply project_out(col, u) to every column but
    ``current``, with u the column ``current`` itself, writing into ``out``
    as transform_against_feature does; column ``current`` gets a copy of
    u, which the caller overwrites. This is the linear-only
    transformation; the basis route reduces to it when no nonlinear
    companions are enabled.
    """
    idx = _audited_index(X, current, out)
    u = X.data[:, idx]
    out[:, idx] = u
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
    for j in range(X.k):
        if j != idx:
            out[:, j] = project_out(X.data[:, j], u, uu)
