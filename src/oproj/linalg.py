"""Dense column arithmetic and orthogonal projection.

All arithmetic is float64, and inputs are never mutated. The two
transformations write into an n x k buffer that the caller hands them: the
audit query in the making, with the audited column left for the caller to
fill.
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

# Rank-deficiency cutoff: residual norms below drop_tol times the candidate's
# original norm are treated as rounding debris, not a new direction.
DEFAULT_DROP_TOL = 1e-10

# A vector with Euclidean norm <= this (times sqrt(n)) cannot be projected
# against without dividing by noise.
ZERO_NORM_TOL = 1e-12


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

    def take_rows(self, rows: np.ndarray) -> "FeatureMatrix":
        return FeatureMatrix._adopt(self.names, np.asfortranarray(self.data[rows]))

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
    columns against one ``u``. ``u`` must not be numerically zero;
    transform_against_vector checks that before projecting any column.
    """
    if uu is None:
        uu = float(np.dot(u, u))
    coef = float(np.dot(u, v)) / uu
    return v - coef * u


def orthonormalize(
    candidates: FeatureMatrix, drop_tol: float = DEFAULT_DROP_TOL
) -> ProjectionBasis:
    """Modified Gram-Schmidt over the columns of ``candidates``, in order,
    with one re-orthogonalization pass per vector.

    A candidate is dropped when its residual after projection against the
    vectors accepted so far has norm < drop_tol times its original norm
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
        if orig == 0.0:
            continue
        for _ in range(2):  # second sweep mops up cancellation error
            for q in accepted:
                v -= np.dot(q, v) * q
        resid = float(np.linalg.norm(v))
        if resid < drop_tol * orig:
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


def _rest_index(X: FeatureMatrix, current: str, out: np.ndarray) -> int:
    idx = X.index(current)
    if X.k == 1:
        raise DimensionError("cannot transform a single-column matrix; nothing remains")
    if out.shape != X.data.shape or not out.flags.f_contiguous:
        raise DimensionError(f"out must be a Fortran-order {X.n} x {X.k} array")
    return idx


def transform_against_feature(
    X: FeatureMatrix, current: str, basis: ProjectionBasis, out: np.ndarray
) -> None:
    """Project every column of X but ``current`` onto the orthogonal
    complement of span(basis), into the same column of ``out``, a
    Fortran-order n x k array. Column ``current`` of ``out`` is left for
    the caller.
    """
    idx = _rest_index(X, current, out)
    if basis.array.shape[0] != X.n:
        raise DimensionError(f"basis length {basis.array.shape[0]} does not match {X.n} rows")
    B = basis.array
    # Project on the first k-1 columns, a contiguous block laid out like a
    # copy of X without column ``current``. Two passes: the second removes
    # the components reintroduced by rounding, keeping residuals orthogonal
    # relative to their own (possibly tiny) norms.
    rest = out[:, :-1]
    rest[:, :idx] = X.data[:, :idx]
    rest[:, idx:] = X.data[:, idx + 1 :]
    scratch = np.empty(rest.shape, order="F")
    for _ in range(2):
        rest -= np.matmul(B, B.T @ rest, out=scratch)
    # Shift the columns after ``current`` one place right, last first.
    for j in range(X.k - 1, idx, -1):
        out[:, j] = out[:, j - 1]


def transform_against_vector(X: FeatureMatrix, current: str, out: np.ndarray) -> None:
    """Single-vector removal: apply project_out(col, u) to every column but
    ``current``, with u the column ``current`` itself, writing into ``out``
    as transform_against_feature does. This is the linear-only
    transformation; the basis route reduces to it when no nonlinear
    companions are enabled.
    """
    idx = _rest_index(X, current, out)
    u = X.data[:, idx]
    u_norm = float(np.linalg.norm(u))
    if u_norm <= ZERO_NORM_TOL * np.sqrt(X.n):
        raise DegenerateFeatureError(
            f"cannot project against '{current}': norm {u_norm:.3e} is numerically zero"
        )
    uu = float(np.dot(u, u))
    for j in range(X.k):
        if j != idx:
            out[:, j] = project_out(X.data[:, j], u, uu)
