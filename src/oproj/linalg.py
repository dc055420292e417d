"""Dense column arithmetic and orthogonal projection.

Everything here is pure: inputs are never mutated, outputs are freshly
allocated, and all arithmetic is float64.
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


def _as_float_array(values, *, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{what} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class FeatureVector:
    """A named column of n finite float64 samples. Immutable."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.values, what=f"feature '{self.name}'").copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


class FeatureMatrix:
    """Uniquely named columns of n finite float64 samples. Immutable.

    ``data`` is the one (n, k) array behind the matrix: read-only and
    column-major, so every column is a contiguous view and per-column
    arithmetic sums in the same order as on a standalone vector.
    Finiteness is checked where samples come in (``FeatureVector``,
    ``from_arrays``, ``load_csv``), not again on matrices derived from them.
    """

    __slots__ = ("names", "data")

    def __init__(self, columns: Sequence[FeatureVector]):
        cols = tuple(columns)
        if not cols:
            raise DimensionError("matrix needs at least one column")
        n = len(cols[0])
        for c in cols:
            if len(c) != n:
                raise DimensionError(
                    f"column '{c.name}' has length {len(c)}, expected {n}"
                )
        # Stacking k rows of n and transposing gives the column-major layout.
        self._init(tuple(c.name for c in cols), np.array([c.values for c in cols]).T)

    @classmethod
    def _adopt(cls, names: Sequence[str], data: np.ndarray) -> "FeatureMatrix":
        """Wrap a finite, Fortran-order float64 array without copying it.

        The array becomes read-only, so the caller must hold no other
        writable reference to it.
        """
        m = cls.__new__(cls)
        m._init(tuple(names), data)
        return m

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

    @classmethod
    def from_arrays(cls, names: Sequence[str], data: np.ndarray) -> "FeatureMatrix":
        """Copy an n x k array whose columns line up with ``names``."""
        arr = np.array(data, dtype=np.float64, order="F")
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-D array, got shape {arr.shape}")
        if arr.shape[1] != len(names):
            raise DimensionError(f"{len(names)} names for {arr.shape[1]} columns")
        finite = np.isfinite(arr).all(axis=0)
        if not finite.all():
            bad = names[int(np.argmin(finite))]
            raise ValueError(f"feature '{bad}' contains non-finite entries")
        return cls._adopt(names, arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def k(self) -> int:
        return self.data.shape[1]

    @property
    def columns(self) -> tuple[FeatureVector, ...]:
        """Every column as a freshly built vector."""
        return tuple(FeatureVector(nm, self.data[:, j]) for j, nm in enumerate(self.names))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise FeatureLookupError(
                f"no feature named '{name}' (have {list(self.names)})"
            ) from None

    def column(self, name: str) -> FeatureVector:
        return FeatureVector(name, self.data[:, self.index(name)])

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
    """Mutually orthonormal vectors spanning the subspace to remove.

    ``dropped_count`` is how many near-dependent candidates were discarded
    while building the basis.
    """

    vectors: tuple[FeatureVector, ...]
    dropped_count: int = 0

    def __post_init__(self):
        vecs = tuple(self.vectors)
        if not vecs:
            raise DegenerateSubspaceError("a projection basis needs at least one vector")
        n = len(vecs[0])
        for v in vecs:
            if len(v) != n:
                raise DimensionError("basis vectors must share a common length")
            if abs(v.norm - 1.0) > 1e-10:
                raise ValueError(f"basis vector '{v.name}' is not unit-norm")
        object.__setattr__(self, "vectors", vecs)
        arr = self.as_array()
        gram = arr.T @ arr
        off = gram - np.eye(len(vecs))
        if np.max(np.abs(off)) > 1e-10 * n:
            raise ValueError("basis vectors are not mutually orthogonal")

    @property
    def n(self) -> int:
        return len(self.vectors[0])

    def as_array(self) -> np.ndarray:
        return np.column_stack([v.values for v in self.vectors])


def project_out(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Component of ``v`` orthogonal to ``u``: v - (u.v / u.u) u.

    ``u`` must not be numerically zero; transform_against_vector checks
    that before projecting any column.
    """
    coef = float(np.dot(u, v)) / float(np.dot(u, u))
    return v - coef * u


def orthonormalize(
    candidates: Sequence[FeatureVector], drop_tol: float = DEFAULT_DROP_TOL
) -> ProjectionBasis:
    """Modified Gram-Schmidt with one re-orthogonalization pass per vector.

    A candidate is dropped when its residual after projection against the
    vectors accepted so far has norm < drop_tol times its original norm
    (rank deficiency rather than a new direction). Raises
    DegenerateSubspaceError when nothing survives.
    """
    cands = list(candidates)
    if not cands:
        raise DegenerateSubspaceError("no candidates to orthonormalize")
    n = len(cands[0])
    for c in cands:
        if len(c) != n:
            raise DimensionError("candidates must share a common length")

    accepted: list[np.ndarray] = []
    kept: list[FeatureVector] = []
    dropped = 0
    for c in cands:
        v = c.values.copy()
        orig = float(np.linalg.norm(v))
        if orig == 0.0:
            dropped += 1
            continue
        for _ in range(2):  # second sweep mops up cancellation error
            for q in accepted:
                v -= np.dot(q, v) * q
        resid = float(np.linalg.norm(v))
        if resid < drop_tol * orig:
            dropped += 1
            continue
        q = v / resid
        accepted.append(q)
        kept.append(FeatureVector(c.name, q))
    if not kept:
        raise DegenerateSubspaceError(
            f"all {len(cands)} candidates were dropped as rank-deficient"
        )
    return ProjectionBasis(tuple(kept), dropped_count=dropped)


def _complement_projection(data: np.ndarray, basis_arr: np.ndarray) -> np.ndarray:
    # Two passes: the second removes the components reintroduced by rounding,
    # keeping residuals orthogonal relative to their own (possibly tiny) norms.
    # Products land in column-major arrays, so the subtractions never mix
    # memory layouts.
    out = np.matmul(basis_arr, basis_arr.T @ data, out=np.empty(data.shape, order="F"))
    np.subtract(data, out, out=out)
    out -= np.matmul(basis_arr, basis_arr.T @ out, out=np.empty(data.shape, order="F"))
    return out


def _check_transformable(X_pre: FeatureMatrix, n: int, what: str) -> None:
    if X_pre.k == 1:
        raise DimensionError("cannot transform a single-column matrix; nothing remains")
    if n != X_pre.n:
        raise DimensionError(f"{what} length {n} does not match sample count {X_pre.n}")


def transform_against_feature(
    X_pre: FeatureMatrix, current: str, basis: ProjectionBasis
) -> FeatureMatrix:
    """Drop ``current`` and project every other column onto the orthogonal
    complement of span(basis). Column order and names are preserved."""
    X_pre.index(current)
    _check_transformable(X_pre, basis.n, "basis")
    rest = X_pre.drop(current)
    return FeatureMatrix._adopt(
        rest.names, _complement_projection(rest.data, basis.as_array())
    )


def transform_against_vector(
    X_pre: FeatureMatrix, current: str, u: FeatureVector
) -> FeatureMatrix:
    """Single-vector removal: drop ``current`` and apply project_out(col, u)
    to every remaining column. This is the linear-only transformation; the
    basis route reduces to it when no nonlinear companions are enabled."""
    idx = X_pre.index(current)
    _check_transformable(X_pre, len(u), "vector")
    u_norm = float(np.linalg.norm(u.values))
    if u_norm <= ZERO_NORM_TOL * np.sqrt(len(u)):
        raise DegenerateFeatureError(
            f"cannot project against '{u.name}': norm {u_norm:.3e} is numerically zero"
        )
    rest = [j for j in range(X_pre.k) if j != idx]
    out = np.empty((X_pre.n, len(rest)), order="F")
    for col, j in enumerate(rest):
        out[:, col] = project_out(X_pre.data[:, j], u.values)
    return FeatureMatrix._adopt([X_pre.names[j] for j in rest], out)
