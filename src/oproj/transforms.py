"""Nonlinear companions of an audited feature.

The removal subspace for a feature is spanned by the feature itself plus
these transforms, so projection strips nonlinear footprints too, not just
the linear one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFeatureError
from .linalg import FeatureMatrix

# The exponential companion clips its input to [-EXP_CLIP, EXP_CLIP].
EXP_CLIP = 20.0


@dataclass(frozen=True)
class TransformSet:
    """Which nonlinear companions to generate for the audited feature.

    The log transform is shifted, log(x - min(x) + 1), so it is total on any
    finite column. The exponential clips its input to [-EXP_CLIP, EXP_CLIP]
    first, keeping outputs finite on standardized data.
    """

    enable_log: bool = True
    poly_degrees: tuple[int, ...] = (2, 3)
    enable_exp: bool = True

    def __post_init__(self):
        degrees = tuple(sorted(set(int(d) for d in self.poly_degrees)))
        if any(d < 2 for d in degrees):
            raise ValueError(f"polynomial degrees must be >= 2, got {degrees}")
        object.__setattr__(self, "poly_degrees", degrees)

    @classmethod
    def none(cls) -> "TransformSet":
        """Empty set: the audit degrades to pure linear removal."""
        return cls(enable_log=False, poly_degrees=(), enable_exp=False)


def build_removal_candidates(
    X: FeatureMatrix, current: str, ts: TransformSet
) -> np.ndarray:
    """The vectors whose span gets projected out when auditing feature
    ``current`` of X, one per row of a fresh C-order (c x n) float64
    array: the feature itself, then its enabled transforms in fixed order
    (log, polynomials by ascending degree, exp).

    A transform that overflows (a cube of values near 1e120, say) raises
    DegenerateFeatureError naming the feature and the transform.
    """
    x = X.data[:, X.index(current)]
    transforms = [
        *(["log"] if ts.enable_log else []),
        *(f"pow{d}" for d in ts.poly_degrees),
        *(["exp"] if ts.enable_exp else []),
    ]
    # One row per candidate, each companion written in place.
    rows = np.empty((1 + len(transforms), len(x)))
    rows[0] = x
    for transform, row in zip(transforms, rows[1:]):
        with np.errstate(over="ignore"):
            if transform == "log":
                np.subtract(x, np.min(x), out=row)
                row += 1.0
                np.log(row, out=row)
            elif transform == "exp":
                np.clip(x, -EXP_CLIP, EXP_CLIP, out=row)
                np.exp(row, out=row)
            else:
                np.power(x, int(transform[len("pow") :]), out=row)
        if not np.isfinite(row).all():
            raise DegenerateFeatureError(
                f"transform '{transform}' of '{current}' overflows to non-finite "
                "values; standardize the data or drop the transform"
            )
    return rows
