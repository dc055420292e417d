"""Nonlinear companions of an audited feature.

The removal subspace for a feature is spanned by the feature itself plus
these transforms, so projection strips nonlinear footprints too, not just
the linear one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFeatureError
from .linalg import FeatureMatrix, FeatureVector


@dataclass(frozen=True)
class TransformSet:
    """Which nonlinear companions to generate for the audited feature.

    The log transform is shifted, log(x - min(x) + 1), so it is total on any
    finite column. The exponential clips its input to [-exp_clip, exp_clip]
    first, keeping outputs finite on standardized data.
    """

    enable_log: bool = True
    poly_degrees: tuple[int, ...] = (2, 3)
    enable_exp: bool = True
    exp_clip: float = 20.0

    def __post_init__(self):
        degrees = tuple(sorted(set(int(d) for d in self.poly_degrees)))
        if any(d < 2 for d in degrees):
            raise ValueError(f"polynomial degrees must be >= 2, got {degrees}")
        if not self.exp_clip > 0:
            raise ValueError(f"exp_clip must be positive, got {self.exp_clip}")
        object.__setattr__(self, "poly_degrees", degrees)

    @classmethod
    def none(cls) -> "TransformSet":
        """Empty set: the audit degrades to pure linear removal."""
        return cls(enable_log=False, poly_degrees=(), enable_exp=False)

    @property
    def count(self) -> int:
        return int(self.enable_log) + len(self.poly_degrees) + int(self.enable_exp)


def _companion(x: FeatureVector, transform: str, values: np.ndarray) -> FeatureVector:
    try:
        return FeatureVector(f"{x.name}__{transform}", values)
    except ValueError as exc:  # FeatureVector rejects non-finite entries
        raise DegenerateFeatureError(
            f"transform '{transform}' of '{x.name}' overflows to non-finite "
            "values; standardize the data or drop the transform"
        ) from exc


def expand_feature(x: FeatureVector, ts: TransformSet) -> list[FeatureVector]:
    """Enabled transforms of ``x`` in fixed order: log, polynomials by
    ascending degree, exp. Each output is named ``<feature>__<transform>``.
    A transform that overflows (a cube of values near 1e120, say) raises
    DegenerateFeatureError naming the feature and the transform."""
    out: list[FeatureVector] = []
    v = x.values
    with np.errstate(over="ignore"):
        if ts.enable_log:
            out.append(_companion(x, "log", np.log(v - np.min(v) + 1.0)))
        for d in ts.poly_degrees:
            out.append(_companion(x, f"pow{d}", v**d))
        if ts.enable_exp:
            clipped = np.clip(v, -ts.exp_clip, ts.exp_clip)
            out.append(_companion(x, "exp", np.exp(clipped)))
    return out


def build_removal_candidates(
    X: FeatureMatrix, current: str, ts: TransformSet
) -> list[FeatureVector]:
    """The vectors whose span gets projected out when auditing ``current``:
    the feature itself followed by its enabled transforms."""
    x = X.column(current)
    return [x, *expand_feature(x, ts)]
