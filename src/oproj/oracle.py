"""Brute-force cross-checks for the projection audit.

Leave-one-covariate-out refitting is a slow, independent importance measure:
refit a reference ridge model without each feature and watch the training
error move. It is used to sanity-check audit rankings, never to produce
them.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linalg import FeatureMatrix
from .surrogate import fit_ridge


def loco_refit_importances(
    X: FeatureMatrix, y, lam: float = 1e-3
) -> dict[str, float]:
    """Increase in training MSE when each feature is dropped and the ridge
    reference model is refitted without it."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    full = fit_ridge(X, y, lam)
    mse_full = float(np.mean((full.predict(X) - y) ** 2))
    importances: dict[str, float] = {}
    for name in X.names:
        if X.k == 1:
            # No columns left: the refit is the intercept-only model.
            mse_j = float(np.mean((np.mean(y) - y) ** 2))
        else:
            reduced = X.drop(name)
            refit = fit_ridge(reduced, y, lam)
            mse_j = float(np.mean((refit.predict(reduced) - y) ** 2))
        importances[name] = mse_j - mse_full
    return importances


def _average_ranks(values: np.ndarray) -> np.ndarray:
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    # Ties share their mean rank: a group of c values ending at rank r
    # holds ranks r - c + 1 through r.
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def spearman_rank_correlation(a, b) -> float:
    """Spearman correlation via average ranks (ties handled)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise DimensionError("need at least two points for a rank correlation")
    ra, rb = _average_ranks(a), _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = float(np.sqrt(np.sum(ra**2) * np.sum(rb**2)))
    if denom == 0.0:
        return 0.0  # a constant ranking carries no order information
    return float(np.sum(ra * rb) / denom)
