"""Stand-in predictors for black boxes that cannot be re-queried.

When only a recorded (X, y) pair is available, a ridge or logistic model is
fitted to imitate the black box and the audit runs against the imitation.
Fidelity on a held-out split is always reported so a poor stand-in cannot
masquerade as the real thing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .adapters import LinearModel, _design
from .errors import DimensionError, NonFiniteFitError, SingularSystemError
from .linalg import FeatureMatrix, one_blas_thread

GRADIENT_TOL = 1e-6
# Newton's method converges in about ten steps; the cap ends a fit that does not.
MAX_ITER = 100
# Share of the rows held out from fitting to score the stand-in's fidelity.
HOLDOUT_FRACTION = 0.2
# A column whose peak is below this has only subnormal squares.
_SUBNORMAL_SQUARES = 2.0**-511


@dataclass(frozen=True, eq=False)
class LogisticModel(LinearModel):
    """Newton's-method logistic fit (see fit_logistic) on native scale.
    It predicts the probability of class 1 for each row.

    ``losses`` holds the non-increasing loss at each of ``iterations``
    gradient evaluations; ``converged`` is False if MAX_ITER stopped the fit.
    """

    iterations: int
    converged: bool
    losses: tuple[float, ...]

    @staticmethod
    def link(eta: np.ndarray) -> np.ndarray:
        return _sigmoid(eta)


@dataclass(frozen=True)
class FidelityScore:
    """Held-out agreement between the stand-in and the recorded outputs.

    kind is "r2" for ridge and "agreement" for logistic. The holdout rows
    were never seen during fitting.
    """

    kind: str
    value: float
    split_seed: int
    holdout_fraction: float
    n_holdout: int


def _sums_of_squares(y: np.ndarray, pred: np.ndarray) -> tuple[float, float]:
    """Residual and total sums of squares; inf or nan where they overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum((y - pred) ** 2)), float(np.sum((y - np.mean(y)) ** 2))


def _r_squared(y: np.ndarray, pred: np.ndarray) -> float:
    """1 - SS_res / SS_tot. Sums beyond float64 range are taken again on y
    and pred divided by the power of two above y's peak, which leaves r²
    unchanged; an r² whose sums are in range comes from them as they are."""
    ss_res, ss_tot = _sums_of_squares(y, pred)
    if not np.isfinite([ss_res, ss_tot]).all():
        # So divided, SS_tot is in range, and SS_res is out of range only
        # where r² is. The joint peak of y and pred would let SS_tot
        # underflow to 0 when the predictions dwarf y.
        e = math.frexp(float(np.max(np.abs(y))))[1]
        ss_res, ss_tot = _sums_of_squares(np.ldexp(y, -e), np.ldexp(pred, -e))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def _cholesky_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``gram⁻¹ rhs`` by ``np.linalg.cholesky`` and two solves against L."""
    L = np.linalg.cholesky(gram)
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


def _finite(*arrays: np.ndarray) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def _normal_equations(
    Z: np.ndarray, y: np.ndarray, penalty: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Z'Z + diag(penalty) and Z'y; inf or nan where they overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return Z.T @ Z + np.diag(penalty), Z.T @ y


def fit_ridge(X: FeatureMatrix | np.ndarray, y, lam: float = 1e-3) -> LinearModel:
    """Solve the ridge normal equations by Cholesky factorization.

    Minimizes ||y - (b + X w)||^2 + lam * ||w||^2; the intercept b is not
    penalized. A singular system (possible only at lam = 0) raises
    SingularSystemError suggesting a positive penalty. Normal equations
    that overflow float64 (columns beyond about 1e154), or that hold a
    column whose squares are all subnormal (peak below 2**-511), are solved
    again with each column and its penalty divided by the power of two
    above the column's peak and by its square, which leaves the fit
    unchanged. A penalty that this makes subnormal or zero was already
    under 2**-1020 of its column's Gram entry; where it overflows instead,
    the unscaled fit stands. Normal equations that still overflow, or a fit
    that does (targets beyond about 1e154), raise NonFiniteFitError.
    """
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    A = _design(X)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n, k = A.shape
    if y.shape[0] != n:
        raise DimensionError(f"target length {y.shape[0]} vs {n} rows")
    if n <= k:
        warnings.warn(
            f"fitting {k} coefficients on {n} samples; expect an unstable fit",
            stacklevel=2,
        )
    Z = np.column_stack([np.ones(n), A])
    penalty = np.full(k + 1, lam)
    penalty[0] = 0.0  # intercept unpenalized
    gram, rhs = _normal_equations(Z, y, penalty)
    e = np.zeros(k + 1, dtype=int)
    peak = np.max(np.abs(Z), axis=0)
    if not _finite(gram, rhs) or ((0.0 < peak) & (peak < _SUBNORMAL_SQUARES)).any():
        # Solve for w_j * 2**e_j on column j times 2**-e_j, with 2**e_j just
        # above its peak and the penalty times 2**-2e_j: the same fit, in
        # units whose Gram matrix may be in range. Scaling by a power of two
        # is exact; a fit in range is not rescaled, and keeps its bits.
        e_scaled = np.frexp(peak)[1]
        with np.errstate(over="ignore"):
            scaled_penalty = np.ldexp(penalty, -2 * e_scaled)
        scaled = _normal_equations(np.ldexp(Z, -e_scaled), y, scaled_penalty)
        # A penalty that overflows so scaled dwarfs its tiny column's Gram
        # entries, which then cost the unscaled fit no digits.
        if _finite(*scaled) or not _finite(gram, rhs):
            (gram, rhs), e = scaled, e_scaled
    if not _finite(gram, rhs):
        raise NonFiniteFitError(
            "ridge normal equations overflow float64; rescale the data or the target"
        )
    try:
        w = _cholesky_solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "normal equations are singular; retry with lam > 0"
        ) from exc
    w = np.ldexp(w, -e)
    with np.errstate(over="ignore", invalid="ignore"):
        fitted = Z @ w
    if not (np.isfinite(w).all() and np.isfinite(_sums_of_squares(y, fitted)).all()):
        raise NonFiniteFitError(
            "ridge fit is not finite in float64; rescale the data or the target"
        )
    coefficients = w[1:].copy()
    coefficients.flags.writeable = False
    return LinearModel(coefficients=coefficients, intercept=float(w[0]))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    eps = 1e-15
    p = np.clip(p, eps, 1.0 - eps)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def fit_logistic(X: FeatureMatrix | np.ndarray, y) -> LogisticModel:
    """Newton's method (iteratively reweighted least squares) on mean
    log-loss over the z-scored design, mapped back to native scale.

    A zero-deviation column is divided by 1. The Hessian's damping, 1e-10·I,
    keeps a constant or duplicated column from stalling the fit and leaves
    the optimum unchanged. A step is halved until the loss does not rise.
    The fit stops at gradient max-norm <= GRADIENT_TOL, or after MAX_ITER
    evaluations with ``converged=False``, which is not raised. A
    column whose mean or deviations overflow float64 (values near 1e308),
    or a fit whose native-scale coefficients or intercept do (a column
    whose sd is subnormal, below about 1e-308), raises NonFiniteFitError.
    """
    A = _design(X)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n, k = A.shape
    if y.shape[0] != n:
        raise DimensionError(f"target length {y.shape[0]} vs {n} rows")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("logistic targets must be 0/1")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = A.mean(axis=0)
        dev = A - mean
        # Deviations over their peak square without overflow or underflow,
        # so a column at 1e200 or 1e-170 keeps its sd.
        peak = np.max(np.abs(dev), axis=0)
        peak[peak == 0.0] = 1.0
        sd = peak * np.sqrt(np.mean((dev / peak) ** 2, axis=0))
    if not (np.isfinite(mean).all() and np.isfinite(sd).all()):
        raise NonFiniteFitError("logistic design overflows float64; rescale the data")
    sd[sd == 0.0] = 1.0
    Z = np.column_stack([np.ones(n), dev / sd])
    damping = 1e-10 * np.eye(k + 1)
    w = np.zeros(k + 1)
    p = _sigmoid(Z @ w)
    losses = [_log_loss(y, p)]
    while True:
        grad = Z.T @ (p - y) / n
        converged = float(np.max(np.abs(grad))) <= GRADIENT_TOL
        if converged or len(losses) == MAX_ITER:
            break
        step = _cholesky_solve((Z.T * (p * (1.0 - p))) @ Z / n + damping, grad)
        while True:
            p_next = _sigmoid(Z @ (w - step))
            loss = _log_loss(y, p_next)
            if loss <= losses[-1]:
                break
            step = step / 2.0
        w, p = w - step, p_next
        losses.append(loss)
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = w[1:] / sd
        intercept = float(w[0] - coefficients @ mean)
    if not (np.isfinite(coefficients).all() and np.isfinite(intercept)):
        raise NonFiniteFitError(
            "logistic coefficients overflow float64 at native scale; rescale the data"
        )
    coefficients.flags.writeable = False
    return LogisticModel(
        coefficients=coefficients,
        intercept=intercept,
        iterations=len(losses),
        converged=converged,
        losses=tuple(losses),
    )


@dataclass(frozen=True)
class SurrogateFit:
    """A trained stand-in, which is also its own model handle, plus its
    held-out fidelity."""

    model: LinearModel
    fidelity: FidelityScore


@one_blas_thread()
def train_surrogate(
    X: FeatureMatrix,
    y,
    family: str = "ridge",
    *,
    lam: float = 1e-3,
    seed: int = 0,
) -> SurrogateFit:
    """Fit a stand-in on a seeded 80/20 split and score it on the holdout.

    The audited model is the train-split fit, so the fidelity rows stay
    untouched by fitting. A held-out r² beyond float64 range raises
    NonFiniteFitError. Like rank_all, it runs with numpy's OpenBLAS on one
    thread.
    """
    if family not in ("ridge", "logistic"):
        raise ValueError(f"unknown surrogate family '{family}'")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = X.n
    if y.shape[0] != n:
        raise DimensionError(f"target length {y.shape[0]} vs {n} rows")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_hold = max(1, int(round(HOLDOUT_FRACTION * n)))
    if n - n_hold < 2:
        raise DimensionError(f"{n} samples is too few for a {HOLDOUT_FRACTION} holdout")
    hold_rows, train_rows = perm[:n_hold], perm[n_hold:]
    X_train = X.data[train_rows]
    X_hold = X.data[hold_rows]

    if family == "ridge":
        model: LinearModel = fit_ridge(X_train, y[train_rows], lam)
        fidelity_value = _r_squared(y[hold_rows], model.predict(X_hold))
        if not math.isfinite(fidelity_value):
            raise NonFiniteFitError(
                f"the surrogate's held-out r² is {fidelity_value}, beyond float64 "
                "range; rescale the data or the target"
            )
        kind = "r2"
    else:
        model = fit_logistic(X_train, y[train_rows])
        agree = (model.predict(X_hold) >= 0.5) == (y[hold_rows] >= 0.5)
        fidelity_value = float(np.mean(agree))
        kind = "agreement"

    fidelity = FidelityScore(
        kind=kind,
        value=fidelity_value,
        split_seed=seed,
        holdout_fraction=HOLDOUT_FRACTION,
        n_holdout=int(n_hold),
    )
    return SurrogateFit(model=model, fidelity=fidelity)
