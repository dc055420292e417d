import numpy as np
import pytest

from oproj.adapters import InProcessModel
from oproj.errors import NonFiniteFitError, SingularSystemError
from oproj.linalg import FeatureMatrix
from oproj.ranking import AuditConfig, rank_all
from oproj.surrogate import (
    fit_logistic,
    fit_ridge,
    surrogate_handle,
    train_surrogate,
)


def matrix(data, names=None):
    data = np.asarray(data, dtype=float)
    names = names or [f"x{j + 1}" for j in range(data.shape[1])]
    return FeatureMatrix.from_arrays(names, data)


def ridge_gd_oracle(X, y, lam, *, tol=1e-11, max_iter=500_000):
    """Independent minimizer of ||y - Zw||^2 + lam*||w[1:]||^2 by plain
    gradient descent with a safe fixed step."""
    Z = np.column_stack([np.ones(len(y)), X])
    d = np.ones(Z.shape[1])
    d[0] = 0.0
    lip = 2.0 * float(np.max(np.linalg.eigvalsh(Z.T @ Z))) + 2.0 * lam
    step = 1.0 / lip
    w = np.zeros(Z.shape[1])
    for _ in range(max_iter):
        grad = 2.0 * Z.T @ (Z @ w - y) + 2.0 * lam * d * w
        if np.max(np.abs(grad)) < tol:
            break
        w = w - step * grad
    return w


def logistic_newton_oracle(X, y, iters=60):
    """Independent Newton's-method fit of the mean log-loss."""
    Z = np.column_stack([np.ones(len(y)), X])
    w = np.zeros(Z.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(Z @ w)))
        g = Z.T @ (p - y) / len(y)
        s = p * (1.0 - p)
        H = (Z.T * s) @ Z / len(y) + 1e-9 * np.eye(Z.shape[1])
        w = w - np.linalg.solve(H, g)
    return w


class TestFitRidge:
    def test_exact_line_interpolated(self):
        x = np.linspace(-2, 2, 20)
        y = 2.0 * x + 1.0
        model = fit_ridge(matrix(x[:, None]), y, lam=0.0)
        assert model.coefficients[0] == pytest.approx(2.0, rel=1e-10)
        assert model.intercept == pytest.approx(1.0, rel=1e-10)
        assert model.fit_r2 == pytest.approx(1.0, abs=1e-12)

    def test_huge_lambda_shrinks_to_mean(self, rng):
        X = rng.standard_normal((50, 2))
        y = rng.standard_normal(50) + 3.0
        model = fit_ridge(matrix(X), y, lam=1e12)
        assert np.max(np.abs(model.coefficients)) < 1e-9
        assert model.intercept == pytest.approx(float(np.mean(y)), rel=1e-6)

    def test_matches_gradient_descent_oracle(self, rng):
        X = rng.standard_normal((100, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        beta = np.array([1.5, -0.7, 0.2])
        y = X @ beta + 0.05 * rng.standard_normal(100)
        lam = 0.1
        model = fit_ridge(matrix(X), y, lam=lam)
        w_oracle = ridge_gd_oracle(X, y, lam)
        assert model.intercept == pytest.approx(w_oracle[0], abs=1e-6)
        np.testing.assert_allclose(model.coefficients, w_oracle[1:], atol=1e-6)

    def test_normal_equations_residual(self, rng):
        for _ in range(5):
            X = rng.standard_normal((60, 4))
            y = rng.standard_normal(60)
            lam = 0.5
            model = fit_ridge(matrix(X), y, lam=lam)
            Z = np.column_stack([np.ones(60), X])
            w = np.concatenate([[model.intercept], model.coefficients])
            penalty = np.full(5, lam)
            penalty[0] = 0.0
            resid = (Z.T @ Z + np.diag(penalty)) @ w - Z.T @ y
            assert np.max(np.abs(resid)) <= 1e-8 * np.max(np.abs(Z.T @ y))

    def test_matches_scipy_cholesky_solve(self, rng):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for lam in (0.0, 1e-3, 0.5):
            X = rng.standard_normal((200, 6))
            y = X @ rng.standard_normal(6) + rng.standard_normal(200)
            model = fit_ridge(matrix(X), y, lam=lam)
            Z = np.column_stack([np.ones(200), X])
            penalty = np.full(7, lam)
            penalty[0] = 0.0
            gram = Z.T @ Z + np.diag(penalty)
            ref = scipy_linalg.cho_solve(scipy_linalg.cho_factor(gram, lower=True), Z.T @ y)
            w = np.concatenate([[model.intercept], model.coefficients])
            np.testing.assert_allclose(w, ref, rtol=1e-12, atol=1e-14)

    def test_singular_at_zero_lambda(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([x, x])  # exactly collinear
        with pytest.raises(SingularSystemError, match="lam > 0"):
            fit_ridge(matrix(X), x, lam=0.0)

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
    def test_lambda_must_be_finite_and_non_negative(self, rng, lam):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            fit_ridge(matrix(rng.standard_normal((10, 2))), np.zeros(10), lam=lam)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "column, target, message",
        [(1e155, 1.0, "normal equations overflow"), (1.0, 1e200, "fit is not finite")],
    )
    def test_overflowing_fit_raises_by_name(self, rng, column, target, message):
        data = rng.standard_normal((80, 3))
        data[:, 1] = data[:, 1] * column
        y = (data[:, 0] + 2.0 * data[:, 2]) * target
        with pytest.raises(NonFiniteFitError, match=message):
            fit_ridge(matrix(data), y)

    def test_underdetermined_warns(self, rng):
        X = rng.standard_normal((3, 5))
        with pytest.warns(UserWarning, match="unstable"):
            fit_ridge(matrix(X), np.zeros(3), lam=1.0)


class TestFitLogistic:
    def test_constant_zero_targets(self, rng):
        X = rng.standard_normal((100, 2))
        model = fit_logistic(matrix(X), np.zeros(100), max_iter=5000)
        assert model.intercept < -4.0
        assert np.max(np.abs(model.coefficients)) < 0.2
        assert np.all(model.predict_proba(X) < 0.01)

    def test_separable_direction(self):
        x = np.concatenate([np.linspace(-3, -1, 25), np.linspace(1, 3, 25)])
        y = (x > 0).astype(float)
        model = fit_logistic(matrix(x[:, None]), y, max_iter=2000)
        assert model.coefficients[0] > 0
        acc = np.mean((model.predict_proba(x[:, None]) >= 0.5) == y)
        assert acc == 1.0
        # Optimum at infinity: the cap is hit and flagged, not raised.
        assert not model.converged
        assert model.iterations == 2000

    def test_blobs_agree_with_newton_oracle(self):
        rng = np.random.default_rng(77)
        n = 200
        X = np.vstack(
            [
                rng.standard_normal((n // 2, 2)) + np.array([1.6, 1.6]),
                rng.standard_normal((n // 2, 2)) - np.array([1.6, 1.6]),
            ]
        )
        y = np.concatenate([np.ones(n // 2), np.zeros(n // 2)])
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        model = fit_logistic(matrix(X), y, max_iter=20_000)
        w = logistic_newton_oracle(X, y)
        ours = model.predict_proba(X) >= 0.5
        oracle = 1.0 / (1.0 + np.exp(-(np.column_stack([np.ones(n), X]) @ w))) >= 0.5
        assert float(np.mean(ours == oracle)) >= 0.99

    def test_loss_non_increasing(self, rng):
        X = rng.standard_normal((120, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        y = (X @ np.array([1.0, -1.0, 0.5]) + 0.3 * rng.standard_normal(120) > 0).astype(
            float
        )
        model = fit_logistic(matrix(X), y, max_iter=800)
        losses = np.array(model.losses)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_rejects_non_binary_targets(self, rng):
        X = rng.standard_normal((10, 1))
        with pytest.raises(ValueError, match="0/1"):
            fit_logistic(matrix(X), np.linspace(0, 1, 10))


class TestSurrogateHandle:
    def test_wraps_as_concurrent_score_handle(self, rng):
        X = rng.standard_normal((30, 2))
        model = fit_ridge(matrix(X), X @ np.array([1.0, 2.0]), lam=1e-6)
        h = surrogate_handle(model)
        np.testing.assert_allclose(
            h.predict_batch(matrix(X)), model.predict(X), rtol=1e-15
        )

    def test_surrogate_audit_matches_direct_audit_order(self):
        # Noiseless linear truth: auditing the stand-in must rank features
        # in the same order as auditing the true model.
        rng = np.random.default_rng(5)
        X = rng.standard_normal((400, 3))
        beta = np.array([3.0, -2.0, 0.5])
        y = X @ beta
        m = matrix(X)
        direct = rank_all(InProcessModel(lambda a: a @ beta), m, AuditConfig())
        fit = train_surrogate(m, y, "ridge", lam=1e-8, seed=11)
        assert fit.fidelity.value == pytest.approx(1.0, abs=1e-9)
        surrogate = rank_all(fit.handle, m, AuditConfig())
        direct_order = [e.name for e in direct.entries]
        surrogate_order = [e.name for e in surrogate.entries]
        assert direct_order == surrogate_order == ["x1", "x2", "x3"]

    def test_fidelity_near_zero_on_pure_noise(self):
        # Unlearnable targets never earn meaningfully positive held-out r^2
        # (slightly negative is expected: the fit chases training noise).
        values = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            X = rng.standard_normal((120, 3))
            y = rng.standard_normal(120)
            fit = train_surrogate(matrix(X), y, "ridge", lam=1e-3, seed=seed)
            values.append(fit.fidelity.value)
        assert max(values) <= 0.1
        assert abs(float(np.mean(values))) <= 0.25


class TestTrainSurrogate:
    def test_holdout_bookkeeping(self, rng):
        X = matrix(rng.standard_normal((100, 2)))
        y = rng.standard_normal(100)
        fit = train_surrogate(X, y, "ridge", seed=3)
        assert fit.fidelity.n_holdout == 20
        assert fit.fidelity.holdout_fraction == 0.2
        assert fit.fidelity.split_seed == 3
        assert fit.fidelity.kind == "r2"

    def test_deterministic_given_seed(self, rng):
        X = matrix(rng.standard_normal((80, 2)))
        y = rng.standard_normal(80)
        a = train_surrogate(X, y, "ridge", seed=9)
        b = train_surrogate(X, y, "ridge", seed=9)
        np.testing.assert_array_equal(a.model.coefficients, b.model.coefficients)
        assert a.fidelity.value == b.fidelity.value

    def test_logistic_family_agreement_fidelity(self, rng):
        X = rng.standard_normal((200, 2))
        y = (X[:, 0] > 0).astype(float)
        fit = train_surrogate(matrix(X), y, "logistic", seed=4, max_iter=3000)
        assert fit.fidelity.kind == "agreement"
        assert fit.fidelity.value >= 0.9

    def test_unknown_family(self, rng):
        X = matrix(rng.standard_normal((20, 1)))
        with pytest.raises(ValueError, match="family"):
            train_surrogate(X, np.zeros(20), "forest")
