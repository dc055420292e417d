from dataclasses import replace

import numpy as np
import pytest

from oproj.adapters import InProcessModel
from oproj.errors import NonFiniteFitError, SingularSystemError
from oproj.linalg import FeatureMatrix
from oproj.ranking import AuditConfig, rank_all
from oproj.surrogate import MAX_ITER, _r_squared, fit_logistic, fit_ridge, train_surrogate


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
        # A column at 1e155 is fitted on rescaled columns; a target at 1e307
        # overflows the right-hand side even then.
        [(1e155, 1e307, "normal equations overflow"), (1.0, 1e200, "fit is not finite")],
    )
    def test_overflowing_fit_raises_by_name(self, rng, column, target, message):
        data = rng.standard_normal((80, 3))
        data[:, 1] = data[:, 1] * column
        y = (data[:, 0] + 2.0 * data[:, 2]) * target
        with pytest.raises(NonFiniteFitError, match=message):
            fit_ridge(matrix(data), y)

    @pytest.mark.filterwarnings("error")
    def test_columns_whose_gram_overflows_fit_as_rescaled(self, rng):
        # At lam = 0 the fit does not depend on a column's scale. Columns at
        # 2**510 overflow the Gram matrix; the fit is retried on columns
        # scaled into range, and its coefficients scaled back.
        X = rng.standard_normal((200, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.1 * rng.standard_normal(200)
        base = fit_ridge(matrix(X), y, lam=0.0)
        big = fit_ridge(matrix(np.ldexp(X, 510)), y, lam=0.0)
        np.testing.assert_allclose(
            big.coefficients, np.ldexp(base.coefficients, -510), rtol=1e-12
        )
        assert big.intercept == pytest.approx(base.intercept, rel=1e-12)
        assert big.fit_r2 == pytest.approx(base.fit_r2, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("exponent", [-530, -560])
    def test_columns_whose_squares_are_subnormal_fit_as_rescaled(self, exponent):
        # Below 2**-511 a column's squares are subnormal: the Gram matrix
        # loses digits at 2**-530 and is singular at 2**-560, though the
        # design has full rank. The fit is taken on columns scaled into range.
        rng = np.random.default_rng(12345)
        X = rng.standard_normal((200, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.1 * rng.standard_normal(200)
        base = fit_ridge(matrix(X), y, lam=0.0)
        tiny = fit_ridge(matrix(np.ldexp(X, exponent)), y, lam=0.0)
        np.testing.assert_allclose(
            tiny.coefficients, np.ldexp(base.coefficients, -exponent), rtol=1e-12
        )
        assert tiny.intercept == pytest.approx(base.intercept, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_penalty_dwarfing_subnormal_squares_keeps_the_unscaled_fit(self, rng):
        # Scaled to a 2**-560 column's units, lam = 1e-3 overflows. It
        # dwarfs the column's Gram entries, so w is X_c'y_c / lam to
        # rounding, with X_c and y_c centred.
        X = rng.standard_normal((200, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0])
        fit = fit_ridge(matrix(np.ldexp(X, -560)), y, lam=1e-3)
        expected = np.ldexp((X - X.mean(axis=0)).T @ (y - y.mean()), -560) / 1e-3
        np.testing.assert_allclose(fit.coefficients, expected, rtol=1e-12)

    def test_underdetermined_warns(self, rng):
        X = rng.standard_normal((3, 5))
        with pytest.warns(UserWarning, match="unstable"):
            fit_ridge(matrix(X), np.zeros(3), lam=1.0)


class TestFitLogistic:
    def test_constant_zero_targets(self, rng):
        X = rng.standard_normal((100, 2))
        model = fit_logistic(matrix(X), np.zeros(100))
        assert model.intercept < -4.0
        assert np.max(np.abs(model.coefficients)) < 0.2
        assert np.all(model.predict(X) < 0.01)

    def test_separable_direction(self):
        x = np.concatenate([np.linspace(-3, -1, 25), np.linspace(1, 3, 25)])
        y = (x > 0).astype(float)
        model = fit_logistic(matrix(x[:, None]), y)
        assert model.coefficients[0] > 0
        acc = np.mean((model.predict(x[:, None]) >= 0.5) == y)
        assert acc == 1.0
        # Optimum at infinity, but the gradient falls below the tolerance
        # on the way there.
        assert model.iterations <= MAX_ITER

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
        model = fit_logistic(matrix(X), y)
        w = logistic_newton_oracle(X, y)
        assert model.converged
        assert model.intercept == pytest.approx(w[0], abs=1e-5)
        np.testing.assert_allclose(model.coefficients, w[1:], atol=1e-5)

    def test_loss_non_increasing(self, rng):
        X = rng.standard_normal((120, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        y = (X @ np.array([1.0, -1.0, 0.5]) + 0.3 * rng.standard_normal(120) > 0).astype(
            float
        )
        model = fit_logistic(matrix(X), y)
        losses = np.array(model.losses)
        assert np.all(np.diff(losses) <= 1e-12)

    @pytest.mark.parametrize("extra", ["constant", "duplicate"])
    def test_constant_or_duplicated_column_converges(self, rng, extra):
        X = rng.standard_normal((400, 3))
        y = (X @ np.array([1.0, -1.0, 0.5]) + 0.5 * rng.standard_normal(400) > 0)
        y = y.astype(float)
        column = np.full(400, 7.0) if extra == "constant" else X[:, 1]
        wider = np.column_stack([X, column])
        model = fit_logistic(matrix(wider), y)
        reference = fit_logistic(matrix(X), y)
        assert model.converged
        accuracy = np.mean((model.predict(wider) >= 0.5) == y)
        assert accuracy == pytest.approx(
            np.mean((reference.predict(X) >= 0.5) == y), abs=0.01
        )

    @pytest.mark.parametrize(
        "scale, shift", [(30000.0, 50000.0), (1e-170, 0.0), (1e200, 0.0)]
    )
    def test_coefficient_follows_column_scale(self, rng, scale, shift):
        X = rng.standard_normal((300, 3))
        y = (X @ np.array([1.0, 0.5, -1.0]) + rng.standard_normal(300) > 0).astype(float)
        scaled = X.copy()
        scaled[:, 1] = shift + scale * X[:, 1]
        model = fit_logistic(matrix(X), y)
        rescaled = fit_logistic(matrix(scaled), y)
        np.testing.assert_allclose(
            rescaled.coefficients * np.array([1.0, scale, 1.0]),
            model.coefficients,
            rtol=1e-9,
        )

    def test_predict_proba_saturates_without_warning(self, rng):
        model = fit_logistic(matrix(rng.standard_normal((50, 1))), np.ones(50))
        z = np.array([[-800.0], [800.0]])
        proba = replace(model, coefficients=np.ones(1), intercept=0.0).predict(z)
        np.testing.assert_array_equal(proba, [0.0, 1.0])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_design_raises_by_name(self, rng):
        data = rng.standard_normal((80, 2))
        data[:, 1] = 1e308 * (1.0 + 0.5 * np.tanh(data[:, 1]))  # the sum overflows
        with pytest.raises(NonFiniteFitError, match="logistic design overflows"):
            fit_logistic(matrix(data), (data[:, 0] > 0).astype(float))

    @pytest.mark.filterwarnings("error")
    def test_subnormal_column_raises_by_name(self, rng):
        # The fit runs on z-scores, but a column at 1e-320 has a subnormal
        # sd, and its coefficient overflows once mapped back to native scale.
        data = rng.standard_normal((2000, 2))
        y = (data[:, 0] + data[:, 1] > 0).astype(float)
        data[:, 1] *= 1e-320
        with pytest.raises(NonFiniteFitError, match="coefficients overflow"):
            fit_logistic(matrix(data), y)

    def test_rejects_non_binary_targets(self, rng):
        X = rng.standard_normal((10, 1))
        with pytest.raises(ValueError, match="0/1"):
            fit_logistic(matrix(X), np.linspace(0, 1, 10))


class TestSurrogateHandle:
    def test_wraps_as_concurrent_score_handle(self, rng):
        X = rng.standard_normal((30, 2))
        fit = train_surrogate(matrix(X), X @ np.array([1.0, 2.0]), lam=1e-6)
        np.testing.assert_allclose(
            fit.handle.predict_batch(matrix(X)), fit.model.predict(X), rtol=1e-15
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
        fit = train_surrogate(matrix(X), y, "logistic", seed=4)
        assert fit.fidelity.kind == "agreement"
        assert fit.fidelity.value >= 0.9

    def test_logistic_ranking_ignores_column_scales(self):
        # Native scales of an income-like column and a small-range column
        # must not change the stand-in's fit or the audit's ranking.
        rng = np.random.default_rng(0)
        data = rng.standard_normal((20_000, 4))
        noise = 0.5 * rng.standard_normal(20_000)
        y = (data @ np.array([2.0, 1.0, -1.0, 0.0]) + noise > 0).astype(float)
        scaled = data * np.array([1.0, 30000.0, 1.0, 10.0]) + [0.0, 50000.0, 0.0, 40.0]
        orders = []
        for design in (data, scaled):
            fit = train_surrogate(matrix(design), y, "logistic", seed=0)
            assert fit.fidelity.value >= 0.9
            report = rank_all(fit.handle, matrix(design), AuditConfig())
            orders.append([e.name for e in report.entries])
        assert orders[0] == orders[1]
        assert orders[0][0] == "x1"

    @pytest.mark.parametrize(
        "y, pred, expected",
        [
            ([1.0, 2.0, 1e200], [1.0, 2.0, 3.0], -0.5),
            ([1e300, -1e300, 0.5], [-1e300, 1e300, 0.0], -3.0),
            ([0.0, 1e10, 2e10], [0.0, 1e10, 1e155], -5e289),  # 1 - 1e310 / 2e20
            ([1.0, 2.0, 3.0], [1.0, 2.0, 1e300], -np.inf),
        ],
    )
    def test_r_squared_whose_sums_overflow(self, y, pred, expected):
        # Closed forms; the last r² is beyond float64, so it reads -inf
        # rather than a finite value that SS_tot underflowing would give.
        assert _r_squared(np.array(y), np.array(pred)) == pytest.approx(expected, rel=1e-12)

    def test_unknown_family(self, rng):
        X = matrix(rng.standard_normal((20, 1)))
        with pytest.raises(ValueError, match="family"):
            train_surrogate(X, np.zeros(20), "forest")
