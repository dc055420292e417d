import numpy as np
import pytest

from oproj.errors import DimensionError
from oproj.linalg import FeatureMatrix
from oproj.oracle import loco_refit_importances, spearman_rank_correlation


def matrix(data, names=None):
    data = np.asarray(data, dtype=float)
    names = names or [f"x{j + 1}" for j in range(data.shape[1])]
    return FeatureMatrix.from_arrays(names, data)


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == 1.0

    def test_perfect_reversal(self):
        assert spearman_rank_correlation([1, 2, 3], [3, 2, 1]) == -1.0

    def test_matches_scipy_with_ties(self, rng):
        scipy_stats = pytest.importorskip("scipy.stats")
        for _ in range(20):
            a = rng.integers(0, 5, 15).astype(float)  # plenty of ties
            b = rng.standard_normal(15)
            ours = spearman_rank_correlation(a, b)
            ref = scipy_stats.spearmanr(a, b).statistic
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_constant_input(self):
        assert spearman_rank_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            spearman_rank_correlation([1, 2], [1, 2, 3])


class TestLocoRefit:
    def test_known_coefficients_ordered(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((1000, 3))
        y = data @ np.array([3.0, 1.0, 0.0]) + 0.1 * rng.standard_normal(1000)
        imp = loco_refit_importances(matrix(data), y, lam=1e-6)
        assert imp["x1"] > imp["x2"] > imp["x3"]
        # Orthogonal-ish design: importances track squared coefficients.
        assert imp["x1"] == pytest.approx(9.0, rel=0.15)
        assert imp["x2"] == pytest.approx(1.0, rel=0.15)
        assert abs(imp["x3"]) < 0.05

    def test_single_feature_vs_intercept(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(200)
        y = 2.0 * x
        imp = loco_refit_importances(matrix(x[:, None]), y, lam=1e-9)
        # Dropping the only feature leaves the intercept-only model.
        assert imp["x1"] == pytest.approx(4.0, rel=0.2)
