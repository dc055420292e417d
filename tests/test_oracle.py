import itertools

import numpy as np
import pytest

from oproj.adapters import InProcessModel
from oproj.dataio import standardize
from oproj.errors import DimensionError
from oproj.linalg import FeatureMatrix
from oproj.oracle import loco_refit_importances, spearman_rank_correlation
from oproj.ranking import AuditConfig, rank_all
from oproj.transforms import TransformSet, build_removal_candidates


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


# Every transform set the closed form covers: none, the default, and one
# whose candidates span powers up to 5.
TRANSFORM_SETS = {
    "none": TransformSet.none(),
    "default": TransformSet(),
    "pow2-5": TransformSet(True, (2, 3, 4, 5), True),
}


def linear_audit(X, w, cfg, y=None):
    return rank_all(InProcessModel(lambda rows: rows @ w), X, cfg, y=y)


def closed_form_deltas(X, w, cfg, y=None):
    """Raw deltas of ``linear_audit``, from the closed form.

    Query j moves every prediction of the model x @ w by
    d_j = -P_j u_j + w_j (c_j - x_j): P_j projects onto the span of j's
    removal candidates, u_j = sum over i != j of w_i s_i z_i with z the
    audit space and s its scales, and c_j is the replacement value.
    """
    pred = X.data @ w
    target = pred if y is None else y
    if cfg.standardize:
        audit, _offset, scale = standardize(X)
    else:
        audit, scale = X, np.ones(X.k)
    baseline = np.mean((pred - target) ** 2)
    deltas = {}
    for j, name in enumerate(X.names):
        Q, _ = np.linalg.qr(build_removal_candidates(audit, name, cfg.transforms).T)
        weights = w * scale
        weights[j] = 0.0
        u = audit.data @ weights
        c = np.mean(X.data[:, j]) if cfg.replacement == "mean" else 0.0
        d = -(Q @ (Q.T @ u)) + w[j] * (c - X.data[:, j])
        deltas[name] = abs(np.mean((pred + d - target) ** 2) - baseline)
    return deltas


class TestClosedFormLinearAudit:
    """rank_all on an in-process linear model at 5001 x 12, five row blocks
    of the query kernel, against the closed form and two relations that
    need no oracle."""

    N, K = 5001, 12

    @pytest.fixture(scope="class")
    def problem(self):
        """Columns of sd 0.5 to 2 and mean -1 to 1; weights of magnitude 1
        to 2, so every delta is O(1); a recorded target with unit noise."""
        rng = np.random.default_rng(14)
        data = rng.standard_normal((self.N, self.K)) * rng.uniform(0.5, 2.0, self.K)
        data += rng.uniform(-1.0, 1.0, self.K)
        w = rng.uniform(1.0, 2.0, self.K) * rng.choice([-1.0, 1.0], self.K)
        y = data @ w + rng.standard_normal(self.N)
        X = FeatureMatrix.from_arrays([f"x{j}" for j in range(self.K)], data)
        return X, w, y

    @pytest.mark.parametrize("transforms", TRANSFORM_SETS)
    @pytest.mark.parametrize("standardized", [True, False])
    def test_deltas_match_the_closed_form(self, problem, transforms, standardized):
        X, w, recorded = problem
        for replacement, y in itertools.product(["mean", "zero"], [None, recorded]):
            cfg = AuditConfig(
                transforms=TRANSFORM_SETS[transforms],
                replacement=replacement,
                standardize=standardized,
            )
            report = linear_audit(X, w, cfg, y)
            expected = closed_form_deltas(X, w, cfg, y)
            assert all(e.error is None for e in report.entries)
            for e in report.entries:
                assert e.raw_delta == pytest.approx(expected[e.name], rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "transforms, standardized",
        # Unstandardized log and exp companions do not commute with scaling.
        [("none", True), ("default", True), ("pow2-5", True), ("none", False)],
    )
    def test_power_of_two_column_scales_keep_every_bit(self, problem, transforms, standardized):
        # Columns times 2**7 and 2**-5 under weights times 2**-7 and 2**5:
        # every product the model forms, and every step of the audit, is
        # the same up to an exact power of two.
        X, w, recorded = problem
        e = np.where(np.arange(self.K) % 2 == 0, 7, -5)
        scaled = FeatureMatrix.from_arrays(X.names, np.ldexp(X.data, e))
        cfg = AuditConfig(transforms=TRANSFORM_SETS[transforms], standardize=standardized)
        for y in (None, recorded):
            assert linear_audit(scaled, np.ldexp(w, -e), cfg, y) == linear_audit(X, w, cfg, y)

    @pytest.mark.parametrize("transforms", ["none", "default"])
    def test_permuted_rows_and_columns_give_the_same_deltas(self, problem, transforms):
        # Rows are permuted too, so that each lands in another row block.
        X, w, _ = problem
        rng = np.random.default_rng(15)
        rows, cols = rng.permutation(self.N), rng.permutation(self.K)
        permuted = FeatureMatrix.from_arrays(
            [X.names[c] for c in cols], X.data[np.ix_(rows, cols)]
        )
        cfg = AuditConfig(transforms=TRANSFORM_SETS[transforms])
        report = linear_audit(X, w, cfg)
        for e in linear_audit(permuted, w[cols], cfg).entries:
            assert e.raw_delta == pytest.approx(report.entry(e.name).raw_delta, rel=1e-12)
