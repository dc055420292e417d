import os
import shlex
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oproj.ranking as ranking
from conftest import FIXTURES, fixture_command, needs_openblas, needs_proc, process_gone
from oproj.adapters import InProcessModel, SubprocessModel
from oproj.dataio import standardize
from oproj.errors import (
    AdapterError,
    AuditFailedError,
    DegenerateFeatureError,
    DimensionError,
    MalformedOutputError,
    NonFiniteFitError,
)
from oproj.linalg import FeatureMatrix, blas_threads
from oproj.ranking import (
    AuditConfig,
    FeatureResult,
    PerformanceMetric,
    _normalize_entries,
    compute_metric,
    rank_all,
)
from oproj.surrogate import fit_ridge, train_surrogate
from oproj.transforms import TransformSet


def matrix(data, names=None):
    data = np.asarray(data, dtype=float)
    names = names or [f"x{j + 1}" for j in range(data.shape[1])]
    return FeatureMatrix.from_arrays(names, data)


def orthonormal_design(n, k, seed):
    """Columns exactly standardized (mean 0, population sd 1) and exactly
    mutually orthogonal: center, QR, rescale."""
    g = np.random.default_rng(seed).standard_normal((n, k))
    g -= g.mean(axis=0)
    q, _ = np.linalg.qr(g)
    return q * np.sqrt(n)


class CountingModel(InProcessModel):
    def __init__(self, fn, **kwargs):
        super().__init__(fn, **kwargs)
        self.calls = 0

    def _start(self, names, rows):
        self.calls += 1
        return super()._start(names, rows)


class TestComputeMetric:
    def test_mse_zero_on_match(self):
        assert compute_metric([1, 2], [1, 2], PerformanceMetric("mse")) == 0.0

    def test_mse_direct_arithmetic(self):
        assert compute_metric([3, 5], [1, 1], PerformanceMetric("mse")) == 10.0

    def test_accuracy_direct_count(self):
        metric = PerformanceMetric("accuracy", threshold=0.5)
        assert compute_metric([0.9, 0.1, 0.8], [1, 0, 0], metric) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            compute_metric([1.0], [1.0, 2.0], PerformanceMetric("mse"))

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            compute_metric([], [], PerformanceMetric("mse"))

    def test_metric_validation(self):
        with pytest.raises(ValueError):
            PerformanceMetric("rmse")
        with pytest.raises(ValueError):
            PerformanceMetric("accuracy", threshold=1.5)


class TestBaselinePerformance:
    def test_self_consistency_mse(self, rng):
        m = matrix(rng.standard_normal((20, 2)))
        h = InProcessModel(lambda a: a[:, 0] - a[:, 1])
        y = h.predict_batch(m)
        assert compute_metric(h.predict_batch(m), y, PerformanceMetric("mse")) == 0.0

    def test_self_consistency_accuracy(self, rng):
        m = matrix(rng.standard_normal((20, 2)))
        h = InProcessModel(lambda a: (a[:, 0] > 0).astype(float))
        y = h.predict_batch(m)
        assert compute_metric(h.predict_batch(m), y, PerformanceMetric("accuracy")) == 1.0

    def test_exact_fit_baseline_equals_noise_variance(self):
        # Oracle: the residual variance computed from the actual noise draw.
        rng = np.random.default_rng(21)
        n = 5000
        x = rng.standard_normal(n)
        noise = 0.3 * rng.standard_normal(n)
        y = 4.0 * x + noise
        m = matrix(x[:, None])
        fit = fit_ridge(m, y, lam=0.0)
        h = InProcessModel(fit.predict)
        b = compute_metric(h.predict_batch(m), y, PerformanceMetric("mse"))
        noise_var = float(np.mean((noise - noise.mean()) ** 2))
        assert b == pytest.approx(noise_var, rel=0.05)


class TestAuditFeature:
    """One feature's entry in rank_all's report. Scored against the model's
    own output on the original matrix, the baseline is exactly 0.0, so an
    entry's raw delta is the MSE of that feature's query."""

    def test_orthonormal_design_closed_form(self):
        # Closed form: removing an orthonormal column's contribution raises
        # the MSE by its squared coefficient.
        data = orthonormal_design(500, 2, seed=1)
        m = matrix(data)
        beta = np.array([4.0, 2.0])
        h = InProcessModel(lambda a: a @ beta)
        y = h.predict_batch(m)
        cfg = AuditConfig(transforms=TransformSet.none())
        out = rank_all(h, m, cfg, y=y).entry("x2")
        assert isinstance(out, FeatureResult)
        assert out.raw_delta == pytest.approx(4.0, rel=1e-9)

    def test_orthonormal_design_refit_oracle(self):
        # Brute-force check: refit without x2 and compare MSE increases.
        data = orthonormal_design(500, 2, seed=2)
        m = matrix(data)
        beta = np.array([4.0, 2.0])
        y = data @ beta
        h = InProcessModel(lambda a: a @ beta)
        cfg = AuditConfig(transforms=TransformSet.none())
        report = rank_all(h, m, cfg, y=y)
        assert report.baseline == 0.0
        reduced = m.drop("x2")
        refit = fit_ridge(reduced, y, lam=0.0)
        refit_mse = float(np.mean((refit.predict(reduced) - y) ** 2))
        assert report.entry("x2").raw_delta == pytest.approx(refit_mse, rel=1e-6)

    def test_single_feature_boundary(self, rng):
        x = rng.standard_normal(300)
        m = matrix(x[:, None])
        h = InProcessModel(lambda a: 3.0 * a[:, 0])
        y = h.predict_batch(m)
        out = rank_all(h, m, AuditConfig(), y=y).entry("x1")
        # Querying on the constant mean column collapses the prediction, so
        # the delta is the model's full predictive contribution.
        expected = float(np.mean((3.0 * x - 3.0 * x.mean()) ** 2))
        assert out.raw_delta == pytest.approx(expected, rel=1e-9)

    def test_constant_feature_rejected_without_standardize(self):
        m = matrix(np.column_stack([np.full(10, 2.0), np.arange(10.0)]), ["flat", "v"])
        h = InProcessModel(lambda a: a[:, 1])
        y = h.predict_batch(m)
        cfg = AuditConfig(standardize=False)
        flat = rank_all(h, m, cfg, y=y).entry("flat")
        assert flat.raw_delta is None
        assert "'flat'" in flat.error and "constant" in flat.error

    def test_dropped_count_surfaces(self, rng):
        # x2 == x1 makes the audited feature's square collide with x1's
        # candidates only through the transforms; use an exactly dependent
        # transform instead: a symmetric column whose square is constant.
        x = np.array([-1.0, 1.0] * 20)
        other = rng.standard_normal(40)
        m = matrix(np.column_stack([x, other]))
        h = InProcessModel(lambda a: a[:, 1])
        y = h.predict_batch(m)
        cfg = AuditConfig(standardize=False, transforms=TransformSet(False, (2,), False))
        out = rank_all(h, m, cfg, y=y).entry("x1")
        # candidates: [x1, x1^2=const]; the constant square is a new
        # direction (not dropped), so removal keeps both.
        assert out.dropped_count == 0
        x3 = np.column_stack([x, x, other])  # duplicate column
        m3 = matrix(x3)
        h3 = InProcessModel(lambda a: a[:, 2])
        y3 = h3.predict_batch(m3)
        cfg3 = AuditConfig(standardize=False, transforms=TransformSet(False, (3,), False))
        out3 = rank_all(h3, m3, cfg3, y=y3).entry("x1")
        # x1^3 == x1 on a +/-1 column: dropped as rank-deficient.
        assert out3.dropped_count == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_replacement_constant_rejected(self, value):
        with pytest.raises(ValueError, match="replacement_value must be finite"):
            AuditConfig(replacement="constant", replacement_value=value)

    def test_replacement_policies(self, rng):
        data = rng.standard_normal((100, 2)) + 5.0
        m = matrix(data)
        h = InProcessModel(lambda a: a[:, 0])
        y = h.predict_batch(m)
        cfg_mean = AuditConfig(transforms=TransformSet.none(), replacement="mean")
        cfg_zero = AuditConfig(transforms=TransformSet.none(), replacement="zero")
        cfg_const = AuditConfig(
            transforms=TransformSet.none(), replacement="constant", replacement_value=5.0
        )
        d_mean, d_zero, d_const = (
            rank_all(h, m, cfg, y=y).entry("x1").raw_delta
            for cfg in (cfg_mean, cfg_zero, cfg_const)
        )
        mu = float(np.mean(data[:, 0]))
        assert d_mean == pytest.approx(float(np.mean((mu - data[:, 0]) ** 2)), rel=1e-9)
        assert d_zero == pytest.approx(float(np.mean(data[:, 0] ** 2)), rel=1e-9)
        assert d_const == pytest.approx(float(np.mean((5.0 - data[:, 0]) ** 2)), rel=1e-9)

    def test_adapter_error_carries_feature(self, rng):
        m = matrix(rng.standard_normal((30, 2)))

        def flaky(a):
            if np.ptp(a[:, 1]) == 0.0:  # x2 is the audited (constant) column
                raise AdapterError("backend exploded")
            return a[:, 0]

        h = InProcessModel(flaky)
        y = h.predict_batch(m)
        x2 = rank_all(h, m, AuditConfig(), y=y).entry("x2")
        assert x2.raw_delta is None
        assert "feature 'x2'" in x2.error and "backend exploded" in x2.error


class TestNormalization:
    def test_paper_scaling_contract(self):
        outcomes = [
            FeatureResult("a", 0.5, None, 0),
            FeatureResult("b", 0.25, None, 0),
            FeatureResult("c", 0.0, None, 0),
        ]
        entries = _normalize_entries(outcomes, {})
        assert [e.normalized for e in entries] == [100.0, 50.0, 0.0]
        assert [e.name for e in entries] == ["a", "b", "c"]

    def test_all_zero_degenerate(self):
        outcomes = [FeatureResult("a", 0.0, None, 0), FeatureResult("b", 0.0, None, 0)]
        entries = _normalize_entries(outcomes, {})
        assert [e.normalized for e in entries] == [0.0, 0.0]

    def test_ties_break_by_name(self):
        outcomes = [
            FeatureResult("zeta", 1.0, None, 0),
            FeatureResult("alpha", 1.0, None, 0),
        ]
        entries = _normalize_entries(outcomes, {})
        assert [e.name for e in entries] == ["alpha", "zeta"]
        assert [e.normalized for e in entries] == [100.0, 100.0]

    def test_errored_entries_sorted_last(self):
        outcomes = [FeatureResult("a", 1.0, None, 0)]
        entries = _normalize_entries(outcomes, {"b": "boom", "aa": "boom2"})
        assert [e.name for e in entries] == ["a", "aa", "b"]
        assert entries[1].error == "boom2"
        assert entries[1].raw_delta is None

    @settings(deadline=None, max_examples=200)
    @given(
        deltas=st.lists(
            st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_normalization_bounds_hypothesis(self, deltas):
        outcomes = [FeatureResult(f"f{i:03d}", d, None, 0) for i, d in enumerate(deltas)]
        entries = _normalize_entries(outcomes, {})
        values = [e.normalized for e in entries]
        assert all(0.0 <= v <= 100.0 for v in values)
        if max(deltas) > 0.0:
            assert values[0] == 100.0
            # argmax of normalized equals argmax of raw deltas
            assert entries[0].raw_delta == max(deltas)
        else:
            assert all(v == 0.0 for v in values)


class TestRankAll:
    def test_known_coefficient_order_with_loco_oracle(self):
        from oproj.oracle import loco_refit_importances

        rng = np.random.default_rng(8)
        n = 2000
        data = rng.standard_normal((n, 4))
        beta = np.array([4.0, 2.0, 1.0, 0.0])
        y = data @ beta + 0.1 * rng.standard_normal(n)
        m = matrix(data)
        fit = fit_ridge(m, y, lam=1e-6)
        h = InProcessModel(fit.predict)
        report = rank_all(h, m, AuditConfig())
        order = [e.name for e in report.entries]
        assert order == ["x1", "x2", "x3", "x4"]
        loco = loco_refit_importances(m, y, lam=1e-6)
        loco_order = sorted(loco, key=lambda n_: (-loco[n_], n_))
        assert loco_order == order

    def test_irrelevant_feature_stays_small(self):
        # Over 20 seeded runs the zero-coefficient feature's delta stays
        # under 5% of the largest delta.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            data = rng.standard_normal((800, 3))
            beta = np.array([3.0, 1.0, 0.0])
            fit_y = data @ beta
            m = matrix(data)
            h = InProcessModel(lambda a, b=beta: a @ b)
            report = rank_all(h, m, AuditConfig())
            max_delta = report.entries[0].raw_delta
            assert report.entry("x3").raw_delta <= 0.05 * max_delta

    def test_determinism_bit_for_bit(self, rng):
        data = rng.standard_normal((200, 3))
        m = matrix(data)
        h = InProcessModel(lambda a: a @ np.array([1.0, -2.0, 0.5]))
        cfg = AuditConfig(seed=42)
        r1 = rank_all(h, m, cfg)
        r2 = rank_all(h, m, cfg)
        assert r1 == r2

    @pytest.mark.parametrize(
        "check_repeatability, x2, queries",
        [
            (False, "normal", 5),
            (True, "normal", 6),
            (False, "constant", 4),
            (False, "cube overflows", 4),
            (False, "square's norm overflows", 5),
        ],
    )
    def test_query_count_is_k_plus_one(self, rng, check_repeatability, x2, queries):
        # The capture, repeated when asked, plus one query per feature that
        # reaches its query: a feature flagged before it (constant, or with
        # an overflowing companion) is never queried. A square whose norm
        # overflows is scaled before any norm is taken, so its feature is.
        data = rng.standard_normal((50, 4))
        if x2 == "constant":
            data[:, 1] = 5.0
        elif x2 == "cube overflows":
            data[:, 1] *= 1e120
        elif x2 == "square's norm overflows":
            data[:, 1] *= 1e100
        m = matrix(data)
        h = CountingModel(lambda a: a[:, 0])
        cfg = AuditConfig(check_repeatability=check_repeatability, standardize=False)
        rank_all(h, m, cfg)
        assert h.calls == queries

    def test_scale_invariance_of_order(self, rng):
        data = rng.standard_normal((600, 3))
        beta = np.array([2.0, 1.0, 0.25])
        y = data @ beta + 0.05 * rng.standard_normal(600)
        scaled = data.copy()
        scaled[:, 1] *= 1000.0
        m_orig, m_scaled = matrix(data), matrix(scaled)
        h_orig = InProcessModel(fit_ridge(m_orig, y, lam=1e-9).predict)
        h_scaled = InProcessModel(fit_ridge(m_scaled, y, lam=1e-9).predict)
        order_orig = [e.name for e in rank_all(h_orig, m_orig, AuditConfig()).entries]
        order_scaled = [e.name for e in rank_all(h_scaled, m_scaled, AuditConfig()).entries]
        assert order_orig == order_scaled

    def test_all_zero_deltas_constant_model(self, rng):
        m = matrix(rng.standard_normal((40, 3)))
        h = InProcessModel(lambda a: np.full(a.shape[0], 7.0))
        report = rank_all(h, m, AuditConfig())
        assert report.baseline == 0.0
        assert all(e.raw_delta == 0.0 for e in report.entries)
        assert all(e.normalized == 0.0 for e in report.entries)

    def test_partial_failure_flagged(self, rng):
        data = rng.standard_normal((60, 3))
        m = matrix(data)

        def flaky(a):
            if np.ptp(a[:, 1]) == 0.0:  # fails only when x2 is audited
                raise AdapterError("backend exploded")
            return a @ np.array([2.0, 1.0, 0.5])

        report = rank_all(InProcessModel(flaky), m, AuditConfig())
        errored = report.entry("x2")
        assert errored.error is not None and "exploded" in errored.error
        assert errored.raw_delta is None
        scored = [e for e in report.entries if e.error is None]
        assert {e.name for e in scored} == {"x1", "x3"}
        assert scored[0].normalized == 100.0

    def test_callable_exception_flags_only_its_feature(self, rng):
        m = matrix(rng.standard_normal((200, 3)))
        w = np.array([2.0, 1.0, 0.5])
        calls = 0

        def third_call_fails(a):
            nonlocal calls
            calls += 1
            if calls == 3:  # the capture, x1's query, then x2's
                raise ValueError("bad batch")
            return a @ w

        clean = rank_all(InProcessModel(lambda a: a @ w), m, AuditConfig())
        report = rank_all(InProcessModel(third_call_fails), m, AuditConfig())
        x2 = report.entry("x2")
        assert x2.raw_delta is None
        assert "feature 'x2'" in x2.error and "ValueError: bad batch" in x2.error
        for name in ("x1", "x3"):
            assert report.entry(name).raw_delta.hex() == clean.entry(name).raw_delta.hex()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "reply",
        [lambda n: np.array(["x"] * n), lambda n: [1 + 2j] * n, lambda n: np.full(n, 1 + 0j)],
        ids=["text", "complex-list", "complex-array"],
    )
    def test_non_numeric_reply_flags_only_its_feature(self, rng, reply):
        m = matrix(rng.standard_normal((200, 3)))
        w = np.array([2.0, 1.0, 0.5])
        calls = 0

        def third_reply_bad(a):
            nonlocal calls
            calls += 1
            return reply(len(a)) if calls == 3 else a @ w  # x2's query

        clean = rank_all(InProcessModel(lambda a: a @ w), m, AuditConfig())
        report = rank_all(InProcessModel(third_reply_bad), m, AuditConfig())
        x2 = report.entry("x2")
        assert x2.raw_delta is None
        assert "feature 'x2'" in x2.error and "not numbers" in x2.error
        for name in ("x1", "x3"):
            assert report.entry(name).raw_delta.hex() == clean.entry(name).raw_delta.hex()
        with pytest.raises(MalformedOutputError, match="not numbers"):
            rank_all(InProcessModel(lambda a: reply(len(a))), m, AuditConfig())

    @pytest.mark.parametrize("metric", ["mse", "accuracy"])
    def test_non_finite_target_is_refused_before_any_query(self, rng, metric):
        m = matrix(rng.standard_normal((20, 2)))
        h = CountingModel(lambda a: a[:, 0])
        y = np.zeros(20)
        y[[7, 12]] = [np.nan, np.inf]
        cfg = AuditConfig(metric=PerformanceMetric(metric))
        with pytest.raises(ValueError, match="target is not finite at row 7"):
            rank_all(h, m, cfg, y=y)
        with pytest.raises(DimensionError, match="target length 19"):
            rank_all(h, m, cfg, y=np.zeros(19))
        assert h.calls == 0

    def test_callable_exception_at_capture_ends_the_audit(self, rng):
        m = matrix(rng.standard_normal((20, 2)))

        def broken(a):
            raise ValueError("bad batch")

        with pytest.raises(AdapterError, match="ValueError: bad batch"):
            rank_all(InProcessModel(broken), m, AuditConfig())

    def test_non_utf8_reply_flags_only_its_feature(self, rng):
        command = (*fixture_command("misbehaving_model.py").split(), "binary", "x2")
        h = SubprocessModel(command)
        report = rank_all(h, matrix(rng.standard_normal((20, 3))), AuditConfig())
        error = report.entry("x2").error
        assert error is not None and "row 0" in error and "unparseable" in error
        assert {e.name for e in report.entries if e.error is None} == {"x1", "x3"}

    @pytest.mark.parametrize("standardize", [True, False])
    def test_constant_column_flagged_and_rest_audited(self, rng, standardize):
        data = rng.standard_normal((80, 3))
        data[:, 1] = 5.0
        h = InProcessModel(lambda a: a @ np.array([2.0, 1.0, 0.5]))
        report = rank_all(h, matrix(data), AuditConfig(standardize=standardize))
        flat = report.entry("x2")
        assert flat.raw_delta is None
        assert "'x2'" in flat.error and "constant" in flat.error
        scored = [e for e in report.entries if e.error is None]
        assert {e.name for e in scored} == {"x1", "x3"}
        assert scored[0].normalized == 100.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_companion_flagged_and_rest_audited(self, rng):
        data = rng.standard_normal((80, 3))
        data[:, 1] *= 1e120  # its cube overflows float64
        h = InProcessModel(lambda a: a @ np.array([2.0, 1.0, 0.5]))
        report = rank_all(h, matrix(data), AuditConfig(standardize=False))
        big = report.entry("x2")
        assert big.raw_delta is None
        assert "'x2'" in big.error and "'pow3'" in big.error and "non-finite" in big.error
        scored = [e for e in report.entries if e.error is None]
        assert {e.name for e in scored} == {"x1", "x3"}
        assert scored[0].normalized == 100.0

    @pytest.mark.filterwarnings("error")
    def test_removal_subspace_whose_norms_overflow_is_audited(self, rng):
        data = rng.standard_normal((80, 3))
        data[:, 1] *= 1e100  # its square is finite, the square's norm is not
        h = InProcessModel(lambda a: a @ np.array([2.0, 1.0, 0.5]))
        m = matrix(data, ["a", "big", "c"])
        report = rank_all(h, m, AuditConfig(standardize=False))
        assert all(e.error is None for e in report.entries)
        big = report.entry("big")
        assert np.isfinite(big.raw_delta) and big.raw_delta > 0.0
        assert report.entries[0].normalized == 100.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("transforms", [TransformSet(), TransformSet.none()])
    def test_column_whose_squares_overflow_is_standardized_and_audited(
        self, rng, transforms
    ):
        data = rng.standard_normal((80, 3))
        data[:, 1] = data[:, 1] * 1e154 + 1e155  # its sd overflows float64
        queries = []

        def model(a):
            queries.append(a.copy())
            return a @ np.array([2.0, 1e-155, 0.5])

        m = matrix(data, ["a", "big", "c"])
        report = rank_all(InProcessModel(model), m, AuditConfig(transforms=transforms))
        assert all(e.error is None for e in report.entries)
        assert report.entry("big").raw_delta > 0.0
        assert report.entries[0].normalized == 100.0
        assert len(queries) == 4
        assert all(np.isfinite(q).all() for q in queries)

    @settings(deadline=None, max_examples=160)
    @given(
        exponent=st.integers(-1000, 1000),
        standardize=st.booleans(),
        transforms=st.sampled_from([TransformSet(), TransformSet.none()]),
        surrogate=st.booleans(),
    )
    def test_column_at_any_power_of_two_scale_hypothesis(
        self, exponent, standardize, transforms, surrogate
    ):
        # Column b times 2**exponent, audited directly or through a ridge
        # stand-in fitted to it: the audit either reports it, or flags it by
        # name, and then only because its companions overflow. A ridge fit
        # may refuse the data instead.
        data = np.random.default_rng(7).standard_normal((60, 3))
        data[:, 1] = np.ldexp(data[:, 1], exponent)
        X = matrix(data, ["a", "b", "c"])

        def predict(a):
            return a[:, 0] + 2.0 * a[:, 2]

        if surrogate:
            try:
                predict = train_surrogate(X, predict(data), "ridge").model.predict
            except NonFiniteFitError:
                return
        queries = []

        def model(a):
            queries.append(a.copy())
            return predict(a)

        cfg = AuditConfig(transforms=transforms, standardize=standardize)
        report = rank_all(InProcessModel(model), X, cfg)
        flagged = [e for e in report.entries if e.error is not None]
        assert [e.name for e in flagged] in ([], ["b"])
        assert all("'b'" in e.error for e in flagged)
        if standardize:
            assert not flagged
        scored = [e for e in report.entries if e.error is None]
        assert all(np.isfinite([e.raw_delta, e.normalized]).all() for e in scored)
        assert scored[0].normalized == 100.0
        assert all(np.isfinite(q).all() for q in queries)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_metric_never_reaches_the_report(self, rng):
        # (pred - y)**2 overflows for every audit of this matrix, so no
        # delta is finite: either the audit fails by name, or whatever
        # report it gives holds no NaN and tops out at exactly 100.
        data = rng.standard_normal((80, 3))
        data[:, 1] *= 1e160
        h = InProcessModel(lambda a: a @ np.array([2.0, 1.0, 0.5]))
        m = matrix(data, ["a", "big", "c"])
        try:
            report = rank_all(h, m, AuditConfig(standardize=False))
        except AuditFailedError as exc:
            assert "overflows" in str(exc)
            return
        scored = [e for e in report.entries if e.error is None]
        assert all(np.isfinite([e.raw_delta, e.normalized]).all() for e in scored)
        assert scored[0].normalized == 100.0

    def test_overflowing_metric_flags_the_feature(self):
        out = np.array([1.0, -1.0, 1e160])

        def model(a):  # the reply overflows once x1 is replaced
            return out if np.ptp(a[:, 0]) == 0.0 else np.zeros(3)

        m = matrix([[1.0, 0.0], [2.0, 1.0], [4.0, 0.0]])
        report = rank_all(InProcessModel(model), m, AuditConfig(), y=np.zeros(3))
        x1 = report.entry("x1")
        assert x1.raw_delta is None and "feature 'x1'" in x1.error
        assert "overflows" in x1.error
        assert report.entry("x2").normalized == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "case", ["constant", "overflowing companion", "overflowing metric", "failing model"]
    )
    def test_flagged_error_starts_with_the_feature_name(self, rng, case):
        # x2 is flagged, each time at a different step of its audit.
        data = rng.standard_normal((40, 3))
        cfg, y = AuditConfig(), None
        model = InProcessModel(lambda a: a @ np.array([2.0, 1.0, 0.5]))
        if case == "constant":
            data[:, 1] = 5.0
        elif case == "overflowing companion":
            data[:, 1] *= 1e120  # its cube overflows float64
            cfg = AuditConfig(standardize=False)
        elif case == "overflowing metric":
            y = np.zeros(40)
            model = InProcessModel(
                lambda a: np.full(40, 1e160) if np.ptp(a[:, 1]) == 0.0 else a[:, 0]
            )
        else:
            command = (*fixture_command("misbehaving_model.py").split(), "constant", "x2")
            model = SubprocessModel(command)
        report = rank_all(model, matrix(data), cfg, y=y)
        assert report.entry("x2").error.startswith("feature 'x2': ")
        assert [e.name for e in report.entries if e.error is not None] == ["x2"]

    def test_overflowing_baseline_fails_the_audit(self, rng):
        m = matrix(rng.standard_normal((20, 2)))
        h = InProcessModel(lambda a: a[:, 0])
        with pytest.raises(AuditFailedError, match="baseline"):
            rank_all(h, m, AuditConfig(), y=np.full(20, 1e200))

    def test_all_features_failing_raises(self, rng):
        data = rng.standard_normal((30, 2))
        m = matrix(data)

        def broken(a):
            if np.ptp(a[:, 0]) == 0.0 or np.ptp(a[:, 1]) == 0.0:
                raise AdapterError("nope")
            return a[:, 0]

        with pytest.raises(AuditFailedError):
            rank_all(InProcessModel(broken), m, AuditConfig())

    def test_ground_truth_target_baseline(self, rng):
        data = rng.standard_normal((300, 2))
        y = data @ np.array([1.0, 0.0]) + 0.2 * rng.standard_normal(300)
        m = matrix(data)
        fit = fit_ridge(m, y, lam=1e-6)
        h = InProcessModel(fit.predict)
        report = rank_all(h, m, AuditConfig(), y=y)
        assert report.baseline > 0.0  # imperfect fit against real labels
        assert report.entries[0].name == "x1"

    def test_accuracy_metric_path(self, rng):
        data = rng.standard_normal((400, 2))
        m = matrix(data)
        h = InProcessModel(lambda a: (a[:, 0] > 0).astype(float))
        cfg = AuditConfig(metric=PerformanceMetric("accuracy"))
        report = rank_all(h, m, cfg)
        assert report.baseline == 1.0
        assert report.entries[0].name == "x1"
        assert report.config.metric.kind == "accuracy"

    def test_repeatability_warning_propagates(self, rng):
        data = rng.standard_normal((30, 2))
        m = matrix(data)
        jitter = np.random.default_rng(1)

        def noisy(a):
            return a[:, 0] + 1e-6 * jitter.standard_normal(a.shape[0])

        cfg = AuditConfig(check_repeatability=True)
        report = rank_all(InProcessModel(noisy), m, cfg)
        assert any("not repeatable" in w for w in report.warnings)

    def test_collinear_audit_exceeds_refit_oracle(self):
        # With x2 carrying 0.9 correlation to x1 but a zero coefficient, the
        # projection audit charges x2 for the shared variance it strips from
        # x1; a leave-one-covariate-out refit does not, because x1 stays in
        # the refit. Documents the method's collinearity behavior.
        from oproj.dataio import SyntheticSpec, generate_synthetic
        from oproj.oracle import loco_refit_importances

        corr = np.eye(2)
        corr[0, 1] = corr[1, 0] = 0.9
        spec = SyntheticSpec(
            n=2000, coefficients=(1.0, 0.0), noise_sd=0.05, correlation=corr, seed=13
        )
        X, y, _ = generate_synthetic(spec)
        fit = fit_ridge(X, y, lam=1e-6)
        report = rank_all(InProcessModel(fit.predict), X, AuditConfig())
        loco = loco_refit_importances(X, y, lam=1e-6)
        audit_x2 = report.entry("x2").raw_delta
        assert audit_x2 > loco["x2"]
        assert audit_x2 > 0.5  # the shared-variance charge is substantial
        assert abs(loco["x2"]) < 0.05  # the refit barely notices x2

    def test_transforms_disabled_matches_pure_single_vector_audit(self, rng):
        # Reference implementation: raw-formula projection per column,
        # written out inline, sharing only standardization and the metric.
        data = rng.standard_normal((80, 4))
        m = matrix(data)
        beta = np.array([3.0, -1.0, 0.5, 0.0])
        h = InProcessModel(lambda a: a @ beta)
        cfg = AuditConfig(transforms=TransformSet.none())
        report = rank_all(h, m, cfg)

        from oproj.ranking import compute_metric as metric_fn

        captured = h.predict_batch(m)
        baseline = metric_fn(captured, captured, cfg.metric)
        X_std, offset, scale = standardize(m)
        raw_deltas = {}
        for j, name in enumerate(m.names):
            u = X_std.data[:, j]
            cols = []
            for i in range(m.k):
                if i == j:
                    cols.append(np.full(m.n, float(np.mean(m.data[:, i]))))
                else:
                    v = X_std.data[:, i]
                    coef = float(np.dot(u, v)) / float(np.dot(u, u))
                    w = v - coef * u
                    cols.append(w * scale[i] + offset[i])
            pred = h.predict_batch(matrix(np.column_stack(cols), list(m.names)))
            raw_deltas[name] = abs(baseline - metric_fn(pred, captured, cfg.metric))

        for e in report.entries:
            assert e.raw_delta == raw_deltas[e.name]  # bitwise equality

    @pytest.mark.parametrize(
        "transforms, bound",
        # Measured: 2.85 and 2.38; 2.97 for the default before removal
        # bases were built without transient copies, and 3.73 and 3.09 when
        # every query was copied once more for the model.
        [(TransformSet(), 3.4), (TransformSet.none(), 2.75)],
        ids=["default", "none"],
    )
    def test_peak_memory_in_n_by_k_arrays(self, transforms, bound):
        # tracemalloc sees numpy's buffers, on the basis worker too. The
        # standardized copy and one query are the audit's own n x k arrays.
        n, k = 5000, 40
        m = matrix(np.random.default_rng(7).standard_normal((n, k)))
        w = np.arange(k, 0, -1, dtype=np.float64)
        tracemalloc.start()
        try:
            rank_all(InProcessModel(lambda a: a @ w), m, AuditConfig(transforms=transforms))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * k * 8) < bound

    def test_basis_build_peak_in_candidate_arrays(self):
        # One removal basis holds the c candidates, which Gram-Schmidt
        # overwrites in place, and the basis: 2c n-vectors. Checking the
        # basis through its Gram matrix keeps the peak under one n-vector
        # more. Measured: 10.2 n-vectors, 15.2 with a work copy of the
        # candidates, and 20.1 when they were stacked from a list.
        n, c = 5000, 5
        m = matrix(np.random.default_rng(7).standard_normal((n, 8)))
        audit, offset, scale = standardize(m)
        tracemalloc.start()
        try:
            project, _ = ranking._removal(audit, "x3", AuditConfig(), scale, offset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        basis = project.args[2]
        assert basis.array.shape == (n, c)
        assert peak < (2 * c + 1) * n * 8


class TestLookahead:
    """rank_all builds feature j+1's query while the models of the queries
    in flight answer, with up to ``_model_width()`` of them in flight, then
    encodes and launches it once the oldest has settled. Its worker thread
    builds each feature's removal one feature ahead."""

    def test_failing_feature_flagged_and_rest_match_sequential(self, monkeypatch, rng):
        m = matrix(rng.standard_normal((50, 4)))
        command = (*fixture_command("misbehaving_model.py").split(), "constant", "x3")
        h = SubprocessModel(command)
        cfg = AuditConfig()

        def sequential(a):  # answers inside launch, so each query runs alone
            return h.predict_batch(FeatureMatrix(m.names, a))

        expected = rank_all(InProcessModel(sequential), m, cfg)
        assert "feature 'x3'" in expected.entry("x3").error
        for width in (1, 2):
            monkeypatch.setattr(ranking, "_model_width", lambda: width)
            report = rank_all(h, m, cfg)

            error = report.entry("x3").error
            assert error is not None and "feature 'x3'" in error and "status 1" in error
            for name in ("x1", "x2", "x4"):
                assert report.entry(name).error is None
            assert report.entries == expected.entries

    @needs_proc
    def test_exception_kills_the_model_in_flight(self, tmp_path, monkeypatch, rng):
        pidfile = tmp_path / "pids"
        fixture = str(FIXTURES / "misbehaving_model.py")
        model = shlex.join([sys.executable, fixture, "stall", "x1,x2"])
        script = f"echo $$ >> {shlex.quote(str(pidfile))}; exec {model}"
        h = SubprocessModel(("sh", "-c", script), timeout=60.0)
        build = ranking._removal

        def failing_third_build(audit, current, cfg, scale, offset):
            if current == "x3":
                # On the worker: let x1's and x2's models start before the
                # build fails.
                deadline = time.monotonic() + 10.0
                while len(pidfile.read_text().split()) < 3 and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise RuntimeError("build failed")
            return build(audit, current, cfg, scale, offset)

        monkeypatch.setattr(ranking, "_model_width", lambda: 2)
        monkeypatch.setattr(ranking, "_removal", failing_third_build)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="build failed"):
            rank_all(h, matrix(rng.standard_normal((20, 3))), AuditConfig())
        # x1's and x2's queries stall; both were in flight when x3's build
        # raised.
        assert time.monotonic() - started < 30.0
        pids = [int(p) for p in pidfile.read_text().split()]
        assert len(pids) == 3
        assert all(process_gone(pid) for pid in pids)

    def test_error_escaping_collect_still_aborts_its_query(self, monkeypatch, rng):
        # A handle whose collect does not clean up after itself: rank_all
        # aborts the query whose reply it was collecting.
        class Leaky(InProcessModel):
            def __init__(self):
                super().__init__(lambda a: a[:, 0])
                self.collects, self.aborted = 0, []

            def collect(self, running):
                self.collects += 1
                if self.collects == 2:  # x1's reply; the first is the capture
                    raise RuntimeError("collect failed")
                return super().collect(running)

            def abort(self, running):
                self.aborted.append(running)

        h = Leaky()
        monkeypatch.setattr(ranking, "_model_width", lambda: 1)
        with pytest.raises(RuntimeError, match="collect failed"):
            rank_all(h, matrix(rng.standard_normal((20, 3))), AuditConfig())
        assert len(h.aborted) == 1

    def test_timeout_flags_only_its_feature_beside_a_running_model(
        self, monkeypatch, rng
    ):
        # x1's and x2's models run side by side; x1's stalls past its
        # budget while x2's answers.
        command = (*fixture_command("misbehaving_model.py").split(), "stall", "x1")
        h = SubprocessModel(command, timeout=2.0)
        monkeypatch.setattr(ranking, "_model_width", lambda: 2)
        report = rank_all(h, matrix(rng.standard_normal((20, 3))), AuditConfig())
        error = report.entry("x1").error
        assert error is not None and "feature 'x1'" in error and "exceeded timeout" in error
        assert report.entry("x2").error is None and report.entry("x3").error is None
        assert report.entry("x2").raw_delta > 0.0

    def test_model_done_before_a_slow_build_is_scored(self, monkeypatch, rng):
        # x1's model answers at once, but x2's build outlasts the time
        # budget. x1 is collected after its deadline and must still score;
        # its reply is larger than a pipe buffer.
        command = tuple(fixture_command("linear_model.py").split())
        h = SubprocessModel(command, timeout=2.0)
        build = ranking._removal

        def slow_second_build(audit, current, cfg, scale, offset):
            project, dropped = build(audit, current, cfg, scale, offset)
            if current != "x2":
                return project, dropped

            def slow_project(query):
                time.sleep(2.5)
                project(query)

            return slow_project, dropped

        monkeypatch.setattr(ranking, "_removal", slow_second_build)
        report = rank_all(h, matrix(rng.standard_normal((4000, 3))), AuditConfig())
        assert [e.error for e in report.entries] == [None, None, None]


# One audit in a child interpreter, printing float.hex of its baseline and
# of every raw delta. The model makes no BLAS call of its own.
_HEX_AUDIT = """
import numpy as np
from oproj import AuditConfig, FeatureMatrix, InProcessModel, rank_all

a = np.random.default_rng(7).standard_normal((12000, 6))
w = np.arange(6, 0, -1, dtype=np.float64)
model = InProcessModel(lambda m: (m * w).sum(axis=1) + 0.5 * m[:, 0] ** 2)
report = rank_all(model, FeatureMatrix([f"x{j + 1}" for j in range(6)], a), AuditConfig())
print(report.baseline.hex(), *(f"{e.name}={e.raw_delta.hex()}" for e in report.entries))
"""

_HEX_SURROGATE_AUDIT = """
import numpy as np
from oproj import AuditConfig, FeatureMatrix, rank_all, train_surrogate

rng = np.random.default_rng(7)
a = rng.standard_normal((30000, 6)) * [1.0, 2.0, 0.5, 3.0, 1.0, 4.0] + [0, 1, -2, 5, 0, 3]
X = FeatureMatrix([f"x{j + 1}" for j in range(6)], a)
score = a @ np.arange(6, 0, -1, dtype=np.float64) + rng.standard_normal(30000)
for y in (score, (score > np.median(score)).astype(float)):
    fit = train_surrogate(X, y, "ridge" if y is score else "logistic")
    report = rank_all(fit.model, X, AuditConfig())
    print(*(f"{e.name}={e.raw_delta.hex()}" for e in report.entries))
"""


def _hex_reports(script: str) -> list[str]:
    """``script``'s output under OPENBLAS_NUM_THREADS 1 and 2."""
    src = str(Path(ranking.__file__).resolve().parent.parent)
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    return reports


class TestBlasThreads:
    """rank_all runs with OpenBLAS on one thread, restores the count it
    found, builds removal bases on a worker thread, one at a time, and
    calls the model only on the caller's thread."""

    def test_report_identical_across_blas_thread_counts(self):
        # 12000 rows: OpenBLAS splits its dot products and basis products
        # across threads at this size, which changed the report's bits
        # when the audit ran on however many threads it found.
        reports = _hex_reports(_HEX_AUDIT)
        assert len(reports[0].split()) == 7
        assert reports[0] == reports[1]

    def test_surrogate_report_identical_across_blas_thread_counts(self):
        # A ridge and a logistic surrogate, each audited on its linear
        # predictor. Their n x 2 removals are small products, which
        # OpenBLAS keeps on one thread at 12000 rows and splits at 30000;
        # the predictor's product with the audit matrix is one more call
        # that must run on one thread.
        reports = _hex_reports(_HEX_SURROGATE_AUDIT)
        assert len(reports[0].split()) == 12
        assert reports[0] == reports[1]

    def test_model_runs_on_the_callers_thread(self, rng):
        seen = []

        def fn(a):
            seen.append((threading.get_ident(), blas_threads()))
            return a @ np.array([2.0, 1.0, 0.5, 0.25])

        rank_all(InProcessModel(fn), matrix(rng.standard_normal((60, 4))), AuditConfig())
        assert len(seen) == 5
        assert {ident for ident, _ in seen} == {threading.get_ident()}
        if blas_threads() is not None:
            assert {count for _, count in seen} == {1}

    def test_bases_built_off_the_callers_thread_one_at_a_time(self, monkeypatch, rng):
        build = ranking._removal
        lock, running, seen = threading.Lock(), [0], []

        def tracked_build(audit, current, cfg, scale, offset):
            with lock:
                running[0] += 1
                seen.append((threading.get_ident(), running[0]))
            time.sleep(0.01)
            try:
                return build(audit, current, cfg, scale, offset)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(ranking, "_removal", tracked_build)
        m = matrix(rng.standard_normal((60, 4)))
        h = InProcessModel(lambda a: a @ np.array([2.0, 1.0, 0.5, 0.25]))
        report = rank_all(h, m, AuditConfig())
        assert [e.error for e in report.entries] == [None] * 4
        assert len(seen) == 4
        assert threading.get_ident() not in {ident for ident, _ in seen}
        assert {at_once for _, at_once in seen} == {1}

    @needs_openblas
    @pytest.mark.usefixtures("two_blas_threads")
    def test_count_restored_after_the_audit_returns_or_fails(self, rng):
        m = matrix(rng.standard_normal((60, 3)))
        h = InProcessModel(lambda a: a @ np.array([2.0, 1.0, 0.5]))
        rank_all(h, m, AuditConfig())
        assert blas_threads() == 2
        flat = matrix(np.column_stack([np.ones(60), np.full(60, 2.0)]))
        with pytest.raises(AuditFailedError):
            rank_all(InProcessModel(lambda a: a[:, 0]), flat, AuditConfig())
        assert blas_threads() == 2
        train_surrogate(m, m.data @ np.array([2.0, 1.0, 0.5]))
        assert blas_threads() == 2
