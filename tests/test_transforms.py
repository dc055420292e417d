import math

import numpy as np
import pytest

from oproj.errors import DegenerateFeatureError, DegenerateSubspaceError, FeatureLookupError
from oproj.linalg import FeatureMatrix, orthonormalize
from oproj.transforms import EXP_CLIP, TransformSet, build_removal_candidates


def cands(values, ts, name="x"):
    values = np.asarray(values, dtype=float)[:, None]
    return build_removal_candidates(FeatureMatrix.from_arrays([name], values), name, ts)


class TestTransformSet:
    def test_defaults(self):
        ts = TransformSet()
        assert ts.enable_log and ts.enable_exp
        assert ts.poly_degrees == (2, 3)
        assert EXP_CLIP == 20.0
        assert len(cands([0.0, 1.0, 2.0], ts)) == 1 + 4

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError, match="degrees"):
            TransformSet(poly_degrees=(1,))

    def test_degrees_sorted_and_deduped(self):
        ts = TransformSet(poly_degrees=(3, 2, 3))
        assert ts.poly_degrees == (2, 3)

    def test_none_is_empty(self):
        ts = TransformSet.none()
        np.testing.assert_array_equal(cands([0.0, 1.0, 2.0], ts), [[0.0, 1.0, 2.0]])


class TestExpandFeature:
    """The companions: every removal candidate after the feature itself."""

    def test_square_only(self):
        out = cands([1, 2, 3], TransformSet(False, (2,), False))
        np.testing.assert_array_equal(out, [[1, 2, 3], [1, 4, 9]])

    def test_log_shifted(self):
        out = cands([0, 1], TransformSet(True, (), False))
        assert len(out) == 2
        np.testing.assert_allclose(out[1], [math.log(1), math.log(2)], rtol=1e-15)

    def test_exp_matches_scalar_oracle(self):
        # Oracle: per-element math.exp on the standardized values.
        vals = np.array([-1.0, 0.0, 1.0])
        std = (vals - vals.mean()) / vals.std()
        out = cands(std, TransformSet(False, (), True))
        assert len(out) == 2
        expected = np.array([math.exp(v) for v in std])
        np.testing.assert_allclose(out[1], expected, rtol=1e-15)
        assert np.all(np.isfinite(out))

    def test_exp_clip_keeps_outputs_finite(self):
        out = cands([-1e6, 0.0, 1e6], TransformSet(False, (), True))
        assert np.all(np.isfinite(out))
        assert out[1].max() == math.exp(20.0)

    def test_fixed_order_and_count(self, rng):
        ts = TransformSet(True, (2, 3), True)
        x = rng.standard_normal(20)
        out = cands(x, ts)
        assert len(out) == 1 + 4
        # x, then log, pow2, pow3 and exp, each row exactly its formula.
        expected = [
            x,
            np.log(x - np.min(x) + 1.0),
            x**2,
            x**3,
            np.exp(np.clip(x, -EXP_CLIP, EXP_CLIP)),
        ]
        np.testing.assert_array_equal(out, expected)

    def test_totality_on_nasty_inputs(self, rng):
        for _ in range(10):
            out = cands(rng.standard_normal(30) * 1e3, TransformSet())
            assert np.all(np.isfinite(out))

    def test_count_property(self):
        assert len(cands([1, 2], TransformSet.none())) == 1
        assert len(cands([1, 2], TransformSet(True, (2,), False))) == 3


class TestBuildRemovalCandidates:
    def test_all_disabled_reduces_to_feature_alone(self, rng):
        m = FeatureMatrix.from_arrays(["a", "b"], rng.standard_normal((10, 2)))
        out = build_removal_candidates(m, "a", TransformSet.none())
        assert out.shape == (1, 10)
        np.testing.assert_array_equal(out[0], m.data[:, 0])

    def test_concatenation_order(self):
        out = cands([1, 2, 3], TransformSet(False, (2,), False))
        np.testing.assert_array_equal(out, [[1, 2, 3], [1, 4, 9]])
        assert out.dtype == np.float64
        assert out.flags.c_contiguous and out.flags.writeable

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 1e5])
    @pytest.mark.parametrize(
        "ts",
        [
            TransformSet(),
            TransformSet(False, (2,), False),
            TransformSet(True, (), False),
            TransformSet(False, (), True),
            TransformSet(True, (2, 3, 5), True),
            TransformSet.none(),
        ],
        ids=["default", "pow2", "log", "exp", "all", "none"],
    )
    def test_candidates_match_their_formulas_bit_for_bit(self, ts, scale):
        x = np.random.default_rng(5).standard_normal(2000) * scale
        assert (x < 0).any()
        out = cands(x, ts)
        expected = [x]
        if ts.enable_log:
            expected.append(np.log(x - np.min(x) + 1.0))
        expected += [x**d for d in ts.poly_degrees]
        if ts.enable_exp:
            expected.append(np.exp(np.clip(x, -EXP_CLIP, EXP_CLIP)))
        assert len(out) == len(expected)
        for j, (got, want) in enumerate(zip(out, expected)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), j

    def test_first_overflowing_transform_is_named(self):
        # pow3 and pow5 both overflow; the fixed order names pow3 first.
        with pytest.raises(DegenerateFeatureError, match="'pow3' of 'x'"):
            cands([1e120, -2e120, 3e120], TransformSet(True, (3, 5), True))

    def test_unknown_feature(self):
        m = FeatureMatrix.from_arrays(["x"], np.array([[1.0], [2.0]]))
        with pytest.raises(FeatureLookupError):
            build_removal_candidates(m, "zz", TransformSet())

    def test_constant_column_rank_oracle(self):
        # Oracle: the candidate stack of a constant column has matrix rank 1,
        # so all but one candidate must be dropped downstream.
        out = cands([5.0, 5.0, 5.0], TransformSet(), name="c")
        assert np.linalg.matrix_rank(out) == 1
        basis = orthonormalize(out)
        assert basis.dropped_count == len(out) - 1
        assert basis.array.shape == (3, 1)

    def test_zero_column_with_no_transforms_degenerate(self):
        out = cands([0.0, 0.0], TransformSet.none(), name="z")
        with pytest.raises(DegenerateSubspaceError):
            orthonormalize(out)
