import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oproj.dataio import load_csv, save_csv, standardize
from oproj.errors import (
    DegenerateFeatureError,
    DegenerateSubspaceError,
    DimensionError,
    FeatureLookupError,
)
from oproj.linalg import (
    FeatureMatrix,
    FeatureVector,
    ProjectionBasis,
    orthonormalize,
    project_out,
    transform_against_feature,
    transform_against_vector,
)


def fv(name, values):
    return FeatureVector(name, np.asarray(values, dtype=float))


class TestFeatureVector:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            fv("a", [1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            fv("a", [np.inf, 0.0])

    def test_values_are_read_only(self):
        v = fv("a", [1.0, 2.0])
        with pytest.raises(ValueError):
            v.values[0] = 9.0

    def test_rejects_2d(self):
        with pytest.raises(DimensionError):
            FeatureVector("a", np.zeros((2, 2)))


class TestFeatureMatrix:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DimensionError, match="duplicate"):
            FeatureMatrix((fv("a", [1, 2]), fv("a", [3, 4])))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            FeatureMatrix((fv("a", [1, 2]), fv("b", [3, 4, 5])))

    def test_needs_two_samples(self):
        with pytest.raises(DimensionError):
            FeatureMatrix((fv("a", [1.0]),))

    def test_lookup_error_names_feature(self):
        m = FeatureMatrix((fv("a", [1, 2]),))
        with pytest.raises(FeatureLookupError, match="'zz'"):
            m.index("zz")

    def test_from_arrays_round_trip(self, rng):
        data = rng.standard_normal((10, 3))
        m = FeatureMatrix.from_arrays(["a", "b", "c"], data)
        np.testing.assert_array_equal(m.as_array(), data)
        assert m.names == ("a", "b", "c")
        assert (m.n, m.k) == (10, 3)


def _built_by(how, tmp_path):
    data = np.random.default_rng(3).standard_normal((12, 3))
    m = FeatureMatrix.from_arrays(["a", "b", "c"], data)
    if how == "from_arrays":
        return m
    if how == "columns":
        return FeatureMatrix(m.columns)
    if how == "load_csv":
        path = tmp_path / "d.csv"
        save_csv(m, path)
        return load_csv(path)[0]
    if how == "standardize":
        return standardize(m)[0]
    if how == "take_rows":
        return m.take_rows(np.array([5, 0, 7]))
    if how == "drop":
        return m.drop("b")
    if how == "transform_against_feature":
        return transform_against_feature(m, "a", orthonormalize([m.column("a")]))
    return transform_against_vector(m, "a", m.column("a"))


class TestStorageContract:
    @pytest.mark.parametrize(
        "how",
        [
            "from_arrays",
            "columns",
            "load_csv",
            "standardize",
            "take_rows",
            "drop",
            "transform_against_feature",
            "transform_against_vector",
        ],
    )
    def test_data_is_read_only_column_major(self, how, tmp_path):
        m = _built_by(how, tmp_path)
        assert m.data.shape == (m.n, m.k)
        assert m.data.dtype == np.float64
        assert m.data.flags.f_contiguous
        assert not m.data.flags.writeable
        with pytest.raises(ValueError):
            m.data[0, 0] = 1.0

    @pytest.mark.parametrize("k", [1, 3])
    def test_as_array_is_a_fresh_writable_row_major_copy(self, k, rng):
        data = rng.standard_normal((6, k))
        m = FeatureMatrix.from_arrays([f"x{j}" for j in range(k)], data)
        out = m.as_array()
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, m.data)
        np.testing.assert_array_equal(out, data)

    def test_from_arrays_copies_its_input(self, rng):
        data = rng.standard_normal((4, 2))
        m = FeatureMatrix.from_arrays(["a", "b"], data)
        data[0, 0] = 99.0
        assert m.data[0, 0] != 99.0

    def test_from_arrays_nan_names_the_column(self):
        data = np.array([[1.0, 2.0], [3.0, np.nan]])
        with pytest.raises(ValueError, match="feature 'b' contains non-finite"):
            FeatureMatrix.from_arrays(["a", "b"], data)


class TestProjectOut:
    def test_axis_aligned_removal(self):
        out = project_out(np.array([2.0, 3.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0, 3, 0], atol=1e-15)

    def test_parallel_vectors_vanish(self):
        out = project_out(np.array([2.0, 4.0]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [0, 0], atol=1e-15)

    def test_direct_formula(self):
        out = project_out(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [0.5, -0.5], rtol=1e-15)

    def test_zero_direction_rejected(self):
        m = FeatureMatrix((fv("u", [0, 0]), fv("v", [1, 2])))
        with pytest.raises(DegenerateFeatureError, match="'u'"):
            transform_against_vector(m, "u", m.column("u"))

    def test_result_orthogonal_to_direction(self, rng):
        for _ in range(20):
            v = rng.standard_normal(40)
            u = rng.standard_normal(40)
            out = project_out(v, u)
            assert abs(np.dot(out, u)) <= 1e-8 * np.linalg.norm(v) * np.linalg.norm(u)

    def test_idempotent(self, rng):
        v = rng.standard_normal(64)
        u = rng.standard_normal(64)
        once = project_out(v, u)
        twice = project_out(once, u)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-10 * np.linalg.norm(v))

    def test_norm_never_grows(self, rng):
        for _ in range(20):
            v = rng.standard_normal(30)
            u = rng.standard_normal(30)
            assert np.linalg.norm(project_out(v, u)) <= np.linalg.norm(v) * (1 + 1e-12)

    def test_linearity(self, rng):
        v = rng.standard_normal(50)
        w = rng.standard_normal(50)
        u = rng.standard_normal(50)
        a, b = 2.5, -1.25
        combined = project_out(a * v + b * w, u)
        separate = a * project_out(v, u) + b * project_out(w, u)
        np.testing.assert_allclose(combined, separate, rtol=1e-8, atol=1e-8)

    def test_reconstruction(self, rng):
        v = rng.standard_normal(50)
        u = rng.standard_normal(50)
        resid = project_out(v, u)
        coef = np.dot(u, v) / np.dot(u, u)
        np.testing.assert_allclose(resid + coef * u, v, rtol=1e-12, atol=1e-12)


@settings(deadline=None, max_examples=50)
@given(
    data=st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=3,
        max_size=12,
    )
)
def test_project_out_properties_hypothesis(data):
    v = np.array([t[0] for t in data])
    u = np.array([t[1] for t in data])
    n = len(u)
    if np.linalg.norm(u) <= 1e-12 * np.sqrt(n):
        return
    out = project_out(v, u)
    scale = max(np.linalg.norm(v) * np.linalg.norm(u), 1e-30)
    assert abs(float(np.dot(out, u))) <= 1e-8 * scale
    assert np.linalg.norm(out) <= np.linalg.norm(v) * (1 + 1e-9) + 1e-12


class TestOrthonormalize:
    def test_already_orthogonal(self):
        basis = orthonormalize([fv("a", [1, 0]), fv("b", [0, 2])])
        assert basis.dropped_count == 0
        np.testing.assert_allclose(basis.vectors[0].values, [1, 0], atol=1e-15)
        np.testing.assert_allclose(basis.vectors[1].values, [0, 1], atol=1e-15)

    def test_duplicate_direction_dropped(self):
        basis = orthonormalize([fv("a", [1, 1]), fv("b", [2, 2])])
        assert basis.dropped_count == 1
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(basis.vectors[0].values, [s, s], rtol=1e-15)

    def test_three_vector_vs_qr_oracle(self):
        # Oracle: numpy's QR factorization of the same 3x3 candidate matrix.
        cands = [fv("a", [1, 0, 0]), fv("b", [1, 1, 0]), fv("c", [1, 1, 1])]
        basis = orthonormalize(cands)
        assert basis.dropped_count == 0
        assert len(basis.vectors) == 3
        q_oracle, _ = np.linalg.qr(np.column_stack([c.values for c in cands]))
        ours = basis.as_array()
        for j in range(3):
            # Columns agree up to sign.
            direction = np.sign(np.dot(q_oracle[:, j], ours[:, j]))
            np.testing.assert_allclose(ours[:, j], direction * q_oracle[:, j], atol=1e-12)

    def test_zero_vector_dropped(self):
        basis = orthonormalize([fv("a", [1, 0]), fv("z", [0, 0])])
        assert basis.dropped_count == 1

    def test_all_dropped_raises(self):
        with pytest.raises(DegenerateSubspaceError):
            orthonormalize([fv("z1", [0, 0]), fv("z2", [0, 0])])

    def test_empty_raises(self):
        with pytest.raises(DegenerateSubspaceError):
            orthonormalize([])

    def test_basis_invariants_random(self, rng):
        for _ in range(10):
            n = 60
            cands = [fv(f"c{j}", rng.standard_normal(n)) for j in range(6)]
            basis = orthonormalize(cands)
            arr = basis.as_array()
            gram = arr.T @ arr
            off = gram - np.eye(arr.shape[1])
            assert np.max(np.abs(off)) <= 1e-10 * n
            for v in basis.vectors:
                assert abs(v.norm - 1.0) <= 1e-10

    def test_near_dependent_candidate_dropped(self, rng):
        base = rng.standard_normal(80)
        nearly = base * 3.0  # exactly dependent after scaling
        basis = orthonormalize([fv("a", base), fv("b", nearly), fv("c", rng.standard_normal(80))])
        assert basis.dropped_count == 1
        assert len(basis.vectors) == 2


class TestProjectionBasisValidation:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit-norm"):
            ProjectionBasis((fv("a", [2, 0]),))

    def test_rejects_non_orthogonal(self):
        s = 1 / np.sqrt(2)
        with pytest.raises(ValueError, match="orthogonal"):
            ProjectionBasis((fv("a", [1, 0]), fv("b", [s, s])))


class TestTransformAgainstFeature:
    def test_already_orthogonal_identity(self):
        m = FeatureMatrix((fv("x1", [1, 0]), fv("x2", [0, 1])))
        basis = orthonormalize([m.column("x1")])
        out = transform_against_feature(m, "x1", basis)
        assert out.names == ("x2",)
        np.testing.assert_allclose(out.column("x2").values, [0, 1], atol=1e-15)

    def test_identical_columns_vanish(self):
        m = FeatureMatrix((fv("x1", [1, 1]), fv("x2", [1, 1])))
        basis = orthonormalize([m.column("x1")])
        out = transform_against_feature(m, "x1", basis)
        np.testing.assert_allclose(out.column("x2").values, [0, 0], atol=1e-12)

    def test_random_matrix_orthogonality_oracle(self, rng):
        # Direct dot-product oracle on a random 200x8 matrix.
        data = rng.standard_normal((200, 8))
        m = FeatureMatrix.from_arrays([f"x{j}" for j in range(8)], data)
        basis = orthonormalize([m.column("x3")])
        out = transform_against_feature(m, "x3", basis)
        assert out.k == 7
        for col in out.columns:
            for q in basis.vectors:
                bound = 1e-8 * max(col.norm * q.norm, 1e-300)
                assert abs(float(np.dot(col.values, q.values))) <= bound

    def test_preserves_order_and_names(self, rng):
        data = rng.standard_normal((40, 5))
        names = ["a", "b", "c", "d", "e"]
        m = FeatureMatrix.from_arrays(names, data)
        basis = orthonormalize([m.column("c")])
        out = transform_against_feature(m, "c", basis)
        assert out.names == ("a", "b", "d", "e")

    def test_unknown_feature(self, rng):
        m = FeatureMatrix.from_arrays(["a", "b"], rng.standard_normal((10, 2)))
        basis = orthonormalize([m.column("a")])
        with pytest.raises(FeatureLookupError):
            transform_against_feature(m, "zz", basis)

    def test_single_column_matrix_rejected(self):
        m = FeatureMatrix((fv("a", [1.0, 2.0]),))
        basis = orthonormalize([m.column("a")])
        with pytest.raises(DimensionError):
            transform_against_feature(m, "a", basis)


class TestTransformAgainstVector:
    def test_matches_project_out_per_column(self, rng):
        data = rng.standard_normal((30, 4))
        m = FeatureMatrix.from_arrays(["a", "b", "c", "d"], data)
        u = m.column("b")
        out = transform_against_vector(m, "b", u)
        assert out.names == ("a", "c", "d")
        for name in out.names:
            expected = project_out(m.column(name).values, u.values)
            np.testing.assert_array_equal(out.column(name).values, expected)

    def test_orthogonal_design_unchanged(self):
        m = FeatureMatrix((fv("x1", [1, 0, 0]), fv("x2", [0, 1, 0])))
        out = transform_against_vector(m, "x1", m.column("x1"))
        np.testing.assert_allclose(out.column("x2").values, [0, 1, 0], atol=1e-15)
