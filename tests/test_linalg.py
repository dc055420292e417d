import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oproj.linalg as linalg
from conftest import needs_openblas
from oproj.dataio import load_csv, save_csv, standardize
from oproj.errors import (
    DegenerateFeatureError,
    DegenerateSubspaceError,
    DimensionError,
    FeatureLookupError,
)
from oproj.linalg import (
    FeatureMatrix,
    ProjectionBasis,
    blas_threads,
    one_blas_thread,
    orthonormalize,
    transform_against_feature,
    transform_against_vector,
)
from oproj.transforms import TransformSet, build_removal_candidates


def cols(**columns):
    """A matrix of named columns, in keyword order."""
    values = [np.asarray(v, dtype=float) for v in columns.values()]
    return FeatureMatrix.from_arrays(list(columns), np.column_stack(values))


def rows(*vectors):
    """Removal candidates, one per row, in the order given."""
    return np.array(vectors, dtype=float)


def own(m, name):
    """The one-candidate removal set of ``name``: the column itself."""
    return rows(m.data[:, m.index(name)])


def basis_route(m, name, candidates):
    """The projected columns, and the count of candidates the basis dropped."""
    basis = orthonormalize(candidates)
    out = np.empty(m.data.shape)
    transform_against_feature(m, name, basis, out)
    return out, basis.dropped_count


def vector_route(m, name):
    out = np.empty(m.data.shape)
    transform_against_vector(m, name, out)
    return out


def remove(v, u):
    """``v`` with its component along ``u`` removed, by the single-vector
    route."""
    return vector_route(cols(u=u, v=v), "u")[:, 1]


def project_out(v, u):
    """v - (u.v / u.u) u, with the single-vector route's arithmetic."""
    return v - u * (np.dot(u, v) / np.dot(u, u))


def rest(out, m, name):
    """The projected columns of a route's output, without ``name``'s."""
    return np.delete(out, m.index(name), axis=1)


class TestFeatureMatrix:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DimensionError, match="duplicate"):
            FeatureMatrix.from_arrays(["a", "a"], np.zeros((2, 2)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="2 names for 3 columns"):
            FeatureMatrix.from_arrays(["a", "b"], np.zeros((4, 3)))

    def test_needs_two_samples(self):
        with pytest.raises(DimensionError):
            FeatureMatrix.from_arrays(["a"], np.array([[1.0]]))

    def test_rejects_one_dimensional_data(self):
        with pytest.raises(DimensionError, match="2-D"):
            FeatureMatrix.from_arrays(["a"], np.zeros(3))

    def test_constructor_checks_like_from_arrays(self):
        with pytest.raises(DimensionError, match="1 names for 3 columns"):
            FeatureMatrix(["a"], np.zeros((5, 3)))
        with pytest.raises(DimensionError, match="2-D"):
            FeatureMatrix(["a"], np.zeros(5))
        with pytest.raises(ValueError, match="feature 'b' contains non-finite"):
            FeatureMatrix(["a", "b"], np.array([[1.0, np.nan], [2.0, 3.0]]))

    def test_constructor_copies_into_a_column_major_array(self):
        data = np.arange(6.0).reshape(3, 2)  # row-major
        m = FeatureMatrix(["a", "b"], data)
        assert m.data.flags.f_contiguous and not m.data.flags.writeable
        assert data.flags.writeable and not np.shares_memory(m.data, data)
        np.testing.assert_array_equal(m.data, data)

    def test_lookup_error_names_feature(self):
        m = cols(a=[1, 2])
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
    if how == "load_csv":
        path = tmp_path / "d.csv"
        save_csv(m, path)
        return load_csv(path)[0]
    if how == "standardize":
        return standardize(m)[0]
    return m.drop("b")


class TestStorageContract:
    @pytest.mark.parametrize(
        "how",
        [
            "from_arrays",
            "load_csv",
            "standardize",
            "drop",
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
        data = np.array([[np.inf, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="feature 'a' contains non-finite"):
            FeatureMatrix.from_arrays(["a", "b"], data)


class TestProjectOut:
    """The single-vector route on one column ``v`` against ``u``."""

    def test_axis_aligned_removal(self):
        out = remove(np.array([2.0, 3.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0, 3, 0], atol=1e-15)

    def test_parallel_vectors_vanish(self):
        out = remove(np.array([2.0, 4.0]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [0, 0], atol=1e-15)

    def test_direct_formula(self):
        out = remove(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [0.5, -0.5], rtol=1e-15)

    def test_zero_direction_rejected(self):
        m = cols(u=[0, 0], v=[1, 2])
        with pytest.raises(DegenerateFeatureError, match="'u'"):
            vector_route(m, "u")

    def test_result_orthogonal_to_direction(self, rng):
        for _ in range(20):
            v = rng.standard_normal(40)
            u = rng.standard_normal(40)
            out = remove(v, u)
            assert abs(np.dot(out, u)) <= 1e-8 * np.linalg.norm(v) * np.linalg.norm(u)

    def test_idempotent(self, rng):
        v = rng.standard_normal(64)
        u = rng.standard_normal(64)
        once = remove(v, u)
        twice = remove(once, u)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-10 * np.linalg.norm(v))

    def test_norm_never_grows(self, rng):
        for _ in range(20):
            v = rng.standard_normal(30)
            u = rng.standard_normal(30)
            assert np.linalg.norm(remove(v, u)) <= np.linalg.norm(v) * (1 + 1e-12)

    def test_linearity(self, rng):
        v = rng.standard_normal(50)
        w = rng.standard_normal(50)
        u = rng.standard_normal(50)
        a, b = 2.5, -1.25
        combined = remove(a * v + b * w, u)
        separate = a * remove(v, u) + b * remove(w, u)
        np.testing.assert_allclose(combined, separate, rtol=1e-8, atol=1e-8)

    def test_reconstruction(self, rng):
        v = rng.standard_normal(50)
        u = rng.standard_normal(50)
        resid = remove(v, u)
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
    out = remove(v, u)
    scale = max(np.linalg.norm(v) * np.linalg.norm(u), 1e-30)
    assert abs(float(np.dot(out, u))) <= 1e-8 * scale
    assert np.linalg.norm(out) <= np.linalg.norm(v) * (1 + 1e-9) + 1e-12


class TestOrthonormalize:
    def test_already_orthogonal(self):
        basis = orthonormalize(rows([1, 0], [0, 2]))
        assert basis.dropped_count == 0
        np.testing.assert_allclose(basis.array, [[1, 0], [0, 1]], atol=1e-15)
        assert len(basis.vectors) == 2

    def test_duplicate_direction_dropped(self):
        basis = orthonormalize(rows([1, 1], [2, 2]))
        assert basis.dropped_count == 1
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(basis.array, [[s], [s]], rtol=1e-15)

    def test_three_vector_vs_qr_oracle(self):
        # Oracle: numpy's QR factorization of the same 3x3 candidate matrix.
        cands = rows([1, 0, 0], [1, 1, 0], [1, 1, 1])
        q_oracle, _ = np.linalg.qr(cands.T)
        basis = orthonormalize(cands)
        assert basis.dropped_count == 0
        ours = basis.array
        assert ours.shape == (3, 3) and ours.flags.c_contiguous
        for j in range(3):
            # Columns agree up to sign.
            direction = np.sign(np.dot(q_oracle[:, j], ours[:, j]))
            np.testing.assert_allclose(ours[:, j], direction * q_oracle[:, j], atol=1e-12)

    def test_zero_vector_dropped(self):
        basis = orthonormalize(rows([1, 0], [0, 0]))
        assert basis.dropped_count == 1

    def test_all_dropped_raises(self):
        with pytest.raises(DegenerateSubspaceError):
            orthonormalize(rows([0, 0], [0, 0]))

    def test_empty_raises(self):
        # No matrix can be empty, and no basis either: not one built from no
        # candidates, nor one given directly.
        with pytest.raises(DimensionError):
            FeatureMatrix.from_arrays([], np.empty((3, 0)))
        with pytest.raises(DegenerateSubspaceError, match="all 0 candidates"):
            orthonormalize(np.empty((0, 3)))
        with pytest.raises(DegenerateSubspaceError):
            ProjectionBasis(np.empty((3, 0)))

    def test_basis_invariants_random(self, rng):
        for _ in range(10):
            n = 60
            arr = orthonormalize(rows(*rng.standard_normal((n, 6)).T)).array
            off = arr.T @ arr - np.eye(arr.shape[1])
            assert np.max(np.abs(off)) <= 1e-10 * n
            np.testing.assert_allclose(np.linalg.norm(arr, axis=0), 1.0, rtol=0, atol=1e-10)

    def test_near_dependent_candidate_dropped(self, rng):
        base = rng.standard_normal(80)
        nearly = base * 3.0  # exactly dependent after scaling
        basis = orthonormalize(rows(base, nearly, rng.standard_normal(80)))
        assert basis.dropped_count == 1
        assert basis.array.shape == (80, 2)
        np.testing.assert_array_equal(basis.vectors, basis.array.T)

    def test_works_in_place_on_the_accepted_rows(self, rng):
        # The second row is dependent on the first and is dropped; the
        # first and third become the basis vectors where they lie.
        base = rng.standard_normal(20)
        cands = rows(base, -2.0 * base, rng.standard_normal(20))
        basis = orthonormalize(cands)
        assert basis.dropped_count == 1
        np.testing.assert_array_equal(basis.vectors, cands[[0, 2]])

    @pytest.mark.parametrize(
        "cands",
        [
            np.ones((3, 2), order="F"),
            np.ones((2, 3), dtype=np.float32),
            np.ones(3),
            np.frombuffer(bytes(48)).reshape(2, 3),
        ],
        ids=["column-major", "float32", "one-dimensional", "read-only"],
    )
    def test_rejects_what_it_cannot_overwrite_in_place(self, cands):
        with pytest.raises(DimensionError, match="writable C-order float64"):
            orthonormalize(cands)

    @pytest.mark.filterwarnings("error")
    def test_candidates_whose_norms_overflow_are_scaled(self, rng):
        # x's square is finite but its norm is not; a power of two brings
        # each candidate into range before any norm is taken.
        x = rng.standard_normal(40) * 1e100
        basis = orthonormalize(rows(x, x**2))
        assert basis.dropped_count == 0
        np.testing.assert_allclose(np.linalg.norm(basis.array, axis=0), 1.0, atol=1e-12)


class TestProjectionBasisValidation:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit-norm"):
            ProjectionBasis(np.array([[2.0], [0.0]]))
        with pytest.raises(ValueError, match="unit-norm"):
            ProjectionBasis(np.array([[np.nan], [0.0]]))

    def test_rejects_non_orthogonal(self):
        s = 1 / np.sqrt(2)
        with pytest.raises(ValueError, match="orthogonal"):
            ProjectionBasis(np.array([[1.0, s], [0.0, s]]))


class TestTransformAgainstFeature:
    """Every other column projected off a removal basis, in its own
    position."""

    def test_already_orthogonal_identity(self):
        m = cols(x1=[1, 0], x2=[0, 1])
        out, dropped = basis_route(m, "x1", own(m, "x1"))
        assert out.shape == (2, 2) and dropped == 0
        np.testing.assert_allclose(out[:, 1], [0, 1], atol=1e-15)

    def test_identical_columns_vanish(self):
        m = cols(x1=[1, 1], x2=[1, 1])
        out, _ = basis_route(m, "x1", own(m, "x1"))
        np.testing.assert_allclose(out[:, 1], [0, 0], atol=1e-12)

    def test_random_matrix_orthogonality_oracle(self, rng):
        # Direct dot-product oracle on a random 200x8 matrix.
        data = rng.standard_normal((200, 8))
        m = FeatureMatrix.from_arrays([f"x{j}" for j in range(8)], data)
        q = own(m, "x3")[0] / np.linalg.norm(data[:, 3])
        out, _ = basis_route(m, "x3", own(m, "x3"))
        for col in rest(out, m, "x3").T:
            bound = 1e-8 * max(np.linalg.norm(col), 1e-300)
            assert abs(float(np.dot(col, q))) <= bound

    def test_preserves_order_and_names(self, rng):
        data = rng.standard_normal((40, 5))
        m = FeatureMatrix.from_arrays(["a", "b", "c", "d", "e"], data)
        out, _ = basis_route(m, "c", own(m, "c"))
        for j in (0, 1, 3, 4):
            expected = project_out(data[:, j], data[:, 2])
            np.testing.assert_allclose(out[:, j], expected, rtol=0, atol=1e-12)

    def test_unknown_feature(self, rng):
        m = FeatureMatrix.from_arrays(["a", "b"], rng.standard_normal((10, 2)))
        with pytest.raises(FeatureLookupError):
            basis_route(m, "zz", own(m, "a"))

    def test_single_column_matrix_rejected(self):
        m = cols(a=[1.0, 2.0])
        with pytest.raises(DimensionError):
            basis_route(m, "a", own(m, "a"))

    def test_basis_length_must_match(self, rng):
        m = FeatureMatrix.from_arrays(["a", "b"], rng.standard_normal((10, 2)))
        basis = orthonormalize(np.ones((1, 9)))
        with pytest.raises(DimensionError, match="basis length 9"):
            transform_against_feature(m, "a", basis, np.empty((10, 2)))

    def test_out_must_be_a_row_major_n_by_k_array(self, rng):
        m = FeatureMatrix.from_arrays(["a", "b"], rng.standard_normal((10, 2)))
        for out in (np.empty((10, 2), order="F"), np.empty((10, 1))):
            with pytest.raises(DimensionError, match="C-order 10 x 2"):
                transform_against_feature(m, "a", orthonormalize(own(m, "a")), out)

    @pytest.mark.parametrize(
        "n, k, idx, ts",
        [
            pytest.param(301, 5, 0, TransformSet(False, (2, 3), False), id="a"),
            pytest.param(301, 5, 2, TransformSet(False, (2, 3), False), id="c"),
            pytest.param(301, 5, 4, TransformSet(False, (2, 3), False), id="e"),
            # Large enough for BLAS to block and thread the products.
            pytest.param(20001, 41, 0, TransformSet(), id="20001x41-first"),
            pytest.param(20001, 41, 20, TransformSet(), id="20001x41-middle"),
            pytest.param(20001, 41, 40, TransformSet(), id="20001x41-last"),
            # One row past whole blocks: a one-row block would be a
            # matrix-vector product, which rounds otherwise.
            pytest.param(
                2 * linalg.ROW_BLOCK + 1, 41, 20, TransformSet(), id="one-row-past-blocks"
            ),
        ],
    )
    def test_matches_two_passes_on_the_remaining_columns(self, rng, n, k, idx, ts):
        # Reference: two passes of D - B (B^T D) on a column-major copy of
        # the other columns, as a standalone array. Equal to the last bit.
        m = FeatureMatrix.from_arrays([f"x{j}" for j in range(k)], rng.standard_normal((n, k)))
        current = m.names[idx]
        B = orthonormalize(build_removal_candidates(m, current, ts)).array
        # The reference is exact only for a basis of two or more vectors.
        # With one, numpy computes B^T D as a matrix-vector product, which
        # rounds by layout; a one-vector basis needs a byte comparison with
        # a known-good version instead.
        assert B.shape[1] >= 2
        D = np.delete(m.data, m.index(current), axis=1)
        D = D - np.matmul(B, B.T @ D, out=np.empty(D.shape, order="F"))
        D -= np.matmul(B, B.T @ D, out=np.empty(D.shape, order="F"))
        # orthonormalize overwrites its candidates, so the route gets its own.
        out, _ = basis_route(m, current, build_removal_candidates(m, current, ts))
        np.testing.assert_array_equal(rest(out, m, current), D)


class TestTransformAgainstVector:
    """The single-vector route."""

    def test_matches_project_out_per_column(self, rng):
        data = rng.standard_normal((30, 4))
        m = FeatureMatrix.from_arrays(["a", "b", "c", "d"], data)
        out = vector_route(m, "b")
        for j in (0, 2, 3):
            expected = project_out(m.data[:, j], m.data[:, 1])  # contiguous columns
            np.testing.assert_array_equal(out[:, j], expected)

    def test_orthogonal_design_unchanged(self):
        m = cols(x1=[1, 0, 0], x2=[0, 1, 0])
        out = vector_route(m, "x1")
        np.testing.assert_allclose(out[:, 1], [0, 1, 0], atol=1e-15)


@pytest.mark.parametrize("route", ["feature", "vector"])
@pytest.mark.parametrize("half", ["scale", "offset"])
def test_half_a_back_map_is_refused(rng, route, half):
    # A lone offset used to be ignored, and a lone scale to end in a
    # numpy UFuncTypeError.
    m = FeatureMatrix.from_arrays(["a", "b"], rng.standard_normal((10, 2)))
    out = np.empty((10, 2))
    args = (orthonormalize(own(m, "a")),) if route == "feature" else ()
    transform = transform_against_feature if route == "feature" else transform_against_vector
    with pytest.raises(DimensionError, match="both scale and offset"):
        transform(m, "a", *args, out, **{half: np.ones(2)})


@needs_openblas
@pytest.mark.usefixtures("two_blas_threads")
class TestOneBlasThread:
    def test_one_thread_inside_and_the_count_restored(self):
        with one_blas_thread():
            assert blas_threads() == 1
            with one_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_count_restored_when_the_block_raises(self):
        with pytest.raises(RuntimeError, match="inside"):
            with one_blas_thread():
                raise RuntimeError("inside")
        assert blas_threads() == 2

    def test_overlapping_blocks_restore_when_the_last_exits(self):
        # More threads than CPUs, switching often: a lost update to the
        # depth count would restore the count under a running block, or
        # leave it at one after all have left.
        seen, errors = [], []

        def audit():
            try:
                for _ in range(200):
                    with one_blas_thread():
                        seen.append(blas_threads())
            except Exception as exc:  # reported below, on the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=audit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert seen == [1] * 1600
        assert blas_threads() == 2


def test_one_blas_thread_does_nothing_without_openblas(monkeypatch):
    monkeypatch.setattr(linalg, "_openblas", lambda: None)
    assert blas_threads() is None
    with one_blas_thread():
        assert blas_threads() is None
