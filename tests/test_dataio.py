import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oproj.dataio as dataio
from oproj.dataio import (
    ColumnSpec,
    DatasetSchema,
    NonlinearTerm,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    parse_schema_file,
    parse_synthetic_spec,
    save_csv,
    standardize,
)
from oproj.errors import DataError, SyntheticSpecError
from oproj.linalg import FeatureMatrix
from oproj.surrogate import fit_ridge


class TestLoadCsv:
    def test_two_by_two(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        X, y = load_csv(p)
        assert y is None
        assert X.names == ("a", "b")
        np.testing.assert_array_equal(X.as_array(), [[1, 2], [3, 4]])

    def test_target_column_extracted(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,t\n1,10\n2,20\n")
        schema = DatasetSchema({"t": ColumnSpec(role="target")})
        X, y = load_csv(p, schema)
        assert X.names == ("a",)
        np.testing.assert_array_equal(y, [10, 20])

    def test_one_hot_complementary(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("g,v\nF,1\nM,2\nF,3\n")
        schema = DatasetSchema({"g": ColumnSpec(kind="categorical")})
        X, _ = load_csv(p, schema)
        assert X.names == ("g=F", "g=M", "v")
        f = X.data[:, X.index("g=F")]
        m = X.data[:, X.index("g=M")]
        np.testing.assert_array_equal(f + m, [1, 1, 1])
        np.testing.assert_array_equal(f, [1, 0, 1])

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="csv reads NUL from 3.11 on")
    def test_one_hot_levels_differing_in_a_trailing_nul_stay_apart(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("g,v\na\x00,1\na,2\na\x00,3\n")
        schema = DatasetSchema({"g": ColumnSpec(kind="categorical")})
        X, _ = load_csv(p, schema)
        assert X.names == ("g=a", "g=a\x00", "v")
        np.testing.assert_array_equal(X.data[:, 0], [0, 1, 0])
        np.testing.assert_array_equal(X.data[:, 1], [1, 0, 1])

    def test_one_hot_levels_lexicographic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("g,v\nzebra,1\napple,2\nmango,3\n")
        schema = DatasetSchema({"g": ColumnSpec(kind="categorical")})
        X, _ = load_csv(p, schema)
        assert X.names == ("g=apple", "g=mango", "g=zebra", "v")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("target,x1\n1,2\n3,4\n", encoding="utf-8-sig")
        X, _ = load_csv(p)
        assert X.names == ("target", "x1")
        X, y = load_csv(p, DatasetSchema({"target": ColumnSpec(role="target")}))
        assert X.names == ("x1",)
        np.testing.assert_array_equal(y, [1.0, 3.0])

    def test_empty_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,\n")
        with pytest.raises(DataError, match="row 2.*column 'b'") as info:
            load_csv(p)
        assert info.value.row == 2
        assert info.value.column == "b"

    def test_unparseable_numeric(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a\n1\nfoo\n")
        with pytest.raises(DataError, match="'foo'.*row 2"):
            load_csv(p)

    def test_duplicate_headers(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,a\n1,2\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(p)

    def test_schema_column_missing_from_the_file(self, tmp_path):
        # The bad cell would fail any row parse: the check comes first.
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,target\n1,2,3\nfoo,5,6\n")
        schema = DatasetSchema(
            {"x9": ColumnSpec(role="ignore"), "gendr": ColumnSpec(role="ignore")}
        )
        with pytest.raises(DataError, match=r"d\.csv has no columns named \['gendr', 'x9'\]"):
            load_csv(p, schema)

    def test_ignored_column_dropped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,junk\n1,zzz\n2,qqq\n")
        schema = DatasetSchema({"junk": ColumnSpec(role="ignore")})
        X, _ = load_csv(p, schema)
        assert X.names == ("a",)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataError, match="header"):
            load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_header_not_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,caf\xe9\n1,2\n")
        with pytest.raises(DataError, match=re.escape(f"{p} line 1 is not UTF-8")):
            load_csv(p)

    def test_byte_past_the_first_8_kib_not_utf8_names_its_line(self, tmp_path):
        # 24 KB of rows before the bad byte, which sits on file line 3002.
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,b\n" + b"1.5,2.5\n" * 3000 + b"1.5,\xe9\n")
        with pytest.raises(DataError, match=re.escape(f"{p} line 3002 is not UTF-8")):
            load_csv(p)

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_character_cut_by_a_scan_block_is_not_the_bad_byte(
        self, tmp_path, monkeypatch, block
    ):
        # Small scan blocks cut the two- and three-byte characters of lines
        # 2 and 3; the bad byte is the lone 0xe9 on line 4.
        monkeypatch.setattr(dataio, "_SCAN_BLOCK", block)
        p = tmp_path / "d.csv"
        p.write_bytes("a,b\n1,caf\u00e9\n2,\u20ac\n3,".encode() + b"\xe9\n")
        with pytest.raises(DataError, match=re.escape(f"{p} line 4 is not UTF-8: b'\\xe9'")):
            load_csv(p)


def _load_outcome(path, schema):
    """What load_csv does with a file: its arrays, bit for bit, or its error."""
    try:
        X, y = load_csv(path, schema)
    except DataError as exc:
        return ("error", str(exc), exc.row, exc.column)
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    target = None if y is None else y.tobytes()
    return ("ok", X.names, X.data.shape, X.data.tobytes(order="F"), target)


def _per_cell_outcome(path, schema):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_parse_number_blocks", lambda *args: None)
        return _load_outcome(path, schema)


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    # Where an integer stops being exact in float64, int64 or uint64.
    st.sampled_from([2**53 + 1, -(2**53 + 1), 2**63, -(2**63), 2**64, -(2**64)]).map(str),
)
ODD_CELLS = st.sampled_from(
    ["nan", "inf", "-inf", "1_0", "1e400", "-0.0", "+.5", "5.", " 2 ", "\t3",
     '"1.5"', '"1,5"', ' "2"', '"2" ', '"2"x', '""', "", "#3", "0x10", "1d3",
     "a", "\u0661\u0662", '"1\n2"', "3,4", "-0", " -0 ", "1E5", "-0e0"]
)  # fmt: skip
CELLS = st.one_of(NUMBERS, NUMBERS, NUMBERS, NUMBERS, ODD_CELLS)
ROLES = st.sampled_from(["feature", "feature", "target", "ignore", "categorical"])


@st.composite
def csv_files(draw):
    k = draw(st.integers(1, 3))
    header = [f"c{j}" for j in range(k)]
    roles = draw(st.lists(ROLES, min_size=k, max_size=k))
    if roles.count("target") > 1:
        roles = ["feature" if r == "target" else r for r in roles]
    rows = draw(st.lists(st.lists(CELLS, min_size=k, max_size=k), min_size=2, max_size=6))
    if draw(st.sampled_from([False] * 4 + [True])):
        ragged = draw(st.lists(CELLS, min_size=1, max_size=k + 1))
        rows.insert(draw(st.integers(0, len(rows))), ragged)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if draw(st.sampled_from([False] * 5 + [True])):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    # A tiny block puts every line in a block of its own.
    block_bytes = draw(st.sampled_from([1, dataio._BLOCK_BYTES]))
    schema = DatasetSchema(
        {
            h: ColumnSpec(role="feature", kind="categorical")
            if r == "categorical"
            else ColumnSpec(role=r)
            for h, r in zip(header, roles)
        }
    )
    return text, schema, block_bytes


@settings(max_examples=300, deadline=None)
@given(csv_files())
def test_bulk_load_matches_per_cell_hypothesis(case):
    text, schema, block_bytes = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_BLOCK_BYTES", block_bytes)
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _load_outcome(path, schema) == _per_cell_outcome(path, schema)


class TestBulkLoad:
    def test_quoted_crlf_file_parses_cell_by_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b'a,b,t\r\n"1.5",2,3\r\n-0.0,"5e-324",6\r\n')
        assert dataio._parse_number_blocks(p, 1, 3) is None
        X, y = load_csv(p, DatasetSchema({"t": ColumnSpec(role="target")}))
        assert X.data.tobytes(order="F") == np.array(
            [[1.5, 2.0], [-0.0, 5e-324]], order="F"
        ).tobytes(order="F")
        np.testing.assert_array_equal(y, [3.0, 6.0])

    @pytest.mark.parametrize(
        "text, columns, names",
        [
            ("id,a,t\n7,1.5,1\n8,-2,0\n",
             {"id": ColumnSpec(role="ignore"), "t": ColumnSpec(role="target")},
             ("a",)),
            ("g,a\n1,1.5\n3,-2\n2,0\n1,4\n", {"g": ColumnSpec(kind="categorical")},
             ("g=1", "g=2", "g=3", "a")),
        ],
        ids=["ignored-integer-id", "integer-coded-categorical"],
    )  # fmt: skip
    def test_any_schema_parses_in_blocks(self, tmp_path, monkeypatch, text, columns, names):
        p = tmp_path / "d.csv"
        p.write_text(text)
        schema = DatasetSchema(columns)
        blocks = dataio._parse_number_blocks
        parsed = []

        def spy(*args):
            parsed.append(blocks(*args))
            return parsed[-1]

        monkeypatch.setattr(dataio, "_parse_number_blocks", spy)
        X, _ = load_csv(p, schema)
        assert parsed[0] is not None
        assert X.names == names
        assert _load_outcome(p, schema) == _per_cell_outcome(p, schema)

    def test_layout_and_values_match_per_cell(self, tmp_path, rng):
        m = FeatureMatrix.from_arrays(["a", "b", "c"], rng.standard_normal((40, 3)))
        p = tmp_path / "d.csv"
        save_csv(m, p, target=rng.standard_normal(40))
        schema = DatasetSchema({"target": ColumnSpec(role="target")})
        X, _ = load_csv(p, schema)
        assert X.data.flags.f_contiguous and not X.data.flags.writeable
        assert _load_outcome(p, schema) == _per_cell_outcome(p, schema)

    @pytest.mark.parametrize(
        "body",
        ["1,2\n\n3,4\n", "1,nan\n3,4\n", "1,1_0\n3,4\n", "1,2\n3,4,\n",
         "x1,2\nx2,4\n", '"1","2"\n"3","4"\n'],
    )  # fmt: skip
    def test_bulk_declines_what_it_would_misread(self, tmp_path, body):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n" + body)
        assert dataio._parse_number_blocks(p, 1, 2) is None
        schema = DatasetSchema({"a": ColumnSpec(role="ignore")})
        assert _load_outcome(p, schema) == _per_cell_outcome(p, schema)


def _numeric_csv(path, rows, rng):
    """A header plus ``rows`` x 3 shortest round-trip decimals; one row is
    about 60 bytes, so 5000 rows span several blocks."""
    data = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-5, 6, (rows, 3))
    lines = ["a,b,c"] + [",".join(map(repr, row)) for row in data.tolist()]
    path.write_text("\n".join(lines) + "\n")
    return data


class TestNumberBlocks:
    def test_many_blocks_match_loadtxt_bit_for_bit(self, tmp_path, rng):
        p = tmp_path / "d.csv"
        data = _numeric_csv(p, 5000, rng)
        assert p.stat().st_size > 2 * dataio._BLOCK_BYTES
        parsed = dataio._parse_number_blocks(p, 1, 3)
        assert parsed.tobytes() == data.tobytes()
        assert parsed.tobytes() == np.loadtxt(p, delimiter=",", skiprows=1).tobytes()

    @pytest.mark.parametrize(
        "body, values",
        [
            ("1E5,-0.0,-0e0\r\n 2 ,\t3,4\r\n", [[1e5, -0.0, -0.0], [2.0, 3.0, 4.0]]),
            ("9007199254740993,18446744073709551616,-1e-5\n",
             [[9007199254740992.0, 18446744073709551616.0, -1e-5]]),
        ],
        ids=["spellings", "large-integers"],
    )  # fmt: skip
    def test_parses_json_numbers(self, tmp_path, body, values):
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,b,c\n" + body.encode())
        parsed = dataio._parse_number_blocks(p, 1, 3)
        assert parsed.tobytes() == np.array(values).tobytes()

    @pytest.mark.parametrize(
        "body",
        [
            "1,-0,2\n",  # orjson reads an integer -0 as +0
            "1,2, -0",
            "1,2,\r3\n",  # the csv module splits at a bare CR
            "1.,2,3\n",
            "+1,2,3\n",
            "1,2,3\n\n4,5,6\n",
            "1,2\n",
            "1,2,1e400\n",
            '"1",2,3\n',
        ],
        ids=["int-minus-zero", "last-int-minus-zero", "bare-cr", "trailing-point",
             "plus-sign", "blank-line", "short-row", "overflow", "quoted"],
    )  # fmt: skip
    def test_declines_what_json_reads_otherwise(self, tmp_path, body):
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,b,c\n" + body.encode())
        assert dataio._parse_number_blocks(p, 1, 3) is None

    def test_declines_a_bare_cr_in_the_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,b,c\r1,2,3\n4,5,6\n")
        assert dataio._parse_number_blocks(p, 1, 3) is None
        X, _ = load_csv(p)
        assert X.data.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    def test_integer_minus_zero_keeps_its_sign(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n-0,1\n2, -0 \n")
        X, _ = load_csv(p)
        assert np.signbit(X.data).tolist() == [[True, False], [False, True]]

    @pytest.mark.parametrize("bad", ["foo", "nan", "", "1e400", "1.5.2"])
    def test_bad_cell_in_last_block_names_its_row_and_column(self, tmp_path, rng, bad):
        p = tmp_path / "d.csv"
        _numeric_csv(p, 5000, rng)
        lines = p.read_text().splitlines()
        cells = lines[4998].split(",")
        cells[1] = bad
        lines[4998] = ",".join(cells)
        p.write_text("\n".join(lines) + "\n")
        assert len(p.read_bytes()) - p.read_text().index(lines[4998]) < dataio._BLOCK_BYTES
        with pytest.raises(DataError) as info:
            load_csv(p)
        assert (info.value.row, info.value.column) == (4998, "b")
        assert _load_outcome(p, DatasetSchema()) == _per_cell_outcome(p, DatasetSchema())


class TestSaveCsv:
    def test_round_trip_value_identical(self, tmp_path, rng):
        m = FeatureMatrix.from_arrays(
            ["a", "b", "c"], rng.standard_normal((30, 3)) * 1e5
        )
        y = rng.standard_normal(30)
        p = tmp_path / "out.csv"
        save_csv(m, p, target=y)
        schema = DatasetSchema({"target": ColumnSpec(role="target")})
        m2, y2 = load_csv(p, schema)
        np.testing.assert_array_equal(m2.as_array(), m.as_array())
        np.testing.assert_array_equal(y2, y)

    def test_target_name_collision(self, tmp_path, rng):
        m = FeatureMatrix.from_arrays(["target"], rng.standard_normal((5, 1)))
        with pytest.raises(DataError, match="collides"):
            save_csv(m, tmp_path / "x.csv", target=np.zeros(5))

    @pytest.mark.parametrize("name", ["a,b", 'say "hi"', "cr\rhere", "lf\nhere"])
    def test_name_the_header_cannot_carry_is_refused(self, tmp_path, rng, name):
        m = FeatureMatrix.from_arrays([name, "c"], rng.standard_normal((5, 2)))
        with pytest.raises(DataError, match="unquoted CSV header") as info:
            save_csv(m, tmp_path / "x.csv")
        assert repr(name) in str(info.value)

    @pytest.mark.parametrize("existing", [None, b"a,c\n1.0,2.0\n"], ids=["new", "existing"])
    def test_refused_name_leaves_the_path_as_it_was(self, tmp_path, rng, existing):
        m = FeatureMatrix.from_arrays(["a,b", "c"], rng.standard_normal((5, 2)))
        p = tmp_path / "x.csv"
        if existing is not None:
            p.write_bytes(existing)
        with pytest.raises(DataError, match="unquoted CSV header"):
            save_csv(m, p)
        assert (p.read_bytes() if p.exists() else None) == existing

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected_before_writing(self, tmp_path, rng, bad):
        m = FeatureMatrix.from_arrays(["a"], rng.standard_normal((5, 1)))
        y = np.zeros(5)
        y[[2, 4]] = bad
        p = tmp_path / "x.csv"
        with pytest.raises(DataError, match="row 3") as info:
            save_csv(m, p, target=y)
        assert (info.value.row, info.value.column) == (3, "target")
        assert not p.exists()


class TestStandardize:
    def test_basic_population_convention(self):
        m = FeatureMatrix.from_arrays(["a"], np.array([[1.0], [2.0], [3.0]]))
        out, _, scale = standardize(m)
        z = out.data[:, 0]
        assert abs(z.mean()) <= 1e-12
        assert abs(np.sqrt(np.mean(z**2)) - 1.0) <= 1e-12
        # Population sd of (1,2,3) is sqrt(2/3).
        assert scale[0] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)

    def test_idempotent(self, rng):
        m = FeatureMatrix.from_arrays(["a", "b"], rng.standard_normal((50, 2)))
        once = standardize(m)[0]
        twice = standardize(once)[0]
        np.testing.assert_allclose(
            twice.as_array(), once.as_array(), rtol=0, atol=1e-12
        )

    def test_constant_column_maps_by_identity(self):
        data = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        out, offset, scale = standardize(FeatureMatrix.from_arrays(["ok", "flat"], data))
        np.testing.assert_array_equal(out.data[:, 1], [5.0, 5.0, 5.0])
        assert (offset[1], scale[1]) == (0.0, 1.0)

    def test_large_offset_mean_still_tiny(self, rng):
        # Columns with mean ~1e6 stress the centering; the second pass keeps
        # the standardized mean under 1e-12.
        data = rng.standard_normal((1000, 2)) + 1e6
        m = FeatureMatrix.from_arrays(["a", "b"], data)
        out = standardize(m)[0]
        for c in out.data.T:
            assert abs(float(np.mean(c))) <= 1e-12
            assert abs(float(np.sqrt(np.mean(c**2))) - 1.0) <= 1e-12

    def test_affine_maps_invert(self, rng):
        data = rng.standard_normal((40, 2)) * 7.5 + 3.0
        m = FeatureMatrix.from_arrays(["a", "b"], data)
        out, offset, scale = standardize(m)
        np.testing.assert_allclose((data - offset) / scale, out.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data * scale + offset, data, rtol=1e-12, atol=1e-9)


    @pytest.mark.filterwarnings("error")
    def test_column_whose_squares_overflow_is_scaled_by_a_power_of_two(self, rng):
        data = rng.standard_normal((80, 3))
        data[:, 1] = data[:, 1] * 1e154 + 1e155
        out, offset, scale = standardize(FeatureMatrix.from_arrays(["a", "big", "c"], data))
        assert np.isfinite(out.data).all() and np.isfinite(offset).all()
        assert np.isfinite(scale).all()
        # The same bits as standardizing the column times 2**-e, with
        # 2**e just above its largest magnitude.
        e = int(np.frexp(np.max(np.abs(data[:, 1])))[1])
        small, small_offset, small_scale = standardize(
            FeatureMatrix.from_arrays(["big"], np.ldexp(data[:, [1]], -e))
        )
        assert out.data[:, 1].tobytes() == small.data[:, 0].tobytes()
        assert offset[1] == np.ldexp(small_offset[0], e)
        assert scale[1] == np.ldexp(small_scale[0], e)
        # The other columns keep their bits.
        rest, rest_offset, rest_scale = standardize(
            FeatureMatrix.from_arrays(["a", "c"], data[:, [0, 2]])
        )
        assert out.data[:, [0, 2]].tobytes() == rest.data.tobytes()
        assert (offset[[0, 2]] == rest_offset).all() and (scale[[0, 2]] == rest_scale).all()


class TestSyntheticSpec:
    def test_default_names(self):
        spec = SyntheticSpec(n=10, coefficients=(1.0, 2.0))
        assert spec.names == ("x1", "x2")

    def test_name_count_mismatch(self):
        with pytest.raises(SyntheticSpecError):
            SyntheticSpec(n=10, coefficients=(1.0,), names=("a", "b"))

    def test_asymmetric_correlation_rejected(self):
        corr = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(SyntheticSpecError, match="symmetric"):
            SyntheticSpec(n=10, coefficients=(1.0, 2.0), correlation=corr)

    def test_unknown_nonlinear_feature(self):
        with pytest.raises(SyntheticSpecError, match="unknown feature"):
            SyntheticSpec(
                n=10,
                coefficients=(1.0,),
                nonlinear=(NonlinearTerm("zz", "squared", 1.0),),
            )

    def test_unknown_nonlinear_kind(self):
        with pytest.raises(SyntheticSpecError, match="kind"):
            NonlinearTerm("x1", "cubed", 1.0)


class TestGenerateSynthetic:
    def test_irrelevant_feature_is_provably_irrelevant(self):
        # With beta=(1,0) and no noise, refitting without x2 must not change
        # the training MSE at all.
        spec = SyntheticSpec(n=200, coefficients=(1.0, 0.0), noise_sd=0.0, seed=3)
        X, y, order = generate_synthetic(spec)
        assert order == ("x1", "x2")
        full = fit_ridge(X, y, lam=0.0)
        mse_full = float(np.mean((full.predict(X) - y) ** 2))
        reduced = X.drop("x2")
        refit = fit_ridge(reduced, y, lam=0.0)
        mse_reduced = float(np.mean((refit.predict(reduced) - y) ** 2))
        assert abs(mse_full - mse_reduced) <= 1e-20

    def test_seed_determinism(self):
        spec = SyntheticSpec(n=50, coefficients=(1.0, 2.0), noise_sd=0.5, seed=9)
        X1, y1, _ = generate_synthetic(spec)
        X2, y2, _ = generate_synthetic(spec)
        np.testing.assert_array_equal(X1.as_array(), X2.as_array())
        np.testing.assert_array_equal(y1, y2)

    def test_non_pd_correlation_rejected(self):
        corr = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
        spec = SyntheticSpec(n=20, coefficients=(1.0, 1.0), correlation=corr)
        with pytest.raises(SyntheticSpecError, match="Cholesky"):
            generate_synthetic(spec)

    def test_correlation_is_realized(self):
        corr = np.eye(2)
        corr[0, 1] = corr[1, 0] = 0.9
        spec = SyntheticSpec(n=20000, coefficients=(1.0, 0.0), correlation=corr, seed=4)
        X, _, _ = generate_synthetic(spec)
        empirical = np.corrcoef(X.as_array().T)[0, 1]
        assert empirical == pytest.approx(0.9, abs=0.02)

    def test_importance_order_ties_and_sign(self):
        spec = SyntheticSpec(n=10, coefficients=(-3.0, 1.0, 1.0))
        _, _, order = generate_synthetic(spec)
        assert order == ("x1", "x2", "x3")

    def test_nonlinear_terms_unknown_order(self):
        spec = SyntheticSpec(
            n=50,
            coefficients=(0.0, 1.0),
            nonlinear=(NonlinearTerm("x1", "squared", 1.0),),
            seed=2,
        )
        X, y, order = generate_synthetic(spec)
        assert order is None
        # y really contains the squared contribution.
        x1, x2 = X.data.T
        np.testing.assert_allclose(y, x2 + x1**2, rtol=1e-12)


class TestSchemaFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "schema.txt"
        p.write_text("# roles\nincome=feature\ngender=feature:categorical\nlimit=target\nrow_id=ignore\n")
        schema = parse_schema_file(p)
        assert schema.spec_for("gender").kind == "categorical"
        assert schema.target_column() == "limit"
        assert schema.spec_for("row_id").role == "ignore"
        assert schema.spec_for("unlisted").role == "feature"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "schema.txt"
        p.write_text("target=target\n", encoding="utf-8-sig")
        schema = parse_schema_file(p)
        assert schema.with_target("target").target_column() == "target"

    def test_bad_line(self, tmp_path):
        p = tmp_path / "schema.txt"
        p.write_text("income\n")
        with pytest.raises(DataError, match="line 1"):
            parse_schema_file(p)

    def test_not_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "schema.txt"
        p.write_bytes(b"a=feature\ncaf\xe9=ignore\n")
        with pytest.raises(DataError, match=re.escape(f"{p} line 2 is not UTF-8")):
            parse_schema_file(p)

    def test_bad_role(self, tmp_path):
        p = tmp_path / "schema.txt"
        p.write_text("a=wildcard\n")
        with pytest.raises(DataError, match="role"):
            parse_schema_file(p)

    def test_two_targets_rejected(self):
        schema = DatasetSchema(
            {"a": ColumnSpec(role="target"), "b": ColumnSpec(role="target")}
        )
        with pytest.raises(DataError, match="2 target"):
            schema.target_column()


class TestSyntheticSpecFile:
    def test_parse_full(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text(
            "n=100\n"
            "coefficients=4,2,1,0\n"
            "names=a,b,c,d\n"
            "noise_sd=0.1\n"
            "seed=7\n"
            "corr=a,b,0.5\n"
            "nonlinear=c,squared,0.25\n"
        )
        spec = parse_synthetic_spec(p)
        assert spec.n == 100
        assert spec.coefficients == (4.0, 2.0, 1.0, 0.0)
        assert spec.names == ("a", "b", "c", "d")
        assert spec.correlation[0, 1] == 0.5
        assert spec.correlation[1, 0] == 0.5
        assert spec.nonlinear[0] == NonlinearTerm("c", "squared", 0.25)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("n=10\ncoefficients=1\n", encoding="utf-8-sig")
        assert parse_synthetic_spec(p).n == 10

    def test_not_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_bytes(b"n=10\ncoefficients=1\nnames=caf\xe9\n")
        with pytest.raises(SyntheticSpecError, match=re.escape(f"{p} line 3 is not UTF-8")):
            parse_synthetic_spec(p)

    def test_missing_required(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("n=100\n")
        with pytest.raises(SyntheticSpecError, match="coefficients"):
            parse_synthetic_spec(p)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("n=10\ncoefficients=1\nwat=1\n")
        with pytest.raises(SyntheticSpecError, match="wat"):
            parse_synthetic_spec(p)

    def test_corr_unknown_feature(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("n=10\ncoefficients=1,2\ncorr=x1,zz,0.5\n")
        with pytest.raises(SyntheticSpecError, match="unknown feature"):
            parse_synthetic_spec(p)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=10\ncoefficients=1,2\nbogus\n", "spec line 3 is not key=value: 'bogus'"),
            ("corr=x1,x2\nbogus\n", "spec line 2 is not key=value: 'bogus'"),
            ("corr=x1,x2\n", "spec line 1: corr needs name1,name2,rho"),
            ("CORR = x1, x2, high\n", "spec line 1: bad correlation 'high'"),
            ("nonlinear=x1,squared\n", "spec line 1: nonlinear needs name,kind,coef"),
            ("nonlinear=x1,squared,big\n", "spec line 1: bad coefficient 'big'"),
            ("n=10\nn=11\n", "spec line 2 repeats key 'n'"),
        ],
    )
    def test_bad_line_message(self, tmp_path, text, message):
        # A line without '=' is refused before any earlier value is parsed.
        p = tmp_path / "spec.txt"
        p.write_text(text)
        with pytest.raises(SyntheticSpecError) as info:
            parse_synthetic_spec(p)
        assert str(info.value) == message
