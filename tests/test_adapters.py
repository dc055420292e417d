import io
import os
import shlex
import signal
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oproj.adapters as adapters
from conftest import fixture_command, needs_proc, process_gone
from oproj.adapters import (
    InProcessModel,
    SubprocessModel,
    format_matrix_csv,
    parse_prediction_lines,
)
from oproj.errors import (
    AdapterError,
    DimensionError,
    MalformedOutputError,
    ModelExitError,
    ModelTimeoutError,
    NonFinitePredictionError,
    RowCountMismatchError,
)
from oproj.linalg import FeatureMatrix
from oproj.ranking import AuditConfig, rank_all


def matrix(data, names=None):
    data = np.asarray(data, dtype=float)
    names = names or [f"x{j + 1}" for j in range(data.shape[1])]
    return FeatureMatrix.from_arrays(names, data)


def subprocess_model(script, *args, timeout=30.0):
    return SubprocessModel(fixture_command(script).split() + list(args), timeout=timeout)


class TestInProcessModel:
    def test_identity_on_single_column(self):
        m = matrix([[1.0], [2.0], [3.0]])
        h = InProcessModel(lambda a: a[:, 0])
        np.testing.assert_array_equal(h.predict_batch(m), [1, 2, 3])

    def test_wrong_output_length(self):
        m = matrix([[1.0], [2.0]])
        h = InProcessModel(lambda a: a[:1, 0])
        with pytest.raises(RowCountMismatchError):
            h.predict_batch(m)

    def test_non_finite_output_carries_row(self):
        m = matrix([[1.0], [2.0], [3.0]])

        def fn(a):
            out = a[:, 0].copy()
            out[1] = np.nan
            return out

        with pytest.raises(NonFinitePredictionError) as info:
            InProcessModel(fn).predict_batch(m)
        assert info.value.row == 1

    def test_callable_exception_becomes_an_adapter_error(self):
        m = matrix([[1.0], [2.0]])

        def broken(a):
            raise ValueError("bad batch")

        with pytest.raises(AdapterError, match="callable raised ValueError: bad batch") as info:
            InProcessModel(broken).predict_batch(m)
        assert isinstance(info.value.__cause__, ValueError)

    def test_callable_adapter_error_and_interrupt_pass_through(self):
        m = matrix([[1.0], [2.0]])
        for raised in (NonFinitePredictionError("inf", row=0), KeyboardInterrupt()):

            def fn(a, raised=raised):
                raise raised

            with pytest.raises(type(raised)) as info:
                InProcessModel(fn).predict_batch(m)
            assert info.value is raised

    def test_callable_may_overwrite_its_input(self, rng):
        m = matrix(rng.standard_normal((300, 4)))
        w = np.array([3.0, -1.0, 0.5, 2.0])

        def scribbler(a):
            pred = a @ w
            a[:] = 0.0
            return pred

        clean = rank_all(InProcessModel(lambda a: a @ w), m, AuditConfig())
        scribbled = rank_all(InProcessModel(scribbler), m, AuditConfig())
        assert scribbled.baseline == clean.baseline
        assert scribbled.entries == clean.entries

    def test_callable_gets_a_fresh_row_major_array_per_query(self, rng):
        m = matrix(rng.standard_normal((300, 4)))
        seen = []

        def fn(a):
            seen.append(a)
            return a[:, 0].copy()

        rank_all(InProcessModel(fn), m, AuditConfig())
        assert len(seen) == m.k + 1
        for i, a in enumerate(seen):
            assert a.shape == (m.n, m.k) and a.dtype == np.float64
            assert a.flags.c_contiguous and a.flags.writeable
            assert not np.shares_memory(a, m.data)
            assert not any(np.shares_memory(a, b) for b in seen[:i])

    @pytest.mark.parametrize(
        "rows",
        [np.zeros((3, 2), order="F"), np.zeros((3, 3)), np.zeros((3, 2), dtype=np.float32)],
        ids=["column-major", "wrong-width", "float32"],
    )
    def test_launch_refuses_rows_of_another_layout(self, rows):
        h = InProcessModel(lambda a: a[:, 0])
        with pytest.raises(DimensionError, match="writable C-order float64 n x 2"):
            h.launch(("a", "b"), rows)


# Every spelling the encoder must match: any float (subnormals, +-0.0, nan,
# inf), magnitudes on both sides of 1e-9, 1e-4 and 1e16, and whole numbers.
WIRE_FLOATS = st.one_of(
    st.floats(),
    st.floats(-1e-4, 1e-4),
    st.floats(-1e-8, 1e-8),
    st.floats(1e-4, 1e16) | st.floats(-1e16, -1e-4),
    st.floats(min_value=1e16) | st.floats(max_value=-1e16),
    st.integers(-(2**53), 2**53).map(float),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-9, 9.999999999999999e-10, 1e-4,
         9.999999999999999e-05, 1e16, 9999999999999998.0, float("nan"),
         float("inf"), float("-inf")]
    ),
)  # fmt: skip


@st.composite
def wire_matrices(draw):
    # 0 rows, a few rows, or more than one 1024-row block.
    rows = draw(st.integers(0, 4) | st.integers(1023, 1100))
    shape = (rows, draw(st.integers(1, 4)))
    # An explicit fill lets a large array draw only some of its cells: the
    # mapped whole numbers would otherwise make hypothesis draw every cell.
    data = draw(
        hnp.arrays(np.float64, shape, elements=WIRE_FLOATS, fill=st.floats())
    )
    # FeatureMatrix stores its array column-major.
    return np.asfortranarray(data) if draw(st.booleans()) else data


def _unparseable(line):
    if line.splitlines() != [line] or not line.strip():
        return False
    try:
        float(line)
    except ValueError:
        return True
    return False


@st.composite
def prediction_replies(draw):
    """A model's stdout: its text, its prediction lines, the row count the
    parser is told to expect, and the row of the one garbage line or None."""
    pad = st.sampled_from(["", " ", "\t", "  "])
    lines = [draw(pad) + repr(v) + draw(pad) for v in draw(st.lists(st.floats()))]
    expected_rows = len(lines)
    garbage_row = None
    mode = draw(st.sampled_from(["ok", "garbage", "count"]))
    if mode == "garbage" and lines:
        garbage_row = draw(st.integers(0, len(lines) - 1))
        garbage = draw(st.text(min_size=1, max_size=8).filter(_unparseable))
        lines[garbage_row] = draw(pad) + garbage + draw(pad)
    elif mode == "count":
        expected_rows += draw(st.integers(-len(lines), 3).filter(bool))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    blanks = draw(st.lists(pad, max_size=3))
    text = "".join(line + eol for line in lines + blanks)
    if draw(st.booleans()):
        text = text.removesuffix(eol)
    return text, lines, expected_rows, garbage_row


class TestWireFormat:
    def test_round_trip_is_exact(self, rng):
        scales = 10.0 ** rng.integers(-8, 8, (25, 4)).astype(float)
        m = matrix(rng.standard_normal((25, 4)) * scales)
        buf = io.BytesIO()
        format_matrix_csv(m.names, m.data, buf)
        text = buf.getvalue().decode()
        lines = text.splitlines()
        assert lines[0] == ",".join(m.names)
        parsed = np.array(
            [[float(c) for c in line.split(",")] for line in lines[1:]]
        )
        np.testing.assert_array_equal(parsed, m.as_array())

    def test_matches_per_value_repr_across_blocks(self, rng):
        # More rows than one encoded block, in column-major storage.
        m = matrix(rng.standard_normal((2100, 3)) * 1e3)
        buf = io.BytesIO()
        format_matrix_csv(m.names, m.data, buf)
        reference = "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in m.as_array()
        )
        assert buf.getvalue().decode() == "x1,x2,x3\n" + reference

    def test_matches_repr_where_orjson_spells_its_own_way(self):
        # Each band orjson spells differently, the values just outside it,
        # and rows holding several such cells next to ordinary ones.
        edges = [1e-10, 9.999999999999999e-10, 1e-9, 1.2e-7, 9.5e-6, 1e-5,
                 1.5e-5, 9.999999999999999e-05, 1e-4, 9999999999999998.0,
                 1e16, 1.7e18, 1e300, 5e-324, 0.0, float("nan"), float("inf")]  # fmt: skip
        values = np.array(edges + [-v for v in edges])
        data = np.column_stack([values, np.roll(values, 3), np.full(values.size, 2.5)])
        buf = io.BytesIO()
        format_matrix_csv(["a", "b", "c"], data, buf)
        reference = "".join(",".join(map(repr, row)) + "\n" for row in data.tolist())
        assert buf.getvalue().decode() == "a,b,c\n" + reference

    @settings(max_examples=150, deadline=None)
    @given(data=wire_matrices())
    def test_matches_per_value_repr_hypothesis(self, data):
        buf = io.BytesIO()
        names = [f"x{j + 1}" for j in range(data.shape[1])]
        format_matrix_csv(names, data, buf)
        reference = "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in data
        )
        text = buf.getvalue().decode()
        # Line by line, so that a failure's message stays cheap to build.
        lines = text.split("\n")
        expected = (",".join(names) + "\n" + reference).split("\n")
        assert len(lines) == len(expected)
        for line, want in zip(lines, expected):
            assert line == want
        parsed = np.array(
            [[float(c) for c in line.split(",")] for line in text.splitlines()[1:]]
        ).reshape(data.shape)
        nan = np.isnan(data)
        np.testing.assert_array_equal(np.isnan(parsed), nan)
        # Bit for bit, so that -0.0 and 0.0 differ.
        assert parsed[~nan].tobytes() == data[~nan].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=prediction_replies())
    def test_parse_matches_per_line_float_hypothesis(self, case):
        text, lines, expected_rows, garbage_row = case
        # The garbage lines hold no line break, so the reply's bytes split
        # into the same rows as its text.
        for reply in (text, text.encode("utf-8")):
            if expected_rows != len(lines):
                with pytest.raises(RowCountMismatchError):
                    parse_prediction_lines(reply, expected_rows)
            elif garbage_row is not None:
                with pytest.raises(MalformedOutputError) as info:
                    parse_prediction_lines(reply, expected_rows)
                assert info.value.row == garbage_row
            else:
                out = parse_prediction_lines(reply, expected_rows)
                reference = np.array([float(line) for line in lines], dtype=np.float64)
                assert out.tobytes() == reference.tobytes()

    def test_parse_prediction_lines(self):
        out = parse_prediction_lines("1.5\n-2.25\n3e-4\n", 3)
        np.testing.assert_array_equal(out, [1.5, -2.25, 3e-4])

    def test_parse_tolerates_trailing_blank(self):
        out = parse_prediction_lines("1\n2\n\n\n", 2)
        np.testing.assert_array_equal(out, [1, 2])

    def test_parse_wrong_count(self):
        with pytest.raises(RowCountMismatchError):
            parse_prediction_lines("1\n2\n", 3)

    def test_parse_malformed_names_row(self):
        with pytest.raises(MalformedOutputError) as info:
            parse_prediction_lines("1\nxyz\n3\n", 3)
        assert info.value.row == 1

    @pytest.mark.parametrize("line", [b"\xff", "\u0661".encode(), "\xa01".encode()])
    def test_parse_refuses_a_line_that_is_not_an_ascii_decimal(self, line):
        # A byte that is not UTF-8, an Arabic-Indic digit one, and a 1
        # padded with a no-break space.
        with pytest.raises(MalformedOutputError, match="row 1") as info:
            parse_prediction_lines(b"1\n" + line + b"\n3\n", 3)
        assert info.value.row == 1

    def test_parse_quotes_a_bounded_prefix_of_a_long_line(self):
        # Binary output holds few LF bytes, so one "line" can be most of it.
        with pytest.raises(MalformedOutputError) as info:
            parse_prediction_lines(b"\x80" * 100_000 + b"\n", 1)
        assert len(str(info.value)) < 500


class TestSubprocessModel:
    def test_echo_sum_oracle(self):
        # Oracle: direct row addition.
        m = matrix([[1.0, 2.0], [3.0, 4.0]])
        h = subprocess_model("sum_model.py")
        np.testing.assert_allclose(h.predict_batch(m), [3.0, 7.0], rtol=1e-15)

    def test_linear_fixture(self, rng):
        data = rng.standard_normal((10, 4))
        m = matrix(data)
        h = subprocess_model("linear_model.py")
        expected = data @ np.array([4.0, 2.0, 1.0, 0.0])
        np.testing.assert_allclose(h.predict_batch(m), expected, rtol=1e-12)

    def test_short_output_rejected(self):
        m = matrix([[1.0], [2.0], [3.0]])
        h = subprocess_model("misbehaving_model.py", "short")
        with pytest.raises(RowCountMismatchError):
            h.predict_batch(m)

    def test_malformed_line_rejected(self):
        m = matrix([[1.0], [2.0], [3.0]])
        h = subprocess_model("misbehaving_model.py", "malformed")
        with pytest.raises(MalformedOutputError) as info:
            h.predict_batch(m)
        assert info.value.row == 1

    def test_nonfinite_rejected(self):
        m = matrix([[1.0], [2.0]])
        h = subprocess_model("misbehaving_model.py", "nonfinite")
        with pytest.raises(NonFinitePredictionError):
            h.predict_batch(m)

    def test_nonzero_exit_rejected(self):
        m = matrix([[1.0], [2.0]])
        h = subprocess_model("misbehaving_model.py", "fail")
        with pytest.raises(ModelExitError, match="status 3"):
            h.predict_batch(m)

    def test_nonzero_exit_quotes_the_end_of_a_long_stderr(self):
        # 10 KB of noise, then the line that says what went wrong.
        m = matrix([[1.0], [2.0]])
        h = subprocess_model("misbehaving_model.py", "noisy")
        with pytest.raises(ModelExitError, match="status 3") as info:
            h.predict_batch(m)
        message = str(info.value)
        assert message.endswith("ValueError: the real cause")
        assert "noise line 0000" not in message
        assert len(message) < 1000

    def test_timeout(self):
        m = matrix([[1.0], [2.0]])
        h = subprocess_model("misbehaving_model.py", "hang", timeout=1.0)
        with pytest.raises(ModelTimeoutError):
            h.predict_batch(m)

    @needs_proc
    def test_timeout_kills_the_whole_process_group(self, tmp_path):
        pidfile = tmp_path / "grandchild.pid"
        hang = f"{shlex.quote(sys.executable)} -c 'import time; time.sleep(60)'"
        script = f"{hang} & echo $! > {shlex.quote(str(pidfile))}; wait"
        h = SubprocessModel(("sh", "-c", script), timeout=1.0)
        with pytest.raises(ModelTimeoutError):
            h.predict_batch(matrix([[1.0], [2.0]]))
        pid = int(pidfile.read_text())
        try:
            assert process_gone(pid), "the model's child outlived the timeout"
        finally:
            if not process_gone(pid, within=0.0):
                os.kill(pid, signal.SIGKILL)

    @needs_proc
    @pytest.mark.parametrize(
        "outcome, error",
        [("ok", None), ("fail", ModelExitError), ("malformed", MalformedOutputError)],
    )
    def test_model_children_die_once_the_model_has_exited(self, tmp_path, outcome, error):
        h = subprocess_model("misbehaving_model.py", "orphan", str(tmp_path), outcome)
        m = matrix([[1.0, 2.0], [3.0, 4.0]])
        if error is None:
            np.testing.assert_array_equal(h.predict_batch(m), [3.0, 7.0])
        else:
            with pytest.raises(error):
                h.predict_batch(m)
        (pidfile,) = tmp_path.glob("*.pid")
        pid = int(pidfile.stem)
        try:
            assert process_gone(pid), "the model's child outlived its reply"
        finally:
            if not process_gone(pid, within=0.0):
                os.kill(pid, signal.SIGKILL)

    @needs_proc
    def test_interrupt_while_collecting_kills_the_model_group(self, tmp_path, monkeypatch):
        h = subprocess_model("misbehaving_model.py", "orphan", str(tmp_path), "ok")
        running = h.launch(("x1", "x2"), np.array([[1.0, 2.0], [3.0, 4.0]]))
        deadline = time.monotonic() + 10.0
        while not list(tmp_path.glob("*.pid")) and time.monotonic() < deadline:
            time.sleep(0.01)
        (pidfile,) = tmp_path.glob("*.pid")
        pid = int(pidfile.stem)

        def interrupted(proc):
            raise KeyboardInterrupt

        monkeypatch.setattr(adapters, "_has_exited", interrupted)
        try:
            with pytest.raises(KeyboardInterrupt):
                h.collect(running)
            assert process_gone(pid), "the model's child outlived the interrupt"
            assert running.proc.returncode is not None, "the model was not reaped"
        finally:
            if not process_gone(pid, within=0.0):
                os.kill(pid, signal.SIGKILL)

    def test_reply_over_the_cap_refused(self):
        # Two rows may take 4096 + 2 * 256 bytes; the reply is over 1 MB.
        h = subprocess_model("misbehaving_model.py", "flood")
        with pytest.raises(MalformedOutputError, match="over the cap of 4608 bytes"):
            h.predict_batch(matrix([[1.0], [2.0]]))

    def test_model_killed_by_a_signal_names_it(self):
        h = SubprocessModel(("sh", "-c", "kill -9 $$"))
        with pytest.raises(ModelExitError, match=r"was killed by signal 9 \(SIGKILL\)$"):
            h.predict_batch(matrix([[1.0], [2.0]]))

    def test_missing_executable(self):
        m = matrix([[1.0], [2.0]])
        h = SubprocessModel(("/no/such/model-binary",))
        with pytest.raises(AdapterError, match="no/such/model-binary"):
            h.predict_batch(m)

    @pytest.mark.parametrize(
        "field, value",
        [("timeout", 0.0), ("timeout", float("nan")), ("timeout", float("inf")),
         ("timeout", 1e300)],
    )  # fmt: skip
    def test_spec_refuses_a_budget_that_cannot_work(self, field, value):
        with pytest.raises(ValueError, match=field):
            SubprocessModel(("model",), **{field: value})


class TestCaptureOutputs:
    """rank_all's first query captures the model's outputs on the original
    matrix, and with check_repeatability a second capture is compared to it."""

    def test_matches_predict_batch_exactly(self, rng):
        m = matrix(rng.standard_normal((20, 3)))
        h = InProcessModel(lambda a: a @ np.array([1.0, -2.0, 0.5]))
        report = rank_all(h, m, AuditConfig())
        np.testing.assert_array_equal(report.target, h.predict_batch(m))
        assert report.warnings == ()

    def test_repeatability_check_flags_jitter(self, rng):
        m = matrix(rng.standard_normal((15, 2)))
        jitter_rng = np.random.default_rng(0)

        def noisy(a):
            return a[:, 0] + 1e-6 * jitter_rng.standard_normal(a.shape[0])

        cfg = AuditConfig(check_repeatability=True)
        report = rank_all(InProcessModel(noisy), m, cfg)
        assert any("not repeatable" in w for w in report.warnings)

    def test_repeatability_check_passes_deterministic(self, rng):
        m = matrix(rng.standard_normal((15, 2)))
        h = InProcessModel(lambda a: a[:, 0])
        report = rank_all(h, m, AuditConfig(check_repeatability=True))
        assert report.warnings == ()
