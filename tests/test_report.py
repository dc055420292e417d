import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from oproj.adapters import InProcessModel
from oproj.dataio import ColumnSpec, DatasetSchema
from oproj.linalg import FeatureMatrix
from oproj.ranking import AuditConfig, rank_all
from oproj.report import (
    aggregate_categorical_groups,
    build_document,
    render_svg,
    write_csv,
    write_json,
)
from oproj.surrogate import FidelityScore


@pytest.fixture
def sample_report(rng):
    data = rng.standard_normal((100, 3))
    m = FeatureMatrix.from_arrays(["age", "g=F", "g=M"], data)
    h = InProcessModel(lambda a: a @ np.array([2.0, 1.0, 0.25]))
    return rank_all(h, m, AuditConfig(seed=5))


def make_doc(report, **kwargs):
    defaults = dict(
        target_policy="captured",
        model_descriptor="in-process:test",
        data_descriptor="test.csv",
        generated_at="2026-01-01T00:00:00+00:00",
    )
    defaults.update(kwargs)
    return build_document(report, **defaults)


class TestJsonDocument:
    def test_payload_shape(self, sample_report):
        payload = make_doc(sample_report)
        assert payload["format_version"] == "1"
        assert payload["baseline"] == 0.0
        assert payload["metric_kind"] == "mse"
        assert payload["config"]["seed"] == 5
        assert payload["config"]["transforms"]["poly_degrees"] == [2, 3]
        assert len(payload["entries"]) == 3
        assert payload["entries"][0]["normalized"] == 100.0
        assert payload["surrogate_fidelity"] is None
        assert payload["warnings"] == []

    def test_json_round_trips(self, sample_report, tmp_path):
        doc = make_doc(sample_report)
        path = write_json(doc, tmp_path / "report.json")
        assert json.loads(path.read_text()) == doc

    def test_payload_deterministic_except_timestamp(self, sample_report):
        a = make_doc(sample_report, generated_at="t1")
        b = make_doc(sample_report, generated_at="t2")
        a.pop("generated_at")
        b.pop("generated_at")
        assert a == b

    def test_fidelity_block(self, sample_report):
        fidelity = FidelityScore("r2", 0.998, split_seed=5, holdout_fraction=0.2, n_holdout=20)
        payload = make_doc(sample_report, fidelity=fidelity)
        assert payload["surrogate_fidelity"]["kind"] == "r2"
        assert payload["surrogate_fidelity"]["value"] == 0.998

    def test_write_json(self, sample_report, tmp_path):
        path = write_json(make_doc(sample_report), tmp_path / "report.json")
        assert json.loads(path.read_text())["format_version"] == "1"


class TestCsvReport:
    def test_rows_match_entries(self, sample_report, tmp_path):
        path = write_csv(make_doc(sample_report), tmp_path / "report.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "name,raw_delta,normalized,dropped_count,error"
        assert len(lines) == 1 + len(sample_report.entries)
        first = lines[1].split(",")
        assert first[0] == sample_report.entries[0].name
        assert float(first[2]) == 100.0


class TestSvgReport:
    def test_valid_xml_one_bar_per_feature(self, sample_report):
        svg = render_svg(make_doc(sample_report))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        bars = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(bars) == len([e for e in sample_report.entries if e.error is None])

    def test_bars_sorted_descending_and_top_labeled_100(self, sample_report):
        svg = render_svg(make_doc(sample_report))
        root = ET.fromstring(svg)
        widths = [float(el.get("width")) for el in root.iter() if el.tag.endswith("rect")]
        assert widths == sorted(widths, reverse=True)
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "100" in texts

    def test_escapes_names(self, rng):
        m = FeatureMatrix.from_arrays(["a<b&c", "ok"], rng.standard_normal((50, 2)))
        h = InProcessModel(lambda a: a[:, 0])
        report = rank_all(h, m, AuditConfig())
        svg = render_svg(make_doc(report))
        ET.fromstring(svg)  # must stay well-formed
        assert "a&lt;b&amp;c" in svg


class TestErroredEntries:
    @pytest.fixture
    def flaky_report(self, rng):
        from oproj.errors import AdapterError

        m = FeatureMatrix.from_arrays(["a", "b", "c"], rng.standard_normal((60, 3)))

        def flaky(arr):
            if np.ptp(arr[:, 1]) == 0.0:  # fails only when 'b' is audited
                raise AdapterError("backend exploded")
            return arr @ np.array([2.0, 1.0, 0.5])

        return rank_all(InProcessModel(flaky), m, AuditConfig())

    def test_svg_skips_errored_features(self, flaky_report):
        svg = render_svg(make_doc(flaky_report))
        root = ET.fromstring(svg)
        bars = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(bars) == 2

    def test_csv_blank_delta_with_message(self, flaky_report, tmp_path):
        path = write_csv(make_doc(flaky_report), tmp_path / "report.csv")
        row = [l for l in path.read_text().splitlines() if l.startswith("b,")][0]
        cells = row.split(",")
        assert cells[1] == "" and cells[2] == ""
        assert "exploded" in row

    def test_json_nulls_with_message(self, flaky_report):
        payload = make_doc(flaky_report)
        errored = [e for e in payload["entries"] if e["name"] == "b"][0]
        assert errored["raw_delta"] is None
        assert errored["normalized"] is None
        assert "exploded" in errored["error"]


class TestGroupAggregation:
    def test_one_hot_levels_rolled_up(self, sample_report):
        schema = DatasetSchema({"g": ColumnSpec(kind="categorical")})
        groups = aggregate_categorical_groups(sample_report, schema)
        assert len(groups) == 1
        g = groups[0]
        assert g["source"] == "g"
        assert set(g["levels"]) == {"g=F", "g=M"}
        level_raw = [sample_report.entry(n).raw_delta for n in g["levels"]]
        assert g["raw_delta_max"] == max(level_raw)

    def test_no_categoricals_returns_none(self, sample_report):
        assert aggregate_categorical_groups(sample_report, DatasetSchema()) is None
