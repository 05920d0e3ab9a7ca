import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazeconcepts.binning import BinnedInfluence
from gazeconcepts.errors import ConfigError
from gazeconcepts.influence import InfluenceResult
from gazeconcepts.report import (
    _escape,
    render_bar_chart,
    render_line_chart,
    summarize,
    write_report_json,
)


def _corpus(concept, c, c_mean=None, inter=50, L=10_000, S=800, k=200, windows=10):
    return InfluenceResult(
        concept, "corpus", inter, c, L, S, k, c_mean=c_mean if c_mean is not None else c,
        n_windows=windows,
    )


def _doc():
    concepts = {
        "saccade": (_corpus("saccade", 4.5), 0),
        "fixation": (_corpus("fixation", 0.02, inter=3), 1),
    }
    binned = {
        "saccade_duration_ms": [
            BinnedInfluence("saccade_duration_ms", 9.0, 50.0, "bin", 10, 300,
                            _corpus("saccade_duration_ms", 3.0)),
            BinnedInfluence("saccade_duration_ms", 50.0, 100.0, "bin", 5, 150,
                            _corpus("saccade_duration_ms", 0.5)),
            BinnedInfluence("saccade_duration_ms", 100.0, float("inf"), "overflow", 0, 0, None),
        ]
    }
    return summarize({"top_frac": 0.02}, {"windows": {"evaluated": 10}}, concepts, binned)


def test_summarize_minimal_block():
    doc = _doc()
    sac = doc["concepts"]["saccade"]
    assert sac["c_pooled"] == 4.5
    assert sac["top_k_intersection"] == 50
    assert sac["segmentation_size"] == 800
    assert sac["relative_size"] == pytest.approx(800 / 10_000)
    assert sac["windows"] == 10 and sac["windows_skipped"] == 0
    assert doc["parameters"]["top_frac"] == 0.02
    assert doc["bins"]["saccade_duration_ms"][2]["c_pooled"] is None


def test_summarize_requires_results():
    with pytest.raises(ConfigError):
        summarize({}, {}, {"saccade": (None, 3)}, {})


def test_report_json_deterministic(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report_json(_doc(), p1)
    write_report_json(_doc(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_relative_size_recomputes_from_masks():
    rng = np.random.default_rng(2)
    mask = rng.random(5000) < 0.3
    size, L = int(mask.sum()), 5000
    r = InfluenceResult("saccade", "corpus", 10, 1.0, L, size, 100, c_mean=1.0)
    doc = summarize({}, {}, {"saccade": (r, 0)}, {})
    assert abs(doc["concepts"]["saccade"]["relative_size"] - size / L) < 1e-9


def _chart_values(path):
    return [float(m) for m in re.findall(r'data-value="([^"]+)"', path.read_text())]


def test_bar_chart_two_concepts(tmp_path):
    p = tmp_path / "bar.svg"
    render_bar_chart([_corpus("saccade", 4.5), _corpus("fixation", 0.02)], p)
    root = ET.fromstring(p.read_text())  # valid XML
    assert root.tag.endswith("svg")
    bars = [e for e in root.iter() if e.tag.endswith("rect") and e.get("data-value")]
    assert len(bars) == 2
    text = p.read_text()
    assert "saccade" in text and "fixation" in text and "concept influence" in text


def test_chart_values_present_in_report(tmp_path):
    doc = _doc()
    concepts = [_corpus("saccade", 4.5), _corpus("fixation", 0.02, inter=3)]
    p = tmp_path / "bar.svg"
    render_bar_chart(concepts, p)
    reported = {doc["concepts"][c]["c_pooled"] for c in doc["concepts"]}
    for v in _chart_values(p):
        assert v in reported


def test_line_chart_reference_line_and_determinism(tmp_path):
    rows = [
        BinnedInfluence("saccade_duration_ms", float(lo), float(lo + 10), "bin", 5, 100,
                        _corpus("saccade_duration_ms", c))
        for lo, c in ((0, 0.0), (10, 1.5), (20, 3.0), (30, 0.4))
    ]
    p1, p2 = tmp_path / "l1.svg", tmp_path / "l2.svg"
    render_line_chart(rows, p1)
    render_line_chart(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert 'class="reference-line"' in text  # c = 1 marker
    assert "saccade_duration_ms" in text
    ET.fromstring(text)
    assert len(_chart_values(p1)) == 4


def test_empty_chart_inputs_rejected(tmp_path):
    with pytest.raises(ConfigError):
        render_bar_chart([], tmp_path / "x.svg")
    with pytest.raises(ConfigError):
        render_line_chart([], tmp_path / "y.svg")


def test_bar_chart_identical_bytes(tmp_path):
    results = [_corpus("saccade", 4.5), _corpus("fixation", 0.02)]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_bar_chart(results, p1)
    render_bar_chart(results, p2)
    assert p1.read_bytes() == p2.read_bytes()


@given(st.text() | st.text(alphabet="&<>;amplt#x "))
@settings(max_examples=500, deadline=None)
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)


def test_chart_with_markup_in_labels_parses(tmp_path):
    p = tmp_path / "bar.svg"
    title = "a & b <c> d &amp;"
    render_bar_chart([_corpus("sac<&>cade", 4.5), _corpus("fixation", 0.02)], p, title=title)
    root = ET.fromstring(p.read_text())
    texts = [e.text for e in root.iter() if e.tag.endswith(("title", "text"))]
    assert title in texts and "sac<&>cade" in texts
