import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazeconcepts import io as gio

from gazeconcepts.binning import BinnedInfluence, read_binned, write_binned
from gazeconcepts.detect import GazeEvent
from gazeconcepts.errors import (
    AlignmentError,
    ConfigError,
    DataError,
    FormatError,
)
from gazeconcepts.influence import InfluenceResult, topk_segmentation
from gazeconcepts.io import (
    AttributionMap,
    load_attribution,
    load_gaze_csv,
    load_manifest,
    read_events,
    read_report,
    read_subevents,
    read_table,
    read_topk,
    read_windows,
    select_eye,
    validate_attribution,
    write_attribution,
    write_events,
    write_gaze_csv,
    write_report,
    write_subevents,
    write_table,
    write_topk,
    write_windows,
)
from gazeconcepts.dissect import SubEvent
from gazeconcepts.synth import random_plan, gen_scanpath

from conftest import build_window


def test_trivial_three_rows(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("t_ms,x_deg,y_deg\n0,0,0\n1,0,0\n2,0,0\n")
    rec = load_gaze_csv(p)
    assert rec.n_samples == 3
    assert rec.eye == "mono"
    assert not np.isnan(rec.x_deg).any()
    np.testing.assert_array_equal(rec.t_ms, [0, 1, 2])


def test_header_only_file_has_no_samples(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("t_ms,x_deg,y_deg\n")
    rec = load_gaze_csv(p)
    assert rec.n_samples == 0 and rec.x_deg.shape == (0,)


@pytest.mark.parametrize("token", ["NaN", "nan", ".", ""])
def test_missing_tokens_normalized(tmp_path, token):
    p = tmp_path / "g.csv"
    p.write_text(f"t_ms,x_deg,y_deg\n0,{token},1.0\n1,2.0,3.0\n")
    rec = load_gaze_csv(p)
    assert math.isnan(rec.x_deg[0]) and math.isnan(rec.y_deg[0])  # coupled
    assert rec.x_deg[1] == 2.0


def test_unparseable_coordinate_becomes_missing(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("t_ms,x_deg,y_deg\n0,abc,1.0\n1,2.0,3.0\n")
    rec = load_gaze_csv(p)
    assert math.isnan(rec.x_deg[0]) and math.isnan(rec.y_deg[0])


def test_synth_roundtrip_bit_identical(tmp_path):
    plan = random_plan(7, 10.0, noise_sigma_deg=0.003)
    rec, _ = gen_scanpath(plan, seed=7, recording_id="r")
    assert rec.n_samples >= 10_000
    p = tmp_path / "r.csv"
    write_gaze_csv(rec, p)
    back = load_gaze_csv(p)
    np.testing.assert_array_equal(back.t_ms, rec.t_ms)
    np.testing.assert_array_equal(back.x_deg, rec.x_deg)
    np.testing.assert_array_equal(back.y_deg, rec.y_deg)
    p2 = tmp_path / "r2.csv"
    write_gaze_csv(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_non_monotone_timestamps_error(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("t_ms,x_deg,y_deg\n0,0,0\n2,0,0\n1,0,0\n4,0,0\n")
    with pytest.raises(DataError, match="line 4"):
        load_gaze_csv(p)


def test_unparseable_timestamp_error(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("t_ms,x_deg,y_deg\n0,0,0\nxx,0,0\n")
    with pytest.raises(DataError, match="line 3"):
        load_gaze_csv(p)


def test_empty_file_and_bad_header(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DataError):
        load_gaze_csv(p)
    p2 = tmp_path / "bad.csv"
    p2.write_text("time,x,y\n0,0,0\n")
    with pytest.raises(FormatError):
        load_gaze_csv(p2)
    # but a schema mapping makes it loadable
    rec = load_gaze_csv(p2, schema={"t_ms": "time", "x_deg": "x", "y_deg": "y"})
    assert rec.n_samples == 1


def test_row_conservation_with_blank_lines(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("t_ms,x_deg,y_deg\n0,0,0\n\n1,0,0\n\n\n2,0,0\n")
    rec = load_gaze_csv(p)
    body_lines = 6
    assert rec.n_samples + int(rec.source_meta["skipped_rows"]) == body_lines


def test_short_row_is_format_error(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("t_ms,x_deg,y_deg\n0,0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_gaze_csv(p)


def test_extra_field_is_format_error(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("t_ms,x_deg,y_deg\n0,1.0,2.0\n1,1.0,2.0,99\n")
    with pytest.raises(FormatError, match="line 3 has 4 fields, expected 3"):
        load_gaze_csv(p)


def _load_outcome(path, schema):
    """What load_gaze_csv gives: the exception's type and message, or
    the eye, t_ms, every eye's coordinates (bitwise) and skipped rows."""
    try:
        rec = load_gaze_csv(path, schema)
    except Exception as e:  # compared, not handled
        return type(e), str(e)
    eyes = {k: (x.tobytes(), y.tobytes()) for k, (x, y) in rec.eyes.items()}
    return rec.eye, rec.t_ms.dtype, rec.t_ms.tobytes(), eyes, rec.source_meta


COORD_TOKENS = st.one_of(
    st.floats(allow_nan=False, width=64).map(repr),
    st.sampled_from(["", ".", "nan", "NaN", "inf", "-inf", " 1.5 ", "2e3", "abc",
                     '"2.0"', '"1,5"', "1_0", "-0"]),
)
TIME_TOKENS = st.one_of(
    st.integers(-10, 20).map(str),
    st.sampled_from(["1.5", "x", "", " 7 ", "+3", "99999999999999999999"]),
)
EXTRA_TOKENS = st.sampled_from(['"x', '"', '"q,r"', 'b"c', ""])
PERTURBATIONS = ("coord", "time", "extra", "short", "long", "blank")


@st.composite
def gaze_files(draw):
    """(file text, schema): a well-formed gaze file (monocular or
    binocular, optionally renamed through a schema, optionally with an
    extra column) with up to three perturbed lines: a missing-value,
    whitespace, quoted or unparseable coordinate, a non-integer,
    overflowing or non-monotone timestamp, a quoted extra cell, a short
    or long row, a blank line."""
    columns = list(draw(st.sampled_from([gio.MONO_COLUMNS, gio.BINOCULAR_COLUMNS])))
    schema = None
    if draw(st.booleans()):
        schema = {c: c.upper() for c in columns}
        columns = [c.upper() for c in columns]
    extra = draw(st.one_of(st.none(), st.integers(0, len(columns))))
    if extra is not None:
        columns.insert(extra, "note")
    time_col = columns.index("T_MS" if schema else "t_ms")
    coord_cols = [i for i in range(len(columns)) if i not in (time_col, extra)]
    t0 = draw(st.integers(-5, 5))
    rows = []
    for i in range(draw(st.integers(0, 10))):
        cells = [draw(st.floats(-1e3, 1e3).map(repr)) for _ in columns]
        cells[time_col] = str(t0 + i)
        if extra is not None:
            cells[extra] = "n"
        rows.append(cells)
    kinds = draw(st.lists(st.sampled_from(PERTURBATIONS), max_size=3)) if rows else []
    for kind in sorted(kinds, key=PERTURBATIONS.index):  # cell edits before row edits
        i = draw(st.integers(0, len(rows) - 1))
        cells = rows[i]
        if kind == "coord":
            cells[draw(st.sampled_from(coord_cols))] = draw(COORD_TOKENS)
        elif kind == "time":
            cells[time_col] = draw(TIME_TOKENS)
        elif kind == "extra" and extra is not None:
            cells[extra] = draw(EXTRA_TOKENS)
        elif kind == "short":
            cells.pop()
        elif kind == "long":
            cells.append(draw(st.sampled_from(["9", ""])))
        elif kind == "blank":
            rows.insert(i, [draw(st.sampled_from(["", "  ", "\t"]))])
    lines = [",".join(columns)] + [",".join(cells) for cells in rows]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""])), schema


@pytest.fixture(scope="module")
def gaze_path(tmp_path_factory):
    return tmp_path_factory.mktemp("gaze") / "g.csv"


@settings(max_examples=400, deadline=None)
@given(gaze_files())
@example(('t_ms,note,x_deg,y_deg\n0,"x,1.0,2.0\n', None))  # csv quoting swallows commas
def test_columnar_parse_matches_line_parser(gaze_path, case):
    text, schema = case
    gaze_path.write_bytes(text.encode())
    fast = _load_outcome(gaze_path, schema)
    with mock.patch.object(gio, "_gaze_columns", return_value=None):
        lines = _load_outcome(gaze_path, schema)
    assert fast == lines


def test_plain_rows_take_columnar_path(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("t_ms,x_deg,y_deg\r\n0, 1.5,-2e3\r\n1,nan,+7\r\n2,inf,0\r\n")
    with mock.patch.object(gio, "_gaze_lines", side_effect=AssertionError("line parser")):
        rec = load_gaze_csv(p)
    np.testing.assert_array_equal(rec.t_ms, [0, 1, 2])
    np.testing.assert_array_equal(rec.x_deg, [1.5, np.nan, np.nan])
    np.testing.assert_array_equal(rec.y_deg, [-2000.0, np.nan, np.nan])
    assert rec.source_meta["skipped_rows"] == "0"


def _binocular_file(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text(
        "t_ms,x_left_deg,y_left_deg,x_right_deg,y_right_deg\n"
        "0,1.0,2.0,3.0,4.0\n1,1.1,2.1,3.1,4.1\n"
    )
    return p


def test_select_eye_right_default(tmp_path):
    rec = load_gaze_csv(_binocular_file(tmp_path))
    assert rec.eye == "binocular"
    right = select_eye(rec)
    assert right.eye == "right"
    np.testing.assert_array_equal(right.x_deg, [3.0, 3.1])
    left = select_eye(rec, "left")
    np.testing.assert_array_equal(left.x_deg, [1.0, 1.1])


def test_select_eye_mono_identity_and_errors(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("t_ms,x_deg,y_deg\n0,0,0\n")
    rec = load_gaze_csv(p)
    assert select_eye(rec, "mono") is rec
    with pytest.raises(ConfigError):
        select_eye(rec, "left")
    bino = load_gaze_csv(_binocular_file(tmp_path))
    with pytest.raises(ConfigError):
        select_eye(bino, "mono")


def test_attribution_dense_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(8)
    attr = AttributionMap("w0", rng.normal(0, 1, (2, 500)), target_label="s01")
    p = tmp_path / "a.csv"
    write_attribution(attr, p)
    back = load_attribution(p, window_id="w0")
    np.testing.assert_array_equal(back.values, attr.values)
    assert back.target_label == "s01"
    assert back.channels == 2 and back.length == 500


def test_attribution_sparse_form(tmp_path):
    p = tmp_path / "a.csv"
    rows = ["channel,index,value"]
    for ch in range(2):
        for i in range(3):
            rows.append(f"{ch},{i},{ch * 10 + i}")
    p.write_text("\n".join(rows) + "\n")
    attr = load_attribution(p)
    np.testing.assert_array_equal(attr.values, [[0, 1, 2], [10, 11, 12]])


def test_attribution_shape_declaration_mismatch(tmp_path):
    p = tmp_path / "a.csv"
    values = ",".join(["0.5"] * 999)
    p.write_text(f"D=2\nL=1000\n{values}\n{values}\n")
    with pytest.raises(FormatError, match="declared L=1000"):
        load_attribution(p)
    p.write_text("D=2\nL=3\n1,2,3\n")
    with pytest.raises(FormatError, match="channel rows"):
        load_attribution(p)


def test_attribution_non_finite_named(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("D=2\nL=3\n1,2,3\n4,nan,6\n")
    with pytest.raises(DataError, match="channel 1, index 1"):
        load_attribution(p)


def test_attribution_window_alignment():
    w = build_window(np.zeros(100), np.zeros(100))
    good = AttributionMap("w0000", np.zeros((2, 100)))
    validate_attribution(good, w)
    bad = AttributionMap("w0000", np.zeros((2, 99)))
    with pytest.raises(AlignmentError, match="w0000"):
        validate_attribution(bad, w)


def test_manifest_load_and_errors(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(
        '{"output_dir": "out", "entries": ['
        '{"recording": "r.csv", "attribution": "a.csv", "window_id": "w0"}]}'
    )
    m = load_manifest(p)
    assert m.entries[0].window_id == "w0"
    assert m.resolve("r.csv") == tmp_path / "r.csv"
    entries = (
        '{"recording": "r.csv", "attribution": "a.csv", "window_id": "w0"},'
        '{"recording": "r.csv", "attribution": "b.csv", "window_id": "w0"}'
    )
    p.write_text(f'{{"entries": [{entries}]}}')
    with pytest.raises(DataError, match="duplicate"):
        load_manifest(p)
    p.write_text("not json")
    with pytest.raises(FormatError):
        load_manifest(p)
    p.write_text('{"no_entries": 1}')
    with pytest.raises(FormatError):
        load_manifest(p)


def _events(n=100):
    rng = np.random.default_rng(3)
    out = []
    for i in range(n):
        onset = int(rng.integers(0, 900))
        kind = "saccade" if i % 2 else "fixation"
        out.append(
            GazeEvent(
                event_id=f"w{i % 7:04d}:{kind[:3]}{i:03d}",
                kind=kind,
                window_id=f"w{i % 7:04d}",
                onset=onset,
                offset=onset + int(rng.integers(1, 80)),
                duration_ms=float(rng.uniform(1, 100)),
                peak_velocity=float(rng.uniform(10, 900)),
                amplitude_deg=float(rng.uniform(0, 20)) if kind == "saccade" else math.nan,
                dispersion_deg=float(rng.uniform(0, 3)) if kind == "fixation" else math.nan,
                velocity_std=float(rng.uniform(0, 10)) if kind == "fixation" else math.nan,
                excluded=bool(i % 5 == 0),
                exclusion_reason="min duration" if i % 5 == 0 else "",
            )
        )
    return out


def test_events_empty_header_only(tmp_path):
    p = tmp_path / "e.csv"
    write_events([], p)
    text = p.read_text()
    assert text.count("\n") == 1
    assert read_events(p) == []


def test_events_write_deterministic(tmp_path):
    events = _events(40)
    p1, p2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    write_events(events, p1)
    write_events(list(reversed(events)), p2)  # order-insensitive
    assert p1.read_bytes() == p2.read_bytes()


def test_events_roundtrip_100(tmp_path):
    events = _events(100)
    p = tmp_path / "e.csv"
    write_events(events, p)
    back = read_events(p)
    assert len(back) == 100
    key = lambda e: e.event_id
    for a, b in zip(sorted(events, key=key), sorted(back, key=key)):
        assert (a.onset, a.offset, a.kind, a.window_id) == (b.onset, b.offset, b.kind, b.window_id)
        assert a.excluded == b.excluded and a.exclusion_reason == b.exclusion_reason
        for attr in ("duration_ms", "peak_velocity", "amplitude_deg", "dispersion_deg", "velocity_std"):
            va, vb = getattr(a, attr), getattr(b, attr)
            assert (math.isnan(va) and math.isnan(vb)) or vb == pytest.approx(va, rel=1e-8)


def test_events_sorted_by_window_then_onset(tmp_path):
    p = tmp_path / "e.csv"
    write_events(_events(50), p)
    back = read_events(p)
    keys = [(e.window_id, e.onset) for e in back]
    assert keys == sorted(keys)


def test_subevents_roundtrip(tmp_path):
    subs = [
        SubEvent("w0001:sac000", "peak", 410, 420),
        SubEvent("w0001:sac000", "rise", 400, 409),
        SubEvent("w0000:sac001", "pre", 90, 99),
    ]
    p = tmp_path / "s.csv"
    write_subevents(subs, p)
    back = read_subevents(p)
    assert len(back) == 3
    assert back[0].parent_event_id == "w0000:sac001"  # sorted by window
    assert {(s.phase, s.onset, s.offset) for s in back} == {
        ("peak", 410, 420), ("rise", 400, 409), ("pre", 90, 99)
    }


def _results():
    return [
        InfluenceResult("saccade", "window", 12, 3.2, 1000, 80, 20, window_id="w0"),
        InfluenceResult("saccade", "corpus", 24, 2.71828182845, 2000, 160, 40,
                        c_mean=2.5, n_windows=2, n_skipped=1),
        InfluenceResult("fixation", "window", 0, 0.0, 1000, 800, 20, window_id="w0"),
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_roundtrip(tmp_path, fmt):
    p = tmp_path / f"r.{fmt}"
    write_report(_results(), p, fmt)
    back = read_report(p, fmt)
    assert len(back) == 3
    by_key = {(r.concept, r.scope): r for r in back}
    corpus = by_key[("saccade", "corpus")]
    assert corpus.intersection == 24
    assert corpus.c == pytest.approx(2.71828182845, rel=1e-8)
    assert corpus.c_mean == pytest.approx(2.5)
    assert corpus.n_skipped == 1
    assert by_key[("fixation", "window")].c == 0.0


def test_report_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(_results(), p1)
    write_report(list(reversed(_results())), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_windows_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(4)
    w1 = build_window(rng.normal(0, 5, 50), rng.normal(0, 5, 50),
                      px=rng.normal(0, 1, 50), py=rng.normal(0, 1, 50),
                      window_id="r-w0000")
    w1.vx[7] = np.nan
    w1.valid_mask[7] = False
    w2 = build_window(rng.normal(0, 5, 50), rng.normal(0, 5, 50), window_id="r-w0001")
    p = tmp_path / "w.stage"  # written to exactly this path, no .npz added
    write_windows([w1, w2], p)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["w.stage"]
    back = read_windows(p)
    assert [w.window_id for w in back] == ["r-w0000", "r-w0001"]
    for w, b in ((w1, back[0]), (w2, back[1])):
        for name in ("vx", "vy", "px", "py", "valid_mask"):
            np.testing.assert_array_equal(getattr(b, name), getattr(w, name))
        assert (b.recording_id, b.start_index) == (w.recording_id, w.start_index)
    assert back[0].sampling_rate_hz == 1000.0

    not_windows = tmp_path / "events.csv"
    not_windows.write_text("t_ms,x_deg,y_deg\n0,1,2\n")
    other_npz = tmp_path / "other.npz"
    np.savez(other_npz, vx=w1.vx)
    repeated = tmp_path / "repeated.npz"
    write_windows([w1, w1], repeated)
    for bad in (not_windows, other_npz, repeated):
        with pytest.raises(FormatError, match=bad.name):
            read_windows(bad)
    short = build_window(np.zeros(10), window_id="r-w0002")
    with pytest.raises(DataError, match="mixed lengths"):
        write_windows([w1, short], tmp_path / "mixed.npz")


def test_topk_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    topks = [topk_segmentation(rng.normal(size=50), 4, f"r-w{i:04d}") for i in range(3)]
    p = tmp_path / "t.stage"  # written to exactly this path, no .npz added
    write_topk(topks, p, "abs")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["t.stage"]
    back, k, squash = read_topk(p, 50)
    assert (k, squash) == (4, "abs")
    assert [t.window_id for t in back] == ["r-w0000", "r-w0001", "r-w0002"]
    for t, b in zip(topks, back):
        np.testing.assert_array_equal(b.mask, t.mask)
        assert b.k == 4
    with pytest.raises(FormatError, match="t.stage: indices are not 4 ascending steps of 40"):
        read_topk(p, 40)

    windows = tmp_path / "w.npz"
    write_windows([build_window(np.zeros(50))], windows)
    duplicated = tmp_path / "dup.npz"
    np.savez(duplicated, window_id=np.array(["a"]), k=np.array(2), squash=np.array("abs"),
             indices=np.array([[3, 3]], dtype=np.int32))
    for bad, message in ((windows, "not a top-k file"), (duplicated, "indices are not 2 ascending")):
        with pytest.raises(FormatError, match=f"{bad.name}: {message}"):
            read_topk(bad, 50)
    with pytest.raises(DataError, match="mixed k"):
        write_topk(topks + [topk_segmentation(np.zeros(50), 5)], tmp_path / "m.npz", "abs")


def test_table_cell_rule(tmp_path):
    p = tmp_path / "t.csv"
    write_table(p, ("s", "i", "x", "y", "b", "n"), [
        ("a b", 3, 0.1 + 0.2, np.float64(1e-7), True, None),
        ("", np.int64(-4), math.inf, math.nan, np.bool_(False), -math.inf),
    ])
    assert p.read_text() == "s,i,x,y,b,n\na b,3,0.3,1e-07,true,\n,-4,,,false,\n"


def _tables(tmp_path):
    """Per table reader: (reader, valid file from its writer, an int column)."""
    events, subs, report, binned = (tmp_path / n for n in ("e.csv", "s.csv", "r.csv", "b.csv"))
    write_events(_events(3), events)
    write_subevents([SubEvent("w0:sac000", "peak", 4, 9)], subs)
    write_report(_results(), report)
    write_binned({"saccade_duration_ms": [
        BinnedInfluence("saccade_duration_ms", 9.0, 30.0, "bin", 1, 20, _results()[0]),
        BinnedInfluence("saccade_duration_ms", 30.0, math.inf, "overflow", 0, 0, None),
    ]}, binned)
    return {
        "events": (read_events, events, "onset"),
        "subevents": (read_subevents, subs, "offset"),
        "report": (read_report, report, "n_windows"),
        "binned": (read_binned, binned, "event_count"),
    }


def _edit_line(path, lineno, edit):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("table", ["events", "subevents", "report", "binned"])
def test_table_readers_reject_malformed_rows(tmp_path, table):
    read, path, int_column = _tables(tmp_path)[table]
    assert read(path)
    good = path.read_text()
    column = good.splitlines()[0].split(",").index(int_column)

    def set_cell(value):
        return lambda line: ",".join(value if i == column else c
                                     for i, c in enumerate(line.split(",")))

    for edit, message in (
        (lambda line: line.rsplit(",", 1)[0], "line 2: .* fields, expected"),  # short row
        (lambda line: line + ",x", "line 2: .* fields, expected"),  # extra field
        (set_cell("x"), f"line 2: cannot parse {int_column} 'x'"),
        (set_cell("1.5"), f"line 2: cannot parse {int_column} '1.5'"),
    ):
        path.write_text(good)
        _edit_line(path, 2, edit)
        with pytest.raises(FormatError, match=f"{path.name}: {message}"):
            read(path)
    path.write_text(good)
    _edit_line(path, 1, lambda line: line.replace(int_column, "bogus"))
    with pytest.raises(FormatError, match=f"{path.name}: header"):
        read(path)
    path.write_text("")
    with pytest.raises(FormatError, match=f"{path.name}: header"):
        read(path)


def test_event_reader_rejects_bad_boolean_and_real(tmp_path):
    p = tmp_path / "e.csv"
    write_events(_events(3), p)
    good = p.read_text()
    p.write_text(good.replace(",false,", ",no,", 1))
    with pytest.raises(FormatError, match="e.csv: line .*: cannot parse excluded 'no'"):
        read_events(p)
    lines = good.splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[5], "fast", 1)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="e.csv: line 2: cannot parse duration_ms 'fast'"):
        read_events(p)


def test_read_table_parses_optional_cells(tmp_path):
    p = tmp_path / "b.csv"
    write_binned({"saccade_duration_ms": [
        BinnedInfluence("saccade_duration_ms", -math.inf, 9.0, "underflow", 0, 0, None),
    ]}, p)
    (row,) = read_binned(p)["saccade_duration_ms"]
    assert (row.lo, row.hi, row.influence) == (-math.inf, 9.0, None)
    rows = read_table(p, ("property", "label", "lo", "hi", "event_count",
                          "segmentation_size", "intersection", "c", "c_mean"), {})
    assert rows[0]["lo"] == "" and rows[0]["event_count"] == "0"


def test_json_report_rejects_other_keys(tmp_path):
    p = tmp_path / "r.json"
    write_report(_results(), p, "json")
    doc = json.loads(p.read_text())
    doc[1]["extra"] = 1
    p.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="r.json: row 1"):
        read_report(p, "json")
    del doc[1]["extra"], doc[1]["c_mean"]
    p.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="r.json: row 1"):
        read_report(p, "json")
    doc[1]["c_mean"] = None
    doc[0]["concept"] = "bogus"
    p.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="r.json: row 0: unknown concept 'bogus'"):
        read_report(p, "json")
    p.write_text("[{")
    with pytest.raises(FormatError, match="r.json"):
        read_report(p, "json")
