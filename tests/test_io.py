import csv
import io
import json
import math
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazeconcepts import io as gio

from gazeconcepts.binning import BinnedInfluence, read_binned, write_binned
from gazeconcepts.errors import (
    AlignmentError,
    ConfigError,
    DataError,
    FormatError,
)
from gazeconcepts.influence import InfluenceResult, topk_masks
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
from reference import GazeEvent, SubEvent, _cells, event_rows, event_table, subevent_table
from gazeconcepts.synth import random_plan, gen_scanpath

from conftest import build_window, join_windows


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


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("token, message", [
    ("1.5", "is not an integer"),
    ("1e3", "is not an integer"),
    ("99999999999999999999", "is out of the int64 range"),
    ("-9223372036854775809", "is out of the int64 range"),
])
def test_non_integer_timestamp_is_data_error_under_default_filters(tmp_path, token, message):
    p = tmp_path / "g.csv"
    p.write_text(f"t_ms,x_deg,y_deg\n0,1.0,2.0\n{token},1.0,2.0\n")
    with pytest.raises(DataError, match=f"line 3: timestamp '{token}' {message}"):
        load_gaze_csv(p)


@pytest.mark.filterwarnings("ignore")
def test_columnar_parse_declines_on_any_warning(tmp_path):
    # numpy releases with the float-for-int deprecation truncate "1.5" to 1
    # and only warn; the fast path must decline whatever the global filters
    p = tmp_path / "g.csv"
    p.write_text("t_ms,x_deg,y_deg\n0,1.0,2.0\n1.5,1.0,2.0\n")
    real_loadtxt = np.loadtxt

    def truncating_loadtxt(fname, dtype, **kwargs):
        warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
        lines = p.read_text().replace("1.5,", "1,")
        return real_loadtxt(lines.splitlines(), dtype=dtype, **kwargs)

    with mock.patch.object(gio.np, "loadtxt", truncating_loadtxt):
        with pytest.raises(DataError, match="timestamp '1.5' is not an integer"):
            load_gaze_csv(p)


def test_columnar_parse_declines_when_file_changes(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("t_ms,x_deg,y_deg\n0,1.0,2.0\n1,1.0,2.0\n")
    real_loadtxt = np.loadtxt

    def loadtxt_after_rewrite(fname, **kwargs):
        p.write_text("t_ms,x_deg,y_deg\n0,9.0,9.0\n1,9.0,9.0\n\n")
        return real_loadtxt(fname, **kwargs)

    with mock.patch.object(gio.np, "loadtxt", loadtxt_after_rewrite):
        rec = load_gaze_csv(p)
    np.testing.assert_array_equal(rec.x_deg, [1.0, 1.0])


def test_concurrent_gaze_loads_take_turns(tmp_path):
    # each fast-path parse swaps the process-wide warning filters; two that
    # overlap can leave the other's filters installed when both are done
    p = tmp_path / "g.csv"
    p.write_text("t_ms,x_deg,y_deg\n" + "".join(f"{i},1.5,2.5\n" for i in range(50)))
    before = list(warnings.filters)
    real_loadtxt = np.loadtxt
    inside, most_inside, loaded = [], [], []

    def counting_loadtxt(*args, **kwargs):
        inside.append(None)
        most_inside.append(len(inside))
        try:
            return real_loadtxt(*args, **kwargs)
        finally:
            inside.pop()

    def load_many():
        for _ in range(300):
            loaded.append(load_gaze_csv(p).n_samples)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(gio.np, "loadtxt", counting_loadtxt):
            threads = [threading.Thread(target=load_many) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert loaded == [50] * 1800
    assert max(most_inside) == 1
    assert warnings.filters == before


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
                     '"2.0"', '"1,5"', "1_0", "-0", "\uff11", "0x10", "Infinity",
                     "+inf", "1e400", "#", "\t1.5\t"]),
)
TIME_TOKENS = st.one_of(
    st.integers(-10, 20).map(str),
    st.sampled_from(["1.5", "x", "", " 7 ", "+3", "99999999999999999999", "\uff17",
                     "0x10", "1_0", "#", "\t7\t", "1e3"]),
)
EXTRA_TOKENS = st.sampled_from(['"x', '"', '"q,r"', 'b"c', ""])
# str.splitlines breaks other than "\n" and "\r\n" (read_text turns a bare
# "\r" into "\n"; numpy's text reader splits on none of the others)
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
# the missing-value cells numpy's text reader declines ("", ".") or takes ("NaN")
MISSING_TOKENS = st.sampled_from(["", ".", "NaN"])
PERTURBATIONS = (
    "coord", "missing", "time", "extra", "short", "long", "shift", "break", "blank"
)


@st.composite
def gaze_files(draw):
    """(file text, schema): a well-formed gaze file (monocular or
    binocular, optionally renamed through a schema, optionally with an
    extra column, lines ended by "\n", "\r\n", "\r" or "\x0b") with up
    to three perturbations: a run of rows with "", "." or "NaN" cells in
    one coordinate column, or one line with a missing-value, whitespace, quoted,
    full-width, hex, infinite, overflowing or unparseable coordinate, a
    non-integer, overflowing or non-monotone timestamp, a quoted extra
    cell, a short or long row, a short row offset by a long one, a line
    break that only str.splitlines knows, a blank line."""
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
        elif kind == "missing":
            col = draw(st.sampled_from(coord_cols))
            for row in rows[i:i + draw(st.integers(1, 4))]:
                row[col] = draw(MISSING_TOKENS)
        elif kind == "time":
            cells[time_col] = draw(TIME_TOKENS)
        elif kind == "extra" and extra is not None:
            cells[extra] = draw(EXTRA_TOKENS)
        elif kind == "short":
            cells.pop()
        elif kind == "long":
            cells.append(draw(st.sampled_from(["9", ""])))
        elif kind == "shift":
            rows[draw(st.integers(0, len(rows) - 1))].append(cells.pop())
        elif kind == "break":
            cells[-1] += draw(st.sampled_from(LINE_BREAKS))
        elif kind == "blank":
            rows.insert(i, [draw(st.sampled_from(["", "  ", "\t"]))])
    lines = [",".join(columns)] + [",".join(cells) for cells in rows]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""])), schema


@pytest.fixture(scope="module")
def gaze_path(tmp_path_factory):
    return tmp_path_factory.mktemp("gaze") / "g.csv"


def _gaze_paths_agree(gaze_path, case):
    text, schema = case
    gaze_path.write_bytes(text.encode())
    fast = _load_outcome(gaze_path, schema)
    with mock.patch.object(gio, "_gaze_columns", return_value=None):
        lines = _load_outcome(gaze_path, schema)
    assert fast == lines


@settings(max_examples=400, deadline=None)
@given(gaze_files())
@example(('t_ms,note,x_deg,y_deg\n0,"x,1.0,2.0\n', None))  # csv quoting swallows commas
@example(("t_ms,note,x_deg,y_deg\n0,n,1.0\n1,n,1.0,2.0,3.0\n", None))  # short row offset by long
@example(("t_ms,x_deg,y_deg\n0,1.0,2.0\x0b\n1,1.0,2.0\n", None))  # a blank line to splitlines only
@example(("t_ms,x_deg,y_deg\n\n", None))  # no rows for numpy's text reader
@example(("t_ms,x_deg,y_deg\n0,,\n1,.,2.0\n2,NaN,.\n", None))  # missing-value cells
@example(("t_ms,x_deg,y_deg\n0,1.0,2.0\n,1.0,2.0\n", None))  # a missing timestamp
@example(("a,b\n0,1.5\n1,2.5\n", {"t_ms": "a", "x_deg": "a", "y_deg": "b"}))  # t_ms is x_deg
def test_columnar_parse_matches_line_parser(gaze_path, case):
    _gaze_paths_agree(gaze_path, case)


@pytest.mark.filterwarnings("ignore")  # as Python's defaults do for numpy's DeprecationWarnings
@settings(max_examples=400, deadline=None)
@given(gaze_files())
def test_columnar_parse_matches_line_parser_ignoring_warnings(gaze_path, case):
    _gaze_paths_agree(gaze_path, case)


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
    p.write_text("channel,index,value\n0,0,1\n1,1,1\n")
    with pytest.raises(FormatError, match="covers 2 cells, grid needs 4"):
        load_attribution(p)
    p.write_text("channel,index,value\n")
    assert load_attribution(p).values.shape == (0, 0)


def test_attribution_shape_declaration_mismatch(tmp_path):
    p = tmp_path / "a.csv"
    values = ",".join(["0.5"] * 999)
    p.write_text(f"D=2\nL=1000\n{values}\n{values}\n")
    with pytest.raises(FormatError, match="declared L=1000"):
        load_attribution(p)
    p.write_text("D=2\nL=3\n1,2,3\n")
    with pytest.raises(FormatError, match="channel rows"):
        load_attribution(p)
    p.write_text("D=1\nL=-1\n1\n")
    with pytest.raises(FormatError, match="malformed dense header"):
        load_attribution(p)


def test_attribution_non_finite_named(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("D=2\nL=3\n1,2,3\n4,nan,6\n")
    with pytest.raises(DataError, match="channel 1, index 1"):
        load_attribution(p)


@pytest.mark.parametrize("row, message", [
    ("a,0,1", "line 3: channel 'a' and index '0' must be integers"),
    ("0,1.5,1", "line 3: channel '0' and index '1.5' must be integers"),
    ("0,1,x", "line 3: value 'x' is not a number"),
    ("-1,1,1", "line 3: channel -1, index 1 is negative"),
    ("0,-1,1", "line 3: channel 0, index -1 is negative"),
    ("0,0,1", "line 3: channel 0, index 0 repeats line 2"),
], ids=["channel", "index", "value", "negative-channel", "negative-index", "repeated"])
def test_attribution_sparse_bad_cell_named(tmp_path, row, message):
    p = tmp_path / "a.csv"
    p.write_text(f"channel,index,value\n0,0,1\n{row}\n\n1,0,1\n1,1,1\n")
    with pytest.raises(FormatError, match=f"a.csv: {message}"):
        load_attribution(p)


def _attribution_outcome(path):
    """What load_attribution gives: the exception's type and message, or
    the values (bitwise), their shape and the target label."""
    try:
        attr = load_attribution(path)
    except Exception as e:  # compared, not handled
        return type(e), str(e)
    return attr.values.shape, attr.values.tobytes(), attr.target_label


ATTR_TOKENS = st.sampled_from([
    "1_0", "\uff11", " 2.5 ", "\t1\t", "0x10", "1e400", "-0", "#", "", "abc",
    "Infinity", "nan", "-inf", "1.", '"1"',
])
ATTR_PERTURBATIONS = ("token", "short", "long", "length", "rows", "blank")


@st.composite
def dense_files(draw):
    """A well-formed dense attribution file (optionally with a target
    line) with up to three perturbations: an underscored, full-width,
    padded, hex, overflowing, non-finite or unparseable value, a short
    or long row, a wrong L, a missing or extra row, a blank line."""
    d, length = draw(st.integers(0, 3)), draw(st.integers(1, 6))
    rows = [[repr(draw(st.floats(-1e3, 1e3))) for _ in range(length)] for _ in range(d)]
    lines = [f"D={d}", f"L={length}"] + (["target=s01"] if draw(st.booleans()) else [])
    for kind in sorted(draw(st.lists(st.sampled_from(ATTR_PERTURBATIONS), max_size=3)),
                       key=ATTR_PERTURBATIONS.index):
        row = rows[draw(st.integers(0, len(rows) - 1))] if rows else None
        if kind == "token" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(ATTR_TOKENS)
        elif kind == "short" and row:
            row.pop()
        elif kind == "long" and row is not None:
            row.append("0.5")
        elif kind == "length":
            lines[1] = f"L={length + draw(st.sampled_from([-1, 1]))}"
        elif kind == "rows":
            rows = rows[:-1] if rows and draw(st.booleans()) else rows + [["0.5"] * length]
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  "])))
    lines += [",".join(row) for row in rows]
    if "" in lines and draw(st.booleans()):
        lines.insert(0, lines.pop(lines.index("")))  # a blank line before the header
    return "\n".join(lines) + "\n"


def _dense_paths_agree(gaze_path, text):
    path = gaze_path.with_name("a.csv")
    path.write_bytes(text.encode())
    fast = _attribution_outcome(path)
    with mock.patch.object(gio, "_dense_rows", return_value=None):
        rows = _attribution_outcome(path)
    assert fast == rows


@settings(max_examples=300, deadline=None)
@given(dense_files())
@example("D=2\nL=2\n1_0,2\n\n3,4\n")
@example("D=0\nL=3\n")
def test_dense_attribution_rows_match_per_row_parse(gaze_path, text):
    _dense_paths_agree(gaze_path, text)


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=300, deadline=None)
@given(dense_files())
def test_dense_attribution_rows_match_per_row_parse_ignoring_warnings(gaze_path, text):
    _dense_paths_agree(gaze_path, text)


def test_plain_dense_rows_take_columnar_path(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("D=2\nL=3\n1, 2.5,-3e2\n0,inf,1\n")
    with mock.patch.object(gio.np, "array", side_effect=AssertionError("per-row parse")):
        with pytest.raises(DataError, match="channel 1, index 1"):
            load_attribution(p)
    p.write_text("D=2\nL=3\n1, 2.5,-3e2\n0,7,1\n")
    with mock.patch.object(gio.np, "array", side_effect=AssertionError("per-row parse")):
        np.testing.assert_array_equal(load_attribution(p).values, [[1, 2.5, -300], [0, 7, 1]])


def test_attribution_window_alignment():
    good = AttributionMap("w0000", np.zeros((2, 100)))
    validate_attribution(good, 100)
    bad = AttributionMap("w0000", np.zeros((2, 99)))
    with pytest.raises(AlignmentError, match="w0000"):
        validate_attribution(bad, 100)


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
    write_events(event_table([]), p)
    text = p.read_text()
    assert text.count("\n") == 1
    assert event_rows(read_events(p)) == []


def test_events_write_deterministic(tmp_path):
    events = _events(40)
    p1, p2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    write_events(event_table(events), p1)
    write_events(event_table(reversed(events)), p2)  # order-insensitive
    assert p1.read_bytes() == p2.read_bytes()


def test_events_roundtrip_100(tmp_path):
    events = _events(100)
    p = tmp_path / "e.csv"
    write_events(event_table(events), p)
    back = event_rows(read_events(p))
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
    write_events(event_table(_events(50)), p)
    back = event_rows(read_events(p))
    keys = [(e.window_id, e.onset) for e in back]
    assert keys == sorted(keys)


def _saccades():
    """Retained saccades to hang sub-events on."""
    return event_table([GazeEvent("w0001:sac000", "saccade", "w0001", 400, 420),
                        GazeEvent("w0000:sac001", "saccade", "w0000", 100, 120),
                        GazeEvent("w0:sac000", "saccade", "w0", 4, 9)])


def test_subevents_roundtrip(tmp_path):
    subs = [
        SubEvent("w0001:sac000", "peak", 410, 420),
        SubEvent("w0001:sac000", "rise", 400, 409),
        SubEvent("w0000:sac001", "pre", 90, 99),
    ]
    p = tmp_path / "s.csv"
    parents = _saccades()
    write_subevents(subevent_table(subs, parents), p)
    back = read_subevents(p, parents, 1000)
    assert len(back) == 3
    ids = parents.event_id[back.parent].tolist()
    assert ids[0] == "w0000:sac001"  # sorted by window
    assert {(phase, onset, offset) for phase, onset, offset in zip(
        (["pre", "rise", "peak", "fall", "post"][p] for p in back.phase.tolist()),
        back.onset.tolist(), back.offset.tolist(),
    )} == {("peak", 410, 420), ("rise", 400, 409), ("pre", 90, 99)}


def _results():
    return [
        InfluenceResult("saccade", "window", 12, 3.2, 1000, 80, 20, window_id="w0"),
        InfluenceResult("saccade", "corpus", 24, 2.71828182845, 2000, 160, 40,
                        c_mean=2.5, n_windows=2, n_skipped=1),
        InfluenceResult("fixation", "window", 0, 0.0, 1000, 800, 20, window_id="w0"),
    ]


def _report(results):
    """Influence rows as write_report takes them: one list per column."""
    return {name: [getattr(r, name) for r in results] for name in gio.REPORT_COLUMNS}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_roundtrip(tmp_path, fmt):
    p = tmp_path / f"r.{fmt}"
    write_report(_report(_results()), p, fmt)
    columns = read_report(p, fmt)
    assert list(columns) == list(gio.REPORT_COLUMNS)
    back = [InfluenceResult(**dict(zip(columns, row))) for row in zip(*columns.values())]
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
    write_report(_report(_results()), p1)
    write_report(_report(list(reversed(_results()))), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_windows_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(4)
    w1 = build_window(rng.normal(0, 5, 50), rng.normal(0, 5, 50),
                      px=rng.normal(0, 1, 50), py=rng.normal(0, 1, 50),
                      window_id="r-w0000")
    w1.vx[0, 7] = np.nan
    w1.valid[0, 7] = False
    w2 = build_window(rng.normal(0, 5, 50), rng.normal(0, 5, 50), window_id="r-w0001")
    stack = join_windows(w1, w2)
    p = tmp_path / "w.stage"  # written to exactly this path, no .npz added
    write_windows(stack, p)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["w.stage"]
    back = read_windows(p)
    assert back.window_ids == ["r-w0000", "r-w0001"]
    for name in ("vx", "vy", "px", "py", "valid", "sampling_rate_hz"):
        np.testing.assert_array_equal(getattr(back, name), getattr(stack, name))
    assert (back.recording_ids, back.start_index) == (stack.recording_ids, stack.start_index)
    assert back.sampling_rate_hz[0] == 1000.0

    not_windows = tmp_path / "events.csv"
    not_windows.write_text("t_ms,x_deg,y_deg\n0,1,2\n")
    other_npz = tmp_path / "other.npz"
    np.savez(other_npz, vx=w1.vx)
    repeated = tmp_path / "repeated.npz"
    write_windows(join_windows(w1, w1), repeated)
    mixed = tmp_path / "mixed.npz"  # every array but vx of windows of 10 samples
    write_windows(build_window(np.zeros(10), window_id="r-w0002"), mixed)
    with np.load(mixed) as npz:
        arrays = dict(npz)
    arrays["vx"] = w1.vx
    np.savez(mixed, **arrays)
    for bad in (not_windows, other_npz, repeated, mixed):
        with pytest.raises(FormatError, match=bad.name):
            read_windows(bad)
    with pytest.raises(FormatError, match="disagree in shape"):
        read_windows(mixed)


def test_topk_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    ids = [f"r-w{i:04d}" for i in range(3)]
    masks = topk_masks(rng.normal(size=(3, 50)), 4)
    p = tmp_path / "t.stage"  # written to exactly this path, no .npz added
    write_topk(ids, masks, p, "abs")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["t.stage"]
    back_ids, back, k, squash = read_topk(p, 50)
    assert (k, squash) == (4, "abs")
    assert back_ids == ["r-w0000", "r-w0001", "r-w0002"]
    assert back.dtype == bool
    np.testing.assert_array_equal(back, masks)
    with pytest.raises(FormatError, match="t.stage: indices are not 4 ascending steps of 40"):
        read_topk(p, 40)

    windows = tmp_path / "w.npz"
    write_windows(build_window(np.zeros(50)), windows)
    duplicated = tmp_path / "dup.npz"
    np.savez(duplicated, window_id=np.array(["a"]), k=np.array(2), squash=np.array("abs"),
             indices=np.array([[3, 3]], dtype=np.int32))
    for bad, message in ((windows, "not a top-k file"), (duplicated, "indices are not 2 ascending")):
        with pytest.raises(FormatError, match=f"{bad.name}: {message}"):
            read_topk(bad, 50)
    mixed = np.vstack([masks, topk_masks(np.zeros((1, 50)), 5)])
    with pytest.raises(DataError, match="mixed k"):
        write_topk(ids + ["r-w0003"], mixed, tmp_path / "m.npz", "abs")


def test_topk_of_no_windows_roundtrips(tmp_path):
    p = tmp_path / "t.npz"
    write_topk([], np.zeros((0, 50), dtype=bool), p, "signed")
    ids, masks, k, squash = read_topk(p, 50)
    assert (ids, masks.shape, k, squash) == ([], (0, 50), 0, "signed")


def test_table_cell_rule(tmp_path):
    p = tmp_path / "t.csv"
    write_table(p, ("s", "i", "x", "y", "b", "n"), [
        ["a b", ""], [3, np.int64(-4)], [0.1 + 0.2, math.inf], [np.float64(1e-7), math.nan],
        [True, np.bool_(False)], [None, -math.inf],
    ])
    assert p.read_text() == "s,i,x,y,b,n\na b,3,0.3,1e-07,true,\n,-4,,,false,\n"


REALS = st.one_of(
    st.floats(), st.floats(width=32), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.floats(min_value=-1e-307, max_value=1e-307),  # subnormals among them
)
TEXT = st.text(alphabet=st.sampled_from('ab 1.,"\n\r\t;'), max_size=6)
CELLS = st.one_of(REALS, st.integers(-(2**70), 2**70), st.booleans(),
                  st.booleans().map(np.bool_), st.none(), TEXT)


@st.composite
def table_columns(draw):
    """Header and columns for write_table: numpy arrays of every dtype the
    package writes, and lists of any mix of cells."""
    n = draw(st.integers(0, 6))

    def column(kind):
        if kind == "mixed":
            return draw(st.lists(CELLS, min_size=n, max_size=n))
        values = {"float64": REALS, "int64": st.integers(-(2**63), 2**63 - 1),
                  "bool": st.booleans(), "object": TEXT}[kind]
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=kind)

    kinds = draw(st.lists(st.sampled_from(["mixed", "float64", "int64", "bool", "object"]),
                          min_size=1, max_size=4))
    header = draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds)))
    return header, [column(kind) for kind in kinds]


@given(table_columns())
@settings(max_examples=300, deadline=None)
def test_column_writer_matches_csv_writer_over_cell_rule_rows(tmp_path_factory, table):
    """write_table formats a column at a time; the bytes must be those of
    csv.writer writing the cell rule's rows (tests/reference.py:_cells)."""
    header, columns = table
    p = tmp_path_factory.mktemp("t") / "t.csv"
    write_table(p, header, columns)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(_cells(row) for row in zip(*columns))
    assert p.read_bytes() == want.getvalue().encode("utf-8")


def _tables(tmp_path):
    """Per table reader: (reader, valid file from its writer, an int column)."""
    events, subs, report, binned = (tmp_path / n for n in ("e.csv", "s.csv", "r.csv", "b.csv"))
    write_events(event_table(_events(3)), events)
    parents = _saccades()
    write_subevents(subevent_table([SubEvent("w0:sac000", "peak", 4, 9)], parents), subs)
    write_report(_report(_results()), report)
    write_binned({"saccade_duration_ms": [
        BinnedInfluence("saccade_duration_ms", 9.0, 30.0, "bin", 1, 20, _results()[0]),
        BinnedInfluence("saccade_duration_ms", 30.0, math.inf, "overflow", 0, 0, None),
    ]}, binned)
    return {
        "events": (read_events, events, "onset"),
        "subevents": (lambda p: read_subevents(p, parents, 1000), subs, "offset"),
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
    write_events(event_table(_events(3)), p)
    good = p.read_text()
    p.write_text(good.replace(",false,", ",no,", 1))
    with pytest.raises(FormatError, match="e.csv: line .*: cannot parse excluded 'no'"):
        read_events(p)
    lines = good.splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[5], "fast", 1)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="e.csv: line 2: cannot parse duration_ms 'fast'"):
        read_events(p)


@pytest.mark.parametrize("lineno, edit, message", [
    (3, lambda line: line.replace(",saccade,", ",blink,"), "line 3: cannot parse kind 'blink'"),
    (2, lambda line: line.replace("min duration", "too short"),
     "line 2: cannot parse exclusion_reason 'too short'"),
    (2, lambda line: line.replace("min duration", "max dispersion; min duration"),
     "line 2: cannot parse exclusion_reason 'max dispersion; min duration'"),
    (3, lambda line: line.replace(",false,", ",true,"),
     "line 3: excluded is true but exclusion_reason is ''"),
    (3, lambda line: "w0000:fix000" + line[line.index(","):],
     "line 3: event_id 'w0000:fix000' repeats"),
])
def test_event_reader_rejects_codes_it_cannot_hold(tmp_path, lineno, edit, message):
    """Kinds and exclusion reasons are read into codes: only the names the
    detectors write parse, the excluded flag must agree with the reason,
    and event ids must be unique (sub-events name their parent by id)."""
    p = tmp_path / "e.csv"
    write_events(event_table(_events(3)), p)
    assert p.read_text().splitlines()[1].startswith("w0000:fix000,")
    _edit_line(p, lineno, edit)
    with pytest.raises(FormatError, match=f"e.csv: {message}"):
        read_events(p)


def test_read_table_parses_optional_cells(tmp_path):
    p = tmp_path / "b.csv"
    write_binned({"saccade_duration_ms": [
        BinnedInfluence("saccade_duration_ms", -math.inf, 9.0, "underflow", 0, 0, None),
    ]}, p)
    (row,) = read_binned(p)["saccade_duration_ms"]
    assert (row.lo, row.hi, row.influence) == (-math.inf, 9.0, None)
    table, lines = read_table(p, ("property", "label", "lo", "hi", "event_count",
                                  "segmentation_size", "intersection", "c", "c_mean"), {})
    assert table["lo"] == [""] and table["event_count"] == ["0"] and lines == [2]


def test_json_report_rejects_other_keys(tmp_path):
    p = tmp_path / "r.json"
    write_report(_report(_results()), p, "json")
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
