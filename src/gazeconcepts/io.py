"""File formats: gaze CSVs, attribution maps, manifests, events, reports.

Gaze recordings are per-sample CSVs with header ``t_ms,x_deg,y_deg``
(monocular) or ``t_ms,x_left_deg,y_left_deg,x_right_deg,y_right_deg``
(binocular). Missing coordinates may be written as an empty field,
``NaN`` or ``.``; a missing x always implies a missing y and vice versa.

Attribution maps are accepted in two forms: a dense text matrix with a
short ``D=``/``L=`` header and one comma-separated row per channel, or a
sparse CSV with header ``channel,index,value`` covering the full grid.

Gaze rows and dense attribution rows that numpy's C text reader
(``np.loadtxt``) reads row for row, as the line parser would, are parsed
by it in one call; all others are parsed line by line, with the same
values and the same errors.

Recordings and attributions round-trip exactly (shortest-repr floats),
as do the binary ``.npz`` windows and top-k stage files. Every other
CSV table (events, sub-events, influence, binned influence, synth
ground truth) is written by ``write_table`` and read back by
``read_table``, a column at a time, with reals at 9 significant digits.
Events and sub-events are read into the columnar EventTable and
SubEventTable, checked against the windows they belong to.
"""

from __future__ import annotations

import csv
import json
import math
import threading
import warnings
import zipfile
from dataclasses import dataclass, field, replace
from io import StringIO
from pathlib import Path

import numpy as np

from .detect import (
    EXCLUSION_BOUNDS,
    KINDS,
    SACCADE,
    EventTable,
    exclusion_code,
    exclusion_reason,
)
from .dissect import PHASES, SubEventTable
from .errors import AlignmentError, ConfigError, DataError, FormatError
from .influence import ALL_CONCEPTS
from .preprocess import WindowStack, outside_window

MONO_COLUMNS = ("t_ms", "x_deg", "y_deg")
BINOCULAR_COLUMNS = ("t_ms", "x_left_deg", "y_left_deg", "x_right_deg", "y_right_deg")
MISSING_TOKENS = {"", ".", "nan"}


def fmt_sig9(x) -> str:
    """9-significant-digit rendering; NaN/None become the empty field."""
    if x is None:
        return ""
    x = float(x)
    return "" if math.isnan(x) else f"{x:.9g}"


def round9(x: float) -> float:
    """Round a float to 9 significant digits (for JSON documents)."""
    return float(f"{float(x):.9g}")


def _cell(v) -> str:
    """The cell rule for one value: reals at 9 significant digits; NaN,
    +/-inf and None empty; booleans true/false; everything else str()."""
    t = type(v)
    if t is float or t is np.float64:
        return f"{v:.9g}" if math.isfinite(v) else ""
    if t is bool or t is np.bool_:
        return "true" if v else "false"
    return "" if v is None else str(v)


_SPECIAL = (",", '"', "\n", "\r")  # csv.writer may quote a cell holding one


def _quoted(text: str) -> str:
    """A cell as csv.writer writes it among other fields."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _column(values) -> list:
    """The cells of one column under the cell rule, formatted a column at
    a time when every value is an int, or a real or None, or a string."""
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    types = set(map(type, values))
    if types <= {int}:
        return list(map(str, values))
    if types <= {float, type(None)}:
        reals = np.array(values, dtype=float)
        cells = list(map("{:.9g}".format, reals.tolist()))
        for i in np.flatnonzero(~np.isfinite(reals)).tolist():
            cells[i] = ""
        return cells
    cells = values if types <= {str} else list(map(_cell, values))
    if any(c in "".join(cells) for c in _SPECIAL):
        cells = [_quoted(c) if any(s in c for s in _SPECIAL) else c for c in cells]
    return cells


def write_table(path, columns, data):
    """Write a CSV table: the header `columns`, then one line per row.

    ``data`` holds one sequence of values per column (numpy arrays or
    lists), each formatted a column at a time by the cell rule (see
    _cell). The bytes are those csv.writer (with "\\n" line ends)
    writes for the rows.
    """
    body = [_column(values) for values in data]
    if len(body) != len(columns) or len({len(cells) for cells in body}) > 1:
        raise ValueError(f"{len(columns)} columns need as many equal-length sequences")
    lines = [",".join(_column(columns)), *map(",".join, zip(*body))]
    if len(columns) == 1:  # csv.writer quotes a record's lone empty field
        lines = ['""' if line == "" else line for line in lines]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_bool(token: str) -> bool:
    if token not in ("true", "false"):
        raise ValueError(token)
    return token == "true"


def optional(parse, missing):
    """Cell parser for a column whose empty cell means `missing`."""
    return lambda token: parse(token) if token else missing


OPT_REAL = optional(float, math.nan)


def one_of(names):
    """Cell parser that accepts only the given names."""
    names = frozenset(names)

    def parse(token: str) -> str:
        if token not in names:
            raise ValueError(token)
        return token
    return parse


def int64(token: str) -> int:
    """Cell parser for an integer in the int64 range."""
    value = int(token)
    if not -(2**63) <= value < 2**63:
        raise ValueError(token)
    return value


def read_table(path, columns, parsers):
    """Read a table written by write_table: ({column: list of values},
    file line of each row).

    Each column named in `parsers` is converted by its parser, a column
    at a time; the rest stay strings. A header other than exactly
    `columns`, a row with the wrong number of fields or a cell that does
    not parse raises FormatError naming the path and the line of the
    first fault.
    """
    path = Path(path)
    rows, lines = [], []
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(columns):
                raise FormatError(f"{path}: header is not {','.join(columns)}")
            for fields in reader:
                rows.append(fields)
                lines.append(reader.line_num)
        except (csv.Error, UnicodeDecodeError) as e:
            raise FormatError(f"{path}: line {reader.line_num}: {e}") from None
    width, whole = len(columns), len(rows)  # rows before the first of another width
    if set(map(len, rows)) - {width}:
        whole = next(i for i, fields in enumerate(rows) if len(fields) != width)
    table = dict(zip(columns, map(list, zip(*rows[:whole]) if whole else [[]] * width)))
    try:
        for name, parse in parsers.items():
            table[name] = list(map(parse, table[name]))
    except ValueError:
        for fields, line in zip(rows[:whole], lines):  # the first cell that does not parse
            for i, name in enumerate(columns):
                try:
                    parsers.get(name, str)(fields[i])
                except ValueError:
                    raise FormatError(
                        f"{path}: line {line}: cannot parse {name} {fields[i]!r}"
                    ) from None
    if whole < len(rows):
        raise FormatError(
            f"{path}: line {lines[whole]}: {len(rows[whole])} fields, expected {width}"
        )
    return table, lines


@dataclass
class GazeRecording:
    """Positional gaze samples at a fixed nominal sampling rate.

    ``eyes`` maps an eye label to its (x_deg, y_deg) arrays; missing
    samples are NaN in both coordinates. ``eye`` is "mono", "left" or
    "right" for monocular data and "binocular" when both eyes are held.
    """

    recording_id: str
    t_ms: np.ndarray
    eyes: dict
    eye: str = "mono"
    sampling_rate_hz: float = 1000.0
    source_meta: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return len(self.t_ms)

    def _single(self):
        if self.eye == "binocular":
            raise ConfigError("recording is binocular; select an eye first")
        return self.eyes[self.eye]

    @property
    def x_deg(self) -> np.ndarray:
        return self._single()[0]

    @property
    def y_deg(self) -> np.ndarray:
        return self._single()[1]


@dataclass
class AttributionMap:
    """Per-channel, per-step relevance values for one window."""

    window_id: str
    values: np.ndarray  # (D, L)
    target_label: str | None = None

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass
class ManifestEntry:
    recording: str
    attribution: str
    window_id: str


@dataclass
class RunManifest:
    """The evaluation set: which attribution file explains which window."""

    entries: list
    base_dir: Path
    config: str | None = None
    output_dir: str | None = None

    def resolve(self, relpath: str) -> Path:
        p = Path(relpath)
        return p if p.is_absolute() else self.base_dir / p


def _couple_missing(x: np.ndarray, y: np.ndarray):
    missing = ~(np.isfinite(x) & np.isfinite(y))
    x = x.copy()
    y = y.copy()
    x[missing] = np.nan
    y[missing] = np.nan
    return x, y


def _parse_coord(token: str) -> float:
    token = token.strip()
    if token.lower() in MISSING_TOKENS:
        return math.nan
    try:
        return float(token)
    except ValueError:
        return math.nan  # unparseable coordinates become missing samples


def _check_monotone(t: np.ndarray, line_of_sample, path):
    if len(t) > 1:
        bad = np.flatnonzero(np.diff(t) <= 0)
        if len(bad):
            raise DataError(
                f"{path}: timestamps not strictly increasing at line "
                f"{line_of_sample(int(bad[0]) + 1)}"
            )


# str.splitlines' line breaks other than "\n": numpy's text reader does not
# split on them (read_text has already turned "\r\n" and "\r" into "\n").
_OTHER_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _first_line(text: str) -> str:
    """text.splitlines()[0] ("" for no line), without splitting the rest."""
    end = text.find("\n")
    head = text if end < 0 else text[:end]
    return head.splitlines()[0] if head else ""


# From numpy 1.23 until that deprecation expired, loadtxt parses an int64
# token that is not an integer ("1.5", "1e3", "99999999999999999999") through
# a float, warning only (DeprecationWarning) and truncating; raised as an
# error, the warning makes loadtxt raise ValueError instead. catch_warnings
# swaps the process-wide filters, so concurrent loads take turns.
_STRICT_LOADTXT = threading.Lock()


def _file_stamp(path):
    st = path.stat()
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _gaze_columns(path, raw: str, ncol: int, idx, stamp):
    """Columnar parse of the gaze rows by numpy's C text reader: (t_ms,
    coordinate columns) or None.

    `raw` is the file's text as read when the file had `stamp`. Applies
    when the header's columns are the schema's, each once, and the file's
    lines are exactly str.splitlines' lines with no blank one, so that
    loadtxt sees the rows and fields csv.reader sees. With every warning
    raised as an error, its int64 column takes only an optionally signed,
    space-padded run of ASCII digits in the int64 range, valued as int()
    values it; its float64 columns take a subset of what float() takes,
    with the same values (NaN and inf are coupled into missing samples
    later, as in the line parser). Anything loadtxt declines (empty or "."
    cells, quoted cells, wrong field counts, out-of-range timestamps, ...)
    and a file that changed after `raw` was read return None: the line
    parser then parses `raw`.
    """
    if sorted(idx) != list(range(ncol)) or any(b in raw for b in _OTHER_LINE_BREAKS):
        return None
    end = raw.find("\n")
    if end < 0 or raw[end + 1:end + 2] in ("", "\n"):
        return None  # no rows, or a blank line that loadtxt would skip
    dtype = np.dtype([(str(i), np.int64 if i == idx[0] else np.float64) for i in range(ncol)])
    with _STRICT_LOADTXT, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                skiprows=1, encoding="utf-8", ndmin=1,
            )
        except (ValueError, Warning):
            return None
    if len(table) != raw.count("\n") - raw.endswith("\n"):
        return None  # loadtxt skipped blank lines, which the line parser counts
    if _file_stamp(path) != stamp:
        return None  # loadtxt read another text than `raw`
    return table[str(idx[0])].copy(), [table[str(i)] for i in idx[1:]]


def _gaze_lines(body, header, idx, path):
    """Line-by-line parse of the gaze rows: (t_ms, coordinate columns,
    file line of each sample, blank lines skipped). Missing-value tokens
    and unparseable coordinates become NaN."""
    kept_lines = []  # 1-based file line numbers of parsed samples
    rows = []
    skipped = 0
    for lineno, line in enumerate(body, start=2):
        if not line.strip():
            skipped += 1
            continue
        fields = next(csv.reader([line]))
        if len(fields) != len(header):
            raise FormatError(
                f"{path}: line {lineno} has {len(fields)} fields, expected {len(header)}"
            )
        try:
            t = int(fields[idx[0]].strip())
        except ValueError:
            raise DataError(
                f"{path}: line {lineno}: timestamp {fields[idx[0]]!r} is not an integer"
            ) from None
        if not -2**63 <= t < 2**63:
            raise DataError(
                f"{path}: line {lineno}: timestamp {fields[idx[0]]!r} is out of the int64 range"
            )
        rows.append((t, [_parse_coord(fields[i]) for i in idx[1:]]))
        kept_lines.append(lineno)
    t = np.array([r[0] for r in rows], dtype=np.int64)
    coords = np.array([r[1] for r in rows], dtype=float).reshape(len(rows), len(idx) - 1)
    return t, coords.T, kept_lines, skipped


def load_gaze_csv(path, schema: dict | None = None) -> GazeRecording:
    """Load a gaze recording, normalizing missing-value encodings.

    ``schema`` optionally maps the logical column names to the file's
    actual header names. Every row must have exactly as many fields as
    the header. Blank lines are skipped and counted in
    ``source_meta['skipped_rows']``; no other row is ever dropped.
    """
    path = Path(path)
    stamp = _file_stamp(path)
    raw = path.read_text(encoding="utf-8")
    if not raw or raw.isspace():
        raise DataError(f"{path}: empty file")
    header = next(csv.reader([_first_line(raw)]))
    header = [h.strip() for h in header]

    schema = schema or {}
    for logical in schema:
        if logical not in MONO_COLUMNS and logical not in BINOCULAR_COLUMNS:
            raise ConfigError(f"unknown logical column {logical!r} in schema")

    def col(logical):
        name = schema.get(logical, logical)
        if name not in header:
            return None
        return header.index(name)

    if all(col(c) is not None for c in BINOCULAR_COLUMNS):
        columns = BINOCULAR_COLUMNS
        eye = "binocular"
    elif all(col(c) is not None for c in MONO_COLUMNS):
        columns = MONO_COLUMNS
        eye = "mono"
    else:
        raise FormatError(
            f"{path}: header {header!r} matches neither the monocular nor "
            f"the binocular gaze schema"
        )
    idx = [col(c) for c in columns]

    parsed = _gaze_columns(path, raw, len(header), idx, stamp)
    if parsed is not None:
        t, coords = parsed
        kept_lines, skipped = range(2, len(t) + 2), 0
    else:
        t, coords, kept_lines, skipped = _gaze_lines(raw.splitlines()[1:], header, idx, path)
    _check_monotone(t, lambda i: kept_lines[i], path)

    if eye == "mono":
        x, y = _couple_missing(coords[0], coords[1])
        eyes = {"mono": (x, y)}
    else:
        xl, yl = _couple_missing(coords[0], coords[1])
        xr, yr = _couple_missing(coords[2], coords[3])
        eyes = {"left": (xl, yl), "right": (xr, yr)}
    return GazeRecording(path.stem, t, eyes, eye,
                         source_meta={"path": str(path), "skipped_rows": str(skipped)})


def _exact_column(values) -> list:
    """Each value as the shortest decimal that parses back to the same
    float, NaN spelled out; one pass over the column."""
    return ["NaN" if v != v else repr(v) for v in np.asarray(values, dtype=float).tolist()]


def write_gaze_csv(rec: GazeRecording, path):
    """Write a recording; floats use exact round-trip formatting."""
    if rec.eye == "binocular":
        header = BINOCULAR_COLUMNS
        coords = (*rec.eyes["left"], *rec.eyes["right"])
    else:
        header = MONO_COLUMNS
        coords = (rec.x_deg, rec.y_deg)
    columns = [map(str, np.asarray(rec.t_ms).tolist()), *map(_exact_column, coords)]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def select_eye(rec: GazeRecording, eye: str = "right") -> GazeRecording:
    """Reduce a recording to one eye (right by default for binocular data)."""
    if rec.eye == "binocular":
        if eye not in rec.eyes:
            raise ConfigError(
                f"recording {rec.recording_id!r} has eyes {sorted(rec.eyes)}, "
                f"requested {eye!r}"
            )
        return replace(rec, eyes={eye: rec.eyes[eye]}, eye=eye, source_meta=dict(rec.source_meta))
    if eye == "mono" or eye == rec.eye:
        return rec
    raise ConfigError(
        f"recording {rec.recording_id!r} is monocular ({rec.eye}); "
        f"requested {eye!r}"
    )


def read_json(path):
    """A JSON document; FormatError naming the path if it does not parse."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: not valid JSON: {e}") from None


def load_manifest(path) -> RunManifest:
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise FormatError(f"{path}: manifest must be an object with 'entries'")
    entries = []
    seen = set()
    for i, e in enumerate(doc["entries"]):
        missing = {"recording", "attribution", "window_id"} - set(e)
        if missing:
            raise FormatError(f"{path}: entry {i} missing fields {sorted(missing)}")
        if e["window_id"] in seen:
            raise DataError(f"{path}: duplicate window_id {e['window_id']!r}")
        seen.add(e["window_id"])
        entries.append(ManifestEntry(e["recording"], e["attribution"], e["window_id"]))
    return RunManifest(
        entries=entries,
        base_dir=path.parent,
        config=doc.get("config"),
        output_dir=doc.get("output_dir"),
    )


def write_manifest(manifest: RunManifest, path):
    doc = {
        "output_dir": manifest.output_dir,
        "config": manifest.config,
        "entries": [
            {"recording": e.recording, "attribution": e.attribution, "window_id": e.window_id}
            for e in manifest.entries
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _require_finite(values: np.ndarray, path):
    finite = np.isfinite(values)
    if not finite.all():
        ch, i = np.argwhere(~finite)[0]
        raise DataError(f"{path}: non-finite attribution value at channel {ch}, index {i}")


def _dense_rows(body, length: int):
    """The dense form's channel rows as one (D, L) array parsed by numpy's
    C text reader, or None when it declines them (a token it does not
    take, such as "1_0", or rows of unequal length) or they are not
    `length` values long; the per-row parse then gives the value or the
    error."""
    try:
        values = np.loadtxt(
            body, dtype=float, delimiter=",", comments=None, quotechar=None, ndmin=2
        )
    except ValueError:
        return None
    return values if values.shape == (len(body), length) else None


def _sparse_values(path, rows) -> np.ndarray:
    """The (D, L) grid of a sparse attribution file from its (file line,
    line) data rows, which must give every cell of the grid exactly once."""
    cells = {}  # (channel, index) -> (file line, value)
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != 3:
            raise FormatError(f"{path}: line {lineno}: expected 3 fields")
        try:
            cell = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: channel {fields[0]!r} and index {fields[1]!r} "
                f"must be integers"
            ) from None
        try:
            value = float(fields[2])
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: value {fields[2]!r} is not a number"
            ) from None
        where = f"{path}: line {lineno}: channel {cell[0]}, index {cell[1]}"
        if min(cell) < 0:
            raise FormatError(f"{where} is negative")
        if cell in cells:
            raise FormatError(f"{where} repeats line {cells[cell][0]}")
        cells[cell] = lineno, value
    d = max((ch for ch, _ in cells), default=-1) + 1
    l = max((i for _, i in cells), default=-1) + 1
    if len(cells) != d * l:
        raise FormatError(f"{path}: sparse file covers {len(cells)} cells, grid needs {d * l}")
    values = np.empty((d, l))
    for (ch, i), (_, value) in cells.items():
        values[ch, i] = value
    return values


def load_attribution(path, window_id: str | None = None) -> AttributionMap:
    """Load one attribution file (dense or sparse form)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    rows = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not rows:
        raise DataError(f"{path}: empty attribution file")
    lines = [ln for _, ln in rows]

    target = None
    if lines[0].startswith("D="):
        try:
            d = int(lines[0][2:])
            l = int(lines[1][2:]) if lines[1].startswith("L=") else None
        except (ValueError, IndexError):
            raise FormatError(f"{path}: malformed dense header") from None
        if l is None:
            raise FormatError(f"{path}: dense header must declare D= then L=")
        if d < 0 or l < 0:
            raise FormatError(f"{path}: malformed dense header")
        body = lines[2:]
        if body and body[0].startswith("target="):
            target = body[0][len("target="):]
            body = body[1:]
        if len(body) != d:
            raise FormatError(f"{path}: expected {d} channel rows, found {len(body)}")
        values = _dense_rows(body, l) if body else None
        if values is None:
            values = np.empty((d, l), dtype=float)
            for ch, row in enumerate(body):
                try:
                    vals = np.array(row.split(","), dtype=float)
                except ValueError:
                    raise FormatError(f"{path}: channel {ch} has a non-numeric value") from None
                if len(vals) != l:
                    raise FormatError(
                        f"{path}: channel {ch} has {len(vals)} values, declared L={l}"
                    )
                values[ch] = vals
    elif lines[0].replace(" ", "") == "channel,index,value":
        values = _sparse_values(path, rows[1:])
    else:
        raise FormatError(
            f"{path}: expected a dense 'D='/'L=' header or a 'channel,index,value' header"
        )

    _require_finite(values, path)
    wid = window_id if window_id is not None else path.stem
    return AttributionMap(window_id=wid, values=values, target_label=target)


def write_attribution(attr: AttributionMap, path):
    """Write an attribution map in the dense text form (exact floats)."""
    path = Path(path)
    out = [f"D={attr.channels}", f"L={attr.length}"]
    if attr.target_label is not None:
        out.append(f"target={attr.target_label}")
    for ch in range(attr.channels):
        out.append(",".join(_exact_column(attr.values[ch])))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def validate_attribution(attr: AttributionMap, length: int):
    """Check that an attribution's shape is exactly (2, length), that of
    its window."""
    if attr.length != length or attr.channels != 2:
        raise AlignmentError(
            f"attribution for window {attr.window_id!r} has shape "
            f"({attr.channels}, {attr.length}), window needs (2, {length})"
        )


WINDOW_ARRAYS = (
    "window_id", "recording_id", "start_index", "sampling_rate_hz",
    "vx", "vy", "px", "py", "valid",
)


def write_windows(stack: WindowStack, path):
    """Write a stack of velocity windows as one ``.npz`` stage file.

    Arrays are stored in binary, so every float round-trips exactly. The
    file is written to exactly ``path``, whatever its suffix.
    """
    arrays = {
        "window_id": np.array(stack.window_ids, dtype=str),
        "recording_id": np.array(stack.recording_ids, dtype=str),
        "start_index": np.array(stack.start_index, dtype=np.int64),
        "sampling_rate_hz": stack.sampling_rate_hz,
        "vx": stack.vx,
        "vy": stack.vy,
        "px": stack.px,
        "py": stack.py,
        "valid": stack.valid,
    }
    with Path(path).open("wb") as fh:
        np.savez(fh, **arrays)


def _load_npz(path, names, what: str) -> dict:
    """The arrays of a stage ``.npz`` file that holds exactly `names`;
    FormatError naming the path for any other file."""
    path = Path(path)
    with path.open("rb") as fh:
        try:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with npz:
                if set(npz.files) != set(names):
                    raise ValueError(f"not the {what} arrays")
                return {name: npz[name] for name in names}
        except (ValueError, EOFError, zipfile.BadZipFile):
            raise FormatError(f"{path}: not a {what}") from None


def read_windows(path) -> WindowStack:
    """Inverse of write_windows, as one stack of the file's arrays;
    rejects anything but a windows file."""
    a = _load_npz(path, WINDOW_ARRAYS, "windows file")
    n = a["window_id"].size
    shapes = {a[name].shape for name in WINDOW_ARRAYS[4:]}
    if len(shapes) != 1 or len(shapes.pop()) != 2 or any(a[k].shape[:1] != (n,) for k in a):
        raise FormatError(f"{path}: windows file arrays disagree in shape")
    window_ids = [str(w) for w in a["window_id"]]
    if len(set(window_ids)) != n:
        raise FormatError(f"{path}: window ids are not unique")
    return WindowStack(
        window_ids=window_ids,
        recording_ids=[str(r) for r in a["recording_id"]],
        start_index=a["start_index"].tolist(),
        sampling_rate_hz=a["sampling_rate_hz"].astype(float),
        vx=a["vx"],
        vy=a["vy"],
        px=a["px"],
        py=a["py"],
        valid=a["valid"],
    )


TOPK_ARRAYS = ("window_id", "indices", "k", "squash")


def write_topk(window_ids, masks, path, squash: str):
    """Store the (n, L) top-k masks of the windows `window_ids` as one
    ``.npz`` stage file: the window ids, the k masked steps of each
    window as ascending int32 indices, k, and the squash mode the
    attributions were collapsed with. The file is written to exactly
    ``path``, whatever its suffix.
    """
    ks = np.unique(np.count_nonzero(masks, axis=1)).tolist()
    if len(ks) > 1:
        raise DataError(f"top-k segmentations of mixed k {ks} cannot be stacked")
    k = ks[0] if ks else 0
    arrays = {
        "window_id": np.array(window_ids, dtype=str),
        "indices": np.nonzero(masks)[1].astype(np.int32).reshape(len(masks), k),
        "k": np.array(k, dtype=np.int64),
        "squash": np.array(squash, dtype=str),
    }
    with Path(path).open("wb") as fh:
        np.savez(fh, **arrays)


def read_topk(path, length: int):
    """Inverse of write_topk for windows of `length` steps: (window ids
    in file order, (n, length) top-k masks, k, squash mode). Rejects
    anything but a top-k file, and indices that are not k ascending
    steps of a window."""
    a = _load_npz(path, TOPK_ARRAYS, "top-k file")
    ids, indices, k, squash = (a[name] for name in TOPK_ARRAYS)
    if (
        ids.ndim != 1 or k.shape != () or k.dtype.kind != "i"
        or squash.shape != () or squash.dtype.kind != "U"
        or indices.dtype.kind != "i" or indices.shape != (ids.size, int(k))
    ):
        raise FormatError(f"{path}: top-k file arrays disagree in shape")
    k = int(k)
    if indices.size and (
        indices.min() < 0 or indices.max() >= length or (np.diff(indices, axis=1) <= 0).any()
    ):
        raise FormatError(f"{path}: indices are not {k} ascending steps of {length}")
    masks = np.zeros((ids.size, length), dtype=bool)
    np.put_along_axis(masks, indices, True, axis=1)
    return ids.tolist(), masks, k, str(squash)


EVENT_COLUMNS = (
    "event_id", "window_id", "kind", "onset", "offset", "duration_ms", "peak_velocity",
    "amplitude_deg", "dispersion_deg", "velocity_std", "excluded", "exclusion_reason",
)
_EVENT_PARSERS = {
    "kind": KINDS.index, "onset": int64, "offset": int64, "duration_ms": OPT_REAL,
    "peak_velocity": OPT_REAL, "amplitude_deg": OPT_REAL, "dispersion_deg": OPT_REAL,
    "velocity_std": OPT_REAL, "excluded": parse_bool, "exclusion_reason": exclusion_code,
}
_REASONS = np.array([exclusion_reason(c) for c in range(1 << len(EXCLUSION_BOUNDS))],
                    dtype=object)


def _ranks(strings) -> np.ndarray:
    """Each string's place in sorted order, ties in list order."""
    rank = np.empty(len(strings), dtype=np.int64)
    rank[sorted(range(len(strings)), key=strings.__getitem__)] = np.arange(len(strings))
    return rank


def write_events(events: EventTable, path):
    """Write events sorted by (window_id, onset, kind, event_id); reals at 9 digits."""
    window_rank = _ranks(events.window_ids)[events.row]
    e = events.take(np.lexsort(
        (_ranks(events.event_id.tolist()), events.kind, events.onset, window_rank)
    ))
    write_table(path, EVENT_COLUMNS, [
        e.event_id, np.array(e.window_ids, dtype=object)[e.row],
        np.array(KINDS, dtype=object)[e.kind], e.onset, e.offset, e.duration_ms,
        e.peak_velocity, e.amplitude_deg, e.dispersion_deg, e.velocity_std, e.excluded,
        _REASONS[e.exclusion],
    ])


def _first(path, lines, bad, message, error=DataError):
    """error naming the file and the line of the first row where `bad`
    holds, with the text message(i) for row i."""
    if bad.any():
        i = int(np.argmax(bad))
        raise error(f"{path}: line {lines[i]}: {message(i)}")


def _check_intervals(path, lines, onset, offset, length, window_ids):
    _first(path, lines, outside_window(onset, offset, length), lambda i: (
        f"interval [{onset[i]}, {offset[i]}] outside window {window_ids[i]!r} of length {length}"
    ))


def read_events(path, windows=None) -> EventTable:
    """Inverse of write_events. With ``windows`` (a WindowStack) the
    table's rows index its windows, and an event of another window or an
    interval outside its window is a DataError naming the file and line;
    without, the window ids are the file's, in order of first appearance.
    A repeated event_id, or an excluded flag that disagrees with the
    exclusion reason, is a FormatError naming the file and line."""
    path = Path(path)
    t, lines = read_table(path, EVENT_COLUMNS, _EVENT_PARSERS)
    ids = np.array(t["event_id"], dtype=object)
    repeated = np.ones(len(ids), dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    _first(path, lines, repeated, lambda i: f"event_id {ids[i]!r} repeats", FormatError)
    exclusion = np.array(t["exclusion_reason"], dtype=np.uint8)
    excluded = np.array(t["excluded"], dtype=bool)
    _first(path, lines, excluded != (exclusion != 0), lambda i: (
        f"excluded is {str(excluded[i]).lower()} but exclusion_reason is "
        f"{exclusion_reason(exclusion[i])!r}"
    ), FormatError)
    window_ids = list(dict.fromkeys(t["window_id"])) if windows is None else windows.window_ids
    row_of = {window_id: row for row, window_id in enumerate(window_ids)}
    rows = np.array([row_of.get(w, -1) for w in t["window_id"]], dtype=np.int64)
    _first(path, lines, rows < 0, lambda i: (
        f"event {ids[i]} references unknown window {t['window_id'][i]}"
    ))
    onset, offset = (np.array(t[name], dtype=np.int64) for name in ("onset", "offset"))
    if windows is not None:
        _check_intervals(path, lines, onset, offset, windows.length, t["window_id"])
    return EventTable(
        window_ids, rows, np.array(t["kind"], dtype=np.int8), onset, offset,
        *(np.array(t[name], dtype=float) for name in EVENT_COLUMNS[5:10]), exclusion, ids,
    )


SUBEVENT_COLUMNS = ("parent_event_id", "window_id", "phase", "onset", "offset")


def write_subevents(subs: SubEventTable, path):
    """Write phase segments sorted by (window_id, parent_event_id, phase,
    onset); window_id is the parent's window."""
    parents = subs.events
    s = subs.take(np.lexsort((
        subs.onset, subs.phase, _ranks(parents.event_id.tolist())[subs.parent],
        _ranks(parents.window_ids)[subs.row],
    )))
    write_table(path, SUBEVENT_COLUMNS, [
        parents.event_id[s.parent], np.array(parents.window_ids, dtype=object)[s.row],
        np.array(PHASES, dtype=object)[s.phase], s.onset, s.offset,
    ])


def read_subevents(path, events: EventTable, length: int) -> SubEventTable:
    """Inverse of write_subevents, the parents found among ``events``,
    in windows of `length` samples. A parent that is not a retained
    saccade, a window_id other than the parent's window or an interval
    outside the window is a DataError naming the file and line."""
    path = Path(path)
    t, lines = read_table(
        path, SUBEVENT_COLUMNS, {"phase": PHASES.index, "onset": int64, "offset": int64}
    )
    saccades = np.flatnonzero(events.is_kind(SACCADE) & ~events.excluded)
    index_of = dict(zip(events.event_id[saccades].tolist(), saccades.tolist()))
    parent = np.array([index_of.get(p, -1) for p in t["parent_event_id"]], dtype=np.int64)
    _first(path, lines, parent < 0, lambda i: (
        f"sub-event parent {t['parent_event_id'][i]!r} is not a retained saccade in events.csv"
    ))
    window = np.array(events.window_ids, dtype=object)[events.row[parent]]
    _first(path, lines, window != np.array(t["window_id"], dtype=object), lambda i: (
        f"window_id {t['window_id'][i]!r} is not {window[i]!r}, the window of its parent"
    ))
    onset, offset = (np.array(t[name], dtype=np.int64) for name in ("onset", "offset"))
    _check_intervals(path, lines, onset, offset, length, window)
    return SubEventTable(events, parent, np.array(t["phase"], dtype=np.int8), onset, offset)


REPORT_COLUMNS = (
    "concept", "scope", "window_id", "L_total", "S_total", "k_total", "intersection",
    "c", "c_mean", "n_windows", "n_skipped",
)
_REPORT_PARSERS = {
    "concept": one_of(ALL_CONCEPTS), "L_total": int, "S_total": int, "k_total": int,
    "intersection": int, "c": float, "c_mean": optional(float, None), "n_windows": int,
    "n_skipped": int,
}


def write_report(columns: dict, path, format: str = "csv"):
    """Write influence results, one sequence of values per REPORT_COLUMNS
    name (InfluenceTable.rows), as CSV or JSON, sorted by (concept,
    scope, window_id)."""
    keys = list(zip(columns["concept"], columns["scope"], columns["window_id"]))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    data = [[values[i] for i in order] for values in map(columns.__getitem__, REPORT_COLUMNS)]
    if format == "csv":
        write_table(path, REPORT_COLUMNS, data)
    elif format == "json":
        at = REPORT_COLUMNS.index
        data[at("c")] = list(map(round9, data[at("c")]))
        data[at("c_mean")] = [None if v is None else round9(v) for v in data[at("c_mean")]]
        doc = [dict(zip(REPORT_COLUMNS, row)) for row in zip(*data)]
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    else:
        raise ConfigError(f"unknown report format {format!r}")


def read_report(path, format: str = "csv") -> dict:
    """Inverse of write_report: one list of values per REPORT_COLUMNS
    name, rows in file order."""
    if format == "csv":
        return read_table(path, REPORT_COLUMNS, _REPORT_PARSERS)[0]
    if format == "json":
        rows = read_json(path)
        if not isinstance(rows, list):
            raise FormatError(f"{path}: expected a list of influence rows")
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or set(row) != set(REPORT_COLUMNS):
                raise FormatError(f"{path}: row {i} keys are not {','.join(REPORT_COLUMNS)}")
            if row["concept"] not in ALL_CONCEPTS:
                raise FormatError(f"{path}: row {i}: unknown concept {row['concept']!r}")
        return {name: [row[name] for row in rows] for name in REPORT_COLUMNS}
    raise ConfigError(f"unknown report format {format!r}")
