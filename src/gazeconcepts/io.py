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
``read_table``, with reals at 9 significant digits.
"""

from __future__ import annotations

import csv
import json
import math
import threading
import warnings
import zipfile
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from .detect import GazeEvent
from .dissect import PHASES, SubEvent
from .errors import AlignmentError, ConfigError, DataError, FormatError
from .influence import ALL_CONCEPTS, InfluenceResult, TopKSegmentation
from .preprocess import WindowStack

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


def _cells(row) -> list:
    """write_table's cell rule: reals at 9 significant digits; NaN, +/-inf
    and None empty; booleans true/false; everything else str()."""
    cells = []
    for v in row:
        t = type(v)
        if t is str or t is int:
            cells.append(v)
        elif t is float or t is np.float64:
            cells.append(f"{v:.9g}" if math.isfinite(v) else "")
        elif t is bool or t is np.bool_:
            cells.append("true" if v else "false")
        else:
            cells.append("" if v is None else str(v))
    return cells


def write_table(path, columns, rows):
    """Write a CSV table: the header `columns`, then one line per row, a
    sequence of values in column order."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(map(_cells, rows))


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


def read_table(path, columns, parsers) -> list:
    """Read a table written by write_table, one dict per row.

    Each column named in `parsers` is converted by its parser; the rest
    stay strings. A header other than exactly `columns`, a row with the
    wrong number of fields or a cell that does not parse raises
    FormatError naming the path and line.
    """
    path = Path(path)
    typed = [(i, parsers[name]) for i, name in enumerate(columns) if name in parsers]
    rows = []
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(columns):
                raise FormatError(f"{path}: header is not {','.join(columns)}")
            for fields in reader:
                if len(fields) != len(columns):
                    raise FormatError(
                        f"{path}: line {reader.line_num}: {len(fields)} fields, "
                        f"expected {len(columns)}"
                    )
                try:
                    for i, parse in typed:
                        fields[i] = parse(fields[i])
                except ValueError:
                    raise FormatError(
                        f"{path}: line {reader.line_num}: cannot parse "
                        f"{columns[i]} {fields[i]!r}"
                    ) from None
                rows.append(dict(zip(columns, fields)))
        except (csv.Error, UnicodeDecodeError) as e:
            raise FormatError(f"{path}: line {reader.line_num}: {e}") from None
    return rows


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
    return GazeRecording(
        recording_id=path.stem,
        t_ms=t,
        eyes=eyes,
        eye=eye,
        source_meta={"path": str(path), "skipped_rows": str(skipped)},
    )


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
        return GazeRecording(
            recording_id=rec.recording_id,
            t_ms=rec.t_ms,
            eyes={eye: rec.eyes[eye]},
            eye=eye,
            sampling_rate_hz=rec.sampling_rate_hz,
            source_meta=dict(rec.source_meta),
        )
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
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        ch, i = bad[0]
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


def validate_attribution(attr: AttributionMap, window):
    """Check that an attribution's shape matches its window exactly."""
    if attr.length != window.length or attr.channels != 2:
        raise AlignmentError(
            f"attribution for window {attr.window_id!r} has shape "
            f"({attr.channels}, {attr.length}), window needs (2, {window.length})"
        )


WINDOW_ARRAYS = (
    "window_id", "recording_id", "start_index", "sampling_rate_hz",
    "vx", "vy", "px", "py", "valid",
)


def write_windows(windows, path):
    """Stack equal-length velocity windows into one ``.npz`` stage file.

    Arrays are stored in binary, so every float round-trips exactly. The
    file is written to exactly ``path``, whatever its suffix.
    """
    stack = WindowStack.of(windows)
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
    """Inverse of write_windows, as one stack whose windows are row views
    of the file's arrays; rejects anything but a windows file."""
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


def write_topk(topks, path, squash: str):
    """Store top-k segmentations as one ``.npz`` stage file: the window
    ids, the k masked steps of each window as ascending int32 indices,
    k, and the squash mode the attributions were collapsed with. The
    file is written to exactly ``path``, whatever its suffix.
    """
    ks = {t.k for t in topks}
    if len(ks) > 1:
        raise DataError(f"top-k segmentations of mixed k {sorted(ks)} cannot be stacked")
    k = ks.pop() if ks else 0
    arrays = {
        "window_id": np.array([t.window_id for t in topks], dtype=str),
        "indices": np.array(
            [np.flatnonzero(t.mask) for t in topks], dtype=np.int32
        ).reshape(-1, k),
        "k": np.array(k, dtype=np.int64),
        "squash": np.array(squash, dtype=str),
    }
    with Path(path).open("wb") as fh:
        np.savez(fh, **arrays)


def read_topk(path, length: int):
    """Inverse of write_topk for windows of `length` steps: (top-k
    segmentations in file order, k, squash mode). Rejects anything but a
    top-k file, and indices that are not k ascending steps of a window."""
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
    topks = [TopKSegmentation(str(w), k, mask) for w, mask in zip(ids, masks)]
    return topks, k, str(squash)


EVENT_COLUMNS = (
    "event_id", "window_id", "kind", "onset", "offset", "duration_ms", "peak_velocity",
    "amplitude_deg", "dispersion_deg", "velocity_std", "excluded", "exclusion_reason",
)
_EVENT_PARSERS = {
    "onset": int, "offset": int, "duration_ms": OPT_REAL, "peak_velocity": OPT_REAL,
    "amplitude_deg": OPT_REAL, "dispersion_deg": OPT_REAL, "velocity_std": OPT_REAL,
    "excluded": parse_bool,
}


def write_events(events, path):
    """Write events sorted by (window_id, onset, kind); reals at 9 digits."""
    events = sorted(events, key=attrgetter("window_id", "onset", "kind", "event_id"))
    write_table(path, EVENT_COLUMNS, map(attrgetter(*EVENT_COLUMNS), events))


def read_events(path) -> list:
    return [GazeEvent(**row) for row in read_table(path, EVENT_COLUMNS, _EVENT_PARSERS)]


SUBEVENT_COLUMNS = ("parent_event_id", "window_id", "phase", "onset", "offset")
_PHASE_ORDER = {p: i for i, p in enumerate(PHASES)}


def write_subevents(sub_events, path):
    """Write phase segments; window_id is recovered from the parent id."""
    def key(s):
        return (s.parent_event_id.rsplit(":", 1)[0], s.parent_event_id,
                _PHASE_ORDER.get(s.phase, 9), s.onset)
    write_table(path, SUBEVENT_COLUMNS, (
        (s.parent_event_id, s.parent_event_id.rsplit(":", 1)[0], s.phase, s.onset, s.offset)
        for s in sorted(sub_events, key=key)
    ))


def read_subevents(path) -> list:
    rows = read_table(
        path, SUBEVENT_COLUMNS, {"phase": one_of(PHASES), "onset": int, "offset": int}
    )
    return [SubEvent(r["parent_event_id"], r["phase"], r["onset"], r["offset"]) for r in rows]


REPORT_COLUMNS = (
    "concept", "scope", "window_id", "L_total", "S_total", "k_total", "intersection",
    "c", "c_mean", "n_windows", "n_skipped",
)
_REPORT_PARSERS = {
    "concept": one_of(ALL_CONCEPTS), "L_total": int, "S_total": int, "k_total": int,
    "intersection": int, "c": float, "c_mean": optional(float, None), "n_windows": int,
    "n_skipped": int,
}


def write_report(results, path, format: str = "csv"):
    """Write influence results as CSV or JSON, deterministically ordered."""
    results = sorted(results, key=attrgetter("concept", "scope", "window_id"))
    values = map(attrgetter(*REPORT_COLUMNS), results)
    if format == "csv":
        write_table(path, REPORT_COLUMNS, values)
    elif format == "json":
        doc = [
            dict(zip(REPORT_COLUMNS, row), c=round9(r.c),
                 c_mean=None if r.c_mean is None else round9(r.c_mean))
            for r, row in zip(results, values)
        ]
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    else:
        raise ConfigError(f"unknown report format {format!r}")


def read_report(path, format: str = "csv") -> list:
    if format == "csv":
        rows = read_table(path, REPORT_COLUMNS, _REPORT_PARSERS)
    elif format == "json":
        rows = read_json(path)
        if not isinstance(rows, list):
            raise FormatError(f"{path}: expected a list of influence rows")
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or set(row) != set(REPORT_COLUMNS):
                raise FormatError(f"{path}: row {i} keys are not {','.join(REPORT_COLUMNS)}")
            if row["concept"] not in ALL_CONCEPTS:
                raise FormatError(f"{path}: row {i}: unknown concept {row['concept']!r}")
    else:
        raise ConfigError(f"unknown report format {format!r}")
    return [InfluenceResult(**row) for row in rows]
