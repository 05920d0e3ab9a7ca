"""Summary documents and SVG charts for influence runs.

The JSON report is the source of truth; charts only project numbers that
the report already contains. Charts are standalone SVG with labeled
axes, rendered deterministically (fixed coordinate formatting, no
timestamps).
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError
from .io import fmt_sig9, round9

CHART_W, CHART_H = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 30, 60


def _escape(text: str) -> str:
    """xml.sax.saxutils.escape without its import, which loads the
    urllib/http/ssl/email stack (43 modules) into every process."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def summarize(parameters: dict, counts: dict, concepts: dict, binned: dict) -> dict:
    """Assemble the report document.

    ``concepts`` maps a concept label to (corpus InfluenceResult or None,
    skipped window count); ``binned`` maps a property name to its list of
    BinnedInfluence. Floats are rounded to 9 significant digits and key
    order is fixed, so identical runs serialize identically.
    """
    if not any(result for result, _ in concepts.values()):
        raise ConfigError("nothing to report: no influence results")
    doc = {"parameters": parameters, "counts": counts, "concepts": {}, "bins": {}}
    for concept in sorted(concepts):
        result, skipped = concepts[concept]
        if result is None:
            doc["concepts"][concept] = {"windows": 0, "windows_skipped": skipped}
            continue
        doc["concepts"][concept] = {
            "c_pooled": round9(result.c),
            "c_mean": None if result.c_mean is None else round9(result.c_mean),
            "top_k_intersection": result.intersection,
            "segmentation_size": result.S_total,
            "relative_size": round9(result.S_total / result.L_total),
            "k_total": result.k_total,
            "L_total": result.L_total,
            "windows": result.n_windows,
            "windows_skipped": skipped,
        }
    for prop in sorted(binned):
        doc["bins"][prop] = [_bin_row(b) for b in binned[prop]]
    return doc


def _bin_row(b) -> dict:
    """One BinnedInfluence as a report row."""
    inf = b.influence
    return {
        "lo": None if b.lo == float("-inf") else round9(b.lo),
        "hi": None if b.hi == float("inf") else round9(b.hi),
        "label": b.label,
        "event_count": b.event_count,
        "segmentation_size": b.segmentation_size,
        "c_pooled": None if inf is None else round9(inf.c),
        "c_mean": None if inf is None or inf.c_mean is None else round9(inf.c_mean),
        "top_k_intersection": None if inf is None else inf.intersection,
    }


def write_report_json(doc: dict, path):
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _svg_open(title: str) -> list:
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{CHART_W}" height="{CHART_H}" viewBox="0 0 {CHART_W} {CHART_H}">',
        f'<title>{_escape(title)}</title>',
        f'<rect x="0" y="0" width="{CHART_W}" height="{CHART_H}" fill="white"/>',
    ]


def _y_scale(values):
    hi = max(max(values), 1.0)
    hi *= 1.05
    span = CHART_H - MARGIN_T - MARGIN_B

    def to_y(v):
        return MARGIN_T + span * (1.0 - v / hi)

    return to_y, hi


def _axes(parts, x_label, y_label, to_y, y_hi):
    x0, x1 = MARGIN_L, CHART_W - MARGIN_R
    y0, y1 = MARGIN_T, CHART_H - MARGIN_B
    parts.append(
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>'
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{CHART_H - 12}" text-anchor="middle" '
        f'font-size="14">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">{_escape(y_label)}</text>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = y_hi * frac
        y = to_y(v)
        parts.append(
            f'<line x1="{x0 - 4}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="black"/>'
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11">'
            f"{v:.3g}</text>"
        )


def _reference_line(parts, to_y, y_hi):
    if y_hi >= 1.0:
        y = to_y(1.0)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{y:.2f}" x2="{CHART_W - MARGIN_R}" y2="{y:.2f}" '
            'stroke="gray" stroke-dasharray="6,4" class="reference-line"/>'
        )


def render_bar_chart(results, path, title: str = "concept influence"):
    """Bar chart of corpus influence per concept."""
    results = list(results)
    if not results:
        raise ConfigError("no results to chart")
    values = [r.c for r in results]
    to_y, y_hi = _y_scale(values)
    parts = _svg_open(title)
    _axes(parts, "concept", "concept influence", to_y, y_hi)
    _reference_line(parts, to_y, y_hi)
    span_x = CHART_W - MARGIN_L - MARGIN_R
    slot = span_x / len(results)
    width = slot * 0.6
    y_base = CHART_H - MARGIN_B
    for i, (r, v) in enumerate(zip(results, values)):
        x = MARGIN_L + slot * i + (slot - width) / 2
        y = to_y(v)
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{width:.2f}" '
            f'height="{y_base - y:.2f}" fill="#4878a8" data-value="{fmt_sig9(v)}"/>'
        )
        parts.append(
            f'<text x="{x + width / 2:.2f}" y="{y_base + 16}" text-anchor="middle" '
            f'font-size="11">{_escape(r.concept)}</text>'
        )
        parts.append(
            f'<text x="{x + width / 2:.2f}" y="{y - 4:.2f}" text-anchor="middle" '
            f'font-size="10">{fmt_sig9(v)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def render_line_chart(binned, path, title: str = ""):
    """Per-bin influence over a property, with a reference line at c = 1.

    Underflow/overflow and empty bins are not plotted.
    """
    rows = [b for b in binned if b.label == "bin" and b.influence is not None]
    if not rows:
        raise ConfigError("no non-empty bins to chart")
    prop = rows[0].property
    values = [b.influence.c for b in rows]
    centers = [(b.lo + b.hi) / 2.0 for b in rows]
    to_y, y_hi = _y_scale(values)
    parts = _svg_open(title or f"concept influence by {prop}")
    _axes(parts, prop, "concept influence", to_y, y_hi)
    _reference_line(parts, to_y, y_hi)

    x_lo = min(b.lo for b in rows)
    x_hi = max(b.hi for b in rows)
    span_x = CHART_W - MARGIN_L - MARGIN_R

    def to_x(v):
        return MARGIN_L + span_x * (v - x_lo) / (x_hi - x_lo) if x_hi > x_lo else MARGIN_L

    points = " ".join(f"{to_x(cx):.2f},{to_y(v):.2f}" for cx, v in zip(centers, values))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#a85448" stroke-width="2"/>'
    )
    for cx, v in zip(centers, values):
        parts.append(
            f'<circle cx="{to_x(cx):.2f}" cy="{to_y(v):.2f}" r="3" fill="#a85448" '
            f'data-value="{fmt_sig9(v)}" data-x="{fmt_sig9(cx)}"/>'
        )
    for frac in (0.0, 0.5, 1.0):
        v = x_lo + (x_hi - x_lo) * frac
        parts.append(
            f'<text x="{to_x(v):.2f}" y="{CHART_H - MARGIN_B + 16}" text-anchor="middle" '
            f'font-size="11">{v:.4g}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
