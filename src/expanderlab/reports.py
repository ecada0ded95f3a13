"""Deterministic report writers: CSV tables, JSON summaries, SVG line charts.

All output is a pure function of the data passed in (no timestamps, no
environment probes, fixed float formatting), so identical runs produce
bitwise-identical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["fmt_float", "write_csv", "write_json", "write_svg_chart"]


def fmt_float(x) -> str:
    """x round-trip exact in 17 significant digits; nan, inf, -inf and -0 as Python writes them."""
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [c if isinstance(c, str) else fmt_float(c) for c in row]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return _jsonable(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return fmt_float(obj)
    return obj


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(_jsonable(doc), f, indent=2, sort_keys=False)
        f.write("\n")


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 5))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 5:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append(round(v / step) * step)
        v += step
    return out


def _xml_text(s: str) -> str:
    """Escape text for an XML text node (titles carry user-chosen names)."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def write_svg_chart(path, title: str, x, series: dict, y_label: str) -> None:
    """Minimal multi-series line chart over t; series maps label -> y array."""
    width, height = 800, 500
    ml, mr, mt, mb = 70, 20, 40, 50
    x = np.asarray(x, dtype=float)
    finite_ys = []
    for ys in series.values():
        ys = np.asarray(ys, dtype=float)
        finite_ys.append(ys[np.isfinite(ys)])
    ally = np.concatenate(finite_ys) if finite_ys else np.array([0.0, 1.0])
    if ally.size == 0:
        ally = np.array([0.0, 1.0])
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(np.min(ally)), float(np.max(ally))
    if y_hi - y_lo < 1e-12 * (1 + abs(y_hi)):
        pad = 1e-3 * (1 + abs(y_hi))
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi - x_lo <= 0:
        x_hi = x_lo + 1.0

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(v):
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_xml_text(title)}</text>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{height - mb}" x2="{px(tx):.2f}" '
            f'y2="{height - mb + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{height - mb + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.6g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{ml - 5}" y1="{py(ty):.2f}" x2="{ml}" y2="{py(ty):.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.6g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">t</text>'
    )
    parts.append(
        f'<text x="18" y="{(mt + height - mb) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.1f})">{_xml_text(y_label)}</text>'
    )
    for idx, (label, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float)
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(x, ys) if math.isfinite(yv)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = mt + 16 + 16 * idx
        parts.append(
            f'<line x1="{width - mr - 130}" y1="{ly}" x2="{width - mr - 110}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - mr - 104}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{_xml_text(label)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(parts) + "\n")
