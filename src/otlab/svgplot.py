"""Minimal deterministic SVG writer for log-log scatter plots.

No plotting dependency: reports embed these plots as small standalone
files.  Output is byte-stable for identical inputs (no timestamps).
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 480
MARGIN = 60
COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def loglog_svg(
    series: list,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    guides: list | None = None,
    comments: list | None = None,
) -> str:
    """Render series [(label, xs, ys), ...] on log-log axes.

    ``guides`` are reference lines [(slope, x0, y0, label), ...] drawn
    through (x0, y0).  Only points with x > 0 and y > 0 are drawn; a series
    without one gets neither marks nor a legend entry, and a guide whose
    anchor is not positive is left out.  Returns the SVG document as a
    string; raises ValueError when no series is left.
    """
    series = [
        (label, [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]) for label, xs, ys in series
    ]
    series = [(label, positive) for label, positive in series if positive]
    if not series:
        raise ValueError("nothing positive to plot on log-log axes")
    pts = [p for _, positive in series for p in positive]
    lx = [math.log10(x) for x, _ in pts]
    ly = [math.log10(y) for _, y in pts]
    x_lo, x_hi = min(lx) - 0.2, max(lx) + 0.2
    y_lo, y_hi = min(ly) - 0.2, max(ly) + 0.2
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = MARGIN + (math.log10(x) - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)
        py = HEIGHT - MARGIN - (math.log10(y) - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)
        return px, py

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    ]
    for comment in comments or []:
        out.append(f"<!-- {comment} -->")
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>'
    )
    # decade ticks
    for d in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        px, _ = to_px(10.0**d, 10.0**y_lo)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN}" x2="{_fmt(px)}" '
            f'y2="{HEIGHT - MARGIN + 6}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN + 20}" font-size="11" '
            f'text-anchor="middle">1e{d}</text>'
        )
    for d in range(math.ceil(y_lo), math.floor(y_hi) + 1):
        _, py = to_px(10.0**x_lo, 10.0**d)
        out.append(
            f'<line x1="{MARGIN - 6}" y1="{_fmt(py)}" x2="{MARGIN}" y2="{_fmt(py)}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{MARGIN - 10}" y="{_fmt(py + 4)}" font-size="11" '
            f'text-anchor="end">1e{d}</text>'
        )

    for slope, x0, y0, label in guides or []:
        if not (x0 > 0 and y0 > 0):
            continue
        xa, xb = 10.0**x_lo, 10.0**x_hi
        ya = y0 * (xa / x0) ** slope
        yb = y0 * (xb / x0) ** slope
        pa, pb = to_px(xa, max(ya, 1e-300)), to_px(xb, max(yb, 1e-300))
        out.append(
            f'<line x1="{_fmt(pa[0])}" y1="{_fmt(pa[1])}" x2="{_fmt(pb[0])}" '
            f'y2="{_fmt(pb[1])}" stroke="#999999" stroke-dasharray="6,4"/>'
        )
        out.append(
            f'<text x="{_fmt(pb[0] - 6)}" y="{_fmt(pb[1] - 6)}" font-size="11" '
            f'text-anchor="end" fill="#666666">{label}</text>'
        )

    for i, (label, positive) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        coords = [to_px(x, y) for x, y in positive]
        if len(coords) > 1:
            path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in coords)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}"/>')
        for px, py in coords:
            out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="{color}"/>')
        out.append(
            f'<text x="{WIDTH - MARGIN - 6}" y="{MARGIN + 16 + 14 * i}" font-size="12" '
            f'text-anchor="end" fill="{color}">{label}</text>'
        )

    if title:
        out.append(
            f'<text x="{WIDTH // 2}" y="{MARGIN - 16}" font-size="14" '
            f'text-anchor="middle">{title}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 14}" font-size="12" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{HEIGHT // 2}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {HEIGHT // 2})">{ylabel}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
