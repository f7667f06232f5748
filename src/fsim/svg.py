"""Dependency-free SVG line charts for the plot command."""

from __future__ import annotations

import math

WIDTH, HEIGHT = 720, 480
MARGIN = 56
COLORS = ("#000000", "#cc0000", "#0055aa", "#228833")


def _escape(text) -> str:
    """``text`` as XML character data, ``&``, ``<`` and ``>`` escaped as
    ``xml.sax.saxutils.escape`` does; that module imports ``urllib.request``,
    which would add tens of milliseconds to every start of the CLI."""
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_chart(path, x, series: dict, title: str = "") -> None:
    """Write one SVG chart: ``series`` maps labels to y-vectors over ``x``.

    Non-finite y values break the polyline, leaving a gap.
    """
    xs = [float(v) for v in x]
    finite = [v for ys in series.values() for v in ys if math.isfinite(v)]
    if not xs or not finite:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite), max(finite)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    span_x, span_y = x_hi - x_lo, y_hi - y_lo

    def px(v):
        return MARGIN + (v - x_lo) / span_x * (WIDTH - 2 * MARGIN)

    def py(v):
        return HEIGHT - MARGIN - (v - y_lo) / span_y * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#444444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="{MARGIN - 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_escape(title)}</text>'
        )
    for tick in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{px(tick):.1f}" y="{HEIGHT - MARGIN + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{MARGIN - 6}" y="{py(tick):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )
    for k, (label, ys) in enumerate(series.items()):
        color = COLORS[k % len(COLORS)]
        segments, current = [], []
        for xv, yv in zip(xs, ys):
            if math.isfinite(float(yv)):
                current.append(f"{px(xv):.2f},{py(float(yv)):.2f}")
            elif current:
                segments.append(current)
                current = []
        if current:
            segments.append(current)
        for segment in segments:
            if len(segment) > 1:
                parts.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                    f'points="{" ".join(segment)}"/>'
                )
        parts.append(
            f'<text x="{WIDTH - MARGIN - 8}" y="{MARGIN + 18 + 16 * k}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts))
        handle.write("\n")
