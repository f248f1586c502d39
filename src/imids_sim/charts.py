"""Self-contained polyline SVG line charts. No dependencies, no scripts.

Enough for the comparison figures: multiple named series, linear axes
with ticks, a legend. Everything is inline so the file renders anywhere.
"""

from __future__ import annotations

import html
from dataclasses import dataclass

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

WIDTH = 760
HEIGHT = 440
MARGIN = {"top": 48, "right": 28, "bottom": 56, "left": 76}


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("series x and y lengths differ")


def _fmt(value: float) -> str:
    text = f"{value:.6g}"
    return "0" if text == "-0" else text


def _bounds(series) -> tuple:
    xs = [x for s in series for x in s.xs]
    ys = [y for s in series for y in s.ys]
    if not xs:  # every series is empty: the axes span the unit square
        return 0.0, 1.0, 0.0, 1.0
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_lo == y_hi:
        pad = abs(y_lo) * 0.1 or 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if y_lo > 0 and y_lo < 0.25 * y_hi:
        y_lo = 0.0  # near-zero floors read better anchored at zero
    return x_lo, x_hi, y_lo, y_hi


def _ticks(lo: float, hi: float, count: int = 5) -> list:
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]


def line_chart(series, title: str, x_label: str, y_label: str) -> str:
    """Render the series as one SVG document and return it as a string. A
    series without points still gets its legend entry, but no line."""
    series = list(series)
    if not series:
        raise ValueError("nothing to plot")
    x_lo, x_hi, y_lo, y_hi = _bounds(series)
    plot_w = WIDTH - MARGIN["left"] - MARGIN["right"]
    plot_h = HEIGHT - MARGIN["top"] - MARGIN["bottom"]

    def sx(x: float) -> float:
        return MARGIN["left"] + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return HEIGHT - MARGIN["bottom"] - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="26" text-anchor="middle" font-size="15" '
        f'font-weight="bold" fill="#222">{html.escape(title)}</text>',
    ]

    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        out.append(
            f'<line x1="{MARGIN["left"]}" y1="{_fmt(y)}" x2="{WIDTH - MARGIN["right"]}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN["left"] - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-size="11" fill="#555">{_fmt(tick)}</text>'
        )
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        base = HEIGHT - MARGIN["bottom"]
        out.append(
            f'<line x1="{_fmt(x)}" y1="{base}" x2="{_fmt(x)}" y2="{base + 5}" '
            f'stroke="#999999" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{base + 20}" text-anchor="middle" '
            f'font-size="11" fill="#555">{_fmt(tick)}</text>'
        )

    out.append(
        f'<line x1="{MARGIN["left"]}" y1="{MARGIN["top"]}" x2="{MARGIN["left"]}" '
        f'y2="{HEIGHT - MARGIN["bottom"]}" stroke="#444444" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{MARGIN["left"]}" y1="{HEIGHT - MARGIN["bottom"]}" '
        f'x2="{WIDTH - MARGIN["right"]}" y2="{HEIGHT - MARGIN["bottom"]}" '
        f'stroke="#444444" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 14}" text-anchor="middle" font-size="12" '
        f'fill="#333">{html.escape(x_label)}</text>'
    )
    out.append(
        f'<text x="20" y="{HEIGHT / 2}" text-anchor="middle" font-size="12" fill="#333" '
        f'transform="rotate(-90 20 {HEIGHT / 2})">{html.escape(y_label)}</text>'
    )

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.xs, s.ys))
        if len(s.xs) == 1:
            out.append(
                f'<circle cx="{_fmt(sx(s.xs[0]))}" cy="{_fmt(sy(s.ys[0]))}" r="4" '
                f'fill="{color}"/>'
            )
        elif s.xs:
            out.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="2" stroke-linejoin="round"/>'
            )

    legend_x = WIDTH - MARGIN["right"] - 150
    legend_y = MARGIN["top"] + 8
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        y = legend_y + i * 18
        out.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 22}" y2="{y}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        out.append(
            f'<text x="{legend_x + 28}" y="{y + 4}" font-size="12" fill="#333">'
            f"{html.escape(s.label)}</text>"
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
