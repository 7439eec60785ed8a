"""Minimal native SVG line plots (log-scale objective gap vs operation count).

Plots are outputs, not interfaces, so this stays dependency-free: a fixed
viewport, decade ticks on the log axis, and one polyline per labeled curve.
"""

from __future__ import annotations

import math
from pathlib import Path

WIDTH, HEIGHT = 860, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 190, 40, 55

PALETTE = [
    "#000000", "#009f81", "#ff5aaf", "#00fccf", "#8400cd",
    "#008df9", "#00c2f9", "#ffb2fd", "#a40122", "#e20134",
    "#9f0162", "#ff6e3a",
]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def gap_plot_svg(title: str, curves, out_path, x_label: str, y_label: str) -> None:
    """Write a log-y plot of the given curves.

    ``curves`` is a list of (label, xs, ys); nonpositive gap values are
    floored to the smallest positive one so the log axis stays finite.
    """
    clean = []
    pos_floor = math.inf
    for label, xs, ys in curves:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y)]
        for _, y in pts:
            if y > 0:
                pos_floor = min(pos_floor, y)
        clean.append((label, pts))
    if not math.isfinite(pos_floor):
        pos_floor = 1e-16
    clean = [(lbl, [(x, max(y, pos_floor)) for x, y in pts]) for lbl, pts in clean]
    clean = [(lbl, pts) for lbl, pts in clean if pts]

    xmax = max((x for _, pts in clean for x, _ in pts), default=1.0) or 1.0
    ymin = min((y for _, pts in clean for _, y in pts), default=1e-12)
    ymax = max((y for _, pts in clean for _, y in pts), default=1.0)
    lo_dec = math.floor(math.log10(ymin))
    hi_dec = math.ceil(math.log10(ymax))
    if hi_dec == lo_dec:
        hi_dec += 1

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + plot_w * (x / xmax if xmax else 0.0)

    def sy(y):
        t = (math.log10(y) - lo_dec) / (hi_dec - lo_dec)
        return MARGIN_T + plot_h * (1.0 - t)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="24" font-size="16">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for dec in range(lo_dec, hi_dec + 1):
        y = sy(10.0 ** dec)
        parts.append(f'<line x1="{MARGIN_L}" y1="{_fmt(y)}" x2="{MARGIN_L + plot_w}" '
                     f'y2="{_fmt(y)}" stroke="#ddd" stroke-width="0.7"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" font-size="11" '
                     f'text-anchor="end">1e{dec}</text>')
    n_xticks = 5
    for i in range(n_xticks + 1):
        xv = xmax * i / n_xticks
        x = sx(xv)
        parts.append(f'<line x1="{_fmt(x)}" y1="{MARGIN_T + plot_h}" x2="{_fmt(x)}" '
                     f'y2="{MARGIN_T + plot_h + 5}" stroke="#333" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{MARGIN_T + plot_h + 20}" font-size="11" '
                     f'text-anchor="middle">{_fmt(xv)}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 12}" font-size="13" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="18" y="{MARGIN_T + plot_h / 2}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 18 {MARGIN_T + plot_h / 2})">'
                 f'{y_label}</text>')

    for i, (label, pts) in enumerate(clean):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        ly = MARGIN_T + 16 + 18 * i
        lx = MARGIN_L + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2.5"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="11">{label}</text>')

    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n", encoding="utf-8")
