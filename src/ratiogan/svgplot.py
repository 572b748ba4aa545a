"""Deterministic SVG line plots for metric files.

Hand-rolled on purpose: identical input must produce byte-identical
files, which rules out plotting libraries that embed timestamps or
hashed element ids.
"""

from __future__ import annotations

import math
from sys import float_info
from typing import Optional, Sequence, Tuple

__all__ = ["emit_svg_lineplot"]

WIDTH, HEIGHT = 720, 440
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 170, 30, 50

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, n: int = 6) -> list:
    """Round tick values over [lo, hi]; the caller widens an empty span first.  Differences of
    halves, exact for normal floats, give the ticks of plain differences without overflow."""
    raw = (0.5 * hi - 0.5 * lo) / (0.5 * max(n - 1, 1))
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    half_start, half_step = 0.5 * math.ceil(lo / step) * step, 0.5 * step
    count = math.floor((0.5 * hi - half_start) / half_step + 1e-12) + 1  # not a loop on t: at 1e17, t + 5 rounds to t
    return [0.0 if abs(t) < 1e-15 else t for t in (2.0 * (half_start + k * half_step) for k in range(count))]


def emit_svg_lineplot(
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    reference_y: Optional[float] = None,
) -> None:
    """Write a self-contained SVG with axes, ticks, legend, one polyline per series.

    ``reference_y`` draws a dashed horizontal guide (the ratio plots use
    it to mark the matched-density level 1).
    """
    series = [
        (str(name), [float(v) for v in xs], [float(v) for v in ys])
        for name, xs, ys in series
    ]
    series = [(n, xs, ys) for n, xs, ys in series if len(xs) > 0]
    if not series:
        raise ValueError("no series to plot")
    for name, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError(f"series {name!r}: x and y lengths differ")

    all_x = [v for _, xs, _ in series for v in xs]
    all_y = [v for _, _, ys in series for v in ys if math.isfinite(v)]
    if not all_y:
        raise ValueError("no finite y values to plot")
    if reference_y is not None:
        all_y.append(float(reference_y))
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:  # widen by half the value, so that a large one is not absorbed
        half = 0.5 * max(abs(y_lo), 1.0)
        y_lo, y_hi = max(y_lo - half, -float_info.max), min(y_hi + half, float_info.max)
    pad = 0.1 * (0.5 * y_hi - 0.5 * y_lo)  # 5% of the span, from halves: no limit, span or pad overflows
    y_lo, y_hi = max(y_lo - pad, -float_info.max), min(y_hi + pad, float_info.max)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (0.5 * y_hi - 0.5 * y) / (0.5 * y_hi - 0.5 * y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        out.append(
            f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )

    # frame
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )

    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(
            f'<line x1="{px:.2f}" y1="{MARGIN_TOP + plot_h}" x2="{px:.2f}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{MARGIN_TOP + plot_h + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{py:.2f}" x2="{MARGIN_LEFT}" '
            f'y2="{py:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{_fmt(t)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{x_label}</text>'
        )
    if y_label:
        out.append(
            f'<text x="16" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" '
            f'transform="rotate(-90 16 {MARGIN_TOP + plot_h / 2:.1f})">{y_label}</text>'
        )

    if reference_y is not None and y_lo <= reference_y <= y_hi:
        py = sy(float(reference_y))
        out.append(
            f'<line x1="{MARGIN_LEFT}" y1="{py:.2f}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{py:.2f}" stroke="#444444" stroke-dasharray="6 4" stroke-width="1"/>'
        )

    for idx, (name, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys) if math.isfinite(y)
        )
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = MARGIN_TOP + 14 + 16 * idx
        lx = MARGIN_LEFT + plot_w + 10
        out.append(
            f'<line x1="{lx}" y1="{ly - 4:.1f}" x2="{lx + 18}" y2="{ly - 4:.1f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 24}" y="{ly:.1f}" font-family="monospace" font-size="11">{name}</text>'
        )

    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
