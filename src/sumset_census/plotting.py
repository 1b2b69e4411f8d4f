"""Static SVG bar chart of a sumset-size histogram, ladder rungs marked.

Standard library only, emits a single self-contained <svg> element.  Counts
span several orders of magnitude between rungs and the bands in between, so
bar heights are log-scaled and the raw count is printed above each bar.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

BAR_FILL = "#4878a8"
RUNG_FILL = "#c44e52"
AXIS_COLOR = "#333333"
WIDTH = 960
HEIGHT = 480


def _rect(x: float, y: float, w: float, h: float, fill: str, css: str) -> str:
    return (
        f'<rect class="{css}" x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" '
        f'height="{h:.1f}" fill="{fill}" />'
    )


def _escape(s: str) -> str:
    """s with &, < and > as XML entities, & first so no entity is escaped twice."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x: float, y: float, s: str, size: int, anchor: str = "middle",
          fill: str = AXIS_COLOR, extra: str = "") -> str:
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" text-anchor="{anchor}" '
        f'fill="{fill}" font-family="sans-serif"{extra}>{_escape(s)}</text>'
    )


def _line(x1: float, y1: float, x2: float, y2: float) -> str:
    return (
        f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1" />'
    )


def histogram_svg(
    counts: Mapping[int, int],
    h: int,
    ladder: Sequence[int],
    title: str = "",
) -> str:
    """Render one bar per size between the lowest rung and the top size.

    Rung bars are recolored and their sizes called out on the axis, so the
    frequent/rare alternation is visible at a glance; heights are
    log10-scaled with exact counts printed above the bars.
    """
    if not ladder:
        raise ValueError("ladder must be nonempty")
    low, top = min(ladder), max(ladder)
    sizes = list(range(low, top + 1))
    rungs = set(ladder)
    margin_left, margin_right, margin_top, margin_bottom = 56.0, 16.0, 48.0, 56.0
    plot_w = WIDTH - margin_left - margin_right
    plot_h = HEIGHT - margin_top - margin_bottom
    slot = plot_w / len(sizes)
    bar_w = slot * 0.8
    max_count = max((counts.get(s, 0) for s in sizes), default=0)
    log_top = math.log10(max_count) if max_count > 1 else 1.0

    def bar_height(count: int) -> float:
        if count < 1:
            return 0.0
        if count == 1:
            return max(2.0, plot_h * 0.02)
        return plot_h * math.log10(count) / log_top

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        _rect(0, 0, WIDTH, HEIGHT, "#ffffff", "bg"),
    ]
    if title:
        parts.append(_text(WIDTH / 2, margin_top / 2 + 4, title, 15))
    baseline = margin_top + plot_h
    parts.append(_line(margin_left, baseline, WIDTH - margin_right, baseline))
    parts.append(
        _text(14, margin_top + plot_h / 2, "log10 count", 11, anchor="middle",
              extra=f' transform="rotate(-90 14 {margin_top + plot_h / 2:.1f})"')
    )
    parts.append(_text(WIDTH / 2, HEIGHT - 10, f"{h}-fold sumset size", 12))
    for i, size in enumerate(sizes):
        count = counts.get(size, 0)
        x = margin_left + i * slot + (slot - bar_w) / 2
        bh = bar_height(count)
        fill = RUNG_FILL if size in rungs else BAR_FILL
        parts.append(_rect(x, baseline - bh, bar_w, bh, fill, "bar"))
        if count:
            parts.append(
                _text(x + bar_w / 2, baseline - bh - 4, str(count), 9)
            )
        is_rung = size in rungs
        parts.append(
            _text(
                x + bar_w / 2,
                baseline + 14,
                str(size),
                10 if is_rung else 8,
                fill=RUNG_FILL if is_rung else AXIS_COLOR,
                extra=' font-weight="bold"' if is_rung else "",
            )
        )
        if is_rung:
            parts.append(
                _text(x + bar_w / 2, baseline + 28, "rung", 8, fill=RUNG_FILL)
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
