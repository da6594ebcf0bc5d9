"""Minimal hand-emitted SVG line charts for the benchmark traces.

No plotting dependency: the charts are polylines with axis ticks and a
legend, good enough to eyeball an error trace or a false positive count
over time.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

WIDTH = 720
HEIGHT = 420
MARGIN_LEFT = 60
MARGIN_RIGHT = 150
MARGIN_TOP = 30
MARGIN_BOTTOM = 50

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
)

Series = Tuple[str, Sequence[Tuple[float, float]]]


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / n
    return [lo + step * i for i in range(n + 1)]


def line_chart(
    series: Sequence[Series],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render named (x, y) series as one SVG document string."""
    pts = [p for _, data in series for p in data]
    if not pts:
        x_lo, x_hi, y_hi = 0.0, 1.0, 1.0
    else:
        x_lo = min(p[0] for p in pts)
        x_hi = max(p[0] for p in pts)
        y_hi = max(p[1] for p in pts)
    if y_hi <= 0:
        y_hi = 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h - min(y, y_hi) / y_hi * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="18" text-anchor="middle" font-size="14">{_esc(title)}</text>',
        # axes
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{MARGIN_TOP + plot_h}" stroke="black"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + plot_h}" '
        f'x2="{MARGIN_LEFT + plot_w}" y2="{MARGIN_TOP + plot_h}" stroke="black"/>',
    ]
    for x in _ticks(x_lo, x_hi):
        px = sx(x)
        out.append(
            f'<line x1="{px:.1f}" y1="{MARGIN_TOP + plot_h}" x2="{px:.1f}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle">{x:g}</text>'
        )
    for y in _ticks(0.0, y_hi):
        py = sy(y)
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{py:.1f}" x2="{MARGIN_LEFT}" '
            f'y2="{py:.1f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.1f}" text-anchor="end">{y:.3g}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 10}" '
        f'text-anchor="middle">{_esc(x_label)}</text>'
    )
    out.append(
        f'<text x="16" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {MARGIN_TOP + plot_h / 2:.1f})">{_esc(y_label)}</text>'
    )

    for i, (name, data) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        if data:
            points = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in data)
            out.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = MARGIN_TOP + 14 + i * 18
        lx = MARGIN_LEFT + plot_w + 12
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 20}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{lx + 26}" y="{ly}">{_esc(name)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def trace_chart(named_traces, title: str) -> str:
    """Chart ErrorTrace objects: x = bin start, y = mean error."""
    series = [
        (name, [(start, mean) for start, mean, n in trace.bins if n > 0])
        for name, trace in named_traces
    ]
    return line_chart(series, title, "time", "mean error")


def fp_chart(named_counts, title: str) -> str:
    """Chart false positive counts: x = bin start, y = count."""
    series = [
        (name, [(start, float(c)) for start, c in counts])
        for name, counts in named_counts
    ]
    return line_chart(series, title, "time", "false positives")
