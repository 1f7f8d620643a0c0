"""Dependency-free SVG rendering of the information plane.

Draws the annealed tradeoff curve, the finite-sample worst-case curve, and a
network's layer path on shared axes: x is the rate/complexity axis I(X;T), y
the relevance axis I(T;Y), both in bits. Output is a plain SVG string built
deterministically, so identical inputs give identical bytes. Every pixel
coordinate is written with two decimals; a series is mapped to pixels a
list per axis, and one "%.2f,%.2f" call formats each of its points.
"""

from __future__ import annotations

WIDTH = 640
HEIGHT = 480
MARGIN_L = 62
MARGIN_R = 18
MARGIN_T = 24
MARGIN_B = 52
N_TICKS = 5

SERIES_COLORS = {
    "ib-curve": "#000000",
    "worst-case-bound": "#c62828",
    "layer-path": "#2e7d32",
}


def _tick_label(v: float) -> str:
    return f"{v:.3g}"


def render_plane(curve_xy, bound_xy, layer_xy) -> str:
    """Render the three series; any series may be empty and is then skipped.

    Each argument is a sequence of (x, y) pairs in bits.
    """
    series = [
        ("ib-curve", list(curve_xy), False),
        ("worst-case-bound", list(bound_xy), False),
        ("layer-path", list(layer_xy), True),
    ]
    xs = [p[0] for _, pts, _ in series for p in pts]
    ys = [p[1] for _, pts, _ in series for p in pts]
    x_max = max(xs) if xs else 1.0
    y_max = max(ys) if ys else 1.0
    x_max = x_max * 1.05 if x_max > 0 else 1.0
    y_max = y_max * 1.05 if y_max > 0 else 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + plot_w * (x / x_max)

    def sy(y: float) -> float:
        return MARGIN_T + plot_h * (1.0 - y / y_max)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    # axes
    x0, y0 = f"{sx(0):.2f}", f"{sy(0):.2f}"
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{sx(x_max):.2f}" y2="{y0}" '
               'stroke="#444444" stroke-width="1"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{sy(y_max):.2f}" '
               'stroke="#444444" stroke-width="1"/>')
    for k in range(N_TICKS + 1):
        tx = x_max * k / N_TICKS
        ty = y_max * k / N_TICKS
        out.append(f'<line x1="{sx(tx):.2f}" y1="{y0}" x2="{sx(tx):.2f}" '
                   f'y2="{sy(0) + 5:.2f}" stroke="#444444" stroke-width="1"/>')
        out.append(f'<text x="{sx(tx):.2f}" y="{sy(0) + 18:.2f}" font-size="11" '
                   f'text-anchor="middle" fill="#222222">{_tick_label(tx)}</text>')
        out.append(f'<line x1="{x0}" y1="{sy(ty):.2f}" x2="{sx(0) - 5:.2f}" '
                   f'y2="{sy(ty):.2f}" stroke="#444444" stroke-width="1"/>')
        out.append(f'<text x="{sx(0) - 8:.2f}" y="{sy(ty) + 4:.2f}" font-size="11" '
                   f'text-anchor="end" fill="#222222">{_tick_label(ty)}</text>')
    out.append(f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 14}" '
               'font-size="13" text-anchor="middle" fill="#222222">'
               'complexity I(X;T) [bits]</text>')
    out.append(f'<text x="16" y="{MARGIN_T + plot_h / 2:.2f}" font-size="13" '
               f'text-anchor="middle" fill="#222222" '
               f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.2f})">'
               'relevance I(T;Y) [bits]</text>')

    # series
    for name, pts, markers in series:
        if not pts:
            continue
        color = SERIES_COLORS[name]
        px = [MARGIN_L + plot_w * (x / x_max) for x, _ in pts]
        py = [MARGIN_T + plot_h * (1.0 - y / y_max) for _, y in pts]
        coords = " ".join(map("%.2f,%.2f".__mod__, zip(px, py)))
        out.append(f'<polyline id="{name}" points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.6"/>')
        if markers:
            out.extend('<circle cx="%.2f" cy="%.2f" r="3.2" fill="%s"/>' % (x, y, color)
                       for x, y in zip(px, py))

    # legend
    lx = MARGIN_L + 12
    ly = MARGIN_T + 10
    for name, pts, _ in series:
        if not pts:
            continue
        color = SERIES_COLORS[name]
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly + 4}" font-size="12" '
                   f'fill="#222222">{name}</text>')
        ly += 16

    out.append("</svg>")
    return "\n".join(out) + "\n"
