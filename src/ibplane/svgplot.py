"""Dependency-free SVG rendering of the information plane.

Draws the annealed tradeoff curve, the finite-sample worst-case curve, and a
network's layer path on shared axes: x is the rate/complexity axis I(X;T), y
the relevance axis I(T;Y), both in bits. Output is a plain SVG string built
deterministically, so identical inputs give identical bytes. Every computed
pixel coordinate is written with two decimals; a series is mapped to pixels a
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


def _num(v) -> str:
    """A computed pixel coordinate with two decimals; a fixed integer one as is."""
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def _line(x1, y1, x2, y2, stroke="#444444", width=1) -> str:
    return (f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x, y, size, body, anchor=None, rotate=False) -> str:
    """A label; rotate turns it a quarter turn counterclockwise about (x, y)."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    rotate = f' transform="rotate(-90 {_num(x)} {_num(y)})"' if rotate else ""
    return (f'<text x="{_num(x)}" y="{_num(y)}" font-size="{size}"{anchor} '
            f'fill="#222222"{rotate}>{body}</text>')


def render_plane(curve_xy, bound_xy, layer_xy) -> str:
    """Render the three series; any series may be empty and is then skipped.

    Each argument is a sequence of (x, y) pairs in bits.
    """
    series = [s for s in (("ib-curve", list(curve_xy), False),
                          ("worst-case-bound", list(bound_xy), False),
                          ("layer-path", list(layer_xy), True)) if s[1]]
    x_max = max([p[0] for _, pts, _ in series for p in pts], default=1.0)
    y_max = max([p[1] for _, pts, _ in series for p in pts], default=1.0)
    x_max = x_max * 1.05 if x_max > 0 else 1.0
    y_max = y_max * 1.05 if y_max > 0 else 1.0
    plot_w, plot_h = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + plot_w * (x / x_max)

    def sy(y: float) -> float:
        return MARGIN_T + plot_h * (1.0 - y / y_max)

    x0, y0 = sx(0), sy(0)
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
           _line(x0, y0, sx(x_max), y0), _line(x0, y0, x0, sy(y_max))]
    for tx, ty in ((x_max * k / N_TICKS, y_max * k / N_TICKS) for k in range(N_TICKS + 1)):
        out += [_line(sx(tx), y0, sx(tx), y0 + 5),
                _text(sx(tx), y0 + 18, 11, _tick_label(tx), "middle"),
                _line(x0, sy(ty), x0 - 5, sy(ty)),
                _text(x0 - 8, sy(ty) + 4, 11, _tick_label(ty), "end")]
    out.append(_text(MARGIN_L + plot_w / 2, HEIGHT - 14, 13, "complexity I(X;T) [bits]", "middle"))
    out.append(_text(16, MARGIN_T + plot_h / 2, 13, "relevance I(T;Y) [bits]", "middle", True))
    # each series' polyline and markers; the legend entries follow them all, on top
    legend, lx, ly = [], MARGIN_L + 12, MARGIN_T + 10
    for name, pts, markers in series:
        color = SERIES_COLORS[name]
        px = [MARGIN_L + plot_w * (x / x_max) for x, _ in pts]
        py = [MARGIN_T + plot_h * (1.0 - y / y_max) for _, y in pts]
        coords = " ".join(map("%.2f,%.2f".__mod__, zip(px, py)))
        out.append(f'<polyline id="{name}" points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.6"/>')
        if markers:
            out.extend('<circle cx="%.2f" cy="%.2f" r="3.2" fill="%s"/>' % (x, y, color)
                       for x, y in zip(px, py))
        legend += [_line(lx, ly, lx + 22, ly, color, 2), _text(lx + 28, ly + 4, 12, name)]
        ly += 16
    return "\n".join(out + legend + ["</svg>"]) + "\n"
