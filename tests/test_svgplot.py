"""The information-plane SVG against the per-point formatter it replaced."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibplane import svgplot
from ibplane.svgplot import (
    HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, N_TICKS, SERIES_COLORS, WIDTH, _tick_label,
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def reference_render_plane(curve_xy, bound_xy, layer_xy) -> str:
    """render_plane as it was with each coordinate formatted by its own
    closure calls, one point at a time."""
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
    x0, y0 = _fmt(sx(0)), _fmt(sy(0))
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{_fmt(sx(x_max))}" y2="{y0}" '
               'stroke="#444444" stroke-width="1"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{_fmt(sy(y_max))}" '
               'stroke="#444444" stroke-width="1"/>')
    for k in range(N_TICKS + 1):
        tx = x_max * k / N_TICKS
        ty = y_max * k / N_TICKS
        out.append(f'<line x1="{_fmt(sx(tx))}" y1="{y0}" x2="{_fmt(sx(tx))}" '
                   f'y2="{_fmt(sy(0) + 5)}" stroke="#444444" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(sx(tx))}" y="{_fmt(sy(0) + 18)}" font-size="11" '
                   f'text-anchor="middle" fill="#222222">{_tick_label(tx)}</text>')
        out.append(f'<line x1="{x0}" y1="{_fmt(sy(ty))}" x2="{_fmt(sx(0) - 5)}" '
                   f'y2="{_fmt(sy(ty))}" stroke="#444444" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(sx(0) - 8)}" y="{_fmt(sy(ty) + 4)}" font-size="11" '
                   f'text-anchor="end" fill="#222222">{_tick_label(ty)}</text>')
    out.append(f'<text x="{_fmt(MARGIN_L + plot_w / 2)}" y="{HEIGHT - 14}" '
               'font-size="13" text-anchor="middle" fill="#222222">'
               'complexity I(X;T) [bits]</text>')
    out.append(f'<text x="16" y="{_fmt(MARGIN_T + plot_h / 2)}" font-size="13" '
               f'text-anchor="middle" fill="#222222" '
               f'transform="rotate(-90 16 {_fmt(MARGIN_T + plot_h / 2)})">'
               'relevance I(T;Y) [bits]</text>')

    # series
    for name, pts, markers in series:
        if not pts:
            continue
        color = SERIES_COLORS[name]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        out.append(f'<polyline id="{name}" points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.6"/>')
        if markers:
            for x, y in pts:
                out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3.2" '
                           f'fill="{color}"/>')

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


BITS = st.floats(0.0, 1e3, allow_nan=False)
SERIES = st.one_of(
    st.just([]),
    st.lists(st.tuples(BITS, BITS), min_size=1, max_size=1),
    st.integers(1, 5).map(lambda k: [(0.0, 0.0)] * k),
    st.lists(st.tuples(BITS, BITS), max_size=40),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(SERIES, SERIES, SERIES)
@example([], [], [])
@example([(0.0, 0.0)], [], [(0.0, 0.0), (0.0, 0.0)])  # both axes fall back to 1.0
@example([(1e3, 1e3)], [(0.0, 5e-324)], [(2.5, 0.125)])
def test_svg_is_byte_identical_to_the_per_point_formatter(curve_xy, bound_xy, layer_xy):
    assert svgplot.render_plane(curve_xy, bound_xy, layer_xy) == \
        reference_render_plane(curve_xy, bound_xy, layer_xy)
