"""Minimal static SVG output: polyline plots over the goal band.

Hand-rolled so every trajectory or hull is exactly one <polyline> element,
which downstream checks can count.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")
WIDTH, HEIGHT = 640, 480
BAND_COLOR = "#f2d0d0"
LINE_COLOR = "#444444"


class SvgPlot:
    def __init__(self, title: str = ""):
        self.title = title
        self.series = []          # (points, color, stroke_width)
        self.band = None          # goal band corners: drawn as a polygon
        self.line = None          # target line ((x1,y1),(x2,y2)), dashed
        self._bounds = [float("inf"), float("inf"), -float("inf"), -float("inf")]

    def _grow(self, pts):
        for x, y in pts:
            self._bounds[0] = min(self._bounds[0], x)
            self._bounds[1] = min(self._bounds[1], y)
            self._bounds[2] = max(self._bounds[2], x)
            self._bounds[3] = max(self._bounds[3], y)

    def add_polyline(self, pts, color: str | None = None, width: float = 1.2):
        pts = [(float(x), float(y)) for x, y in pts]
        if not pts:
            return
        if color is None:
            color = _COLORS[len(self.series) % len(_COLORS)]
        self.series.append((pts, color, width))
        self._grow(pts)

    def add_goal(self, x5_lo: float, x5_hi: float, ystar: float):
        """The band |x6 + x5| <= ystar, shaded, and the target line x6 = -x5
        over [x5_lo, x5_hi] widened by a tenth of its width plus 0.1 a side."""
        pad = 0.1 * (x5_hi - x5_lo + 1.0)
        a, b = float(x5_lo - pad), float(x5_hi + pad)
        self.band = [(a, -a - ystar), (b, -b - ystar), (b, -b + ystar), (a, -a + ystar)]
        self.line = ((a, -a), (b, -b))
        self._grow(self.band + list(self.line))

    def _tx(self):
        x0, y0, x1, y1 = self._bounds
        if not (x1 > x0):
            x0, x1 = x0 - 1.0, x1 + 1.0
        if not (y1 > y0):
            y0, y1 = y0 - 1.0, y1 + 1.0
        mx = 0.05 * (x1 - x0)
        my = 0.05 * (y1 - y0)
        x0, x1, y0, y1 = x0 - mx, x1 + mx, y0 - my, y1 + my
        sx = WIDTH / (x1 - x0)
        sy = HEIGHT / (y1 - y0)

        def t(p):
            return ((p[0] - x0) * sx, HEIGHT - (p[1] - y0) * sy)
        return t

    def write(self, path):
        t = self._tx()
        parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{WIDTH}" height="{HEIGHT}" '
                 f'viewBox="0 0 {WIDTH} {HEIGHT}">']
        if self.title:
            parts.append(f'<title>{escape(self.title)}</title>')
        parts.append(f'<rect x="0" y="0" width="{WIDTH}" '
                     f'height="{HEIGHT}" fill="white"/>')
        if self.band is not None:
            coord = " ".join(f"{t(p)[0]:.2f},{t(p)[1]:.2f}" for p in self.band)
            parts.append(f'<polygon points="{coord}" fill="{BAND_COLOR}" stroke="none"/>')
            a, b = (t(p) for p in self.line)
            parts.append(f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" '
                         f'x2="{b[0]:.2f}" y2="{b[1]:.2f}" stroke="{LINE_COLOR}" '
                         f'stroke-dasharray="6,4"/>')
        for pts, color, width in self.series:
            coord = " ".join(f"{t(p)[0]:.2f},{t(p)[1]:.2f}" for p in pts)
            parts.append(f'<polyline points="{coord}" fill="none" '
                         f'stroke="{color}" stroke-width="{width}"/>')
        parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(parts) + "\n")


def plot_trajectories(traces, path, title: str, goal_ystar: float):
    """(x5, x6) projection: one polyline per trace over the goal band."""
    plot = SvgPlot(title=title)
    xs = [s.x5 for tr in traces for s in tr.states]
    if not xs:
        raise ValueError("no trajectories to plot")
    plot.add_goal(min(xs), max(xs), goal_ystar)
    for tr in traces:
        plot.add_polyline([(s.x5, s.x6) for s in tr.states])
    plot.write(path)


def plot_reach(result, path, title: str, goal_ystar: float):
    """(x5, x6) hull rectangles: one closed polyline per stored checkpoint."""
    from .zono import zono_hull
    plot = SvgPlot(title=title)
    rects = []
    for b in result.branches:
        for Z in b.checkpoints:
            lo, hi = zono_hull(Z)
            rects.append((lo[4], hi[4], lo[5], hi[5]))
    if not rects:
        raise ValueError("no reachable sets to plot")
    plot.add_goal(min(r[0] for r in rects), max(r[1] for r in rects), goal_ystar)
    for xl, xh, yl, yh in rects:
        plot.add_polyline([(xl, yl), (xh, yl), (xh, yh), (xl, yh), (xl, yl)],
                          color="#1f77b4", width=0.8)
    plot.write(path)
