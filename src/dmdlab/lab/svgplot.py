"""Tiny deterministic SVG emitter for line charts and scatter plots.

Byte-for-byte reproducible output for identical data: fixed canvas, fixed
palette, '%.6g' float formatting (more digits only where a tick label needs
them to print its tick exactly), no timestamps or generated ids.
"""

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 34, 46

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f"]


def _fmt(v: float) -> str:
    out = format(float(v), ".6g")
    return "0" if out in ("-0", "-0.0") else out


def _ticks(lo: float, hi: float):
    """(value, label) per tick: the multiples k * step in [lo, hi] of a
    1-2-2.5-5 step, step = m * 10^e with m in {10, 20, 25, 50, 100}. A label
    has as many significant digits as k * m, at least 6 and at most 17 (which
    tell any two doubles apart), so it prints its tick's exact decimal."""
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    for m in (10, 20, 25, 50, 100):
        if raw <= m / 10 * mag:
            step = m / 10 * mag
            break
    ticks = []
    for k in range(int(np.ceil(lo / step)),
                   int(np.floor(hi / step + 1e-12)) + 1):
        digits = min(max(len(str(abs(k * m)).rstrip("0")), 6), 17)
        ticks.append((k * step, format(k * step, f".{digits}g")))
    return ticks


class _Canvas:
    def __init__(self, title, xlabel, ylabel, xlim, ylim):
        self.parts = []
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        self.parts.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
        self.parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
        self.parts.append(
            f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>')
        self._axes(xlabel, ylabel)

    def px(self, x):
        span = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * span

    def py(self, y):
        span = HEIGHT - MARGIN_T - MARGIN_B
        return HEIGHT - MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * span

    def _axes(self, xlabel, ylabel):
        x_left, x_right = MARGIN_L, WIDTH - MARGIN_R
        y_top, y_bot = MARGIN_T, HEIGHT - MARGIN_B
        self.parts.append(
            f'<rect x="{x_left}" y="{y_top}" width="{x_right - x_left}" '
            f'height="{y_bot - y_top}" fill="none" stroke="#333" stroke-width="1"/>')
        for tx, label in _ticks(self.x0, self.x1):
            px = self.px(tx)
            self.parts.append(
                f'<line x1="{_fmt(px)}" y1="{y_bot}" x2="{_fmt(px)}" '
                f'y2="{y_bot + 5}" stroke="#333"/>')
            self.parts.append(
                f'<text x="{_fmt(px)}" y="{y_bot + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{label}</text>')
        for ty, label in _ticks(self.y0, self.y1):
            py = self.py(ty)
            self.parts.append(
                f'<line x1="{x_left - 5}" y1="{_fmt(py)}" x2="{x_left}" '
                f'y2="{_fmt(py)}" stroke="#333"/>')
            self.parts.append(
                f'<text x="{x_left - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{label}</text>')
        self.parts.append(
            f'<text x="{(x_left + x_right) // 2}" y="{HEIGHT - 10}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>')
        self.parts.append(
            f'<text x="16" y="{(y_top + y_bot) // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {(y_top + y_bot) // 2})">{ylabel}</text>')

    def polyline(self, xs, ys, color):
        pts = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}"
                       for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    def markers(self, xs, ys, color, r=3.0, cls="marker"):
        for x, y in zip(xs, ys):
            self.parts.append(
                f'<circle class="{cls}" cx="{_fmt(self.px(x))}" '
                f'cy="{_fmt(self.py(y))}" r="{_fmt(r)}" fill="{color}"/>')

    def legend(self, entries):
        y = MARGIN_T + 14
        for label, color in entries:
            x = WIDTH - MARGIN_R - 150
            self.parts.append(
                f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>')
            self.parts.append(
                f'<text x="{x + 28}" y="{y}" font-family="sans-serif" '
                f'font-size="11">{label}</text>')
            y += 16

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def data_limits(arrays, pad=0.05):
    """Padded axis limits of finite data, lo < hi. A range narrower than
    1e-12 of its magnitude, a single value included, is widened by 0.5 each
    way, or by that 1e-12 where it is more: past about 2e15, +-0.5 is too
    narrow for a tick step to move the tick."""
    lo = min(float(np.min(a)) for a in arrays if len(a))
    hi = max(float(np.max(a)) for a in arrays if len(a))
    size = 1e-12 * max(abs(lo), abs(hi))
    if hi - lo <= size:
        lo, hi = lo - max(0.5, size), hi + max(0.5, size)
    span = hi - lo
    return lo - pad * span, hi + pad * span


def line_chart(path, title, xlabel, ylabel, series):
    """series: list of (label, xs, ys). Writes one SVG file."""
    xs_all = [np.asarray(s[1], float) for s in series]
    ys_all = [np.asarray(s[2], float) for s in series]
    canvas = _Canvas(title, xlabel, ylabel,
                     data_limits(xs_all, pad=0.02), data_limits(ys_all))
    entries = []
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
        canvas.polyline(xs, ys, color)
        canvas.markers(xs, ys, color)
        entries.append((label, color))
    if len(entries) > 1:
        canvas.legend(entries)
    with open(path, "w") as fh:
        fh.write(canvas.render())


def scatter(path, title, points, labels):
    """2-D point cloud colored by integer label. Writes one SVG file."""
    points = np.asarray(points, float)
    labels = np.asarray(labels)
    canvas = _Canvas(title, "x0", "x1",
                     data_limits([points[:, 0]]), data_limits([points[:, 1]]))
    entries = []
    for i, label in enumerate(sorted(set(int(l) for l in labels))):
        color = PALETTE[label % len(PALETTE)]
        sel = points[labels == label]
        canvas.markers(sel[:, 0], sel[:, 1], color, r=2.0, cls="point")
        entries.append((f"label {label}", color))
    canvas.legend(entries)
    with open(path, "w") as fh:
        fh.write(canvas.render())
