"""Direct SVG emission for the human-inspection plots.

CSVs are the data contract; these charts are simple rects, polylines and
text. The data-to-pixel mapping is exposed (Frame.to_px) so tests can
verify emitted coordinates against the CSV values.
"""

import numpy as np

from .csvio import replacing

UNDEFINED_FILL = "#c8c8c8"    # designated fill for undefined-correlation cells


class Frame:
    """Affine map from data space to pixel space (y flipped)."""

    def __init__(self, x_range, y_range, width=640, height=480, pad=50):
        self.x0, self.x1 = float(x_range[0]), float(x_range[1])
        self.y0, self.y1 = float(y_range[0]), float(y_range[1])
        self.width, self.height, self.pad = width, height, pad

    def to_px(self, x, y):
        sx = (self.width - 2 * self.pad) / (self.x1 - self.x0 or 1.0)
        sy = (self.height - 2 * self.pad) / (self.y1 - self.y0 or 1.0)
        px = self.pad + (x - self.x0) * sx
        py = self.height - self.pad - (y - self.y0) * sy
        return px, py


class SvgCanvas:
    def __init__(self, width=640, height=480):
        self.width, self.height = width, height
        self.parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                      f'height="{height}" viewBox="0 0 {width} {height}">',
                      f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>']

    def rect(self, x, y, w, h, fill, stroke="none"):
        self.parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
                          f'fill="{fill}" stroke="{stroke}"/>')

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0):
        self.parts.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                          f'stroke="{stroke}" stroke-width="{width}"/>')

    def polyline(self, points, stroke="red", width=1.5):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
                          f'stroke-width="{width}"/>')

    def circle(self, x, y, r, fill="steelblue"):
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="{fill}"/>')

    def text(self, x, y, s, size=12, anchor="start", fill="black"):
        self.parts.append(f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
                          f'text-anchor="{anchor}" fill="{fill}" '
                          f'font-family="sans-serif">{s}</text>')

    def to_string(self):
        return "\n".join(self.parts + ["</svg>"]) + "\n"

    def save(self, path):
        with replacing(path) as fh:
            fh.write(self.to_string())


def color_for(value, lo, hi):
    """Blue-white-red ramp over [lo, hi]."""
    if hi <= lo:
        t = 0.5
    else:
        t = (value - lo) / (hi - lo)
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        u = t / 0.5
        r, g, b = int(40 + 215 * u), int(70 + 185 * u), 255
    else:
        u = (t - 0.5) / 0.5
        r, g, b = 255, int(255 - 185 * u), int(255 - 215 * u)
    return f"#{r:02x}{g:02x}{b:02x}"


def _axes(canvas, frame, x_label, y_label, title):
    canvas.line(frame.pad, canvas.height - frame.pad,
                canvas.width - frame.pad, canvas.height - frame.pad)
    canvas.line(frame.pad, frame.pad, frame.pad, canvas.height - frame.pad)
    canvas.text(canvas.width / 2, canvas.height - 12, x_label, anchor="middle")
    canvas.text(14, frame.pad - 10, y_label)
    canvas.text(canvas.width / 2, 20, title, size=14, anchor="middle")
    for frac in (0.0, 0.5, 1.0):
        xv = frame.x0 + frac * (frame.x1 - frame.x0)
        yv = frame.y0 + frac * (frame.y1 - frame.y0)
        px, _ = frame.to_px(xv, frame.y0)
        _, py = frame.to_px(frame.x0, yv)
        canvas.text(px, canvas.height - frame.pad + 16, f"{xv:.3g}", size=10, anchor="middle")
        canvas.text(frame.pad - 6, py + 3, f"{yv:.3g}", size=10, anchor="end")


def landscape_svg(grid, path_points, title="metric landscape"):
    """Colored grid cells with the projected training path on top.

    grid: LandscapeGrid; path_points: (T, 2) projected trajectory.
    """
    canvas = SvgCanvas()
    frame = Frame((grid.xs[0], grid.xs[-1]), (grid.ys[0], grid.ys[-1]))
    finite = grid.values[np.isfinite(grid.values)]
    lo = float(finite.min()) if finite.size else -1.0
    hi = float(finite.max()) if finite.size else 1.0
    dx = (grid.xs[1] - grid.xs[0]) if len(grid.xs) > 1 else 1.0
    dy = (grid.ys[1] - grid.ys[0]) if len(grid.ys) > 1 else 1.0
    for x, y, v in grid.cells():
        px, py = frame.to_px(x - dx / 2, y + dy / 2)
        px2, py2 = frame.to_px(x + dx / 2, y - dy / 2)
        fill = UNDEFINED_FILL if not np.isfinite(v) else color_for(v, lo, hi)
        canvas.rect(px, py, px2 - px, py2 - py, fill)
    pts = [frame.to_px(x, y) for x, y in np.atleast_2d(path_points)]
    canvas.polyline(pts, stroke="red", width=2.0)
    if pts:
        canvas.text(pts[0][0] + 4, pts[0][1], "Start", size=11, fill="black")
        canvas.text(pts[-1][0] + 4, pts[-1][1], "End", size=11, fill="black")
    _axes(canvas, frame, "component 1", "component 2", title)
    return canvas


def scatter_svg(xs, ys, x_label, y_label, title):
    canvas = SvgCanvas()
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    span = lambda a: (float(a.min()), float(a.max())) if a.size else (0.0, 1.0)
    frame = Frame(span(xs), span(ys))
    for x, y in zip(xs, ys):
        px, py = frame.to_px(x, y)
        canvas.circle(px, py, 3.0)
    _axes(canvas, frame, x_label, y_label, title)
    return canvas


def grouped_bars_svg(cells, title="metric vs gap correlation"):
    """One bar per (metric, group) report cell; undefined cells are drawn
    as gray outlines and labelled 'undef'."""
    metrics = list(dict.fromkeys(c.metric for c in cells))
    groups = list(dict.fromkeys(c.group for c in cells))
    by_key = {(c.metric, c.group): c for c in cells}
    canvas = SvgCanvas(width=max(640, 90 * len(metrics) * max(1, len(groups)) // 2), height=480)
    pad, base = 50, canvas.height - 80
    scale = (base - 60) / 2.0   # rho in [-1, 1]
    zero_y = base - scale
    group_colors = ["#4878cf", "#e1812c", "#3d9970", "#b4436c", "#8172b2", "#937860"]
    slot = (canvas.width - 2 * pad) / max(1, len(metrics))
    bar_w = max(6.0, min(22.0, slot / (len(groups) + 1)))
    for mi, metric in enumerate(metrics):
        x0 = pad + mi * slot
        for gi, group in enumerate(groups):
            cell = by_key[metric, group]
            bx = x0 + (gi + 0.5) * bar_w
            color = group_colors[gi % len(group_colors)]
            if cell.rho is None:
                canvas.rect(bx, zero_y - 10, bar_w - 2, 20, "none", stroke=UNDEFINED_FILL)
                canvas.text(bx, zero_y + 4, "undef", size=7)
            else:
                h = abs(cell.rho) * scale
                y = zero_y - h if cell.rho >= 0 else zero_y
                canvas.rect(bx, y, bar_w - 2, h, color)
        canvas.text(x0 + slot / 2, base + 16, metric, size=10, anchor="middle")
    canvas.line(pad, zero_y, canvas.width - pad, zero_y, stroke="#999")
    for gi, group in enumerate(groups):
        y = 30 + 14 * gi
        canvas.rect(canvas.width - 170, y - 8, 10, 10, group_colors[gi % len(group_colors)])
        canvas.text(canvas.width - 155, y, group, size=10)
    canvas.text(canvas.width / 2, 20, title, size=14, anchor="middle")
    return canvas
