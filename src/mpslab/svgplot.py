"""Minimal self-contained SVG line plots with shaded uncertainty bands."""

import html
import math

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def _ticks(lo, hi, n=5):
    """About n round tick values in [lo, hi], for hi > lo."""
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    for step in (1, 2, 5, 10):
        if raw <= step * mag:
            step *= mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _escape(text):
    """Escape &, < and > for SVG text content; quotes are left as they are."""
    return html.escape(text, quote=False)


def _finite_runs(*columns):
    """Index lists of the maximal runs of points whose values in every
    column are finite."""
    runs, run = [], []
    for k, values in enumerate(zip(*columns)):
        if all(math.isfinite(float(v)) for v in values):
            run.append(k)
        elif run:
            runs.append(run)
            run = []
    return runs + [run] if run else runs


def line_plot(path, series, title="", xlabel="", ylabel="", logy=False):
    """Write an SVG line plot.

    ``series`` is a list of dicts with keys: x, y (sequences), and
    optionally band=(lo, hi) for a shaded region and label for the legend.
    A curve or band breaks at a point with a non-finite value; with no
    finite y value (none above 0 on a log axis) there is nothing to draw
    and ValueError names the plot's title.
    """
    xs = [float(v) for s in series for v in s["x"]]
    ys = []
    for s in series:
        ys.extend(float(v) for v in s["y"])
        if s.get("band") is not None:
            lo, hi = s["band"]
            ys.extend(float(v) for v in lo)
            ys.extend(float(v) for v in hi)
    ys = [v for v in ys if math.isfinite(v)]
    if logy:
        ys = [v for v in ys if v > 0]
    if not ys:
        raise ValueError(f"plot {title!r} has no finite y value to draw")

    def ty(v):
        return math.log10(v) if logy else v

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(map(ty, ys)), max(map(ty, ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v):
        frac = (float(v) - x_lo) / (x_hi - x_lo)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def py(v):
        v = ty(max(float(v), 10 ** (y_lo - 2)) if logy else float(v))
        frac = (v - y_lo) / (y_hi - y_lo)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">{_escape(title)}</text>',
    ]

    # axes and ticks
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{y0}" x2="{px(t):.1f}" y2="{y0 + 5}" '
            'stroke="black"/>')
        parts.append(
            f'<text x="{px(t):.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        label = f"1e{t:g}" if logy else f"{t:g}"
        yy = HEIGHT - MARGIN_B - (t - y_lo) / (y_hi - y_lo) * (
            HEIGHT - MARGIN_T - MARGIN_B)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{yy:.1f}" x2="{x0}" y2="{yy:.1f}" '
            'stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{yy + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{label}</text>')
    parts.append(
        f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{_escape(xlabel)}</text>')
    parts.append(
        f'<text x="18" y="{(y0 + y1) / 2}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {(y0 + y1) / 2})">'
        f'{_escape(ylabel)}</text>')

    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        x = list(s["x"])
        if s.get("band") is not None:
            lo, hi = (list(b) for b in s["band"])
            for run in _finite_runs(x, lo, hi):
                pts = [f"{px(x[i]):.1f},{py(hi[i]):.1f}" for i in run]
                pts += [f"{px(x[i]):.1f},{py(lo[i]):.1f}"
                        for i in reversed(run)]
                parts.append(
                    f'<polygon points="{" ".join(pts)}" fill="{color}" '
                    'fill-opacity="0.18" stroke="none"/>')
        y = list(s["y"])
        for run in _finite_runs(x, y):
            pts = " ".join(f"{px(x[i]):.1f},{py(y[i]):.1f}" for i in run)
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                'stroke-width="1.8"/>')
        if s.get("label"):
            ly = MARGIN_T + 16 * k
            parts.append(
                f'<line x1="{x1 - 130}" y1="{ly}" x2="{x1 - 105}" y2="{ly}" '
                f'stroke="{color}" stroke-width="1.8"/>')
            parts.append(
                f'<text x="{x1 - 100}" y="{ly + 4}" font-size="11" '
                f'font-family="sans-serif">{_escape(str(s["label"]))}</text>')

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
