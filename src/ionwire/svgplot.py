"""Tiny SVG line plots (path elements only, no renderer dependency).

Convenience output for eyeballing trajectories and scans; never a source
of truth. Each series is mapped to pixels with numpy, whole arrays at a
time, and its path points are formatted at ``.2f`` (ticks at ``.1f``), so
identical inputs yield identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 44


def _ticks(lo, hi, n=5):
    if not (hi > lo):
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt(x):
    return f"{x:.6g}"


def line_plot(series, title="", xlabel="", ylabel="", width=640, height=420):
    """series: iterable of (label, xs, ys) or (label, xs, ys, yerr)."""
    series = [(s[0], np.asarray(s[1], float), np.asarray(s[2], float),
               None if len(s) < 4 or s[3] is None else np.asarray(s[3], float))
              for s in series]
    xs_all = np.concatenate([xs for _, xs, _, _ in series])
    ys_all = np.concatenate([y for _, _, ys, e in series for y in
                             ((ys,) if e is None else (ys, ys + e, ys - e))])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return _MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="13">{title}</text>')

    # frame and ticks
    out.append(f'<path d="M{_MARGIN_L} {_MARGIN_T} V{_MARGIN_T + plot_h} '
               f'H{_MARGIN_L + plot_w}" fill="none" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        out.append(f'<path d="M{x:.1f} {_MARGIN_T + plot_h:.1f} v5" '
                   f'stroke="black"/>')
        out.append(f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18:.1f}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<path d="M{_MARGIN_L} {y:.1f} h-5" stroke="black"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{_fmt(t)}</text>')
    if xlabel:
        out.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" '
                   f'y="{height - 8}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    if ylabel:
        x0, y0 = 14, _MARGIN_T + plot_h / 2
        out.append(f'<text x="{x0}" y="{y0:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 {x0} {y0:.1f})">{ylabel}</text>')

    for i, (label, xs, ys, yerr) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        xp = px(xs).tolist()
        pts = " L".join(map("{:.2f} {:.2f}".format, xp, py(ys).tolist()))
        out.append(f'<path d="M{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        if yerr is not None:
            bar = (f'<path d="M{{:.2f}} {{:.2f}} V{{:.2f}}" stroke="{color}" '
                   f'stroke-width="1"/>')
            out += map(bar.format, xp, py(ys - yerr).tolist(),
                       py(ys + yerr).tolist())
        ty = _MARGIN_T + 14 + 16 * i
        tx = _MARGIN_L + plot_w - 8
        out.append(f'<text x="{tx}" y="{ty}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11" '
                   f'fill="{color}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
