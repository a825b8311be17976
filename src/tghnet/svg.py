"""Tiny dependency-free SVG line renderer for QQ and loss plots."""

from __future__ import annotations

import numpy as np

_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd")
_W, _H = 640, 480
_MARGIN = 50


def _scale(v, lo, hi, out_lo, out_hi):
    if hi == lo:
        hi = lo + 1.0
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def render_plot(path, series, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Write an SVG plot of ``series`` = [(x, y, label), ...]."""
    xs = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())

    def px(v):
        return _scale(v, x_lo, x_hi, _MARGIN, _W - _MARGIN)

    def py(v):
        return _scale(v, y_lo, y_hi, _H - _MARGIN, _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W / 2}" y="{_H - 10}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="15" y="{_H / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 15 {_H / 2})">{ylabel}</text>',
    ]
    for v in (x_lo, x_hi):
        parts.append(f'<text x="{px(v):.1f}" y="{_H - _MARGIN + 18}" text-anchor="middle" '
                     f'font-size="10">{v:.4g}</text>')
    for v in (y_lo, y_hi):
        parts.append(f'<text x="{_MARGIN - 6}" y="{py(v):.1f}" text-anchor="end" '
                     f'font-size="10">{v:.4g}</text>')
    for k, (sx, sy, label) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        sx = np.asarray(sx, dtype=float)
        sy = np.asarray(sy, dtype=float)
        points = " ".join(f"{px(vx):.1f},{py(vy):.1f}" for vx, vy in zip(sx, sy))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if label:
            parts.append(
                f'<text x="{_W - _MARGIN - 4}" y="{_MARGIN + 16 * (k + 1)}" '
                f'text-anchor="end" font-size="12" fill="{color}">{label}</text>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
