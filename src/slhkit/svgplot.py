"""Minimal SVG 1.1 line plots, no plotting dependency.

Emits two stacked panels (magnitude and phase versus the grid variable) as
plain polylines with axis frames and numeric end labels.  Nothing here aims
beyond being valid SVG 1.1 that renders legibly.
"""

from __future__ import annotations

import math

_W, _H, _PAD = 640, 240, 48


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0:
        span = 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def _panel(xs, ys, y_label, title, y_offset):
    finite = [(x, y) for x, y in zip(xs, ys) if math.isfinite(y)]
    parts = [
        f'<rect x="{_PAD}" y="{y_offset + 12}" width="{_W - 2 * _PAD}" '
        f'height="{_H - 2 * _PAD}" fill="none" stroke="black"/>',
        f'<text x="{_PAD}" y="{y_offset + 8}" font-size="12">{title}</text>',
    ]
    if finite:
        fx = [p[0] for p in finite]
        fy = [p[1] for p in finite]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(fy), max(fy)
        px = _scale(fx, x_lo, x_hi, _PAD, _W - _PAD)
        py = _scale(fy, y_lo, y_hi, y_offset + _H - _PAD, y_offset + 12)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="blue"/>')
        parts.append(
            f'<text x="4" y="{y_offset + 20}" font-size="10">{y_hi:.4g}</text>')
        parts.append(
            f'<text x="4" y="{y_offset + _H - _PAD}" font-size="10">{y_lo:.4g}</text>')
        parts.append(
            f'<text x="{_PAD}" y="{y_offset + _H - _PAD + 14}" font-size="10">{x_lo:.4g}</text>')
        parts.append(
            f'<text x="{_W - _PAD - 20}" y="{y_offset + _H - _PAD + 14}" '
            f'font-size="10">{x_hi:.4g}</text>')
    parts.append(
        f'<text x="10" y="{y_offset + _H // 2}" font-size="12" '
        f'transform="rotate(-90 10 {y_offset + _H // 2})">{y_label}</text>')
    return parts


def magnitude_phase_svg(xs, values, x_label: str = "omega") -> str:
    """SVG with |value| and arg(value) traced over xs (values complex)."""
    mags = [abs(v) if v == v else float("nan") for v in values]
    phases = [math.atan2(v.imag, v.real) if v == v else float("nan") for v in values]
    body = []
    body += _panel(list(xs), mags, "magnitude", f"|entry| vs {x_label}", 0)
    body += _panel(list(xs), phases, "phase (rad)", f"arg(entry) vs {x_label}", _H)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{2 * _H}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )
