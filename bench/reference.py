"""Reference computations for the output checks, independent of slhkit.

Model files are parsed with the standard ``json`` module and characteristic
operators are evaluated with ``numpy.linalg.solve``, so a defect in slhkit's
model-file reader, LU guard or resolvent code cannot hide itself here.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

SVG_W, SVG_H, SVG_PAD = 640, 240, 48  # layout fixed by the plot format

_POLYLINE = re.compile(r'<polyline points="([^"]*)"')


def read_slh(path):
    """(S, L, H) arrays from an slh model file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != "slh":
        raise ValueError(f"{path}: expected kind 'slh', got {doc.get('kind')!r}")

    def mat(key):
        return np.array([[complex(re_, im_) for re_, im_ in row] for row in doc[key]])

    return mat("S"), mat("L"), mat("H")


def char_op(S, L, H, s, cols=slice(None)):
    """Columns ``cols`` of T(s) = S - L (s - K)^-1 L* S, K = -1/2 L*L - iH."""
    m = H.shape[0]
    Ld = L.conj().T
    K = -0.5 * Ld @ L - 1j * H
    return S[:, cols] - L @ np.linalg.solve(s * np.eye(m) - K, Ld @ S[:, cols])


def unitarity_residual(T):
    return float(np.max(np.abs(T.conj().T @ T - np.eye(T.shape[0]))))


def svg_polylines(path):
    """Point arrays (k x 2) of every polyline in an SVG file, in file order."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return [np.array([[float(v) for v in p.split(",")] for p in pts.split()])
            for pts in _POLYLINE.findall(text)]


def panel_pixels(xs, ys, y_offset):
    """Pixel coordinates of (xs, ys) in one plot panel; ys may hold nan.

    x spans [min(xs), max(xs)] over the panel width and y spans the finite
    range of ys over its height, larger values higher up.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(ys)
    x_lo, x_hi = xs.min(), xs.max()
    y_lo, y_hi = ys[keep].min(), ys[keep].max()
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    bottom, top = y_offset + SVG_H - SVG_PAD, y_offset + 12
    px = SVG_PAD + (xs[keep] - x_lo) / x_span * (SVG_W - 2 * SVG_PAD)
    py = bottom + (ys[keep] - y_lo) / y_span * (top - bottom)
    return np.column_stack([px, py])


def magnitude_phase_pixels(xs, values):
    """Expected polylines (magnitude panel, phase panel) for complex values."""
    values = np.asarray(values, dtype=complex)
    mags = np.abs(values)
    phases = np.array([math.atan2(v.imag, v.real) for v in values])
    return panel_pixels(xs, mags, 0), panel_pixels(xs, phases, SVG_H)
