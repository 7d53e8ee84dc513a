"""Minimal static SVG line plots.

Plots render only numbers already present in emitted CSVs; they never
compute anything new.  Output is deterministic (no timestamps, fixed
palette) so repeated runs are byte-identical.
"""

from __future__ import annotations

import numpy as np

PALETTE = ["#1c6fb8", "#d95f02", "#2a9d50", "#7b52ab", "#c02942"]

WIDTH, HEIGHT = 640, 420
MARGIN = 54


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Scale:
    def __init__(self, lo, hi, out_lo, out_hi):
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, v):
        t = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + t * (self.out_hi - self.out_lo)


def _polyline(xs, ys, sx, sy, color):
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{pts}"/>'


def svg_line_plot(path, x, series, band=None, title="", x_label="", y_label=""):
    """Write a line plot.

    ``series`` is an ordered list of (label, y-array); ``band`` an optional
    (lower, upper) pair drawn as a shaded region behind the lines.  A series
    point whose y value is not finite is left out of its line, and a band
    point whose x, lower or upper value is not finite out of the band.
    """
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in series]
    all_y = np.concatenate(ys + ([np.asarray(band[0]), np.asarray(band[1])] if band else []))
    finite = all_y[np.isfinite(all_y)]
    y_lo, y_hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    sx = _Scale(float(x.min()), float(x.max()), MARGIN, WIDTH - 16)
    sy = _Scale(y_lo - pad, y_hi + pad, HEIGHT - MARGIN, 18)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if band is not None:
        lower = np.asarray(band[0], dtype=float)
        upper = np.asarray(band[1], dtype=float)
        keep = np.isfinite(x) & np.isfinite(lower) & np.isfinite(upper)
        bx, lower, upper = x[keep], lower[keep], upper[keep]
        fwd = [f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(bx, upper)]
        back = [f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(bx[::-1], lower[::-1])]
        parts.append(
            '<polygon fill="#1c6fb8" fill-opacity="0.18" stroke="none" points="'
            + " ".join(fwd + back) + '"/>'
        )
    # axes
    parts.append(
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - 16}" '
        f'y2="{HEIGHT - MARGIN}" stroke="#222"/>'
    )
    parts.append(
        f'<line x1="{MARGIN}" y1="18" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="#222"/>'
    )
    for v in (sx.lo, sx.hi):
        parts.append(
            f'<text x="{sx(v):.2f}" y="{HEIGHT - MARGIN + 16}" '
            f'text-anchor="middle">{_fmt(v)}</text>'
        )
    for v in (sy.lo, sy.hi):
        parts.append(
            f'<text x="{MARGIN - 6}" y="{sy(v):.2f}" text-anchor="end" '
            f'dominant-baseline="middle">{_fmt(v)}</text>'
        )
    for i, ((label, y), color) in enumerate(zip(series, PALETTE * 8)):
        mask = np.isfinite(np.asarray(y, dtype=float))
        parts.append(_polyline(x[mask], np.asarray(y, dtype=float)[mask], sx, sy, color))
        parts.append(
            f'<text x="{WIDTH - 20}" y="{30 + 16 * i}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    if title:
        parts.append(f'<text x="{WIDTH // 2}" y="14" text-anchor="middle">{title}</text>')
    if x_label:
        parts.append(
            f'<text x="{(MARGIN + WIDTH) // 2}" y="{HEIGHT - 8}" '
            f'text-anchor="middle">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" '
            f'transform="rotate(-90 14 {HEIGHT // 2})">{y_label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
