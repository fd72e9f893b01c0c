"""Deterministic SVG rendering of triangulations with value heat shading."""

from __future__ import annotations

from .ctpp import CtppFunction, EdgeViolation
from .variation import _on_floats


_LOW = (33, 102, 172)    # cool
_HIGH = (178, 24, 43)    # warm


def _heat(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    r = round(_LOW[0] + (_HIGH[0] - _LOW[0]) * t)
    g = round(_LOW[1] + (_HIGH[1] - _LOW[1]) * t)
    b = round(_LOW[2] + (_HIGH[2] - _LOW[2]) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


_SIZE = 480  # width and height in pixels


def ctpp_svg(g: CtppFunction, violations: list[EdgeViolation]) -> str:
    """One polygon per triangle, shaded by the piece value at the centroid;
    violating edges drawn on top in red."""
    xs = _on_floats(lambda c: [v.real for v in c], [p.x for p in g.tri.vertices])
    ys = _on_floats(lambda c: [v.real for v in c], [p.y for p in g.tri.vertices])
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0) or 1.0
    pad = 0.05 * span
    scale = _SIZE / (span + 2 * pad)

    def sx(x: float) -> float:
        return (x - x0 + pad) * scale

    def sy(y: float) -> float:
        return _SIZE - (y - y0 + pad) * scale  # flip so +y is up

    centro = []
    for idx, (i, j, k) in enumerate(g.tri.triangles):
        vx = (xs[i] + xs[j] + xs[k]) / 3
        vy = (ys[i] + ys[j] + ys[k]) / 3
        c = g.coeffs[idx]
        centro.append(_on_floats(lambda v: abs(v[0] * vx + v[1] * vy + v[2]), (c.a, c.b, c.c)))
    lo = min(centro) if centro else 0.0
    hi = max(centro) if centro else 1.0
    rng = (hi - lo) or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
    ]
    for idx, (i, j, k) in enumerate(g.tri.triangles):
        pts = " ".join(f"{sx(xs[v]):.2f},{sy(ys[v]):.2f}" for v in (i, j, k))
        fill = _heat((centro[idx] - lo) / rng)
        parts.append(f'<polygon points="{pts}" fill="{fill}" stroke="#555" '
                     f'stroke-width="0.6"/>')
    for v in violations:
        i, j = v.edge
        parts.append(
            f'<line x1="{sx(xs[i]):.2f}" y1="{sy(ys[i]):.2f}" '
            f'x2="{sx(xs[j]):.2f}" y2="{sy(ys[j]):.2f}" '
            f'stroke="#ff0000" stroke-width="3"/>')
    parts.append("</svg>")
    return "\n".join(parts)
