"""SVG sketches of how a map transforms the unit disk.

The image of a polar mesh (concentric circles plus radial spokes, pulled
back just inside the boundary) is drawn as polylines.  Output is plain
text with a fixed numeric format, so rendering the same map twice yields
identical bytes.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .core import PolyharmonicMap, check_grid_size, evaluate, ring_values
from .errors import InvalidParams

__all__ = ["render_paths", "render_svg"]

_EDGE = 1.0 - 1e-3  # radius of the outermost ring


def render_paths(F: PolyharmonicMap, rings: int = 8, rays: int = 16,
                 samples: int = 512) -> dict:
    """Image polylines of the polar mesh on |z| <= 1 - 1e-3, as arrays of
    complex points.

    Rings come from ring_values; the outermost, at radius exactly 1 - 1e-3,
    is the boundary curve.  Rays run to that radius at angles 2 pi m / rays;
    they end on the boundary curve only to rounding, and only when rays
    divides samples.  The (rings + rays + 1) x samples points may not
    exceed MAX_GRID_POINTS.
    """
    if rings < 1 or rays < 1 or samples < 16:
        raise InvalidParams("need rings >= 1, rays >= 1, samples >= 16")
    check_grid_size((rings + rays + 1) * samples, "(rings + rays + 1) x samples")
    radii = _EDGE * (np.arange(1, rings + 1) / rings)
    ring_paths = [np.concatenate([w, w[:1]])  # close the loop
                  for w in ring_values(F, radii, samples)]
    ray_paths = []
    for m in range(rays):
        ang = 2.0 * np.pi * m / rays
        t = np.linspace(0.0, _EDGE, samples)
        ray_paths.append(evaluate(F, t * np.exp(1j * ang)))
    return {"rings": ring_paths, "rays": ray_paths, "boundary": ring_paths[-1]}


def _fmt(x: float) -> str:
    return "%.10g" % (x + 0.0)  # -0.0 prints as 0


def _points(path: np.ndarray) -> str:
    # SVG's y axis points down; flip the imaginary part
    return " ".join("%s,%s" % (_fmt(float(w.real)), _fmt(float(-w.imag)))
                    for w in path)


def render_svg(F: PolyharmonicMap, out_path=None, rings: int = 8,
               rays: int = 16, samples: int = 512) -> str:
    """SVG text of the render_paths mesh, also written to out_path if given."""
    paths = render_paths(F, rings=rings, rays=rays, samples=samples)
    pts = np.concatenate(paths["rings"] + paths["rays"])  # the boundary is the last ring
    xs = pts.real
    ys = -pts.imag
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = 0.05 * span
    view = (x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)
    stroke = 0.004 * span
    lines = []
    lines.append('<svg xmlns="http://www.w3.org/2000/svg" '
                 'viewBox="%s %s %s %s" width="640" height="640">'
                 % (_fmt(view[0]), _fmt(view[1]), _fmt(view[2]), _fmt(view[3])))
    if F.label:
        lines.append("<desc>%s</desc>" % escape(F.label))
    lines.append('<g fill="none" stroke="#99b" stroke-width="%s">'
                 % _fmt(stroke))
    for path in paths["rings"][:-1]:
        lines.append('<polyline points="%s"/>' % _points(path))
    lines.append("</g>")
    lines.append('<g fill="none" stroke="#b99" stroke-width="%s">'
                 % _fmt(stroke))
    for path in paths["rays"]:
        lines.append('<polyline points="%s"/>' % _points(path))
    lines.append("</g>")
    lines.append('<g fill="none" stroke="#223" stroke-width="%s">'
                 % _fmt(2.0 * stroke))
    lines.append('<polyline points="%s"/>' % _points(paths["boundary"]))
    lines.append("</g>")
    lines.append("</svg>")
    text = "\n".join(lines) + "\n"
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
