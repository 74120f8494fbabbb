"""SVG sketches of how a map transforms the unit disk.

The image of a polar mesh (concentric circles plus radial spokes, pulled
back just inside the boundary) is drawn as polylines.  Output is plain
text with a fixed numeric format, so rendering the same map twice yields
identical bytes.
"""

from __future__ import annotations

import numpy as np

from .core import PolyharmonicMap, evaluate, ring_values

__all__ = ["render_paths", "render_svg"]

_EDGE = 1.0 - 1e-3  # radius of the outermost ring
RINGS, RAYS, SAMPLES = 8, 16, 512  # the mesh, read at each call


def render_paths(F: PolyharmonicMap) -> dict:
    """Image polylines of the polar mesh on |z| <= 1 - 1e-3, as arrays of
    complex points: RINGS circles and RAYS spokes of SAMPLES points each.

    Rings come from ring_values; the outermost, at radius exactly 1 - 1e-3,
    is the boundary curve.  Rays run to that radius at angles 2 pi m / RAYS;
    they end on the boundary curve only to rounding, since RAYS divides
    SAMPLES.
    """
    radii = _EDGE * (np.arange(1, RINGS + 1) / RINGS)
    ring_paths = [np.concatenate([w, w[:1]])  # close the loop
                  for w in ring_values(F, radii, SAMPLES)]
    ang = 2.0 * np.pi * np.arange(RAYS) / RAYS
    t = np.linspace(0.0, _EDGE, SAMPLES)
    ray_paths = list(evaluate(F, t * np.exp(1j * ang)[:, None]))  # one spoke a row
    return {"rings": ring_paths, "rays": ray_paths, "boundary": ring_paths[-1]}


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape's replacements, in its order; that module
    # would pull urllib, http, email, ssl and socket into every process
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    return "%.10g" % (x + 0.0)  # -0.0 prints as 0


def _points(path: np.ndarray) -> str:
    # SVG's y axis points down; flip the imaginary part
    return " ".join("%s,%s" % (_fmt(float(w.real)), _fmt(float(-w.imag)))
                    for w in path)


def render_svg(F: PolyharmonicMap, out_path=None) -> str:
    """SVG text of the render_paths mesh, also written to out_path if given."""
    paths = render_paths(F)
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
        lines.append("<desc>%s</desc>" % _escape(F.label))
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
