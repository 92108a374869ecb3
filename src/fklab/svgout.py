"""Minimal SVG rendering of tilings, rhombus configurations and contour
overlays.  Axial plane coordinates (a, b) map to cartesian
x = a - b/2, y = -(b * sqrt(3)/2); rhombi are colored by type and the
delta/omega edges of a configuration are drawn as heavy strokes.  Tilings
and face sets go through one renderer.
"""

from __future__ import annotations

import math
from typing import Iterable

from .classical import face_arrays
from .tiling import DELTA, OMEGA, Tiling, _project_faces, rhombus_corners, tiling_edges

TYPE_COLORS = ("#c8d9f0", "#f0d3c8", "#d2ecc9")
DELTA_COLOR = "#c01818"
OMEGA_COLOR = "#7818c0"
GOOD_COLOR = "#9aa5b1"

_SQ3_2 = math.sqrt(3.0) / 2.0
SCALE = 36.0  # SVG units per lattice step


def _xy(p):
    a, b = p
    return (SCALE * (a - 0.5 * b), -SCALE * (_SQ3_2 * b))


def _polygon(points, fill, stroke="#444", width=1.0, opacity=1.0):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (
        f'<polygon points="{pts}" fill="{fill}" fill-opacity="{opacity}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _line(p1, p2, color, width):
    return (
        f'<line x1="{p1[0]:.2f}" y1="{p1[1]:.2f}" x2="{p2[0]:.2f}" y2="{p2[1]:.2f}" '
        f'stroke="{color}" stroke-width="{width}" stroke-linecap="round"/>'
    )


def _wrap(elements: list[str], bbox, pad=30.0) -> str:
    (x0, y0, x1, y1) = bbox
    w, h = x1 - x0 + 2 * pad, y1 - y0 + 2 * pad
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0 - pad:.1f} {y0 - pad:.1f} {w:.1f} {h:.1f}" '
        f'width="{w:.0f}" height="{h:.0f}">'
    )
    return head + "\n" + "\n".join(elements) + "\n</svg>\n"


def _bbox(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (min(xs), min(ys), max(xs), max(ys))


def _render(rhombi, delta, omega) -> str:
    """Rhombi given as (corners, type, shaded), delta and omega edges as
    (p1, p2), each in drawing order; shaded rhombi are drawn translucent."""
    elements = []
    pts_all = []
    for corners, kind, shaded in rhombi:
        corners = [_xy(p) for p in corners]
        pts_all.extend(corners)
        elements.append(
            _polygon(corners, TYPE_COLORS[kind], stroke=GOOD_COLOR, opacity=0.45 if shaded else 1.0)
        )
    for color, width, edges in ((DELTA_COLOR, 3.0, delta), (OMEGA_COLOR, 3.5, omega)):
        elements.extend(_line(_xy(p1), _xy(p2), color, width) for p1, p2 in edges)
    if not pts_all:
        pts_all = [(0.0, 0.0)]
    return _wrap(elements, _bbox(pts_all))


def tiling_svg(tiling: Tiling) -> str:
    """Rhombi colored by type; the delta edges of ``tiling_edges`` (edges
    between rhombi of different types) drawn as heavy strokes."""
    ix = tiling.region.index
    rhombi = [(rhombus_corners(r), ix.rtype(t, u), False) for (t, u), r in zip(tiling.pairs, tiling.rhombi)]
    _, delta = tiling_edges(ix, tiling.partner, ix.ids.values())
    return _render(rhombi, [(ix.xy[v], ix.xy[w]) for v, w in sorted(map(ix.ends, delta))], [])


def faces_svg(faces: Iterable) -> str:
    """The rhombus configuration of a face set: rhombi with an overlapping
    triangle shaded, delta and omega edges as heavy strokes."""
    (corners, kind, _, cover, _), (ends, ekind, _, _), _ = _project_faces(*face_arrays(frozenset(faces)))
    rhombi = zip(corners.tolist(), kind.tolist(), (cover > 1).any(axis=1).tolist())
    ends, ekind = ends.tolist(), ekind.tolist()
    return _render(rhombi, *([e for e, c in zip(ends, ekind) if c == tag] for tag in (DELTA, OMEGA)))
