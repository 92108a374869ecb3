"""Minimal SVG rendering of tilings, rhombus configurations and contour
overlays.  Axial plane coordinates (a, b) map to cartesian
x = a - b/2, y = -(b * sqrt(3)/2); rhombi are colored by type and the
delta/omega edges of a configuration are drawn as heavy strokes.
"""

from __future__ import annotations

import math
from typing import Iterable

from .tiling import (
    RConfiguration,
    Tiling,
    rhombus_corners,
    rhombus_type,
    tiling_edges,
)

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


def tiling_svg(tiling: Tiling) -> str:
    """Rhombi colored by type; the delta edges of ``tiling_edges`` (edges
    between rhombi of different types) drawn as heavy strokes."""
    ix = tiling.region.index
    _, delta = tiling_edges(ix, tiling.partner, ix.ids.values())
    edges = {frozenset(ix.xy[v] for v in ix.ends(e)): 1 for e in delta}
    return rconfig_svg(RConfiguration(dict.fromkeys(tiling.rhombi, 1), delta_edges=edges))


def rconfig_svg(rc: RConfiguration) -> str:
    """A rhombus configuration with overlap shading and delta/omega highlights."""
    elements = []
    pts_all = []
    overlapping = rc.overlapping_rhombi
    for r, mult in sorted(rc.rhombus_multiplicity.items(), key=lambda kv: sorted(map(sorted, kv[0]))):
        corners = [_xy(p) for p in rhombus_corners(r)]
        pts_all.extend(corners)
        opacity = 0.45 if r in overlapping else 1.0
        elements.append(
            _polygon(corners, TYPE_COLORS[rhombus_type(r)], stroke=GOOD_COLOR, opacity=opacity)
        )
    for e in sorted(rc.delta_edges, key=lambda e: sorted(e)):
        p1, p2 = sorted(e)
        elements.append(_line(_xy(p1), _xy(p2), DELTA_COLOR, 3.0))
    for e in sorted(rc.omega_edges, key=lambda e: sorted(e)):
        p1, p2 = sorted(e)
        elements.append(_line(_xy(p1), _xy(p2), OMEGA_COLOR, 3.5))
    if not pts_all:
        pts_all = [(0.0, 0.0)]
    return _wrap(elements, _bbox(pts_all))


def faces_svg(faces: Iterable) -> str:
    """Convenience: project a face set and render the configuration."""
    return rconfig_svg(RConfiguration.from_faces(faces))
