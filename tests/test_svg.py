"""SVG rendering: structure, type coloring, edge highlights, determinism."""

from fklab.classical import extract_contours
from fklab.lattice import Volume
from fklab.svgout import DELTA_COLOR, OMEGA_COLOR, faces_svg, tiling_svg
from fklab.tiling import (
    Tiling,
    config_from_heights,
    enumerate_tilings,
    hexagon_region,
    r0_rhombus,
)


def test_tiling_svg_structure_and_highlights():
    reg = hexagon_region(2)
    pure = Tiling.from_rhombi(reg, {r0_rhombus(t) for t in reg.triangles})
    svg = tiling_svg(pure)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polygon") == 12
    assert DELTA_COLOR not in svg  # no delta edges in the ground tiling

    mixed = next(t for t in enumerate_tilings(reg) if t.type_counts() == (9, 3, 0))
    svg2 = tiling_svg(mixed)
    assert svg2.count(DELTA_COLOR) > 0  # different-type adjacencies highlighted


def test_faces_svg_overlap_and_omega():
    vol = Volume(dims=(8, 8, 8), shell=2)
    pyr = config_from_heights(vol).with_flip((0, 0, 0))
    (c,) = extract_contours(pyr)
    svg = faces_svg(c.faces)
    assert OMEGA_COLOR in svg            # the pyramid's diagonal plaquettes
    assert 'fill-opacity="0.45"' in svg  # overlapped rhombi shaded


def test_faces_svg_deterministic_under_set_rebuild():
    vol = Volume(dims=(8, 8, 8), shell=2)
    flip = config_from_heights(vol).with_flip((0, 0, -1))
    (c,) = extract_contours(flip)
    svg1 = faces_svg(c.faces)
    # rebuild the face set in a different insertion order (mimics unpickling)
    rebuilt = frozenset(sorted(c.faces, reverse=True))
    svg2 = faces_svg(rebuilt)
    assert svg1 == svg2
