#!/usr/bin/env python3
"""The 111 interface as a lozenge tiling, and back.

Minimal-area interfaces pinned by the 111 boundary condition project one-to-one
onto rhombus tilings of the plane; the inverse lift is fixed by an integer
height function with unit increments.  This script enumerates small tilings,
checks the degeneracy bounds, round-trips the bijection, and writes SVG
pictures colored by rhombus type.
"""

from pathlib import Path

from fklab.svgout import tiling_svg
from fklab.tiling import (
    degeneracy_bounds_check,
    enumerate_tilings,
    hexagon_region,
    interface_to_tiling,
    tiling_to_interface,
)

print(__doc__)

out = Path("demo_out")
out.mkdir(exist_ok=True)

for side in (1, 2, 3):
    region = hexagon_region(side)
    rep = degeneracy_bounds_check(region, enumerate_tilings(region))
    print(
        f"hexagon side {side}: {len(region):3d} triangles, area {rep.area:2d} rhombi, "
        f"{rep.count:4d} tilings; bounds 2^(A/3) = {rep.lower:9.1f} <= N <= 2^(2A)"
    )

print("\nround-tripping every tiling of the side-2 hexagon through 3D:")
region = hexagon_region(2)
ok = 0
for i, t in enumerate(enumerate_tilings(region)):
    faces, heights = tiling_to_interface(t)
    back = interface_to_tiling(faces)
    assert set(back.rhombi) == set(t.rhombi)
    ok += 1
print(f"  {ok} tilings -> interfaces -> tilings, all identical")

tilings = enumerate_tilings(region)
for i in (0, len(tilings) // 2, len(tilings) - 1):
    path = out / f"tiling_side2_{i:02d}.svg"
    path.write_text(tiling_svg(tilings[i]))
    counts = tilings[i].type_counts()
    print(f"  wrote {path}  (type counts {counts})")

print("""
The all-type-0 tiling lifts to the perfect staircase interface; each hexagon
flip swaps three rhombi and moves one lattice cube across the surface.""")
