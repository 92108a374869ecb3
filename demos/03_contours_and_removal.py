#!/usr/bin/env python3
"""Excitations of the rhombus model and the removal transformation.

A rhombus configuration splits into bases (same-type seas glued by good pairs)
and R-contours (everything else: delta and omega edges, lambda links,
overlapping rhombi).  Contours carry the fourth-order excitation energy
F = J2 a_ov + K2 |delta| + U^-3 |omega| + (1/4) U^-3 |lambda|; the Dobrushin
transformation deletes a contour by editing the height function: each interior
moves by S^n, n the level difference between its base and the exterior's, and
the remaining contour energies do not move at all.
"""

from collections import Counter

from pathlib import Path

from fklab.classical import ModelCoefficients, extract_contours, h4_relative_energy
from fklab.lattice import Volume
from fklab.rcontour import decompose, decompose_tiling, dobrushin_remove, f_energy, geometric_class
from fklab.svgout import faces_svg
from fklab.tiling import (
    config_from_heights,
    hexagon_region,
    r0_closure,
    random_tiling,
    stair_height,
    tiling_from_heights,
    vertex_class,
)

print(__doc__)
co = ModelCoefficients(U=8.0)
out = Path("demo_out")
out.mkdir(exist_ok=True)

# --- the elementary excitations, read off an actual 3D interface
vol = Volume(dims=(10, 10, 10), shell=2)
stair = config_from_heights(vol)

flip = stair.with_flip((0, 0, -1))           # hexagon flip: still minimal
(c,) = extract_contours(flip)
deco = decompose(c.faces)
ring = deco.contours[0]
print(f"hexagon flip: standard contour with {ring.standard_delta} delta lines;"
      f" F = {f_energy(ring, co):.6f} = 6 K2 = {6 * co.k2:.6f}")

pyramid = stair.with_flip((0, 0, 0))         # one extra cube: overlapping
(c2,) = extract_contours(pyramid)
deco2 = decompose(c2.faces)
ups = deco2.contours[0]
ov = ups.overlapping[0]
exact = h4_relative_energy(pyramid, co) - h4_relative_energy(stair, co)
print(f"pyramid: overlapping contour with a_ov={ov.a_ov}, omega={ov.omega}, "
      f"lambda={ov.lam}; r_ov = {geometric_class(ups).r_ov[0]}")
print(f"  formula F = {f_energy(ups, co):.6f}, exact fourth-order excess = {exact:.6f}")
print("  (the formula books no good-pair credit inside overlaps, so it sits above)")
(out / "pyramid.svg").write_text(faces_svg(c2.faces))
print(f"  wrote {out/'pyramid.svg'} (overlaps shaded, omega edges highlighted)")

# --- a nested pair: removing the outer contour translates the inner one intact
base = r0_closure(hexagon_region(6, center=(0, 1)).triangles)
C = (0, 1)
hexdist = lambda p: max(abs(p[0]-C[0]), abs(p[1]-C[1]), abs((p[0]-C[0])-(p[1]-C[1])))  # noqa: E731
h = {v: stair_height(v) + 3 for v in base.vertices if hexdist(v) <= 3 and vertex_class(v) == 2}
inner = next(v for v in sorted(base.vertices) if hexdist(v) <= 1 and vertex_class(v) == 0)
h[inner] = stair_height(inner) + 3
nested = tiling_from_heights(base, h)
deco3 = decompose_tiling(nested)
print(f"\nnested configuration: {len(deco3.contours)} contours, "
      f"F = {[f'{f_energy(c, co):.6f}' for c in deco3.contours]}")
outer_idx = max(range(len(deco3.contours)), key=lambda i: sum(deco3.contours[i].standard_delta))
new_t, rep = dobrushin_remove(nested, outer_idx, coeffs=co)
print(f"removed the outer ring: contours {rep.contours_before} -> {rep.contours_after}; "
      f"interiors translated by {[i['shift'] for i in rep.interiors]}, "
      f"one of them carrying the inner contour: {rep.nested}")

# --- a seeded mini campaign
base4 = r0_closure(hexagon_region(4).triangles)
removals = 0
for seed in range(10):
    t = random_tiling(base4, 25, seed=seed)
    d = decompose_tiling(t)
    for idx in range(len(d.contours)):
        _, r = dobrushin_remove(t, idx, coeffs=co)
        assert r.contours_after == r.contours_before - 1
        removals += 1
print(f"\nmini campaign: {removals} randomized removals, all clean")

# --- shifts are level differences: a pocket two levels off moves by S^+-2
base6 = r0_closure(hexagon_region(6).triangles)
shifts = Counter()
for seed in range(10):
    t = random_tiling(base6, 100, seed=seed)
    for idx in range(len(decompose_tiling(t).contours)):
        _, r = dobrushin_remove(t, idx, coeffs=co)
        shifts.update(r.shifts.values())
print(f"side-6 campaign, interior shift n -> count: {dict(sorted(shifts.items()))}")
