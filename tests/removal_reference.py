"""The rhombus-set Dobrushin removal, kept as the oracle for the height-edit
removal in ``fklab.rcontour``, and the keyed union-find rule for the
complement of a contour, the oracle for the walk of ``rcontour._complement``.

``rhombus_remove`` translates each interior's rhombi by n * (1,1) (the plane
step of S^n, n the level of the interior's adjacent base minus the level of
the exterior's), reports the triangles that two translated rhombi both claim,
fills the gaps with rhombi of the exterior's base type and decomposes the
result again.  It returns what ``dobrushin_remove`` returns and raises the same
exceptions for the same reasons.
"""

from fklab.lattice import components
from fklab.rcontour import DobrushinViolation, RemovalReport, f_energy
from fklab.tiling import (
    Region,
    Tiling,
    rhombus_corners,
    stair_height,
    tiling_heights,
    triangles_across,
    type_partner,
)
from plane_reference import rhombus_type
from tiling_reference import collared_assignment, decompose, rconfig_of_assignment, triangle_edges


def _translate_rhombus(r, d):
    return frozenset(frozenset((p[0] + d[0], p[1] + d[1]) for p in t) for t in r)


def keyed_complement(ix, supp_verts, supp_tris, blocked):
    """The components of the window off a contour, as ``components`` of keys:
    the window triangles outside ``supp_tris`` in ascending id order, joined
    through vertices off the support (keys < 0) and across sides between two
    support vertices that are not in ``blocked`` (any other side joins what an
    end's key joins).  Returns {least triangle: ascending triangles}, in
    ascending key order."""
    corners, sides = ix.corners, ix.sides
    outside = [t for t in sorted(ix.tri) if t not in supp_tris]

    def keys(t):
        off = [v for v in corners[t] if v not in supp_verts]
        return [-1 - v for v in off] + [e for e, w in zip(sides[t], reversed(corners[t]))   # w: opposite e
                                        if e not in blocked and (not off or off == [w])]

    groups = {}
    for members in components(map(keys, outside)):
        tris = [outside[i] for i in members]
        groups[min(tris)] = tris
    return groups


def rhombus_remove(tiling, contour_index=0, *, coeffs):
    """``dobrushin_remove`` as rhombus surgery: translate each interior's
    rhombi by n * (1,1), collect collisions, fill the gaps with type-level0
    rhombi and keep every rhombus the fill made (it may stick out of the
    window)."""
    assign = collared_assignment(tiling)
    window = frozenset(assign)
    deco = decompose(rconfig_of_assignment(assign))
    if not deco.contours:
        raise ValueError("configuration has no contours to remove")
    if not (0 <= contour_index < len(deco.contours)):
        raise ValueError("contour index out of range")
    target = deco.contours[contour_index]
    f_before = sorted(f_energy(c, coeffs) for c in deco.contours)

    supp_tris = {t for r in target.rhombi for t in r}
    supp_verts = set(target.support_vertices)

    # complement components: triangles joined across edges that are not the
    # target's delta/omega lines and through vertices outside its support
    # (edge keys are frozensets, vertex keys tuples: they never collide);
    # the components come in order of their least triangles
    blocked = target.delta_edges | target.omega_edges
    outside = [t for t in sorted(window, key=sorted) if t not in supp_tris]
    groups = {}
    for members in components(
        [e for e in triangle_edges(t) if e not in blocked] + [p for p in t if p not in supp_verts]
        for t in outside
    ):
        tris = [outside[i] for i in members]
        groups[min(tris, key=lambda x: sorted(x))] = set(tris)

    # exterior = component containing a window-boundary triangle
    boundary_tris = {t for t in window if any(u not in window for u in triangles_across(t))}
    exterior_key = None
    for key, tris in groups.items():
        if tris & boundary_tris:
            exterior_key = key
            break
    if exterior_key is None:
        raise ValueError("could not identify the exterior component")

    new_assign: dict = {}
    for t in groups[exterior_key]:
        new_assign[t] = assign[t]

    other_supports = [
        (j, set(c.support_vertices))
        for j, c in enumerate(deco.contours)
        if j != contour_index
    ]

    # heights of the window: the tiling's, and the staircase in the collar
    heights = tiling_heights(tiling)

    def adjacent_base_level(tris) -> int:
        """The level (middle corner height) of the rhombi next to the contour."""
        levels = set()
        for t in tris:
            if set(t) & supp_verts:
                hs = sorted(heights.get(p, stair_height(p)) for p in rhombus_corners(assign[t]))
                levels.add(hs[1])
        if len(levels) != 1:
            raise DobrushinViolation(
                "component has an ambiguous adjacent base level", dump={"levels": levels}
            )
        return levels.pop()

    # the gap is refilled with the base of the exterior; each interior is
    # translated by S^n, n its base level minus the exterior's, so its base
    # lands on the exterior's level (S lowers levels by one)
    level0 = adjacent_base_level(groups[exterior_key])
    shifts = {}
    interiors = []
    conflicts = []
    for key, tris in groups.items():
        if key == exterior_key:
            continue
        n = adjacent_base_level(tris) - level0
        d = (n, n)
        shifts[key] = n
        tri_verts = {p for t in tris for p in t}
        inside = sum(1 for _, supp in other_supports if supp and supp <= tri_verts)
        interiors.append({"size": len(tris), "shift": n, "contours_inside": inside})
        for t in tris:
            r = _translate_rhombus(assign[t], d)
            for u in r:
                prev = new_assign.get(u)
                if prev is None:
                    new_assign[u] = r
                elif prev != r:
                    if rhombus_type(prev) == rhombus_type(r):
                        raise AssertionError("two distinct same-type rhombi share a triangle")
                    conflicts.append((u, prev, r))
    if conflicts:
        raise DobrushinViolation(
            f"{len(conflicts)} triangle collisions between translated interiors",
            dump={"conflicts": conflicts[:8]},
        )

    # fill the gaps with the exterior's base type (unique per triangle)
    for t in window:
        if t in new_assign:
            continue
        r = frozenset((t, type_partner(t, level0 % 3)))
        for u in r:
            prev = new_assign.get(u)
            if prev is not None and prev != r:
                raise DobrushinViolation(
                    "gap fill collides with translated material",
                    dump={"triangle": u, "kept": prev},
                )
        for u in r:
            new_assign[u] = r

    # the output region is every triangle of the kept rhombi (a fill rhombus
    # may stick out of the window by one triangle)
    out_rhombi = set(new_assign.values())
    out_tris = frozenset(t for r in out_rhombi for t in r)
    new_tiling = Tiling.from_rhombi(Region(out_tris), out_rhombi)

    new_deco = decompose(rconfig_of_assignment(new_assign))
    f_after = sorted(f_energy(c, coeffs) for c in new_deco.contours)
    report = RemovalReport(
        removed_f=f_energy(target, coeffs),
        contours_before=len(deco.contours),
        contours_after=len(new_deco.contours),
        shifts=shifts,
        interiors=interiors,
    )
    if report.contours_after != report.contours_before - 1:
        raise DobrushinViolation(
            "contour count did not decrease by one",
            dump={"before": report.contours_before, "after": report.contours_after},
        )
    # untouched/translated contours keep their energies
    expect = list(f_before)
    expect.remove(f_energy(target, coeffs))
    if len(expect) != len(f_after) or any(abs(a - b) > 1e-12 for a, b in zip(sorted(expect), f_after)):
        raise DobrushinViolation(
            "energies of remaining contours changed",
            dump={"before": expect, "after": f_after},
        )
    return new_tiling, report
