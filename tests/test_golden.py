"""Golden digests of the connectivity-driven outputs.

The SHA-256 values below were recorded from the union-find implementations
that preceded ``lattice.components``; ``decompositions`` was recorded again,
on the path that lifts each tiling to 3D faces, when ``decompose`` began to
sort its bases by their least rhombus; ``removals`` was recorded again when
``dobrushin_remove`` began to take each interior's shift from the height
function (a level difference) instead of its base type mod 3, which turned
three pocket shifts from +1 into -2 and left every tiling and energy as it was.
``decompositions``, ``removals`` and ``TILING_SVGS`` were recorded again when
every order in the tiling and R-contour layers began to follow triangle ids
instead of frozenset hash and insertion order: contours sort by their sorted
support vertices, overlapping subcontours by their least rhombus, removal
shifts and interiors by their least triangle, and ``rhombus_corners`` (so each
SVG polygon) starts at the shared side's least end.  Each re-recorded record
equals its predecessor up to that reordering (contour indices of removals
renumbered by the new contour order).  ``dobrushin_remove`` now returns a
tiling of its input's region, not of the collared window; each removal record
widens it by the region's R0 collar (``tiling_reference.widened``) before
``to_json``, so the unchanged ``removals`` digest pins that the result plus
the unchanged collar is the window tiling it used to return.  They pin, byte
for byte:

* ``decompose_tiling(...).to_json`` on seeded random R0-closed hexagon tilings
  (bases by their least rhombus, contours by their sorted support vertices,
  with their subcontour lists),
  and ``decompose(...).to_json`` of every Ising contour of seeded bc111 boxes
  with flips next to the interface (non-minimal, with overlapping subcontours);
* every ``dobrushin_remove`` on those tilings (new tiling JSON widened by the
  collar, energies, contour counts, shifts and interiors in order of their
  least triangles);
* ``extract_contours`` on seeded bc111 boxes with bulk flips (contour order,
  faces, areas and the pinned flag; ``contours`` was recorded again over the
  edge-connectivity records alone before the corner-connectivity option left
  ``extract_contours``);
* ``tiling_svg`` of every tiling of the hexagons of side 2 and 3, in
  ``enumerate_tilings`` order;
* ``faces_svg`` of every Ising contour of seeded bc111 boxes, with flips next
  to the interface (overlap shading, omega edges, lambda links) and in the
  bulk (``FACES_SVGS``, recorded from the ``RConfiguration.from_faces``
  renderer before ``faces_svg`` drew from arrays).

Any change to component membership or to the order of groups shows up here.
"""

import hashlib
import json

import numpy as np

import tiling_reference as ref
from fklab.classical import ModelCoefficients, extract_contours
from fklab.lattice import SpinConfiguration, Volume
from fklab.rcontour import (
    DobrushinViolation, decompose, decompose_tiling, dobrushin_remove, geometric_class,
)
from fklab.svgout import faces_svg, tiling_svg
from fklab.tiling import enumerate_tilings, hexagon_region, r0_closure, random_tiling

CO = ModelCoefficients(U=8.0)

GOLDEN = {
    "decompositions": "0281ed8170214c08b720c0b893d076477d3fc6af09bce8d0c3c88e4da06e9b63",
    "removals": "e7150d29b73a2fe04e7d5055a53636c06fa03863f1b105bf5a9147461cf68021",
    "contours": "7c1d2959e173b7f34a70e6043d39da2e4fbea79433bb39682e4be58b64cb2e6e",
}

TILING_SVGS = "f836c37e21d5344331fb0a5804af5d7b92fe7ed28ef7fa09f8ba333b70c49876"
FACES_SVGS = "43c3ce37597ea04d93f0421e22e0974e01165e48d55d9a7184b33fb25612d25d"


def _digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _tilings():
    for side, seeds, flips in ((3, range(10), 15), (4, range(6), 25), (5, range(2), 30)):
        region = r0_closure(hexagon_region(side).triangles)
        for seed in seeds:
            yield side, seed, random_tiling(region, flips + seed, seed=100 * side + seed)


def _tiling_records():
    decos, removals = [], []
    for side, seed, tiling in _tilings():
        deco = decompose_tiling(tiling)
        decos.append({"side": side, "seed": seed, "deco": deco.to_json(CO)})
        for idx in range(len(deco.contours)):
            try:
                new_t, rep = dobrushin_remove(tiling, idx, coeffs=CO)
            except DobrushinViolation as exc:
                removals.append({"side": side, "seed": seed, "idx": idx, "violation": str(exc)})
                continue
            removals.append({
                "side": side, "seed": seed, "idx": idx,
                "tiling": ref.widened(new_t).to_json(),
                "removed_f": rep.removed_f,
                "before": rep.contours_before,
                "after": rep.contours_after,
                "shifts": [[sorted(k), n] for k, n in rep.shifts.items()],
                "interiors": rep.interiors,
            })
    return decos, removals


def _flipped_bc111(seed, near_interface):
    """A 7^3 bc111 ground state with seeded flips, in the bulk or next to the interface."""
    vol = Volume(dims=(7, 7, 7), shell=2)
    ground = SpinConfiguration.from_boundary(vol, "bc111")
    sites = list(vol.sites())
    if near_interface:
        sites = [s for s in sites if abs(sum(s) + 1) <= 2]
        count = 6 + 3 * seed
    else:
        count = 40 + 20 * seed
    rng = np.random.default_rng(seed)
    spins = ground.spins.copy()
    for k in rng.choice(len(sites), size=count, replace=False):
        spins[vol.index(sites[k])] *= -1
    return ground.with_spins(spins)


def _interface_records():
    out = []
    for seed in range(6):
        for i, c in enumerate(extract_contours(_flipped_bc111(seed, True))):
            out.append({"seed": seed, "contour": i, "deco": decompose(c.faces).to_json(CO)})
    return out


def _contour_records():
    out = []
    for seed in range(3):
        out.append({
            "seed": seed,
            "contours": [
                {"faces": sorted([list(k), mu] for k, mu in c.faces),
                 "area": c.area, "pinned": c.pinned}
                for c in extract_contours(_flipped_bc111(seed, False))
            ],
        })
    return out


def test_connectivity_outputs_match_golden_digests():
    decos, removals = _tiling_records()
    assert len(removals) >= 20
    got = {
        "decompositions": _digest(decos + _interface_records()),
        "removals": _digest(removals),
        "contours": _digest(_contour_records()),
    }
    assert got == GOLDEN


def test_every_overlapping_interface_contour_has_a_geometric_class():
    """Each R-contour with overlapping parts in the near-interface face sets
    gets its class (supports up to 76 triangles): every r_ov lies between
    the rhombi that the support's triangles need at least and a_ov."""
    classes = 0
    for seed in range(6):
        for c in extract_contours(_flipped_bc111(seed, True)):
            for contour in decompose(c.faces).contours:
                if not contour.overlapping:
                    continue
                gc = geometric_class(contour)
                a_ov = {ov.support: ov.a_ov for ov in contour.overlapping}
                for support, r in zip(gc.overlapping_supports, gc.r_ov):
                    assert (len(support) + 1) // 2 <= r <= a_ov[support]
                classes += 1
    assert classes == 19


def test_tiling_svgs_match_golden_digest():
    h = hashlib.sha256()
    count = 0
    for side in (2, 3):
        for tiling in enumerate_tilings(hexagon_region(side)):
            h.update(tiling_svg(tiling).encode())
            count += 1
    assert count == 20 + 980
    assert h.hexdigest() == TILING_SVGS


def test_faces_svgs_match_golden_digest():
    h = hashlib.sha256(faces_svg([]).encode())
    count = 0
    for seed in range(6):
        for near_interface in (True, False):
            for c in extract_contours(_flipped_bc111(seed, near_interface)):
                svg = faces_svg(c.faces)
                h.update(svg.encode())
                count += 1
    assert count == 44
    assert h.hexdigest() == FACES_SVGS
