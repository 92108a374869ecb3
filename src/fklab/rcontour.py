"""Decomposition of rhombus configurations into bases and R-contours, contour
energies, geometric equivalence classes, and the generalized Dobrushin removal
transformation.

A base is a maximal connected set of good pairs (all rhombi of one type); the
R-contours are the connected components of everything else: delta/omega edges,
lambda links and rhombi that belong to no good pair.  Connectivity of contour
material is through shared plane vertices (contours are closed complexes).

The grouping runs on integer triangle and vertex ids; bases and contours
hold frozensets.  A tiling (a minimal interface) enters as its partner table
in the R0 collar of ``Region.index``, its edges from ``tiling_edges``; any
other face set as the arrays of ``tiling._project_faces``, on the
projection's own triangle ids, its vertices numbered by one ``grid_ids``
call and its good pairs the rhombi of the two faces on each good 3D edge.
A tiling is grouped once: its decomposition is kept while the tiling lives
and shared by ``decompose_tiling`` and ``dobrushin_remove``, and the collar's
rhombi, types and good pairs come from the region's index, so each grouping
walks only the region's triangles.

A Dobrushin removal is a height edit: the exterior of the removed contour keeps
its heights, each interior moves by S^n (plane step n * (1,1), heights down by
n) with n its base level minus the exterior's, the gap takes the staircase
moved by S^-L0 (L0 the exterior's level), and the region's triangles are
paired again: the exterior holds the R0 collar, so the result tiles the region.
"""

from __future__ import annotations

import numbers
import weakref
from dataclasses import dataclass, field

import numpy as np

from .classical import ModelCoefficients, face_arrays, grid_ids
from .lattice import components
from .tiling import (
    GOOD,
    OMEGA,
    Tiling,
    _edge_walk,
    _project_faces,
    heights_by_id,
    pair_by_heights,
    tri_up,
    triangles_across,
)

_DECOMPOSED = weakref.WeakKeyDictionary()   # tiling -> _collared(tiling), dies with the tiling


@dataclass(frozen=True)
class Base:
    """Maximal connected set of good pairs; all member rhombi share one type."""

    rhombi: frozenset
    type: int
    boundary: bool = False

    def __len__(self):
        return len(self.rhombi)


@dataclass
class OverlappingSubcontour:
    rhombi: frozenset
    overlap: dict            # triangle -> overlap number o(t)
    delta: int = 0
    omega: int = 0
    lam: int = 0

    @property
    def a_ov(self) -> int:
        total = sum(self.overlap.values())
        assert total % 2 == 0
        return total // 2

    @property
    def support(self) -> frozenset:
        return frozenset(t for r in self.rhombi for t in r)


@dataclass
class RContour:
    """A maximal connected component of the complement of the bases."""

    rhombi: frozenset                      # non-based rhombi of the contour
    delta_edges: frozenset                 # plane edges with striped pattern
    omega_edges: frozenset
    lambda_links: frozenset                # ((plane point key, axis), multiplicity)
    overlapping: list = field(default_factory=list)
    standard_delta: list = field(default_factory=list)  # per standard subcontour

    @property
    def support_vertices(self) -> frozenset:
        rhombus_vertices = {p for r in self.rhombi for t in r for p in t}
        return frozenset(rhombus_vertices.union(*self.delta_edges, *self.omega_edges))


@dataclass
class Decomposition:
    """Bases and contours of a configuration.  The decomposition of a tiling
    is computed once per tiling and shared, so it is read-only, as
    ``Tiling.pairs`` is."""

    bases: list
    contours: list

    def to_json(self, coeffs: ModelCoefficients) -> dict:
        return {
            "bases": [{"type": b.type, "size": len(b.rhombi), "boundary": b.boundary} for b in self.bases],
            "contours": [
                {
                    "std_delta": list(c.standard_delta),
                    "a_ov": [ov.a_ov for ov in c.overlapping],
                    "omega": [ov.omega for ov in c.overlapping],
                    "lambda": [ov.lam for ov in c.overlapping],
                    "F": f_energy(c, coeffs),
                }
                for c in self.contours
            ],
        }


def f_energy(contour: RContour, coeffs: ModelCoefficients) -> float:
    """Excitation energy of an R-contour in the fourth-order truncation:

        F = J2 * sum a_ov + K2 * (delta lines, standard and overlapping)
            + U^-3 * omega lines + (1/4) U^-3 * lambda links.
    """
    U = coeffs.U
    e = 0.0
    for ov in contour.overlapping:
        e += coeffs.j2 * ov.a_ov
        e += coeffs.k2 * ov.delta
        e += (1.0 / U**3) * ov.omega
        e += (1.0 / (4.0 * U**3)) * ov.lam
    for d in contour.standard_delta:
        e += coeffs.k2 * d
    return e


def _group(corners, rhombi, kinds, objs, pairs, lines, over=frozenset(), cover=None):
    """The one base and contour grouping, on integer ids whose order is that
    of sorted vertices and sorted vertex lists.

    ``corners`` maps triangle ids to vertex ids.  ``rhombi`` are triangle-id
    pairs (t, u) with t < u, ``kinds`` their types, ``objs`` what the boundary
    fields hold for them, ``pairs`` the good pairs (rhombus indices) and
    ``lines`` the delta edges, omega edges and lambda links in that order, as
    (tag, object, count, vertex ids, side id).  ``over`` holds the overlapping
    rhombi, ``cover`` the coverage of overlapping triangles, by triangle.
    Returns the decomposition and each contour's vertex, triangle and side ids.
    """
    paired: dict = {}   # rhombus -> its good pairs
    for i, pair in enumerate(pairs):
        for k in pair:
            paired.setdefault(k, []).append(i)
    keys, bases = list(paired), []
    for members in components(paired.values()):
        comp = [keys[i] for i in members]
        types = {kinds[k] for k in comp}
        assert len(types) == 1, "a base must have a single type"
        base = Base(rhombi=frozenset(objs[k] for k in comp), type=types.pop())
        bases.append((min(min(rhombi[k]) for k in comp), base))
    bases = [b for _, b in sorted(bases, key=lambda kb: kb[0])]
    if bases:
        big = max(range(len(bases)), key=lambda i: len(bases[i].rhombi))
        bases[big] = Base(rhombi=bases[big].rhombi, type=bases[big].type, boundary=True)

    # contour material: unbased rhombi, then the lines, joined through shared vertices
    mat = [("r", k, 1, corners[t] + corners[u], None)
           for k, (t, u) in enumerate(rhombi) if k not in paired] + lines
    contours, ids = [], []
    for members in components(m[3] for m in mat):
        own = [mat[i] for i in members]
        rks = [m[1] for m in own if m[0] == "r"]
        contour = RContour(frozenset(objs[k] for k in rks),   # then delta, omega, lambda
                           *(frozenset(m[1] for m in own if m[0] == tag) for tag in "dol"))
        claimed = set()
        if over:   # overlapping subcontours, by their least rhombus
            ov = sorted((k for k in rks if k in over), key=rhombi.__getitem__)
            for sub in components(corners[rhombi[k][0]] + corners[rhombi[k][1]] for k in ov):
                vs = {v for i in sub for t in rhombi[ov[i]] for v in corners[t]}
                near = [m for m in own if m[0] != "r" and vs.intersection(m[3])]
                claimed.update(m[1] for m in near if m[0] == "d")
                rh = frozenset(objs[ov[i]] for i in sub)
                contour.overlapping.append(OverlappingSubcontour(
                    rh, {t: cover[t] - 1 for r in rh for t in r if t in cover},
                    *(sum(m[2] for m in near if m[0] == tag) for tag in "dol")))
        free = [m for m in own if m[0] == "d" and m[1] not in claimed]
        contour.standard_delta = sorted(
            (sum(free[i][2] for i in sub) for sub in components(m[3] for m in free)), reverse=True)
        contours.append(contour)
        ids.append(({v for m in own if m[0] != "l" for v in m[3]},
                    {t for k in rks for t in rhombi[k]}, {m[4] for m in own if m[0] in "do"}))
    # contours sort by their sorted support vertices; supports are disjoint
    order = sorted(range(len(contours)), key=lambda i: sorted(ids[i][0]))
    return Decomposition(bases=bases, contours=[contours[i] for i in order]), [ids[i] for i in order]


def decompose(faces) -> Decomposition:
    """Split the rhombus configuration of a face set into bases and R-contours.

    The faces are projected by ``tiling._project_faces`` and grouped on the
    projection's triangle ids, with vertices numbered by ``grid_ids``.  A
    good pair is the two rhombi of the faces on a good 3D edge, both simple
    and non-overlapping.  Bases are listed by their least rhombus (sorted
    vertex lists); the first of largest extent is flagged as the
    boundary-connected one (type 0 under standard boundary conditions).
    Contours are listed by ``sorted(support_vertices)``, and the overlapping
    subcontours of a contour by their least rhombus.
    """
    (corners, types, tris, cover, _), (ends, kind, count, good), (point, axis, links) = \
        _project_faces(*face_arrays(frozenset(faces)))
    # a lambda link joins the lattice vertices nearest to its doubled point
    # (the structures it links already share them in every interface)
    tied = np.stack([point // 2, (point + 1) // 2], axis=1)
    # one numbering of all vertices, two a row: sorted ids are sorted vertices
    vid = grid_ids(np.concatenate([x.reshape(-1, 2) for x in (corners, ends, tied)])).reshape(-1, 2)
    cv, ev, lv = np.split(vid, [2 * len(corners), 2 * len(corners) + len(ends)])
    cv = cv.reshape(-1, 4)[:, [0, 1, 2, 0, 3, 2]].reshape(-1, 3)   # {p, w1, q} and {p, w2, q}
    halves = [(frozenset((p, w1, q)), frozenset((p, w2, q)))
              for p, w1, q, w2 in (map(tuple, c) for c in corners.tolist())]
    over = set((cover > 1).any(axis=1).nonzero()[0].tolist())
    pairs = [(a, b) for a, b in good.tolist() if a not in over and b not in over]
    lines = [("do"[c == OMEGA], frozenset(map(tuple, e)), n, v, None)
             for e, c, n, v in zip(ends.tolist(), kind.tolist(), count.tolist(), ev.tolist()) if c != GOOD]
    lines += [("l", (tuple(p), m), n, v, None)
              for p, m, n, v in zip(point.tolist(), axis.tolist(), links.tolist(), lv.tolist())]
    cover = {t: c for pair, cs in zip(halves, cover.tolist()) for t, c in zip(pair, cs) if c > 1}
    return _group(dict(zip(tris.ravel().tolist(), cv.tolist())), tris.tolist(), types.tolist(),
                  list(map(frozenset, halves)), pairs, lines, over, cover)[0]


def _collared(tiling: Tiling):
    """``_group`` of a tiling in the R0 collar of its region's index: its
    rhombi, then the collar's, with good pairs and delta edges in the order of
    ``tiling_edges`` over both.  The walk covers the region's triangles; the
    collar's share (all type 0, its own sides all good) is the index's.  The
    result is kept per tiling, in ``_DECOMPOSED``."""
    got = _DECOMPOSED.get(tiling)
    if got is None:
        ix = tiling.region.index
        if ix.collar is None:
            raise ValueError("decomposing a tiling needs an R0-closed region")
        pairs, n = tiling.pairs, len(tiling.pairs)
        kind = dict(ix.collar_kind)
        for t, u in pairs:
            kind[t] = kind[u] = ix.rtype(t, u)
        good, delta = _edge_walk(ix, tiling.partner, [t for pair in pairs for t in pair], kind)
        rhombi = pairs + ix.collar
        rk = {t: k for k, pair in enumerate(rhombi) for t in pair}
        good = [(rk[t], rk[u]) for t, u in good] + [(n + j, n + k) for j, k in ix.collar_good]
        lines = [("d", frozenset(ix.xy[v] for v in ends), 1, ends, e) for e in delta for ends in [ix.ends(e)]]
        got = _DECOMPOSED[tiling] = _group(ix.corners, rhombi, [kind[t] for t, _ in rhombi],
                                           tiling.rhombi + ix.collar_rhombi, good, lines)
    return got


def decompose_tiling(tiling: Tiling) -> Decomposition:
    """Decompose a minimal configuration, embedded in the R0 collar of
    ``region.index`` so that boundary edges classify correctly.

    Computed once per tiling (``dobrushin_remove`` shares it, and its check
    of the result leaves the new tiling's decomposition ready); the result is
    shared and read-only, as ``Tiling.pairs`` is."""
    return _collared(tiling)[0]


# ---------------------------------------------------------------------------
# Geometric contours
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricContour:
    """Equivalence class of R-contours: standard parts verbatim, overlapping
    parts by support only, each with its minimal rhombus cover size r_ov."""

    standard_delta: tuple
    overlapping_supports: tuple    # of frozensets of triangles
    r_ov: tuple


def minimal_rhombus_cover(support: frozenset) -> int:
    """Minimum number of rhombi inside ``support`` whose union covers it.

    Rhombi may overlap (covers are by whole rhombi), so a cover is an edge
    cover of the graph of support triangles joined across shared sides, and
    its least size is |support| minus a maximum matching (Gallai).  The
    graph is bipartite (up against down triangles), and the matching grows
    by a breadth-first augmenting path from each up triangle (König).
    """
    across = {}
    for t in support:
        across[t] = [u for u in triangles_across(t) if u in support]
        if not across[t]:
            raise ValueError("support triangle not coverable by a rhombus inside support")
    mate: dict = {}   # matched triangle -> its partner, both ways
    for root in across:
        if root != tri_up(*min(root)):
            continue
        came = {}   # down triangle -> the up triangle its path reached it from
        queue = [root]
        for t in queue:   # the queue grows while it is walked
            free = next((u for u in across[t] if u not in came and u not in mate), None)
            if free is not None:   # flip the path root ... t, free
                came[free] = t
                while free is not None:
                    t = came[free]
                    mate[free], mate[t], free = t, free, mate.get(t)
                break
            for u in across[t]:
                if u not in came:
                    came[u] = t
                    queue.append(mate[u])
    return len(across) - len(mate) // 2


def geometric_class(contour: RContour) -> GeometricContour:
    """The support-equivalence class of a contour with exact r_ov values."""
    supports = tuple(sorted((ov.support for ov in contour.overlapping),
                            key=lambda s: sorted(map(sorted, s))))
    r_ov = tuple(minimal_rhombus_cover(s) for s in supports)
    for ov, r in zip(sorted(contour.overlapping, key=lambda o: sorted(map(sorted, o.support))), r_ov):
        assert ov.a_ov >= r, "a_ov >= r_ov must hold for interface projections"
    return GeometricContour(
        standard_delta=tuple(contour.standard_delta),
        overlapping_supports=supports,
        r_ov=r_ov,
    )


# ---------------------------------------------------------------------------
# Dobrushin removal on minimal configurations
# ---------------------------------------------------------------------------


class DobrushinViolation(RuntimeError):
    """Raised when a removal does not give a tiling: translated pieces put
    different heights on one vertex, or the edited heights are not a tiling.
    This would falsify the non-intersection property of translated interiors;
    it is a test failure, never a recoverable state.
    """

    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump or {}


@dataclass
class RemovalReport:
    """What one Dobrushin removal did.

    ``shifts`` maps each interior (keyed by its least triangle) to its shift
    n, the level of its adjacent base minus the exterior's: any integer (a
    pocket two levels below the exterior moves by S^-2).  ``interiors`` lists
    the shifts with each interior's size and the contours inside it.  Both
    follow the interiors' least triangles in ascending order.
    """

    removed_f: float
    contours_before: int
    contours_after: int
    shifts: dict
    interiors: list = field(default_factory=list)  # {"size", "shift", "contours_inside"}

    @property
    def nested(self) -> bool:
        return any(info["contours_inside"] > 0 for info in self.interiors)


def _complement(ix, supp_tris, blocked) -> dict:
    """The components of the window (the region and its collar) off a
    contour: its triangles outside ``supp_tris``, joined across every side
    that is not in ``blocked`` (the contour's delta/omega side ids).  Returns
    {least triangle: ascending triangles}, in ascending key order.

    Side adjacency alone suffices: every corner of a contour rhombus and both
    ends of each of its lines are support vertices, so the six triangles
    around an off-support vertex inside the window lie outside the support
    and unblocked sides join them around it (the window's outer edge lies in
    the collar, which is all exterior)."""
    across, sides, tri = ix.across, ix.sides, ix.tri
    seen, groups = set(supp_tris), {}
    for t in sorted(tri):   # so each walk starts at its component's least triangle
        if t in seen:
            continue
        seen.add(t)
        comp = [t]
        for x in comp:   # the list grows while it is walked
            for u, e in zip(across[x], sides[x]):
                if u in tri and u not in seen and e not in blocked:
                    seen.add(u)
                    comp.append(u)
        comp.sort()
        groups[t] = comp
    return groups


def dobrushin_remove(tiling: Tiling, contour_index: int = 0, *, coeffs: ModelCoefficients):
    """Remove one R-contour from a minimal configuration by editing its heights.

    The contour's complement in the region and its R0 collar splits into the
    exterior and interior components.  The new tiling, of the same region, is
    the one of a height function: the exterior (which holds the collar) keeps
    its heights; each interior moves by S^n, its vertices by the plane step
    n * (1,1) and its heights down by n, where n is the level of its adjacent
    base minus the level of the exterior's (the level of a base is the middle
    corner height of its rhombi); every other vertex gets the staircase moved
    by S^-L0, L0 the exterior's level.  Returns (new_tiling, report); the work
    runs on the ids of ``region.index``, and the new tiling shares it.

    Raises ValueError if ``contour_index`` is not an integer (a bool is not)
    or names no contour, and DobrushinViolation if two pieces put different
    heights on one vertex or the heights do not make a tiling of the region.
    """
    if isinstance(contour_index, bool) or not isinstance(contour_index, numbers.Integral):
        raise ValueError(f"contour_index must be an integer, got {contour_index!r}")
    ix = tiling.region.index
    deco, ids = _collared(tiling)
    if not deco.contours:
        raise ValueError("configuration has no contours to remove")
    if not (0 <= contour_index < len(deco.contours)):
        raise ValueError("contour index out of range")
    target = deco.contours[contour_index]
    f_before = sorted(f_energy(c, coeffs) for c in deco.contours)
    supp_verts, supp_tris, blocked = ids[contour_index]

    # complement components: the triangles off the target's rhombi, joined
    # across every side that is not one of its delta/omega lines; each is
    # keyed by its least triangle, in that order
    groups = _complement(ix, supp_tris, blocked)
    # the exterior holds the least triangle of the region and its collar,
    # which has a side on their boundary
    exterior = min(ix.tri)
    if exterior not in groups:
        raise ValueError("could not identify the exterior component")

    # heights of the region, and the staircase in the collar
    corners = ix.corners
    h = heights_by_id(ix, tiling.partner)

    def adjacent_base_level(tris) -> int:
        """The level of the rhombi next to the contour: their triangles' middle height."""
        levels = {sorted(h[v] for v in corners[t])[1]
                  for t in tris if not supp_verts.isdisjoint(corners[t])}
        if len(levels) != 1:
            raise DobrushinViolation("component has an ambiguous adjacent base level",
                                     dump={"levels": levels})
        return levels.pop()

    level0 = adjacent_base_level(groups[exterior])
    new_h = {ix.xy[v]: h[v] for t in groups[exterior] for v in corners[t]}
    other_supports = [supp for j, (supp, _, _) in enumerate(ids) if j != contour_index]
    shifts, interiors, clashes = {}, [], []
    for key, tris in groups.items():
        if key == exterior:
            continue
        n = adjacent_base_level(tris) - level0
        shifts[ix.tri[key]] = n
        tri_verts = {v for t in tris for v in corners[t]}
        inside = sum(1 for supp in other_supports if supp and supp <= tri_verts)
        interiors.append({"size": len(tris), "shift": n, "contours_inside": inside})
        for v in tri_verts:
            (a, b), hq = ix.xy[v], h[v] - n
            if new_h.setdefault((a + n, b + n), hq) != hq:
                clashes.append((a + n, b + n))
    if clashes:
        raise DobrushinViolation(
            f"{len(clashes)} vertices get two heights from translated pieces",
            dump={"vertices": sorted(clashes)[:8]},
        )

    # the gap: the staircase moved by S^-level0
    hn = [new_h.get(p, (0, 1, -1)[(c + 2 * level0) % 3] + level0) for p, c in zip(ix.xy, ix.vclass)]
    try:
        new_tiling = Tiling(tiling.region, pair_by_heights(ix, hn))
    except ValueError as exc:  # HeightError, or pairs that are not a tiling of the region
        raise DobrushinViolation(f"removal does not give a tiling: {exc}") from exc

    new_deco, _ = _collared(new_tiling)
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
