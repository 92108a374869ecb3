"""Decomposition of rhombus configurations into bases and R-contours, contour
energies, geometric equivalence classes, and the generalized Dobrushin removal
transformation.

A base is a maximal connected set of good pairs (all rhombi of one type); the
R-contours are the connected components of everything else: delta/omega edges,
lambda links and rhombi that belong to no good pair.  Connectivity of contour
material is through shared plane vertices (contours are closed complexes).

A tiling (a minimal interface) is decomposed from its triangle -> rhombus map
in an R0 collar, through ``RConfiguration.from_assignment``, with no lift to
3D faces; any other face set goes through ``RConfiguration.from_faces``.

A Dobrushin removal is a height edit: the exterior of the removed contour keeps
its heights, each interior moves by S^n (plane step n * (1,1), heights down by
n) with n its base level minus the exterior's, the gap takes the staircase
moved by S^-L0 (L0 the exterior's level, so the moved staircase sits at that
level), and ``tiling_from_heights`` assembles the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classical import ModelCoefficients
from .lattice import CapExceeded, components
from .tiling import (
    PlaneVertex,
    RConfiguration,
    Region,
    Rhombus,
    Tiling,
    r0_rhombus,
    rhombus_corners,
    rhombus_of,
    rhombus_sides,
    rhombus_type,
    stair_height,
    tiling_from_heights,
    tiling_heights,
    triangle_edges,
    triangles_across,
)

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
        vs = set()
        for r in self.rhombi:
            for t in r:
                vs |= set(t)
        for e in self.delta_edges | self.omega_edges:
            vs |= set(e)
        return frozenset(vs)

    @property
    def support_triangles(self) -> frozenset:
        return frozenset(t for r in self.rhombi for t in r)

    @property
    def n_sites(self) -> int:
        return len(self.support_vertices)

    @property
    def is_standard(self) -> bool:
        return not self.overlapping

    def site_bound(self) -> int:
        """Right-hand side of the site-count bound for this contour."""
        s = 0
        for ov in self.overlapping:
            s += 3 * ov.a_ov + (ov.delta + 1) + (ov.lam + 1) + (ov.omega + 1)
        for d in self.standard_delta:
            s += d + 1
        return s


@dataclass
class Decomposition:
    bases: list
    contours: list
    rconfig: RConfiguration

    def boundary_base(self) -> Base:
        for b in self.bases:
            if b.boundary:
                return b
        raise ValueError("no boundary base identified")

    def to_json(self, coeffs: ModelCoefficients) -> dict:
        return {
            "bases": [
                {"type": b.type, "size": len(b.rhombi), "boundary": b.boundary}
                for b in self.bases
            ],
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


def _rhombus_vertices(r: Rhombus) -> set:
    return {p for t in r for p in t}


def _rhombus_key(r: Rhombus) -> tuple:
    return tuple(sorted(tuple(sorted(t)) for t in r))


def _link_vertices(pt) -> tuple:
    """The lattice vertices a lambda link is tied to.

    The link joins the projected centres of two stacked faces, which are
    interior points of their rhombi; it is tied to the nearest lattice
    vertices of its doubled-coordinate key, since the structures it joins
    already share vertices in every configuration arising from an interface.
    """
    a, b = pt
    return ((a // 2, b // 2), ((a + 1) // 2, (b + 1) // 2))


def decompose(faces_or_rc) -> Decomposition:
    """Split a rhombus configuration into bases and R-contours.

    Accepts a face set (projected via RConfiguration.from_faces) or a
    prebuilt RConfiguration.  Good pairs require both rhombi simple and
    non-overlapping.  Bases are listed in order of their least rhombus
    (sorted vertex lists), so the order does not depend on how the
    configuration was built.  The first base of largest extent is flagged as
    the boundary-connected one (type 0 under standard boundary conditions).
    """
    if isinstance(faces_or_rc, RConfiguration):
        rc = faces_or_rc
    else:
        rc = RConfiguration.from_faces(faces_or_rc)

    overlapping_rhombi = rc.overlapping_rhombi
    simple = {r for r, m in rc.rhombus_multiplicity.items() if m == 1 and r not in overlapping_rhombi}

    # good pairs: good-classified plane edges whose two flanking simple rhombi exist
    side_index: dict = {}
    for r in simple:
        for e in rhombus_sides(r):
            side_index.setdefault(e, []).append(r)
    paired: dict = {}  # rhombus -> its good-pair sides, in order of first appearance
    for e, count in rc.good_edges.items():
        rs = side_index.get(e, [])
        if len(rs) == 2:
            for r in rs:
                paired.setdefault(r, []).append(e)
    paired_rhombi = list(paired)
    bases = []
    for members in components(paired.values()):
        rhombi = frozenset(paired_rhombi[i] for i in members)
        types = {rhombus_type(r) for r in rhombi}
        assert len(types) == 1, "a base must have a single type"
        bases.append(Base(rhombi=rhombi, type=types.pop()))
    bases.sort(key=lambda b: min(_rhombus_key(r) for r in b.rhombi))
    if bases:
        big = max(range(len(bases)), key=lambda i: len(bases[i].rhombi))
        bases[big] = Base(rhombi=bases[big].rhombi, type=bases[big].type, boundary=True)

    # contour material: unbased rhombi, delta/omega edges, lambda links, each
    # tagged and keyed by the plane vertices it touches
    material = (
        [("r", r, _rhombus_vertices(r)) for r in rc.rhombus_multiplicity if r not in paired]
        + [("d", e, e) for e in rc.delta_edges]
        + [("o", e, e) for e in rc.omega_edges]
        + [("l", link, _link_vertices(link[0])) for link in rc.lambda_links]
    )
    contours = []
    for members in components(m[2] for m in material):
        parts = {tag: [] for tag in "rdol"}
        for i in members:
            parts[material[i][0]].append(material[i][1])
        contour = RContour(
            rhombi=frozenset(parts["r"]),
            delta_edges=frozenset(parts["d"]),
            omega_edges=frozenset(parts["o"]),
            lambda_links=frozenset(parts["l"]),
        )
        _split_subcontours(contour, rc)
        contours.append(contour)
    contours.sort(key=lambda c: sorted(map(sorted, c.support_vertices)) if c.support_vertices else [])
    return Decomposition(bases=bases, contours=contours, rconfig=rc)


def _split_subcontours(contour: RContour, rc: RConfiguration) -> None:
    """Group a contour's material into overlapping and standard subcontours."""
    ov_rhombi = [r for r in contour.rhombi if r in rc.overlapping_rhombi]
    comps = [
        frozenset(ov_rhombi[i] for i in members)
        for members in components(_rhombus_vertices(r) for r in ov_rhombi)
    ]
    subcontours = []
    claimed_delta = set()
    for rhombi in comps:
        verts = {p for r in rhombi for t in r for p in t}
        overlap = {}
        for r in rhombi:
            for t in r:
                o = rc.overlap_number(t)
                if o:
                    overlap[t] = o
        delta = sum(
            rc.delta_edges[e] for e in contour.delta_edges if set(e) & verts
        )
        for e in contour.delta_edges:
            if set(e) & verts:
                claimed_delta.add(e)
        omega = sum(rc.omega_edges[e] for e in contour.omega_edges if set(e) & verts)
        lam = sum(
            rc.lambda_links[link] for link in contour.lambda_links
            if verts.intersection(_link_vertices(link[0]))
        )
        subcontours.append(
            OverlappingSubcontour(rhombi=rhombi, overlap=overlap, delta=delta, omega=omega, lam=lam)
        )
    contour.overlapping = subcontours

    # standard subcontours: connected components of the unclaimed delta edges
    unclaimed = [e for e in contour.delta_edges if e not in claimed_delta]
    standard = [
        sum(rc.delta_edges[unclaimed[i]] for i in members)
        for members in components(unclaimed)
    ]
    contour.standard_delta = sorted(standard, reverse=True)


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

    Exact branch-and-bound over the first uncovered triangle; rhombi may
    overlap (covers are by whole rhombi).  Desk scale: at most 12 rhombi.
    """
    if len(support) > 24:
        raise CapExceeded("minimal cover capped at supports of 12 rhombi")
    tris = sorted(support, key=lambda t: sorted(t))
    candidates: dict = {}
    for t in tris:
        cand = [rhombus_of(t, u) for u in triangles_across(t) if u in support]
        if not cand:
            raise ValueError("support triangle not coverable by a rhombus inside support")
        candidates[t] = cand

    best = [len(tris)]  # never need more rhombi than triangles

    def search(uncovered: frozenset, used: int):
        if used >= best[0]:
            return
        if not uncovered:
            best[0] = used
            return
        t = min(uncovered, key=lambda x: sorted(x))
        for r in candidates[t]:
            search(uncovered - set(r), used + 1)

    search(frozenset(tris), 0)
    return best[0]


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
    it is surfaced loudly and treated as a test failure, never as a
    recoverable state.
    """

    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump or {}


@dataclass
class RemovalReport:
    """What one Dobrushin removal did.

    ``shifts`` maps each interior (keyed by its least triangle) to its shift
    n: the level of its adjacent base minus the level of the exterior's base.
    A shift is a level difference, so it can be any integer (a pocket two
    levels below the exterior moves by S^-2); ``interiors`` lists the same
    shifts with each interior's size and the number of contours inside it.
    """

    removed_f: float
    contours_before: int
    contours_after: int
    shifts: dict
    interiors: list = field(default_factory=list)  # {"size", "shift", "contours_inside"}

    @property
    def nested(self) -> bool:
        return any(info["contours_inside"] > 0 for info in self.interiors)


#: Width of the R0 collar a tiling is embedded in before it is decomposed.
_COLLAR = 2


def _collared_assignment(tiling: Tiling, collar: int) -> dict:
    """triangle -> rhombus map of the tiling extended by an R0 collar."""
    assign = tiling.assignment()
    frontier = set(tiling.region.triangles)
    for _ in range(2 * collar + 2):
        frontier = {u for t in frontier for u in triangles_across(t) if u not in assign}
        for t in frontier:
            r = r0_rhombus(t)
            for u in r:
                assign.setdefault(u, r)
    return assign


def decompose_tiling(tiling: Tiling) -> Decomposition:
    """Decompose a minimal configuration, embedded in an R0 collar of width
    ``_COLLAR`` so that boundary edges classify correctly."""
    return decompose(RConfiguration.from_assignment(_collared_assignment(tiling, _COLLAR)))


def dobrushin_remove(tiling: Tiling, contour_index: int = 0, *, coeffs: ModelCoefficients):
    """Remove one R-contour from a minimal configuration by editing its heights.

    The contour's complement splits into the exterior and interior components.
    The new tiling of the collared window is the one of a height function:
    the exterior keeps its heights; each interior moves by S^n, its vertices
    by the plane step n * (1,1) and its heights down by n, where n is the
    level of its adjacent base minus the level of the exterior's (the level
    of a base is the middle corner height of its rhombi); every other vertex
    gets the staircase moved by S^-L0, L0 the exterior's level.  Returns
    (new_tiling, report).

    Raises DobrushinViolation if two pieces put different heights on one
    vertex or the heights do not make a tiling of the window, which would
    falsify the non-intersection property.
    """
    deco = decompose_tiling(tiling)
    window = Region(frozenset(deco.rconfig.coverage))
    assign = {t: r for r in deco.rconfig.rhombus_multiplicity for t in r}
    if not deco.contours:
        raise ValueError("configuration has no contours to remove")
    if not (0 <= contour_index < len(deco.contours)):
        raise ValueError("contour index out of range")
    target = deco.contours[contour_index]
    f_before = sorted(f_energy(c, coeffs) for c in deco.contours)

    supp_tris = set(target.support_triangles)
    supp_verts = set(target.support_vertices)

    # complement components: triangles joined across edges that are not the
    # target's delta/omega lines and through vertices outside its support
    # (edge keys are frozensets, vertex keys tuples: they never collide);
    # each is keyed by its least triangle
    blocked = target.delta_edges | target.omega_edges
    outside = [t for t in window.triangles if t not in supp_tris]
    groups = {}
    for members in components(
        [e for e in triangle_edges(t) if e not in blocked] + [p for p in t if p not in supp_verts]
        for t in outside
    ):
        tris = [outside[i] for i in members]
        groups[min(tris, key=lambda x: sorted(x))] = tris

    # the exterior holds the window's least triangle, which has a side on the
    # window boundary
    exterior_key = min(window.triangles, key=lambda x: sorted(x))
    if exterior_key not in groups:
        raise ValueError("could not identify the exterior component")

    # heights of the window: the tiling's, and the staircase in the collar
    heights = tiling_heights(tiling)

    def height(p: PlaneVertex) -> int:
        return heights.get(p, stair_height(p))

    def adjacent_base_level(tris) -> int:
        """The level (middle corner height) of the rhombi next to the contour."""
        levels = {sorted(map(height, rhombus_corners(assign[t])))[1]
                  for t in tris if not supp_verts.isdisjoint(t)}
        if len(levels) != 1:
            raise DobrushinViolation(
                "component has an ambiguous adjacent base level", dump={"levels": levels}
            )
        return levels.pop()

    level0 = adjacent_base_level(groups[exterior_key])
    new_h = {p: height(p) for t in groups[exterior_key] for p in t}
    other_supports = [set(c.support_vertices) for j, c in enumerate(deco.contours)
                      if j != contour_index]
    shifts = {}
    interiors = []
    clashes = []
    for key, tris in groups.items():
        if key == exterior_key:
            continue
        n = adjacent_base_level(tris) - level0
        shifts[key] = n
        tri_verts = {p for t in tris for p in t}
        inside = sum(1 for supp in other_supports if supp and supp <= tri_verts)
        interiors.append({"size": len(tris), "shift": n, "contours_inside": inside})
        for p in tri_verts:
            q, hq = (p[0] + n, p[1] + n), height(p) - n
            if new_h.setdefault(q, hq) != hq:
                clashes.append(q)
    if clashes:
        raise DobrushinViolation(
            f"{len(clashes)} vertices get two heights from translated pieces",
            dump={"vertices": sorted(clashes)[:8]},
        )

    # the gap: the staircase moved by S^-level0
    def new_height(p: PlaneVertex) -> int:
        return new_h.get(p, stair_height((p[0] + level0, p[1] + level0)) + level0)

    try:
        new_tiling = tiling_from_heights(window, new_height)
    except ValueError as exc:  # HeightError, or rhombi that do not cover the window
        raise DobrushinViolation(f"removal does not give a tiling: {exc}") from exc

    new_deco = decompose(RConfiguration.from_assignment(new_tiling.assignment()))
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
