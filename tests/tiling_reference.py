"""Search-based triangle adjacency and flip test, kept as the oracle for the
closed forms in ``fklab.tiling``, the 3D lift kept as the oracle for the
tiling edge rule, and the frozenset tiling path kept as the oracle for the
integer triangle index.

These find neighbours by testing vertex subsets against every triangle at a
vertex, order a vertex star by walking shared sides, and test a flip position
by collecting the rhombi that cover the star.

The frozenset path is the one ``fklab`` ran before ``Region.index``:
``random_tiling`` walks heights keyed by vertex tuples and assembles the
tiling triangle by triangle, ``collared_assignment`` extends the triangle ->
rhombus map (``assignment``) by the R0 collar with the frontier loop,
``rconfig_of_assignment`` classifies its edges, and
``decompose``/``decompose_tiling`` group bases and contours on frozensets with
``lattice.components``.  It lists what it returns in the order ``fklab`` does,
by sorted vertex lists (ascending triangle ids): rhombi by their least
triangle, contours by their sorted support vertices and overlapping
subcontours by their least rhombus.

``widened`` extends a tiling by its index's collar into the tiling of the
collared window, the region that the rhombus removal oracle returns a tiling of.
"""

from collections import Counter

import numpy as np

from contour_reference import RConfiguration, rconfiguration_from_faces
from fklab.lattice import components
from fklab.rcontour import Base, Decomposition, OverlappingSubcontour, RContour
from fklab.tiling import (
    ALL_DIRS,
    COLLAR,
    HeightError,
    Region,
    Tiling,
    r0_rhombus,
    rhombus_corners,
    stair_height,
    tiling_to_interface,
    tri_dn,
    DOWN_DIRS,
    UP_DIRS,
    tri_up,
    triangles_across,
)
from plane_reference import rhombus_type


def triangle_edges(t):
    """The sides v0v1, v0v2, v1v2 of ``t`` (corners v0 < v1 < v2)."""
    vs = sorted(t)
    return [frozenset((vs[0], vs[1])), frozenset((vs[0], vs[2])), frozenset((vs[1], vs[2]))]


def rhombus_orientation(r):
    """Orientation index in {0,1,2}: the axis family of the shared edge."""
    t1, t2 = r
    p, q = t1 & t2
    d = (q[0] - p[0], q[1] - p[1])
    if d[0] and not d[1]:
        return 0
    if d[1] and not d[0]:
        return 1
    return 2


def height_increment(u, w):
    """+1 when w - u projects an up-step (+e_mu), -1 for a down-step."""
    d = (w[0] - u[0], w[1] - u[1])
    if d in UP_DIRS:
        return 1
    if d in DOWN_DIRS:
        return -1
    raise ValueError("not a lattice edge")


def search_triangles_at_vertex(p):
    """The six triangles at ``p``, ups first (no cyclic order)."""
    a, b = p
    return [
        tri_up(a, b), tri_up(a - 1, b), tri_up(a - 1, b - 1),
        tri_dn(a, b), tri_dn(a, b - 1), tri_dn(a - 1, b - 1),
    ]


def search_triangles_of_edge(e):
    """The (at most two) elementary triangles having segment ``e`` as a side."""
    es = frozenset(e)
    out = []
    for p in es:
        for t in search_triangles_at_vertex(p):
            if es <= t and t not in out:
                out.append(t)
    return out


def search_triangles_across(t):
    """The three triangles sharing a side with ``t``, in ``triangle_edges`` order."""
    return [u for e in triangle_edges(t) for u in search_triangles_of_edge(tuple(e)) if u != t]


def hexagon_order(tris):
    """Order the six triangles around a vertex cyclically by shared edges."""
    order = [tris[0]]
    rest = list(tris[1:])
    while rest:
        cur = order[-1]
        nxt = next((u for u in rest if len(cur & u) == 2), None)
        if nxt is None:
            raise AssertionError("triangles do not form a hexagon")
        order.append(nxt)
        rest.remove(nxt)
    return order


def is_flip_position(assign, p):
    """True when the six triangles around ``p`` are covered by exactly three
    rhombi of the triangle -> rhombus map, all inside the star."""
    tris = search_triangles_at_vertex(p)
    if not all(t in assign for t in tris):
        return False
    rs = {assign[t] for t in tris}
    return len(rs) == 3 and all(all(t in tris for t in r) for r in rs)


def flipped_rhombi(tiling, p):
    """The rhombus set of ``tiling`` after rotating the star of ``p``."""
    assign = {t: r for r in tiling.rhombi for t in r}
    if not is_flip_position(assign, p):
        raise ValueError("vertex is not flippable in this tiling")
    order = hexagon_order(search_triangles_at_vertex(p))
    pairs = [(1, 2), (3, 4), (5, 0)] if assign[order[0]] == assign[order[1]] else [(0, 1), (2, 3), (4, 5)]
    for i, j in pairs:
        r = frozenset((order[i], order[j]))
        assign[order[i]] = r
        assign[order[j]] = r
    return set(assign.values())


def lifted_rconfig(assign):
    """The configuration of a triangle -> rhombus window, through its 3D faces.

    The window is lifted to its minimal interface (heights from the staircase
    values on the window boundary) and projected back by the face-set oracle.
    """
    tiling = Tiling.from_rhombi(Region(frozenset(assign)), set(assign.values()))
    faces, _ = tiling_to_interface(tiling)
    return rconfiguration_from_faces(faces)


def random_tiling(region, flips, seed):
    """``fklab.tiling.random_tiling`` on vertex tuples: the same seeded walk
    by terrace moves at strict local extrema, then ``tiling_from_heights``."""
    if not region.r0_closed():
        raise ValueError("random_tiling needs an R0-closed region")
    h = {p: stair_height(p) for p in region.vertices}
    stars = Counter(p for t in region.triangles for p in t)
    inner = {p for p, n in stars.items() if n == 6}

    def terrace_step(p):
        if p not in inner:
            return 0
        d = {h[(p[0] + da, p[1] + db)] - h[p] for da, db in ALL_DIRS}
        return 3 if d == {1, 2} else -3 if d == {-1, -2} else 0

    flippable = {p for p in inner if terrace_step(p)}
    rng = np.random.default_rng(seed)
    for _ in range(flips):
        if not flippable:
            break
        cands = sorted(flippable)
        p = cands[int(rng.integers(0, len(cands)))]
        h[p] += terrace_step(p)
        for q in [p] + [(p[0] + da, p[1] + db) for da, db in ALL_DIRS]:
            if terrace_step(q):
                flippable.add(q)
            else:
                flippable.discard(q)
    return tiling_from_heights(region, h)


def tiling_from_heights(region, heights):
    """``fklab.tiling.tiling_from_heights`` on vertex tuples (``heights`` a dict)."""
    hv = {p: heights.get(p, stair_height(p)) for p in region.vertices}
    rhombi = set()
    for t in region.triangles:
        lo, mid, hi = sorted(t, key=hv.__getitem__)
        if hv[mid] - hv[lo] != 1 or hv[hi] - hv[mid] != 1:
            raise HeightError(f"triangle heights {sorted(map(hv.get, t))} are not consecutive")
        partner = frozenset((lo, hi, (lo[0] + hi[0] - mid[0], lo[1] + hi[1] - mid[1])))
        if partner not in region.triangles:
            raise HeightError("rhombus diagonal leaves the region")
        rhombi.add(frozenset((t, partner)))
    return Tiling.from_rhombi(region, sorted(rhombi, key=_vertex_lists))


def assignment(tiling):
    """A fresh triangle -> rhombus map of the tiling."""
    return {t: r for r in tiling.rhombi for t in r}


def collared_assignment(tiling, collar=COLLAR):
    """triangle -> rhombus map of the tiling extended by an R0 collar."""
    assign = assignment(tiling)
    frontier = set(tiling.region.triangles)
    for _ in range(2 * collar + 2):
        frontier = {u for t in frontier for u in triangles_across(t) if u not in assign}
        for t in frontier:
            r = r0_rhombus(t)
            for u in r:
                assign.setdefault(u, r)
    return assign


def widened(tiling):
    """The tiling of the collared window: ``tiling`` and the R0 collar of its
    region's index, whose pairing a Dobrushin removal leaves as it is."""
    ix = tiling.region.index
    return Tiling.from_rhombi(Region(frozenset(ix.tri.values())), tiling.rhombi + ix.rhombi(ix.collar))


def rconfig_of_assignment(assign):
    """The configuration of a tiling given as its triangle -> rhombus map: a
    side between two different rhombi is good when they have the same type
    and delta otherwise; a side with a triangle outside the map stays
    unclassified."""
    rmult = dict.fromkeys(assign.values(), 1)
    types = {r: rhombus_type(r) for r in rmult}
    good, delta = {}, {}
    for t, r in assign.items():
        for e, u in zip(triangle_edges(t), triangles_across(t)):
            s = assign.get(u)
            if s is not None and s != r:
                (good if types[s] == types[r] else delta)[e] = 1
    return RConfiguration(rhombus_multiplicity=rmult, coverage=dict.fromkeys(assign, 1),
                          good_edges=good, delta_edges=delta)


def rhombus_sides(r):
    p, w1, q, w2 = rhombus_corners(r)
    return [frozenset((p, w1)), frozenset((w1, q)), frozenset((q, w2)), frozenset((w2, p))]


def _vertex_lists(r):
    """The sort key of a rhombus: its triangles' sorted vertex lists, least first."""
    return sorted(map(sorted, r))


def _rhombus_vertices(r):
    return {p for t in r for p in t}


def _link_vertices(pt):
    a, b = pt
    return ((a // 2, b // 2), ((a + 1) // 2, (b + 1) // 2))


def decompose(rc):
    """Bases and contours of ``rc``, grouped on frozensets."""
    overlapping_rhombi = rc.overlapping_rhombi
    simple = {r for r, m in rc.rhombus_multiplicity.items() if m == 1 and r not in overlapping_rhombi}
    side_index = {}
    for r in simple:
        for e in rhombus_sides(r):
            side_index.setdefault(e, []).append(r)
    paired = {}
    for e in rc.good_edges:
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
    bases.sort(key=lambda b: min(tuple(sorted(tuple(sorted(t)) for t in r)) for r in b.rhombi))
    if bases:
        big = max(range(len(bases)), key=lambda i: len(bases[i].rhombi))
        bases[big] = Base(rhombi=bases[big].rhombi, type=bases[big].type, boundary=True)

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
    contours.sort(key=lambda c: sorted(c.support_vertices))
    return Decomposition(bases=bases, contours=contours)


def _split_subcontours(contour, rc):
    ov_rhombi = sorted((r for r in contour.rhombi if r in rc.overlapping_rhombi), key=_vertex_lists)
    comps = [
        frozenset(ov_rhombi[i] for i in members)
        for members in components(_rhombus_vertices(r) for r in ov_rhombi)
    ]
    claimed_delta = set()
    for rhombi in comps:
        verts = {p for r in rhombi for t in r for p in t}
        overlap = {}
        for r in rhombi:
            for t in r:
                o = max(rc.coverage.get(t, 1) - 1, 0)
                if o:
                    overlap[t] = o
        delta = sum(rc.delta_edges[e] for e in contour.delta_edges if set(e) & verts)
        claimed_delta |= {e for e in contour.delta_edges if set(e) & verts}
        omega = sum(rc.omega_edges[e] for e in contour.omega_edges if set(e) & verts)
        lam = sum(rc.lambda_links[link] for link in contour.lambda_links
                  if verts.intersection(_link_vertices(link[0])))
        contour.overlapping.append(
            OverlappingSubcontour(rhombi=rhombi, overlap=overlap, delta=delta, omega=omega, lam=lam))
    unclaimed = [e for e in contour.delta_edges if e not in claimed_delta]
    contour.standard_delta = sorted(
        (sum(rc.delta_edges[unclaimed[i]] for i in members) for members in components(unclaimed)),
        reverse=True)


def decompose_tiling(tiling):
    """Decompose a tiling embedded in its R0 collar, on frozensets."""
    return decompose(rconfig_of_assignment(collared_assignment(tiling)))
