"""111-interface geometry: projection onto the triangular lattice, rhombus
typing, the tiling <-> interface bijection through height functions, exhaustive
tiling enumeration, random tilings, and rhombus-configuration bookkeeping for
interfaces that are not minimal (overlap numbers, delta/omega edges, lambda
links).

Tilings change only through their height function: ``tiling_heights`` reads
it off a tiling and ``tiling_from_heights`` assembles the tiling of a field.
An elementary flip is the terrace move h(p) +- 3 at a strict local extremum
(it rotates the three rhombi around p); ``random_tiling`` walks by such moves.

Plane conventions
-----------------
Integer points of the 3D lattice (the corners of dual faces) are mapped to the
plane by the exact integer-linear projection ``phi(v) = (v1 - v3, v2 - v3)``,
which identifies points differing by (1,1,1).  Under phi the projected lattice
is the triangular lattice in axial coordinates; the six unit directions are
(1,0), (0,1), (-1,-1) and their negatives.  The class of a plane vertex is
``(a + b) mod 3`` and equals the coordinate sum mod 3 of any preimage.

A face dual to the bond (k, k + e_mu) has corners with coordinate sums
K+1, K+2, K+2, K+3 (K = k1+k2+k3); its level is n(f) = K + 2 and its projected
rhombus consists of the two triangles flanking the projection of the low-high
corner diagonal.  The rhombus type is n(f) mod 3.

Triangle adjacency
------------------
Every triangle is ``tri_up(a, b)`` = {(a,b), (a+1,b), (a+1,b+1)} or
``tri_dn(a, b)`` = {(a,b), (a,b+1), (a+1,b+1)} of its lowest vertex (a, b).
``triangles_across`` lists the triangles across the sides v0v1, v0v2, v1v2 of
corners v0 < v1 < v2 (``triangle_edges`` order): dn(a,b-1), dn(a,b), dn(a+1,b)
for up(a, b), and up(a-1,b), up(a,b), up(a,b+1) for dn(a, b).  The partner of
t in the all-type-tau tiling lies across the side opposite t's class-tau
corner.  A face's rhombus is the parallelogram of its projected corners lo,
s1, hi, s2, split along lo-hi as in ``tiling_from_heights``.

Edge classes
------------
``shared_edges`` is the one rule that classifies the 3D edges of a face set,
by counting faces per integer edge id: two faces of one direction make a
delta edge, two of different directions a good edge, four an omega edge.
``RConfiguration.from_faces`` and ``good_pair_fraction_of_faces`` read it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .classical import (
    Face, face_arrays, face_corners, face_keys, face_sides, face_vertices, grid_ids,
)
from .lattice import CapExceeded, SpinConfiguration, Volume, boundary_spin, coordinate_sum

PlaneVertex = tuple[int, int]
Triangle = frozenset  # of 3 PlaneVertex
Rhombus = frozenset   # of 2 Triangle

#: Plane directions with height increment +1 (projections of +e1, +e2, +e3).
UP_DIRS = ((1, 0), (0, 1), (-1, -1))
DOWN_DIRS = ((-1, 0), (0, -1), (1, 1))
ALL_DIRS = UP_DIRS + DOWN_DIRS


def phi(v: Sequence[int]) -> PlaneVertex:
    """Exact projection of an integer 3D point along (1,1,1)."""
    return (v[0] - v[2], v[1] - v[2])


def vertex_class(p: PlaneVertex) -> int:
    return (p[0] + p[1]) % 3


def lift_vertex(p: PlaneVertex, level: int) -> tuple[int, int, int]:
    """The unique preimage of ``p`` with coordinate sum ``level``.

    Requires level % 3 == vertex_class(p).
    """
    a, b = p
    if (level - a - b) % 3:
        raise ValueError("level incompatible with vertex class")
    v3 = (level - a - b) // 3
    return (a + v3, b + v3, v3)


def stair_height(p: PlaneVertex) -> int:
    """Height of the perfect staircase (the all-type-0 interface) above ``p``."""
    return (0, 1, -1)[vertex_class(p)]


def tri_up(a: int, b: int) -> Triangle:
    return frozenset(((a, b), (a + 1, b), (a + 1, b + 1)))


def tri_dn(a: int, b: int) -> Triangle:
    return frozenset(((a, b), (a, b + 1), (a + 1, b + 1)))


def triangle_edges(t: Triangle) -> list[frozenset]:
    vs = sorted(t)
    return [frozenset((vs[0], vs[1])), frozenset((vs[0], vs[2])), frozenset((vs[1], vs[2]))]


def triangles_across(t: Triangle) -> list[Triangle]:
    """The three triangles sharing a side with ``t``, in ``triangle_edges`` order."""
    a, b = min(t)
    if (a + 1, b) in t:
        return [tri_dn(a, b - 1), tri_dn(a, b), tri_dn(a + 1, b)]
    return [tri_up(a - 1, b), tri_up(a, b), tri_up(a, b + 1)]


def rhombus_of(t1: Triangle, t2: Triangle) -> Rhombus:
    shared = t1 & t2
    if len(shared) != 2:
        raise ValueError("triangles do not share an edge")
    return frozenset((t1, t2))


def rhombus_shared_edge(r: Rhombus) -> frozenset:
    t1, t2 = tuple(r)
    return t1 & t2


def rhombus_type(r: Rhombus) -> int:
    """Type tau in {0,1,2}: the vertex class absent from the shared edge."""
    p, q = tuple(rhombus_shared_edge(r))
    return (3 - vertex_class(p) - vertex_class(q)) % 3


def rhombus_orientation(r: Rhombus) -> int:
    """Orientation index in {0,1,2}: the axis family of the shared edge."""
    p, q = tuple(rhombus_shared_edge(r))
    d = (q[0] - p[0], q[1] - p[1])
    if d[0] and not d[1]:
        return 0
    if d[1] and not d[0]:
        return 1
    return 2


def rhombus_corners(r: Rhombus) -> tuple[PlaneVertex, ...]:
    """The four boundary corners in cyclic order (low, side, high, side)."""
    t1, t2 = tuple(r)
    p, q = tuple(t1 & t2)
    (w1,) = tuple(t1 - {p, q})
    (w2,) = tuple(t2 - {p, q})
    return (p, w1, q, w2)


def rhombus_sides(r: Rhombus) -> list[frozenset]:
    p, w1, q, w2 = rhombus_corners(r)
    return [frozenset((p, w1)), frozenset((w1, q)), frozenset((q, w2)), frozenset((w2, p))]


def type_partner(t: Triangle, tau: int) -> Triangle:
    """The triangle paired with ``t`` in the unique all-type-``tau`` tiling.

    A type-tau rhombus has no class-tau corner on its shared side, so it pairs
    ``t`` with the triangle across the side opposite ``t``'s class-tau corner.
    """
    k = [vertex_class(p) for p in sorted(t)].index(tau)
    return triangles_across(t)[2 - k]


def r0_rhombus(t: Triangle) -> Rhombus:
    return rhombus_of(t, type_partner(t, 0))


# ---------------------------------------------------------------------------
# Projection of faces
# ---------------------------------------------------------------------------


def project_face(face: Face) -> tuple[Rhombus, int]:
    """Project a dual face to its rhombus and integer level n(f).

    The rhombus is the parallelogram of the projected corners lo, s1, hi,
    s2: the triangles {lo, s1, hi} and {lo, s2, hi} on the low-high diagonal.
    (rhombus, n) determines the face uniquely; ``face_of_rhombus`` inverts.
    """
    lo, s1, hi, s2 = map(phi, face_vertices(face))
    # up triangle first (the mu = 1 corner cycle turns the other way), corners
    # sorted: tri_up/tri_dn's insertion order, which rhombus_corners iterates
    tris = [frozenset(sorted((lo, s, hi))) for s in ((s2, s1) if face[1] == 1 else (s1, s2))]
    return frozenset(tris), coordinate_sum(face[0]) + 2


def face_of_rhombus(r: Rhombus, n: int) -> Face:
    """Inverse of project_face: the unique face at level ``n`` over rhombus ``r``."""
    if rhombus_type(r) != n % 3:
        raise ValueError("level does not match rhombus type")
    p, q = tuple(rhombus_shared_edge(r))
    if vertex_class(p) != (n - 1) % 3:
        p, q = q, p
    lo = lift_vertex(p, n - 1)
    hi = lift_vertex(q, n + 1)
    d = tuple(h - l for h, l in zip(hi, lo))
    if sorted(d) != [0, 1, 1]:
        raise AssertionError("rhombus diagonal does not lift to a face diagonal")
    mu = d.index(0)
    k = list(lo)
    k[mu] -= 1
    return (tuple(k), mu)


# ---------------------------------------------------------------------------
# Regions and tilings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """A finite triangle set with the standard (all type-0 exterior) boundary."""

    triangles: frozenset

    def __post_init__(self):
        if len(self.triangles) % 2:
            raise ValueError("region must contain an even number of triangles")
        for t in self.triangles:
            a, b = min(t)
            if t != tri_up(a, b) and t != tri_dn(a, b):
                raise ValueError(f"{sorted(t)} is not an elementary triangle")

    def __len__(self) -> int:
        return len(self.triangles)

    @property
    def vertices(self) -> frozenset:
        return frozenset(p for t in self.triangles for p in t)

    def r0_closed(self) -> bool:
        """True if the exterior can be tiled with type-0 rhombi, i.e. the region
        itself is a union of rhombi of the all-type-0 tiling."""
        return all(type_partner(t, 0) in self.triangles for t in self.triangles)

    def sorted_triangles(self) -> list[Triangle]:
        return sorted(self.triangles, key=lambda t: sorted(t))


def _inner_vertices(region: Region) -> set:
    """The vertices whose whole star (six triangles) lies in the region."""
    stars = Counter(p for t in region.triangles for p in t)
    return {p for p, n in stars.items() if n == 6}


def hexagon_region(side: int, center: PlaneVertex | None = None) -> Region:
    """The regular hexagon of the given side length centered at a lattice vertex.

    When no center is given one is chosen so the region is a union of type-0
    rhombi whenever a vertex-centered hexagon of this size admits it (side = 1
    needs a class-1 or class-2 center, side = 2 a class-0 one; side = 0 mod 3
    vertex-centered hexagons are never closed and are used for counting only).
    """
    if side < 1:
        raise ValueError(f"hexagon side must be >= 1, got {side}")
    if center is None:
        center = {1: (0, 1), 2: (0, 0), 0: (0, 0)}[side % 3]
    ca, cb = center

    def hexdist(p: PlaneVertex) -> int:
        da, db = p[0] - ca, p[1] - cb
        return max(abs(da), abs(db), abs(da - db))

    tris = set()
    R = side + 1
    for a in range(ca - R, ca + R):
        for b in range(cb - R, cb + R):
            for t in (tri_up(a, b), tri_dn(a, b)):
                if all(hexdist(p) <= side for p in t):
                    tris.add(t)
    return Region(frozenset(tris))


def r0_closure(triangles: Iterable[Triangle]) -> Region:
    """Smallest region containing ``triangles`` that is a union of type-0 rhombi.

    Such regions (and only such) have an exterior tileable by the standard
    boundary; vertex-centered hexagons are already closed only for side 1
    (class 1 or 2 center) and side 2 (class 0), so larger working regions are
    produced by closing a hexagon with this function.
    """
    tris = set(triangles)
    todo = list(tris)
    while todo:
        t = todo.pop()
        p = type_partner(t, 0)
        if p not in tris:
            tris.add(p)
            todo.append(p)
    return Region(frozenset(tris))


@dataclass(frozen=True)
class Tiling:
    """An exact cover of a region by rhombi, with standard boundary outside."""

    region: Region
    rhombi: tuple

    def __post_init__(self):
        covered = self.assignment()
        if len(covered) != sum(map(len, self.rhombi)):
            raise ValueError("rhombi overlap")
        if covered.keys() != self.region.triangles:
            raise ValueError("rhombi do not cover the region exactly")

    def __len__(self) -> int:
        return len(self.rhombi)

    def assignment(self) -> dict:
        """A fresh triangle -> rhombus map of the tiling."""
        return {t: r for r in self.rhombi for t in r}

    def type_counts(self) -> tuple[int, int, int]:
        c = [0, 0, 0]
        for r in self.rhombi:
            c[rhombus_type(r)] += 1
        return tuple(c)

    def to_json(self) -> dict:
        tris = self.region.sorted_triangles()
        tri_id = {t: i for i, t in enumerate(tris)}
        return {
            "triangles": [sorted(t) for t in tris],
            "rhombi": [
                {
                    "pair": sorted(tri_id[t] for t in r),
                    "type": rhombus_type(r),
                    "orientation": rhombus_orientation(r),
                }
                for r in sorted(self.rhombi, key=lambda r: sorted(sorted(t) for t in r))
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Tiling":
        """Inverse of ``to_json``; raises ValueError on a malformed document."""
        if not isinstance(doc, dict):
            raise ValueError(f"a tiling is a JSON object, got {doc!r}")
        tris = triangles_from_json(doc["triangles"])
        rhombi = []
        for r in _json_list(doc["rhombi"]):
            pair = r.get("pair") if isinstance(r, dict) else None
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(i) is int and 0 <= i < len(tris) for i in pair)):
                raise ValueError(f"a rhombus pair is two triangle indices below {len(tris)}, got {pair!r}")
            rhombi.append(rhombus_of(tris[pair[0]], tris[pair[1]]))
        return cls(Region(frozenset(tris)), tuple(rhombi))


def _json_list(x) -> list:
    if not isinstance(x, list):
        raise ValueError(f"expected a JSON list, got {x!r}")
    return x


def triangles_from_json(doc) -> list[Triangle]:
    """Triangles from a JSON list of vertex lists, each vertex a pair of
    integers; raises ValueError on any other shape."""
    def vertex(p):
        if len(_json_list(p)) != 2 or not all(type(x) is int for x in p):
            raise ValueError(f"a triangle vertex is a pair of integers, got {p!r}")
        return tuple(p)

    return [frozenset(map(vertex, _json_list(t))) for t in _json_list(doc)]


def enumerate_tilings(region: Region) -> list[Tiling]:
    """All exact covers of the region by rhombi, in deterministic order.

    Equivalent to enumerating dimer coverings of the dual hexagonal patch;
    backtracking always branches on the lexicographically first uncovered
    triangle, so the output order is reproducible.
    """
    tris = region.sorted_triangles()
    if len(tris) > 60:
        raise CapExceeded("enumeration capped at 60 triangles")
    order = {t: i for i, t in enumerate(tris)}
    neighbors = {
        t: sorted((u for u in triangles_across(t) if u in order), key=lambda u: order[u])
        for t in tris
    }

    out: list[Tiling] = []
    covered: set = set()
    stack: list[Rhombus] = []

    def backtrack():
        free = [t for t in tris if t not in covered]
        if not free:
            out.append(Tiling(region, tuple(stack)))
            return
        t = free[0]
        for u in neighbors[t]:
            if u in covered:
                continue
            covered.add(t)
            covered.add(u)
            stack.append(rhombus_of(t, u))
            backtrack()
            stack.pop()
            covered.discard(t)
            covered.discard(u)

    backtrack()
    return out


def random_tiling(region: Region, flips: int, seed: int) -> Tiling:
    """Seeded random walk over tilings by elementary flips of the height function.

    Starts from the staircase heights, the all-type-0 tiling (the region must
    be a union of type-0 rhombi), and applies ``flips`` uniformly chosen
    flips; deterministic in the seed.  A vertex can flip when its whole star
    lies in the region and it is a strict local extremum: its six neighbours
    lie 1 and 2 above it, or 1 and 2 below.  The flip is the terrace move
    h(p) +- 3 towards the other side, which rotates the three rhombi around p.

    After a flip only p and its six neighbours are tested again.  Each step
    indexes the *sorted* flip positions, so a seed gives the same walk as a
    full scan of the region's vertices in sorted order.
    """
    if not region.r0_closed():
        raise ValueError("random_tiling needs an R0-closed region")
    h = {p: stair_height(p) for p in region.vertices}
    inner = _inner_vertices(region)

    def terrace_step(p: PlaneVertex) -> int:
        """+3 at a flippable local minimum, -3 at a local maximum, else 0."""
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


@dataclass
class DegeneracyReport:
    area: int
    count: int
    lower: float
    upper: float
    in_regime: bool

    @property
    def ok(self) -> bool:
        if not self.in_regime:
            return True
        return self.lower <= self.count <= self.upper


def degeneracy_bounds_check(region: Region, tilings: Sequence[Tiling]) -> DegeneracyReport:
    """Check 2^(A/3) <= N <= 2^(2A) for the count N of ``tilings``, the
    output of ``enumerate_tilings(region)``.

    The lower-bound construction needs at least one full flippable hexagon,
    so regions with fewer than 3 rhombi are flagged as below the regime and
    reported rather than asserted.
    """
    area = len(region) // 2
    return DegeneracyReport(
        area=area,
        count=len(tilings),
        lower=2.0 ** (area / 3.0),
        upper=2.0 ** (2 * area),
        in_regime=area >= 3,
    )


# ---------------------------------------------------------------------------
# Height functions and the bijection
# ---------------------------------------------------------------------------


def height_increment(u: PlaneVertex, w: PlaneVertex) -> int:
    """+1 when w - u projects an up-step (+e_mu), -1 for a down-step."""
    d = (w[0] - u[0], w[1] - u[1])
    if d in UP_DIRS:
        return 1
    if d in DOWN_DIRS:
        return -1
    raise ValueError("not a lattice edge")


class HeightError(ValueError):
    """Raised when edge increments are inconsistent; carries a diagnostic cycle."""

    def __init__(self, message: str, cycle=None):
        super().__init__(message)
        self.cycle = cycle or []


def tiling_heights(tiling: Tiling) -> dict:
    """The unique height function of the tiling matching the staircase outside.

    Vertices on the region boundary obtain their staircase values; interior
    values follow by summing +-1 increments along tiling edges.  Any
    inconsistency (impossible for a valid tiling) aborts with the offending
    cycle attached.
    """
    vertices = tiling.region.vertices
    h: dict = {p: stair_height(p) for p in vertices - _inner_vertices(tiling.region)}
    adj: dict = {}
    for r in tiling.rhombi:
        p, w1, q, w2 = rhombus_corners(r)
        for u, w in ((p, w1), (w1, q), (q, w2), (w2, p)):
            adj.setdefault(u, []).append(w)
            adj.setdefault(w, []).append(u)
    frontier = [p for p in h if p in adj]
    while frontier:
        u = frontier.pop()
        for w in adj.get(u, ()):
            val = h[u] + height_increment(u, w)
            if w in h:
                if h[w] != val:
                    raise HeightError("inconsistent height increments", cycle=[u, w])
            else:
                h[w] = val
                frontier.append(w)
    missing = [p for p in vertices if p not in h]
    if missing:
        raise HeightError(f"unreached vertices {missing[:4]}")
    return h


def tiling_to_interface(tiling: Tiling) -> tuple[set, dict]:
    """Lift a tiling to its minimal-area interface.

    Returns (faces, heights): one face per rhombus, placed at the level given
    by the height function; together with the staircase outside the region the
    faces form the connected pinned interface of the standard boundary
    condition.
    """
    if not tiling.region.r0_closed():
        raise ValueError("standard boundary requires an R0-closed region")
    h = tiling_heights(tiling)
    faces = set()
    for r in tiling.rhombi:
        corners = rhombus_corners(r)
        values = sorted(h[p] for p in corners)
        n = values[1]
        if values != [n - 1, n, n, n + 1]:
            raise HeightError(f"rhombus heights {values} are not (n-1, n, n, n+1)")
        faces.add(face_of_rhombus(r, n))
    return faces, h


def tiling_from_heights(region: Region, heights) -> Tiling:
    """Assemble the tiling encoded by a height function.

    ``heights`` maps plane vertices to integers (staircase values by default
    outside the mapping); a field is valid when every elementary triangle
    carries three consecutive values.  Raising selected vertices by 3 is the
    elementary terrace move, so synthetic interface shapes can be written
    down directly.
    """
    if isinstance(heights, dict):
        hfun = lambda p: heights.get(p, stair_height(p))  # noqa: E731
    else:
        hfun = heights
    hv = {p: hfun(p) for p in region.vertices}
    rhombi: set = set()
    for t in region.triangles:
        lo, mid, hi = sorted(t, key=hv.__getitem__)
        if hv[mid] - hv[lo] != 1 or hv[hi] - hv[mid] != 1:
            raise HeightError(f"triangle heights {sorted(map(hv.get, t))} are not consecutive")
        # the partner across the lo-hi diagonal completes the parallelogram
        partner = frozenset((lo, hi, (lo[0] + hi[0] - mid[0], lo[1] + hi[1] - mid[1])))
        if partner not in region.triangles:
            raise HeightError("rhombus diagonal leaves the region")
        rhombi.add(frozenset((t, partner)))
    return Tiling(region, tuple(rhombi))


class OverlapError(ValueError):
    """Projection of a non-minimal interface; carries the overlapping triangles."""

    def __init__(self, overlaps: dict):
        super().__init__(f"{len(overlaps)} triangles covered more than once")
        self.overlaps = overlaps


def interface_to_tiling(faces: Iterable[Face]) -> Tiling:
    """Project a minimal-area interface patch onto its tiling.

    Errors with an overlap report (listing triangles and their overlap
    numbers) if any triangle is covered more than once.
    """
    coverage: dict = {}
    rhombi = []
    for f in faces:
        r, _ = project_face(f)
        rhombi.append(r)
        for t in r:
            coverage[t] = coverage.get(t, 0) + 1
    overlaps = {t: c - 1 for t, c in coverage.items() if c > 1}
    if overlaps:
        raise OverlapError(overlaps)
    return Tiling(Region(frozenset(coverage)), tuple(rhombi))


def config_from_heights(
    volume: Volume, heights: Callable[[PlaneVertex], int] | dict | None = None
) -> SpinConfiguration:
    """Spin configuration of the monotone interface with the given heights.

    ``heights`` maps plane vertices to interface heights (staircase values by
    default and outside the mapping).  A site k is + exactly when its
    coordinate sum is >= h(phi(k)) - 1; with the staircase heights this is the
    bc111 ground configuration, ``boundary_spin("bc111", k)``.  The heights
    are read once per (1,1,1) column of the padded box.
    """
    k = volume.coords()
    if heights is None:
        return SpinConfiguration(volume, boundary_spin("bc111", k), bc="bc111")
    if isinstance(heights, dict):
        hfun = lambda p: heights.get(p, stair_height(p))  # noqa: E731
    else:
        hfun = heights
    a, b = k[0] - k[2], k[1] - k[2]   # phi(k), one value per column
    _, first, col_of = np.unique(a * (b.max() - b.min() + 1) + b,
                                 return_index=True, return_inverse=True)
    h = np.array([hfun((int(a.flat[i]), int(b.flat[i]))) for i in first])[col_of]
    spins = np.where(k.sum(axis=0) >= h.reshape(volume.padded_dims) - 1, 1, -1).astype(np.int8)
    return SpinConfiguration(volume, spins, bc="bc111")


# ---------------------------------------------------------------------------
# Rhombus configurations of general (possibly non-minimal) interfaces
# ---------------------------------------------------------------------------


@dataclass
class RConfiguration:
    """Projection of an interface: rhombus multiset with overlap bookkeeping.

    ``coverage`` maps triangles to the number of faces covering them (the
    overlap number is coverage - 1); classified edge sets are derived from the
    local plaquette structure of the source faces:

    * good edges: two faces sharing a 3D edge via two plaquette bonds that
      share a site (the three-against-one spin pattern);
    * delta edges: two coplanar faces side by side (the striped pattern);
    * omega edges: four faces around one 3D edge (the diagonal pattern);
    * lambda links: stacked parallel faces one lattice unit apart, counted
      with multiplicity.

    A 3D face set is projected by ``from_faces``.  A tiling (a minimal
    interface) needs no lift: ``from_assignment`` reads the same edge sets
    off its triangle -> rhombus map.
    """

    rhombus_multiplicity: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)
    good_edges: dict = field(default_factory=dict)
    delta_edges: dict = field(default_factory=dict)
    omega_edges: dict = field(default_factory=dict)
    lambda_links: dict = field(default_factory=dict)

    @classmethod
    def from_faces(cls, faces: Iterable[Face]) -> "RConfiguration":
        """The configuration of a 3D face set.  Its good, delta and omega
        edges are the ``shared_edges`` of the faces, counted per projected
        plane edge in order of first appearance."""
        faces = frozenset(faces)
        rmult: dict = {}
        coverage: dict = {}
        for f in faces:
            r, _ = project_face(f)
            rmult[r] = rmult.get(r, 0) + 1
            for t in r:
                coverage[t] = coverage.get(t, 0) + 1

        good: dict = {}
        delta: dict = {}
        omega: dict = {}
        kind, low, axis = shared_edges(*face_arrays(faces))
        for c, v, a in zip(kind.tolist(), low.tolist(), axis.tolist()):
            p = phi(v)
            d = UP_DIRS[a]   # phi(e_a)
            pe = frozenset((p, (p[0] + d[0], p[1] + d[1])))
            target = (good, delta, omega)[c]
            target[pe] = target.get(pe, 0) + 1

        # lambda links: faces (k, mu) and (k + e_mu, mu)
        lam: dict = {}
        for (k, mu) in faces:
            k2 = list(k)
            k2[mu] += 1
            if (tuple(k2), mu) in faces:
                center2 = tuple(2 * k[i] + 1 + (2 if i == mu else 0) for i in range(3))
                key = (phi(center2), mu)
                lam[key] = lam.get(key, 0) + 1
        return cls(
            rhombus_multiplicity=rmult,
            coverage=coverage,
            good_edges=good,
            delta_edges=delta,
            omega_edges=omega,
            lambda_links=lam,
        )

    @classmethod
    def from_assignment(cls, assign: dict) -> "RConfiguration":
        """The configuration of a tiling, given as its triangle -> rhombus map.

        On a minimal interface every triangle is covered once, each rhombus
        is one face, and there are no omega edges and no lambda links (a
        monotone height never alternates along e_mu).  A side between two
        different rhombi is good when they have the same type and delta
        otherwise (their lifted faces meet along adjacent plaquette bonds or
        lie side by side); a side with a triangle outside the map stays
        unclassified, as it has no second face.
        """
        rmult = dict.fromkeys(assign.values(), 1)
        types = {r: rhombus_type(r) for r in rmult}
        good: dict = {}
        delta: dict = {}
        for t, r in assign.items():
            for e, u in zip(triangle_edges(t), triangles_across(t)):
                s = assign.get(u)
                if s is not None and s != r:
                    (good if types[s] == types[r] else delta)[e] = 1
        return cls(
            rhombus_multiplicity=rmult,
            coverage=dict.fromkeys(assign, 1),
            good_edges=good,
            delta_edges=delta,
        )

    def overlap_number(self, t: Triangle) -> int:
        return max(self.coverage.get(t, 1) - 1, 0)

    @property
    def overlapping_triangles(self) -> dict:
        return {t: c - 1 for t, c in self.coverage.items() if c > 1}

    @property
    def overlapping_rhombi(self) -> set:
        """Rhombi containing at least one overlapping triangle."""
        ot = set(self.overlapping_triangles)
        return {r for r in self.rhombus_multiplicity if (set(r) & ot) or self.rhombus_multiplicity[r] > 1}

    def is_tiling(self) -> bool:
        return not self.overlapping_triangles


GOOD, DELTA, OMEGA = 0, 1, 2


def shared_edges(k: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify the 3D edges shared by several of the faces (k[i], mu[i]).

    This is the one edge-classification rule.  An edge of two faces is
    ``DELTA`` when both have the same direction (coplanar, the striped
    pattern) and ``GOOD`` otherwise (the three-against-one pattern); an edge
    of four faces is ``OMEGA`` (the diagonal pattern); three faces on one edge
    is an AssertionError.  Returns the kind, lower corner (m, 3) and axis of
    each shared edge, in order of first appearance (faces in order, sides in
    ``face_vertices`` order).  The faces must be distinct.
    """
    ids = face_keys(k, mu).ravel()
    _, first, inverse, count = np.unique(
        ids, return_index=True, return_inverse=True, return_counts=True)
    if np.any(count == 3):
        raise AssertionError("a 3D edge is shared by 3 faces")
    # two faces on an edge have the same direction when their mu sum is twice the first's
    mu_of = np.repeat(mu, 4)
    coplanar = np.bincount(inverse, weights=mu_of, minlength=len(count)) == 2 * mu_of[first]
    kind = np.where(count == 4, OMEGA, np.where(coplanar, DELTA, GOOD))
    order = np.sort(first[count > 1])
    low, axis = face_sides(k, mu)
    return kind[inverse[order]], low.reshape(-1, 3)[order], axis.ravel()[order]


def good_pair_fraction_of_faces(faces: Iterable[Face]) -> tuple[float, bool]:
    """(good edges / classified interior edges, overlap flag) of a projection.

    The counts are those of ``RConfiguration.from_faces`` (both come from
    ``shared_edges``).  On a non-minimal interface the fraction is computed
    on the classified edges only and the flag is set: some triangle is
    covered twice.
    """
    k, mu = face_arrays(frozenset(faces))
    kind, _, _ = shared_edges(k, mu)
    good, delta, omega = np.bincount(kind, minlength=3).tolist()
    total = good + delta + omega
    # project_face's triangles {lo, s1, hi} and {lo, s2, hi}, each keyed by
    # the projection of its corner sum
    c = face_corners(k, mu)
    sums = np.stack([c[:, 0] + c[:, 1] + c[:, 2], c[:, 0] + c[:, 3] + c[:, 2]])
    tri = grid_ids(sums[..., :2] - sums[..., 2:])
    overlap = len(np.unique(tri)) < tri.size
    return (good / total if total else 1.0), overlap
