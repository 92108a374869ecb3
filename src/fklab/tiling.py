"""111-interface geometry: projection onto the triangular lattice, rhombus
typing, the tiling <-> interface bijection through height functions, tiling
enumeration, random tilings, and the rhombus configurations of interfaces that
are not minimal (overlap numbers, delta/omega edges, lambda links).

Plane conventions
-----------------
The projection ``(v1 - v3, v2 - v3)`` of integer 3D points v along (1,1,1)
onto the triangular lattice gives plane vertices in axial coordinates; its
unit directions are (1,0), (0,1), (-1,-1) (height +1) and their negatives.
The class of a plane vertex is ``(a + b) mod 3``, the coordinate sum mod 3 of
any preimage.  A face dual to the bond (k, k + e_mu) has level n(f) = k1 +
k2 + k3 + 2, its rhombus is the parallelogram of its projected corners lo,
s1, hi, s2 split along lo-hi, and its type is n(f) mod 3.  A triangle is
``tri_up(a, b)`` or ``tri_dn(a, b)`` of its lowest vertex (a, b);
``triangles_across`` lists the triangles across its sides v0v1, v0v2, v1v2
(corners v0 < v1 < v2).  The partner of t in the all-type-tau tiling lies
across the side opposite t's class-tau corner.

Integer index
-------------
Triangles and rhombi are frozensets only at the boundary (``Region.triangles``,
``Tiling.rhombi``, JSON, SVG).  The tiling layer runs on the integer ids of
``Region.index``, built once per region with its R0 collar: a tiling is its
``partner`` table and nothing else (``Tiling.rhombi`` is a view of it),
``random_tiling`` walks heights by vertex id (a seeded walk, not a sampler:
its law weights a tiling by its flip positions), and ``tiling_edges`` is the
one edge rule of a tiling.  Tilings change only through their height function
(``tiling_heights``, ``tiling_from_heights``).  A face set that need not be
a minimal interface is projected by ``_project_faces`` to arrays on ids of
its own triangles (no plane box): its distinct rhombi with their types,
triangle ids and coverage, its edge classes, and its lambda links.
``rcontour.decompose`` groups them, ``svgout.faces_svg`` draws them, and
``interface_to_tiling`` reads its tiling off them.  The inverse,
``tiling_to_interface``, lifts each id pair of a tiling from the heights of
its four corner ids (``heights_by_id``).

Edge classes
------------
``shared_edges`` is the one rule that classifies the 3D edges of a face set,
by counting faces per integer edge id: two faces of one direction make a
delta edge, two of different directions a good edge, four an omega edge.
``_project_faces`` and ``good_pair_fraction_of_faces`` read it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .classical import (
    Face, face_arrays, face_corners, face_keys, face_sides, grid_ids,
)
from .lattice import CapExceeded, SpinConfiguration, Volume, boundary_spin, components

PlaneVertex = tuple[int, int]
Triangle = frozenset  # of 3 PlaneVertex
Rhombus = frozenset   # of 2 Triangle

#: Plane directions with height increment +1 (projections of +e1, +e2, +e3).
UP_DIRS = ((1, 0), (0, 1), (-1, -1))
DOWN_DIRS = ((-1, 0), (0, -1), (1, 1))
ALL_DIRS = UP_DIRS + DOWN_DIRS
MAX_BOX_VERTICES = 1 << 18
#: Largest region ``enumerate_tilings`` lists the tilings of, in triangles.
MAX_TILING_TRIANGLES = 60


def vertex_class(p: PlaneVertex) -> int:
    return (p[0] + p[1]) % 3


def stair_height(p: PlaneVertex) -> int:
    """Height of the perfect staircase (the all-type-0 interface) above ``p``."""
    return (0, 1, -1)[vertex_class(p)]


def _height_function(heights) -> Callable[[PlaneVertex], int]:
    """``heights`` as a function of plane vertices: a dict reads staircase
    values outside its keys, and a callable is returned as it is."""
    if isinstance(heights, dict):
        return lambda p: heights.get(p, stair_height(p))
    return heights


def tri_up(a: int, b: int) -> Triangle:
    return frozenset(((a, b), (a + 1, b), (a + 1, b + 1)))


def tri_dn(a: int, b: int) -> Triangle:
    return frozenset(((a, b), (a, b + 1), (a + 1, b + 1)))


def triangles_across(t: Triangle) -> list[Triangle]:
    """The three triangles across the sides v0v1, v0v2, v1v2 of ``t`` (corners v0 < v1 < v2)."""
    a, b = min(t)
    if (a + 1, b) in t:
        return [tri_dn(a, b - 1), tri_dn(a, b), tri_dn(a + 1, b)]
    return [tri_up(a - 1, b), tri_up(a, b), tri_up(a, b + 1)]


def rhombus_of(t1: Triangle, t2: Triangle) -> Rhombus:
    shared = t1 & t2
    if len(shared) != 2:
        raise ValueError("triangles do not share an edge")
    return frozenset((t1, t2))


def rhombus_corners(r: Rhombus) -> tuple[PlaneVertex, ...]:
    """The four boundary corners in cyclic order: the shared side's ends
    p < q alternate with the far corners w1 < w2, as (p, w1, q, w2)."""
    t1, t2 = r
    p, q = sorted(t1 & t2)
    w1, w2 = sorted(t1 ^ t2)
    return (p, w1, q, w2)


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
# Regions and tilings
# ---------------------------------------------------------------------------


COLLAR = 2   # width of the R0 collar a tiling is decomposed in


@dataclass(frozen=True)
class Region:
    """A finite triangle set with the standard (all type-0 exterior) boundary."""

    triangles: frozenset

    def __post_init__(self):
        if len(self.triangles) % 2:
            raise ValueError("region must contain an even number of triangles")
        for t in self.triangles:
            a, b = min(t)
            if not (len(t) == 3 and (a + 1, b + 1) in t and ((a + 1, b) in t or (a, b + 1) in t)):
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

    @cached_property
    def index(self) -> "RegionIndex":
        return RegionIndex(self)


class RegionIndex:
    """The integer index of a region and its R0 collar, built once per region.

    The box tables number the bounding box of the region and its collar,
    with a margin of one (more than ``MAX_BOX_VERTICES`` vertices raise
    CapExceeded).  Vertex (a, b) is v = (a - a0) * H + (b - b0), with its
    ``xy``, ``vclass`` and ``stair``; its triangles are 2v (``tri_dn``) and
    2v + 1 (``tri_up``), so sorted ids are sorted vertices and sorted vertex
    lists; its sides along (1,0), (0,1), (1,1) are 3v, 3v + 1, 3v + 2.  Per
    triangle, ``corners`` holds the corners v0 < v1 < v2, and ``sides`` and
    ``across`` (-1 off the box) the sides v0v1, v0v2, v1v2 and the triangles
    across them.  Besides: ``tri`` (id -> triangle, one object per id of the
    region and its collar), ``ids`` (region triangle -> id, ascending),
    ``inside`` (the region's ids), ``vertices`` (sorted region vertex ids),
    ``inner`` (those whose star lies in the region) and ``links`` (per region
    vertex: neighbour, the two triangles flanking the side, height
    increment).  ``collar`` lists the rhombi of ``COLLAR`` frontier steps
    across the boundary, each triangle with its type-0 partner, as ascending
    id pairs; it depends only on the region (None unless it is R0-closed).
    The collar's share of every decomposition of a tiling of the region is
    built with it, each None when it is: ``collar_rhombi`` (its rhombi as
    frozensets, in ``collar`` order); ``pieces`` (the collar's rhombi joined
    across their own sides, as lists of positions in ``collar``; all have
    type 0, so these sides are all good), ``collar_piece`` (triangle id -> its
    piece, -1 off the collar) and ``frontier`` (per piece, the ascending
    (region triangle, side id) pairs across the collar's inner edge); and
    ``pair_type`` (region triangle id -> {triangle across a side: the type of
    their rhombus, the class of the corner opposite that side}, None off the
    region), so a rhombus type is one lookup.
    """

    def __init__(self, region: Region):
        collar = []
        closed = region.r0_closed()
        if closed:
            seen, frontier = set(region.triangles), set(region.triangles)
            for _ in range(2 * COLLAR + 2):
                frontier = {u for t in frontier for u in triangles_across(t) if u not in seen}
                for t in frontier:
                    if t not in seen:   # then neither is its type-0 partner
                        collar.append(r0_rhombus(t))
                        seen.update(collar[-1])
        # an empty region gets a box of its own
        points = {p for t in (*region.triangles, *(u for r in collar for u in r)) for p in t} or {(0, 0)}
        a0 = min(p[0] for p in points) - 1
        b0 = min(p[1] for p in points) - 1
        H = max(p[1] for p in points) - b0 + 2
        W = max(p[0] for p in points) - a0 + 2
        if W * H > MAX_BOX_VERTICES:
            raise CapExceeded(f"triangle index capped at {MAX_BOX_VERTICES} box vertices, got {W * H}")
        self.a0, self.b0, self.H = a0, b0, H
        self.xy = [(a0 + v // H, b0 + v % H) for v in range(W * H)]
        self.vclass = [(a + b) % 3 for a, b in self.xy]
        self.stair = [(0, 1, -1)[c] for c in self.vclass]
        self.corners, self.sides, self.across = [], [], []
        for v in range(W * H):
            i, j = divmod(v, H)
            self.corners += [(v, v + 1, v + H + 1), (v, v + H, v + H + 1)]
            self.sides += [(3 * v + 1, 3 * v + 2, 3 * v + 3), (3 * v, 3 * v + 2, 3 * (v + H) + 1)]
            self.across += [(2 * (v - H) + 1 if i else -1, 2 * v + 1, 2 * v + 3 if j + 1 < H else -1),
                            (2 * v - 2 if j else -1, 2 * v, 2 * (v + H) if i + 1 < W else -1)]
        self.tri = dict(sorted((self.tid(t), t) for t in region.triangles))
        self.ids = {t: i for i, t in self.tri.items()}
        self.inside = set(self.tri)
        self.tri.update((self.tid(u), u) for r in collar for u in r)
        stars = Counter(v for t in self.inside for v in self.corners[t])
        self.vertices = sorted(stars)
        self.inner = {v for v in self.vertices if stars[v] == 6}
        self.links = {v: [] for v in self.vertices}
        for e in sorted({e for t in self.inside for e in self.sides[t]}):
            v, w = self.ends(e)
            inc = -1 if e % 3 == 2 else 1   # (1,1) is a down step
            self.links[v].append((w, *self.flank(e), inc))
            self.links[w].append((v, *self.flank(e), -inc))
        self.collar = self.collar_rhombi = self.pieces = self.collar_piece = self.frontier = None
        self.pair_type = None
        if closed:
            self.collar = sorted(tuple(sorted(map(self.tid, r))) for r in collar)
            self.collar_rhombi = self.rhombi(self.collar)
            self.pieces = components(self.sides[t] + self.sides[u] for t, u in self.collar)
            self.collar_piece = [-1] * len(self.across)
            for p, piece in enumerate(self.pieces):
                for j in piece:
                    for t in self.collar[j]:
                        self.collar_piece[t] = p
            self.frontier = [sorted((w, e) for j in piece for t in self.collar[j]
                                    for w, e in zip(self.across[t], self.sides[t]) if w in self.inside)
                             for piece in self.pieces]
            self.pair_type = [None] * len(self.across)
            for t in self.inside:   # side i of t lies opposite its corner 2 - i
                self.pair_type[t] = {u: self.vclass[c]
                                     for u, c in zip(self.across[t], reversed(self.corners[t]))}

    def vid(self, p: PlaneVertex) -> int:
        return (p[0] - self.a0) * self.H + p[1] - self.b0

    def tid(self, t: Triangle) -> int:
        a, b = min(t)
        return 2 * self.vid((a, b)) + ((a + 1, b) in t)

    def ends(self, e: int) -> tuple[int, int]:
        v, d = divmod(e, 3)
        return v, v + (self.H, 1, self.H + 1)[d]

    def flank(self, e: int) -> tuple[int, int]:
        """The two triangles having side ``e``."""
        v, d = divmod(e, 3)
        return ((2 * v + 1, 2 * v - 2), (2 * v, 2 * (v - self.H) + 1), (2 * v + 1, 2 * v))[d]

    def rtype(self, t: int, u: int) -> int:
        """Type of the rhombus of ``t`` and ``u``: the class of t's corner off u."""
        return self.vclass[self.corners[t][2 - self.across[t].index(u)]]

    def rhombi(self, pairs) -> tuple:
        """The rhombi of the id pairs ``pairs``, built from ``tri``."""
        tri = self.tri
        return tuple(frozenset((tri[t], tri[u])) for t, u in pairs)


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
    produced by closing a hexagon with this function.  The type-0 pairing is
    an involution, so adding each triangle's partner closes the set in one step.
    """
    tris = frozenset(triangles)
    return Region(tris | {type_partner(t, 0) for t in tris})


@dataclass(frozen=True)
class Tiling:
    """An exact cover of a region by rhombi, with standard boundary outside:
    its ``partner`` table, triangle id of ``region.index`` -> id of the
    triangle paired with it across a side, -1 off the region."""

    region: Region
    partner: tuple

    def __post_init__(self):
        object.__setattr__(self, "partner", part := tuple(self.partner))
        ix = self.region.index
        if len(part) != len(ix.across) or len(part) - part.count(-1) != len(ix.inside):
            raise ValueError("rhombi do not cover the region exactly")
        for t in ix.inside:
            u = part[t]
            if u not in ix.inside or part[u] != t or u not in ix.across[t]:
                raise ValueError("paired triangles are not partners across a side")

    @classmethod
    def from_rhombi(cls, region: Region, rhombi: Iterable[Rhombus]) -> "Tiling":
        """The tiling of ``region`` by ``rhombi``, each two triangles of it."""
        ids = region.index.ids
        part = [-1] * len(region.index.across)
        for r in rhombi:
            pair = [ids.get(t, -1) for t in r]
            if len(pair) != 2 or -1 in pair:
                raise ValueError("rhombi do not cover the region exactly")
            t, u = pair
            if part[t] >= 0 or part[u] >= 0:
                raise ValueError("rhombi overlap")
            part[t], part[u] = u, t
        return cls(region, part)

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        """The rhombi as id pairs t < u of ``region.index``, ascending."""
        part = self.partner
        return [(t, part[t]) for t in self.region.index.ids.values() if t < part[t]]

    @cached_property
    def rhombi(self) -> tuple:
        """The rhombi as frozensets of two triangles, in ``pairs`` order."""
        return self.region.index.rhombi(self.pairs)

    def type_counts(self) -> tuple[int, int, int]:
        c = [0, 0, 0]
        for t, u in self.pairs:
            c[self.region.index.rtype(t, u)] += 1
        return tuple(c)

    def to_json(self) -> dict:
        ix = self.region.index
        pos = {t: i for i, t in enumerate(ix.ids.values())}   # ascending ids are sorted vertex lists
        return {
            "triangles": [[list(ix.xy[v]) for v in ix.corners[t]] for t in pos],
            "rhombi": [
                {"pair": [pos[t], pos[u]], "type": ix.rtype(t, u),   # orientation: the shared side's axis
                 "orientation": ix.sides[t][ix.across[t].index(u)] % 3}
                for t, u in self.pairs
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
        return cls.from_rhombi(Region(frozenset(tris)), rhombi)


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
    backtracking always branches on the least uncovered triangle (by sorted
    vertex list, so by id), so the output order is reproducible.
    """
    if len(region) > MAX_TILING_TRIANGLES:
        raise CapExceeded(f"enumeration capped at {MAX_TILING_TRIANGLES} triangles")
    out: list[Tiling] = []
    _extend_cover(region, list(region.index.ids.values()), 0, [-1] * len(region.index.across), out)
    return out


def _extend_cover(region: Region, tris: list, i: int, part: list, out: list) -> None:
    """Append to ``out`` every tiling of ``region`` that extends ``part``, the
    partner table of the rhombi placed so far, which covers ``tris[:i]``.  A
    module-level function, not a closure calling itself: that would be a
    reference cycle keeping ``out`` alive until the cyclic GC runs."""
    while i < len(tris) and part[tris[i]] >= 0:
        i += 1
    if i == len(tris):
        out.append(Tiling(region, part))
        return
    ix = region.index
    t = tris[i]   # the least free triangle
    for u in ix.across[t]:   # ascending ids
        if u in ix.inside and part[u] < 0:
            part[t], part[u] = u, t
            _extend_cover(region, tris, i + 1, part, out)
            part[t] = part[u] = -1


def random_tiling(region: Region, flips: int, seed: int) -> Tiling:
    """Seeded random walk over tilings by elementary flips of the height function.

    Starts from the staircase heights, the all-type-0 tiling of an R0-closed
    region, and makes ``flips`` terrace moves h(p) +- 3, each at a position p
    drawn uniformly from the current ones (ascending ids): the inner vertices
    whose six neighbours all lie above or all below them.  Not a sampler: its
    stationary law is proportional to the number of flip positions, and each
    flip moves the cube count by one, so n flips fix its parity.
    """
    for name, x in (("flips", flips), ("seed", seed)):
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {x!r}")
    ix = region.index
    if ix.collar is None:
        raise ValueError("random_tiling needs an R0-closed region")
    h = ix.stair[:]
    steps = tuple(ix.vid(d) - ix.vid((0, 0)) for d in ALL_DIRS)
    up = [None] * len(h)   # neighbours above each inner vertex: 3, 0, 6 on staircase classes 0, 1, 2
    for p in ix.inner:
        up[p] = 3 - 3 * h[p]
    cands = sorted(p for p in ix.inner if up[p] in (0, 6))
    rng = np.random.default_rng(seed)
    for _ in range(flips if cands else 0):   # p stays a flip position, the other way
        p = cands[int(rng.integers(0, len(cands)))]
        d = 1 if up[p] else -1
        h[p] += 3 * d
        up[p] = 6 - up[p]
        for s in steps:
            q, n = p + s, up[p + s]
            if n is not None:
                up[q] = n + d
                if n + d in (0, 6):
                    insort(cands, q)
                elif n in (0, 6):
                    del cands[bisect_left(cands, q)]
    return Tiling(region, pair_by_heights(ix, h))


@dataclass
class DegeneracyReport:
    area: int
    count: int
    lower: float
    upper: float
    in_regime: bool

    @property
    def ok(self) -> bool:
        return not self.in_regime or self.lower <= self.count <= self.upper


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


class HeightError(ValueError):
    """Raised when edge increments are inconsistent; carries a diagnostic cycle."""

    def __init__(self, message: str, cycle=None):
        super().__init__(message)
        self.cycle = cycle or []


def tiling_heights(tiling: Tiling) -> dict:
    """The unique height function of the tiling matching the staircase outside.

    Boundary vertices take their staircase values; interior values follow by
    summing +-1 increments along tiling edges.  An inconsistency (impossible
    for a valid tiling) aborts with the offending cycle attached.
    """
    ix = tiling.region.index
    h = heights_by_id(ix, tiling.partner)
    return {ix.xy[v]: h[v] for v in ix.vertices}


def heights_by_id(ix: RegionIndex, partner: list) -> list:
    """``tiling_heights`` as a list by vertex id, the staircase off the region."""
    h = ix.stair[:]
    frontier = [v for v in ix.vertices if v not in ix.inner]
    known = set(frontier)
    while frontier:
        u = frontier.pop()
        for w, t, t2, inc in ix.links[u]:
            if partner[t] == t2:
                continue   # a rhombus diagonal
            val = h[u] + inc
            if w not in known:
                h[w] = val
                known.add(w)
                frontier.append(w)
            elif h[w] != val:
                raise HeightError("inconsistent height increments", cycle=[ix.xy[u], ix.xy[w]])
    missing = [ix.xy[v] for v in ix.vertices if v not in known]
    if missing:
        raise HeightError(f"unreached vertices {missing[:4]}")
    return h


def tiling_to_interface(tiling: Tiling) -> tuple[set, dict]:
    """Lift a tiling to its minimal-area interface.

    Returns (faces, heights): one face per rhombus, placed at the level given
    by the height function; together with the staircase outside the region the
    faces form the connected pinned interface of the standard boundary
    condition.  The corners of a rhombus carry heights n - 1, n, n, n + 1,
    and its face (k, mu) has level n.  The shared side runs from the lo
    corner (height n - 1), the projection of k + e_mu, to the hi corner
    (n + 1), one step of (1, 1, 1) - e_mu further, so the plane step from lo
    to hi is ``DOWN_DIRS[mu]``, and k is the lift of lo to coordinate sum
    n - 1, minus e_mu.
    """
    if not tiling.region.r0_closed():
        raise ValueError("standard boundary requires an R0-closed region")
    ix = tiling.region.index
    h = heights_by_id(ix, tiling.partner)
    faces = set()
    for t, u in tiling.pairs:
        lo, *mid, hi = sorted({*ix.corners[t], *ix.corners[u]}, key=h.__getitem__)
        n = h[mid[0]]
        values = [h[lo], n, h[mid[1]], h[hi]]
        if values != [n - 1, n, n, n + 1]:
            raise HeightError(f"rhombus heights {values} are not (n-1, n, n, n+1)")
        (a, b), (c, d) = ix.xy[lo], ix.xy[hi]
        mu = DOWN_DIRS.index((c - a, d - b))
        v3 = (n - 1 - a - b) // 3
        k = [a + v3, b + v3, v3]
        k[mu] -= 1
        faces.add((tuple(k), mu))
    return faces, {ix.xy[v]: h[v] for v in ix.vertices}


def tiling_from_heights(region: Region, heights) -> Tiling:
    """Assemble the tiling encoded by a height function.

    ``heights`` maps plane vertices to integers (staircase values by default
    outside the mapping); a field is valid when every elementary triangle
    carries three consecutive values.  Raising selected vertices by 3 is the
    elementary terrace move, so synthetic interface shapes can be written
    down directly.
    """
    hfun = _height_function(heights)
    ix = region.index
    h = ix.stair[:]
    for v in ix.vertices:
        h[v] = hfun(ix.xy[v])
    return Tiling(region, pair_by_heights(ix, h))


def pair_by_heights(ix: RegionIndex, h: list) -> list:
    """The partner table of the region's triangles paired across their lo-hi
    diagonals under the heights ``h`` by vertex id; raises HeightError."""
    corners, across = ix.corners, ix.across
    part = [-1] * len(across)
    for i in ix.ids.values():
        lo, mid, hi = sorted(corners[i], key=h.__getitem__)
        if h[mid] - h[lo] != 1 or h[hi] - h[mid] != 1:
            raise HeightError(f"triangle heights {sorted(h[v] for v in corners[i])} are not consecutive")
        u = across[i][2 - corners[i].index(mid)]
        if u not in ix.inside:
            raise HeightError("rhombus diagonal leaves the region")
        part[i] = u
    return part


def tiling_edges(ix: RegionIndex, partner: list, order) -> tuple[list, list]:
    """The one edge rule of a tiling given as its ``partner`` table (-1 off it).

    A side between t and u != partner[t], both on the tiling, is good when
    their rhombi have the same type and delta otherwise; the type of t's
    rhombus is ``(class(t) + (2, 1, 0)[j]) % 3``, j the shared side and
    class(t) that of t's lowest vertex.  Returns the good sides as (t, u) and
    the delta side ids, each once, in order of first encounter (triangles in
    ``order``, then sides).
    """
    kind = {t: ix.rtype(t, partner[t]) for t in order}
    across, sides = ix.across, ix.sides
    good, delta, seen = [], [], set()
    for t in order:
        p = partner[t]
        for u, e in zip(across[t], sides[t]):
            if u != p and u in kind and e not in seen:
                seen.add(e)
                if kind[u] == kind[t]:
                    good.append((t, u))
                else:
                    delta.append(e)
    return good, delta


class OverlapError(ValueError):
    """Projection of a non-minimal interface; carries the overlapping triangles."""

    def __init__(self, overlaps: dict):
        super().__init__(f"{len(overlaps)} triangles covered more than once")
        self.overlaps = overlaps


def interface_to_tiling(faces: Iterable[Face]) -> Tiling:
    """Project a minimal-area interface patch onto its tiling.

    The faces are projected by ``_project_faces``, so the input is a face
    set: a repeated face counts once, as in ``rcontour.decompose`` and
    ``svgout.faces_svg``.  Each distinct rhombus is the triangles {p, w1, q}
    and {p, w2, q} of its plane corners.  Errors with an overlap report
    (triangle -> coverage - 1) if any triangle is covered more than once.
    """
    (corners, _, _, cover, _), _, _ = _project_faces(*face_arrays(frozenset(faces)))
    rhombi = [(frozenset((p, w1, q)), frozenset((p, w2, q)))
              for p, w1, q, w2 in (map(tuple, c) for c in corners.tolist())]
    overlaps = {t: c - 1 for pair, cs in zip(rhombi, cover.tolist()) for t, c in zip(pair, cs) if c > 1}
    if overlaps:
        raise OverlapError(overlaps)
    return Tiling.from_rhombi(Region(frozenset(t for pair in rhombi for t in pair)), map(frozenset, rhombi))


def config_from_heights(
    volume: Volume, heights: Callable[[PlaneVertex], int] | dict | None = None
) -> SpinConfiguration:
    """Spin configuration of the monotone interface with the given heights.

    ``heights`` maps plane vertices to interface heights (staircase values by
    default and outside the mapping).  A site k is + exactly when its
    coordinate sum is >= h(p) - 1, p the projection of k; with the staircase
    heights this is the bc111 ground configuration, ``boundary_spin("bc111",
    k)``.  The heights are read once per (1,1,1) column of the padded box.
    """
    k = volume.coords()
    if heights is None:
        return SpinConfiguration(volume, boundary_spin("bc111", k), bc="bc111")
    hfun = _height_function(heights)
    ab = np.moveaxis(k[:2] - k[2], 0, -1).reshape(-1, 2)   # the projection of k, one value per column
    _, first, col_of = np.unique(grid_ids(ab), return_index=True, return_inverse=True)
    h = np.array([hfun(tuple(p)) for p in ab[first].tolist()])[col_of]
    spins = np.where(k.sum(axis=0) >= h.reshape(volume.padded_dims) - 1, 1, -1).astype(np.int8)
    return SpinConfiguration(volume, spins, bc="bc111")


# ---------------------------------------------------------------------------
# Rhombus configurations of general (possibly non-minimal) interfaces
# ---------------------------------------------------------------------------


GOOD, DELTA, OMEGA = 0, 1, 2


def shared_edges(k: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify the 3D edges shared by several of the faces (k[i], mu[i]).

    This is the one edge-classification rule.  An edge of two faces is
    ``DELTA`` when both have the same direction (coplanar, the striped
    pattern) and ``GOOD`` otherwise (the three-against-one pattern); an edge
    of four faces is ``OMEGA`` (the diagonal pattern); three faces on one edge
    is an AssertionError.  Returns, by edge id, the kind of each shared edge
    and the positions 4i + j of its first and last sides (side j of face i
    in ``face_sides`` order).  The faces must be distinct.
    """
    ids = face_keys(k, mu).ravel()
    order = np.argsort(ids, kind="stable")
    run = ids[order]   # one run per edge: its start, then the end of the last run
    start = np.flatnonzero(np.diff(run, prepend=run[:1] - 1, append=run[-1:] + 1))
    count = np.diff(start)
    if np.any(count == 3):
        raise AssertionError("a 3D edge is shared by 3 faces")
    shared = count > 1
    first, last = order[start[:-1]][shared], order[start[1:] - 1][shared]
    coplanar = mu[first // 4] == mu[last // 4]
    return np.where(count[shared] == 4, OMEGA, np.where(coplanar, DELTA, GOOD)), first, last


def good_pair_fraction_of_faces(faces: Iterable[Face]) -> tuple[float, bool]:
    """(good edges / classified interior edges, overlap flag) of a projection.

    The edges are the ``shared_edges`` of the faces, each 3D edge counted
    once.  On a non-minimal interface the fraction is computed on the
    classified edges only and the flag is set: some triangle is covered
    twice.
    """
    return _good_pair_fraction(*face_arrays(frozenset(faces)))


def _good_pair_fraction(k: np.ndarray, mu: np.ndarray) -> tuple[float, bool]:
    """``good_pair_fraction_of_faces`` of the distinct faces (k[i], mu[i]), in any order."""
    kind, _, _ = shared_edges(k, mu)
    good, delta, omega = np.bincount(kind, minlength=3).tolist()
    total = good + delta + omega
    # a face's triangles {lo, s1, hi} and {lo, s2, hi}, as in _project_faces,
    # each keyed by the projection of its corner sum
    c = face_corners(k, mu)
    sums = np.stack([c[:, 0] + c[:, 1] + c[:, 2], c[:, 0] + c[:, 3] + c[:, 2]])
    tri = np.sort(grid_ids(sums[..., :2] - sums[..., 2:]), axis=None)
    overlap = bool((tri[1:] == tri[:-1]).any())   # a repeated key: a triangle covered twice
    return (good / total if total else 1.0), overlap


def _sorted_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lesser and the greater of the plane points a[i] and b[i]."""
    swap = ((a[:, 0] > b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] > b[:, 1])))[:, None]
    return np.where(swap, b, a), np.where(swap, a, b)


def _project_faces(k: np.ndarray, mu: np.ndarray):
    """The rhombus configuration of the distinct faces (k[i], mu[i]), as arrays.

    A face with corners lo, s1, hi, s2 (``face_vertices`` order) projects to
    the rhombus of the triangles {lo, s1, hi} and {lo, s2, hi} on its low-high
    diagonal, at level n = k1 + k2 + k3 + 2 and of type n mod 3; the rhombus
    and the level determine the face.  ``rcontour.decompose``,
    ``svgout.faces_svg`` and ``interface_to_tiling`` read the projection.
    Returns three groups of arrays:

    * the distinct rhombi, least first (by their triangles' sorted vertex
      lists): plane corners (r, 4, 2) in ``rhombus_corners`` order
      (p, w1, q, w2), type (r,), the ids of the triangles {p, w1, q} <
      {p, w2, q} (r, 2), the faces on each of them (r, 2) and the faces on
      the rhombus (r,).  Triangle ids number the distinct triangles from 0,
      in the order of their sorted vertex lists;
    * the ``shared_edges`` of the faces, counted per class and plane edge:
      plane ends (m, 2, 2) lower first, class (m,) and count (m,), sorted by
      class, then ends; and the rhombi of the two faces on each good 3D edge,
      as pairs of rhombus indices (g, 2), by edge id;
    * the lambda links, stacked faces (k, mu) and (k + e_mu, mu): the
      projection of twice the centre of their cube (l, 2), mu (l,) and count
      (l,), sorted.

    Three faces on one 3D edge raise AssertionError, as in ``shared_edges``.
    """
    c = face_corners(k, mu)
    plane = c[..., :2] - c[..., 2:]   # the projections of lo, s1, hi, s2
    p, q = _sorted_pair(plane[:, 0], plane[:, 2])
    w1, w2 = _sorted_pair(plane[:, 1], plane[:, 3])
    tsum = np.stack([p + w1 + q, p + w2 + q], axis=1)
    tri = 2 * grid_ids(tsum // 3) + (tsum[..., 0] % 3 == 2)   # sorted ids are sorted vertex lists
    _, at, cover = np.unique(tri.ravel(), return_inverse=True, return_counts=True)
    _, first, rhombus, mult = np.unique(   # pairs in order
        grid_ids(tri), return_index=True, return_inverse=True, return_counts=True)
    at = at.reshape(-1, 2)[first]
    rhombi = (np.stack([p, w1, q, w2], axis=1)[first], ((k.sum(axis=1) + 2) % 3)[first],
              at, cover[at], mult)

    kind, pos, last = shared_edges(k, mu)
    good = kind == GOOD
    low, axis = face_sides(k, mu)
    low, axis = low.reshape(-1, 3)[pos], axis.ravel()[pos]
    a = low[:, :2] - low[:, 2:]
    rows = np.column_stack([kind, *_sorted_pair(a, a + np.array(UP_DIRS)[axis])])
    _, first, count = np.unique(grid_ids(rows), return_index=True, return_counts=True)
    edges = (rows[first, 1:].reshape(-1, 2, 2), kind[first], count,
             rhombus[np.stack([pos[good], last[good]], axis=1) // 4])

    faces = np.column_stack([k, mu])
    above = faces.copy()
    above[np.arange(len(k)), mu] += 1
    ids = grid_ids(np.concatenate([faces, above]))
    linked = np.isin(ids[len(k):], ids[:len(k)])
    centre = 2 * k[linked] + 1
    centre[np.arange(len(centre)), mu[linked]] += 2
    rows = np.column_stack([centre[:, :2] - centre[:, 2:], mu[linked]])
    _, first, count = np.unique(grid_ids(rows), return_index=True, return_counts=True)
    return rhombi, edges, (rows[first, :2], rows[first, 2], count)
