"""Search-based triangle adjacency and flip test, kept as the oracle for the
closed forms in ``fklab.tiling``, and the 3D lift kept as the oracle for
``RConfiguration.from_assignment``.

These find neighbours by testing vertex subsets against every triangle at a
vertex, order a vertex star by walking shared sides, and test a flip position
by collecting the rhombi that cover the star.
"""

from fklab.tiling import (
    RConfiguration,
    Region,
    Tiling,
    tiling_to_interface,
    tri_dn,
    tri_up,
    triangle_edges,
)


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
    values on the window boundary) and projected back by ``from_faces``.
    """
    tiling = Tiling(Region(frozenset(assign)), tuple(set(assign.values())))
    faces, _ = tiling_to_interface(tiling)
    return RConfiguration.from_faces(faces)
