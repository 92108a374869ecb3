"""The branch-and-bound minimal rhombus cover, kept as the oracle for the
maximum-matching cover of ``fklab.rcontour.minimal_rhombus_cover``.

It branches on the rhombi of the first uncovered triangle (in sorted vertex
order) and prunes every branch that cannot beat the best cover found.  It is
exponential in the support, so the tests run it on supports of at most 20
triangles.
"""

from fklab.tiling import rhombus_of, triangles_across


def branch_and_bound_cover(support: frozenset) -> int:
    """Minimum number of rhombi inside ``support`` whose union covers it;
    ValueError when a triangle has no neighbour in the support."""
    tris = sorted(support, key=sorted)
    candidates = {}
    for t in tris:
        cand = [rhombus_of(t, u) for u in triangles_across(t) if u in support]
        if not cand:
            raise ValueError("support triangle not coverable by a rhombus inside support")
        candidates[t] = cand
    best = len(tris)   # never need more rhombi than triangles
    stack = [(frozenset(tris), 0)]
    while stack:
        uncovered, used = stack.pop()
        if used >= best:
            continue
        if not uncovered:
            best = used
            continue
        t = min(uncovered, key=sorted)
        stack.extend((uncovered - r, used + 1) for r in reversed(candidates[t]))
    return best
