"""The one-face-at-a-time map between faces and rhombi, kept as the oracle
for the array projection ``fklab.tiling._project_faces`` and for the
tiling <-> interface bijection, which ``fklab`` runs on that projection and on
``Region.index`` ids.

``phi`` projects a 3D point along (1,1,1), ``project_face`` a face to its
frozenset rhombus and level, and ``face_of_rhombus`` (through ``lift_vertex``
and ``rhombus_type``) inverts it.
"""

from __future__ import annotations

from typing import Sequence

from fklab.classical import Face, face_vertices
from fklab.lattice import coordinate_sum
from fklab.tiling import PlaneVertex, Rhombus, vertex_class


def phi(v: Sequence[int]) -> PlaneVertex:
    """Exact projection of an integer 3D point along (1,1,1)."""
    return (v[0] - v[2], v[1] - v[2])


def lift_vertex(p: PlaneVertex, level: int) -> tuple[int, int, int]:
    """The preimage of ``p`` with coordinate sum ``level`` (of its class mod 3)."""
    v3 = (level - p[0] - p[1]) // 3
    return (p[0] + v3, p[1] + v3, v3)


def rhombus_type(r: Rhombus) -> int:
    """Type tau in {0,1,2}: the vertex class absent from the shared edge."""
    t1, t2 = r
    p, q = t1 & t2
    return (3 - vertex_class(p) - vertex_class(q)) % 3


def project_face(face: Face) -> tuple[Rhombus, int]:
    """Project a dual face to its rhombus and integer level n(f).

    The rhombus is the parallelogram of the projected corners lo, s1, hi,
    s2: the triangles {lo, s1, hi} and {lo, s2, hi} on the low-high diagonal.
    (rhombus, n) determines the face uniquely; ``face_of_rhombus`` inverts.
    """
    lo, s1, hi, s2 = map(phi, face_vertices(face))
    return frozenset((frozenset((lo, s1, hi)), frozenset((lo, s2, hi)))), coordinate_sum(face[0]) + 2


def face_of_rhombus(r: Rhombus, n: int) -> Face:
    """Inverse of project_face: the unique face at level ``n`` over rhombus ``r``."""
    if rhombus_type(r) != n % 3:
        raise ValueError("level does not match rhombus type")
    t1, t2 = r
    p, q = t1 & t2
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
