"""The face-set contour path, kept as the oracle for the integer edge ids in
``fklab.classical.extract_contours`` and ``fklab.tiling``.

``broken_faces`` lists the broken-bond faces one at a time, ``face_edges``
keys each face by four frozenset edges of 3D corner tuples, and
``rconfiguration_from_faces`` projects a face set to an ``RConfiguration``
of frozenset-keyed dicts, classifying the 3D edges through a dict of face
lists; ``fklab`` draws and decomposes the arrays of ``tiling._project_faces``
instead.  ``broken_faces`` and ``extract_contours`` return what the package
code returns, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fklab.classical import IsingContour, face_arrays, face_vertices
from fklab.lattice import components
from fklab.tiling import _project_faces
from plane_reference import phi, project_face, rhombus_type


@dataclass
class RConfiguration:
    """Projection of an interface: rhombus multiset with overlap bookkeeping.

    ``coverage`` maps triangles to the number of faces covering them (the
    overlap number is coverage - 1); the edge dicts map plane edges
    (frozensets of two plane vertices) to the number of 3D edges over them:

    * good edges: two faces sharing a 3D edge via two plaquette bonds that
      share a site (the three-against-one spin pattern);
    * delta edges: two coplanar faces side by side (the striped pattern);
    * omega edges: four faces around one 3D edge (the diagonal pattern);
    * lambda links: stacked parallel faces one lattice unit apart, counted
      with multiplicity.
    """

    rhombus_multiplicity: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)
    good_edges: dict = field(default_factory=dict)
    delta_edges: dict = field(default_factory=dict)
    omega_edges: dict = field(default_factory=dict)
    lambda_links: dict = field(default_factory=dict)

    @property
    def overlapping_triangles(self) -> dict:
        return {t: c - 1 for t, c in self.coverage.items() if c > 1}

    @property
    def overlapping_rhombi(self) -> set:
        """Rhombi containing at least one overlapping triangle."""
        ot = set(self.overlapping_triangles)
        return {r for r in self.rhombus_multiplicity if (set(r) & ot) or self.rhombus_multiplicity[r] > 1}


def face_edges(face) -> list[frozenset]:
    v = face_vertices(face)
    return [frozenset((v[i], v[(i + 1) % 4])) for i in range(4)]


def broken_faces(config):
    """Faces dual to anti-aligned bonds, with their in-volume flags, in the
    order of the package: by axis, then by lower site in array order."""
    vol = config.volume
    spins = config.spins
    faces, involume = [], []
    for mu in range(3):
        n = spins.shape[mu] - 1
        lower = np.moveaxis(spins, mu, 0)[:n]
        upper = np.moveaxis(spins, mu, 0)[1:]
        for idx in np.argwhere(np.moveaxis(lower != upper, 0, mu)):
            k = tuple(int(i) + l for i, l in zip(idx, vol.padded_lo))
            k2 = tuple(k[i] + (i == mu) for i in range(3))
            faces.append((k, mu))
            involume.append(vol.contains(k) or vol.contains(k2))
    return faces, involume


def extract_contours(config):
    faces, involume = broken_faces(config)
    mixed = config.bc in ("bc100", "bc111")
    contours = []
    for members in components(face_edges(f) for f in faces):
        fs = frozenset(faces[i] for i in members)
        area = sum(1 for i in members if involume[i])
        pinned = mixed and any(not involume[i] for i in members)
        if area == 0 and not pinned:
            continue
        contours.append(IsingContour(faces=fs, area=area, pinned=pinned))
    contours.sort(key=lambda c: (-c.pinned, -c.area))
    if mixed:
        assert sum(1 for c in contours if c.pinned) == 1, "mixed bc must pin exactly one component"
    return contours


def rconfiguration_from_faces(faces) -> RConfiguration:
    faces = frozenset(faces)
    rmult, coverage = {}, {}
    for f in faces:
        r, _ = project_face(f)
        rmult[r] = rmult.get(r, 0) + 1
        for t in r:
            coverage[t] = coverage.get(t, 0) + 1
    edge_faces: dict = {}
    for f in faces:
        for e in face_edges(f):
            edge_faces.setdefault(e, []).append(f)
    good, delta, omega = {}, {}, {}
    for e, flist in edge_faces.items():
        if len(flist) < 2:
            continue
        u, w = tuple(e)
        pe = frozenset((phi(u), phi(w)))
        if len(flist) == 4:
            omega[pe] = omega.get(pe, 0) + 1
        elif len(flist) == 2:
            f1, f2 = flist
            target = delta if f1[1] == f2[1] else good
            target[pe] = target.get(pe, 0) + 1
        else:
            raise AssertionError("a 3D edge is shared by 3 faces")
    lam = {}
    for (k, mu) in faces:
        k2 = list(k)
        k2[mu] += 1
        if (tuple(k2), mu) in faces:
            center2 = tuple(2 * k[i] + 1 + (2 if i == mu else 0) for i in range(3))
            key = (phi(center2), mu)
            lam[key] = lam.get(key, 0) + 1
    return RConfiguration(rhombus_multiplicity=rmult, coverage=coverage, good_edges=good,
                          delta_edges=delta, omega_edges=omega, lambda_links=lam)


def projected(faces) -> RConfiguration:
    """``fklab.tiling._project_faces`` of a face set in the form of
    ``rconfiguration_from_faces``, in the projection's order.  Checks on the
    way that each rhombus carries its type, and that the triangle ids number
    the distinct triangles from 0 in the order of their sorted vertex lists."""
    (corners, kind, tri_ids, cover, mult), (ends, cls, count, _), (point, axis, links) = \
        _project_faces(*face_arrays(frozenset(faces)))
    rc = RConfiguration()
    ids = {}
    for (p, w1, q, w2), tau, pair, covers, m in zip(
            corners.tolist(), kind.tolist(), tri_ids.tolist(), cover.tolist(), mult.tolist()):
        tris = [frozenset(map(tuple, (p, w, q))) for w in (w1, w2)]
        for t, i in zip(tris, pair):
            assert ids.setdefault(t, i) == i
        r = frozenset(tris)
        assert r not in rc.rhombus_multiplicity and rhombus_type(r) == tau
        rc.rhombus_multiplicity[r] = m
        for t, c in zip(tris, covers):
            assert rc.coverage.setdefault(t, c) == c
    assert [ids[t] for t in sorted(ids, key=sorted)] == list(range(len(ids)))
    for e, c, n in zip(ends.tolist(), cls.tolist(), count.tolist()):
        edges = (rc.good_edges, rc.delta_edges, rc.omega_edges)[c]
        assert frozenset(map(tuple, e)) not in edges
        edges[frozenset(map(tuple, e))] = n
    rc.lambda_links = {(tuple(pt), m): n for pt, m, n in zip(point.tolist(), axis.tolist(), links.tolist())}
    return rc


def good_pair_fraction_of_faces(faces) -> tuple[float, bool]:
    rc = rconfiguration_from_faces(faces)
    good = sum(rc.good_edges.values())
    total = good + sum(rc.delta_edges.values()) + sum(rc.omega_edges.values())
    return (good / total if total else 1.0), bool(rc.overlapping_triangles)
