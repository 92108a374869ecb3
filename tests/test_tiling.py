"""Projection geometry, height functions, the tiling<->interface bijection,
enumeration, and rhombus-configuration bookkeeping."""

import gc
import json
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contour_reference as cref
import layout_reference as layout
import tiling_reference as ref
from plane_reference import face_of_rhombus, phi, project_face, rhombus_type
from test_golden import _flipped_bc111
from fklab.classical import extract_contours, face_vertices
from fklab.lattice import CapExceeded, SpinConfiguration, Volume, coordinate_sum
from fklab.tiling import (
    ALL_DIRS,
    MAX_BOX_VERTICES,
    HeightError,
    OverlapError,
    Region,
    Tiling,
    _project_faces,
    config_from_heights,
    degeneracy_bounds_check,
    enumerate_tilings,
    good_pair_fraction_of_faces,
    hexagon_region,
    interface_to_tiling,
    r0_closure,
    r0_rhombus,
    random_tiling,
    rhombus_corners,
    stair_height,
    tiling_from_heights,
    tiling_heights,
    tiling_to_interface,
    tri_dn,
    tri_up,
    triangles_across,
    type_partner,
    vertex_class,
)


def _projected_rhombus(k, mu):
    """The one rhombus of ``_project_faces`` of the face (k, mu), checked
    against ``plane_reference.project_face``: its corners, type and triangle
    ids.  Returns the rhombus and the face's level n."""
    (corners, kind, tri_ids, cover, mult), _, _ = _project_faces(np.array([k]), np.array([mu]))
    r, n = project_face((k, mu))
    assert [tuple(c) for c in corners[0].tolist()] == list(rhombus_corners(r))
    assert kind.tolist() == [rhombus_type(r)] == [n % 3]
    assert tri_ids.tolist() == [[0, 1]]
    assert cover.tolist() == [[1, 1]] and mult.tolist() == [1]
    return r, n


def test_project_face_roundtrip_orientations():
    k = (2, -1, 3)
    seen = set()
    for mu in range(3):
        r, n = _projected_rhombus(k, mu)
        assert n == coordinate_sum(k) + 2
        seen.add(ref.rhombus_orientation(r))
        assert face_of_rhombus(r, n) == (k, mu)
    assert seen == {0, 1, 2}  # three orientations = three edge families


def test_project_face_translation_by_111():
    r1, n1 = _projected_rhombus((0, 0, 0), 1)
    r2, n2 = _projected_rhombus((1, 1, 1), 1)
    assert r1 == r2
    assert n2 == n1 + 3  # same rhombus, level shifted by 3, type preserved
    # projected together, the two faces make one rhombus covered twice
    (corners, kind, _, cover, mult), _, _ = _project_faces(np.array([(0, 0, 0), (1, 1, 1)]), np.array([1, 1]))
    assert len(corners) == 1 and kind.tolist() == [rhombus_type(r1)]
    assert cover.tolist() == [[2, 2]] and mult.tolist() == [2]


def test_vertex_class_well_defined():
    for v in [(0, 0, 0), (2, -1, 5), (1, 1, 1)]:
        p = phi(v)
        assert vertex_class(p) == sum(v) % 3
        assert phi((v[0] + 1, v[1] + 1, v[2] + 1)) == p


def test_hexagon_has_six_side_squared_triangles():
    """``fklab tilings`` refuses a side from this count before building it."""
    assert [len(hexagon_region(side)) for side in range(1, 6)] == [6, 24, 54, 96, 150]


def test_enumeration_counts():
    assert len(enumerate_tilings(hexagon_region(1))) == 2
    assert len(enumerate_tilings(hexagon_region(2))) == 20


def test_enumeration_order_deterministic():
    a = enumerate_tilings(hexagon_region(2))
    b = enumerate_tilings(hexagon_region(2))
    assert [t.rhombi for t in a] == [t.rhombi for t in b]


def test_enumerated_tilings_are_freed_on_drop():
    """Dropping the list frees the tilings at once: the enumeration leaves no
    reference cycle that only the cyclic GC could break.  The 980 tilings of
    the side-3 hexagon trace at most 2.2 MB at their peak (the tuples of
    shared rhombus frozensets they were before read 2.19 MB)."""
    region = hexagon_region(3)
    region.index   # built before tracing: the bound is on the tilings
    gc.disable()
    try:
        tracemalloc.start()
        try:
            tilings = enumerate_tilings(region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tilings) == 980 and peak <= 2.2e6
        first = weakref.ref(tilings[0])
        del tilings
        assert first() is None
    finally:
        gc.enable()


def test_macmahon_box_formula_oracle():
    """Independent count: boxed plane partitions H(m,m,m)."""
    def macmahon(m):
        num, den = 1, 1
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                for k in range(1, m + 1):
                    num *= i + j + k - 1
                    den *= i + j + k - 2
        return num // den

    assert macmahon(1) == 2 and macmahon(2) == 20 and macmahon(3) == 980
    assert len(enumerate_tilings(hexagon_region(3))) == macmahon(3)


def test_degeneracy_bounds():
    for side in (1, 2):
        region = hexagon_region(side)
        rep = degeneracy_bounds_check(region, enumerate_tilings(region))
        assert rep.in_regime and rep.ok
    r1 = degeneracy_bounds_check(hexagon_region(1), enumerate_tilings(hexagon_region(1)))
    assert r1.area == 3 and r1.count == 2 and r1.lower == 2 and r1.upper == 64


def test_degeneracy_below_regime_flagged():
    # a single rhombus: one tiling, bound 2^(1/3) > 1 fails but is out of regime
    region = Region(frozenset(r0_rhombus(next(iter(hexagon_region(1).triangles)))))
    rep = degeneracy_bounds_check(region, enumerate_tilings(region))
    assert not rep.in_regime
    assert rep.count == 1 and rep.lower > rep.count
    assert rep.ok  # reported, not asserted


def test_height_function_properties():
    reg = hexagon_region(2)
    for tiling in enumerate_tilings(reg):
        h = tiling_heights(tiling)
        for r in tiling.rhombi:
            corners = rhombus_corners(r)
            incs = [
                h[corners[(i + 1) % 4]] - h[corners[i]]
                for i in range(4)
            ]
            assert all(abs(i) == 1 for i in incs)      # unit increments
            assert sum(incs) == 0                       # zero cycle sum
            inc_rule = [
                ref.height_increment(corners[i], corners[(i + 1) % 4])
                for i in range(4)
            ]
            assert incs == inc_rule                     # direction rule
            assert h[corners[0]] % 3 == vertex_class(corners[0])


def test_heights_equal_lifted_coordinate_sums():
    reg = hexagon_region(2)
    for tiling in enumerate_tilings(reg)[:6]:
        faces, h = tiling_to_interface(tiling)
        for f in faces:
            for v in face_vertices(f):
                assert h[phi(v)] == sum(v)


def test_bijection_roundtrip_sides_1_and_2():
    for side in (1, 2):
        reg = hexagon_region(side)
        tilings = enumerate_tilings(reg)
        for t in tilings:
            faces, _ = tiling_to_interface(t)
            assert len(faces) == len(t.rhombi)  # one face per rhombus
            t2 = interface_to_tiling(faces)
            assert set(t2.rhombi) == set(t.rhombi)


def test_side1_tilings_differ_by_one_cube():
    reg = hexagon_region(1)
    t1, t2 = enumerate_tilings(reg)
    f1, _ = tiling_to_interface(t1)
    f2, _ = tiling_to_interface(t2)
    assert f1 != f2 and len(f1) == len(f2) == 3
    # the symmetric difference is the 6 faces of one lattice cube
    assert len(f1 ^ f2) == 6


def test_all_type0_tiling_lifts_to_staircase():
    reg = hexagon_region(2)
    t0 = Tiling.from_rhombi(reg, {r0_rhombus(t) for t in reg.triangles})
    faces, h = tiling_to_interface(t0)
    assert all(n == 0 for (_, n) in [project_face(f) for f in faces])
    assert all(h[p] == stair_height(p) for p in h)


def test_interface_to_tiling_overlap_error():
    vol = Volume(dims=(8, 8, 8), shell=2)
    stair = config_from_heights(vol)
    pyramid = stair.with_flip((0, 0, 0))  # adds a cube over the staircase
    (c,) = extract_contours(pyramid)
    with pytest.raises(OverlapError) as err:
        interface_to_tiling(c.faces)
    assert len(err.value.overlaps) == 6
    assert all(o == 2 for o in err.value.overlaps.values())


def test_bijection_matches_plane_oracle():
    """``tiling_to_interface`` and ``interface_to_tiling`` against the
    one-face-at-a-time map of ``plane_reference``: the lift of random tilings
    of the R0 closures of sides 2-6, their projection back, and the overlap
    report of every Ising contour of bc111 boxes with flips next to the
    interface."""
    for side in range(2, 7):
        region = r0_closure(hexagon_region(side).triangles)
        for seed in range(3):
            t = random_tiling(region, 10 * side, seed=seed)
            faces, h = tiling_to_interface(t)
            assert h == tiling_heights(t)
            expect = set()
            for r in t.rhombi:
                values = sorted(h[p] for p in rhombus_corners(r))
                expect.add(face_of_rhombus(r, values[1]))
            assert faces == expect
            rhombi = [project_face(f)[0] for f in faces]
            oracle = Tiling.from_rhombi(Region(frozenset(u for r in rhombi for u in r)), rhombi)
            assert interface_to_tiling(faces) == oracle == t
    contours = 0
    for seed in range(6):
        for c in extract_contours(_flipped_bc111(seed, True)):   # each one overlaps
            coverage = Counter(u for f in c.faces for u in project_face(f)[0])
            with pytest.raises(OverlapError) as err:
                interface_to_tiling(c.faces)
            assert err.value.overlaps == {u: n - 1 for u, n in coverage.items() if n > 1}
            contours += 1
    assert contours == 15


def test_interface_to_tiling_empty():
    t = interface_to_tiling([])
    assert len(t.rhombi) == 0
    # the empty region still gets an index (a box of its own)
    assert tiling_to_interface(t) == (set(), {})
    assert t.to_json() == {"triangles": [], "rhombi": []}


def test_overlap_numbers_even_and_extra_faces():
    vol = Volume(dims=(8, 8, 8), shell=2)
    stair = config_from_heights(vol)
    pyramid = stair.with_flip((0, 0, 0))
    (c,) = extract_contours(pyramid)
    rc = cref.projected(c.faces)
    assert all(o % 2 == 0 for o in rc.overlapping_triangles.values())
    # the total overlap is twice the number of extra faces, a^ov = 6
    assert sum(rc.overlapping_triangles.values()) == 12


def test_edge_classification_cases():
    vol = Volume(dims=(8, 8, 8), shell=2)
    stair = config_from_heights(vol)
    # pure staircase: good edges only
    # (the two rhombi flanking a good edge have the same type: their lifted
    # faces share a 3D edge through adjacent plaquette bonds)
    (c0,) = extract_contours(stair)
    rc = cref.projected(c0.faces)
    assert rc.good_edges and rc.delta_edges == {} and rc.omega_edges == {}

    # hexagon flip: 6 delta edges between type-0 and type-1 rhombi, each
    # classified once and as nothing else
    flip = stair.with_flip((0, 0, -1))  # coordinate sum -1
    (c1,) = extract_contours(flip)
    rc1 = cref.projected(c1.faces)
    assert len(rc1.delta_edges) == 6 and set(rc1.delta_edges.values()) == {1}
    assert not rc1.delta_edges.keys() & (rc1.good_edges.keys() | rc1.omega_edges.keys())

    # pyramid: the three edges at its apex carry the diagonal pattern (omega)
    # and nothing else
    pyr = stair.with_flip((0, 0, 0))
    (c2,) = extract_contours(pyr)
    rc2 = cref.projected(c2.faces)
    apex = (0, 0)
    assert rc2.omega_edges == {frozenset((apex, (apex[0] + da, apex[1] + db))): 1
                               for da, db in ((1, 0), (0, 1), (-1, -1))}
    assert not rc2.omega_edges.keys() & (rc2.good_edges.keys() | rc2.delta_edges.keys())
    assert sum(rc2.lambda_links.values()) == 6


def test_good_edges_join_same_type_rhombi():
    reg = hexagon_region(2)
    for tiling in enumerate_tilings(reg)[:8]:
        faces, _ = tiling_to_interface(tiling)
        rc = cref.projected(faces)
        side_of = {}
        for r in tiling.rhombi:
            for e in ref.rhombus_sides(r):
                side_of.setdefault(e, []).append(r)
        for e in rc.good_edges:
            rs = side_of.get(e, [])
            if len(rs) == 2:
                assert rhombus_type(rs[0]) == rhombus_type(rs[1])
        for e in rc.delta_edges:
            rs = side_of.get(e, [])
            if len(rs) == 2:
                assert rhombus_type(rs[0]) != rhombus_type(rs[1])


def test_good_pair_fraction_of_faces():
    vol = Volume(dims=(8, 8, 8), shell=2)
    stair = config_from_heights(vol)
    (c,) = extract_contours(stair)
    frac, flag = good_pair_fraction_of_faces(c.faces)
    assert frac == 1.0 and not flag
    flip = stair.with_flip((0, 0, -1))
    (c1,) = extract_contours(flip)
    frac1, flag1 = good_pair_fraction_of_faces(c1.faces)
    assert frac1 < 1.0 and not flag1
    pyr = stair.with_flip((0, 0, 0))
    (c2,) = extract_contours(pyr)
    frac2, flag2 = good_pair_fraction_of_faces(c2.faces)
    assert flag2


def test_config_from_heights_staircase_consistency():
    vol = Volume(dims=(6, 6, 6), shell=2)
    stair = config_from_heights(vol)
    bc = SpinConfiguration.from_boundary(vol, "bc111")
    assert np.array_equal(stair.spins, bc.spins)


@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 5)] * 3), shell=st.integers(1, 3),
       lo=st.tuples(*[st.integers(-5, 3)] * 3), seed=st.integers(0, 2**16))
def test_config_from_heights_matches_per_site_loop(dims, shell, lo, seed):
    vol = Volume(dims=dims, shell=shell, lo=lo)
    rng = np.random.default_rng(seed)
    plane = sorted({phi(k) for k in layout.padded_sites(vol)})
    picked = rng.choice(len(plane), size=len(plane) // 3, replace=False)
    raised = {plane[i]: stair_height(plane[i]) + 3 * int(rng.integers(-2, 3)) for i in picked}
    offset = int(rng.integers(-4, 5))

    def shifted(p):
        return stair_height(p) + offset

    for heights in (None, raised, shifted):
        got = config_from_heights(vol, heights)
        expect = layout.config_from_heights(vol, heights)
        assert got.bc == "bc111" and np.array_equal(got.spins, expect.spins)


def test_tiling_from_heights_inverse():
    reg = hexagon_region(2)
    for t in enumerate_tilings(reg):
        h = tiling_heights(t)
        t2 = tiling_from_heights(reg, h)
        assert set(t2.rhombi) == set(t.rhombi)


def test_tiling_from_heights_rejects_bad_field():
    reg = hexagon_region(1)
    bad = {v: 0 for v in reg.vertices}
    with pytest.raises(HeightError):
        tiling_from_heights(reg, bad)


def test_r0_closure_and_random_tiling():
    base = r0_closure(hexagon_region(3).triangles)
    assert base.r0_closed()
    t = random_tiling(base, 15, seed=4)
    t_again = random_tiling(base, 15, seed=4)
    assert set(t.rhombi) == set(t_again.rhombi)  # deterministic
    # flips preserve the exact-cover property (validated by the constructor)
    assert len(t.rhombi) == len(base) // 2


_HEXAGONS = {side: sorted(hexagon_region(side).triangles, key=sorted) for side in range(1, 7)}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), side=st.integers(1, 6))
def test_r0_closure_is_the_smallest_closed_superset(data, side):
    """The closure of S is R0-closed, contains S, and adds only type-0
    partners of triangles in S: the smallest union of type-0 rhombi over S."""
    tris = _HEXAGONS[side]
    s = {tris[i] for i in data.draw(st.sets(st.integers(0, len(tris) - 1)))}
    closure = r0_closure(s)
    assert closure.r0_closed()
    assert s <= closure.triangles
    assert closure.triangles - s <= {type_partner(t, 0) for t in s}


def test_closed_form_adjacency_matches_search_oracle():
    region = r0_closure(hexagon_region(5).triangles)
    for t in region.triangles:
        assert triangles_across(t) == ref.search_triangles_across(t)
        for tau in range(3):
            (e,) = [e for e in ref.triangle_edges(t) if all(vertex_class(p) != tau for p in e)]
            (u,) = [u for u in ref.search_triangles_of_edge(e) if u != t]
            assert type_partner(t, tau) == u
    # every face of a 3^3 box, all three orientations: the rhombus is the
    # pair of triangles on the projected low-high corner diagonal
    for k in np.ndindex(3, 3, 3):
        for mu in range(3):
            verts = face_vertices((k, mu))
            lo = min(verts, key=sum)
            hi = max(verts, key=sum)
            expect = ref.search_triangles_of_edge((phi(lo), phi(hi)))
            assert len(expect) == 2
            r, _ = _projected_rhombus(k, mu)
            assert r == frozenset(expect)


def test_flip_positions_and_flips_match_search_oracle():
    """The flip positions are the strict local extrema of the height function
    (six neighbours 1 and 2 above, or 1 and 2 below) whose star lies in the
    region, and the terrace move h(p) +- 3 rotates the three rhombi there."""
    region = r0_closure(hexagon_region(5).triangles)
    verts = sorted(region.vertices)
    for seed, flips in ((0, 0), (1, 30), (2, 200)):
        t = random_tiling(region, flips, seed=seed)
        assign = ref.assignment(t)
        h = tiling_heights(t)
        steps = {}
        for p in verts:
            if set(ref.search_triangles_at_vertex(p)) <= region.triangles:
                d = {h[(p[0] + da, p[1] + db)] - h[p] for da, db in ALL_DIRS}
                if d in ({1, 2}, {-1, -2}):
                    steps[p] = 3 if d == {1, 2} else -3
        assert sorted(steps) == [p for p in verts if ref.is_flip_position(assign, p)]
        assert steps
        for p, step in steps.items():
            flipped = tiling_from_heights(region, {**h, p: h[p] + step})
            assert set(flipped.rhombi) == ref.flipped_rhombi(t, p)
    corner = min(region.vertices)  # its star leaves the region
    for step in (3, -3):
        with pytest.raises(HeightError):
            tiling_from_heights(region, {**h, corner: h[corner] + step})


def test_region_rejects_non_elementary_triangles():
    good = tri_up(0, 0)
    for bad in ({(0, 0), (2, 0), (0, 5)}, {(0, 0), (1, 0)}, {(0, 0), (1, 0), (0, 1)},
                {(0, 0), (1, 0), (1, 1), (0, 1)}):
        with pytest.raises(ValueError, match="not an elementary triangle"):
            Region(frozenset((frozenset(bad), good)))
    assert len(Region(frozenset((good, tri_dn(0, 0))))) == 2


def test_triangle_index_caps_its_box():
    """The index tables cover the bounding box of the region and its collar,
    so a sparse region raises CapExceeded instead of allocating the box."""
    far = Region(frozenset((tri_up(0, 0), tri_up(600, 600))))
    with pytest.raises(CapExceeded):
        far.index
    assert len(Region(frozenset((tri_up(0, 0), tri_up(300, 300)))).index.xy) <= MAX_BOX_VERTICES


@pytest.mark.parametrize("side", [0, -1])
def test_hexagon_region_rejects_empty_sides(side):
    with pytest.raises(ValueError):
        hexagon_region(side)


_BASE3 = r0_closure(hexagon_region(3).triangles)


@settings(max_examples=30, deadline=None)
@given(flips=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_heights_round_trip(flips, seed):
    t = random_tiling(_BASE3, flips, seed=seed)
    back = tiling_from_heights(_BASE3, tiling_heights(t))
    assert set(back.rhombi) == set(t.rhombi)


_REGIONS = {side: r0_closure(hexagon_region(side).triangles) for side in range(2, 6)}


@settings(max_examples=30, deadline=None)
@given(side=st.integers(2, 5), flips=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_json_round_trip(side, flips, seed):
    """``to_json`` returns plain JSON values, so ``from_json`` inverts it
    directly, as it does through JSON text."""
    t = random_tiling(_REGIONS[side], flips, seed=seed)
    doc = t.to_json()
    assert json.loads(json.dumps(doc)) == doc
    back = Tiling.from_json(doc)
    assert back.region == t.region and set(back.rhombi) == set(t.rhombi)
    assert back.to_json() == doc


@settings(max_examples=25, deadline=None)
@given(side=st.integers(2, 5), flips=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
def test_random_tiling_matches_full_scan_walk(side, flips, seed):
    """random_tiling's height walk, re-testing only around each flip, takes the
    same steps as a walk that searches every vertex for a flip position and
    rotates rhombi, and ends on the same tiling."""
    region = _REGIONS[side]
    tiling = Tiling.from_rhombi(region, {r0_rhombus(t) for t in region.triangles})
    rng = np.random.default_rng(seed)
    for _ in range(flips):
        assign = ref.assignment(tiling)
        cands = [p for p in sorted(region.vertices) if ref.is_flip_position(assign, p)]
        if not cands:
            break
        p = cands[int(rng.integers(0, len(cands)))]
        tiling = Tiling.from_rhombi(region, ref.flipped_rhombi(tiling, p))
    assert set(tiling.rhombi) == set(random_tiling(region, flips, seed=seed).rhombi)


_LONG_WALK_REGIONS = {
    8: r0_closure(hexagon_region(8).triangles),
    12: r0_closure(hexagon_region(12).triangles),
    "strip": r0_closure(t for a in range(16) for b in range(6) for t in (tri_up(a, b), tri_dn(a, b))),
}


@pytest.mark.parametrize("region, flips, seed", [
    (8, 500, 0), (8, 3000, 1), (12, 1500, 2), (12, 3000, 3), ("strip", 2000, 4),
])
def test_random_tiling_matches_reference_on_long_walks(region, flips, seed):
    """On walks of about 3 to 27 flips per inner vertex, positions are
    flipped back and forth many times and the neighbour counters move in
    both directions again and again; the walk still ends on the tiling of
    the frozenset reference walk, rhombus for rhombus.  The strip is the R0
    closure of a parallelogram, an R0-closed region that is not a hexagon."""
    region = _LONG_WALK_REGIONS[region]
    assert region.r0_closed() and flips >= 2.5 * len(region.index.inner)
    assert random_tiling(region, flips, seed=seed).rhombi == ref.random_tiling(region, flips, seed).rhombi


@pytest.mark.parametrize("bad", [
    {"flips": -5}, {"flips": True}, {"flips": 2.0}, {"flips": "3"},
    {"seed": None}, {"seed": -1}, {"seed": False}, {"seed": 1.5},
])
def test_random_tiling_rejects_bad_flips_and_seed(bad):
    """``flips`` and ``seed`` are non-negative integers (a bool is not one):
    -5 flips would be the staircase, True one flip and a None seed OS
    entropy.  Numpy integers are integers."""
    ((name, value),) = bad.items()
    with pytest.raises(ValueError, match=name):
        random_tiling(_BASE3, **({"flips": 10, "seed": 0} | bad))
    assert random_tiling(_BASE3, np.int64(10), seed=np.uint32(7)) == random_tiling(_BASE3, 10, seed=7)


def test_lift_consistency_with_spin_configuration():
    """Lifting a tiling and reading it back from the spin field agree."""
    vol = Volume(dims=(10, 10, 10), shell=2)
    reg = hexagon_region(2)
    for t in enumerate_tilings(reg)[:5]:
        faces, h = tiling_to_interface(t)
        cfg = config_from_heights(vol, h)
        (pinned,) = [c for c in extract_contours(cfg) if c.pinned]
        assert set(faces) <= set(pinned.faces)
        rc = cref.projected(pinned.faces)
        assert not rc.overlapping_triangles
