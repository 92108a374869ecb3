"""Bases, R-contours, contour energies, geometric classes, Dobrushin removal."""

import gc
import json
import random
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import contour_reference
from cover_reference import branch_and_bound_cover
import removal_reference
import tiling_reference as ref
from fklab import rcontour
from fklab.classical import (
    ModelCoefficients,
    extract_contours,
    h4_relative_energy,
)
from fklab.lattice import Volume, components
from fklab.rcontour import (
    DobrushinViolation,
    decompose,
    decompose_tiling,
    dobrushin_remove,
    f_energy,
    geometric_class,
    minimal_rhombus_cover,
)
from fklab.svgout import tiling_svg
from fklab.tiling import (
    Region,
    RegionIndex,
    Tiling,
    config_from_heights,
    enumerate_tilings,
    hexagon_region,
    interface_to_tiling,
    r0_closure,
    r0_rhombus,
    random_tiling,
    rhombus_of,
    stair_height,
    tiling_from_heights,
    tiling_edges,
    tiling_heights,
    tiling_to_interface,
    tri_up,
    triangles_across,
    vertex_class,
)

CO = ModelCoefficients(U=8.0)


def _r0_tiling(region):
    return Tiling.from_rhombi(region, {r0_rhombus(t) for t in region.triangles})


def _site_bound(contour):
    """Right-hand side of the paper's site-count bound for a contour."""
    s = sum(3 * ov.a_ov + (ov.delta + 1) + (ov.lam + 1) + (ov.omega + 1) for ov in contour.overlapping)
    return s + sum(d + 1 for d in contour.standard_delta)


def _single_flip_tilings(region):
    counts = {}
    for t in enumerate_tilings(region):
        counts.setdefault(t.type_counts(), []).append(t)
    return counts.get((9, 3, 0), []) + counts.get((9, 0, 3), [])


def test_pure_r0_has_one_base_no_contours():
    deco = decompose_tiling(_r0_tiling(hexagon_region(2)))
    assert len(deco.contours) == 0
    assert [b.type for b in deco.bases if b.boundary] == [0]


def test_hexflip_contour_structure():
    flips = _single_flip_tilings(hexagon_region(2))
    assert len(flips) == 6
    for t in flips:
        deco = decompose_tiling(t)
        assert len(deco.contours) == 1
        c = deco.contours[0]
        assert not c.overlapping
        assert c.standard_delta == [6]  # the smallest standard contour
        assert f_energy(c, CO) == pytest.approx(6 * CO.k2, abs=1e-18)
        assert len(c.support_vertices) <= _site_bound(c)
        # interior base of the flipped hexagon has a single non-zero type
        island = [b for b in deco.bases if not b.boundary]
        assert len(island) == 1 and island[0].type in (1, 2) and len(island[0]) == 3


def test_smallest_standard_contour_has_six_delta_lines():
    for t in enumerate_tilings(hexagon_region(2)):
        for c in decompose_tiling(t).contours:
            for d in c.standard_delta:
                assert d >= 6


def test_decompose_partitions_triangles():
    for t in enumerate_tilings(hexagon_region(2))[:10]:
        deco = decompose_tiling(t)
        based = set()
        for b in deco.bases:
            for r in b.rhombi:
                based |= set(r)
        contoured = set()
        for c in deco.contours:
            contoured |= {t2 for r in c.rhombi for t2 in r}
        assert not (based & contoured)
        assert based | contoured == set(ref.collared_assignment(t))


def test_pyramid_contour_counts_and_f_energy_relation():
    """The overlapping pyramid: a_ov=6, omega=3, lambda=6, and the contour energy
    formula upper-bounds the exact fourth-order excess (the formula books no
    credit for the good-pair plaquettes formed among the pyramid's own faces,
    so on overlapping contours it sits above the exact value by O(U^-3);
    both agree at the leading order J2 * a_ov)."""
    vol = Volume(dims=(10, 10, 10), shell=2)
    stair = config_from_heights(vol)
    pyr = stair.with_flip((0, 0, 0))
    (c,) = extract_contours(pyr)
    deco = decompose(c.faces)
    assert len(deco.contours) == 1
    ups = deco.contours[0]
    assert ups.overlapping
    (ov,) = ups.overlapping
    assert ov.a_ov == 6 and ov.omega == 3 and ov.lam == 6 and ov.delta == 0
    assert len(ups.support_vertices) <= _site_bound(ups)

    exact = h4_relative_energy(pyr, CO) - h4_relative_energy(stair, CO)
    formula = f_energy(ups, CO)
    U = CO.U
    assert exact == pytest.approx(3 / U - 14.25 / U**3, abs=1e-13)
    assert formula == pytest.approx(
        CO.j2 * 6 + 3 / U**3 + 6 / (4 * U**3), abs=1e-15
    )
    assert formula >= exact
    # leading order J2 * a_ov agrees: difference is O(U^-3)
    assert abs(formula - exact) < 12 / U**3


def test_minimal_cover_examples():
    from fklab.tiling import triangles_across

    # a single rhombus support decomposes into itself
    r = r0_rhombus(tri_up(0, 0))
    assert minimal_rhombus_cover(frozenset(r)) == 1

    # two rhombi sharing one triangle: three triangles, covers are by whole
    # rhombi, so the minimum is 2
    t0 = tri_up(0, 0)
    partners = triangles_across(t0)
    support = frozenset([t0, partners[0], partners[1]])
    assert minimal_rhombus_cover(support) == 2


def test_geometric_class_of_pyramid():
    vol = Volume(dims=(10, 10, 10), shell=2)
    pyr = config_from_heights(vol).with_flip((0, 0, 0))
    (c,) = extract_contours(pyr)
    (ups,) = decompose(c.faces).contours
    gc = geometric_class(ups)
    assert gc.standard_delta == ()
    assert len(gc.overlapping_supports) == 1
    assert gc.r_ov == (6,)
    assert ups.overlapping[0].a_ov >= gc.r_ov[0]


def _grown_piece(picks, origin):
    """A connected set of triangles grown from the up triangle at ``origin``:
    each pick adds one triangle across a side of the piece, chosen from them
    in sorted vertex order."""
    piece = {tri_up(*origin)}
    for k in picks:
        rim = sorted({u for t in piece for u in triangles_across(t)} - piece, key=sorted)
        piece.add(rim[k % len(rim)])
    return piece


def _picks(most):
    """Lists of picks, their lengths uniform in 0..most (plain lists run short)."""
    return st.integers(0, most).flatmap(lambda n: st.lists(st.integers(0, 10**6), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(first=_picks(19), second=st.none() | _picks(9))
def test_minimal_cover_matches_branch_and_bound(first, second):
    """The matching cover equals the branch-and-bound oracle on connected
    supports and on supports with a second, disjoint piece, of at most 20
    triangles.  A one-triangle piece cannot be covered, and both refuse it."""
    if second is None:
        support = _grown_piece(first, (0, 0))
    else:
        support = _grown_piece(first[:9], (0, 0)) | _grown_piece(second, (40, 0))
    support = frozenset(support)
    try:
        want = branch_and_bound_cover(support)
    except ValueError:
        with pytest.raises(ValueError, match="not coverable"):
            minimal_rhombus_cover(support)
        return
    assert minimal_rhombus_cover(support) == want


def test_minimal_cover_of_hexagons():
    # a side-n hexagon tiles exactly: 6n^2 triangles, 3n^2 rhombi
    for side, want in ((1, 3), (2, 12), (3, 27), (10, 300)):
        assert minimal_rhombus_cover(hexagon_region(side).triangles) == want
    assert minimal_rhombus_cover(frozenset()) == 0


def test_standard_contour_geometric_class_is_itself():
    t = _single_flip_tilings(hexagon_region(2))[0]
    (c,) = decompose_tiling(t).contours
    gc = geometric_class(c)
    assert gc.standard_delta == (6,)
    assert gc.overlapping_supports == () and gc.r_ov == ()


def test_removal_single_contour_gives_ground_state():
    t = _single_flip_tilings(hexagon_region(2))[0]
    new_t, rep = dobrushin_remove(t, 0, coeffs=CO)
    assert rep.contours_before == 1 and rep.contours_after == 0
    deco = decompose_tiling(new_t)
    assert len(deco.contours) == 0


def test_removal_all_side2_tilings():
    for t in enumerate_tilings(hexagon_region(2)):
        deco = decompose_tiling(t)
        for idx in range(len(deco.contours)):
            _, rep = dobrushin_remove(t, idx, coeffs=CO)
            assert rep.contours_after == rep.contours_before - 1


def _nested_configuration():
    """A type-1 terrace sea with a type-2 triple strictly inside it."""
    base = r0_closure(hexagon_region(6, center=(0, 1)).triangles)
    C = (0, 1)

    def hexdist(p):
        da, db = p[0] - C[0], p[1] - C[1]
        return max(abs(da), abs(db), abs(da - db))

    h = {
        v: stair_height(v) + 3
        for v in base.vertices
        if hexdist(v) <= 3 and vertex_class(v) == 2
    }
    inner = next(
        v for v in sorted(base.vertices) if hexdist(v) <= 1 and vertex_class(v) == 0
    )
    h[inner] = stair_height(inner) + 3
    return tiling_from_heights(base, h)


def test_removal_of_nested_pair_preserves_inner_energy():
    nested = _nested_configuration()
    deco = decompose_tiling(nested)
    assert len(deco.contours) == 2
    fvals = sorted(f_energy(c, CO) for c in deco.contours)
    outer = max(
        range(len(deco.contours)),
        key=lambda i: sum(deco.contours[i].standard_delta),
    )
    new_t, rep = dobrushin_remove(nested, outer, coeffs=CO)
    assert rep.nested
    assert rep.contours_after == 1
    assert any(info["shift"] != 0 for info in rep.interiors)
    remaining = decompose_tiling(new_t).contours
    assert len(remaining) == 1
    assert f_energy(remaining[0], CO) == pytest.approx(min(fvals), abs=1e-12)


def test_iterated_removals_stay_on_the_region(monkeypatch):
    """Removing every contour of a side-5 tiling one at a time keeps its
    region and index, builds no other index, and ends with no contours."""
    tiling = random_tiling(_REGIONS[5], 60, seed=7)
    region, ix = tiling.region, tiling.region.index
    count = len(decompose_tiling(tiling).contours)
    assert count == 6
    built = []
    init = RegionIndex.__init__

    def counted(self, r):
        built.append(r)
        init(self, r)

    monkeypatch.setattr(RegionIndex, "__init__", counted)
    for left in range(count, 0, -1):
        tiling, rep = dobrushin_remove(tiling, 0, coeffs=CO)
        assert rep.contours_after == left - 1
        assert tiling.region == region and tiling.region.index is ix and len(tiling.region) == len(region)
    assert decompose_tiling(tiling).contours == []
    assert built == []


def test_randomized_removal_campaign_small():
    base = r0_closure(hexagon_region(4).triangles)
    done = 0
    for seed in range(12):
        t = random_tiling(base, 25, seed=seed)
        deco = decompose_tiling(t)
        for idx in range(len(deco.contours)):
            _, rep = dobrushin_remove(t, idx, coeffs=CO)
            assert rep.contours_after == rep.contours_before - 1
            done += 1
    assert done >= 20


def test_removal_shift_is_the_level_difference():
    """A pocket pinched off the contour at two vertices lies two levels below
    the exterior, not one above: its base type alone (mod 3) would move it by
    S^+1, into the interior around it."""
    tiling = random_tiling(r0_closure(hexagon_region(4).triangles), 30, seed=241250750)
    assert len(decompose_tiling(tiling).contours) == 2
    new_t, rep = dobrushin_remove(tiling, 0, coeffs=CO)
    assert [info["shift"] for info in rep.interiors] == [-1, -1, -2]
    assert list(rep.shifts.values()) == [-1, -1, -2]
    assert rep.contours_after == 1
    assert len(decompose_tiling(new_t).contours) == 1


def test_decomposition_json_report():
    t = _single_flip_tilings(hexagon_region(2))[0]
    deco = decompose_tiling(t)
    doc = deco.to_json(CO)
    assert {b["type"] for b in doc["bases"]} <= {0, 1, 2}
    assert sum(b["boundary"] for b in doc["bases"]) == 1
    (entry,) = doc["contours"]
    assert entry["std_delta"] == [6]
    assert entry["a_ov"] == [] and entry["omega"] == [] and entry["lambda"] == []
    assert entry["F"] == pytest.approx(6 * CO.k2)


def test_removal_errors(monkeypatch):
    t0 = _r0_tiling(hexagon_region(2))
    with pytest.raises(ValueError):
        dobrushin_remove(t0, 0, coeffs=CO)
    t = _single_flip_tilings(hexagon_region(2))[0]
    with pytest.raises(ValueError):
        dobrushin_remove(t, 5, coeffs=CO)
    # a bool or a non-integer index is refused before any decomposition
    grouped = []
    monkeypatch.setattr(rcontour, "_group", lambda *a: grouped.append(a))
    rcontour._DECOMPOSED.pop(t, None)
    for idx in (True, False, 1.0, 0.0, "0", None):
        with pytest.raises(ValueError, match="contour_index"):
            dobrushin_remove(t, idx, coeffs=CO)
    assert grouped == []
    monkeypatch.undo()
    # the R0 collar exists only around an R0-closed region
    unclosed = enumerate_tilings(hexagon_region(1, center=(0, 0)))[0]
    for call in (decompose_tiling, lambda t: dobrushin_remove(t, 0, coeffs=CO)):
        with pytest.raises(ValueError, match="R0-closed"):
            call(unclosed)


_REGIONS = {side: r0_closure(hexagon_region(side).triangles) for side in range(2, 7)}


@settings(max_examples=40, deadline=None)
@given(side=st.integers(2, 6), flips=st.integers(0, 120), seed=st.integers(0, 2**32 - 1))
def test_collar_share_matches_the_full_window_walk(side, flips, seed):
    """What ``_collared`` feeds ``_group`` (the walk from the index's collar
    pieces) is what ``tiling_edges`` over the whole window gives: the
    tiling's pairs and the collar's, the collar overlaid on the partner
    table; its bases are the components of the good pairs, and its lines the
    delta sides, each once."""
    tiling = random_tiling(_REGIONS[side], flips, seed=seed)
    rcontour._DECOMPOSED.pop(tiling, None)
    with mock.patch.object(rcontour, "_group", wraps=rcontour._group) as group:
        rcontour._collared(tiling)
    (fed_corners, rhombi, kinds, objs, members, lines), _ = group.call_args

    ix = tiling.region.index
    window = tiling.pairs + ix.collar
    partner = list(tiling.partner)
    for t, u in ix.collar:
        partner[t], partner[u] = u, t
    good, delta = tiling_edges(ix, partner, [t for pair in window for t in pair])
    rk = {t: k for k, pair in enumerate(window) for t in pair}
    assert fed_corners is ix.corners and rhombi == window and objs == ix.rhombi(window)
    assert kinds == [ix.rtype(t, u) for t, u in window]
    bases = components((rk[t], rk[u]) for t, u in good)
    assert sorted(map(sorted, members)) == sorted(sorted({rk[t] for i in comp for t in good[i]})
                                                  for comp in bases)
    assert sorted(m[4] for m in lines) == sorted(delta)
    assert all(m[0] == "d" and m[3] == ix.ends(m[4]) and m[1] == frozenset(map(ix.xy.__getitem__, m[3]))
               for m in lines)


@settings(max_examples=40, deadline=None)
@given(side=st.integers(2, 6), flips=st.integers(0, 120), seed=st.integers(0, 2**32 - 1))
def test_complement_walk_matches_keyed_union_find(side, flips, seed):
    """For every contour of a tiling, the side walk of ``_complement`` gives
    the keyed union-find's components: the same keys, in the same order, with
    the same members in the same order."""
    tiling = random_tiling(_REGIONS[side], flips, seed=seed)
    ix = tiling.region.index
    for supp_verts, supp_tris, blocked in rcontour._collared(tiling)[1]:
        got = rcontour._complement(ix, supp_tris, blocked)
        want = removal_reference.keyed_complement(ix, supp_verts, supp_tris, blocked)
        assert list(got.items()) == list(want.items())
        assert min(ix.tri) in got   # the exterior


_ORACLE_REGIONS = {
    **{f"side{side}": region for side, region in _REGIONS.items()},
    # two collar pieces: around a hexagon with a hole, and around two hexagons apart
    "hole": r0_closure(hexagon_region(6).triangles - hexagon_region(2).triangles),
    "apart": Region(hexagon_region(2).triangles | hexagon_region(2, center=(12, 0)).triangles),
}


def _outcome(remove, tiling, idx):
    """A removal's new tiling and report, or the type and message it raised."""
    try:
        return remove(tiling, idx, coeffs=CO)
    except Exception as exc:  # noqa: BLE001 - the type and message are what is compared
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_ORACLE_REGIONS)), flips=st.integers(0, 120),
       seed=st.integers(0, 2**32 - 1))
@example(name="hole", flips=60, seed=3)
@example(name="apart", flips=60, seed=3)
def test_walk_and_id_edit_match_the_window_oracles(name, flips, seed):
    """The index walk of ``_collared`` gives the decomposition and ids of
    ``tiling_edges`` over the collared window, and ``dobrushin_remove``'s
    edit by vertex id gives the new tiling and report (or the exception) of
    the edit by plane point, for every contour; also where the collar has two
    pieces."""
    region = _ORACLE_REGIONS[name]
    assert len(region.index.pieces) == (2 if name in ("hole", "apart") else 1)
    tiling = random_tiling(region, flips, seed=seed)
    rcontour._DECOMPOSED.pop(tiling, None)
    deco, ids = rcontour._collared(tiling)
    assert (deco, ids) == removal_reference.window_decomposition(tiling)
    for idx in range(len(deco.contours)):
        assert _outcome(dobrushin_remove, tiling, idx) == _outcome(removal_reference.point_remove, tiling, idx)


def test_a_tiling_is_grouped_once_and_freed_with_it(monkeypatch):
    """``decompose_tiling`` then ``dobrushin_remove`` group the tiling once
    and the result once, which a later ``decompose_tiling`` reuses; dropping
    both tilings frees them at once, their entries with them.  An equal
    tiling built another way gives the same outputs, and a region that is
    not R0-closed leaves no entry."""
    grouped = []
    group = rcontour._group
    monkeypatch.setattr(rcontour, "_group", lambda *a: grouped.append(a) or group(*a))
    gc.disable()
    try:
        entries = len(rcontour._DECOMPOSED)
        t = random_tiling(_REGIONS[4], 30, seed=11)
        deco = decompose_tiling(t)
        idx = len(deco.contours) - 1
        new_t, rep = dobrushin_remove(t, idx, coeffs=CO)
        assert len(grouped) == 2
        assert len(decompose_tiling(new_t).contours) == len(deco.contours) - 1
        assert decompose_tiling(t) is deco and len(grouped) == 2

        same = Tiling.from_rhombi(t.region, t.rhombi)
        assert same == t and same is not t
        assert same.to_json() == t.to_json()
        assert (_removal_outcome(dobrushin_remove, same, idx)
                == (ref.widened(new_t).to_json(), list(rep.shifts.items()), rep.interiors))
        assert len(grouped) == 2   # equal tilings share one entry

        refs = [weakref.ref(t), weakref.ref(new_t)]
        assert len(rcontour._DECOMPOSED) == entries + 2
        del t, new_t, same, deco, rep
        assert [r() for r in refs] == [None, None]
        assert len(rcontour._DECOMPOSED) == entries

        unclosed = enumerate_tilings(hexagon_region(1, center=(0, 0)))[0]
        for _ in range(2):
            with pytest.raises(ValueError, match="R0-closed"):
                decompose_tiling(unclosed)
            assert unclosed not in rcontour._DECOMPOSED and len(rcontour._DECOMPOSED) == entries
    finally:
        gc.enable()


@settings(max_examples=40, deadline=None)
@given(side=st.integers(2, 5), flips=st.integers(0, 80), seed=st.integers(0, 2**32 - 1),
       collar=st.integers(0, 2))
def test_tiling_native_rconfig_matches_lift_oracle(side, flips, seed, collar):
    """``tiling_edges`` on the partner table of a collared window, and the
    frozenset rule of the reference, give the edge classes of the window's
    3D lift."""
    tiling = random_tiling(_REGIONS[side], flips, seed=seed)
    assign = ref.collared_assignment(tiling, collar)
    want = ref.lifted_rconfig(assign)
    got = ref.rconfig_of_assignment(assign)
    for name in ("good_edges", "delta_edges", "omega_edges", "lambda_links",
                 "coverage", "rhombus_multiplicity"):
        assert getattr(got, name) == getattr(want, name), name
    assert want.good_edges and want.coverage

    ix = tiling.region.index
    partner = [-1] * len(ix.across)
    for t, r in assign.items():
        (u,) = r - {t}
        partner[ix.tid(t)] = ix.tid(u)
    good, delta = tiling_edges(ix, partner, [ix.tid(t) for t in assign])

    def side_of(t, u):
        v, w = ix.ends(ix.sides[t][ix.across[t].index(u)])
        return frozenset((ix.xy[v], ix.xy[w]))

    assert {side_of(t, u): 1 for t, u in good} == want.good_edges
    assert {side_of(*ix.flank(e)): 1 for e in delta} == want.delta_edges
    assert len(good) == len(want.good_edges) and len(delta) == len(want.delta_edges)


@settings(max_examples=25, deadline=None)
@given(side=st.sampled_from([5, 6]), flips=st.integers(5, 120),
       seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 10**6))
def test_dobrushin_invariants_on_large_hexagons(side, flips, seed, pick):
    tiling = random_tiling(_REGIONS[side], flips, seed=seed)
    deco = decompose_tiling(tiling)
    assume(deco.contours)
    idx = pick % len(deco.contours)
    new_t, rep = dobrushin_remove(tiling, idx, coeffs=CO)
    # the result is a tiling with the standard boundary: it lifts to an interface
    tiling_to_interface(new_t)
    after = decompose_tiling(new_t)
    assert len(after.contours) == rep.contours_after == len(deco.contours) - 1
    expect = sorted(f_energy(c, CO) for j, c in enumerate(deco.contours) if j != idx)
    assert sorted(f_energy(c, CO) for c in after.contours) == pytest.approx(expect, abs=1e-12)


def _removal_outcome(remove, tiling, idx):
    """What a removal gives, shifts and interiors in order, or the type of
    the exception it raised.  ``dobrushin_remove`` returns a tiling of the
    input's region, which is widened by the unchanged R0 collar to compare
    with the rhombus oracle's tiling of the collared window."""
    try:
        new_t, rep = remove(tiling, idx, coeffs=CO)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    if remove is dobrushin_remove:
        new_t = ref.widened(new_t)
    return new_t.to_json(), list(rep.shifts.items()), rep.interiors


@settings(max_examples=30, deadline=None)
@given(side=st.integers(4, 6), flips=st.integers(5, 120),
       seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 10**6))
def test_height_removal_matches_rhombus_oracle(side, flips, seed, pick):
    """The height-edit removal gives the tiling, shifts and interiors of the
    rhombus translate-and-fill removal, and fails where it fails."""
    tiling = random_tiling(_REGIONS[side], flips, seed=seed)
    count = len(decompose_tiling(tiling).contours)
    assume(count)
    idx = pick % count
    want = _removal_outcome(removal_reference.rhombus_remove, tiling, idx)
    assert _removal_outcome(dobrushin_remove, tiling, idx) == want


def test_height_removal_matches_rhombus_oracle_inside_a_terrace():
    """A random side-3 tiling moved by S^-1 into a level-1 terrace: removing
    one of its contours fills a gap at the exterior's level 1, which random
    tilings of the staircase almost never reach."""
    C = (0, 1)

    def hexdist(p):
        da, db = p[0] - C[0], p[1] - C[1]
        return max(abs(da), abs(db), abs(da - db))

    base = r0_closure(hexagon_region(9, center=C).triangles)
    h = {v: (v[0] + v[1]) % 3 for v in base.vertices if hexdist(v) <= 7}  # level-1 staircase
    for p, x in tiling_heights(random_tiling(_REGIONS[3], 45, seed=35)).items():
        h[(p[0] - 1, p[1] - 1)] = x + 1
    tiling = tiling_from_heights(base, h)
    count = len(decompose_tiling(tiling).contours)
    assert count == 2
    for idx in range(count):
        got = _removal_outcome(dobrushin_remove, tiling, idx)
        assert isinstance(got, tuple)
        assert got == _removal_outcome(removal_reference.rhombus_remove, tiling, idx)


@settings(max_examples=40, deadline=None)
@given(side=st.integers(2, 6), flips=st.integers(0, 120),
       seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 10**6))
def test_integer_index_matches_frozenset_reference(side, flips, seed, pick):
    """The tiling path on ``Region.index`` ids gives what the frozenset path
    gives: the same ``Tiling.rhombi`` tuple, the same bases and contours in
    order, and the same removal, with shifts and interiors in order, or the
    same exception type."""
    region = _REGIONS[side]
    tiling = random_tiling(region, flips, seed=seed)
    assert tiling.rhombi == ref.random_tiling(region, flips, seed=seed).rhombi
    got, want = decompose_tiling(tiling), ref.decompose_tiling(tiling)
    assert got.bases == want.bases
    assert got.contours == want.contours
    assert got.to_json(CO) == want.to_json(CO)
    assume(got.contours)
    idx = pick % len(got.contours)
    want = _removal_outcome(removal_reference.rhombus_remove, tiling, idx)
    assert _removal_outcome(dobrushin_remove, tiling, idx) == want


def _builds(tiling, order):
    """One tiling built five ways: the random walk, a JSON round trip, its
    height function, its rhombi shuffled with every frozenset rebuilt in a
    shuffled insertion order, and its interface projected back."""
    def rebuilt(items):
        items = list(items)
        order.shuffle(items)
        return frozenset(items)

    rhombi = [rebuilt(rebuilt(t) for t in r) for r in tiling.rhombi]
    order.shuffle(rhombi)
    return [tiling, Tiling.from_json(json.loads(json.dumps(tiling.to_json()))),
            tiling_from_heights(tiling.region, tiling_heights(tiling)),
            Tiling.from_rhombi(tiling.region, rhombi), interface_to_tiling(tiling_to_interface(tiling)[0])]


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_one_tiling_built_five_ways_is_one_tiling(seed):
    """Tilings are equal, with equal hashes, when their regions and pairings
    are, however they were built."""
    tiling = random_tiling(r0_closure(hexagon_region(4).triangles), 30, seed=seed)
    for t in _builds(tiling, random.Random(seed)):
        assert t == tiling and hash(t) == hash(tiling)
        assert t.rhombi == tiling.rhombi


@settings(max_examples=30, deadline=None)
@given(side=st.integers(3, 5), flips=st.integers(0, 80), seed=st.integers(0, 2**32 - 1),
       pick=st.integers(0, 10**6), order=st.randoms(use_true_random=False))
def test_outputs_do_not_depend_on_how_the_tiling_was_built(side, flips, seed, pick, order):
    """One tiling built five ways (``_builds``) gives the same SVG bytes,
    decomposition and removal, shifts and interiors in order."""
    tiling = random_tiling(_REGIONS[side], flips, seed=seed)
    builds = _builds(tiling, order)

    def outputs(t):
        rcontour._DECOMPOSED.clear()   # equal tilings share a decomposition: group each build anew
        deco = decompose_tiling(t)
        removal = _removal_outcome(dobrushin_remove, t, pick % len(deco.contours)) if deco.contours else None
        return tiling_svg(t), deco.to_json(CO), removal

    want = outputs(tiling)
    for t in builds[1:]:
        assert outputs(t) == want


def test_contours_follow_sorted_support_vertices():
    """Two contours of this tiling have the same support vertices once the
    two coordinates inside each vertex are sorted; sorted as vertex lists,
    their order is strict and the one of the frozenset reference."""
    tiling = random_tiling(r0_closure(hexagon_region(4).triangles), 28, seed=637)
    contours = decompose_tiling(tiling).contours
    keys = [sorted(map(sorted, c.support_vertices)) for c in contours]
    assert len(contours) == 3 and keys[1] == keys[2]
    assert contours == ref.decompose_tiling(tiling).contours
    supports = [sorted(c.support_vertices) for c in contours]
    assert supports[0] < supports[1] < supports[2]


@pytest.mark.parametrize("seed", range(6))
def test_face_path_matches_frozenset_reference(seed):
    """``decompose`` of Ising contours next to a bc111 interface (overlaps,
    omega edges, lambda links) matches the frozenset grouping, subcontour
    lists in order."""
    vol = Volume(dims=(7, 7, 7), shell=2)
    stair = config_from_heights(vol)
    sites = [s for s in vol.sites() if abs(sum(s) + 1) <= 2]
    rng = np.random.default_rng(seed)
    config = stair
    for k in rng.choice(len(sites), size=6 + 3 * seed, replace=False):
        config = config.with_flip(sites[k])
    seen_overlap = False
    for c in extract_contours(config):
        got = decompose(c.faces)
        want = ref.decompose(contour_reference.rconfiguration_from_faces(c.faces))
        assert got.bases == want.bases
        assert got.contours == want.contours
        assert got.to_json(CO) == want.to_json(CO)
        seen_overlap |= any(k.overlapping for k in got.contours)
    assert seen_overlap
