"""Lattice geometry, boundary conditions, staggering and closed walks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fklab.classical import _label_rows
from fklab.lattice import (
    MAX_PADDED_SITES,
    CapExceeded,
    SpinConfiguration,
    Volume,
    boundary_spin,
    components,
    coordinate_sum,
    subset_walks,
)
import layout_reference as layout
from walk_reference import held_karp_tour, is_connected


def test_boundary_spin_prescriptions():
    assert boundary_spin("bc100", (0, 0, 0)) == 1      # x3 = 1/2
    assert boundary_spin("bc100", (5, -3, -1)) == -1   # x3 = -1/2
    assert boundary_spin("bc111", (-1, -1, -1)) == -1  # sum = -3/2
    assert boundary_spin("bc111", (0, 0, -1)) == 1     # sum = 1/2
    assert boundary_spin("hom_plus", (9, 9, 9)) == 1
    assert boundary_spin("hom_minus", (9, 9, 9)) == -1


def test_bc111_sign_equals_coordinate_sum_sign():
    for k in itertools.product(range(-3, 3), repeat=3):
        s = coordinate_sum(k) + 1.5
        assert abs(s) >= 0.5  # half-odd integer, never in (-1/2, 1/2)
        assert boundary_spin("bc111", k) == (1 if s > 0 else -1)


def test_stagger_involution_and_neel():
    vol = Volume(dims=(4, 4, 4), shell=1)
    rng = np.random.default_rng(0)
    spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=vol.padded_dims)
    cfg = SpinConfiguration(vol, spins)
    twice = layout.stagger(layout.stagger(cfg))
    assert np.array_equal(twice.spins, cfg.spins)

    neel = layout.from_function(
        vol, "hom_plus", lambda k: layout.sublattice_sign(k)
    )
    # interior becomes uniformly +1 under staggering
    ferro = layout.stagger(neel)
    for site in vol.sites():
        assert layout.spin(ferro, site) == 1

    plus = SpinConfiguration.from_boundary(vol, "hom_plus")
    sig = layout.stagger(plus)
    for site in vol.sites():
        assert layout.spin(sig, site) == layout.sublattice_sign(site)


def _walk_oracle(sites):
    """Permutation brute force over cyclic visiting orders with L1 legs."""
    pts = sorted(set(sites))
    if len(pts) == 1:
        return 0
    first, rest = pts[0], pts[1:]
    best = None
    for perm in itertools.permutations(rest):
        tour = (first,) + perm
        length = sum(
            sum(abs(a - b) for a, b in zip(tour[i], tour[(i + 1) % len(tour)]))
            for i in range(len(tour))
        )
        best = length if best is None else min(best, length)
    return best


def _full_set(sites):
    """(g, connected) of the whole site set, read off the full mask."""
    tour, connected = subset_walks(sites, len(sites))
    return int(tour[-1]) - 1, bool(connected[-1])


def test_connectivity_g_examples():
    assert _full_set([(0, 0, 0), (1, 0, 0)]) == (1, True)
    assert _full_set([(0, 0, 0), (1, 0, 0), (2, 0, 0)]) == (3, True)
    assert _full_set([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == (3, True)


def test_connectivity_g_rejects_disconnected():
    """Disconnected supports are flagged not connected, on the full mask and on
    every mask that holds them, while the walk measure stays defined for them."""
    assert _full_set([(0, 0, 0), (1, 1, 0)]) == (3, False)
    assert _full_set([(0, 0, 0), (2, 0, 0)]) == (3, False)
    tour, connected = subset_walks([(0, 0, 0), (2, 0, 0), (1, 0, 0)], 3)
    assert not connected[0b011] and tour[0b011] - 1 == 3
    assert connected[0b111] and tour[0b111] - 1 == 3


def test_connectivity_g_matches_brute_force_oracle():
    """Every subset of up to 6 sites of a 3x2x2 window, connected or not,
    against the permutation oracle and the breadth-first search."""
    window = sorted(itertools.product(range(3), range(2), range(2)))
    tour, connected = subset_walks(window, 6)
    checked = 0
    for mask in range(1, 1 << len(window)):
        subset = [p for i, p in enumerate(window) if mask >> i & 1]
        if len(subset) > 6:
            assert tour[mask] == -1
            continue
        assert tour[mask] == _walk_oracle(subset)
        assert connected[mask] == is_connected(subset)
        checked += 1
    assert checked == sum(math.comb(12, k) for k in range(1, 7))


_NEAR = st.tuples(st.integers(-1, 2), st.integers(-1, 2), st.integers(-1, 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(_NEAR, min_size=1, max_size=10, unique=True), st.integers(1, 10))
@example([(2, 1, 0), (0, 0, 0), (1, 2, 0), (0, 1, 0), (2, 2, 0), (1, 0, 0), (0, 2, 0),
          (2, 0, 0), (1, 1, 0), (-1, -1, 1)], 10)  # a shuffled 3x3 plaquette and a far site
def test_subset_walks_match_per_set_oracle(pts, max_size):
    """Every subset of a site set in arbitrary order, connected or not: the
    one subset DP against one Held-Karp run and one BFS per subset."""
    tour, connected = subset_walks(pts, max_size)
    assert tour[0] == -1 and not connected[0]
    for mask in range(1, 1 << len(pts)):
        subset = [p for i, p in enumerate(pts) if mask >> i & 1]
        assert connected[mask] == is_connected(subset)
        assert tour[mask] == (held_karp_tour(subset) if len(subset) <= max_size else -1)


def test_subset_walks_rejects_repeated_sites():
    with pytest.raises(ValueError):
        subset_walks([(0, 0, 0), (1, 0, 0), (0, 0, 0)], 3)


def test_shell_consistency_flag():
    vol = Volume(dims=(3, 3, 3), shell=1)
    cfg = SpinConfiguration.from_boundary(vol, "bc100")
    assert layout.shell_consistent(cfg)
    cfg2 = cfg.with_flip((0, 0, 0))
    assert layout.shell_consistent(cfg2)  # interior flips never touch the shell
    with pytest.raises(ValueError):
        cfg.with_flip((5, 5, 5))
    spins = cfg.spins.copy()
    spins[vol.index((2, 0, 0))] *= -1  # a shell site, next to the box
    assert not layout.shell_consistent(cfg.with_spins(spins))


_VOLUMES = st.builds(
    Volume,
    dims=st.tuples(*[st.integers(1, 5)] * 3),
    shell=st.integers(1, 3),
    lo=st.tuples(*[st.integers(-6, 4)] * 3),
)


@settings(max_examples=60, deadline=None)
@given(_VOLUMES, st.sampled_from(sorted(layout.PRESCRIPTIONS)))
def test_from_boundary_matches_per_site_loop(vol, bc):
    got = SpinConfiguration.from_boundary(vol, bc)
    expect = layout.from_boundary(vol, bc)
    assert got.bc == bc and np.array_equal(got.spins, expect.spins)
    assert layout.shell_consistent(got)


@settings(max_examples=30, deadline=None)
@given(_VOLUMES)
def test_coords_and_box_follow_the_padded_layout(vol):
    coords = vol.coords()
    assert coords.shape == (3, *vol.padded_dims)
    for site in layout.padded_sites(vol):
        assert tuple(coords[(slice(None),) + vol.index(site)]) == site
    box = coords[(slice(None),) + vol.box].reshape(3, -1)
    assert [tuple(k) for k in box.T] == list(vol.sites())


def _bfs_components(keys):
    """Reference partition: breadth-first search over items sharing a key,
    started from each unvisited item in index order."""
    holders = {}
    for i, ks in enumerate(keys):
        for k in ks:
            holders.setdefault(k, []).append(i)
    seen = set()
    out = []
    for i in range(len(keys)):
        if i in seen:
            continue
        seen.add(i)
        comp, frontier = [], [i]
        while frontier:
            j = frontier.pop()
            comp.append(j)
            for k in keys[j]:
                for m in holders[k]:
                    if m not in seen:
                        seen.add(m)
                        frontier.append(m)
        out.append(comp)
    return out


_KEY = st.one_of(st.integers(0, 25), st.tuples(st.integers(0, 3), st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_KEY, max_size=4), max_size=40))
# long inputs, past the drawn lists' 40 items: a chain listed from its far end;
# 3000 singletons linked root to root, a tree 3000 deep that the last pass's
# path halving walks; a star (a hub and its leaves); items without keys
@example([(i, i + 1) for i in reversed(range(3000))])
@example([(i,) for i in range(3000)] + [(i, i + 1) for i in range(2999)])
@example([tuple(range(3000))] + [(i,) for i in reversed(range(3000))])
@example([(), (0,), (), (0, 1), (), (1,), ()])
def test_components_matches_bfs_oracle(keys):
    got = components(iter(keys))
    expect = _bfs_components(keys)
    # the same partition ...
    assert sorted(map(sorted, got)) == sorted(map(sorted, expect))
    # ... each group in ascending order, groups ordered by their first index
    assert all(g == sorted(g) for g in got)
    assert [g[0] for g in got] == [min(c) for c in expect]


def _assert_least_row_labels(ids, lab):
    """``lab`` is the partition of ``_bfs_components`` on the rows of ``ids``,
    each row labelled with the least row of its component."""
    want = [0] * len(ids)
    for comp in _bfs_components(ids.tolist()):
        for i in comp:
            want[i] = min(comp)
    assert lab.tolist() == want


_ID_ARRAYS = st.integers(0, 40).flatmap(lambda n: st.integers(0, 4).flatmap(
    lambda m: st.lists(st.lists(st.integers(0, 30), min_size=m, max_size=m),
                       min_size=n, max_size=n).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(n, m))))


@settings(max_examples=200, deadline=None)
@given(_ID_ARRAYS)
@example(np.zeros((0, 4), dtype=np.int64))
@example(np.array([[3, 3, 3, 3], [1, 2, 1, 2], [2, 2, 5, 5], [7, 7, 7, 7]]))
def test_label_rows_matches_bfs_oracle(ids):
    """Rows sharing an id (ids may repeat within a row) get one label, the
    least row of their component; an empty array has no labels."""
    _assert_least_row_labels(ids, _label_rows(ids))


def test_label_rows_on_a_permuted_path():
    """A 5000-row path whose rows are numbered in a random order: neighbours
    on the path share an id, so the labels need several hooking rounds."""
    n = 5000
    perm = np.random.default_rng(5).permutation(n)
    ids = np.empty((n, 2), dtype=np.int64)
    ids[perm] = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    assert _label_rows(ids).tolist() == [0] * n
    # cut the path in the middle: two components, each labelled by its least row
    ids[perm[n // 2:]] += n + 1
    _assert_least_row_labels(ids, _label_rows(ids))


def test_library_caps_raise_cap_exceeded():
    from fklab.quantum import FKParameters, effective_energy, extract_couplings
    from fklab.rcontour import minimal_rhombus_cover
    from fklab.tiling import enumerate_tilings, hexagon_region

    params = FKParameters(U=8.0, beta=8.0)
    line = [(i, 0, 0) for i in range(11)]
    with pytest.raises(CapExceeded):
        subset_walks(line, 11)
    sites16 = [(i, j, 0) for i in range(4) for j in range(4)]
    with pytest.raises(CapExceeded):
        effective_energy(sites16, {s: 0 for s in sites16}, params)
    with pytest.raises(CapExceeded):
        extract_couplings(sites16[:13], params, max_g=3)
    with pytest.raises(CapExceeded):  # supports of 11 sites could reach max_g
        extract_couplings(line, params, max_g=10)
    with pytest.raises(CapExceeded):
        enumerate_tilings(hexagon_region(4))
    assert minimal_rhombus_cover(hexagon_region(3).triangles) == 27
    # the padded-site cap holds at its boundary, raised before any array is built
    assert math.prod(Volume(dims=(126, 126, 126), shell=1).padded_dims) == MAX_PADDED_SITES
    with pytest.raises(CapExceeded):
        Volume(dims=(127, 126, 126), shell=1)
