"""Integer edge ids against the face-set oracle in ``contour_reference``.

``extract_contours`` and ``good_pair_fraction_of_faces`` must return exactly
what the frozenset-edge path returns, in the same order, the array projection
of ``tiling._project_faces`` the same rhombi, coverage, edge classes and
lambda links, and ``decompose`` the same bases and contours, on random boxes
of up to 5^3 sites under every kind of boundary condition, at any
``Volume.lo``, and on face sets that are not minimal interfaces (omega edges,
overlapping triangles).
``extract_contours`` is also compared on 9^3 interfaces, and ``face_keys``
against the points it encodes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contour_reference as ref
import tiling_reference
from fklab.classical import ModelCoefficients, extract_contours, face_keys, face_sides
from fklab.lattice import SpinConfiguration, Volume
from fklab.mc import RunSpec, mc_run
from fklab.rcontour import decompose
from fklab.tiling import good_pair_fraction_of_faces

CO = ModelCoefficients(U=8.0)
FIELDS = ("rhombus_multiplicity", "coverage", "good_edges", "delta_edges", "omega_edges",
          "lambda_links")


def _fields(rc):
    """Every dict of a configuration."""
    return [getattr(rc, name) for name in FIELDS]


def _decomposition(fn, faces):
    """``fn(faces)`` field for field, or the AssertionError it raises (the
    random halves below are no interfaces, and may have an odd overlap)."""
    def fields():
        deco = fn(faces)
        return deco.bases, deco.contours, deco.to_json(CO)

    return _outcome(fields)


def _vertex_lists(x):
    """The sort key of a rhombus or an edge: its parts as sorted lists, least first."""
    return sorted(sorted(p) if isinstance(p, frozenset) else p for p in x)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AssertionError as exc:
        return ("AssertionError", str(exc))


def _config(dims, bc, shell, lo, seed, density):
    vol = Volume(dims=dims, shell=shell, lo=lo)
    spins = SpinConfiguration.from_boundary(vol, bc).spins.copy()
    rng = np.random.default_rng(seed)
    box = spins[vol.box]
    box[rng.random(box.shape) < density] *= -1
    return SpinConfiguration(vol, spins, bc=bc)


configs = st.builds(
    _config,
    dims=st.tuples(*[st.integers(1, 5)] * 3),
    bc=st.sampled_from(["hom_plus", "bc100", "bc111"]),
    shell=st.integers(1, 2),
    # far from the origin; the second form keeps the 111 plane inside the box
    lo=st.one_of(st.none(), st.tuples(*[st.integers(-2000, 2000)] * 3),
                 st.builds(lambda a, b, s: (a, b, s - a - b), st.integers(-2000, 2000),
                           st.integers(-2000, 2000), st.integers(-8, 2))),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 0.6),
)
FAR = _config((5, 5, 5), "hom_plus", 2, (1000, -1000, 7), 3, 0.3)
FAR_111 = _config((5, 5, 5), "bc111", 2, (1000, -1000, -4), 3, 0.2)


def _chain(beta, replica):
    """The final configuration of a 9^3 bc111 h2 chain at U = 4."""
    spec = RunSpec(dims=(9, 9, 9), bc="bc111", hamiltonian="h2", U=4.0, beta=beta,
                   sweeps=400, thermalization=200, seed=202, measure_stride=200)
    return mc_run(spec, replica=replica).final_config


# interface scale: bc111 chains whose degenerate interface wandered off the
# staircase (cold), gained area (warm) or has bubbles beside it (hot), and
# bc100 boxes with about 60 bulk flips
ROUGH_111 = [_chain(40.0 * 4.0**3, 0), _chain(8.0, 0), _chain(5.0, 1)]
SPRINKLED_100 = [_config((9, 9, 9), "bc100", 2, None, seed, 0.08) for seed in (0, 1)]


@settings(max_examples=80, deadline=None)
@given(config=configs)
@example(config=FAR)
@example(config=FAR_111)
@example(config=ROUGH_111[0])
@example(config=ROUGH_111[1])
@example(config=ROUGH_111[2])
@example(config=SPRINKLED_100[0])
@example(config=SPRINKLED_100[1])
def test_extract_contours_matches_face_set_oracle(config):
    want = _outcome(ref.extract_contours, config)
    got = _outcome(extract_contours, config)
    assert got == want
    if isinstance(want, list):
        # the same frozensets, built in the same insertion order
        assert [list(c.faces) for c in got] == [list(c.faces) for c in want]


def test_interface_scale_examples():
    """The 9^3 examples are what they stand for: chains off the staircase,
    bubbles in the hot chain and the sprinkled boxes; a 9^3 hom_plus box
    without flips has no contours."""
    for config in ROUGH_111:
        staircase = SpinConfiguration.from_boundary(config.volume, "bc111")
        assert np.count_nonzero(config.spins != staircase.spins) > 30
    assert len(extract_contours(ROUGH_111[-1])) > 1
    assert all(len(extract_contours(config)) > 10 for config in SPRINKLED_100)
    assert extract_contours(SpinConfiguration.from_boundary(Volume(dims=(9, 9, 9)), "hom_plus")) == []


_COORD = st.integers(-2000, 2000)
# faces near one anchor share sides; far ones use the whole range
_FACES = st.one_of(
    st.tuples(st.tuples(*[st.integers(-2000, 1998)] * 3),
              st.lists(st.tuples(*[st.integers(0, 2)] * 3, st.integers(0, 2)), max_size=30)).map(
        lambda t: [(*(a + o for a, o in zip(t[0], f[:3])), f[3]) for f in t[1]]),
    st.lists(st.tuples(_COORD, _COORD, _COORD, st.integers(0, 2)), max_size=30),
)


@settings(max_examples=150, deadline=None)
@given(_FACES)
def test_face_keys_encode_sides(faces):
    """Two sides get equal ids exactly when ``face_sides`` gives them equal
    points."""
    rows = np.array(faces, dtype=np.int64).reshape(-1, 4)
    k, mu = rows[:, :3], rows[:, 3]
    low, axis = face_sides(k, mu)
    points = np.concatenate([low, axis[..., None]], axis=-1)
    ids = face_keys(k, mu)
    assert ids.shape == (len(k), 4)
    pairs = set(zip(ids.ravel().tolist(), map(tuple, points.reshape(-1, 4).tolist())))
    # a bijection between the ids and the points
    assert len(pairs) == len({i for i, _ in pairs}) == len({p for _, p in pairs})


def _face_sets(config, seed):
    """Every contour, their union and a random half of the broken faces (a
    mixed box whose shell carries no interface has no contours)."""
    contours = _outcome(ref.extract_contours, config)
    if not isinstance(contours, list):
        contours = []
    faces, _ = ref.broken_faces(config)
    rng = np.random.default_rng(seed)
    half = [f for f in faces if rng.random() < 0.5]
    return [c.faces for c in contours] + [[f for c in contours for f in c.faces], half, []]


@settings(max_examples=80, deadline=None)
@given(config=configs, seed=st.integers(0, 2**32 - 1))
@example(config=FAR, seed=1)
@example(config=FAR_111, seed=1)
def test_edge_classes_match_face_set_oracle(config, seed):
    for faces in _face_sets(config, seed):
        want = _outcome(ref.rconfiguration_from_faces, faces)
        got = _outcome(ref.projected, faces)
        if isinstance(got, ref.RConfiguration):
            assert _fields(got) == _fields(want)
            # rhombi by their least triangle, edges by their ends, links sorted
            for d in _fields(got)[:1] + _fields(got)[2:5]:
                assert list(d) == sorted(d, key=_vertex_lists)
            assert list(got.lambda_links) == sorted(got.lambda_links)
        else:
            assert got == want
        assert _decomposition(decompose, faces) == \
            _decomposition(lambda fs: tiling_reference.decompose(ref.rconfiguration_from_faces(fs)), faces)
        assert _outcome(good_pair_fraction_of_faces, faces) == \
            _outcome(ref.good_pair_fraction_of_faces, faces)


def test_oracle_cases_reach_every_edge_class():
    """The face sets above include omega edges, overlaps, delta edges and
    3-face edges, so the comparisons are not vacuous."""
    seen = {"omega": 0, "delta": 0, "overlap": 0, "three": 0, "empty": 0}
    for seed in range(12):
        bc = ("hom_plus", "bc100", "bc111")[seed % 3]
        config = _config((5, 5, 5), bc, 2, (1000, -1000, -4), seed, 0.05 + 0.04 * seed)
        for faces in _face_sets(config, seed):
            rc = _outcome(ref.rconfiguration_from_faces, faces)
            if not isinstance(rc, ref.RConfiguration):
                seen["three"] += 1
                continue
            seen["omega"] += bool(rc.omega_edges)
            seen["delta"] += bool(rc.delta_edges)
            seen["overlap"] += bool(rc.overlapping_triangles)
            seen["empty"] += not rc.coverage
    assert all(seen.values()), seen


@pytest.mark.parametrize("lo", [None, (1000, -1000, 7)])
def test_empty_face_set(lo):
    config = SpinConfiguration.from_boundary(Volume(dims=(3, 3, 3), lo=lo), "hom_plus")
    assert extract_contours(config) == [] == ref.extract_contours(config)
    assert good_pair_fraction_of_faces([]) == (1.0, False) == ref.good_pair_fraction_of_faces([])
    assert _fields(ref.projected([])) == [{}] * len(FIELDS)
    assert decompose([]).bases == [] == decompose([]).contours


def test_sparse_face_set_decomposes_without_a_plane_box():
    """Two face pairs whose projections lie about 600 steps apart (a plane
    box of 366025 vertices) decompose as the oracle does: the grouping
    numbers only the projection's own triangles and vertices, so no box is
    built and no box cap applies.  One pair is a base, the other a contour."""
    faces = [((0, 0, 0), 0), ((0, 0, 0), 1), ((600, -600, 0), 2), ((601, -600, 0), 2)]
    got = _decomposition(decompose, faces)
    assert got == _decomposition(lambda fs: tiling_reference.decompose(ref.rconfiguration_from_faces(fs)), faces)
    assert got[2]["bases"] == [{"type": 2, "size": 2, "boundary": True}]
    assert [c["std_delta"] for c in got[2]["contours"]] == [[1]]
