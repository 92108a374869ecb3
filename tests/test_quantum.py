"""Free-fermion effective energies against the Fock-space oracle, coupling
extraction and its symmetry reduction, decay."""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from fock_oracle import fock_blocks, fock_energy, fock_spectrum
from hypothesis import given, settings
from hypothesis import strategies as st
from orbit_reference import brute_orbits, neel_base, unreduced_coeffs
from walk_reference import support_table

from fklab import quantum
from fklab.lattice import Volume
from fklab.quantum import (
    CouplingTable,
    FKParameters,
    _orbits,
    effective_energy,
    extract_couplings,
    neel_ion,
    verify_decay,
)

CHAIN2 = [(0, 0, 0), (1, 0, 0)]
PLAQ4 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]


def test_one_site_spectrum_and_energy():
    p = FKParameters(U=8.0, beta=80.0)
    site = (0, 0, 0)
    assert sorted(fock_spectrum([site], {site: 1}, p)) == pytest.approx([-8.0, 0.0])
    # H_eff = -(1/beta) log(e^{beta U} + 1), exactly
    expected = -(1 / p.beta) * math.log(math.exp(p.beta * p.U) + 1.0)
    assert effective_energy([site], {site: 1}, p) == pytest.approx(expected, abs=1e-12)


def test_two_site_single_electron_block():
    p = FKParameters(U=32.0, beta=320.0)
    mat = fock_blocks(CHAIN2, {CHAIN2[0]: 1, CHAIN2[1]: 0}, p)[1]
    ev = sorted(np.linalg.eigvalsh(mat))
    root = math.sqrt(p.U**2 + p.t**2)
    assert ev == pytest.approx([-p.U - root, -p.U + root], abs=1e-10)


def test_t0_hamiltonian_is_diagonal():
    p = FKParameters(U=8.0, beta=16.0, t=0.0)
    ion = {PLAQ4[0]: 1, PLAQ4[1]: 0, PLAQ4[2]: 1, PLAQ4[3]: 1}
    for mat in fock_blocks(PLAQ4, ion, p).values():
        assert np.allclose(mat, np.diag(np.diag(mat)))
    # the effective energy factorizes over sites at t=0
    per_site = sum(
        -(1 / p.beta) * math.log(1 + math.exp(-p.beta * (2 * p.U * w - p.mu_e)))
        - p.mu_i * w
        for w in ion.values()
    )
    assert effective_energy(PLAQ4, ion, p) == pytest.approx(per_site, abs=1e-10)


def test_blocks_commute_with_number_operator():
    # block-diagonal construction is exact: hopping preserves electron number,
    # so eigenvalues collected per sector reproduce the full trace
    p = FKParameters(U=4.0, beta=8.0)
    ion = {s: neel_ion(s) for s in PLAQ4}
    blocks = fock_blocks(PLAQ4, ion, p)
    assert sum(m.shape[0] for m in blocks.values()) == 2 ** len(PLAQ4)
    assert np.all(np.isfinite(fock_spectrum(PLAQ4, ion, p)))
    assert effective_energy(PLAQ4, ion, p) == pytest.approx(fock_energy(PLAQ4, ion, p), abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2, 1), (2, 2, 2), (3, 2, 2)])
def test_free_fermion_trace_matches_fock_oracle(dims):
    sites = list(Volume(dims=dims, shell=1).sites())
    rng = np.random.default_rng(sum(dims))
    cases = [dict(U=U, beta=beta)
             for U, beta in ((4.0, 8.0), (8.0, 128.0), (16.0, 256.0), (32.0, 512.0))]
    # a hot point off half filling, where levels near zero weigh in the trace
    cases.append(dict(U=2.0, beta=1.5, t=0.7, mu_e=1.0, mu_i=2.5))
    for kw in cases:
        p = FKParameters(**kw)
        ion = {s: int(rng.integers(0, 2)) for s in sites}
        assert abs(effective_energy(sites, ion, p) - fock_energy(sites, ion, p)) <= 1e-11


def test_site_relabeling_invariance():
    p = FKParameters(U=8.0, beta=40.0)
    ion = {PLAQ4[0]: 1, PLAQ4[1]: 0, PLAQ4[2]: 0, PLAQ4[3]: 1}
    e1 = effective_energy(PLAQ4, ion, p)
    shuffled = [PLAQ4[2], PLAQ4[0], PLAQ4[3], PLAQ4[1]]
    e2 = effective_energy(shuffled, ion, p)
    assert e1 == pytest.approx(e2, abs=1e-10)


def test_nearest_neighbour_coupling_value():
    for U in (16.0, 32.0):
        p = FKParameters(U=U, beta=10 * U)
        table = extract_couplings(CHAIN2, p, max_g=3)
        J = table.value(CHAIN2)
        assert abs(4 * U * J - 1) <= 0.05
        # exact two-site value: J = (sqrt(U^2 + 1) - U)/2 up to thermal terms
        assert J == pytest.approx((math.sqrt(U**2 + 1) - U) / 2, abs=1e-9)


def test_coupling_tail_is_u_cubed():
    tails = {}
    for U in (16.0, 32.0):
        p = FKParameters(U=U, beta=10 * U)
        J = extract_couplings(CHAIN2, p, max_g=3).value(CHAIN2)
        tails[U] = abs(J - 1 / (4 * U))
    assert tails[16.0] / tails[32.0] >= 4.0  # expected ~8x


def test_reconstruction_identity():
    p = FKParameters(U=16.0, beta=160.0)
    table = extract_couplings(PLAQ4, p, max_g=4)
    for mask in range(16):
        ion = {s: (mask >> i) & 1 for i, s in enumerate(PLAQ4)}
        he = effective_energy(PLAQ4, ion, p)
        assert abs(table.synthesize(ion) - he) <= 1e-9 * max(1.0, abs(he))


_CUBE = list(Volume(dims=(2, 2, 2), shell=1).sites())
_FACE = [s for s in _CUBE if s[2] == _CUBE[0][2]]


@settings(max_examples=40, deadline=None)
@given(
    U=st.floats(4.0, 64.0),
    beta_u=st.floats(1.0, 20.0),
    window=st.permutations(_FACE),
    mask=st.integers(0, 15),
)
def test_synthesize_reproduces_effective_energy(U, beta_u, window, mask):
    """A 4-site window, in any site order, inside a 2x2x2 cluster whose
    exterior is frozen to the checkerboard."""
    p = FKParameters(U=U, beta=beta_u * U)
    table = extract_couplings(_CUBE, p, max_g=4, window=window)
    ion = {s: neel_ion(s) for s in _CUBE}
    ion.update({s: (mask >> i) & 1 for i, s in enumerate(window)})
    assert abs(table.synthesize(ion) - effective_energy(_CUBE, ion, p)) <= 1e-9


_CUBE_PARAMS = FKParameters(U=16.0, beta=256.0)
_CUBE_TABLE = extract_couplings(_CUBE, _CUBE_PARAMS, max_g=4)


@settings(max_examples=15, deadline=None)
@given(window=st.permutations(_CUBE))
def test_permuted_window_matches_per_support_oracle(window):
    """The whole 2x2x2 cube as a window, in any site order: every entry's g
    and connectedness equal the per-support oracle's, and every value equals
    the sorted-window table's."""
    table = extract_couplings(_CUBE, _CUBE_PARAMS, max_g=4, window=window)
    got = {e.sites: (e.g, e.connected) for e in table.entries}
    assert got == support_table(window, max_g=4)
    for e in table.entries:
        assert e.value == pytest.approx(_CUBE_TABLE.value(e.sites), abs=1e-12)


def _orbit_partition(sites, window, base):
    """``_orbits`` as sorted member lists ordered by their least member; each
    representative is its orbit's least member."""
    reps, orbit = _orbits(sites, window, base)
    members = [np.flatnonzero(orbit == k).tolist() for k in range(len(reps))]
    assert [m[0] for m in members] == reps.tolist()
    return members


_L12_WINDOW = [(-1, -1, -1), (0, -1, -1), (-1, 0, -1), (0, 0, -1)]


@pytest.mark.parametrize("dims, window, count", [
    ((2, 2, 2), None, 22),
    ((3, 2, 2), None, 378),
    ((2, 2, 3), None, 378),
    ((3, 2, 2), _L12_WINDOW, 16),
], ids=["2x2x2", "3x2x2", "2x2x3", "3x2x2-face"])
def test_orbits_match_brute_force_partition(dims, window, count):
    """Whole boxes as windows (orbit counts by Burnside's lemma) and the
    4-site face of the 3x2x2 cluster, whose checkerboard exterior leaves
    only the identity."""
    sites = list(Volume(dims=dims, shell=1).sites())
    window = window or sites
    sites, base = neel_base(sites, window)
    got = _orbit_partition(sites, window, base)
    assert len(got) == count
    assert got == brute_orbits(sites, window, base)


_BOX3 = list(itertools.product(range(3), repeat=3))
_SHAPES = (
    [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0)],                   # L
    [(x, y, z) for x, y in ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2)) for z in (0, 1)],  # two-layer L
    [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 2, 0)],                   # T
    [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (1, 2, 0), (1, 1, 1)],        # cross
)


@st.composite
def _clusters(draw):
    """A box of up to 12 sites, an irregular shape or a random subset of a
    3x3x3 box, shifted; a window of up to 8 of its sites in shuffled order."""
    kind = draw(st.sampled_from(["box", "shape", "subset"]))
    if kind == "box":
        dims = draw(st.sampled_from([d for d in itertools.product(range(1, 5), repeat=3)
                                     if math.prod(d) <= 12]))
        sites = list(Volume(dims=dims, shell=1).sites())
    else:
        sites = (draw(st.sampled_from(_SHAPES)) if kind == "shape"
                 else draw(st.lists(st.sampled_from(_BOX3), min_size=1, max_size=12, unique=True)))
        shift = draw(st.tuples(*[st.integers(-2, 2)] * 3))
        sites = [tuple(c + d for c, d in zip(s, shift)) for s in sites]
    window = draw(st.permutations(sites))[:draw(st.integers(1, min(8, len(sites))))]
    return sites, window


@settings(max_examples=40, deadline=None)
@given(
    cluster=_clusters(),
    U=st.floats(1.0, 32.0),
    beta=st.floats(0.05, 20.0),
    t=st.floats(-2.0, 2.0),
    mu_e=st.floats(-10.0, 40.0),
    mu_i=st.floats(-10.0, 40.0),
)
def test_orbit_reduced_extraction_matches_unreduced_oracle(cluster, U, beta, t, mu_e, mu_i):
    """The coefficient vector equals the dense Walsh sum of every bitmask's
    own eigensolve within 1e-12 times the largest |energy| (eigvalsh is
    backward stable: a permuted matrix moves each level by a few ulps of its
    norm); ``_orbits`` gives the brute-force partition; and every bitmask of
    an orbit enters the transform with bitwise the same energy."""
    sites, window = cluster
    params = FKParameters(U=U, beta=beta, t=t, mu_e=mu_e, mu_i=mu_i)
    walsh = quantum._walsh_transform
    transformed = []

    def spy(values):
        transformed.append(values.copy())
        return walsh(values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantum, "_walsh_transform", spy)
        table = extract_couplings(sites, params, max_g=2, window=window)
    coeffs, energies = unreduced_coeffs(sites, window, params)
    assert np.abs(table._coeffs - coeffs).max() <= 1e-12 * max(1.0, np.abs(energies).max())
    sites, base = neel_base(sites, window)
    orbits = brute_orbits(sites, window, base)
    assert _orbit_partition(sites, window, base) == orbits
    (used,) = transformed
    for members in orbits:
        assert np.unique(used[members].view(np.uint64)).size == 1


@pytest.mark.parametrize("occupation", [0.5, 2, -1])
@pytest.mark.parametrize("energy", [
    lambda ion, p: effective_energy(CHAIN2, ion, p),
    lambda ion, p: extract_couplings(CHAIN2, p, max_g=1).synthesize(ion),
], ids=["effective_energy", "synthesize"])
def test_occupations_other_than_0_1_rejected(energy, occupation):
    """0.5 used to be truncated to 0 by effective_energy and read as 1 by
    synthesize, and synthesize took 2 as 1; both now name the site."""
    ion = {CHAIN2[0]: occupation, CHAIN2[1]: 1}
    with pytest.raises(ValueError, match=r"\(0, 0, 0\)"):
        energy(ion, FKParameters(U=8.0, beta=50.0))


def test_malformed_window_rejected():
    p = FKParameters(U=16.0, beta=160.0)
    with pytest.raises(ValueError):
        extract_couplings(PLAQ4, p, max_g=3, window=[PLAQ4[0], PLAQ4[1], PLAQ4[0]])
    with pytest.raises(ValueError):
        extract_couplings(PLAQ4, p, max_g=-1)


def test_t0_couplings_vanish():
    p = FKParameters(U=16.0, beta=64.0, t=0.0)
    table = extract_couplings(PLAQ4, p, max_g=4)
    for e in table.entries:
        if e.size >= 2:
            assert abs(e.value) < 1e-12
    assert verify_decay(table).trivial


def test_half_filling_spin_flip_symmetry():
    p = FKParameters(U=16.0, beta=160.0)
    for mask in range(16):
        ion = {s: (mask >> i) & 1 for i, s in enumerate(PLAQ4)}
        comp = {s: 1 - w for s, w in ion.items()}
        a = effective_energy(PLAQ4, ion, p)
        b = effective_energy(PLAQ4, comp, p)
        assert a == pytest.approx(b, abs=1e-9)


def test_beta_stability_of_couplings():
    """Tables at beta and 2 beta agree to 1e-3 relative for beta*U >= 100."""
    U = 16.0
    t1 = extract_couplings(PLAQ4, FKParameters(U=U, beta=16.0), max_g=3)
    t2 = extract_couplings(PLAQ4, FKParameters(U=U, beta=32.0), max_g=3)
    for e1, e2 in zip(t1.entries, t2.entries):
        assert e1.sites == e2.sites
        if abs(e1.value) > 1e-12:
            assert abs(e1.value - e2.value) <= 1e-3 * abs(e1.value)


def test_largest_betas_are_warning_free_and_equal_the_zero_temperature_limit():
    """beta |eps| overflows past beta ~ 1e308; e^-inf = 0 is the limit, so the
    table equals the one at beta = 1e300, bit for bit, without a warning."""
    def values(beta):
        table = extract_couplings(CHAIN2, FKParameters(U=8.0, beta=beta), max_g=2)
        return table.constant, [(e.sites, e.value) for e in table.entries]

    want = values(1e300)
    assert want[1][-1] == (tuple(CHAIN2), 0.031128874149274566)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (1e308, sys.float_info.max):
            assert values(beta) == want


def test_decay_levels_and_u_suppression():
    p16 = FKParameters(U=16.0, beta=256.0)
    rep16 = verify_decay(extract_couplings(PLAQ4, p16, max_g=4))
    assert rep16.levels[3] < rep16.levels[1]
    assert rep16.decreasing
    assert rep16.c is not None and rep16.c / 16.0 < 1.0

    p8 = FKParameters(U=8.0, beta=128.0)
    rep8 = verify_decay(extract_couplings(PLAQ4, p8, max_g=4))
    assert rep8.levels[3] / rep16.levels[3] >= 4.0


def test_plaquette_coupling_scaling():
    vals = {}
    for U in (8.0, 16.0, 32.0):
        p = FKParameters(U=U, beta=20 * U)
        vals[U] = extract_couplings(PLAQ4, p, max_g=4).value(PLAQ4)
    # sign consistent and ratio close to (U1/U2)^3 = 8 within 20%
    assert all(v > 0 for v in vals.values())
    for a, b in ((8.0, 16.0), (16.0, 32.0)):
        assert vals[a] / vals[b] == pytest.approx(8.0, rel=0.2)


def test_window_with_frozen_exterior():
    """A 2-site window inside a 2x2x1 volume with checkerboard exterior."""
    p = FKParameters(U=16.0, beta=160.0)
    table = extract_couplings(PLAQ4, p, max_g=3, window=CHAIN2)
    assert len(table.window) == 2
    J = table.value(CHAIN2)
    assert abs(4 * p.U * J - 1) <= 0.2  # window values differ from bulk but stay O(1/4U)


def test_parameters_reject_bad_values():
    for bad in (dict(beta=0.0), dict(beta=-5.0), dict(beta=math.nan), dict(beta=math.inf),
                dict(U=math.nan), dict(t=math.inf), dict(mu_e=math.nan), dict(mu_i=-math.inf)):
        with pytest.raises(ValueError):
            FKParameters(**{"U": 8.0, "beta": 8.0, **bad})
    with pytest.raises(ValueError, match="beta"):   # subnormal: 1/beta overflows
        FKParameters(U=8.0, beta=1e-320)
    assert FKParameters(U=8.0, beta=1e-300).beta == 1e-300
    assert FKParameters(U=8.0, beta=8.0, t=0.0).t == 0.0  # the atomic limit stays legal


def test_caps():
    with pytest.raises(ValueError):
        effective_energy(
            [(i, j, 0) for i in range(4) for j in range(4)],
            {(i, j, 0): 0 for i in range(4) for j in range(4)},
            FKParameters(U=8.0, beta=8.0),
        )
    big = [(i, j, 0) for i in range(7) for j in range(2)]
    with pytest.raises(ValueError):
        extract_couplings(big, FKParameters(U=8.0, beta=8.0), max_g=3)


def test_table_json_roundtrip():
    p = FKParameters(U=16.0, beta=160.0)
    table = extract_couplings(CHAIN2, p, max_g=3)
    doc = table.to_json()
    back = CouplingTable.from_json(doc)
    assert back.U == table.U and back.beta == table.beta
    assert [e.sites for e in back.entries] == [e.sites for e in table.entries]
    assert back.value(CHAIN2) == pytest.approx(table.value(CHAIN2), abs=1e-15)
