"""Free-fermion effective energies against the Fock-space oracle, coupling
extraction, decay."""

import math

import numpy as np
import pytest
from fock_oracle import fock_blocks, fock_energy, fock_spectrum
from hypothesis import given, settings
from hypothesis import strategies as st
from walk_reference import support_table

from fklab.lattice import Volume
from fklab.quantum import (
    CouplingTable,
    FKParameters,
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
