"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS line with its runtime (visible with
``pytest -s``); tolerances are pinned here and nowhere else.  Run order
follows the criterion numbering.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fklab.bounds import big_b, find_b0, lambda0, polymer_report, q_of_b, PolymerInputs
from fklab.classical import (
    ModelCoefficients,
    contour_energy,
    extract_contours,
    h4_relative_energy,
    nnn_potential,
    plaquette_potential,
    h2_relative_energy,
)
from fklab.lattice import Volume
from fklab.mc import RunSpec, layer_magnetization, mc_run
from fklab.quantum import FKParameters, extract_couplings, verify_decay
from fklab.rcontour import decompose_tiling, dobrushin_remove
from fklab.tiling import (
    config_from_heights,
    degeneracy_bounds_check,
    enumerate_tilings,
    hexagon_region,
    interface_to_tiling,
    r0_closure,
    random_tiling,
    rhombus_corners,
    tiling_heights,
    tiling_to_interface,
)
from layout_reference import from_function
from plane_reference import rhombus_type


def _report(n: int, started: float, detail: str):
    print(f"[criterion {n:2d}] PASS ({time.time() - started:5.1f}s)  {detail}", flush=True)


def test_criterion_1_potential_tables():
    """h_p and h_{x,z} reproduce the tabulated values on all patterns."""
    t0 = time.time()
    expected_hp = {}
    for p in itertools.product((1, -1), repeat=4):
        n_plus = sum(1 for s in p if s == 1)
        if n_plus in (0, 4):
            expected_hp[p] = 0
        elif n_plus in (1, 3):
            expected_hp[p] = -16
        elif p[0] == p[2]:
            expected_hp[p] = 0   # diagonal 2:2
        else:
            expected_hp[p] = -12  # adjacent 2:2
    for p, want in expected_hp.items():
        got = plaquette_potential(*p)
        assert got == want
        assert got == 5 * (p[0] * p[1] * p[2] * p[3] - 1) + 3 * (p[0] * p[2] + p[1] * p[3] - 2)
    for sx, sm, sz in itertools.product((1, -1), repeat=3):
        got = nnn_potential(sx, sz)
        assert got == (0 if sx == sz else -2)
        assert got == sx * sz - 1
    assert time.time() - t0 < 1.0
    _report(1, t0, "h_p in {-16,-12,0}, h_xz in {0,-2} on all 16 + 8 patterns")


def test_criterion_2_quantum_coefficient():
    """The extracted nn coupling: |4UJ - 1| <= 0.05 at U in {16,32}, and the
    deviation from the leading value 1/(4U) (the U^-3 tail) shrinks by >= 4x
    when U doubles (the exact two-site tail shrinks by ~8x; the prefactor
    |4UJ-1| itself is a U^-2 quantity whose exact ratio is 4 - O(U^-2), which
    only the tail reading makes a testable margin of)."""
    t0 = time.time()
    sites = [(0, 0, 0), (1, 0, 0)]
    tails = {}
    for U in (16.0, 32.0):
        params = FKParameters(U=U, beta=10 * U)
        J = extract_couplings(sites, params, max_g=3).value(sites)
        assert abs(4 * U * J - 1) <= 0.05
        tails[U] = abs(J - 1 / (4 * U))
    assert tails[16.0] >= 4.0 * tails[32.0]
    assert time.time() - t0 < 10.0
    _report(2, t0, f"|4UJ-1| <= 0.05; tail ratio {tails[16.0]/tails[32.0]:.2f}x >= 4x")


def test_criterion_3_decay_audit():
    """Window couplings: g=3 level below g=1, and doubling U suppresses
    every g >= 3 level by at least 4x."""
    t0 = time.time()
    window = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    rep16 = verify_decay(extract_couplings(window, FKParameters(U=16.0, beta=256.0), max_g=4))
    rep32 = verify_decay(extract_couplings(window, FKParameters(U=32.0, beta=512.0), max_g=4))
    assert rep16.levels[3] < rep16.levels[1]
    for g, v in rep16.levels.items():
        if g >= 3 and v > 1e-13:
            assert v >= 4.0 * rep32.levels[g]
    assert time.time() - t0 < 60.0
    _report(3, t0, f"levels {dict((g, float(f'{v:.2e}')) for g, v in sorted(rep16.levels.items()))}")


def test_criterion_4_bijection():
    """Tiling <-> interface round trips on all tilings of sides 1 and 2,
    with unit height increments and zero cycle sums."""
    t0 = time.time()
    counts = {}
    for side in (1, 2):
        region = hexagon_region(side)
        tilings = enumerate_tilings(region)
        counts[side] = len(tilings)
        for t in tilings:
            h = tiling_heights(t)
            for r in t.rhombi:
                corners = rhombus_corners(r)
                incs = [h[corners[(i + 1) % 4]] - h[corners[i]] for i in range(4)]
                assert all(abs(x) == 1 for x in incs)
                assert sum(incs) == 0
            faces, _ = tiling_to_interface(t)
            back = interface_to_tiling(faces)
            assert set(back.rhombi) == set(t.rhombi)
    assert counts == {1: 2, 2: 20}
    assert time.time() - t0 < 10.0
    _report(4, t0, "2 + 20 round trips, increments +-1, cycle sums 0")


def test_criterion_5_degeneracy_bounds():
    """2^(A/3) <= N <= 2^(2A) for the enumerated hexagons A in {3, 12, 27}."""
    t0 = time.time()
    got = {}
    for side in (1, 2, 3):
        region = hexagon_region(side)
        rep = degeneracy_bounds_check(region, enumerate_tilings(region))
        assert rep.in_regime and rep.ok
        got[rep.area] = rep.count
    assert set(got) == {3, 12, 27}
    assert got == {3: 2, 12: 20, 27: 980}
    assert time.time() - t0 < 300.0
    _report(5, t0, f"counts {got} inside [2^(A/3), 2^(2A)]")


def test_criterion_6_ground_state_selection():
    """Exhaustive fourth-order minimization over the 20 side-2 tilings picks
    the all-type-0 tiling as strict minimizer with the hexagon-flip gap."""
    t0 = time.time()
    U = 8.0
    co = ModelCoefficients(U=U)
    vol = Volume(dims=(12, 12, 12), shell=2)
    e_stair = h4_relative_energy(config_from_heights(vol), co)
    energies = []
    for t in enumerate_tilings(hexagon_region(2)):
        faces, h = tiling_to_interface(t)
        cfg = config_from_heights(vol, h)
        excess = h4_relative_energy(cfg, co) - e_stair
        all_type0 = all(rhombus_type(r) == 0 for r in t.rhombi)
        energies.append((excess, all_type0))
        # dual route: the excess equals K2 per delta edge, exactly in the
        # truncated model
        deltas = sum(sum(c.standard_delta) for c in decompose_tiling(t).contours)
        assert excess == pytest.approx(deltas * co.k2, abs=1e-12)
    energies.sort(key=lambda x: x[0])
    assert energies[0][1] and not energies[1][1]       # unique all-good minimizer
    assert energies[0][0] == pytest.approx(0.0, abs=1e-12)
    gap = energies[1][0] - energies[0][0]
    assert gap >= 0.9 * co.k2                          # the literal criterion
    assert gap >= 0.9 * 6 * co.k2                      # a hexagon flip costs 6 K2
    assert gap == pytest.approx(6 * co.k2, abs=1e-12)
    assert time.time() - t0 < 60.0
    _report(6, t0, f"unique minimizer; gap = {gap:.3e} = 6*K2")


def test_criterion_7_contour_additivity():
    """h2 equals the contour-energy sum exactly: all 256 configurations of a
    2x2x2 volume and 500 random 5^3 configurations, to 1e-12."""
    t0 = time.time()
    co = ModelCoefficients(U=8.0)
    vol = Volume(dims=(2, 2, 2), shell=2)
    sites = list(vol.sites())
    for mask in range(256):
        cfg = from_function(
            vol, "hom_plus", lambda k: -1 if (mask >> sites.index(k)) & 1 else 1
        )
        total = sum(contour_energy(c, co) for c in extract_contours(cfg))
        assert abs(h2_relative_energy(cfg, co) - total) < 1e-12
    vol5 = Volume(dims=(5, 5, 5), shell=2)
    rng = np.random.default_rng(2024)
    for _ in range(500):
        cfg = from_function(
            vol5, "hom_plus", lambda k: int(rng.choice([-1, 1]))
        )
        total = sum(contour_energy(c, co) for c in extract_contours(cfg))
        assert abs(h2_relative_energy(cfg, co) - total) < 1e-12
    assert time.time() - t0 < 30.0
    _report(7, t0, "256 exhaustive + 500 random configurations to 1e-12")


def test_criterion_8_dobrushin_campaign():
    """1000 seeded removals on randomized configurations: every removal
    succeeds, decrements the contour count by one, keeps the remaining
    energies, and never trips the non-intersection check."""
    t0 = time.time()
    co = ModelCoefficients(U=8.0)
    small = hexagon_region(2)
    small_tilings = enumerate_tilings(small)
    big = r0_closure(hexagon_region(4).triangles)
    done = 0
    shifted = 0
    seed = 0
    while done < 1000:
        if done % 2 == 0:
            t = small_tilings[seed % len(small_tilings)]
        else:
            t = random_tiling(big, 20 + (seed % 17), seed=seed)
        deco = decompose_tiling(t)
        if not deco.contours:
            seed += 1
            continue
        idx = seed % len(deco.contours)
        _, rep = dobrushin_remove(t, idx, coeffs=co)
        assert rep.contours_after == rep.contours_before - 1
        shifted += any(v != 0 for v in rep.shifts.values())
        done += 1
        seed += 1
    assert done == 1000 and shifted > 200
    assert time.time() - t0 < 120.0
    _report(8, t0, f"1000 removals, {shifted} with translated interiors, 0 violations")


def test_criterion_9_mc_rigidity_contrast():
    """Desk-scale rigidity: bc100/h2 keeps every layer polarized at
    beta/U = 40; at matched beta/U^3 the fourth-order model's good-pair
    fraction beats the second-order one by at least 0.2.  Byte-for-byte
    deterministic under fixed seeds."""
    t0 = time.time()
    replicas = 4

    spec100 = RunSpec(dims=(9, 9, 9), bc="bc100", hamiltonian="h2", U=8.0,
                      beta=8.0 * 40, sweeps=300, thermalization=100, seed=101,
                      measure_stride=20)
    profiles = [mc_run(spec100, replica=r).mean_profile() for r in range(replicas)]
    mean_profile = np.mean(profiles, axis=0)
    assert mean_profile.shape == (9,)
    assert np.min(np.abs(mean_profile)) >= 0.9

    U = 4.0
    beta = 40.0 * U**3
    fractions = {}
    for ham in ("h2", "h4"):
        spec = RunSpec(dims=(9, 9, 9), bc="bc111", hamiltonian=ham, U=U,
                       beta=beta, sweeps=600, thermalization=200, seed=202,
                       measure_stride=20)
        fractions[ham] = float(np.mean(
            [mc_run(spec, replica=r).mean_good_fraction() for r in range(replicas)]
        ))
    assert fractions["h4"] - fractions["h2"] >= 0.2

    # determinism of a full series under a fixed (spec, seed, replica)
    spec_det = RunSpec(dims=(9, 9, 9), bc="bc111", hamiltonian="h2", U=U,
                       beta=beta, sweeps=60, thermalization=20, seed=303,
                       measure_stride=10)
    rows1 = list(mc_run(spec_det, replica=0).csv_rows())
    rows2 = list(mc_run(spec_det, replica=0).csv_rows())
    assert rows1 == rows2

    assert time.time() - t0 < 1200.0
    _report(9, t0, (
        f"min |m| = {np.min(np.abs(mean_profile)):.3f} >= 0.9; "
        f"fraction h4 {fractions['h4']:.3f} vs h2 {fractions['h2']:.3f} "
        f"(gap {fractions['h4'] - fractions['h2']:.3f} >= 0.2)"
    ))


def test_criterion_10_bounds_calculators():
    """k0 minimality on a 100-point grid, q strictly increasing on admissible
    grids, b0 bracketed to 1e-6 relative, and B > 1 everywhere."""
    t0 = time.time()
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 100:
        C2 = float(rng.uniform(0.2, 5.0))
        lam = float(rng.uniform(0.05, 0.9)) / (36.0 * math.e**2)
        b = float(rng.uniform(0.5, 1e4))
        rep = polymer_report(PolymerInputs(C1=1.0, C2=C2, lam=lam, b=b))
        if rep.k0 is None:
            continue
        base = lam * 36.0 * math.exp(2.0)
        beta = b / lam
        assert C2 * beta * base ** rep.k0 <= 1.0 + 1e-12          # k0 satisfies
        if rep.k0 > 1:
            assert C2 * beta * base ** (rep.k0 - 1) > 1.0         # k0 - 1 violates
        checked += 1

    for C1, C2 in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3)):
        lam = 0.5 * lambda0(C1, C2)

        def k0_at(b):
            return polymer_report(PolymerInputs(C1=C1, C2=C2, lam=lam, b=b)).k0

        # an admissible grid stays on one k0 plateau (q drops at the sparse
        # jumps of k0, where the chain pays another factor of c_d^k); plateaus
        # are wider than a factor c_d = 36, so a 16x grid always fits somewhere
        base = 50.0
        while True:
            grid = [base * 2.0**i for i in range(5)]
            if all(k0_at(b) == k0_at(base) for b in grid):
                break
            base /= 1.7
        qs = [q_of_b(C1, C2, lam, b) for b in grid]
        assert all(b > a for a, b in zip(qs, qs[1:]))
        res = find_b0(C1, C2, lam, rel_tol=1e-7)
        assert q_of_b(C1, C2, lam, res.b0 * (1 - 1e-6)) <= 0.0
        assert q_of_b(C1, C2, lam, res.b0 * (1 + 1e-6)) > 0.0
        assert res.B > 1.0

    for _ in range(50):
        assert big_b(float(rng.uniform(0.01, 10)), float(rng.uniform(0.01, 10))) > 1.0

    assert time.time() - t0 < 1.0
    _report(10, t0, "k0 exact on 100 inputs; q monotone; b0 bracketed to 1e-6; B > 1")
