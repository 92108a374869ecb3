"""Potential tables, truncated Hamiltonians, Ising contours, Peierls check."""

import itertools
import math

import numpy as np
import pytest

from fklab.classical import (
    ModelCoefficients,
    bosonic_plaquette_potential,
    contour_energy,
    extract_contours,
    h2_relative_energy,
    h4_relative_energy,
    interaction_reach,
    interaction_terms,
    nnn_potential,
    peierls_check,
    plaquette_potential,
    relative_energy,
)
from fklab.lattice import SpinConfiguration, Volume
from layout_reference import from_function, padded_sites, spin as layout_spin

CO8 = ModelCoefficients(U=8.0)


def test_plaquette_potential_table():
    """Every pattern class hits its tabulated value: -16 / -12 / 0 / 0."""
    for pattern in itertools.product((1, -1), repeat=4):
        sx, sy, sz, st = pattern
        val = plaquette_potential(*pattern)
        direct = 5 * (sx * sy * sz * st - 1) + 3 * (sx * sz + sy * st - 2)
        assert val == direct
        n_plus = sum(1 for s in pattern if s == 1)
        if n_plus in (0, 4):
            assert val == 0
        elif n_plus in (1, 3):
            assert val == -16
        elif pattern[0] == pattern[2]:  # 2:2 with aligned diagonal
            assert val == 0
        else:
            assert val == -12


def test_plaquette_minimum_on_three_one_patterns():
    vals = {p: plaquette_potential(*p) for p in itertools.product((1, -1), repeat=4)}
    assert min(vals.values()) == -16
    minimizers = [p for p, v in vals.items() if v == -16]
    assert len(minimizers) == 8
    assert all(sum(1 for s in p if s == 1) in (1, 3) for p in minimizers)


def test_nnn_potential_table():
    for sx, sm, sz in itertools.product((1, -1), repeat=3):
        val = nnn_potential(sx, sz)
        assert val == sx * sz - 1
        assert val == (0 if sx == sz else -2)


def test_bosonic_plaquette_values():
    assert bosonic_plaquette_potential(1, 1, -1, 1) == -8
    assert bosonic_plaquette_potential(1, -1, -1, 1) == -20  # striped columns
    # bosons do not favour the staircase pattern
    assert bosonic_plaquette_potential(1, 1, -1, 1) > bosonic_plaquette_potential(1, -1, -1, 1)


def test_h2_single_and_double_flip():
    vol = Volume(dims=(6, 6, 6), shell=2)
    cfg = SpinConfiguration.from_boundary(vol, "hom_plus")
    assert h2_relative_energy(cfg, CO8) == 0.0
    one = cfg.with_flip((0, 0, 0))
    # 6 broken bonds at 2J each; equivalently E(gamma) = J1 |gamma| with |gamma| = 6
    assert h2_relative_energy(one, CO8) == pytest.approx(12 * CO8.j, abs=1e-15)
    assert h2_relative_energy(one, CO8) == pytest.approx(CO8.j1 * 6, abs=1e-15)
    two = one.with_flip((1, 0, 0))
    # 10 boundary faces, each broken bond costs 2J = J1
    assert h2_relative_energy(two, CO8) == pytest.approx(CO8.j1 * 10, abs=1e-15)


@pytest.mark.parametrize("bc", ["hom_plus", "hom_minus"])
@pytest.mark.parametrize("dims", [(3, 3, 3), (7, 6, 5)])
def test_uniform_box_energies_are_positive_zero(bc, dims):
    """A uniform box breaks no term, and its energy is +0.0, never -0.0 (the
    sign a JSON writer would print)."""
    cfg = SpinConfiguration.from_boundary(Volume(dims=dims, shell=2), bc)
    for energy in (h2_relative_energy, h4_relative_energy):
        e = energy(cfg, CO8)
        assert e == 0.0 and math.copysign(1.0, e) == 1.0


def _h4_bruteforce(cfg: SpinConfiguration, co: ModelCoefficients) -> float:
    """Independent term-by-term loop over pairs and plaquettes."""
    vol = cfg.volume
    sites = set(padded_sites(vol))
    involume = set(vol.sites())

    def spin(s):
        return layout_spin(cfg, s)

    e = 0.0
    seen = set()
    for s in sites:
        for d in itertools.product((-2, -1, 0, 1, 2), repeat=3):
            t = (s[0] + d[0], s[1] + d[1], s[2] + d[2])
            if t not in sites or t == s:
                continue
            key = frozenset((s, t))
            if key in seen:
                continue
            seen.add(key)
            if not (s in involume or t in involume):
                continue
            dist2 = sum(x * x for x in d)
            if dist2 == 1:
                e += -co.c_nn * (spin(s) * spin(t) - 1)
            elif dist2 == 2:
                e += co.c_nnn * (spin(s) * spin(t) - 1)
            elif dist2 == 4 and sorted(map(abs, d)) == [0, 0, 2]:
                e += co.c_2 * (spin(s) * spin(t) - 1)
    for s in sites:
        for mu in range(3):
            for nu in range(mu + 1, 3):
                emu = tuple(1 if i == mu else 0 for i in range(3))
                enu = tuple(1 if i == nu else 0 for i in range(3))
                quad = [
                    s,
                    tuple(a + b for a, b in zip(s, emu)),
                    tuple(a + b + c for a, b, c in zip(s, emu, enu)),
                    tuple(a + b for a, b in zip(s, enu)),
                ]
                if not all(q in sites for q in quad):
                    continue
                if not any(q in involume for q in quad):
                    continue
                prod = 1
                for q in quad:
                    prod *= spin(q)
                e += co.c_plq * (prod - 1)
    return e


def test_h4_matches_bruteforce_oracle():
    vol = Volume(dims=(4, 4, 4), shell=2)
    rng = np.random.default_rng(3)
    for trial in range(4):
        cfg = from_function(
            vol, "hom_plus", lambda k: int(rng.choice([-1, 1]))
        )
        assert h4_relative_energy(cfg, CO8) == pytest.approx(
            _h4_bruteforce(cfg, CO8), abs=1e-12
        )
    single = SpinConfiguration.from_boundary(vol, "hom_plus").with_flip((0, 0, 0))
    assert h4_relative_energy(single, CO8) == pytest.approx(
        _h4_bruteforce(single, CO8), abs=1e-13
    )


@pytest.mark.parametrize("dims, lo, shell, U", [
    ((5, 3, 2), (1, -3, 0), 2, 8.0),
    ((2, 6, 3), (-4, 2, 5), 2, 5.3),
    ((3, 2, 7), (0, 0, -6), 3, 11.7),
    ((1, 4, 1), (7, -1, 2), 2, 4.0),
])
def test_h4_matches_bruteforce_oracle_on_anisotropic_boxes(dims, lo, shell, U):
    """Boxes with unequal sides away from the origin, with
    random spins in the box and the shell: a mixed-up axis or a missing
    offset in the interaction table shows here, where a cube may hide it."""
    vol = Volume(dims=dims, shell=shell, lo=lo)
    co = ModelCoefficients(U=U)
    rng = np.random.default_rng(sum(dims) + shell)
    for trial in range(3):
        cfg = SpinConfiguration(vol, rng.choice(np.array([-1, 1], dtype=np.int8), size=vol.padded_dims))
        assert h4_relative_energy(cfg, co) == pytest.approx(_h4_bruteforce(cfg, co), abs=1e-12)


def test_interaction_reach_is_the_shell_each_energy_needs():
    """h2 reaches one site along an axis and h4 two (its distance-2 pairs),
    so h4 on a shell-1 volume raises while h2 evaluates there."""
    assert [interaction_reach(interaction_terms(CO8, ham)) for ham in ("h2", "h4")] == [1, 2]
    cfg = SpinConfiguration.from_boundary(Volume(dims=(3, 3, 3), shell=1), "bc111")
    with pytest.raises(ValueError, match="reach 2"):
        relative_energy(cfg, interaction_terms(CO8, "h4"))
    with pytest.raises(ValueError):
        h4_relative_energy(cfg, CO8)
    assert h2_relative_energy(cfg.with_flip((0, 0, 0)), CO8) > 0


def test_h4_global_flip_invariance():
    vol = Volume(dims=(4, 4, 4), shell=2)
    rng = np.random.default_rng(5)
    spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=vol.padded_dims)
    cfg = SpinConfiguration(vol, spins)
    flipped = SpinConfiguration(vol, -spins)
    assert h4_relative_energy(cfg, CO8) == pytest.approx(
        h4_relative_energy(flipped, CO8), abs=1e-13
    )
    assert h2_relative_energy(cfg, CO8) == pytest.approx(
        h2_relative_energy(flipped, CO8), abs=1e-13
    )


def test_h4_minus_h2_scales_like_u_cubed():
    vol = Volume(dims=(5, 5, 5), shell=2)
    cfg = SpinConfiguration.from_boundary(vol, "hom_plus").with_flip((0, 0, 0))
    diffs = {}
    for U in (8.0, 16.0):
        co = ModelCoefficients(U=U)
        diffs[U] = h4_relative_energy(cfg, co) - h2_relative_energy(cfg, co)
    # pure U^-3 content: doubling U divides the difference by 8 exactly
    assert diffs[8.0] / diffs[16.0] == pytest.approx(8.0, rel=1e-12)


def test_extract_contours_uniform_and_flips():
    vol = Volume(dims=(6, 6, 6), shell=2)
    cfg = SpinConfiguration.from_boundary(vol, "hom_plus")
    assert extract_contours(cfg) == []
    one = cfg.with_flip((0, 0, 0))
    (c,) = extract_contours(one)
    assert c.area == 6 and not c.pinned


def test_extract_contours_partitions_faces():
    vol = Volume(dims=(5, 5, 5), shell=2)
    rng = np.random.default_rng(11)
    cfg = from_function(
        vol, "hom_plus", lambda k: int(rng.choice([-1, 1]))
    )
    contours = extract_contours(cfg)
    all_faces = [f for c in contours for f in c.faces]
    assert len(all_faces) == len(set(all_faces))  # disjoint supports


def test_h2_equals_contour_sum_exhaustively():
    """Additivity on every configuration of a 2x2x2 volume."""
    vol = Volume(dims=(2, 2, 2), shell=2)
    sites = list(vol.sites())
    co = CO8
    for mask in range(256):
        cfg = from_function(
            vol, "hom_plus",
            lambda k: -1 if (mask >> sites.index(k)) & 1 else 1,
        )
        total = sum(contour_energy(c, co) for c in extract_contours(cfg))
        assert abs(h2_relative_energy(cfg, co) - total) < 1e-12


def test_h2_contour_sum_random_5cube():
    vol = Volume(dims=(5, 5, 5), shell=2)
    rng = np.random.default_rng(7)
    for _ in range(50):
        cfg = from_function(
            vol, "hom_plus", lambda k: int(rng.choice([-1, 1]))
        )
        total = sum(contour_energy(c, CO8) for c in extract_contours(cfg))
        assert abs(h2_relative_energy(cfg, CO8) - total) < 1e-12


def test_peierls_check():
    vol = Volume(dims=(6, 6, 6), shell=2)
    rng = np.random.default_rng(13)
    contours = []
    for _ in range(20):
        cfg = from_function(
            vol, "hom_plus", lambda k: int(rng.choice([-1, 1], p=[0.2, 0.8]))
        )
        contours.extend(extract_contours(cfg))
    report = peierls_check(contours, CO8, c0=0.4)
    assert report.ok and report.checked > 0
    assert report.c0_max == pytest.approx(0.5, abs=1e-15)
    # vacuous pass on the empty set
    assert peierls_check([], CO8).ok
