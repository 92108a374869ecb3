"""Sampler determinism, detailed balance, bookkeeping, observables."""

import hashlib
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fklab.classical import (
    ModelCoefficients,
    h2_relative_energy,
    h4_relative_energy,
    interaction_terms,
)
from fklab.lattice import CapExceeded, SpinConfiguration, Volume, coordinate_sum
from fklab import mc
from fklab.mc import (
    MOVE_SETS,
    ObservableSeries,
    RunSpec,
    interface_width,
    layer_magnetization,
    mc_run,
    thermalization_diagnostic,
    _Lattice,
)
from fklab.tiling import config_from_heights

import exact_reference as exact
import mc_reference as ref
from layout_reference import from_function


def _spec(**kw):
    base = dict(
        dims=(4, 4, 4), bc="hom_plus", hamiltonian="h2", U=4.0, beta=1.0,
        sweeps=20, thermalization=5, seed=0, measure_stride=2,
        cross_check_stride=5,
    )
    base.update(kw)
    return RunSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(sweeps=5, thermalization=10)
    for bad in (-1.0, 1.5):   # the coefficients need U >= 2
        with pytest.raises(ValueError):
            _spec(U=bad)
    with pytest.raises(ValueError, match=r"U\^3 overflows"):   # and a finite U^3
        _spec(U=1e308)
    with pytest.raises(CapExceeded):   # before the chain allocates its box
        _spec(dims=(1000, 1000, 1000))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _spec(beta=bad)
        with pytest.raises(ValueError):
            _spec(U=bad)
    with pytest.raises(ValueError):
        _spec(hamiltonian="h6")
    with pytest.raises(ValueError, match="depth >= 2"):   # h4's distance-2 pairs
        _spec(hamiltonian="h4", shell=1)
    with pytest.raises(ValueError, match="depth >= 1"):
        _spec(shell=0)
    with pytest.raises(ValueError):
        _spec(move_set="cluster")
    for bad in (dict(measure_stride=0), dict(measure_stride=-1),
                dict(cross_check_stride=0), dict(snapshot_stride=-1)):
        with pytest.raises(ValueError):
            _spec(**bad)
    # integer fields: a float or a bool is refused when the spec is built,
    # not by the chain (sweeps=30.0) and not truncated by Philox (seed=1.5)
    for name in ("sweeps", "thermalization", "seed", "measure_stride", "cross_check_stride",
                 "shell", "snapshot_stride"):
        for bad in (float(getattr(_spec(), name)), getattr(_spec(), name) + 0.5, True, "2"):
            with pytest.raises(ValueError, match=name):
                _spec(**{name: bad})
    with pytest.raises(ValueError, match="seed"):   # Philox would cast it with a warning
        _spec(seed=-1)
    with pytest.raises(ValueError, match="seed"):   # the Philox key holds 64 bits
        _spec(seed=2**64)
    assert _spec(seed=np.int64(3), sweeps=np.int32(20)).seed == 3
    for bad in (True, 1.0, 1.5, -1, "0", 2**64):
        with pytest.raises(ValueError, match="replica"):
            mc_run(_spec(), replica=bad)


@pytest.mark.parametrize("bad", [
    dict(thermalization=-1),
    dict(sweeps=0, thermalization=-1, measure_stride=1),
    dict(sweeps=5, thermalization=0, measure_stride=10),
    dict(sweeps=20, thermalization=15, measure_stride=6),
])
def test_spec_rejects_runs_without_measurement(bad):
    with pytest.raises(ValueError):
        _spec(**bad)


def test_h2_chain_on_a_shell_1_volume_matches_shell_2():
    """h2 reaches one site, so the outer layer of a shell-2 run never enters
    its energies, and colours are read off the box index, not the padded
    one: the two chains agree move for move."""
    thin, thick = (mc_run(_spec(shell=shell, bc="bc111", cross_check_stride=1)) for shell in (1, 2))
    assert thin.final_config.volume.shell == 1 and len(thin.energies) == 7
    assert thin.energies == thick.energies and thin.acceptance == thick.acceptance
    box = [s.final_config.spins[s.final_config.volume.box] for s in (thin, thick)]
    assert np.array_equal(*box)


_COLD = 40.0 * 4.0**3   # criterion 9's beta at U = 4
_REUSE_CHAINS = {
    # the benchmark's three chain kinds, shorter
    "bc100-h2-cold": dict(dims=(9, 9, 9), bc="bc100", U=8.0, beta=8.0 * 40, sweeps=60),
    "bc111-h2-cold": dict(dims=(9, 9, 9), bc="bc111", beta=_COLD, sweeps=60),
    "bc111-h4-cold": dict(dims=(9, 9, 9), bc="bc111", hamiltonian="h4", beta=_COLD, sweeps=60),
    "bc111-h2-warm": dict(dims=(5, 5, 5), bc="bc111", beta=1.0),
    "bc111-h4-warm": dict(dims=(5, 5, 5), bc="bc111", hamiltonian="h4", beta=0.2 * 4.0**3),
    "bc100-h4": dict(dims=(5, 5, 5), bc="bc100", hamiltonian="h4", beta=2.0),
    "single-flip": dict(dims=(5, 5, 5), bc="bc111", hamiltonian="h4", beta=4.0,
                        move_set="single-flip"),
    "h2-shell-1": dict(dims=(5, 5, 5), bc="bc111", beta=2.0, shell=1),
    # frozen: no spin flips, so every recorded energy is 0.0
    "hom-plus": dict(dims=(4, 4, 4), bc="hom_plus", beta=_COLD),
    # some sweeps flip no spin, some do; a flat box has a non-zero width
    "intermittent": dict(dims=(7, 7, 3), bc="bc111", hamiltonian="h4", beta=3.0 * 4.0**3),
    # even sides put the box off-centre: lo = (-3, -3, -2)
    "anisotropic": dict(dims=(7, 6, 4), bc="bc111", hamiltonian="h4", beta=8.0),
    "cross-check-1": dict(dims=(5, 5, 5), bc="bc111", hamiltonian="h4", beta=_COLD,
                          cross_check_stride=1),
    "snapshots": dict(dims=(5, 5, 5), bc="bc111", beta=4.0, snapshot_stride=2),
    # several draws of uniforms: 65 sweeps a draw on 5^3 and 55 on 7x7x3,
    # frozen across the draws' ends, or flipping now and then
    "h4-frozen-blocks": dict(dims=(5, 5, 5), bc="bc111", hamiltonian="h4", beta=_COLD,
                             sweeps=150, snapshot_stride=3),
    "intermittent-blocks": dict(dims=(7, 7, 3), bc="bc111", hamiltonian="h4",
                                beta=3.0 * 4.0**3, sweeps=130),
}


# sha256 of the CSV rows ("\n"-terminated) and of the final spins of
# replicas 0 and 1, recorded on the seven-class sweep that preceded the
# colouring's derivation from the interaction table: h4 still gets those
# seven classes, in the same order, so its chains must not change a byte
_H4_DIGESTS = {
    "bc111-h4-cold": ("bcd593bea5f00e53ea575f3cfc63ed9aecbd7d80184b45700e1a801de408962a",
                      "f6a075f32f7f8b3aca7c5340b4effd411cd02c3bfd8182cc42c4db182150d612"),
    "bc111-h4-warm": ("d9b62e6b95f6b2273a85e855cf376d14ef21543a98fab09e4bb36d34b1013146",
                      "1a2a9558e14e382d62c9366b497b183fc4045c27d070a633ac787477a452aec9"),
    "bc100-h4": ("c7921b04ab7a73daff08bd0a63b5c35329b9b40f754c8ce57fffea53758ab596",
                 "f79e916a63df397d2830737fc69142befc7170ba49f4f7dfac1d55e8770991b7"),
    "single-flip": ("184ab0b04df0713733dc07c9ef8c2b4317f95ed5849c41a8628d3552712f0626",
                    "927320697724b29e50636830d69e653558d55f6a60ed0bbf66b8a5ac8cfac8c8"),
    "intermittent": ("79f22f431350a530985635e6d3b44621b984c70461e50a95ce552ce879775515",
                     "17cadc78b82bc7ec90863f8f043daa879df6dd209a7690058b9e9c48a363dac9"),
    "anisotropic": ("ebe1215eec96d2955ae1a7723003864cf0b1a81638edf236a2cdc3b7e1c8f775",
                    "95a24904aa613cd061d1f10a0372d65e00afbacc0c4604fca22773b95e3f8779"),
    "cross-check-1": ("6a6edd2dfddb86832f55fe6feb01dd20d352e51ac1c74c751e87320e04684e2e",
                      "d770f67bd9b950e3fbb6bce1c1583b1bf749435598b30a2139e614764bc7aee1"),
    # recorded on the sweep that drew each sweep's uniforms on their own
    "h4-frozen-blocks": ("c22172c2cc147925312566991d45648acb98237c44c715eed35ca075694858ee",
                         "d770f67bd9b950e3fbb6bce1c1583b1bf749435598b30a2139e614764bc7aee1"),
    "intermittent-blocks": ("9ae78bfe291e07f06b08fa854dbdae6705b60019b5edfa7801ecce10dbc09ab5",
                            "b9eb58e30e06abd396e3d2e04fdc2cf9c484df957b13684bb9b7d2698121a6e1"),
}


def _reuse_spec(name):
    return _spec(**{**dict(sweeps=30, thermalization=10, measure_stride=2,
                           cross_check_stride=7, seed=3), **_REUSE_CHAINS[name]})


def _assert_same_chain(got, want):
    assert list(got.csv_rows()) == list(want.csv_rows())
    assert got.final_config.spins.tobytes() == want.final_config.spins.tobytes()
    assert [p.tobytes() for p in got.profiles] == [p.tobytes() for p in want.profiles]
    assert got.layers == want.layers
    assert got.snapshots == want.snapshots
    # each snapshot's frozenset is filled as extract_contours fills it
    assert [list(f) for _, f in got.snapshots] == [list(f) for _, f in want.snapshots]
    assert got.overlap_flags == want.overlap_flags


@pytest.mark.parametrize("name", list(_REUSE_CHAINS))
def test_reused_energy_changes_and_measurements_match_recomputing_sweep(name):
    """``mc_run`` keeps each class's energy changes and the last measurement
    while no spin flips, and passes over the sweeps of a draw that flip
    nothing; the sweep that draws its own uniforms and recomputes everything
    at every visit gives the same bytes, frozen, warm or in between."""
    spec = _reuse_spec(name)
    for replica in (0, 1):
        _assert_same_chain(mc_run(spec, replica), ref.colour_sweep_reference(spec, replica))
    if name == "snapshots":
        assert len(mc_run(spec).snapshots) == 5


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 5)] * 3), ham=st.sampled_from(["h2", "h4"]),
       bc=st.sampled_from(["bc111", "bc100", "hom_plus"]), move_set=st.sampled_from(MOVE_SETS),
       beta=st.one_of(st.sampled_from([0.0, _COLD]), st.floats(0.0, 400.0)),
       thermalization=st.integers(0, 6), measure_stride=st.integers(1, 4),
       extra=st.integers(0, 30), cross_check_stride=st.integers(1, 9),
       snapshot_stride=st.integers(0, 3), seed=st.integers(0, 2**16),
       per_draw=st.one_of(st.just(mc._BLOCK_UNIFORMS), st.integers(1, 700)))
def test_drawn_blocks_match_the_sweep_by_sweep_reference(
        dims, ham, bc, move_set, beta, thermalization, measure_stride, extra,
        cross_check_stride, snapshot_stride, seed, per_draw):
    """Drawing the uniforms of several sweeps at once, with draws of as
    few as one sweep (and sweeps that are not a multiple of a draw), and
    passing over the sweeps that flip nothing, gives the chain of one draw
    per sweep byte for byte."""
    spec = RunSpec(dims=dims, bc=bc, hamiltonian=ham, U=4.0, beta=beta, move_set=move_set,
                   sweeps=thermalization + measure_stride + extra, thermalization=thermalization,
                   seed=seed, measure_stride=measure_stride, cross_check_stride=cross_check_stride,
                   snapshot_stride=snapshot_stride)
    with mock.patch.object(mc, "_BLOCK_UNIFORMS", per_draw):
        got = mc_run(spec, replica=1)
    _assert_same_chain(got, ref.colour_sweep_reference(spec, replica=1))


@pytest.mark.parametrize("name", list(_H4_DIGESTS))
def test_h4_chains_match_recorded_digests(name):
    assert _REUSE_CHAINS[name]["hamiltonian"] == "h4"
    spec = _reuse_spec(name)
    rows, spins = hashlib.sha256(), hashlib.sha256()
    for replica in (0, 1):
        series = mc_run(spec, replica)
        rows.update("".join(row + "\n" for row in series.csv_rows()).encode())
        spins.update(series.final_config.spins.tobytes())
    assert (rows.hexdigest(), spins.hexdigest()) == _H4_DIGESTS[name]


def test_spec_takes_a_single_measurement():
    assert mc_run(_spec(sweeps=6, thermalization=0, measure_stride=6)).sweeps == [6]


def test_determinism_byte_for_byte():
    spec = _spec(bc="bc111", hamiltonian="h4", beta=100.0, seed=42)
    s1 = mc_run(spec, replica=1)
    s2 = mc_run(spec, replica=1)
    assert list(s1.csv_rows()) == list(s2.csv_rows())
    s3 = mc_run(spec, replica=2)
    assert list(s1.csv_rows()) != list(s3.csv_rows())  # replicas independent


def test_seeds_above_2_63_give_their_own_chains():
    """Every seed below 2^64 keys its own stream: 2^63 and 2^63 + 1024 (the
    same float64) differ, and 2^64 - 1 runs without a cast warning."""
    rows = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (2**63, 2**63 + 1024, 2**64 - 1):
            spec = _spec(dims=(3, 3, 3), bc="bc111", beta=4.0, seed=seed)
            rows[seed] = list(mc_run(spec).csv_rows())
    assert len({tuple(r) for r in rows.values()}) == 3


def test_beta_zero_accepts_everything():
    spec = _spec(beta=0.0, move_set="single-flip")
    s = mc_run(spec)
    assert all(a == 1.0 for a in s.acceptance)


def test_frozen_regime_no_contours():
    # beta J1 = 20: the acceptance of the cheapest excitation is e^(-240)
    spec = _spec(U=8.0, beta=8.0 * 40, sweeps=60, thermalization=10,
                 move_set="single-flip", measure_stride=10)
    s = mc_run(spec)
    assert all(e == 0.0 for e in s.energies)


def test_energy_bookkeeping_cross_check_runs():
    # hot chain, many accepted moves; the internal 1e-9 check must hold
    for ham in ("h2", "h4"):
        spec = _spec(hamiltonian=ham, beta=0.3, sweeps=24, cross_check_stride=3)
        mc_run(spec)  # raises on drift


def test_layer_magnetization_ground_states():
    vol = Volume(dims=(6, 6, 6), shell=2)
    cfg100 = SpinConfiguration.from_boundary(vol, "bc100")
    labels, prof = layer_magnetization(cfg100, normal="e3")
    assert all(abs(m) == 1.0 for m in prof)
    assert [m for m in prof] == [1.0 if l >= 0 else -1.0 for l, m in zip(labels, prof)]

    cfg111 = SpinConfiguration.from_boundary(vol, "bc111")
    labels, prof = layer_magnetization(cfg111, normal="111")
    assert all(m == (1.0 if l >= -1 else -1.0) for l, m in zip(labels, prof))


def test_layer_magnetization_rejects_other_normals():
    cfg = SpinConfiguration.from_boundary(Volume(dims=(3, 3, 3), shell=2), "bc111")
    for bad in ("e1", "e2", "100", ""):
        with pytest.raises(ValueError, match="normal"):
            layer_magnetization(cfg, bad)


def test_layer_magnetization_bounds():
    vol = Volume(dims=(5, 5, 5), shell=2)
    rng = np.random.default_rng(2)
    cfg = from_function(vol, "bc100", lambda k: int(rng.choice([-1, 1])))
    _, prof = layer_magnetization(cfg)
    assert np.all(prof >= -1.0) and np.all(prof <= 1.0)


def test_good_pair_fraction_values():
    vol = Volume(dims=(8, 8, 8), shell=2)
    stair = config_from_heights(vol)
    assert ref.good_pair_fraction(stair) == 1.0
    flip = stair.with_flip((0, 0, -1))  # hexagon flip
    assert ref.good_pair_fraction(flip) < 1.0


def test_good_pair_fraction_translation_invariance():
    vol = Volume(dims=(8, 8, 8), shell=2)
    stair = config_from_heights(vol)
    f1 = ref.good_pair_fraction(stair.with_flip((0, 0, -1)))
    f2 = ref.good_pair_fraction(stair.with_flip((1, 0, -2)))  # translated flip site
    assert f1 == pytest.approx(f2, abs=1e-12)


def test_interface_width_values():
    # a cube has one full-length column (N = 1, width 0); the flat box has many
    for dims in ((7, 7, 7), (7, 7, 3)):
        vol = Volume(dims=dims, shell=2)
        stair = config_from_heights(vol)
        assert interface_width(stair) == 0.0
        pyr = stair.with_flip((0, 0, 0))
        w = interface_width(pyr)
        # one full-length column displaced by one unit among the N full columns
        lengths = {}
        for k in vol.sites():
            c = (k[0] - k[2], k[1] - k[2])
            lengths[c] = lengths.get(c, 0) + 1
        n_cols = sum(1 for v in lengths.values() if v == max(lengths.values()))
        expected = math.sqrt(n_cols - 1) / n_cols
        assert w == pytest.approx(expected, abs=1e-12)
    assert n_cols > 1 and w > 0.1


def test_interface_width_height_shift_invariance():
    vol = Volume(dims=(7, 7, 7), shell=2)
    from fklab.tiling import stair_height
    shifted = config_from_heights(vol, lambda p: stair_height(p) + 3)
    assert interface_width(shifted) == pytest.approx(0.0, abs=1e-12)


def test_hexagon_move_set_mixes_at_h2():
    spec = RunSpec(dims=(7, 7, 7), bc="bc111", hamiltonian="h2", U=4.0,
                   beta=4.0**3 * 40, sweeps=120, thermalization=40, seed=5,
                   measure_stride=10)
    s = mc_run(spec)
    assert s.mean_good_fraction() < 0.95  # tiling moves are free under h2
    # h2 is flat over minimal 111 interfaces: the tiling moves leave the
    # energy trace constant, so the diagnostic must see no drift at all
    assert len(set(s.energies)) == 1
    assert thermalization_diagnostic(s) == {"stationary": True, "delta": 0.0, "stderr": 0.0}


def test_h4_freezes_staircase():
    spec = RunSpec(dims=(7, 7, 7), bc="bc111", hamiltonian="h4", U=4.0,
                   beta=4.0**3 * 40, sweeps=80, thermalization=20, seed=5,
                   measure_stride=10)
    s = mc_run(spec)
    assert s.mean_good_fraction() == pytest.approx(1.0, abs=1e-12)
    assert s.mean_width() == pytest.approx(0.0, abs=1e-12)


def test_observables_match_reference_loops():
    rng = np.random.default_rng(11)
    for dims, lo, bc in (((5, 5, 5), None, "bc111"), ((7, 7, 3), None, "bc111"),
                         ((4, 6, 3), (2, -7, 1), "bc100"), ((1, 3, 2), None, "hom_plus")):
        vol = Volume(dims=dims, shell=2, lo=lo)
        for _ in range(5):
            cfg = from_function(vol, bc, lambda k: int(rng.choice([-1, 1])))
            assert interface_width(cfg) == pytest.approx(ref.interface_width(cfg), abs=1e-12)
            for normal in ("e3", "111"):
                labels, prof = layer_magnetization(cfg, normal)
                ref_labels, ref_prof = ref.layer_magnetization(cfg, normal)
                assert labels == ref_labels
                np.testing.assert_allclose(prof, ref_prof, rtol=0, atol=1e-12)


def test_pinned_interface_missing_is_invariant_violation():
    cfg = SpinConfiguration.from_boundary(Volume(dims=(4, 4, 4), shell=2), "hom_plus")
    with pytest.raises(RuntimeError):
        ref.good_pair_fraction(cfg)
    with pytest.raises(RuntimeError, match="no pinned interface"):
        mc._pinned_faces(cfg)


@pytest.mark.parametrize("dims", [(9, 9, 9), (4, 5, 6), (1, 2, 3)])
def test_colour_classes_are_independent_sets(dims):
    """The colouring read off the table: two checkerboard classes for h2,
    and for h4 the seven classes (i1 + 2 i2 + 4 i3) mod 7 of the padded
    index i, in that order, as the sweep had before it read the table."""
    cases = itertools.product([("h2", 1), ("h2", 2), ("h4", 2)], [None, (5, -7, 2)])
    for (ham, shell), lo in cases:
        vol = Volume(dims=dims, shell=shell, lo=lo)
        lat = _Lattice(vol, interaction_terms(ModelCoefficients(U=4.0), ham))
        # columns 0-5 are the up neighbours e1, e2, e3, then the down ones
        k = np.array([vol.index(s) for s in vol.sites()])
        for col, step in enumerate(np.vstack([np.eye(3, dtype=int), -np.eye(3, dtype=int)])):
            want = np.ravel_multi_index((k + step).T, lat.shape)
            assert np.array_equal(lat.pair_idx[:, col], want)
        sites = np.concatenate([c[0] for c in lat.classes])
        assert np.array_equal(np.sort(sites), np.sort(lat.vol_flat))
        for own, pair, plq in lat.classes:
            # no coupling partner of a class site is in the class itself
            assert not np.isin(pair, own).any()
            assert not np.isin(plq, own).any()
        colour, n = ((k - shell).sum(axis=1) % 2, 2) if ham == "h2" else (k @ (1, 2, 4) % 7, 7)
        assert [own.tolist() for own, _, _ in lat.classes] == [
            lat.vol_flat[colour == c].tolist() for c in range(n)]


def test_h4_has_no_linear_colouring_with_fewer_than_seven_classes():
    """Every weight vector w mod m < 7 gives two corners of some h4 term the
    same colour w . k mod m; mod 7, (1, 2, 4) separates them all."""
    offsets = [np.subtract(q, p) for _, group in interaction_terms(ModelCoefficients(U=4.0), "h4")
               for corners in group
               for p, q in itertools.combinations(((0, 0, 0), *corners), 2)]
    for m in range(2, 7):
        for w in itertools.product(range(m), repeat=3):
            assert any(np.dot(w, d) % m == 0 for d in offsets), (m, w)
    assert all(np.dot((1, 2, 4), d) % 7 for d in offsets)


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 5)] * 3), lo=st.tuples(*[st.integers(-4, 2)] * 3),
       shell=st.integers(1, 2), U=st.floats(2.0, 32.0), seed=st.integers(0, 2**16))
def test_local_energy_change_equals_full_difference(dims, lo, shell, U, seed):
    """The flip energy change read off ``_Lattice``'s tables equals h2 and h4
    of the flipped configuration minus h2 and h4 before, at every tried site
    of a random configuration (shell spins random too).  A shell-1 volume
    covers h2's reach only, so there only h2 is compared, and the h4
    lattice refuses it."""
    vol = Volume(dims=dims, shell=shell, lo=lo)
    co = ModelCoefficients(U=U)
    rng = np.random.default_rng(seed)
    cfg = SpinConfiguration(vol, rng.choice(np.array([-1, 1], dtype=np.int8), size=vol.padded_dims))
    spins = cfg.spins.ravel()
    sites = list(vol.sites())
    energies = {"h2": h2_relative_energy, "h4": h4_relative_energy}
    if shell == 1:
        with pytest.raises(ValueError):
            _Lattice(vol, interaction_terms(co, "h4"))
        del energies["h4"]
    lattices = {ham: _Lattice(vol, interaction_terms(co, ham)) for ham in energies}
    for m in rng.choice(len(sites), size=min(len(sites), 4), replace=False):
        flipped = cfg.with_flip(sites[m])
        for ham, energy in energies.items():
            lat = lattices[ham]
            assert vol.index(sites[m]) == np.unravel_index(lat.vol_flat[m], lat.shape)
            field = spins[lat.pair_idx[m]] @ lat.pair_w + spins[lat.plq[:, m]].prod(axis=0) @ lat.plq_w
            de = 2.0 * spins[lat.vol_flat[m]] * field
            assert de == pytest.approx(energy(flipped, co) - energy(cfg, co), abs=1e-12)


@pytest.mark.parametrize("ham", ["h2", "h4"])
@pytest.mark.parametrize("bc", ["bc111", "hom_plus"])
def test_colour_sweep_matches_random_site_kernel(ham, bc):
    """Mean energy and acceptance of the colour sweep and of the random-site
    kernel agree within 4 combined standard errors over independent replicas."""
    # beta = 2 at U = 4: acceptance 0.3-0.45 in all four cases, away from the
    # h2 ordering transition (beta J ~ 0.22), so chains of 200 sweeps mix
    spec = _spec(bc=bc, hamiltonian=ham, beta=2.0, sweeps=200,
                 thermalization=40, seed=7, measure_stride=5, cross_check_stride=20)
    replicas = 6
    stats = {}
    for name, run in (("colour", mc_run), ("random-site", ref.reference_mc_run)):
        chains = [run(spec, replica=r) for r in range(replicas)]
        stats[name] = {
            key: (np.mean(v), np.std(v, ddof=1) / math.sqrt(replicas))
            for key, v in (("energy", [c.mean_energy() for c in chains]),
                           ("acceptance", [c.mean_acceptance() for c in chains]))
        }
    for key in ("energy", "acceptance"):
        (m1, se1), (m2, se2) = stats["colour"][key], stats["random-site"][key]
        assert se1 > 0 and se2 > 0
        assert abs(m1 - m2) <= 4.0 * math.hypot(se1, se2), (key, stats)


@pytest.mark.parametrize("bc", ["bc111", "bc100"])
def test_exact_h2_energies_match_relative_energy(bc):
    """The enumeration's bond loop agrees with ``h2_relative_energy`` (read
    off the interaction table) on sampled configurations of the 3x2x2 box."""
    vol = Volume(dims=(3, 2, 2), shell=2)
    spins, energies = exact.h2_energies(vol, bc, U=4.0)
    assert spins.shape == (4096, 12)
    base = SpinConfiguration.from_boundary(vol, bc)
    for m in np.random.default_rng(5).choice(len(energies), size=32, replace=False):
        padded = base.spins.copy()
        padded[vol.box] = spins[m].reshape(vol.dims)
        cfg = SpinConfiguration(vol, padded, bc=bc)
        assert energies[m] == pytest.approx(h2_relative_energy(cfg, ModelCoefficients(U=4.0)),
                                            abs=1e-12)


@pytest.mark.parametrize("bc, stride, want", [("bc111", 50, 2.963566), ("bc100", 10, 2.801072)])
def test_h2_chain_mean_energy_matches_exact_enumeration(bc, stride, want):
    """<E> of one h2 chain with the corner round (U = 4, beta = 1, seed 11)
    on the 3x2x2 box lies within 4 standard errors of the exact Boltzmann
    average over its 4096 configurations; the error is that of 20 batch
    means.  bc111 measures every 50 sweeps, since each measurement extracts
    the pinned interface."""
    spec = RunSpec(dims=(3, 2, 2), bc=bc, hamiltonian="h2", U=4.0, beta=1.0, sweeps=20200,
                   thermalization=200, seed=11, measure_stride=stride)
    exact_mean = exact.boltzmann_mean(exact.h2_energies(spec.volume(), bc, spec.U)[1], spec.beta)
    assert exact_mean == pytest.approx(want, abs=1e-6)
    energies = np.array(mc_run(spec).energies)
    batches = energies.reshape(20, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(len(batches))
    assert se > 0
    assert abs(energies.mean() - exact_mean) <= 4.0 * se, (energies.mean(), exact_mean, se)
