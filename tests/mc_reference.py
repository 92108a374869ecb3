"""Reference implementations for the sampler tests.

``reference_mc_run`` is the random-site Metropolis kernel: every round draws
n uniformly random sites, and each proposal is accepted with probability
min(1, e^(-beta dE)); in the corner round, a site that is not an interface
corner counts as a rejected proposal.  ``colour_sweep_reference`` is the
colour-class sweep of ``mc_run`` with one draw of uniforms per sweep and
every energy change and measurement recomputed at every class visit and every
measured sweep: ``mc_run`` draws several sweeps at once, keeps what it read
off the spins while no spin flips, and passes over sweeps that flip nothing,
and must give the same bytes.  ``interface_width`` and
``layer_magnetization`` are the per-site dictionary loops that define the
observables.  The colour-sweep sampler and the vectorised observables in
``fklab.mc`` are checked against these.  ``pinned_faces`` takes the pinned
interface from ``extract_contours``, and ``good_pair_fraction`` reads the
fraction off it with ``good_pair_fraction_of_faces``: the frozenset path that
``mc_run``'s measurement on face arrays must match.
"""

from __future__ import annotations

import math

import numpy as np

from fklab.classical import ModelCoefficients, extract_contours, interaction_terms, relative_energy
from fklab.lattice import SpinConfiguration, coordinate_sum
from fklab import mc
from fklab.mc import ObservableSeries, RunSpec, _Lattice
from fklab.tiling import good_pair_fraction_of_faces, stair_height
from layout_reference import spin
from plane_reference import phi


def pinned_faces(config: SpinConfiguration) -> frozenset:
    """The faces of ``config``'s pinned contour; RuntimeError when it has none."""
    for c in extract_contours(config):
        if c.pinned:
            return c.faces
    raise RuntimeError("no pinned interface present")


def good_pair_fraction(config: SpinConfiguration) -> float:
    """Good edges / classified interior edges of the projected pinned interface.

    Exactly 1.0 on the staircase; on a non-minimal interface the fraction is
    taken over the classified edges only (overlap flag via the projection).
    """
    frac, _flag = good_pair_fraction_of_faces(pinned_faces(config))
    return frac


def layer_magnetization(config: SpinConfiguration, normal: str = "e3"):
    vol = config.volume
    layers: dict = {}
    for site in vol.sites():
        key = site[2] if normal == "e3" else coordinate_sum(site)
        layers.setdefault(key, []).append(spin(config, site))
    labels = sorted(layers)
    return labels, np.array([np.mean(layers[k]) for k in labels])


def interface_width(config: SpinConfiguration) -> float:
    vol = config.volume
    cols: dict = {}
    lengths: dict = {}
    for site in vol.sites():
        c = phi(site)
        gs = 1 if coordinate_sum(site) >= stair_height(c) - 1 else -1
        cols[c] = cols.get(c, 0) + (spin(config, site) - gs)
        lengths[c] = lengths.get(c, 0) + 1
    full = max(lengths.values())
    d = np.array([v for c, v in cols.items() if lengths[c] == full], dtype=float) / 2.0
    return float(np.std(d))


def reference_mc_run(spec: RunSpec, replica: int = 0) -> ObservableSeries:
    """One random-site Metropolis chain with the same measurements as ``mc_run``."""
    vol = spec.volume()
    terms = interaction_terms(ModelCoefficients(U=spec.U), spec.hamiltonian)
    config0 = SpinConfiguration.from_boundary(vol, spec.bc)
    spins = config0.spins.astype(np.int64).ravel()
    lat = _Lattice(vol, terms)
    rng = np.random.Generator(np.random.Philox(key=(spec.seed, replica)))
    hex_moves = spec.move_set == "single-flip+hexagon-flip"
    beta = spec.beta
    n = lat.n_vol

    def view_config() -> SpinConfiguration:
        return SpinConfiguration(vol, spins.reshape(lat.shape).astype(np.int8), bc=spec.bc)

    energy = relative_energy(view_config(), terms)
    series = ObservableSeries(spec=spec, replica=replica)

    def delta_e(p: int, i: int) -> float:
        field = float(lat.pair_w @ spins[lat.pair_idx[p]])
        field += float(lat.plq_w @ spins[lat.plq[:, p]].prod(axis=0))
        return 2.0 * spins[i] * field

    for sweep in range(1, spec.sweeps + 1):
        accepted = 0
        proposals = 0
        rounds = 2 if hex_moves else 1
        picks = rng.integers(0, n, size=rounds * n)
        us = rng.random(size=rounds * n)
        for r in range(rounds):
            corner_round = r == 1
            for p, u in zip(picks[r * n:(r + 1) * n], us[r * n:(r + 1) * n]):
                proposals += 1
                p = int(p)
                i = int(lat.vol_flat[p])
                up, dn = lat.pair_idx[p, :3], lat.pair_idx[p, 3:6]
                if corner_round and not (np.all(spins[up] == 1) and np.all(spins[dn] == -1)):
                    continue
                de = delta_e(p, i)
                if de <= 0.0 or u < math.exp(-beta * de):
                    spins[i] = -spins[i]
                    energy += de
                    accepted += 1
        if sweep % spec.cross_check_stride == 0:
            full = relative_energy(view_config(), terms)
            if abs(energy - full) > 1e-9 * max(1.0, abs(full)):
                raise RuntimeError(
                    f"energy bookkeeping drifted: running {energy!r} vs full {full!r}"
                )
            energy = full
        if sweep > spec.thermalization and (sweep - spec.thermalization) % spec.measure_stride == 0:
            series.sweeps.append(sweep)
            series.energies.append(energy)
            series.acceptance.append(accepted / max(proposals, 1))
            cfg = view_config()
            if spec.bc == "bc111":
                faces = pinned_faces(cfg)
                frac, flag = good_pair_fraction_of_faces(faces)
                series.good_fractions.append(frac)
                series.overlap_flags.append(flag)
                series.widths.append(interface_width(cfg))
                if spec.snapshot_stride and len(series.sweeps) % spec.snapshot_stride == 0:
                    series.snapshots.append((sweep, faces))
            elif spec.bc == "bc100":
                labels, prof = layer_magnetization(cfg, normal="e3")
                series.layers = labels
                series.profiles.append(prof)
    series.final_config = view_config()
    return series


def colour_sweep_reference(spec: RunSpec, replica: int = 0) -> ObservableSeries:
    """``mc_run``'s chain, drawing each sweep's uniforms on their own and
    recomputing each class's energy changes at every visit and the
    observables at every measurement."""
    vol = spec.volume()
    terms = interaction_terms(ModelCoefficients(U=spec.U), spec.hamiltonian)
    config0 = SpinConfiguration.from_boundary(vol, spec.bc)
    spins = config0.spins.ravel().copy()
    lat = _Lattice(vol, terms)
    rng = np.random.Generator(np.random.Philox(key=(spec.seed, replica)))
    pair_w, plq_w = lat.pair_w, lat.plq_w
    rounds = 2 if spec.move_set == "single-flip+hexagon-flip" else 1
    beta = spec.beta
    ends = np.cumsum([len(sites) for sites, _, _ in lat.classes])
    classes = [(sites, pair, plq, slice(end - len(sites), end))
               for (sites, pair, plq), end in zip(lat.classes, ends)]

    def view_config() -> SpinConfiguration:
        return SpinConfiguration(vol, spins.reshape(lat.shape).copy(), bc=spec.bc)

    energy = relative_energy(view_config(), terms)
    series = ObservableSeries(spec=spec, replica=replica)

    for sweep in range(1, spec.sweeps + 1):
        us = rng.random(size=(rounds, lat.n_vol))
        proposals = int(np.count_nonzero(us < 0.5))
        accepted = 0
        for r in range(rounds):
            for sites, pair, plq, block in classes:
                nb = spins[pair]
                field = nb @ pair_w
                if plq_w.size:
                    trip = spins[plq]
                    field += (trip[0] * trip[1] * trip[2]) @ plq_w
                de = 2.0 * spins[sites] * field
                flip = us[r, block] < 0.5 * np.exp(-beta * np.maximum(de, 0.0))
                if r == 1:
                    flip &= nb[:, :6] @ mc._CORNER == 6
                spins[sites[flip]] *= -1
                energy += float(de[flip].sum())
                accepted += int(np.count_nonzero(flip))
        if sweep % spec.cross_check_stride == 0:
            full = relative_energy(view_config(), terms)
            if abs(energy - full) > 1e-9 * max(1.0, abs(full)):
                raise RuntimeError(
                    f"energy bookkeeping drifted: running {energy!r} vs full {full!r}"
                )
            energy = full
        if sweep > spec.thermalization and (sweep - spec.thermalization) % spec.measure_stride == 0:
            series.sweeps.append(sweep)
            series.energies.append(energy)
            series.acceptance.append(accepted / max(proposals, 1))
            cfg = view_config()
            if spec.bc == "bc111":
                faces = pinned_faces(cfg)
                frac, flag = good_pair_fraction_of_faces(faces)
                series.good_fractions.append(frac)
                series.overlap_flags.append(flag)
                series.widths.append(mc.interface_width(cfg))
                if spec.snapshot_stride and len(series.sweeps) % spec.snapshot_stride == 0:
                    series.snapshots.append((sweep, faces))
            elif spec.bc == "bc100":
                labels, prof = mc.layer_magnetization(cfg, normal="e3")
                series.layers = labels
                series.profiles.append(prof)
    series.final_config = view_config()
    return series
