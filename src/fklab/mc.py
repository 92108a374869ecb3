"""Metropolis sampling of the truncated classical models under all boundary
conditions, with the observables that make interface rigidity visible at desk
scale: layer magnetization profiles, the good-pair fraction of the projected
111 interface, and its excess width.

Proposal kernels are symmetric (uniform random site; the compound move applies
the flip only when the site is an interface corner, which leaves the proposal
distribution symmetric), so plain Metropolis acceptance min(1, e^(-beta dE))
satisfies detailed balance by construction.  Randomness comes from a
counter-based Philox stream keyed by (seed, replica): replicas are independent
and runs reproduce exactly regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classical import (
    ModelCoefficients,
    extract_contours,
    h2_relative_energy,
    h4_relative_energy,
)
from .lattice import SpinConfiguration, Volume, coordinate_sum
from .tiling import good_pair_fraction_of_faces, phi, stair_height

HAMILTONIANS = ("h2", "h4")
MOVE_SETS = ("single-flip", "single-flip+hexagon-flip")


@dataclass(frozen=True)
class RunSpec:
    dims: tuple
    bc: str
    hamiltonian: str
    U: float
    beta: float
    sweeps: int
    thermalization: int
    seed: int
    move_set: str = "single-flip+hexagon-flip"
    measure_stride: int = 10
    cross_check_stride: int = 200
    shell: int = 2
    snapshot_stride: int = 0   # keep pinned-interface faces every n-th measurement

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"need finite beta >= 0, got {self.beta}")
        if not (math.isfinite(self.U) and self.U > 0):
            raise ValueError(f"need finite U > 0, got {self.U}")
        if self.sweeps <= self.thermalization:
            raise ValueError("sweeps must exceed thermalization")
        if self.hamiltonian not in HAMILTONIANS:
            raise ValueError(f"hamiltonian must be one of {HAMILTONIANS}")
        if self.move_set not in MOVE_SETS:
            raise ValueError(f"move_set must be one of {MOVE_SETS}")
        object.__setattr__(self, "dims", tuple(self.dims))

    def volume(self) -> Volume:
        return Volume(dims=self.dims, shell=self.shell)


@dataclass
class ObservableSeries:
    """Per-measurement records of one chain, taken after thermalization."""

    spec: RunSpec
    replica: int
    sweeps: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    acceptance: list = field(default_factory=list)
    widths: list = field(default_factory=list)
    good_fractions: list = field(default_factory=list)
    overlap_flags: list = field(default_factory=list)
    profiles: list = field(default_factory=list)   # layer magnetization arrays
    layers: list = field(default_factory=list)     # layer labels (shared)
    snapshots: list = field(default_factory=list)  # (sweep, pinned faces)
    final_config: SpinConfiguration | None = None

    def mean_energy(self) -> float:
        return float(np.mean(self.energies)) if self.energies else 0.0

    def mean_acceptance(self) -> float:
        return float(np.mean(self.acceptance)) if self.acceptance else 0.0

    def mean_good_fraction(self) -> float:
        return float(np.mean(self.good_fractions)) if self.good_fractions else float("nan")

    def mean_width(self) -> float:
        return float(np.mean(self.widths)) if self.widths else float("nan")

    def mean_profile(self) -> np.ndarray:
        return np.mean(np.array(self.profiles), axis=0) if self.profiles else np.array([])

    def csv_rows(self):
        yield "sweep,energy,acceptance,width,good_fraction"
        for i, s in enumerate(self.sweeps):
            w = self.widths[i] if self.widths else float("nan")
            g = self.good_fractions[i] if self.good_fractions else float("nan")
            yield f"{s},{self.energies[i]!r},{self.acceptance[i]!r},{w!r},{g!r}"


class _Lattice:
    """Flattened neighbour tables for O(1) local energy differences.

    Tables are built by rolling the padded index cube; every shift used is at
    most 2 sites, so a shell of depth >= 2 keeps all lookups off the wrap.
    """

    def __init__(self, volume: Volume):
        if volume.shell < 2:
            raise ValueError("sampler requires shell depth >= 2")
        self.volume = volume
        dims = volume.padded_dims
        self.shape = dims
        idx = np.arange(int(np.prod(dims))).reshape(dims)
        s = volume.shell
        self.vol_flat = idx[s:-s, s:-s, s:-s].ravel()
        self.n_vol = self.vol_flat.size

        def shift_flat(d):
            return np.roll(idx, shift=tuple(-x for x in d), axis=(0, 1, 2))[s:-s, s:-s, s:-s].ravel()

        up_dirs = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        dn_dirs = ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
        self.up = np.stack([shift_flat(d) for d in up_dirs], axis=1)
        self.dn = np.stack([shift_flat(d) for d in dn_dirs], axis=1)
        self.nn = np.concatenate([self.up, self.dn], axis=1)

        sq2, d2 = [], []
        for mu in range(3):
            for nu in range(mu + 1, 3):
                for smu in (1, -1):
                    for snu in (1, -1):
                        d = [0, 0, 0]
                        d[mu], d[nu] = smu, snu
                        sq2.append(tuple(d))
        for d in up_dirs + dn_dirs:
            d2.append(tuple(2 * x for x in d))
        # pair neighbours with their couplings folded into one weight table
        self.pair_idx = np.concatenate(
            [self.nn] + [np.stack([shift_flat(d) for d in sq2], axis=1)]
            + [np.stack([shift_flat(d) for d in d2], axis=1)],
            axis=1,
        )
        plq = []
        for mu in range(3):
            for nu in range(mu + 1, 3):
                for smu in (1, -1):
                    for snu in (1, -1):
                        a = [0, 0, 0]; a[mu] = smu
                        b = [0, 0, 0]; b[nu] = snu
                        c = [0, 0, 0]; c[mu] = smu; c[nu] = snu
                        plq.append((tuple(a), tuple(b), tuple(c)))
        self.plq = np.stack(
            [np.stack([shift_flat(a), shift_flat(b), shift_flat(c)], axis=1) for (a, b, c) in plq],
            axis=1,
        )  # (n_vol, 12, 3)

    def pair_weights(self, co: ModelCoefficients, hamiltonian: str) -> np.ndarray:
        if hamiltonian == "h2":
            w = np.zeros(24)
            w[:6] = co.j
            return w
        return np.concatenate([
            np.full(6, co.c_nn), np.full(12, -co.c_nnn), np.full(6, -co.c_2),
        ])


def _total_energy(config: SpinConfiguration, co: ModelCoefficients, hamiltonian: str) -> float:
    if hamiltonian == "h2":
        return h2_relative_energy(config, co)
    return h4_relative_energy(config, co)


def layer_magnetization(config: SpinConfiguration, normal: str = "e3"):
    """Mean spin per lattice layer: x3 layers for e3, coordinate-sum layers for 111."""
    vol = config.volume
    layers: dict = {}
    for site in vol.sites():
        key = site[2] if normal == "e3" else coordinate_sum(site)
        layers.setdefault(key, []).append(config.spin(site))
    labels = sorted(layers)
    return labels, np.array([np.mean(layers[k]) for k in labels])


def _pinned_faces(config: SpinConfiguration):
    contours = extract_contours(config)
    pinned = [c for c in contours if c.pinned]
    if not pinned:
        raise ValueError("no pinned interface present")
    return pinned[0].faces


def good_pair_fraction(config: SpinConfiguration) -> float:
    """Good edges / classified interior edges of the projected pinned interface.

    Exactly 1.0 on the staircase; on a non-minimal interface the fraction is
    taken over the classified edges only (overlap flag via the projection).
    """
    frac, _flag = good_pair_fraction_of_faces(_pinned_faces(config))
    return frac


def interface_width(config: SpinConfiguration) -> float:
    """Excess interface width: deviation of per-column displacements.

    Every (1,1,1) site column carries D = (sum of s - s_staircase)/2, the net
    number of spins raised relative to the ground state.  Only columns of
    maximal length count (box corners clip short columns, which would turn a
    rigid height shift into spurious roughness); on the retained columns the
    staircase gives D = 0 and a rigid shift adds a constant, so the standard
    deviation measures roughness only.
    """
    vol = config.volume
    cols: dict = {}
    lengths: dict = {}
    for site in vol.sites():
        c = phi(site)
        gs = 1 if coordinate_sum(site) >= stair_height(c) - 1 else -1
        cols[c] = cols.get(c, 0) + (config.spin(site) - gs)
        lengths[c] = lengths.get(c, 0) + 1
    full = max(lengths.values())
    d = np.array([v for c, v in cols.items() if lengths[c] == full], dtype=float) / 2.0
    return float(np.std(d))


def metropolis_ratio(beta: float, delta_e: float) -> float:
    """a(dE)/a(-dE) for the Metropolis rule equals e^(-beta dE) identically."""
    a_fwd = min(1.0, math.exp(-beta * delta_e))
    a_bwd = min(1.0, math.exp(beta * delta_e))
    return a_fwd / a_bwd


def mc_run(spec: RunSpec, replica: int = 0) -> ObservableSeries:
    """One Metropolis chain; byte-for-byte reproducible given (spec, replica).

    Starts in the boundary ground configuration, accumulates local energy
    differences, and cross-checks the running energy against a full
    re-evaluation every ``cross_check_stride`` sweeps to 1e-9.
    """
    vol = spec.volume()
    co = ModelCoefficients(U=spec.U)
    config0 = SpinConfiguration.from_boundary(vol, spec.bc)
    spins = config0.spins.astype(np.int64).ravel()
    lat = _Lattice(vol)
    rng = np.random.Generator(np.random.Philox(key=(spec.seed, replica)))
    pair_w = lat.pair_weights(co, spec.hamiltonian)
    use_plq = spec.hamiltonian == "h4"
    hex_moves = spec.move_set == "single-flip+hexagon-flip"
    beta = spec.beta
    n = lat.n_vol

    def view_config() -> SpinConfiguration:
        return SpinConfiguration(vol, spins.reshape(lat.shape).astype(np.int8), bc=spec.bc)

    energy = _total_energy(view_config(), co, spec.hamiltonian)
    series = ObservableSeries(spec=spec, replica=replica)

    def delta_e(p: int, i: int) -> float:
        pair = float(pair_w @ spins[lat.pair_idx[p]])
        if use_plq:
            trip = spins[lat.plq[p]]
            pair -= co.c_plq * float((trip[:, 0] * trip[:, 1] * trip[:, 2]).sum())
        return 2.0 * spins[i] * pair

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
                if corner_round and not (
                    np.all(spins[lat.up[p]] == 1) and np.all(spins[lat.dn[p]] == -1)
                ):
                    continue
                de = delta_e(p, i)
                if de <= 0.0 or u < math.exp(-beta * de):
                    spins[i] = -spins[i]
                    energy += de
                    accepted += 1
        if sweep % spec.cross_check_stride == 0:
            full = _total_energy(view_config(), co, spec.hamiltonian)
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
                faces = _pinned_faces(cfg)
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


def thermalization_diagnostic(series: ObservableSeries) -> dict:
    """Two-window comparison of the energy trace after thermalization.

    Stationarity is declared when the two half-window means differ by less
    than two standard errors (or the trace is exactly constant).
    """
    e = np.asarray(series.energies, dtype=float)
    if e.size < 4:
        return {"stationary": True, "delta": 0.0, "stderr": 0.0}
    half = e.size // 2
    a, b = e[:half], e[half:]
    se = math.sqrt(np.var(a) / max(len(a), 1) + np.var(b) / max(len(b), 1))
    delta = abs(float(a.mean() - b.mean()))
    return {"stationary": delta <= 2.0 * se or se == 0.0, "delta": delta, "stderr": se}
