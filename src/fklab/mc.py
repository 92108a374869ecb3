"""Metropolis sampling of the truncated classical models under all boundary
conditions, with the observables that make interface rigidity visible at desk
scale: layer magnetization profiles, the good-pair fraction of the projected
111 interface, and its excess width.

A sweep is a single-flip round and, with the hexagon move set, a corner round.
Each round visits the colour classes c(j) = (j1 + a j2 + a^2 j3) mod m of the
box index j in order, with the least modulus m, then the least multiplier a,
that separates every pair of sites a term of ``classical.interaction_terms``
couples: the checkerboard (m, a) = (2, 1) for h2's bonds, and (7, 2) for h4's
axis offsets 1 and 2, face diagonals and plaquette corners, where no linear
colouring with fewer than seven classes exists.  The sites of one class thus
take their Metropolis steps at once, each with the energy change it would
have alone, and a round costs a fixed number of array operations per class.
The sampler's partner tables, couplings and colouring are read off that same
table, as is the shell depth a run needs (``classical.interaction_reach``: 1
for h2, 2 for h4), which ``RunSpec`` checks when it is built; the running
energy is cross-checked against ``classical.relative_energy`` of it.  Each
site of the class is proposed with probability 1/2 and a proposal is
accepted with probability min(1, e^(-beta dE)); the corner round also
requires the site to be an interface corner, a predicate that reads only
neighbours of other colours and ignores the site's own spin, so the proposal
stays symmetric.  A class update is thus a product of commuting reversible single-site kernels:
the sweep leaves the Boltzmann distribution stationary, but, visiting the
classes in a fixed order, it is not itself reversible.  The proposal coin
keeps the kernel aperiodic: without it, every dE = 0 move would be taken with
certainty and a cold chain could run deterministically.

A rejected class update leaves the spins as they were, so nothing read off
them changes: each class's energy changes, acceptance thresholds and corner
mask, and the last measurement's observables, are kept until a spin flips,
and any flip drops them all (every site has partners in every other class).
After a sweep that flips nothing, every threshold and corner mask is
current, so the uniforms of the sweeps still to come in the drawn block are
compared with them in one operation: the sweeps before the first one in
which a site would flip only do their bookkeeping (cross-check and
measurement), and that sweep runs the class visits.  A chain's cost thus
follows its flip rate, the observation behind rejection-free Monte Carlo
(Bortz, Kalos and Lebowitz 1975), here without changing the chain: a frozen
chain costs its random draws, its measurements and the cross-checks, which
still run at every ``cross_check_stride``.

Randomness comes from a counter-based Philox stream keyed by (seed, replica),
drawn in blocks of whole sweeps (about ``_BLOCK_UNIFORMS`` uniforms, at
least one sweep); Philox fills a block in order, so the stream is that of
one draw per sweep: replicas are independent and runs reproduce exactly
regardless of scheduling.  The pinned interface is measured on the face
arrays of ``extract_contours``' labelling, and a snapshot's frozenset is
built only when one is due.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .classical import (
    ModelCoefficients,
    Terms,
    _face_components,
    grid_ids,
    interaction_reach,
    interaction_terms,
    relative_energy,
)
from .lattice import SpinConfiguration, Volume, boundary_spin
from .tiling import _good_pair_fraction

MOVE_SETS = ("single-flip", "single-flip+hexagon-flip")
# a corner has spin +1 at its three up neighbours and -1 at its three down ones
_CORNER = np.array((1, 1, 1, -1, -1, -1), dtype=np.int8)
# uniforms per random draw (128 KB of float64): 11 sweeps of a 9^3 box with the corner round
_BLOCK_UNIFORMS = 2**14
_INT_FIELDS = ("sweeps", "thermalization", "seed", "measure_stride", "cross_check_stride",
               "shell", "snapshot_stride")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        for name in _INT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 0 <= self.seed < 2**64:   # the Philox key holds it as a uint64
            raise ValueError(f"seed must be >= 0 and < 2^64, got {self.seed}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"need finite beta >= 0, got {self.beta}")
        # raises ValueError for a U the coefficients reject or an unknown hamiltonian
        reach = interaction_reach(interaction_terms(ModelCoefficients(U=self.U), self.hamiltonian))
        if self.shell < reach:
            raise ValueError(f"{self.hamiltonian} needs a shell of depth >= {reach}, got {self.shell}")
        boundary_spin(self.bc, (0, 0, 0))  # raises ValueError for an unknown bc
        if self.move_set not in MOVE_SETS:
            raise ValueError(f"move_set must be one of {MOVE_SETS}")
        if self.measure_stride < 1 or self.cross_check_stride < 1:
            raise ValueError("measure_stride and cross_check_stride must be >= 1")
        if self.thermalization < 0:
            raise ValueError(f"thermalization must be >= 0, got {self.thermalization}")
        if self.sweeps - self.thermalization < self.measure_stride:
            raise ValueError("the sweeps after thermalization must hold at least one measurement "
                             f"(measure_stride {self.measure_stride})")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot_stride must be >= 0")
        object.__setattr__(self, "dims", tuple(self.dims))
        self.volume()  # raises for bad dims, or CapExceeded for a huge box

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
    """Flattened partner tables of an ``interaction_terms`` table, for O(1)
    local energy differences.

    Tables hold flat indices into the padded spin array: a partner at offset
    d is the box site's flat index plus the flat offset of d.  A site x lies
    in the term anchored at x - c for every corner c of that term, so its
    partners there are the term's other corners minus c.  ``pair_idx`` (n, P)
    holds the partner of every pair term and ``plq`` (3, n, Q) the three of
    every plaquette; with their couplings ``pair_w`` and ``plq_w`` (minus the
    table's w), flipping x changes the energy by 2 s_x times the local field
    ``pair_w . s[pair_idx] + plq_w . prod s[plq]``.  Each group of terms is
    laid out corner by corner, so columns 0-2 of ``pair_idx`` are the up
    neighbours and 3-5 the down ones.  A partner offset is at most the
    table's ``interaction_reach`` along each axis, so with a shell at least
    that deep (checked here) no lookup leaves the padded array or wraps into
    another row: shell 1 serves h2, shell 2 h4.  ``classes`` holds, for each
    colour c = (j1 + a j2 + a^2 j3) mod m of the box index j (``_colouring``
    of the table: two classes for h2, seven for h4), the class's rows of
    ``vol_flat``, ``pair_idx`` and ``plq``; no row of a class refers to a
    site of the same class.  Box indices make the colours independent of the
    shell depth.
    """

    def __init__(self, volume: Volume, terms: Terms):
        reach = interaction_reach(terms)
        if volume.shell < reach:
            raise ValueError(f"the sampler needs a shell of depth >= {reach}, got {volume.shell}")
        self.volume = volume
        dims = volume.padded_dims
        self.shape = dims
        self.vol_flat = np.arange(int(np.prod(dims))).reshape(dims)[volume.box].ravel()
        self.n_vol = self.vol_flat.size
        strides = np.array((dims[1] * dims[2], dims[2], 1))
        pair_d, pair_w, plq_d, plq_w = [], [], [], []
        for w, group in terms:
            flats = [np.array(((0, 0, 0), *offsets)) @ strides for offsets in group]
            for j in range(len(flats[0])):
                for flat in flats:
                    partners = np.delete(flat, j) - flat[j]
                    if len(partners) == 1:
                        pair_d.append(partners[0])
                        pair_w.append(-w)
                    else:
                        plq_d.append(partners)
                        plq_w.append(-w)
        self.pair_idx = self.vol_flat[:, None] + np.array(pair_d, dtype=np.int64)
        plq_d = np.array(plq_d, dtype=np.int64).reshape(-1, 3).T   # (3, Q)
        self.plq = self.vol_flat[:, None] + plq_d[:, None]
        self.pair_w = np.array(pair_w)
        self.plq_w = np.array(plq_w)
        m, a = _colouring(terms)
        j1, j2, j3 = np.indices(volume.dims)   # in the order of vol_flat
        colour = ((j1 + a * j2 + a * a * j3) % m).ravel()
        self.classes = [
            (self.vol_flat[mask], self.pair_idx[mask], self.plq[:, mask])
            for mask in (colour == c for c in range(m))
        ]


def _colouring(terms: Terms) -> tuple[int, int]:
    """The least modulus m >= 2, then the least multiplier a in [1, m), such
    that (1, a, a^2) . d is not 0 mod m for any offset d between two corners
    of one term: (2, 1) for h2, (7, 2) for h4.  The search ends: mod a prime
    m greater than every |d_i| no d vanishes, so each d1 + d2 a + d3 a^2 has
    at most two roots a, and if also m > 2 len(d) + 1, some a is a root of
    none."""
    d = np.array([np.subtract(q, p) for _, group in terms for offsets in group
                  for p, q in itertools.combinations(((0, 0, 0), *offsets), 2)])
    for m in itertools.count(2):
        for a in range(1, m):
            if np.all(d @ (1, a, a * a) % m):
                return m, a


def _box_arrays(config: SpinConfiguration):
    """Coordinates (3, n) and spins (n,) of the box sites, in ``Volume.sites`` order."""
    vol = config.volume
    return vol.coords()[(slice(None),) + vol.box].reshape(3, -1), config.spins[vol.box].ravel()


def layer_magnetization(config: SpinConfiguration, normal: str = "e3"):
    """Mean spin per lattice layer: x3 layers for e3, coordinate-sum layers for 111."""
    if normal not in ("e3", "111"):
        raise ValueError(f'normal must be "e3" or "111", got {normal!r}')
    k, spins = _box_arrays(config)
    key = k[2] if normal == "e3" else k.sum(axis=0)
    first = key.min()
    counts = np.bincount(key - first)
    sums = np.bincount(key - first, weights=spins)
    rows = np.flatnonzero(counts)
    return (rows + first).tolist(), sums[rows] / counts[rows]


def _pinned_rows(config: SpinConfiguration) -> tuple[np.ndarray, np.ndarray]:
    """Lower sites (n, 3) and directions (n,) of the pinned interface's faces,
    in the order ``extract_contours`` fills its frozenset with them; a bc111
    configuration always has one."""
    k, mu, lab, _, _, pinned = _face_components(config)
    root = np.flatnonzero(pinned)
    if not root.size:
        raise RuntimeError("no pinned interface present")
    rows = lab == root[0]
    return k[rows], mu[rows]


def _face_set(k: np.ndarray, mu: np.ndarray) -> frozenset:
    return frozenset(zip(map(tuple, k.tolist()), mu.tolist()))


def _pinned_faces(config: SpinConfiguration):
    """Faces of the pinned interface; a bc111 configuration always has one."""
    return _face_set(*_pinned_rows(config))


@functools.lru_cache(maxsize=8)
def _width_columns(dims: tuple, shell: int, lo: tuple):
    """``interface_width``'s constants of a volume: the (1,1,1) column id of
    each box site, the mask of the full-length columns, and the staircase
    spins, read-only."""
    vol = Volume(dims=dims, shell=shell, lo=lo)
    k = vol.coords()[(slice(None),) + vol.box].reshape(3, -1)
    col = grid_ids((k[:2] - k[2]).T)   # the projection along (1,1,1)
    lengths = np.bincount(col)
    out = col, lengths == lengths.max(), boundary_spin("bc111", k)
    for a in out:
        a.setflags(write=False)
    return out


def interface_width(config: SpinConfiguration) -> float:
    """Excess interface width: deviation of per-column displacements.

    Every (1,1,1) site column carries D = (sum of s - s_staircase)/2, the net
    number of spins raised relative to the ground state.  Only columns of
    maximal length count (box corners clip short columns, which would turn a
    rigid height shift into spurious roughness); on the retained columns the
    staircase gives D = 0 and a rigid shift adds a constant, so the standard
    deviation measures roughness only.  In a cube only the main diagonal has
    maximal length, so the width is identically 0 there; boxes with a short
    side (e.g. 7x7x3) have many full-length columns.
    """
    vol = config.volume
    col, full, stair = _width_columns(tuple(vol.dims), vol.shell, tuple(vol.lo))
    disp = np.bincount(col, weights=config.spins[vol.box].ravel() - stair)
    return float(np.std(disp[full] / 2.0))


def _sweeps_without_flip(us: np.ndarray, threshold: np.ndarray, corner: np.ndarray) -> int:
    """How many of the sweeps with uniforms ``us`` (b, rounds, n) come before
    the first in which some site's uniform falls below its threshold (in the
    corner round, at a corner), all thresholds and corner masks held."""
    if us.min() >= threshold.max():   # no site can flip
        return len(us)
    hit = us < threshold
    if us.shape[1] == 2:
        hit[:, 1] &= corner
    hit = hit.reshape(-1)
    first = int(hit.argmax())
    return first // us[0].size if hit[first] else len(us)


def mc_run(spec: RunSpec, replica: int = 0) -> ObservableSeries:
    """One Metropolis chain; byte-for-byte reproducible given (spec, replica).

    Starts in the boundary ground configuration, accumulates local energy
    differences, and cross-checks the running energy against a full
    re-evaluation every ``cross_check_stride`` sweeps to 1e-9, also while no
    spin flips.  The acceptance of a measurement is the sweep's accepted /
    proposed moves; a proposed corner move at a site that is not a corner
    counts as rejected.  A class's energy changes and the last measurement are
    reused while no spin has flipped since they were computed, and after a
    sweep without a flip the rest of the drawn block is compared with the
    kept thresholds at once: the sweeps before the next one that flips a
    spin only do their bookkeeping.  The outputs are those of a chain that
    recomputes everything at every class visit and measurement.
    """
    if not _is_int(replica) or not 0 <= replica < 2**64:
        raise ValueError(f"replica must be an integer >= 0 and < 2^64, got {replica!r}")
    vol = spec.volume()
    terms = interaction_terms(ModelCoefficients(U=spec.U), spec.hamiltonian)
    config0 = SpinConfiguration.from_boundary(vol, spec.bc)
    spins = config0.spins.ravel().copy()
    lat = _Lattice(vol, terms)
    rng = np.random.Generator(np.random.Philox(key=np.array([spec.seed, replica], dtype=np.uint64)))
    pair_w, plq_w = lat.pair_w, lat.plq_w
    rounds = 2 if spec.move_set == "single-flip+hexagon-flip" else 1
    beta = spec.beta
    n = lat.n_vol
    per_draw = max(1, _BLOCK_UNIFORMS // (rounds * n))   # sweeps
    # read off the spins and kept until a spin flips: per site, in the order
    # of a sweep's uniforms, the acceptance threshold and corner mask, and per
    # class its partner spins and de; then the last measurement
    threshold = np.empty(n)
    corner = np.zeros(n, dtype=bool)
    ends = np.cumsum([len(sites) for sites, _, _ in lat.classes])
    classes = [(sites, pair, plq, slice(end - len(sites), end),
                threshold[end - len(sites):end], corner[end - len(sites):end])
               for (sites, pair, plq), end in zip(lat.classes, ends)]
    fields = [None] * len(classes)
    cornered = [False] * len(classes)
    measured = None

    def view_config() -> SpinConfiguration:
        return SpinConfiguration(vol, spins.reshape(lat.shape).copy(), bc=spec.bc)

    energy = relative_energy(view_config(), terms)
    series = ObservableSeries(spec=spec, replica=replica)

    def class_sweep(us: np.ndarray) -> int:
        # one uniform u per site and round: the site is proposed when u < 1/2
        # and flipped when u < min(1, e^(-beta dE)) / 2, so given a proposal,
        # 2u is the uniform of the acceptance test
        nonlocal energy, fields, cornered, measured
        accepted = 0
        for r in range(rounds):
            for c, (sites, pair, plq, block, th, cm) in enumerate(classes):
                if fields[c] is None:
                    nb = spins[pair]
                    field = nb @ pair_w
                    if plq_w.size:   # h2 has no plaquettes
                        trip = spins[plq]
                        field += (trip[0] * trip[1] * trip[2]) @ plq_w
                    de = 2.0 * spins[sites] * field
                    # e^x is 0.0 for x <= -746: skip the slow underflow path
                    arg = -beta * np.maximum(de, 0.0)
                    th.fill(0.0)
                    np.exp(arg, out=th, where=arg > -746.0)
                    th *= 0.5
                    fields[c] = nb, de
                nb, de = fields[c]
                flip = us[r, block] < th
                if r == 1:
                    if not cornered[c]:
                        np.equal(nb[:, :6] @ _CORNER, 6, out=cm)
                        cornered[c] = True
                    flip &= cm
                flips = int(np.count_nonzero(flip))
                if not flips:
                    continue
                spins[sites[flip]] *= -1
                energy += float(de[flip].sum())
                accepted += flips
                # every site has partners in every other class
                fields = [None] * len(classes)
                cornered = [False] * len(classes)
                measured = None
        return accepted

    def end_sweep(sweep: int, accepted: int, us: np.ndarray) -> None:
        nonlocal energy, measured
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
            series.acceptance.append(accepted / max(int(np.count_nonzero(us < 0.5)), 1))
            if spec.bc == "bc111":
                if measured is None:
                    cfg = view_config()
                    k, mu = _pinned_rows(cfg)
                    # the faces' frozenset comes first, built when a snapshot is due
                    measured = [None, k, mu, *_good_pair_fraction(k, mu), interface_width(cfg)]
                _, k, mu, frac, flag, width = measured
                series.good_fractions.append(frac)
                series.overlap_flags.append(flag)
                series.widths.append(width)
                if spec.snapshot_stride and len(series.sweeps) % spec.snapshot_stride == 0:
                    if measured[0] is None:
                        measured[0] = _face_set(k, mu)
                    series.snapshots.append((sweep, measured[0]))
            elif spec.bc == "bc100":
                if measured is None:
                    measured = layer_magnetization(view_config(), normal="e3")
                series.layers, prof = measured
                series.profiles.append(prof.copy())

    current = False   # every threshold and corner mask is read off the present spins
    for done in range(0, spec.sweeps, per_draw):
        # one draw for the next b sweeps, in the order of one draw per sweep
        b = min(per_draw, spec.sweeps - done)
        us = rng.random(size=(b, rounds, n))
        next_flip = -1   # while current, the sweeps before this one flip no spin
        for i in range(b):
            if current and i > next_flip:
                next_flip = i + _sweeps_without_flip(us[i:], threshold, corner)
            if i < next_flip:
                accepted = 0
            else:
                accepted = class_sweep(us[i])
                current = not accepted
            end_sweep(done + i + 1, accepted, us[i])
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
