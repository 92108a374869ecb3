"""Exact quantum side: effective ionic energies from the grand-canonical
electron trace at fixed ion configuration, and the extraction of multi-spin
couplings by Walsh (Mobius) inversion.

With the ions static the electron Hamiltonian is quadratic, so the full Fock
trace factorizes over the levels eps_k of the L x L one-body matrix
``M(W) = diag(2U W - mu_e) - t A`` (A the nearest-neighbour adjacency):
``Tr e^(-beta H) = e^(beta mu_i sum W) prod_k (1 + e^(-beta eps_k))``.  The
appendix-style trajectory sums are replaced by this exact trace, so the decay
bounds become something to verify rather than to assume.

The closed-walk measure g and the connectedness of every support in a window
come from one ``lattice.subset_walks`` pass, which is also the one place the
walk cap ``MAX_WALK_SITES`` is raised; ``extract_couplings`` takes it before
any eigensolve.  A lattice symmetry of the cluster that fixes the window and
its frozen exterior only permutes the one-body matrix, so ``extract_couplings``
takes the trace once per symmetry orbit of window configurations.
``CouplingTable.synthesize`` re-sums a table with one parity lookup and one
dot product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .lattice import (
    UNIT_STEPS,
    CapExceeded,
    Site,
    coordinate_sum,
    popcounts,
    subset_walks,
)

MAX_ELECTRON_SITES = 14
MAX_ION_CONFIGS = 1 << 12
TINY = 1e-13  # couplings at or below this count as zero in decay fits and audits

# the 48 signed axis permutations (row j of each is +-e_perm[j]), the identity first
_SIGNED_PERMS = (np.array(list(itertools.product((1, -1), repeat=3)))[:, None, :, None]
                 * np.eye(3, dtype=int)[list(itertools.permutations(range(3)))]).reshape(-1, 3, 3)


@dataclass(frozen=True)
class FKParameters:
    """Couplings of the itinerant model; energies in units of the hopping.

    The half-filled neutral preset sets both chemical potentials to U.
    beta must be finite and positive, with a finite 1/beta; U, t and both
    chemical potentials finite.
    """

    U: float
    beta: float
    t: float = 1.0
    mu_e: float | None = None
    mu_i: float | None = None

    def __post_init__(self):
        if self.mu_e is None:
            object.__setattr__(self, "mu_e", self.U)
        if self.mu_i is None:
            object.__setattr__(self, "mu_i", self.U)
        if not (math.isfinite(self.beta) and self.beta > 0 and math.isfinite(1.0 / float(self.beta))):
            raise ValueError(f"beta must be finite and > 0 with a finite 1/beta, got {self.beta}")
        for name in ("U", "t", "mu_e", "mu_i"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def _hopping(sites: Sequence[Site]) -> tuple[list, np.ndarray]:
    """Sorted electron sites and their nearest-neighbour adjacency matrix."""
    sites = [tuple(s) for s in sites]
    if len(set(sites)) != len(sites):
        raise ValueError("duplicate sites")
    if len(sites) > MAX_ELECTRON_SITES:
        raise CapExceeded(f"electron problem capped at {MAX_ELECTRON_SITES} sites")
    sites.sort()
    index = {s: i for i, s in enumerate(sites)}
    adj = np.zeros((len(sites), len(sites)))
    for i, s in enumerate(sites):
        for d in UNIT_STEPS:
            j = index.get((s[0] + d[0], s[1] + d[1], s[2] + d[2]))
            if j is not None:
                adj[i, j] = adj[j, i] = 1.0
    return sites, adj


def _trace_energies(adj: np.ndarray, W: np.ndarray, params: FKParameters) -> np.ndarray:
    """H_eff for every row of ion occupations ``W`` (shape (..., L)).

    One batched eigvalsh of the one-body matrices, then the overflow-safe
    -(1/beta) log(1 + e^(-beta eps)) = min(eps, 0) - log1p(e^(-beta |eps|))/beta.
    """
    L = adj.shape[0]
    M = np.empty(W.shape + (L,))
    M[...] = -params.t * adj
    diag = np.arange(L)
    M[..., diag, diag] = 2.0 * params.U * W - params.mu_e
    eps = np.linalg.eigvalsh(M)
    if not np.all(np.isfinite(eps)):
        raise FloatingPointError("non-finite spectrum")
    with np.errstate(over="ignore"):   # beta |eps| past the float range: e^-inf = 0 is the limit
        levels = np.minimum(eps, 0.0) - np.log1p(np.exp(-params.beta * np.abs(eps))) / params.beta
    return levels.sum(axis=-1) - params.mu_i * W.sum(axis=-1)


def effective_energy(sites: Sequence[Site], ion_config: dict, params: FKParameters) -> float:
    """H_eff = -(1/beta) log Tr exp(-beta H), traced over the full Fock space.

    ``ion_config`` maps each site to W(x) in {0,1}; any other value raises
    ValueError naming the site.  H = sum (2U W - mu_e) n - mu_i sum W
    - t sum (c+c + h.c.) is quadratic in the electrons, so the trace is taken
    over its one-body levels; finite for all finite parameters.
    """
    sites, adj = _hopping(sites)
    occupations = [ion_config[s] for s in sites]
    for s, occ in zip(sites, occupations):
        if occ not in (0, 1):
            raise ValueError(f"ion occupation at {s} must be 0 or 1, got {occ!r}")
    W = np.array(occupations, dtype=float)
    return float(_trace_energies(adj, W, params))


def neel_ion(site: Site) -> int:
    """Checkerboard ion occupation: W = 1 on the even sublattice."""
    return 1 if coordinate_sum(site) % 2 == 0 else 0


@dataclass
class CouplingEntry:
    sites: tuple
    value: float
    g: int
    connected: bool

    @property
    def size(self) -> int:
        return len(self.sites)


@dataclass
class CouplingTable:
    """Walsh coefficients of S -> H_eff(beta, S) over a window of sites.

    ``entries`` hold the monomial couplings up to the requested g cutoff
    (by the closed-walk measure, which is defined for any support, connected
    or not); the full coefficient vector is kept so that re-synthesis
    reproduces H_eff exactly on every configuration.
    """

    window: tuple
    beta: float
    U: float
    t: float
    constant: float
    entries: list
    _coeffs: np.ndarray | None = None
    max_g: int = 0

    def value(self, sites: Iterable[Site]) -> float:
        key = tuple(sorted(tuple(s) for s in sites))
        for e in self.entries:
            if e.sites == key:
                return e.value
        raise KeyError(f"no entry for {key}")

    def synthesize(self, ion_config: dict) -> float:
        """Reconstruct H_eff for an ion configuration from all coefficients.

        Each support A contributes Phi_A with the sign (-1)^k, k the number of
        empty window sites in A; the signs come from one parity lookup and
        the sum is one dot product.  An occupation other than 0/1 on a window
        site raises ValueError.
        """
        if self._coeffs is None:
            raise ValueError("table was loaded without the full coefficient vector")
        m = 0
        for i, s in enumerate(self.window):
            occ = ion_config[s]
            if occ not in (0, 1):
                raise ValueError(f"ion occupation at {s} must be 0 or 1, got {occ!r}")
            if occ:
                m |= 1 << i
        w = len(self.window)
        empty = np.arange(1 << w) & ~m
        signs = 1 - 2 * (popcounts(w)[empty] & 1)
        return float(self._coeffs @ signs)

    def to_json(self) -> dict:
        return {
            "window": [list(s) for s in self.window],
            "beta": self.beta,
            "U": self.U,
            "t": self.t,
            "constant": self.constant,
            "max_g": self.max_g,
            "couplings": [
                {"cluster": [list(s) for s in e.sites], "g": e.g,
                 "connected": e.connected, "value": e.value}
                for e in self.entries
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "CouplingTable":
        """Inverse of ``to_json``, without the full coefficient vector; raises
        ValueError on a document of any other shape."""
        def number(x) -> bool:
            return isinstance(x, (int, float)) and not isinstance(x, bool)

        def sites(x) -> tuple:
            if not (isinstance(x, list) and all(isinstance(s, list) and len(s) == 3
                                                and all(type(c) is int for c in s) for s in x)):
                raise ValueError(f"sites are lists of three integers, got {x!r}")
            return tuple(map(tuple, x))

        if not (isinstance(doc, dict) and type(doc.get("max_g")) is int
                and all(number(doc.get(k)) for k in ("beta", "U", "t", "constant"))
                and isinstance(doc.get("couplings"), list)
                and all(isinstance(c, dict) and number(c.get("value")) and type(c.get("g")) is int
                        and type(c.get("connected")) is bool for c in doc["couplings"])):
            raise ValueError("a coupling table is the object CouplingTable.to_json writes")
        entries = [CouplingEntry(sites=sites(c.get("cluster")), value=float(c["value"]),
                                 g=c["g"], connected=c["connected"]) for c in doc["couplings"]]
        return cls(
            window=sites(doc.get("window")),
            beta=float(doc["beta"]), U=float(doc["U"]), t=float(doc["t"]),
            constant=float(doc["constant"]), entries=entries, max_g=doc["max_g"],
        )


def _walsh_transform(values: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard butterfly on a copy of ``values``; length must be
    a power of two."""
    a = values.copy()
    n = a.shape[0]
    h = 1
    while h < n:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:].copy()
        a[:, :h] = left + right
        a[:, h:] = left - right
        a = a.reshape(n)
        h *= 2
    return a


def _orbits(sites: Sequence[Site], window: Sequence[Site],
            base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the window bitmasks under the cluster's lattice symmetries.

    A symmetry is a signed axis permutation, re-anchored to the bounding box
    of ``sites`` (sorted), that maps the sites, the window and the exterior
    occupations ``base`` (aligned with ``sites``) onto themselves; bit i of a
    bitmask is ``window[i]``.  Returns the least bitmask of each orbit in
    ascending order and the orbit index of every bitmask.

    Each site gets an integer key from its coordinates, doubled and centred
    on the box (where every re-anchored symmetry is linear), plus its label
    (exterior empty, window, exterior occupied); a symmetry keeps the sorted
    keys.  A box more than 2^19 sites across, whose keys could overflow
    int64, is left unreduced.
    """
    w = len(window)
    masks = np.arange(1 << w)
    if w == 0:
        return masks, masks
    v = np.array(sites)
    v = 2 * v - (v.min(axis=0) + v.max(axis=0))
    radix = 2 * int(v.max()) + 1
    if radix > 1 << 20:
        return masks, masks
    stride = np.array([3 * radix * radix, 3 * radix, 3])
    index = {s: i for i, s in enumerate(sites)}
    widx = [index[s] for s in window]
    label = 2 * base.astype(int)
    label[widx] = 1
    key = v @ stride + label                          # ascending, as sites are sorted
    image = (stride @ _SIGNED_PERMS) @ v.T + label    # [symmetry, site]
    keep = (np.sort(image, axis=1) == key).all(axis=1)
    if np.count_nonzero(keep) == 1:                   # the identity alone
        return masks, masks
    bit = np.zeros(len(sites), dtype=int)
    bit[widx] = 1 << np.arange(w)
    moved = bit[np.searchsorted(key, image[keep][:, widx])]   # image bit of each window bit
    images = np.zeros((len(moved), 1), dtype=int)
    for i in range(w):                                # images of masks 0 .. 2^(i+1) - 1
        images = np.concatenate([images, images + moved[:, i:i + 1]], axis=1)
    least = images.min(axis=0)
    reps = np.flatnonzero(least == masks)
    return reps, np.searchsorted(reps, least)


def extract_couplings(
    sites: Iterable[Site],
    params: FKParameters,
    max_g: int,
    window: Sequence[Site] | None = None,
) -> CouplingTable:
    """Mobius inversion of S -> H_eff over the +-1 monomial basis.

    Every ion configuration of the window (exterior frozen to the checkerboard
    pattern ``neel_ion``) is solved exactly, once per orbit under the lattice
    symmetries of the cluster that fix the window and the exterior: each
    configuration takes the energy of its orbit's least bitmask.  The Walsh
    transform of the energy vector gives the coupling of each spin monomial.
    The coefficient of the monomial on support A appears at order U^(-g(A)),
    with g measured by the minimal closed walk through A.  The closed walk and the nearest-neighbour
    connectedness of every support come from one ``subset_walks`` pass over
    the window, taken before any eigensolve so that its ``MAX_WALK_SITES`` cap
    is raised first; the symmetry search follows every cap and check.
    Repeated window sites and ``max_g < 0`` raise ValueError.
    At most ``MAX_ELECTRON_SITES + 1`` sites are drawn from ``sites``, enough
    to raise that cap, so a huge volume's sites are never listed.
    """
    sites = list(itertools.islice(sites, MAX_ELECTRON_SITES + 1))
    window = [tuple(s) for s in (window if window is not None else sites)]
    w = len(window)
    if len(set(window)) != w:
        raise ValueError("repeated window sites")
    if max_g < 0:
        raise ValueError(f"max_g must be >= 0, got {max_g}")
    if 1 << w > MAX_ION_CONFIGS:
        max_window = MAX_ION_CONFIGS.bit_length() - 1
        raise CapExceeded(f"ion-configuration window capped at {max_window} sites")
    # g(A) >= |A| - 1, so no support larger than max_g + 1 sites is kept
    tour, connected = subset_walks(window, max_g + 1)
    sites, adj = _hopping(sites)
    index = {s: i for i, s in enumerate(sites)}
    if any(s not in index for s in window):
        raise ValueError("window must be a subset of the electron sites")

    # one row of ion occupations per window bitmask; only the diagonal of the
    # one-body matrix depends on it
    wset = set(window)
    base = np.array([0 if s in wset else neel_ion(s) for s in sites], dtype=float)
    reps, orbit = _orbits(sites, window, base)
    W = np.tile(base, (len(reps), 1))
    W[:, [index[s] for s in window]] = (reps[:, None] >> np.arange(w)) & 1
    energies = _trace_energies(adj, W, params)[orbit]

    # Phi_A = (-1)^|A| * WHT(F)[A] / 2^w  for s' = 2W - 1
    size = popcounts(w)
    coeffs = _walsh_transform(energies) / float(1 << w)
    coeffs[(size & 1) == 1] *= -1

    g = np.maximum(tour - 1, 0)
    entries = []
    for a in np.flatnonzero((size >= 1) & (size <= max_g + 1) & (g <= max_g)).tolist():
        entries.append(
            CouplingEntry(
                sites=tuple(sorted(window[i] for i in range(w) if (a >> i) & 1)),
                value=float(coeffs[a]),
                g=int(g[a]),
                connected=bool(connected[a]),
            )
        )
    entries.sort(key=lambda e: (e.g, e.size, e.sites))
    return CouplingTable(
        window=tuple(window),
        beta=params.beta,
        U=params.U,
        t=params.t,
        constant=float(coeffs[0]),
        entries=entries,
        _coeffs=coeffs,
        max_g=max_g,
    )


@dataclass
class DecayReport:
    levels: dict                 # g -> max |coupling|
    trivial: bool
    slope: float | None = None
    c1: float | None = None     # prefactor of the fitted bound c1 * (c/U)^g
    c: float | None = None      # fitted decay base: |coupling| <~ (c/U)^g

    @property
    def decreasing(self) -> bool:
        gs = sorted(self.levels)
        vals = [self.levels[g] for g in gs]
        return all(b < a for a, b in zip(vals, vals[1:]))


def verify_decay(table: CouplingTable) -> DecayReport:
    """Per-g maxima of |coupling| and an affine fit of their logarithms.

    The fitted pair (c1, c) realizes |coupling| <= c1 (c/U)^g on the table;
    a clean exponential decay shows up as c/U < 1.  Raises ValueError when
    two or more levels need that fit and U is not positive.
    """
    levels: dict = {}
    for e in table.entries:
        if e.size < 2:
            continue
        levels[e.g] = max(levels.get(e.g, 0.0), abs(e.value))
    live = {g: v for g, v in levels.items() if v > TINY}
    if len(live) == 0:
        return DecayReport(levels=levels, trivial=True)
    if len(live) == 1:
        ((g, v),) = live.items()
        return DecayReport(levels=levels, trivial=False, slope=None, c1=v, c=None)
    if not table.U > 0:
        raise ValueError(f"the decay fit |coupling| <= c1 (c/U)^g needs U > 0, got U = {table.U!r}")
    gs = np.array(sorted(live))
    logs = np.log([live[g] for g in gs])
    slope, intercept = np.polyfit(gs, logs, 1)
    c = table.U * math.exp(slope)
    # raise the prefactor until the bound envelopes every level
    c1 = max(live[g] / (c / table.U) ** g for g in gs)
    return DecayReport(levels=levels, trivial=False, slope=float(slope), c1=float(c1), c=float(c))
