"""Finite 3D lattice geometry, boundary conditions, spin configurations and closed walks.

Sites live on a cubic lattice with half-integer physical coordinates: a site is
stored as an integer triple ``k`` and sits at ``x = k + 1/2`` componentwise.
All geometric predicates are evaluated on the integer representation, so
boundary classification is bit-exact.  The coordinate sum ``x1+x2+x3`` equals
``k1+k2+k3 + 3/2`` and is therefore always a half-odd integer, never inside
(-1/2, 1/2).

``Volume`` is the only code that knows the padded spin-array layout: a box
plus a frozen shell of width ``shell``, stored as one array of shape
``padded_dims``.  ``Volume.box`` is the slices of the box inside that array and
``Volume.coords()`` the site of every cell, shape ``(3, *padded_dims)``.
``boundary_spin`` takes one site or such a coordinate array; with ``bc111`` it
is the staircase, k1+k2+k3 >= -1, the ground state of the 111 interface.

The closed-walk measure g of a site set comes from one subset Held-Karp,
``subset_walks``, which solves every subset of a site list in one numpy pass
and also reports each subset's nearest-neighbour connectedness.  It is the
only closed-walk and connectedness code in the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

Site = tuple[int, int, int]

UNIT_STEPS: tuple[Site, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

#: Largest subset ``subset_walks`` solves (Held-Karp is 2^n n^2); raised only there.
MAX_WALK_SITES = 10

#: Most cells of a padded box (box plus shell) a ``Volume`` may have; raised
#: when it is built, before any array of the box is allocated.
MAX_PADDED_SITES = 2**21


class CapExceeded(ValueError):
    """A desk-scale resource cap was exceeded; the CLI maps it to exit code 3."""


def coordinate_sum(site: Site) -> int:
    """Integer part of the physical coordinate sum: x1+x2+x3 = coordinate_sum + 3/2."""
    return site[0] + site[1] + site[2]


def boundary_spin(bc: str, site) -> int | np.ndarray:
    """Spin prescribed at ``site`` when it is treated as exterior.

    ``bc100`` puts +1 where the third physical coordinate is >= 1/2 (k3 >= 0),
    ``bc111`` puts +1 where x1+x2+x3 >= 1/2 (k1+k2+k3 >= -1), the staircase.
    The homogeneous conditions are constant.  ``site`` is one site (the spin
    is an int) or an array whose first axis holds the three coordinates, such
    as ``Volume.coords()`` (the spins are an int8 array of the remaining shape).
    """
    k = np.asarray(site)
    if bc in ("hom_plus", "hom_minus"):
        up = np.full(k.shape[1:], bc == "hom_plus")
    elif bc == "bc100":
        up = k[2] >= 0
    elif bc == "bc111":
        up = k[0] + k[1] + k[2] >= -1
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    spins = np.where(up, 1, -1).astype(np.int8)
    return int(spins) if spins.ndim == 0 else spins


@dataclass(frozen=True)
class Volume:
    """Axis-aligned box of sites plus a frozen boundary shell.

    ``lo`` is the smallest site of the box (inclusive), ``dims`` its extent.
    The shell consists of all sites within Chebyshev distance ``shell`` of the
    box that are not in it; shell spins are fixed by the boundary condition and
    never updated by dynamics.  ``shell`` must cover the interaction range of
    the Hamiltonian in use, ``classical.interaction_reach`` (2 for the
    fourth-order model, 1 for second order).
    """

    dims: tuple[int, int, int]
    shell: int = 2
    lo: tuple[int, int, int] | None = None

    def __post_init__(self):
        if any(d <= 0 for d in self.dims):
            raise ValueError("dims must be positive")
        if self.shell < 1:
            raise ValueError("shell depth must be >= 1")
        if math.prod(self.padded_dims) > MAX_PADDED_SITES:
            raise CapExceeded(f"padded box {self.padded_dims} exceeds {MAX_PADDED_SITES} sites")
        if self.lo is None:
            object.__setattr__(self, "lo", tuple(-(d // 2) for d in self.dims))

    @property
    def hi(self) -> tuple[int, int, int]:
        return tuple(l + d - 1 for l, d in zip(self.lo, self.dims))

    @property
    def padded_lo(self) -> tuple[int, int, int]:
        return tuple(l - self.shell for l in self.lo)

    @property
    def padded_dims(self) -> tuple[int, int, int]:
        return tuple(d + 2 * self.shell for d in self.dims)

    def contains(self, site: Site) -> bool:
        return all(l <= s <= h for l, s, h in zip(self.lo, site, self.hi))

    @property
    def box(self) -> tuple[slice, slice, slice]:
        """Slices of the box inside the padded array."""
        return tuple(slice(self.shell, self.shell + d) for d in self.dims)

    def coords(self) -> np.ndarray:
        """Site of every padded cell, shape ``(3, *padded_dims)``:
        ``coords()[:, i, j, k] == padded_lo + (i, j, k)``."""
        return np.indices(self.padded_dims) + np.reshape(self.padded_lo, (3, 1, 1, 1))

    def sites(self) -> Iterator[Site]:
        for k in itertools.product(*(range(l, l + d) for l, d in zip(self.lo, self.dims))):
            yield k

    def index(self, site: Site) -> tuple[int, int, int]:
        """Array index of ``site`` in the padded box."""
        return tuple(s - l for s, l in zip(site, self.padded_lo))


class SpinConfiguration:
    """Spins +-1 on a volume plus its frozen shell, stored as an int8 array.

    The array covers the padded box; entries outside the shell-completed region
    do not exist. Instances are immutable: transforming operations return new
    configurations.
    """

    def __init__(self, volume: Volume, spins: np.ndarray, bc: str | None = None):
        spins = np.asarray(spins, dtype=np.int8)
        if spins.shape != volume.padded_dims:
            raise ValueError("spin array shape does not match padded volume")
        if not np.all(np.abs(spins) == 1):
            raise ValueError("spins must be +-1 everywhere on volume and shell")
        self.volume = volume
        self.bc = bc
        self._spins = spins
        self._spins.setflags(write=False)

    @property
    def spins(self) -> np.ndarray:
        return self._spins

    @classmethod
    def from_boundary(cls, volume: Volume, bc: str) -> "SpinConfiguration":
        """Configuration equal to the boundary prescription everywhere (shell and bulk)."""
        return cls(volume, boundary_spin(bc, volume.coords()), bc=bc)

    def with_flip(self, site: Site) -> "SpinConfiguration":
        if not self.volume.contains(site):
            raise ValueError("cannot flip a shell spin")
        spins = self._spins.copy()
        spins[self.volume.index(site)] *= -1
        return SpinConfiguration(self.volume, spins, bc=self.bc)

    def with_spins(self, spins: np.ndarray) -> "SpinConfiguration":
        return SpinConfiguration(self.volume, spins, bc=self.bc)


# ---------------------------------------------------------------------------
# Connected components, closed walks and the connectivity measure g(B)
# ---------------------------------------------------------------------------

def components(keys: Iterable[Iterable[Hashable]]) -> list[list[int]]:
    """Connected components of items joined through shared keys.

    Item ``i`` carries the hashable keys ``keys[i]``; two items that share a
    key are connected.  Returns each component's item indices in ascending
    order, and the components in order of their first index.  An item without
    keys is a component of its own.
    """
    parent: list[int] = []
    owner: dict = {}
    # the root searches halve their paths inline; ``parent[r] = r = ...``
    # assigns left to right, so the old r gets the grandparent
    for i, item_keys in enumerate(keys):
        parent.append(i)
        for k in item_keys:
            j = owner.setdefault(k, i)
            if j != i:
                r = i
                while parent[r] != r:
                    parent[r] = r = parent[parent[r]]
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if r != j:
                    parent[r] = j
    groups: dict[int, list[int]] = {}
    for i in range(len(parent)):
        r = i
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        parent[i] = r
        groups.setdefault(r, []).append(i)
    return list(groups.values())


def popcounts(n: int) -> np.ndarray:
    """Number of set bits of every bitmask 0 .. 2^n - 1."""
    pc = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    return pc


def subset_walks(pts: Sequence[Site], max_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-walk length and connectedness of every subset of ``pts``.

    Both arrays have 2^len(pts) entries, indexed by bitmask (bit i stands for
    ``pts[i]``).  ``tour[mask]`` is the minimal length of a closed lattice walk
    visiting every site of ``mask`` (0 for a singleton) for masks of
    1 .. ``max_size`` sites, and -1 for the empty mask and larger ones.  The
    walk may leave the set; between consecutive visited sites it costs at least
    the L1 distance and any L1 geodesic is realizable on the lattice, so the
    minimum is the shortest closed tour under the L1 metric.  ``connected[mask]``
    is nearest-neighbour connectedness of every mask (False for the empty one).
    More than ``MAX_WALK_SITES`` sites in ``min(max_size, len(pts))`` raises
    ``CapExceeded``; repeated sites raise ValueError.

    One Held-Karp dynamic program serves every subset: ``dp[mask, j]`` is the
    shortest L1 path from the lowest site of ``mask`` through all of ``mask``,
    ending at j.  Its only predecessor is ``mask ^ (1 << j)``, which starts at
    the same lowest site, so each popcount layer is one numpy pull from the
    layer below followed by a min.  Connectedness grows ``reach = mask & -mask``
    by the neighbours of ``reach`` inside ``mask``, for all masks at once, until
    nothing changes.
    """
    pts = [tuple(p) for p in pts]
    n = len(pts)
    if len(set(pts)) != n:
        raise ValueError("repeated sites")
    max_size = min(max_size, n)
    if max_size > MAX_WALK_SITES:
        raise CapExceeded(f"closed walks capped at {MAX_WALK_SITES} sites")
    if n == 0:
        return np.full(1, -1, dtype=np.int64), np.zeros(1, dtype=bool)
    coords = np.array(pts, dtype=np.int64).reshape(n, 3)
    dist = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=-1)
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    member = (masks[:, None] & bits) != 0
    size = popcounts(n)
    position = np.zeros(1 << n, dtype=np.int64)
    position[bits] = np.arange(n)
    low = position[masks & -masks]

    # dp[mask, j] is finite only for j in mask, j != low(mask), or a singleton
    inf = np.int64(1) << 40
    ends = member.copy()
    ends[masks, low] = size == 1
    dp = np.where(ends & (size == 1)[:, None], 0, inf)
    for k in range(2, max_size + 1):
        layer = masks[size == k]
        # best[m, j] = min_i dp[layer[m] ^ bit j, i] + dist[i, j]
        best = (dp[layer[:, None] ^ bits] + dist.T).min(axis=-1)
        dp[layer] = np.where(ends[layer], best, inf)
    tour = (dp + dist[:, low].T).min(axis=1)
    tour[(size == 0) | (size > max_size)] = -1

    nbr_or = np.bitwise_or.reduce(np.where(member, (dist == 1) @ bits, 0), axis=1)
    reach = masks & -masks
    while True:
        grown = (reach | nbr_or[reach]) & masks
        if np.array_equal(grown, reach):
            break
        reach = grown
    connected = (reach == masks) & (size > 0)
    return tour, connected
