"""Reference builders of padded spin arrays, one site at a time.

``padded_sites`` lists every site of a volume's padded box (box and shell) in
array order.  ``from_boundary`` and ``config_from_heights`` are the per-site
loops that ``SpinConfiguration.from_boundary`` and
``tiling.config_from_heights`` replaced with whole-array expressions over
``Volume.coords()``; tests compare the two.  ``PRESCRIPTIONS`` states each
boundary condition as a per-site predicate (+1 where it holds), apart from
``fklab.lattice.boundary_spin``.  ``sublattice_sign`` and ``stagger`` are the
antiferro <-> ferro change of frame, (-1)^(k1+k2+k3) per site and per array.
"""

from __future__ import annotations

import itertools

import numpy as np

from fklab.lattice import SpinConfiguration, Volume, coordinate_sum
from fklab.tiling import phi, stair_height

PRESCRIPTIONS = {
    "hom_plus": lambda k: True,
    "hom_minus": lambda k: False,
    "bc100": lambda k: k[2] >= 0,
    "bc111": lambda k: coordinate_sum(k) >= -1,
}


def padded_sites(volume: Volume):
    lo, dims = volume.padded_lo, volume.padded_dims
    return itertools.product(*(range(l, l + d) for l, d in zip(lo, dims)))


def from_boundary(volume: Volume, bc: str) -> SpinConfiguration:
    spins = np.empty(volume.padded_dims, dtype=np.int8)
    for site in padded_sites(volume):
        spins[volume.index(site)] = 1 if PRESCRIPTIONS[bc](site) else -1
    return SpinConfiguration(volume, spins, bc=bc)


def config_from_heights(volume: Volume, heights=None) -> SpinConfiguration:
    if heights is None:
        hfun = stair_height
    elif isinstance(heights, dict):
        hfun = lambda p: heights.get(p, stair_height(p))  # noqa: E731
    else:
        hfun = heights
    spins = np.empty(volume.padded_dims, dtype=np.int8)
    for site in padded_sites(volume):
        spins[volume.index(site)] = 1 if coordinate_sum(site) >= hfun(phi(site)) - 1 else -1
    return SpinConfiguration(volume, spins, bc="bc111")


def sublattice_sign(site) -> int:
    """Staggering factor (-1)^(k1+k2+k3); maps the Neel pattern to the uniform one."""
    return -1 if coordinate_sum(site) & 1 else 1


def stagger(config: SpinConfiguration) -> SpinConfiguration:
    """Multiply every spin by the sublattice parity (-1)^(k1+k2+k3).

    This is the antiferro<->ferro change of frame: the Neel configuration maps
    to the uniform +1 configuration and vice versa.  It is an involution.
    """
    vol = config.volume
    sign = np.where(vol.coords().sum(axis=0) & 1, -1, 1).astype(np.int8)
    return SpinConfiguration(vol, sign * config.spins, bc=None)
