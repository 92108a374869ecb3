"""Reference builders of padded spin arrays, one site at a time.

``padded_sites`` lists every site of a volume's padded box (box and shell) in
array order.  ``from_boundary`` and ``config_from_heights`` are the per-site
loops that ``SpinConfiguration.from_boundary`` and
``tiling.config_from_heights`` replaced with whole-array expressions over
``Volume.coords()``; tests compare the two.  ``from_function`` builds a
configuration from a per-site function, ``shell_consistent`` checks its
shell against its boundary condition and ``spin`` reads one site.
``PRESCRIPTIONS`` states each boundary condition as a per-site predicate (+1
where it holds), apart from ``fklab.lattice.boundary_spin``.  ``sublattice_sign`` and ``stagger`` are the
antiferro <-> ferro change of frame, (-1)^(k1+k2+k3) per site and per array.
"""

from __future__ import annotations

import itertools

import numpy as np

from fklab.lattice import SpinConfiguration, Volume, boundary_spin, coordinate_sum
from fklab.tiling import stair_height
from plane_reference import phi

PRESCRIPTIONS = {
    "hom_plus": lambda k: True,
    "hom_minus": lambda k: False,
    "bc100": lambda k: k[2] >= 0,
    "bc111": lambda k: coordinate_sum(k) >= -1,
}


def spin(config: SpinConfiguration, site) -> int:
    """The spin of ``config`` at one site of its padded box."""
    return int(config.spins[config.volume.index(site)])


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


def from_function(volume: Volume, bc: str, fn) -> SpinConfiguration:
    """Interior spins from ``fn(site)``, called in ``Volume.sites`` order;
    shell spins set by the boundary condition."""
    spins = boundary_spin(bc, volume.coords())
    interior = np.array([fn(site) for site in volume.sites()], dtype=np.int8)
    spins[volume.box] = interior.reshape(volume.dims)
    return SpinConfiguration(volume, spins, bc=bc)


def shell_consistent(config: SpinConfiguration) -> bool:
    """True if every shell spin equals the prescription of ``config.bc``
    (always, for a configuration without one)."""
    if config.bc is None:
        return True
    expected = boundary_spin(config.bc, config.volume.coords())
    expected[config.volume.box] = config.spins[config.volume.box]
    return bool(np.array_equal(expected, config.spins))
