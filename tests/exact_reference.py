"""Exact Boltzmann averages of h2 on small boxes, by enumeration.

``h2_energies`` lists every assignment of the box spins and sums its h2
relative energy -J sum (s_x s_y - 1) in a loop over the nearest-neighbour
bonds with at least one end in the box, the other end's spin being the
boundary's when it lies outside.  Nothing here reads
``classical.interaction_terms``, so the averages check ``mc_run`` apart from
the table that both the sampler and ``relative_energy`` are built on.
"""

from __future__ import annotations

import numpy as np

from fklab.classical import ModelCoefficients
from fklab.lattice import Volume, boundary_spin


def h2_energies(volume: Volume, bc: str, U: float):
    """(spins, energies): row m of ``spins`` (2^n, n) is the m-th assignment
    of +-1 to the n box sites in ``Volume.sites`` order, ``energies[m]`` its
    h2 relative energy under ``bc``."""
    sites = list(volume.sites())
    column = {site: i for i, site in enumerate(sites)}
    n = len(sites)
    spins = 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)

    def spin(site):
        return spins[:, column[site]] if site in column else boundary_spin(bc, site)

    j = ModelCoefficients(U=U).j
    energies = np.zeros(2**n)
    for x in sites:
        for axis in range(3):
            for step in (1, -1):
                y = tuple(c + step * (a == axis) for a, c in enumerate(x))
                if step == -1 and y in column:
                    continue   # a bond inside the box counts once, from its lower end
                energies += -j * (spin(x) * spin(y) - 1)
    return spins, energies


def boltzmann_mean(energies: np.ndarray, beta: float, values: np.ndarray | None = None) -> float:
    """The Boltzmann average at ``beta`` of ``values`` (default: the energy)."""
    w = np.exp(-beta * (energies - energies.min()))
    return float(w @ (energies if values is None else values) / w.sum())
