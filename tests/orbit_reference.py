"""Brute-force references for the symmetry-reduced coupling extraction of
``fklab.quantum``.

``brute_orbits`` finds the lattice symmetries of a cluster by explicit loops
over the 48 signed axis permutations, each re-anchored by the least image
coordinate, keeps those that map the sites, the window and the frozen
exterior onto themselves, and collects the orbits of the window bitmasks by
breadth-first search.  ``unreduced_coeffs`` solves every window bitmask with
``_trace_energies`` and applies a dense Walsh sum, with no symmetry at all.
"""

import itertools

import numpy as np

from fklab.quantum import _trace_energies, _hopping, neel_ion


def neel_base(sites, window):
    """Sorted sites and the exterior occupations ``extract_couplings`` uses:
    the checkerboard off the window, 0 on it."""
    sites = sorted(tuple(s) for s in sites)
    wset = set(window)
    return sites, np.array([0 if s in wset else neel_ion(s) for s in sites], dtype=float)


def lattice_symmetries(sites, window, base):
    """Site maps (dicts) of the re-anchored signed axis permutations that keep
    the site set, the window and the exterior occupations."""
    wset = set(window)
    occupation = {s: ("window" if s in wset else b) for s, b in zip(sites, base)}
    lo = [min(s[a] for s in sites) for a in range(3)]
    found = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            raw = {s: tuple(signs[j] * s[perm[j]] for j in range(3)) for s in sites}
            low = [min(p[j] for p in raw.values()) for j in range(3)]
            image = {s: tuple(p[j] - low[j] + lo[j] for j in range(3)) for s, p in raw.items()}
            if all(t in occupation and occupation[t] == occupation[s] for s, t in image.items()):
                found.append(image)
    return found


def brute_orbits(sites, window, base):
    """Orbits of the window bitmasks (bit i is ``window[i]``) as a list of
    sorted lists, ordered by their least member."""
    position = {s: i for i, s in enumerate(window)}
    masks = np.arange(1 << len(window))
    moves = []   # the image of every bitmask, one list per symmetry
    for image in lattice_symmetries(sites, window, base):
        moved = np.zeros_like(masks)
        for i, s in enumerate(window):
            moved |= ((masks >> i) & 1) << position[image[s]]
        moves.append(moved.tolist())
    orbit_of = {}
    orbits = []
    for m in range(1 << len(window)):
        if m in orbit_of:
            continue
        orbit_of[m] = len(orbits)
        todo, members = [m], [m]
        while todo:
            x = todo.pop()
            for move in moves:
                y = move[x]
                if y not in orbit_of:
                    orbit_of[y] = len(orbits)
                    todo.append(y)
                    members.append(y)
        orbits.append(sorted(members))
    return orbits


def unreduced_coeffs(sites, window, params):
    """The full coefficient vector from every bitmask's own eigensolve.

    Phi_A = (-1)^|A| 2^-w sum_m (-1)^|A & m| F(m), as a dense matrix product;
    also returns the energy vector F."""
    sites, base = neel_base(sites, window)
    _, adj = _hopping(sites)
    index = {s: i for i, s in enumerate(sites)}
    w = len(window)
    masks = np.arange(1 << w)
    W = np.tile(base, (1 << w, 1))
    for i, s in enumerate(window):
        W[:, index[s]] = (masks >> i) & 1
    energies = _trace_energies(adj, W, params)
    parity = np.array([bin(a).count("1") & 1 for a in range(1 << w)])
    hadamard = 1 - 2 * parity[masks[:, None] & masks[None, :]]
    coeffs = (1 - 2 * parity) * (hadamard @ energies) / float(1 << w)
    return coeffs, energies
