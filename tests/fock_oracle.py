"""Full Fock-space reference for the free-fermion trace of ``fklab.quantum``.

Assembles H = sum (2U W - mu_e) n - mu_i sum W - t sum (c+_i c_j + h.c.) in
the occupation basis, one dense block per electron number, with the
Jordan-Wigner sign of every hop, and traces exp(-beta H) over all 2^L states.
Slow (Python assembly of every block) but independent of the one-body
reduction, so tests compare the package against it.
"""

import itertools
import math

import numpy as np

UNIT_STEPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def fock_blocks(sites, ion_config, params):
    """Electron number n -> dense Hamiltonian block over the n-electron states."""
    sites = sorted(tuple(s) for s in sites)
    index = {s: i for i, s in enumerate(sites)}
    L = len(sites)
    bonds = [
        (i, index[n])
        for i, s in enumerate(sites)
        for d in UNIT_STEPS
        if (n := (s[0] + d[0], s[1] + d[1], s[2] + d[2])) in index
    ]
    W = [int(ion_config[s]) for s in sites]
    onsite = [2.0 * params.U * w - params.mu_e for w in W]
    classical = -params.mu_i * sum(W)
    blocks = {}
    for n in range(L + 1):
        states = [sum(1 << i for i in occ) for occ in itertools.combinations(range(L), n)]
        pos = {st: a for a, st in enumerate(states)}
        mat = np.zeros((len(states), len(states)))
        for a, st in enumerate(states):
            mat[a, a] = classical + sum(onsite[i] for i in range(L) if (st >> i) & 1)
            for i, j in bonds:
                # c+_i c_j moves an electron j -> i; the sign counts the
                # occupied modes strictly between them
                if (st >> j) & 1 and not (st >> i) & 1:
                    lo, hi = min(i, j), max(i, j)
                    between = st & (((1 << hi) - 1) ^ ((1 << (lo + 1)) - 1))
                    b = pos[st ^ (1 << i) ^ (1 << j)]
                    amp = -params.t * (-1) ** bin(between).count("1")
                    mat[b, a] += amp
                    mat[a, b] += amp
        blocks[n] = mat
    return blocks


def fock_spectrum(sites, ion_config, params):
    return np.concatenate([np.linalg.eigvalsh(m) for m in fock_blocks(sites, ion_config, params).values()])


def fock_energy(sites, ion_config, params):
    """-(1/beta) log Tr exp(-beta H) by log-sum-exp over the full spectrum."""
    ev = fock_spectrum(sites, ion_config, params)
    m = float(ev.min())
    return m - math.log(float(np.sum(np.exp(-params.beta * (ev - m))))) / params.beta
