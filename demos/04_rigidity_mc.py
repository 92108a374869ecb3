#!/usr/bin/env python3
"""Ground-state selection made visible by sampling.

Under the second-order model every minimal 111 interface costs the same, so a
cold chain random-walks over tilings and the good-pair fraction drops.  The
fourth-order plaquette term prices each defect at K2 = 1/(4U^3); at
beta/U^3 = 40 the staircase freezes solid.  The 100 interface is rigid already
at second order.
"""

import numpy as np

from fklab.mc import RunSpec, mc_run

print(__doc__)

U = 4.0
beta = 40.0 * U**3
print(f"bc111 on 7^3, U = {U}, beta/U^3 = 40, 200 sweeps after thermalization")
for ham in ("h2", "h4"):
    spec = RunSpec(dims=(7, 7, 7), bc="bc111", hamiltonian=ham, U=U, beta=beta,
                   sweeps=300, thermalization=100, seed=11, measure_stride=10)
    series = [mc_run(spec, replica=r) for r in range(2)]
    frac = np.mean([s.mean_good_fraction() for s in series])
    print(f"  {ham}: good-pair fraction {frac:.3f}")

print("\nbc100 on 7^3 under the second-order model, beta/U = 40")
spec = RunSpec(dims=(7, 7, 7), bc="bc100", hamiltonian="h2", U=8.0, beta=8.0 * 40,
               sweeps=200, thermalization=60, seed=12, measure_stride=10)
s = mc_run(spec)
prof = s.mean_profile()
print("  layer magnetization:", np.array2string(prof, precision=3))
print("  every layer stays polarized: the 100 interface is already rigid at h2")
