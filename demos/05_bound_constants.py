#!/usr/bin/env python3
"""What the convergence proofs actually cost, in numbers.

The cluster-expansion machinery runs on two constant chains: a geometric
circuit-weight sequence C_j = (2dt/cU)^j, and the polymer chain
k0 -> C3, C4 -> a0, a1 -> q with Z_pol <= 2 C4 e^-q/(1-e^-q)^2 once q > 0.
The walk-counting constant c_d = 36 enters as c_d^(k0+1), which is why the
feasibility thresholds b0 = (beta/U)_min come out astronomically large: the
proofs are honest but wildly conservative compared to what the exact
desk-scale couplings show.
"""

from fklab.bounds import (
    PolymerInputs,
    cj_sequence,
    cprime_curve,
    find_b0,
    lambda0,
    polymer_report,
)

print(__doc__)

# --- circuit weights
print("circuit weights at d=3, t=1, c=1/2:")
for U in (16.0, 24.0, 48.0):
    rep = cj_sequence(d=3, t=1.0, U=U, beta=10 * U, c=0.5)
    print(f"  U={U:5.1f}: ratio {rep.ratio:.3f}  sum_(j>=2) C_j = {rep.tail_sum:.4f} "
          f" converges: {rep.converges}")

# --- the polymer chain at a comfortable point
lam = 0.5 * lambda0(1.0, 1.0)
rep = polymer_report(PolymerInputs(C1=1.0, C2=1.0, lam=lam, b=200.0))
print(f"\npolymer chain at C1=C2=1, lambda={lam:.2e}, b=200:")
print(f"  k0={rep.k0}  alpha={rep.alpha:.3f}  C3={rep.C3:.3e}  C4={rep.C4:.3e}")
print(f"  a0={rep.a0:.1f}  a1={rep.a1:.3e}  q={rep.q:.3e}  (q <= 0: bound not yet usable)")

res = find_b0(1.0, 1.0, lam)
print(f"\nfeasibility: lambda0 = {res.lambda0:.3e}, B = {res.B:.3f} (> 1 always)")
print(f"  first b with q > 0: b0 = {res.b0:.3e}   <- the price of c_d^(k0+1)")

print("\nlog C'(b) past the threshold (drops to -infinity, so C' -> 0):")
for b, v in cprime_curve(1.0, 1.0, [3e18, 1e19, 1e20, 1e21]):
    print(f"  b = {b:8.1e}:  log C' = {v:12.4g}")

print("""
Compare with the exact two-site coupling tail |J - 1/4U| ~ 1/(16 U^3): the
physics converges at U ~ 10 while the worst-case chain asks for b ~ 1e15.""")
