"""Numeric evaluation of the explicit constant chains behind the convergence
bounds: the geometric circuit-weight sequence C_j, the polymer-gas chain
(k0, alpha, a0, C3, C4, a1, q, Z_pol) and its feasibility thresholds, and
decay audits of extracted coupling tables.

The source bounds leave several constants symbolic; this module takes them as
explicit inputs with documented defaults (c = 1/2 in U - 1 >= cU, and the
Peierls constant c0 = 0.4 motivated by the contour audit).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .lattice import CapExceeded
from .quantum import TINY, CouplingTable

#: Connectivity constant of the walk-counting bound in d = 3: (2d)^2.
C_D = 36.0
#: Largest k0 ``polymer_report`` searches: the last k0 whose
#: C4 = (k0+1) c_d^(k0+1) is a finite float (196 c_d^196 ~ 1.7e307).
MAX_K0 = 195


def _exp_a(a: float) -> float:
    """e^a for the free exponent a; ValueError naming a when it overflows."""
    try:
        return math.exp(a)
    except OverflowError:
        limit = math.log(sys.float_info.max)
        raise ValueError(f"e^a overflows for a = {a!r}; a must be at most {limit:.6g}") from None


# ---------------------------------------------------------------------------
# Circuit-weight sequence
# ---------------------------------------------------------------------------


@dataclass
class CjReport:
    ratio: float          # 2dt/(cU)
    c0: float             # e^(-beta c U)
    tail_sum: float       # sum_{j>=2} C_j
    total: float          # c0 + tail
    converges: bool
    values: dict = field(default_factory=dict)


def cj_sequence(d: int, t: float, U: float, beta: float, c: float = 0.5, jmax: int = 12) -> CjReport:
    """C_j = (2dt/(cU))^j for j >= 2 and C_0 = e^(-beta c U).

    Reports the geometric tail sum and whether the total stays below one,
    which is the convergence condition of the circuit expansion.
    """
    if not all(map(math.isfinite, (t, U, beta, c))):
        raise ValueError(f"t, U, beta and c must be finite, got {(t, U, beta, c)}")
    if isinstance(d, bool) or not isinstance(d, int) or d < 1 or t <= 0.0 or beta <= 0.0:
        raise ValueError(f"need an integer d >= 1, t > 0 and beta > 0, got d = {d!r}, t = {t}, beta = {beta}")
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    if U <= 1.0:
        raise ValueError("U must exceed 1")
    try:   # an int d past the float range, or a power of rho past it
        rho = 2.0 * d * t / (c * U)
        powers = {j: rho**j for j in range(2, jmax + 1)}
    except OverflowError:
        rho = math.inf
    if not math.isfinite(rho):
        raise ValueError(f"the ratio 2dt/(cU) or its powers up to jmax = {jmax} overflow "
                         f"for d = {d!r}, t = {t}, c = {c}, U = {U}")
    c0 = math.exp(-beta * c * U)
    tail = rho * rho / (1.0 - rho) if rho < 1.0 else math.inf
    total = c0 + tail
    return CjReport(ratio=rho, c0=c0, tail_sum=tail, total=total,
                    converges=total < 1.0, values={0: c0, **powers})


# ---------------------------------------------------------------------------
# Polymer chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolymerInputs:
    """Inputs of the polymer convergence chain.

    ``lam`` plays the role of the small parameter 1/U, ``b = beta * lam``;
    ``a`` is the free exponent (2 at the end of the proof).  The
    walk-connectivity constant is ``C_D``.
    """

    C1: float
    C2: float
    lam: float
    b: float
    a: float = 2.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.C1, self.C2, self.lam, self.b, self.a))):
            raise ValueError(f"polymer inputs must be finite, got {self}")
        if min(self.C1, self.C2, self.lam, self.b) <= 0:
            raise ValueError("C1, C2, lambda, b must be positive")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta = b/lambda must be finite, got b = {self.b!r}, lambda = {self.lam!r}")
        _exp_a(self.a)

    @property
    def beta(self) -> float:
        return self.b / self.lam


@dataclass
class ConvergenceReport:
    k0: int | None
    alpha: float | None
    a0: float | None
    C3: float | None
    C4: float | None
    a_prime: float | None
    a_double_prime: float | None
    a1: float | None
    q: float | None
    zpol_bound: float | None
    cond1: bool
    cond2: bool
    cond4: bool


def _chain(inp: PolymerInputs, k0: float) -> tuple:
    """(C3, a0, C4, a1, q) of ``polymer_report``'s chain at any k0 >= 1,
    integral or not; C3, a0 and q are None unless c_d lam < 1."""
    cd, lam, a = C_D, inp.lam, inp.a
    z = lam * math.exp(a)
    C4 = (k0 + 1) * cd ** (k0 + 1)
    a1 = k0 * cd * z / (1.0 - cd * z) ** 2
    if not cd * lam < 1.0:
        return None, None, C4, a1, None
    C3 = inp.C2 * cd**3 / (1.0 - cd * lam)
    a0 = inp.beta * (inp.C1 * lam - C3 * lam**3) - a
    return C3, a0, C4, a1, a0 - math.log(cd) - a1 - (a + 0.25) * C4


def polymer_report(inp: PolymerInputs) -> ConvergenceReport:
    """Evaluate the whole constant chain of the polymer-gas bound.

    k0 is the smallest positive integer with C2*beta*(lam*c_d*e^a)^k0 <= 1;
    then alpha <= 1 by construction,

        C3 = C2 c_d^3 / (1 - c_d lam)            [needs c_d lam < 1]
        a0 = beta (C1 lam - C3 lam^3) - a
        C4 = (k0+1) c_d^(k0+1)
        a'' = a + 1/4,  z = lam e^a
        a1 = k0 c_d z / (1 - c_d z)^2            [needs c_d z < 1]
        q  = a0 - log c_d - a1 - a'' C4

    and Z_pol <= 2 C4 e^(-q) / (1 - e^(-q))^2 whenever q > 0.  Infeasible
    conditions are reported as flags rather than producing garbage numbers;
    a k0 past ``MAX_K0`` raises CapExceeded.
    """
    cond1 = C_D * inp.lam < 1.0
    z = inp.lam * math.exp(inp.a)
    if not C_D * z < 1.0:
        return ConvergenceReport(
            k0=None, alpha=None, a0=None, C3=None, C4=None,
            a_prime=None, a_double_prime=None, a1=None, q=None, zpol_bound=None,
            cond1=cond1, cond2=False, cond4=False,
        )
    beta = inp.beta
    base = C_D * z  # = lam * c_d * e^a
    k0 = 1
    while inp.C2 * beta * base**k0 > 1.0:
        k0 += 1
        if k0 > MAX_K0:
            raise CapExceeded(f"k0 search capped at {MAX_K0}")
    C3, a0, C4, a1, q = _chain(inp, k0)
    cond4 = q is not None and q > 0.0
    zpol = 2.0 * C4 * math.exp(-q) / (1.0 - math.exp(-q)) ** 2 if cond4 else None
    return ConvergenceReport(
        k0=k0, alpha=inp.C2 * beta * base**k0, a0=a0, C3=C3, C4=C4,
        a_prime=inp.a + math.log(2.0) / 3.0, a_double_prime=inp.a + 0.25, a1=a1, q=q,
        zpol_bound=zpol, cond1=cond1, cond2=True, cond4=cond4,
    )


def q_of_b(C1: float, C2: float, lam: float, b: float, a: float = 2.0) -> float | None:
    rep = polymer_report(PolymerInputs(C1=C1, C2=C2, lam=lam, b=b, a=a))
    return rep.q


def big_b(C1: float, C2: float) -> float:
    """B = (1 + sqrt(1 + 4 c_d C2 / C1)) / 2; always exceeds one.  C1 and C2
    must be positive, as in ``PolymerInputs``."""
    if not (C1 > 0 and C2 > 0):
        raise ValueError(f"C1 and C2 must be positive, got C1 = {C1!r}, C2 = {C2!r}")
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * C_D * C2 / C1))


def lambda0(C1: float, C2: float, a: float = 2.0) -> float:
    """Feasibility threshold lambda_0 = (B c_d^2 e^a)^(-1); an a whose e^a
    overflows, or whose lambda_0 is not finite and positive, raises
    ValueError naming a."""
    den = big_b(C1, C2) * C_D**2 * _exp_a(a)   # 0 once e^a underflows
    lam0 = 1.0 / den if den > 0 else math.inf
    if not 0.0 < lam0 < math.inf:
        raise ValueError(f"lambda0 = 1/(B c_d^2 e^a) is not finite and positive "
                         f"for a = {a!r} (C1 = {C1!r}, C2 = {C2!r})")
    return lam0


@dataclass
class B0Result:
    b0: float
    lambda0: float
    B: float


def find_b0(C1: float, C2: float, lam: float, a: float = 2.0, rel_tol: float = 1e-7) -> B0Result:
    """Smallest b with q(b) > 0, bracketed by bisection to rel_tol.

    Requires lam below the lambda_0 threshold.  q is piecewise increasing in b
    (it only drops at the sparse jumps of k0), so the first sign change on a
    geometric grid brackets b0.  The thresholds are astronomically large:
    the chain pays c_d^(k0+1) with c_d = 36, so b0 is typically 1e10..1e15.
    """
    if not all(map(math.isfinite, (C1, C2, lam, a))):
        raise ValueError(f"C1, C2, lambda and a must be finite, got {(C1, C2, lam, a)}")
    lam0 = lambda0(C1, C2, a)
    if lam >= lam0:
        raise ValueError(f"lambda must be below lambda0 = {lam0:.6g}")
    B = big_b(C1, C2)

    def q(b: float) -> float:
        val = q_of_b(C1, C2, lam, b, a)
        if val is None:
            return -math.inf
        return val

    b_lo = 1e-6
    if q(b_lo) > 0:
        return B0Result(b0=b_lo, lambda0=lam0, B=B)
    grid = b_lo
    prev = b_lo
    while grid < 1e24:
        grid *= 1.5
        if q(grid) > 0:
            break
        prev = grid
    else:
        raise ValueError("no sign change of q up to b = 1e24")
    lo, hi = prev, grid
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if q(mid) > 0:
            hi = mid
        else:
            lo = mid
    return B0Result(b0=hi, lambda0=lam0, B=B)


def cprime_curve(C1: float, C2: float, b_values, a: float = 2.0):
    """log C'(b), the log of the closing decay curve of the polymer bound, on a grid.

    ``polymer_report``'s chain at lambda = lambda_0 and the continuous
    k0 = max(1, 1 + log(C2 c_d e^a b)/log(B c_d)), which solves
    C2 beta (lambda_0 c_d e^a)^k0 = 1, gives
    log C' = log(2 C4) - q - 2 log(1 - e^(-q)); infeasible points (q <= 0)
    give +inf.  C' itself drops so steeply past the feasibility threshold
    that it underflows within a relative window of ~1e-15, so only its log
    is returned.
    """
    lam0 = lambda0(C1, C2, a)
    d0, log_bcd = C2 * C_D * math.exp(a), math.log(big_b(C1, C2) * C_D)
    out = []
    for b in b_values:
        k0 = max(1.0, 1.0 + math.log(d0 * b) / log_bcd)
        _, _, C4, _, q = _chain(PolymerInputs(C1=C1, C2=C2, lam=lam0, b=b, a=a), k0)
        feasible = q is not None and q > 0.0
        out.append((b, math.log(2.0 * C4) - q - 2.0 * math.log1p(-math.exp(-q)) if feasible else math.inf))
    return out


# ---------------------------------------------------------------------------
# Decay audits of coupling tables
# ---------------------------------------------------------------------------


@dataclass
class DecayAudit:
    violations: list
    pair_exponent_ok: bool | None


def decay_audit(table: CouplingTable, table_2u: CouplingTable | None = None) -> DecayAudit:
    """Audit a coupling table against |coupling| <= (|t|/U)^g, a bound set
    before the data: c1 (c|t|/U)^g with c1 = c = 1, nothing fitted.  Every
    entry of at least two sites with |coupling| above ``TINY`` is checked, and
    one past the bound is a violation; such an entry at U <= 0 raises
    ValueError naming U.

    With a companion table at doubled U the audit also checks the pair-cluster
    refinement: after removing the explicit t^2/(4U) part, nearest-neighbour
    couplings must decay with exponent 3, i.e. drop by at least 4x (expected
    8x) when U doubles.
    """
    violations = []
    for e in table.entries:
        if e.size < 2 or abs(e.value) <= TINY:
            continue
        if not table.U > 0:
            raise ValueError(f"the decay bound |coupling| <= (|t|/U)^g needs U > 0, got U = {table.U!r}")
        if table.U * abs(e.value) ** (1.0 / e.g) > abs(table.t):   # (|t|/U)^g can overflow
            violations.append(e)

    pair_ok = None
    if table_2u is not None:
        if abs(table_2u.U - 2 * table.U) > 1e-9:
            raise ValueError("companion table must be at doubled U")
        def pair_tail(t: CouplingTable) -> float:
            best = 0.0
            for e in t.entries:
                if e.size == 2 and e.g == 1:
                    best = max(best, abs(abs(e.value) - t.t ** 2 / (4.0 * t.U)))
            return best
        t1, t2 = pair_tail(table), pair_tail(table_2u)
        pair_ok = (t2 < TINY) or (t1 / t2 >= 4.0)
    return DecayAudit(violations=violations, pair_exponent_ok=pair_ok)
