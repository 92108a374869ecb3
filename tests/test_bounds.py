"""Constant-chain calculators and coupling-table audits."""

import math

import numpy as np
import pytest

from fklab.bounds import (
    PolymerInputs,
    big_b,
    cj_sequence,
    cprime_curve,
    decay_audit,
    find_b0,
    lambda0,
    polymer_report,
    q_of_b,
)
from fklab.quantum import FKParameters, extract_couplings

PLAQ4 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]


def test_cj_arithmetic():
    rep = cj_sequence(d=3, t=1.0, U=24.0, beta=50.0, c=0.5)
    assert rep.values[2] == pytest.approx(0.25, abs=1e-15)
    assert rep.tail_sum == pytest.approx(0.5, abs=1e-15)
    assert rep.converges
    assert rep.total == pytest.approx(rep.c0 + 0.5, abs=1e-15)


def test_cj_sum_matches_direct_summation():
    rep = cj_sequence(d=3, t=1.0, U=24.0, beta=50.0, c=0.5, jmax=60)
    direct = sum(rep.values[j] for j in rep.values if j >= 2)
    assert rep.tail_sum == pytest.approx(direct, abs=1e-12)
    # convergence flag is equivalent to 2dt/(cU) < 1 (with negligible C0)
    assert rep.converges == (rep.ratio < 1.0)


def test_cj_c0_limit_and_divergence():
    assert cj_sequence(3, 1.0, 24.0, beta=1e6, c=0.5).c0 == pytest.approx(0.0, abs=1e-300)
    rep = cj_sequence(3, 1.0, 10.0, beta=50.0, c=0.5)
    assert rep.ratio >= 1.0 and not rep.converges


@pytest.mark.parametrize("d, t, beta", [
    (0, 1.0, 50.0), (-3, 1.0, 50.0), (3.0, 1.0, 50.0), (True, 1.0, 50.0),   # d
    (3, 0.0, 50.0), (3, -1.0, 50.0),                                        # t
    (3, 1.0, 0.0), (3, 1.0, -50.0),                                         # beta
])
def test_cj_rejects_degenerate_inputs(d, t, beta):
    """C_j needs a lattice dimension d >= 1, hopping t > 0 and beta > 0: a
    negative beta makes C_0 = e^(-beta c U) huge, a negative d or t a
    negative ratio."""
    with pytest.raises(ValueError, match="integer d >= 1, t > 0 and beta > 0"):
        cj_sequence(d, t, 24.0, beta)


def test_k0_arithmetic_example():
    # C2*beta = 10 and lam*c_d*e^a = 1/2: k0 = 4 since 10/8 > 1 >= 10/16
    a = 2.0
    lam = 0.5 / (36.0 * math.exp(a))
    inp = PolymerInputs(C1=1.0, C2=1.0, lam=lam, b=10.0 * lam, a=a)
    rep = polymer_report(inp)
    assert rep.k0 == 4
    assert rep.alpha == pytest.approx(10.0 / 16.0, rel=1e-12)
    assert rep.alpha <= 1.0


def test_k0_minimality_on_grid():
    """k0 satisfies the defining inequality and k0 - 1 violates it, over a grid."""
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(100):
        C2 = float(rng.uniform(0.2, 5.0))
        lam = float(rng.uniform(1e-6, 0.9)) / (36.0 * math.e**2)
        b = float(rng.uniform(0.5, 1e4))
        inp = PolymerInputs(C1=1.0, C2=C2, lam=lam, b=b)
        rep = polymer_report(inp)
        if rep.k0 is None:
            continue
        base = lam * 36.0 * math.exp(2.0)
        beta = b / lam
        assert C2 * beta * base**rep.k0 <= 1.0 + 1e-12
        if rep.k0 > 1:
            assert C2 * beta * base ** (rep.k0 - 1) > 1.0
        checked += 1
    assert checked >= 90


def test_polymer_report_fields_finite_when_feasible():
    lam = 0.25 * lambda0(1.0, 1.0)
    rep = polymer_report(PolymerInputs(C1=1.0, C2=1.0, lam=lam, b=100.0))
    assert rep.cond1 and rep.cond2
    for v in (rep.k0, rep.alpha, rep.a0, rep.C3, rep.C4, rep.a1, rep.q):
        assert v is not None and np.isfinite(v)
    assert rep.a_double_prime == pytest.approx(2.25)
    assert rep.a_prime == pytest.approx(2.0 + math.log(2.0) / 3.0)


def test_polymer_infeasible_flags():
    rep = polymer_report(PolymerInputs(C1=1.0, C2=1.0, lam=0.5, b=1.0))
    assert not rep.cond2 and rep.k0 is None and rep.zpol_bound is None
    lam = 0.25 * lambda0(1.0, 1.0)
    small_b = polymer_report(PolymerInputs(C1=1.0, C2=1.0, lam=lam, b=10.0))
    assert small_b.q is not None and small_b.q <= 0.0
    assert not small_b.cond4 and small_b.zpol_bound is None


def test_q_increasing_in_b_on_plateau():
    lam = 0.5 * lambda0(1.0, 1.0)
    qs = [q_of_b(1.0, 1.0, lam, b) for b in (50, 100, 200, 400, 800)]
    assert all(b > a for a, b in zip(qs, qs[1:]))


def test_big_b_exceeds_one():
    for C1, C2 in ((1.0, 1.0), (0.01, 10.0), (50.0, 0.1)):
        assert big_b(C1, C2) > 1.0


def test_find_b0_brackets_sign_change():
    for C1, C2 in ((1.0, 1.0), (0.5, 2.0)):
        lam = 0.5 * lambda0(C1, C2)
        res = find_b0(C1, C2, lam, rel_tol=1e-8)
        assert res.B > 1.0
        qlo = q_of_b(C1, C2, lam, res.b0 * (1 - 1e-6))
        qhi = q_of_b(C1, C2, lam, res.b0 * (1 + 1e-6))
        assert qlo <= 0.0 < qhi


def test_find_b0_requires_small_lambda():
    with pytest.raises(ValueError):
        find_b0(1.0, 1.0, lam=1.0)


def test_cprime_decreases_to_zero():
    # past the feasibility threshold log C'(b) decreases without bound,
    # i.e. C'(b) -> 0
    pts = cprime_curve(1.0, 1.0, [3e18, 1e19, 1e20, 1e21, 1e22])
    vals = [v for _, v in pts]
    assert all(math.isfinite(v) for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert cprime_curve(1.0, 1.0, [1e3])[0][1] == math.inf  # infeasible side


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cprime_reads_polymer_report_chain_at_integral_k0(k):
    """Just below the b where the continuous k0 reaches the integer k,
    log C' is polymer_report's log(2 C4) - q - 2 log(1 - e^-q) at lambda_0."""
    C1, C2, a = 1000.0, 1e-4, 2.0
    b = (big_b(C1, C2) * 36.0) ** (k - 1) / (C2 * 36.0 * math.exp(a)) * (1 - 1e-9)
    rep = polymer_report(PolymerInputs(C1=C1, C2=C2, lam=lambda0(C1, C2), b=b))
    assert rep.k0 == k and rep.q > 0
    want = math.log(2.0 * rep.C4) - rep.q - 2.0 * math.log1p(-math.exp(-rep.q))
    assert cprime_curve(C1, C2, [b])[0][1] == pytest.approx(want, rel=1e-8)


def test_decay_audit_on_exact_tables():
    t16 = extract_couplings(PLAQ4, FKParameters(U=16.0, beta=256.0), max_g=4)
    t32 = extract_couplings(PLAQ4, FKParameters(U=32.0, beta=512.0), max_g=4)
    audit = decay_audit(t16, t32)
    assert not audit.fit.trivial
    assert audit.fit.c is not None and audit.fit.c / 16.0 < 1.0
    assert audit.violations == []
    assert audit.pair_exponent_ok  # pair tails drop by >= 4x when U doubles


def test_decay_audit_trivial_at_t0():
    t0 = extract_couplings(PLAQ4, FKParameters(U=16.0, beta=64.0, t=0.0), max_g=4)
    audit = decay_audit(t0)
    assert audit.fit.trivial and audit.violations == []
