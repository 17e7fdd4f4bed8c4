import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from zetachain import eulersums, special
from zetachain.eulersums import (
    bprime_from_zprime,
    fundamental_lemma_residual,
    generating_function_residual,
    h_euler,
    h_euler_shifted,
    mellin_fundamental_check,
    s_from_zprime,
    sum_lm,
    zprime_from_s,
)
from zetachain.precision import PrecisionContext
from zetachain.special import DomainError
from zetachain.values import SumConvention, SymbolicValue
from zetachain.zeta import zeta_em, zeta_prime_oracle

CTX = PrecisionContext(50)
ZPRIME0 = SymbolicValue.of(0, 0, Fraction(-1, 2))


def tol(offset):
    with CTX.workdps():
        return mpf(10) ** (-CTX.digits + offset)


def test_h2_is_twice_zeta3():
    with CTX.workdps():
        assert abs(h_euler(2, CTX) - 2 * zeta_em(3, CTX)) < tol(10)


def test_h3_closed_form():
    with CTX.workdps():
        assert abs(h_euler(3, CTX) - mpmath.pi**4 / 72) < tol(10)


def test_h_brute_force_low_precision():
    # partial sum to 10^6 in doubles plus the leading tail terms
    N = 1_000_000
    h = 0.0
    total = 0.0
    for n in range(1, N):
        h += 1.0 / n
        total += h * n**-1.5
    g = 0.5772156649015329
    # tail: int_N^inf (g + ln t) t^-1.5 dt + f(N)/2
    total += 2 * (g + math.log(N)) / math.sqrt(N) + 4 / math.sqrt(N)
    total += (h + 1.0 / N) * N**-1.5 / 2
    assert abs(float(h_euler(1.5, CTX)) - total) < 1e-7


def test_h_dominates_zeta():
    with CTX.workdps():
        for s in ("1.25", "1.5", "2", "3"):
            assert h_euler(mpf(s), CTX) >= zeta_em(mpf(s), CTX)


def test_h_rejects_divergent_range():
    with pytest.raises(DomainError):
        h_euler(1, CTX)


def test_shifted_sum_s2_is_zeta3():
    with CTX.workdps():
        assert abs(h_euler_shifted(2, CTX) - zeta_em(3, CTX)) < tol(10)


@pytest.mark.parametrize("digits", [15, 50, 120])
def test_euler_sums_match_eulers_closed_form(digits):
    # Euler: h(q) = (1 + q/2) zeta(q+1) - 1/2 sum_{k=1}^{q-2} zeta(k+1) zeta(q-k),
    # and sum H_n/(n+1)^q = h(q) - zeta(q+1); mpmath's zeta is the oracle
    ctx = PrecisionContext(digits)
    for q in (2, 3, 4, 5):
        with mpmath.workdps(digits + 20):
            z = mpmath.zeta
            h = (1 + mpf(q) / 2) * z(q + 1) - sum(z(k + 1) * z(q - k) for k in range(1, q - 1)) / 2
            shifted = h - z(q + 1)
            for got, ref in ((h_euler(q, ctx), h), (h_euler_shifted(q, ctx), shifted)):
                assert abs(got - ref) <= mpf(10) ** (-digits + 2) * ref, (q, got, ref)


@pytest.mark.parametrize("s", ["1.25", "2", "3", "4.5"])
def test_fundamental_lemma(s):
    assert fundamental_lemma_residual(mpf(s), CTX) < tol(10)


def euler_sum_cut(monkeypatch, n):
    monkeypatch.setattr(eulersums, "_em_setpoint", lambda ctx: n)


@pytest.mark.parametrize("s", ["1.1", "2.5", "7"])
def test_euler_sum_truncation_stability(monkeypatch, s):
    with CTX.workdps():
        base = h_euler(s, CTX), h_euler_shifted(s, CTX)
        euler_sum_cut(monkeypatch, 2 * CTX.dps)
        assert abs(h_euler(s, CTX) - base[0]) < tol(5)
        assert abs(h_euler_shifted(s, CTX) - base[1]) < tol(5)


def test_euler_sum_too_short_cut_raises(monkeypatch):
    # at N = 2 the tail's corrections cannot reach 10^-(dps+3)
    euler_sum_cut(monkeypatch, 2)
    for fn in (h_euler, h_euler_shifted):
        with pytest.raises(ArithmeticError):
            fn("2.5", CTX)


def test_fundamental_lemma_at_200_digits():
    ctx = PrecisionContext(200)
    assert fundamental_lemma_residual("3.5", ctx) <= ctx.tolerance(10)


def test_euler_sum_tail_polygamma_budget(monkeypatch):
    # Each tail asks hsmooth_pow_derivs for psi^(i)(N+1), i = 1..2J-1.  At
    # 100 digits the cut N = dps makes that 89 orders per tail, most of
    # them needing no Stirling shift; a cut of 0.45 dps made it 135, each
    # shifted by up to 124 steps.
    calls, polygamma = [], special.polygamma

    def counting(m, x, ctx):
        calls.append(m)
        return polygamma(m, x, ctx)

    monkeypatch.setattr(special, "polygamma", counting)
    fundamental_lemma_residual("2.345", PrecisionContext(100))
    assert 0 < len(calls) <= 178


def test_sum_lm_examples():
    assert sum_lm(2, SumConvention.A) == Fraction(7, 12)
    assert sum_lm(2, SumConvention.B) == Fraction(1, 2)
    assert sum_lm(1, SumConvention.A) == Fraction(1, 2)
    assert sum_lm(1, SumConvention.B) == 0


def test_bprime_conversion_k1():
    # B'_1 = -zeta(0) + zeta'(0) = 1/2 - (1/2) ln(2pi)
    with CTX.workdps():
        bp = bprime_from_zprime(1, ZPRIME0.numeric(CTX))
        assert abs(bp - (mpf(1) / 2 - mpmath.log(2 * mpmath.pi) / 2)) < tol(5)


def test_bprime_odd_trivial_zero():
    with CTX.workdps():
        for k in (3, 5, 7):
            zp = zeta_prime_oracle(1 - k, CTX)
            assert abs(bprime_from_zprime(k, zp) - k * zp) < tol(5)


def test_bprime_k2():
    with CTX.workdps():
        zp = zeta_prime_oracle(-1, CTX)
        expected = mpf(1) / 12 + 2 * zp
        assert abs(bprime_from_zprime(2, zp) - expected) < tol(5)


def test_s0_symbolic_both_conventions():
    a = s_from_zprime(1, ZPRIME0, SumConvention.A)
    assert a == SymbolicValue.of(Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
    b = s_from_zprime(1, ZPRIME0, SumConvention.B)
    assert b == SymbolicValue.of(1, Fraction(1, 2), Fraction(-1, 2))


def test_zprime_from_s_spec_triple():
    s1 = SymbolicValue.of(Fraction(-5, 24), Fraction(-1, 4), Fraction(1, 4))
    assert zprime_from_s(2, s1, SumConvention.A) == SymbolicValue.of(
        Fraction(1, 12), Fraction(1, 6), Fraction(-1, 4)
    )


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=30)


@settings(max_examples=40, deadline=None)
@given(rationals, rationals, rationals, st.integers(min_value=1, max_value=9), st.sampled_from(list(SumConvention)))
def test_symbolic_roundtrip_is_exact(a, b, c, k, conv):
    zp = SymbolicValue.of(a, b, c)
    s_val = s_from_zprime(k, zp, conv)
    assert zprime_from_s(k, s_val, conv) == zp


def test_generating_function_residual_within_bound():
    with CTX.workdps():
        chk = generating_function_residual(1, 200, CTX)
        assert chk.residual <= chk.tail_bound
        assert chk.tail_bound < mpf(10) ** (-80)
        # smaller x: pick N so N e^(-N x) is below target precision
        chk2 = generating_function_residual(mpf("0.1"), 1500, CTX)
        assert chk2.residual <= chk2.tail_bound


def test_generating_function_algebraic_identity():
    # (1 - e^-x) * [log(1-e^-x)/(1-e^-x)] == log(1-e^-x) exactly
    with CTX.workdps():
        x = mpf("0.7")
        one_minus = -mpmath.expm1(-x)
        kernel = mpmath.log(one_minus) / one_minus
        assert one_minus * kernel == mpmath.log(one_minus)


def test_generating_function_domain():
    with pytest.raises(DomainError):
        generating_function_residual(0, 10, CTX)


@pytest.mark.parametrize("s", [2, 3])
def test_mellin_residuals(s):
    chk = mellin_fundamental_check(s, CTX)
    bound = tol(12)
    assert chk.residual_h < bound
    assert chk.residual_shifted < bound
    assert chk.residual_zeta < bound
    assert chk.combined < bound


def test_mellin_matches_direct_lemma_route():
    with CTX.workdps():
        direct = fundamental_lemma_residual(2, CTX)
        via_mellin = mellin_fundamental_check(2, CTX).combined
        assert abs(direct - via_mellin) < tol(12)


def test_mellin_converges_at_100_digits():
    # log(1 - e^-x) must stay relatively accurate on the far exp-exp nodes
    ctx = PrecisionContext(100)
    chk = mellin_fundamental_check(3, ctx)
    bound = ctx.tolerance(12)
    for residual in (chk.residual_h, chk.residual_shifted, chk.residual_zeta, chk.combined):
        assert residual <= bound
