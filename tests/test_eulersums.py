import json
import math
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from zetachain import eulersums, precision, special, zeta
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
    monkeypatch.setattr(eulersums, "_cut", lambda ctx: n)


@pytest.mark.parametrize("s", ["1.1", "2.5", "7"])
def test_euler_sum_truncation_stability(monkeypatch, s):
    # the default cut 3 dps against cuts on both sides of it: dps, zeta's cut
    # before the Euler sums had their own, and 6 dps
    with CTX.workdps():
        base = h_euler(s, CTX), h_euler_shifted(s, CTX)
        for n in (CTX.dps, 6 * CTX.dps):
            euler_sum_cut(monkeypatch, n)
            assert abs(h_euler(s, CTX) - base[0]) < tol(5), n
            assert abs(h_euler_shifted(s, CTX) - base[1]) < tol(5), n


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
    # 100 digits the cut N = 3 dps and an order sized to the tail's own terms
    # make that 59 orders per tail, 118 calls for the two sums; the cut
    # N = dps needed 85 per tail (170 calls), and a cut of 0.45 dps 135,
    # each shifted by up to 124 steps.
    calls, polygamma = [], special.polygamma

    def counting(m, x, ctx):
        calls.append(m)
        return polygamma(m, x, ctx)

    monkeypatch.setattr(special, "polygamma", counting)
    fundamental_lemma_residual("2.345", PrecisionContext(100))
    assert 0 < len(calls) <= 118


TAIL_GRID = ("1.0001", "1.05", "1.5", "2.456", "4.75", "12", "30", "75.5", "150")


@pytest.mark.parametrize("digits", [15, 40, 100, 200])
def test_euler_sum_tail_order_grid(digits):
    # the tail's order estimate must never fall short of the order its
    # corrections need: a short estimate raises ArithmeticError
    ctx = PrecisionContext(digits)
    for s in TAIL_GRID:
        for fn in (h_euler, h_euler_shifted):
            assert fn(s, ctx) > 0


@pytest.mark.parametrize("digits", [15, 40, 100, 200])
def test_euler_sum_tails_take_no_stirling_shift(monkeypatch, digits):
    # at the cut N = 3 dps every tail order psi^(m)(N+1), and H(N), is past
    # the Stirling kernel's shift point x ~ 0.4 dps + m; at N = dps the
    # higher orders were shifted, by up to 23 steps at 100 digits
    shifts, shift = [], special._shift

    def recording(tn, td, m, dps):
        shifts.append(shift(tn, td, m, dps))
        return shifts[-1]

    monkeypatch.setattr(special, "_shift", recording)
    ctx = PrecisionContext(digits)
    for s in TAIL_GRID:
        for fn in (h_euler, h_euler_shifted):
            fn(s, ctx)
    assert shifts and max(shifts) == 0


@pytest.mark.parametrize("s", [10**6, 2**400])
def test_euler_sums_at_huge_s(s):
    # past the working precision h(s) = 1 and the shifted sum is 2^-s to every
    # digit kept; the shifted sum's unit is floor(s) + 1 bits finer than 2^-wp
    # only for its powers, so no integer of about s bits is built
    ctx = PrecisionContext(15)
    assert h_euler(s, ctx) == 1
    with mpmath.workdps(35):
        ref = mpf(2) ** -s
        assert abs(h_euler_shifted(s, ctx) - ref) <= mpf(10) ** -13 * ref


@pytest.mark.parametrize("s", ["60", "75.5"])
def test_shifted_sum_relative_at_large_s(s):
    # the shifted sum is about 2^-s, so its tail must stop on a tolerance
    # relative to the sum, not on an absolute 10^-(dps+3); checked against
    # direct summation at 40 more digits, stopped where a term falls below
    # 10^-250 of 2^-s (n = 30,548 at s = 60)
    ctx = PrecisionContext(200)
    got = h_euler_shifted(s, ctx)
    with mpmath.workdps(240):
        sv = mpf(s)
        stop = mpf(10) ** -250 * mpf(2) ** -sv
        total = h = mpf(0)
        n = 0
        while True:
            n += 1
            h += mpf(1) / n
            term = h * mpf(n + 1) ** -sv
            total += term
            if term < stop:
                break
        assert abs(got - total) <= mpf(10) ** -200 * total


def test_euler_sum_grid_pinned(monkeypatch):
    # h and the shifted sum at s from 1.0001 to 150 and 15, 50 and 100
    # digits, recorded to digits + 3 significant digits, which fix every
    # bit; the partial sums and tails must reproduce them on cleared tables
    # and again with the Stirling and EM coefficients read back
    pins = json.loads((Path(__file__).parent / "euler_documents.json").read_text())
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    for _ in ("cold", "warm"):
        for pin in pins:
            ctx = PrecisionContext(pin["digits"])
            got = {name: mpmath.nstr(fn(pin["s"], ctx), pin["digits"] + 3) for name, fn in (("h", h_euler), ("h_shifted", h_euler_shifted))}
            assert got == {"h": pin["h"], "h_shifted": pin["h_shifted"]}, (pin["s"], pin["digits"])


@pytest.mark.parametrize("fn, s", [(h_euler, "2.345"), (zeta_em, "3.345")])
def test_non_integer_powers_one_per_prime(monkeypatch, fn, s):
    # n^-s is completely multiplicative: the partial sums take an mpf power
    # at each prime n and build composites from them; the h tail adds at
    # most five more (its integral terms and the derivative table's base^a)
    ctx = PrecisionContext(100)
    n_max = (eulersums._cut if fn is h_euler else zeta._em_setpoint)(ctx)
    pi_n = sum(all(p % q for q in range(2, math.isqrt(p) + 1)) for p in range(2, n_max + 1))
    calls = []
    pow_, rpow = mpf.__pow__, mpf.__rpow__

    def counting(op):
        def power(x, y):
            if y != int(y):
                calls.append(y)
            return op(x, y)

        return power

    monkeypatch.setattr(mpf, "__pow__", counting(pow_))
    monkeypatch.setattr(mpf, "__rpow__", counting(rpow))
    fn(s, ctx)
    assert 0 < len(calls) <= pi_n + (5 if fn is h_euler else 0)


def test_sum_lm_examples():
    assert sum_lm(2, SumConvention.A) == Fraction(7, 12)
    assert sum_lm(2, SumConvention.B) == Fraction(1, 2)
    assert sum_lm(1, SumConvention.A) == Fraction(1, 2)
    assert sum_lm(1, SumConvention.B) == 0


@pytest.mark.parametrize("conv", list(SumConvention))
def test_sum_lm_skips_only_zero_terms(conv):
    # sum_lm skips the odd indices >= 3, where B is 0; the full sum over
    # l + m = k, written with Fraction, agrees
    bernoulli = eulersums.bernoulli
    for k in range(1, 61):
        lmax = k if conv is SumConvention.A else k - 1
        full = sum(
            (math.comb(k, l) * bernoulli(l) / l * bernoulli(k - l) for l in range(1, lmax + 1)), Fraction(0)
        )
        assert sum_lm(k, conv) == full, k


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
