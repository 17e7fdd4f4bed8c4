"""Acceptance gate: ten pinned criteria at 50-digit working precision.

Each test prints a single pass/fail line so a plain `pytest -v -s` run doubles
as an acceptance report.  Tolerances are pinned, not derived, so a regression
in any numeric layer turns the corresponding criterion red.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import mpf

from zetachain import hankel
from zetachain.chain import discrepancy_report, relation_residual, solve_chain
from zetachain.eulersums import (
    bprime_from_zprime,
    fundamental_lemma_residual,
    h_euler_shifted,
    mellin_fundamental_check,
)
from zetachain.exact import BernoulliConvention, bernoulli, bernoulli_self_identity, binomial, zeta_neg_int_exact
from zetachain.hankel import ContourSpec, bernoulli_interp, lemma3_residual
from zetachain.precision import PrecisionContext, const_gamma, const_log2pi
from zetachain.ramanujan import convergent_selftest, ramanujan_sum
from zetachain.values import SumConvention, SymbolicValue
from zetachain.zeta import (
    functional_equation_residual,
    functional_equation_sides,
    zeta_em,
    zeta_odd_from_bprime,
    zeta_odd_from_zprime,
    zeta_prime_em,
    zeta_prime_oracle,
)

P = 50
CTX = PrecisionContext(P)
A, B = SumConvention.A, SumConvention.B
PLUS, MINUS = BernoulliConvention.PAPER_PLUS, BernoulliConvention.CONVENTIONAL_MINUS


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} [{label}]: FAIL")
        raise
    print(f"criterion {n:2d} [{label}]: PASS")


def tol(offset):
    return CTX.tolerance(offset)


def test_01_exact_bernoulli_layer():
    with criterion(1, "exact Bernoulli layer"):
        t0 = time.monotonic()
        # defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1
        for m in range(1, 31):
            acc = sum(binomial(m + 1, j) * bernoulli(j, MINUS) for j in range(m + 1))
            assert acc == 0
        for n in range(2, 31):
            assert bernoulli_self_identity(n, MINUS) == 0
        # the sign convention for B_1 is load-bearing: the self-identity
        # breaks at n = 2 once B_1 = +1/2, and that breakage is asserted
        assert bernoulli_self_identity(2, PLUS) == Fraction(2)
        assert time.monotonic() - t0 < 1.0


def test_02_zeta_oracle():
    with criterion(2, "zeta oracle"):
        with CTX.workdps():
            assert abs(zeta_em(2, CTX) - mpmath.pi**2 / 6) < tol(5)
            for k in range(1, 13):
                exact = -bernoulli(k, PLUS) / k
                got = zeta_em(1 - k, CTX)
                assert abs(got - mpf(exact.numerator) / exact.denominator) < tol(5)
            assert abs(zeta_prime_em(0, CTX) + const_log2pi(CTX) / 2) < tol(8)


def test_03_functional_equation():
    with criterion(3, "functional equation"):
        with CTX.workdps():
            for s in ("1.25", "1.5", "2", "2.5", "3", "4", "6"):
                assert functional_equation_residual(mpf(s), CTX) < tol(8)
            # at s = 3 the cosine factor is an exact zero, so the whole
            # right-hand side vanishes identically, not just numerically
            lhs, rhs = functional_equation_sides(3, CTX)
            assert rhs == 0 and lhs == 0


def test_04_fundamental_lemma():
    with criterion(4, "telescoping Euler-sum identity"):
        with CTX.workdps():
            for s in ("1.25", "2", "3", "4.5"):
                assert fundamental_lemma_residual(mpf(s), CTX) < tol(10)
            # closed special case: sum H_n/(n+1)^2 = zeta(3)
            assert abs(h_euler_shifted(2, CTX) - zeta_em(3, CTX)) < tol(10)


def test_05_mellin_route():
    with criterion(5, "Mellin-transform route"):
        with CTX.workdps():
            for s in (2, 3):
                chk = mellin_fundamental_check(s, CTX)
                assert chk.residual_h < tol(12)
                assert chk.residual_shifted < tol(12)
                assert chk.residual_zeta < tol(12)
                # the combined integral identity re-proves the telescoping
                # identity by an independent route; both residuals must sit
                # inside the same quadrature tolerance
                direct = fundamental_lemma_residual(s, CTX)
                assert chk.combined < tol(12) and direct < tol(12)


def test_06_hankel_interpolation(monkeypatch):
    with criterion(6, "contour interpolation of Bernoulli numbers"):
        spec = ContourSpec()
        with CTX.workdps():
            half = mpf(10) ** (-P // 2)
            for n in (2, 4, 6):
                exact = bernoulli(n, PLUS)
                got = bernoulli_interp(n - 1, spec, CTX)
                assert abs(got - mpf(exact.numerator) / exact.denominator) < half
            for s in (mpf(1) / 2, mpf(3) / 2, mpf(2), mpf(4)):
                assert lemma3_residual(s, spec, CTX) < half
            base = bernoulli_interp(mpf("1.7"), spec, CTX)
            for alt in (ContourSpec(radius=0.5), ContourSpec(radius=3.0)):
                assert abs(bernoulli_interp(mpf("1.7"), alt, CTX) - base) < half
            # rays cut at Re z = -150, past the default cutoff
            monkeypatch.setattr(hankel, "_ray_cutoff", lambda ctx: mpf(150))
            assert abs(bernoulli_interp(mpf("1.7"), spec, CTX) - base) < half


def test_07_chain_exactness():
    with criterion(7, "chain exactness, no floats"):
        for conv in (A, B):
            chain = solve_chain(8, conv)
            for s in range(2, 10):
                assert relation_residual(s, chain) == SymbolicValue.of()
        # the s = 2 relation carries the exact rational 1/12 on its right side
        assert -zeta_neg_int_exact(2) == Fraction(1, 12)


def test_08_chain_vs_oracle_report():
    with criterion(8, "chain-vs-oracle discrepancy report"):
        # pipeline sanity: the seed sum and the first chain derivative,
        # re-derived by hand, as (rational, gamma, log 2pi) triples
        chain = solve_chain(1, A)
        assert chain[0] == SymbolicValue.of(Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
        rep = discrepancy_report(8, (A, B), CTX)
        assert len(rep.rows) == 16
        row1 = next(r for r in rep.rows if r.k == 1 and r.convention is A)
        assert row1.zprime_chain == SymbolicValue.of(Fraction(1, 12), Fraction(1, 6), Fraction(-1, 4))
        fine_ctx = PrecisionContext(2 * CTX.digits)
        fine = discrepancy_report(8, (A, B), fine_ctx)
        with fine_ctx.workdps():
            for r1, r2 in zip(rep.rows, fine.rows):
                # deltas are findings, not failures; what is asserted is that
                # each one is stable under doubling the working precision
                assert abs(r1.delta - r2.delta) < tol(5)


def test_09_odd_zeta_two_forms():
    with criterion(9, "two forms of the odd-zeta relation"):
        with CTX.workdps():
            for k in range(1, 5):
                zp = zeta_prime_oracle(-2 * k, CTX)
                form1 = zeta_odd_from_zprime(k, zp, CTX)
                # second printed form via B'_(2k+1), which reduces to
                # (2k+1) zeta'(-2k) at the trivial zero zeta(-2k) = 0
                form2 = zeta_odd_from_bprime(k, bprime_from_zprime(2 * k + 1, zp), CTX)
                assert abs(form1 - form2) < tol(8)


def test_10_ramanujan_oracle():
    with criterion(10, "Ramanujan-summation oracle"):
        half = mpf(10) ** (-P // 2)
        assert convergent_selftest(CTX) < half
        r0 = ramanujan_sum(0, CTX)[0]
        assert r0.stable and r0.spread < half
        with CTX.workdps():
            for conv in (A, B):
                chain0 = solve_chain(1, conv)[0].numeric(CTX)
                diff = abs(r0.value - chain0)
                assert mpmath.isfinite(diff)
            # the two summation schemes disagree by a definite constant;
            # against convention A the gap is exactly one Euler-Mascheroni
            chain0_a = solve_chain(1, A)[0].numeric(CTX)
            assert abs(abs(r0.value - chain0_a) - const_gamma(CTX)) < half
