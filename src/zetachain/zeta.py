"""Classical evaluation of zeta(s) and zeta'(s) on the real line.

This is the oracle layer: everything here rests on rigorously valid
machinery (Euler-Maclaurin with explicit truncation control, the exact
rational values zeta(1-k) = -B_k/k, and the functional equation), so chain
values produced by the heuristic recurrence can be judged against it.

Euler-Maclaurin form used, valid for real s != 1 once 2J + s > 1:

    zeta(s) = sum_{n=1}^{N-1} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{j=1}^{J} B_2j/(2j)! (s)_(2j-1) N^(-s-2j+1)

with (s)_m the rising factorial.  zeta'(s) is the same sum differentiated
term by term in s (log factors, no finite differences).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mpf

from .exact import BernoulliConvention, bernoulli
from .precision import PrecisionContext
from .special import DomainError, gamma_fn


def _em_setpoint(ctx: PrecisionContext) -> int:
    # partial-sum length; correction terms then shrink by ~(2pi N)^-2 per order
    return max(20, ctx.dps)


def _extra_dps(s: mpf, n_terms: int) -> int:
    # the partial sum grows like N^(-s) for s < 0; compensate the cancellation
    if s >= 0:
        return 5
    return int((float(-s) + 2) * math.log10(n_terms)) + 10


def zeta_em(s, ctx: PrecisionContext, N: int | None = None, J: int | None = None) -> mpf:
    """zeta(s) for real s != 1 by Euler-Maclaurin summation."""
    with ctx.workdps():
        sv = mpf(s)
    if sv == 1:
        raise DomainError("zeta has a pole at s = 1")
    n_terms = N if N is not None else _em_setpoint(ctx)
    with mpmath.workdps(ctx.dps + _extra_dps(sv, n_terms)):
        sv = mpf(s)
        tol = mpf(10) ** (-ctx.dps - 5)
        total = mpf(0)
        for n in range(1, n_terms):
            total += mpf(n) ** (-sv)
        Np = mpf(n_terms)
        total += Np ** (1 - sv) / (sv - 1)
        total += Np ** (-sv) / 2
        # correction terms; rising factorial built incrementally
        prod = mpf(1)
        npow = Np ** (-sv + 1)
        jmax = J if J is not None else 4 * ctx.dps
        for j in range(1, jmax + 1):
            for i in (2 * j - 3, 2 * j - 2) if j > 1 else (0,):
                prod *= sv + i
            npow /= Np * Np
            b = bernoulli(2 * j)
            term = mpf(b.numerator) / b.denominator / mpf(math.factorial(2 * j)) * prod * npow
            total += term
            if J is None and abs(term) < tol:
                return ctx.round(total)
        if J is None:
            raise ArithmeticError("Euler-Maclaurin corrections did not converge; raise N")
        return ctx.round(total)


def zeta_prime_em(s, ctx: PrecisionContext, N: int | None = None) -> mpf:
    """zeta'(s) by termwise analytic differentiation of the EM sum."""
    with ctx.workdps():
        sv = mpf(s)
    if sv == 1:
        raise DomainError("zeta has a pole at s = 1")
    n_terms = N if N is not None else _em_setpoint(ctx)
    with mpmath.workdps(ctx.dps + _extra_dps(sv, n_terms) + 5):
        sv = mpf(s)
        tol = mpf(10) ** (-ctx.dps - 5)
        total = mpf(0)
        for n in range(2, n_terms):
            total -= mpmath.log(n) * mpf(n) ** (-sv)
        Np = mpf(n_terms)
        logN = mpmath.log(Np)
        # d/ds [N^(1-s)/(s-1)] and d/ds [N^-s/2]
        total += Np ** (1 - sv) * (-logN / (sv - 1) - 1 / (sv - 1) ** 2)
        total -= logN * Np ** (-sv) / 2
        # correction terms with product-rule derivative of the rising factorial
        prod = mpf(1)
        dprod = mpf(0)
        npow = Np ** (-sv + 1)
        for j in range(1, 4 * ctx.dps):
            for i in (2 * j - 3, 2 * j - 2) if j > 1 else (0,):
                factor = sv + i
                dprod = dprod * factor + prod
                prod = prod * factor
            npow /= Np * Np
            b = bernoulli(2 * j)
            coeff = mpf(b.numerator) / b.denominator / mpf(math.factorial(2 * j))
            term = coeff * npow * (dprod - logN * prod)
            total += term
            if abs(term) < tol and abs(coeff * npow * prod) < tol:
                return ctx.round(total)
        raise ArithmeticError("Euler-Maclaurin corrections did not converge; raise N")


def zeta_neg_int_exact(k: int) -> Fraction:
    """Exact rational zeta(1-k) = -B_k/k for k >= 1 (B1 = +1/2 convention)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return -bernoulli(k, BernoulliConvention.PAPER_PLUS) / k


def zeta_odd_from_zprime(k: int, zprime, ctx: PrecisionContext) -> mpf:
    """zeta(2k+1) = (-1)^k 2 (2pi)^(2k)/(2k)! * zeta'(-2k), k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1 (zeta(1) diverges)")
    with ctx.workdps():
        two_pi = 2 * mpmath.pi
        val = (-1) ** k * 2 * two_pi ** (2 * k) / mpf(math.factorial(2 * k)) * mpf(zprime)
        return ctx.round(val)


def zprime_from_zeta_odd(k: int, zeta_odd, ctx: PrecisionContext) -> mpf:
    """Inverse bridge: zeta'(-2k) = (-1)^k (2k)! zeta(2k+1) / (2 (2pi)^(2k))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    with ctx.workdps():
        two_pi = 2 * mpmath.pi
        val = (-1) ** k * mpf(math.factorial(2 * k)) * mpf(zeta_odd) / (2 * two_pi ** (2 * k))
        return ctx.round(val)


def zeta_prime_oracle(a, ctx: PrecisionContext) -> mpf:
    """zeta'(a) with closed-form fast paths at a = 0 and negative even integers."""
    with ctx.workdps():
        av = mpf(a)
        if av == 1:
            raise DomainError("zeta has a pole at s = 1")
        if av == 0:
            return ctx.round(-mpmath.log(2 * mpmath.pi) / 2)
        if av < 0 and av == mpmath.floor(av) and int(av) % 2 == 0:
            k = -int(av) // 2
            return zprime_from_zeta_odd(k, zeta_em(2 * k + 1, ctx), ctx)
    return zeta_prime_em(a, ctx)


def _cos_half_pi(s, ctx: PrecisionContext) -> mpf:
    # exact zero at odd integers: the trivial-zero mechanism, kept identical
    with ctx.workdps():
        sv = mpf(s)
        if sv == mpmath.floor(sv) and int(sv) % 2 == 1:
            return mpf(0)
        return mpmath.cos(mpmath.pi * sv / 2)


def functional_equation_sides(s, ctx: PrecisionContext) -> tuple[mpf, mpf]:
    """(zeta(1-s), 2 (2pi)^-s Gamma(s) cos(pi s/2) zeta(s)) for s > 1."""
    with ctx.workdps():
        sv = mpf(s)
        if sv <= 1:
            raise DomainError("functional-equation check requires s > 1")
        lhs = zeta_em(1 - sv, ctx)
        c = _cos_half_pi(sv, ctx)
        if c == 0:
            rhs = mpf(0)
        else:
            rhs = 2 * (2 * mpmath.pi) ** (-sv) * gamma_fn(sv, ctx) * c * zeta_em(sv, ctx)
        return ctx.round(lhs), ctx.round(rhs)


def functional_equation_residual(s, ctx: PrecisionContext) -> mpf:
    lhs, rhs = functional_equation_sides(s, ctx)
    with ctx.workdps():
        return ctx.round(abs(lhs - rhs))
