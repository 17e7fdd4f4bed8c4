"""Euler sums, the telescoping identity, and the regularized-sum closed form.

Covers the convergent side (h(s) = sum H_n/n^s, its shifted companion, the
telescoping identity relating them to zeta(s+1), the generating-function
and Mellin-transform routes to the same identity) and the exact closed form
that converts a value of zeta'(1-k) into the regularized sum S_{k-1} for
sum H_n n^(k-1), together with its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

from .exact import BernoulliConvention, bernoulli, binomial, harmonic
from .precision import PrecisionContext, const_gamma
from .quadrature import integrate
from .special import DomainError, gamma_fn, hsmooth_pow_derivs
from .values import RegularizedSum, SumConvention, SymbolicValue
from .zeta import zeta_em, zeta_neg_int_exact


def _power_tail_integral(s_eff, N: mpf, tol: mpf) -> mpf:
    # int_N^inf (gamma + ln t + 1/(2t) - sum_j B_2j/(2j) t^(-2j)) t^(-s_eff) dt,
    # the Stirling expansion of gamma + psi(t+1) integrated term by term.
    # Valid once N is large enough that the optimal truncation beats tol.
    s = s_eff
    total = (mpmath.euler + mpmath.log(N)) * N ** (1 - s) / (s - 1)
    total += N ** (1 - s) / (s - 1) ** 2
    total += N ** (-s) / (2 * s)
    npow = N ** (1 - s)
    n2 = N * N
    for j in range(1, 10_000):
        b = bernoulli(2 * j)
        npow /= n2
        term = mpf(b.numerator) / (b.denominator * 2 * j) * npow / (s + 2 * j - 1)
        total -= term
        if abs(term) < tol:
            return total
    raise ArithmeticError("tail integral series did not converge; raise N")


def _tail_integral(sv: mpf, N: int, shift: int, tol: mpf) -> mpf:
    # int_N^inf (gamma + psi(t+1)) (t+shift)^(-s) dt
    Np = mpf(N)
    if shift == 0:
        return _power_tail_integral(sv, Np, tol)
    # binomial expansion of (t+shift)^(-s) in powers of t^-1
    total = mpf(0)
    w = mpf(1)
    for i in range(0, 10_000):
        if i > 0:
            w *= -(sv + i - 1) * shift / i
        piece = w * _power_tail_integral(sv + i, Np, tol)
        total += piece
        if i > 0 and abs(piece) < tol:
            return total
    raise ArithmeticError("binomial tail expansion did not converge; raise N")


def _smooth_tail(s, N: int, shift: int, ctx: PrecisionContext) -> mpf:
    """sum_{n=N}^inf H(n) (n+shift)^(-s) by Euler-Maclaurin on the smooth extension."""
    with ctx.workdps():
        sv = mpf(s)
        tol = mpf(10) ** (-ctx.dps - 3)
        total = _tail_integral(sv, N, shift, tol / 10)
        # derivative order needed: terms ~ (2j)!/(2 pi N)^(2j); estimate in floats
        log_tol = float(mpmath.log(tol)) - 8
        jmax = 1
        while math.lgamma(2 * jmax + 1) - 2 * jmax * math.log(2 * math.pi * N) > log_tol:
            jmax += 1
            if 2 * jmax > 6 * math.pi * N:
                raise ArithmeticError("Euler-Maclaurin tail cannot reach tolerance; raise N")
        while True:
            table = hsmooth_pow_derivs(N, -sv, shift, 2 * jmax + 1, ctx)
            correction = table[0] / 2
            done = False
            for j in range(1, jmax + 1):
                b = bernoulli(2 * j)
                term = (
                    mpf(b.numerator) / b.denominator / mpf(math.factorial(2 * j)) * table[2 * j - 1]
                )
                correction -= term
                if abs(term) < tol:
                    done = True
                    break
            if done:
                return total + correction
            jmax *= 2
            if 2 * jmax > 8 * math.pi * N:
                raise ArithmeticError("Euler-Maclaurin tail cannot reach tolerance; raise N")


def _h_sum(s, shift: int, ctx: PrecisionContext, N: int | None = None) -> mpf:
    if N is None:
        N = max(30, int(0.45 * ctx.dps) + 10)
    with ctx.workdps():
        sv = mpf(s)
        if sv <= 1:
            raise DomainError("the Euler sum requires s > 1")
        h = mpf(0)
        total = mpf(0)
        for n in range(1, N):
            h += mpf(1) / n
            total += h * mpf(n + shift) ** (-sv)
        total += _smooth_tail(sv, N, shift, ctx)
        return ctx.round(total)


def h_euler(s, ctx: PrecisionContext, N: int | None = None) -> mpf:
    """h(s) = sum_{n>=1} H_n / n^s for s > 1."""
    return _h_sum(s, 0, ctx, N)


def h_euler_shifted(s, ctx: PrecisionContext, N: int | None = None) -> mpf:
    """sum_{n>=1} H_n / (n+1)^s for s > 1."""
    return _h_sum(s, 1, ctx, N)


def fundamental_lemma_residual(s, ctx: PrecisionContext) -> mpf:
    """|sum H_n/(n+1)^s - h(s) + zeta(s+1)|, both sums evaluated independently."""
    with ctx.workdps():
        sv = mpf(s)
        res = h_euler_shifted(sv, ctx) - h_euler(sv, ctx) + zeta_em(sv + 1, ctx)
        return ctx.round(abs(res))


def sum_lm(
    k: int,
    conv: SumConvention,
    bconv: BernoulliConvention = BernoulliConvention.PAPER_PLUS,
) -> Fraction:
    """Exact value of sum over l+m=k of C(k,l) (B_l/l) B_m under the index convention."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lmax = k if conv is SumConvention.A else k - 1
    total = Fraction(0)
    for l in range(1, lmax + 1):
        m = k - l
        total += binomial(k, l) * bernoulli(l, bconv) / l * bernoulli(m, bconv)
    return total


def bprime_from_zprime(k: int, zprime):
    """B'_k = -zeta(1-k) + k zeta'(1-k); zprime may be symbolic or numeric."""
    if k < 1:
        raise ValueError("k must be >= 1")
    zneg = zeta_neg_int_exact(k)
    if isinstance(zprime, SymbolicValue):
        return SymbolicValue.rational(-zneg) + zprime * k
    return mpf(zprime) * k - mpf(zneg.numerator) / zneg.denominator


def zprime_from_bprime(k: int, bprime):
    """Inverse of bprime_from_zprime."""
    if k < 1:
        raise ValueError("k must be >= 1")
    zneg = zeta_neg_int_exact(k)
    if isinstance(bprime, SymbolicValue):
        return (bprime + SymbolicValue.rational(zneg)) / k
    return (mpf(bprime) + mpf(zneg.numerator) / zneg.denominator) / k


def _closed_form_rationals(k: int, conv: SumConvention, bconv: BernoulliConvention):
    # pieces of the closed form that do not involve zeta'(1-k):
    #   -zeta(1-k) + k B_(k-1) + gamma B_k - sum_lm - B_k H_k
    bk = bernoulli(k, bconv)
    const = (
        -zeta_neg_int_exact(k)
        + k * bernoulli(k - 1, bconv)
        - sum_lm(k, conv, bconv)
        - bk * harmonic(k)
    )
    return const, bk


def s_from_zprime(
    k: int,
    zprime,
    conv: SumConvention,
    ctx: PrecisionContext | None = None,
    provenance: str = "closed_form",
    bconv: BernoulliConvention = BernoulliConvention.PAPER_PLUS,
) -> RegularizedSum:
    """Closed form for S_(k-1), the regularized sum H_n n^(k-1), given zeta'(1-k).

    S_(k-1) = [(-1)^(k-1)/k] (-zeta(1-k) + k zeta'(1-k) + k B_(k-1)
              + gamma B_k - sum_lm(k) - B_k H_k).
    Exact (SymbolicValue) when zprime is symbolic, numeric otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    const, bk = _closed_form_rationals(k, conv, bconv)
    sign = Fraction((-1) ** (k - 1), k)
    if isinstance(zprime, SymbolicValue):
        val = (SymbolicValue.of(a=const, b=bk) + zprime * k) * sign
        return RegularizedSum(k - 1, val, conv, provenance)
    if ctx is None:
        raise ValueError("a PrecisionContext is required for numeric zprime")
    with ctx.workdps():
        num = (
            mpf(const.numerator) / const.denominator
            + mpf(bk.numerator) / bk.denominator * const_gamma(ctx)
            + k * mpf(zprime)
        )
        num *= mpf(sign.numerator) / sign.denominator
        return RegularizedSum(k - 1, ctx.round(num), conv, provenance)


def zprime_from_s(
    k: int,
    s_val: RegularizedSum,
    ctx: PrecisionContext | None = None,
    bconv: BernoulliConvention = BernoulliConvention.PAPER_PLUS,
):
    """Invert the closed form: recover zeta'(1-k) from S_(k-1)."""
    if s_val.k != k - 1:
        raise ValueError(f"regularized sum has exponent {s_val.k}, expected {k - 1}")
    const, bk = _closed_form_rationals(k, s_val.convention, bconv)
    sign = Fraction((-1) ** (k - 1))
    if isinstance(s_val.value, SymbolicValue):
        return (s_val.value * (sign * k) - SymbolicValue.of(a=const, b=bk)) / k
    if ctx is None:
        raise ValueError("a PrecisionContext is required for numeric input")
    with ctx.workdps():
        num = mpf(s_val.value) * k * (1 if k % 2 == 1 else -1)
        num -= mpf(const.numerator) / const.denominator
        num -= mpf(bk.numerator) / bk.denominator * const_gamma(ctx)
        return ctx.round(num / k)


@dataclass(frozen=True)
class GeneratingFunctionCheck:
    residual: mpf
    tail_bound: mpf

    @property
    def within_bound(self) -> bool:
        return self.residual <= self.tail_bound


def generating_function_residual(x, N: int, ctx: PrecisionContext) -> GeneratingFunctionCheck:
    """Check sum_{n<=N} H_n e^(-nx) against -log(1-e^(-x))/(1-e^(-x))."""
    with ctx.workdps():
        if mpf(x) <= 0:
            raise DomainError("x must be positive")
    # the geometric tail bound ~e^(-Nx) can sit far below the context
    # precision; work with enough digits that rounding stays under it
    bound_digits = (N + 1) * float(x) / math.log(10)
    work = max(ctx.dps, int(bound_digits)) + int(math.log10(N + 1)) + 10
    with mpmath.workdps(work):
        xv = mpf(x)
        q = mpmath.exp(-xv)
        h = mpf(0)
        partial = mpf(0)
        for n in range(1, N + 1):
            h += mpf(1) / n
            partial += h * q**n
        one_minus = -mpmath.expm1(-xv)
        closed = mpmath.log(one_minus) / one_minus
        residual = abs(partial + closed)
        # H_n <= H_(N+1) + (n-N-1) for n > N gives a geometric-series bound
        hnp1 = h + mpf(1) / (N + 1)
        bound = q ** (N + 1) * (hnp1 / one_minus + 1 / one_minus**2)
        return GeneratingFunctionCheck(ctx.round(residual), ctx.round(bound))


@dataclass(frozen=True)
class MellinCheck:
    """Residuals of the three Mellin integrals and their combination."""

    residual_h: mpf
    residual_shifted: mpf
    residual_zeta: mpf
    combined: mpf


def mellin_fundamental_check(s, ctx: PrecisionContext) -> MellinCheck:
    """Integrate the three Mellin transforms of the generating-function identity.

    For s > 1:
      I1 = int x^(s-1) log(1-e^-x)/(1-e^-x) dx          = -Gamma(s) h(s)
      I2 = int x^(s-1) e^-x log(1-e^-x)/(1-e^-x) dx     = -Gamma(s) sum H_n/(n+1)^s
      I3 = int x^(s-1) log(1-e^-x) dx                   = -Gamma(s) zeta(s+1)
    and I1 - I2 = I3 is the telescoping identity again, via an independent route.
    """
    with ctx.workdps():
        sv = mpf(s)
        if sv <= 1:
            raise DomainError("Mellin check requires s > 1")

        def log_term(x):
            return mpmath.log(-mpmath.expm1(-x))

        def f1(x):
            return x ** (sv - 1) * log_term(x) / (-mpmath.expm1(-x))

        def f2(x):
            return x ** (sv - 1) * mpmath.exp(-x) * log_term(x) / (-mpmath.expm1(-x))

        def f3(x):
            return x ** (sv - 1) * log_term(x)

        off = -(ctx.guard - 3)
        i1 = integrate(f1, 0, mpmath.inf, ctx, tol_offset=off).require_converged()
        i2 = integrate(f2, 0, mpmath.inf, ctx, tol_offset=off).require_converged()
        i3 = integrate(f3, 0, mpmath.inf, ctx, tol_offset=off).require_converged()
        g = gamma_fn(sv, ctx)
        r1 = abs(i1 + g * h_euler(sv, ctx))
        r2 = abs(i2 + g * h_euler_shifted(sv, ctx))
        r3 = abs(i3 + g * zeta_em(sv + 1, ctx))
        combined = abs((i1 - i2 - i3) / g)
        return MellinCheck(ctx.round(r1), ctx.round(r2), ctx.round(r3), ctx.round(combined))
