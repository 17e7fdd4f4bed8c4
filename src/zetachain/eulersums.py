"""Euler sums, the telescoping identity, and the regularized-sum closed form.

Covers the convergent side (h(s) = sum H_n/n^s, its shifted companion, the
telescoping identity relating them to zeta(s+1), the generating-function
and Mellin-transform routes to the same identity) and the exact closed form,
in Q + Q*gamma + Q*ln(2pi), that converts a value of zeta'(1-k) into the
regularized sum S_{k-1} for sum H_n n^(k-1) and back.  The closed form
takes B_1 = +1/2 throughout, the convention of zeta(1-k) = -B_k/k.  Its
constants, sum_lm(k) and (-zeta(1-k) + k B_(k-1) - sum_lm(k) - B_k H_k)/k,
are sums of integer numerators over the lcm of their denominators, each
reduced once to a Fraction; the conversion adds or subtracts them as one
SymbolicValue, two Fraction additions, and at even k flips the sign.

Both Euler sums are a partial sum to a cut N plus an Euler-Maclaurin tail
on H(t) = gamma + psi(t+1).  N is ``_cut``, 3 dps, not the max(20, dps) of
zeta_em and zeta_prime_em (``zeta._em_setpoint``): there every extra n
costs work (warm zeta and zeta' calls at 3 dps took 1.6-1.9 times as long
at 20 to 200 digits), but here an extra n is one integer add while a tail
order is one psi^(m)(N+1) call, so the sums get faster as N grows up to
about 3 dps (2, 4 and 6 dps were within 15 % of it at 50 to 200 digits,
dps the slowest by 1.5-1.8 times).  The partial sum runs on Python integers
and is converted to mpf once.  H_n >= 1 is fixed point in units of 2^-wp,
wp = the working prec + ``special._GUARD_BITS``, and adds 1/n as one floor
division.  (n+shift)^-s comes from ``zeta._inverse_powers``, an mpf power
at each prime and a fixed-point product at each composite, in units of
2^-up: up = wp for h, and floor(s) + 1 bits more for the shifted sum,
which is at least 2^-s.  Each sum builds its own powers.

The tail needs psi^(m)(N+1) up to the order where its own j-th correction,
about 2 (2 pi)^-2j H(N) (s)_(2j-1) N^(1-s-2j), meets the tolerance, plus
one spare j.  The Stirling kernel shifts psi^(m)(x) up to x ~ 0.4 dps + m,
and N + 1 is past that for every order the tails ask for at s from 1.0001
to 150 and 15 to 200 digits, so none is shifted.  At 100 digits and s = 2.345 (dps 110) the orders stop at 59; the
cut N = dps needed 85, shifted by up to 23 steps, and a cut near 0.45 dps
135, shifted by up to 124.  The derivative table is prefix-stable, so the
order asked for changes no value.  The shifted tail integral is the
unshifted one moved by the identity H(u-1) = H(u) - 1/u
(psi(u+1) = psi(u) + 1/u); each sum's corrections come from its own
derivative table at N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf
from mpmath.libmp import mpf_mul, mpf_pow, round_nearest

from .exact import _rational_sum, bernoulli, harmonic, zeta_neg_int_exact
from .precision import GUARD, PrecisionContext, _coefficients, _working
from .quadrature import integrate
from .special import _GUARD_BITS, DomainError, _stirling_term, gamma_fn, hsmooth_pow_derivs
from .values import SumConvention, SymbolicValue
from .zeta import _em_coefficients, _inverse_powers, zeta_em


def _tail_coefficient(j: int) -> mpf:
    g = _stirling_term(0, j)
    return mpf(g.numerator) / g.denominator


def _power_tail_integral(s_eff, N: mpf, tol: mpf) -> mpf:
    # int_N^inf (gamma + ln t + 1/(2t) - sum_j B_2j/(2j) t^(-2j)) t^(-s_eff) dt,
    # the Stirling expansion of gamma + psi(t+1) integrated term by term.
    # Valid once N is large enough that the optimal truncation beats tol.
    # -B_2j/(2j) are the coefficients of digamma's Stirling series.
    s = s_eff
    total = (mpmath.euler + mpmath.log(N)) * N ** (1 - s) / (s - 1)
    total += N ** (1 - s) / (s - 1) ** 2
    total += N ** (-s) / (2 * s)
    npow = N ** (1 - s)
    n2 = N * N
    coeff = _coefficients(_tail_coefficient)
    for j in range(1, 10_000):
        npow /= n2
        term = coeff[j] * npow / (s + 2 * j - 1)
        total += term
        if abs(term) < tol:
            return total
    raise ArithmeticError("tail integral series did not converge at this cut point")


def _smooth_tail(s, N: int, shift: int, partial: mpf, ctx: PrecisionContext) -> mpf:
    """sum_{n=N}^inf H(n) (n+shift)^(-s), shift 0 or 1, by Euler-Maclaurin on H(t).

    partial, the sum before N, scales the tolerance where it is below 1:
    the shifted sum is about 2^-s.
    """
    with ctx.workdps():
        sv = mpf(s)
        tol = mpf(10) ** (-ctx.dps - 3) * min(1, partial)
        # order needed: the j-th correction is about 2 (2 pi)^-2j H(N) (s)_(2j-1) N^(1-s-2j),
        # the first j where that meets tol, plus one spare; checked first: a hopeless cut stalls the integral
        log_tol = float(mpmath.log(tol))
        sf = float(sv)
        lead = math.log(2 * (math.log(N) + float(mpmath.euler))) - math.lgamma(sf) + (1 - sf) * math.log(N)
        jmax = 1
        while lead + math.lgamma(sf + 2 * jmax - 1) - 2 * jmax * math.log(2 * math.pi * N) >= log_tol:
            jmax += 1
            if 2 * jmax > 6 * math.pi * N:
                raise ArithmeticError("Euler-Maclaurin tail cannot reach tolerance at this cut point")
        jmax += 1
        # u = t + 1 and H(u-1) = H(u) - 1/u: the unshifted integral from N+1, less (N+1)^(-s)/s
        cut = mpf(N + shift)
        total = _power_tail_integral(sv, cut, tol / 10)
        if shift:
            total -= cut ** (-sv) / sv
        em = _em_coefficients()
        table = hsmooth_pow_derivs(N, -sv, shift, 2 * jmax - 1, ctx)
        correction = table[0] / 2
        for j in range(1, jmax + 1):
            term = em[j] * table[j]
            correction -= term
            if abs(term) < tol:
                return total + correction
        raise ArithmeticError("Euler-Maclaurin tail did not reach tolerance at the estimated order")


def _cut(ctx: PrecisionContext) -> int:
    # partial-sum length: one more n costs one integer add, one more tail
    # order a psi^(m)(N+1) call, which at N = 3 dps needs no Stirling shift
    return 3 * ctx.dps


def _h_sum(s, shift: int, ctx: PrecisionContext) -> mpf:
    N = _cut(ctx)
    with ctx.workdps():
        sv = mpf(s)
        if sv <= 1:
            raise DomainError("the Euler sum requires s > 1")
        # sum_{n<N} H_n (n+shift)^-s on integers, H_n >= 1 in units of 2^-wp and
        # (n+shift)^-s in units of 2^-up: the shifted sum is at least 2^-s, so
        # its unit is floor(s) + 1 bits finer, and 1 << up is never built
        wp = mpmath.mp.prec + _GUARD_BITS
        up = wp + (int(sv) + 1 if shift else 0)
        one = 1 << wp
        pw = _inverse_powers(sv, N - 1 + shift, up)
        pw[1] = one  # 1^-s, read only when shift = 0, where up = wp
        h = acc = 0
        for n in range(1, N):
            h += one // n
            acc += h * pw[n + shift]
        partial = mpf((acc, -wp - up))
        total = partial + _smooth_tail(sv, N, shift, partial, ctx)
        return ctx.round(total)


def h_euler(s, ctx: PrecisionContext) -> mpf:
    """h(s) = sum_{n>=1} H_n / n^s for s > 1."""
    return _h_sum(s, 0, ctx)


def h_euler_shifted(s, ctx: PrecisionContext) -> mpf:
    """sum_{n>=1} H_n / (n+1)^s for s > 1."""
    return _h_sum(s, 1, ctx)


def fundamental_lemma_residual(s, ctx: PrecisionContext) -> mpf:
    """|sum H_n/(n+1)^s - h(s) + zeta(s+1)|, both sums evaluated independently."""
    with ctx.workdps():
        sv = mpf(s)
        res = h_euler_shifted(sv, ctx) - h_euler(sv, ctx) + zeta_em(sv + 1, ctx)
        return ctx.round(abs(res))


def sum_lm(k: int, conv: SumConvention) -> Fraction:
    """Exact value of sum over l+m=k of C(k,l) (B_l/l) B_m under the index convention."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lmax = k if conv is SumConvention.A else k - 1
    terms = []
    for l in range(1, lmax + 1):
        # B_n = 0 at odd n >= 3
        if any(n % 2 and n >= 3 for n in (l, k - l)):
            continue
        bl, bm = bernoulli(l), bernoulli(k - l)
        terms.append((math.comb(k, l) * bl.numerator * bm.numerator, l * bl.denominator * bm.denominator))
    return _rational_sum(terms)


def bprime_from_zprime(k: int, zprime) -> mpf:
    """B'_k = -zeta(1-k) + k zeta'(1-k) at the current working precision."""
    if k < 1:
        raise ValueError("k must be >= 1")
    zneg = zeta_neg_int_exact(k)
    return mpf(zprime) * k - mpf(zneg.numerator) / zneg.denominator


def _closed_form_part(k: int, conv: SumConvention) -> SymbolicValue:
    # the closed form's pieces that do not involve zeta'(1-k), divided by k:
    #   (-zeta(1-k) + k B_(k-1) - sum_lm - B_k H_k) / k = q/k + B_(k-1) - sum_lm/k - q H_k
    # and gamma B_k / k = q gamma, with q = -zeta(1-k)
    q = -zeta_neg_int_exact(k)
    b, lm, h = bernoulli(k - 1), sum_lm(k, conv), harmonic(k)
    const = _rational_sum(
        (
            (q.numerator, k * q.denominator),
            (b.numerator, b.denominator),
            (-lm.numerator, k * lm.denominator),
            (-q.numerator * h.numerator, q.denominator * h.denominator),
        )
    )
    return SymbolicValue.of(const, q)


def s_from_zprime(k: int, zprime: SymbolicValue, conv: SumConvention) -> SymbolicValue:
    """Closed form for S_(k-1), the regularized sum H_n n^(k-1), given zeta'(1-k).

    S_(k-1) = [(-1)^(k-1)/k] (-zeta(1-k) + k zeta'(1-k) + k B_(k-1)
              + gamma B_k - sum_lm(k) - B_k H_k), exact in Q + Q*gamma + Q*ln(2pi).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s_val = zprime + _closed_form_part(k, conv)
    return s_val if k % 2 else -s_val


def zprime_from_s(k: int, s_val: SymbolicValue, conv: SumConvention) -> SymbolicValue:
    """Invert the closed form: recover zeta'(1-k) from an exact S_(k-1)."""
    return (s_val if k % 2 else -s_val) - _closed_form_part(k, conv)


@dataclass(frozen=True)
class GeneratingFunctionCheck:
    residual: mpf
    tail_bound: mpf


def generating_function_residual(x, N: int, ctx: PrecisionContext) -> GeneratingFunctionCheck:
    """Check sum_{n<=N} H_n e^(-nx) against -log(1-e^(-x))/(1-e^(-x))."""
    with ctx.workdps():
        if mpf(x) <= 0:
            raise DomainError("x must be positive")
    # the geometric tail bound ~e^(-Nx) can sit far below the context
    # precision; work with enough digits that rounding stays under it
    bound_digits = (N + 1) * float(x) / math.log(10)
    work = max(ctx.dps, int(bound_digits)) + int(math.log10(N + 1)) + 10
    with _working(work):
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


def _mellin_kernels(x) -> tuple:
    """The _mpf_ of e^-x/(1 - e^-x), 1/(1 - e^-x) and log(1 - e^-x).

    log1p keeps log(1 - e^-x) relatively accurate once e^-x < 10^-dps.
    """
    ex = mpmath.exp(-x)
    if x < 1:
        one_minus = -mpmath.expm1(-x)
        log_om = mpmath.log(one_minus)
    else:
        one_minus = 1 - ex
        log_om = mpmath.log1p(-ex)
    return (ex / one_minus)._mpf_, (1 / one_minus)._mpf_, log_om._mpf_


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

        # the integrands make the libmp calls of the mpf operators of their
        # expressions, on raw tuples (quadrature's docstring)
        prec, rnd = mpmath.mp.prec, round_nearest
        make_mpf = mpmath.mp.make_mpf
        s1 = (sv - 1)._mpf_

        def integrands(x, kernels):
            # (I1, I2, I3) integrands sharing x^(s-1) and the node's kernels:
            # i3 = x^(s-1) log(1 - e^-x), i3/(1 - e^-x) and e^-x i3/(1 - e^-x),
            # the last two as products with the stored quotients
            ex_over, inv_om, log_om = kernels
            i3 = mpf_mul(mpf_pow(x._mpf_, s1, prec, rnd), log_om, prec, rnd)
            i1 = mpf_mul(i3, inv_om, prec, rnd)
            i2 = mpf_mul(i3, ex_over, prec, rnd)
            return make_mpf(i1), make_mpf(i2), make_mpf(i3)

        off = -(GUARD - 3)
        # e^-x/(1 - e^-x), 1/(1 - e^-x) and log(1 - e^-x) depend only on the
        # node, which the exp-exp walk puts at the same x for every s: they are
        # kept beside the nodes in quadrature's per-precision exp-exp kernel
        # series, keyed by the walk and bounded like every node list, and a
        # node makes only x^(s-1) and three multiplies per s
        i1, i2, i3 = integrate(
            integrands, 0, mpmath.inf, ctx, tol_offset=off, kernel=(_mellin_kernels,)
        ).require_converged()
        g = gamma_fn(sv, ctx)
        r1 = abs(i1 + g * h_euler(sv, ctx))
        r2 = abs(i2 + g * h_euler_shifted(sv, ctx))
        r3 = abs(i3 + g * zeta_em(sv + 1, ctx))
        combined = abs((i1 - i2 - i3) / g)
        return MellinCheck(ctx.round(r1), ctx.round(r2), ctx.round(r3), ctx.round(combined))
