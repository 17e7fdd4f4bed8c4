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

Both functions run one private routine, ``_em``, on Python integers in
units of 2^-up, up = wp = the working prec + ``special._GUARD_BITS``
(+ floor(s) for zeta' at s > 0, since |zeta'(s)| > 2^-s log 2), and convert
to mpf once.  At integer s below the working prec (every s on the chain
path) n^-s is an integer or one floor division.  Elsewhere it comes from
``_inverse_powers``: n^-s is completely multiplicative, so a prime takes
one mpf power, converted to the unit, and a composite n = p m, p its smallest
prime factor from a sieve, the fixed-point product p^-s m^-s; pi(N) mpf
powers, not N - 1.  The Euler sums (``eulersums._h_sum``) build their
partial sums from the same routine.  s and (s)_(2j-1) are fixed point in
units of 2^-wp, or exact integers at those integer s, and B_2j/(2j)! is
the exact rational of ``exact.bernoulli``, read as far as the last term
taken: every EM term is one floor division.  The power N^(1-s-2j) is
carried from term to term, multiplied or divided by N^2, as a numerator
factor while its exponent is at least 0 (integer s <= -1) and as a factor
of the divisor after; at integer s <= 0 (s)_(2j-1) is exactly 0 from
j = 1 - s/2 on, and zeta's term is then 0 without a division.  zeta' groups
its logs by prime, taking the primes from the same sieve, sum_{n<N} log n
n^-s = sum_{p<N} log p sum_{a>=1} sum_{p^a | n} n^-s: pi(N) + 1
logarithms, not N - 2.  Each is one libmp ``mpf_log`` at the precision a
dps + 8 block would set (no fewer than wp bits), shifted to units of
2^-wp: the calls behind mpmath.log(p) * 2^wp in such a block, bit for bit,
with no block entered and no mpf built.  The odd-zeta bridges make the
libmp calls behind their mpf operator expressions, in the same order.
Corrections are added until one falls below 10^-(dps+5) relative to
max(1, |running sum|), compared as binary magnitudes (int.bit_length); a
sum still short of that after 4 dps terms raises ArithmeticError.

``_em_coefficients`` holds B_2j/(2j)! rounded once per working precision,
in one table per mpmath prec, grown one term at a time, with the tables of
the 16 most recently used precisions kept (``precision._COEFF_SLOTS``).
Its readers are the Euler-sum tails (``eulersums._smooth_tail``) and the
Ramanujan scheme (``ramanujan._ramanujan_raw``).

At negative even integers zeta_em returns the exact trivial zero.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    dps_to_prec,
    from_int,
    mpf_div,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_pow_int,
    mpf_shift,
    round_nearest,
    to_int,
)

from .exact import BernoulliConvention, bernoulli
from .precision import PrecisionContext, _coefficients, _working
from .special import _GUARD_BITS, DomainError, gamma_fn


def _em_setpoint(ctx: PrecisionContext) -> int:
    # partial-sum length; correction terms then shrink by ~(2pi N)^-2 per order
    return max(20, ctx.dps)


def _extra_dps(s: mpf, n_terms: int) -> int:
    # the partial sum grows like N^(-s) for s < 0; compensate the cancellation
    if s >= 0:
        return 5
    return int((float(-s) + 2) * math.log10(n_terms)) + 10


def _em_coefficient(j: int) -> mpf:
    b = bernoulli(2 * j)
    return mpf(b.numerator) / b.denominator / mpf(math.factorial(2 * j))


def _em_coefficients():
    """B_2j/(2j)! for j >= 1 at the current mpmath precision, indexed by j."""
    return _coefficients(_em_coefficient)


def zeta_em(s, ctx: PrecisionContext) -> mpf:
    """zeta(s) for real s != 1 by Euler-Maclaurin summation."""
    with ctx.workdps():
        sv = mpf(s)
    if sv == 1:
        raise DomainError("zeta has a pole at s = 1")
    if sv < 0 and sv == mpmath.floor(sv) and int(sv) % 2 == 0:
        return mpf(0)
    n_terms = _em_setpoint(ctx)
    with _working(ctx.dps + _extra_dps(sv, n_terms)):
        return _em(mpf(s), n_terms, ctx, derivative=False)


def zeta_prime_em(s, ctx: PrecisionContext) -> mpf:
    """zeta'(s) by termwise analytic differentiation of the EM sum."""
    with ctx.workdps():
        sv = mpf(s)
    if sv == 1:
        raise DomainError("zeta has a pole at s = 1")
    n_terms = _em_setpoint(ctx)
    with _working(ctx.dps + _extra_dps(sv, n_terms) + 5):
        return _em(mpf(s), n_terms, ctx, derivative=True)


def _least_prime_factors(N: int) -> list[int]:
    """lpf[n] = the smallest prime factor of n for 2 <= n <= N, by a sieve; lpf[n] == n at primes."""
    lpf = list(range(N + 1))
    for p in range(2, math.isqrt(N) + 1):
        if lpf[p] == p:
            for q in range(p * p, N + 1, p):
                if lpf[q] == q:
                    lpf[q] = p
    return lpf


def _inverse_powers(sv: mpf, N: int, up: int) -> list[int]:
    """[0, 0, 2^-s, ..., N^-s] for real s, in units of 2^-up.

    n^-s is completely multiplicative: a prime p takes one mpf power at the
    working precision, and a composite n = p m, p its smallest prime factor,
    the fixed-point product p^-s m^-s, so N - 1 entries cost pi(N) powers.
    """
    unit = mpf((1, up))
    lpf = _least_prime_factors(N)
    pw = [0] * (N + 1)
    for n in range(2, N + 1):
        p = lpf[n]
        pw[n] = int(mpf(p) ** -sv * unit) if p == n else pw[p] * pw[n // p] >> up
    return pw


def _em(sv: mpf, N: int, ctx: PrecisionContext, derivative: bool) -> mpf:
    """zeta(sv), or zeta'(sv) if derivative, for real sv != 1, inside the caller's working block.

    Integers in units of 2^-up, up = wp = mpmath prec + _GUARD_BITS, + floor(s)
    for zeta' at s > 0 (|zeta'(s)| > 2^-s log 2).  s and (s)_(2j-1) are in
    units of 2^-k: k = 0 at integer s, where n^-s is exact too, else k = wp
    and n^-s comes from _inverse_powers.
    Each N-dependent piece is A + B log N: zeta keeps B, zeta' = A - B log N.
    """
    wp = mpmath.mp.prec + _GUARD_BITS
    s = int(mpmath.floor(sv))
    up = wp + max(0, s) if derivative else wp
    k = 0 if sv == s and abs(s) < mpmath.mp.prec else wp
    if k:
        sn = int(sv * mpf((1, k)))
        pw = _inverse_powers(sv, N, up)
    else:
        sn, unit = s, 1 << up
        pw = [0, 0] + [n**-s << up if s <= 0 else unit // n**s for n in range(2, N + 1)]
    pw_N = pw.pop()  # N^-s; pw[n] = n^-s for 2 <= n < N, and n = 1 stays out: zeta' never builds 1 << up
    if derivative:
        # sum_{n<N} log n n^-s = sum_{p<N} log p sum_{a>=1} sum_{p^a | n} n^-s
        lpf = _least_prime_factors(N)
        primes = [p for p in range(2, N) if lpf[p] == p]
        # log p at the prec of a dps + 8 block, no fewer than wp bits, shifted to units of 2^-wp
        prec = dps_to_prec(mpmath.mp.dps + 8)
        logs = [to_int(mpf_shift(mpf_log(from_int(p), prec, round_nearest), wp)) for p in primes + [N]]
        total = 0
        for p, log_p in zip(primes, logs):
            q, c = p, 0
            while q < N:
                c += sum(pw[q::q])
                q *= p
            total -= c * log_p >> wp
        log_n = logs[-1]
    else:
        total = (1 << up) + sum(pw)

    def rational(num: int, den: int, e: int) -> int:
        # num/den N^(e-s) in units of 2^-up, one floor division
        if k:
            num *= pw_N
        else:
            num, e = num << up, e - s
        return num * N**e // den if e >= 0 else num // (den * N**-e)

    one = 1 << k
    lead = rational(one, sn - one, 1) + rational(1, 2, 0)  # N^(1-s)/(s-1) + N^-s/2
    total += rational(-one * one, (sn - one) ** 2, 1) - (lead * log_n >> wp) if derivative else lead
    tol_mag = 1 - (10 ** (ctx.dps + 5)).bit_length()  # mpmath.mag(10^-(dps+5))
    # Term j is B_2j/(2j)! (s)_(2j-1) N^(1-s-2j) in units of 2^-up, one floor
    # division.  N^-s is pw_N at non-integer s; at integer s it is 1 << up with
    # s in N's exponent e.  N^e is npow while e >= 0, and a factor of the divisor
    # dn = (2j)! 2^k N^-e after; either is stepped by N^2.
    e = -1 if k else -1 - s
    npow, dn = (N**e, 1 << k) if e >= 0 else (1, N**-e << k)
    n2 = N * N
    prod, dprod = one, 0  # (s)_(2j-1) and its s-derivative
    for j in range(1, 4 * ctx.dps + 1):
        for i in (2 * j - 3, 2 * j - 2) if j > 1 else (0,):
            f = sn + (i << k)
            if derivative:
                dprod = (dprod * f >> k) + prod
            prod = prod * f >> k
        dn *= (2 * j - 1) * 2 * j
        b = bernoulli(2 * j)
        bn, den = b.numerator * npow, b.denominator * dn
        # (s)_(2j-1) is exactly 0 from j = 1 - s/2 on at integer s <= 0
        term = (bn * prod * pw_N if k else bn * prod << up) // den if prod else 0
        if derivative:
            term_d = (bn * dprod * pw_N if k else bn * dprod << up) // den - (term * log_n >> wp)
        else:
            term_d = term
        total += term_d
        lim = tol_mag + max(0, total.bit_length() - up)
        if max(term_d.bit_length(), term.bit_length()) - up < lim:
            return ctx.round(mpf((total, -up)))
        if e >= 2:
            npow //= n2
        elif e >= 0:
            npow, dn = 1, dn * (n2 // npow)  # N^-1 from N, N^-2 from 1
        else:
            dn *= n2
        e -= 2
    raise ArithmeticError("Euler-Maclaurin corrections did not converge")


def zeta_neg_int_exact(k: int) -> Fraction:
    """Exact rational zeta(1-k) = -B_k/k for k >= 1 (B1 = +1/2 convention)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return -bernoulli(k, BernoulliConvention.PAPER_PLUS) / k


def _two_pi_pow(k: int, prec: int) -> tuple:
    # (2 pi)^(2k) as the libmp calls behind (2 * mpmath.pi) ** (2k) at prec
    two_pi = mpf_mul_int(mpmath.pi._mpf_, 2, prec, round_nearest)
    return mpf_pow_int(two_pi, 2 * k, prec, round_nearest)


def zeta_odd_from_zprime(k: int, zprime, ctx: PrecisionContext) -> mpf:
    """zeta(2k+1) = (-1)^k 2 (2pi)^(2k)/(2k)! * zeta'(-2k), k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1 (zeta(1) diverges)")
    with ctx.workdps():
        prec = mpmath.mp.prec
        # the libmp calls behind (-1)^k 2 (2 pi)^(2k) / mpf((2k)!) * mpf(zprime)
        val = mpf_mul_int(_two_pi_pow(k, prec), (-1) ** k * 2, prec, round_nearest)
        val = mpf_div(val, from_int(math.factorial(2 * k), prec, round_nearest), prec, round_nearest)
        val = mpf_mul(val, mpf(zprime)._mpf_, prec, round_nearest)
        return ctx.round(mpmath.mp.make_mpf(val))


def zeta_odd_from_bprime(k: int, bprime, ctx: PrecisionContext) -> mpf:
    """Lemma 4, second form: zeta(2k+1) = (-1)^k (2pi)^(2k+1)/(2k+1)! * B'_(2k+1)/pi, k >= 1.

    Left unrounded at ctx's working precision: the lemma-4 check compares it
    with the rounded first form, zeta_odd_from_zprime.
    """
    if k < 1:
        raise ValueError("k must be >= 1 (zeta(1) diverges)")
    with ctx.workdps():
        two_pi = 2 * mpmath.pi
        val = (-1) ** k * two_pi ** (2 * k + 1) / mpf(math.factorial(2 * k + 1))
        return val * mpf(bprime) / mpmath.pi


def zprime_from_zeta_odd(k: int, zeta_odd, ctx: PrecisionContext) -> mpf:
    """Inverse bridge: zeta'(-2k) = (-1)^k (2k)! zeta(2k+1) / (2 (2pi)^(2k))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    with ctx.workdps():
        prec = mpmath.mp.prec
        # the libmp calls behind (-1)^k mpf((2k)!) * mpf(zeta_odd) / (2 (2 pi)^(2k))
        val = mpf_mul_int(from_int(math.factorial(2 * k), prec, round_nearest), (-1) ** k, prec, round_nearest)
        val = mpf_mul(val, mpf(zeta_odd)._mpf_, prec, round_nearest)
        den = mpf_mul_int(_two_pi_pow(k, prec), 2, prec, round_nearest)
        return ctx.round(mpmath.mp.make_mpf(mpf_div(val, den, prec, round_nearest)))


def zeta_prime_oracle(a, ctx: PrecisionContext) -> mpf:
    """zeta'(a) with closed-form fast paths at a = 0 and negative even integers."""
    return _zeta_prime_routed(a, ctx)[0]


def _zeta_prime_routed(a, ctx: PrecisionContext) -> tuple[mpf, mpf | None]:
    # (zeta'(a), zeta(1-a)) where the odd-zeta bridge computed zeta(1-a), else (zeta'(a), None)
    with ctx.workdps():
        av = mpf(a)
        if av == 1:
            raise DomainError("zeta has a pole at s = 1")
        if av == 0:
            return ctx.round(-mpmath.log(2 * mpmath.pi) / 2), None
        if av < 0 and av == mpmath.floor(av) and int(av) % 2 == 0:
            k = -int(av) // 2
            odd = zeta_em(2 * k + 1, ctx)
            return zprime_from_zeta_odd(k, odd, ctx), odd
    return zeta_prime_em(a, ctx), None


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
