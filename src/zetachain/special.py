"""Gamma, digamma and polygamma at arbitrary precision, and H(t) = gamma + psi(t+1).

All three rest on one kernel, ``_stirling(m, zn, zd)``, which sums the
Bernoulli terms of the Stirling series for d^(m+1)/dz^(m+1) log Gamma(z),
m >= -1:

    log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2 + sum_j B_2j/(2j(2j-1)) z^(1-2j)

and its derivatives, whose j-th term is (-1)^(m+1) B_2j (2j+m-1)!/(2j)! z^(-2j-m).
Callers shift the argument upward by ``_shift`` until the series converges,
call the kernel, add the leading terms and recur back down.  ``_shift``
reads the argument as the exact ratio tn/td below, so no mpf arithmetic
decides the shift.

The inner loops run on Python integers in fixed point, as mpmath's own
``mpf_psi0`` does: an integer n stands for n * 2^-wp, wp = mpmath prec +
``_GUARD_BITS``.  The argument t is read exactly from its mantissa and
exponent, so every t + i is an exact ratio of integers.  The kernel returns
sum_j g(m, j) z^(-2j), with g(m, j) the j-th term above divided by its
leading one ((-1)^(m+1) (m-1)! z^-m for m >= 1).  It builds each term from
the one before by the exact ratio g(m, j)/g(m, j-1) and z^-2; z^-2j on its
own would underflow the fixed point.  The argument's denominator is a power
of two, z = zn/2^e, so the step term * ratio * 2^2e // (zn^2 2^wp) is
(term * ratio >> (wp - 2e)) // zn^2, a floor of a floor (a left shift when
2e > wp): at the integer arguments of the Euler-sum tails the divisor zn^2
fits one 30-bit limb.  The ratios come from the exact Bernoulli rationals
of the exact layer and are rounded once per working precision: the kernel
reads them from the list of a table keyed by (mpmath prec, m) that grows
one term at a time, and the tables of the 16 most recently used
precisions are kept (``precision._COEFF_SLOTS``).  The kernel raises
ArithmeticError rather than return a truncated series: when a term stops
shrinking before the series has converged, the argument was shifted too
little.  These routines are independent of mpmath's own special-function
code (mpmath is used for elementary operations only); the test suite
exploits that independence for cross-checks.

psi^(m) for m >= 1 is summed in units of (m-1)!/t^m, which never exceed
|psi^(m)(t)| = m! sum_k (t+k)^-(m+1) >= m! int_t^inf u^-(m+1) du: the
downward recurrence adds m/t (t/(t+i))^(m+1) per step and the shifted
series is scaled by (t/(t+shift))^m, a factor skipped when the shift is 0,
where it is exactly 1.  Terms too small to show in that unit drop out
instead of underflowing.  The fixed-point sum s becomes psi^(m)(t) =
-/+ mpf(s) (m-1)!/(t^m 2^wp), and psi(t) = mpf(s)/2^wp, through the libmp
calls behind those mpf operators (``from_int``, ``mpf_mul_int``,
``mpf_pow_int``, ``mpf_div``, ``mpf_neg``) on raw tuples, bit for bit, and
is then rounded to the target digits by ``PrecisionContext.round``.

H(t) = gamma + psi(t+1), the smooth extension of the harmonic numbers, is
written once, in ``_hsmooth``; ``hsmooth_pow_derivs`` builds f = H(t)
(t+shift)^a and the odd-order derivatives f', f''', ... that the Euler-sum
tails and the Ramanujan scheme read, from H and psi^(m), as a Cauchy
product of Taylor coefficients in integers.  Its h^i/i! weights and output
scaling run on the same libmp calls on raw tuples.  It takes psi^(i) at
every order up to the highest, one polygamma call each, but sums and rounds
only the orders it returns.

Accuracy: the series stops on a relative 2^-(prec+6).  For Gamma (through
exp of log Gamma, with about log10(x ln x) more working digits once that
passes 3, the digits before log Gamma's point that exp turns into relative
error) and for psi^(m), m >= 1, the error is relative: the tests
hold psi^(m) within a relative 10^(-digits+2) of mpmath for m up to 140 at
15, 50 and 120 digits.  For psi the guarantee is absolute, so near its zero
at x ~ 1.46 psi keeps fewer relative digits.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

import mpmath
from mpmath import mpf
from mpmath.libmp import from_int, mpf_div, mpf_mul, mpf_mul_int, mpf_neg, mpf_pow, mpf_pow_int, round_nearest, to_int

from .exact import bernoulli
from .precision import PrecisionContext, _coefficients, _working

_GUARD_BITS = 24  # fixed-point bits carried beyond mpmath's working precision
_TOL = 1 << (_GUARD_BITS - 6)  # 2^-(prec+6) in units of 2^-wp
_LOG_GAMMA_SPARE = 3  # digits of log Gamma(x) before the point that GUARD absorbs


class DomainError(ValueError):
    """Argument outside the domain of a special function (e.g. a pole)."""


def _wp() -> int:
    return mpmath.mp.prec + _GUARD_BITS


def _ratio(x: mpf) -> tuple[int, int]:
    # x = n/d exactly for x > 0, d a power of two
    if x.exp >= 0:
        return x.man << x.exp, 1
    return x.man, 1 << -x.exp


def _fixed_pow(x: int, n: int, wp: int) -> int:
    # x^n for fixed-point x in [0, 1], by binary powering
    r = 1 << wp
    while n:
        if n & 1:
            r = r * x >> wp
        n >>= 1
        if n:
            x = x * x >> wp
    return r


def _shift(tn: int, td: int, m: int, dps: int) -> int:
    # The series tail behaves like (2j+m)! / ((2pi x)^(2j) x^m); x ~ 0.4*dps
    # plus the derivative order keeps the optimal term below 10^-dps with margin.
    # x = tn/td exactly, and ceil(k - x) = k - floor(x) for an integer k.
    return max(0, int(0.4 * dps) + max(m, 0) + 5 - tn // td)


def _stirling_term(m: int, j: int) -> Fraction:
    """g(m, j), the exact coefficient of z^-2j in the kernel's series; g(m, 0) = 1."""
    if j == 0:
        return Fraction(1)
    b = bernoulli(2 * j)
    if m >= 1:
        return b * math.comb(2 * j + m - 1, m - 1)
    return -b / (2 * j) if m == 0 else b / (2 * j * (2 * j - 1))


def _stirling_ratio(m: int, j: int) -> int:
    # g(m, j)/g(m, j-1) in fixed point at the current precision.  Past j = 1 it
    # is B_2j/B_(2j-2) (2j+m-1)(2j+m-2)/((2j)(2j-1)) for every m >= -1; a floor
    # does not depend on how the ratio is reduced, so no Fraction is built
    if j == 1:
        r = _stirling_term(m, 1)
        return (r.numerator << _wp()) // r.denominator
    b, c = bernoulli(2 * j), bernoulli(2 * j - 2)
    num = b.numerator * c.denominator * (2 * j + m - 1) * (2 * j + m - 2)
    return (num << _wp()) // (b.denominator * c.numerator * 2 * j * (2 * j - 1))


def _stirling(m: int, zn: int, zd: int) -> int:
    """sum_{j>=1} g(m, j) z^-2j, z = zn/zd shifted by ``_shift``, zd a power of two, in units of 2^-wp."""
    wp = _wp()
    table = _coefficients(_stirling_ratio, m)
    ratios = table._items  # read directly; table[j] only to grow it
    # term r zd^2 // (zn^2 2^wp) = (term r >> (wp - 2e)) // zn^2 for zd = 2^e
    down, zn2 = wp - 2 * (zd.bit_length() - 1), zn * zn
    s = 0
    term = size = 1 << wp
    for j in itertools.count(1):
        r = ratios[j - 1] if j <= len(ratios) else table[j]
        term = (term * r >> down if down >= 0 else term * r << -down) // zn2
        s += term
        last, size = size, abs(term)
        if size < _TOL:
            return s
        if size >= last:
            raise ArithmeticError("Stirling series did not converge; argument shifted too little")


def gamma_fn(s, ctx: PrecisionContext) -> mpf:
    """Gamma(s) for real s, poles at non-positive integers rejected."""
    with ctx.workdps():
        x = mpf(s)
        if x <= 0 and x == mpmath.floor(x):
            raise DomainError(f"gamma pole at s = {s}")
        if x < mpf(1) / 2:
            # reflection keeps the asymptotic argument positive
            refl = mpmath.pi / mpmath.sin(mpmath.pi * x)
            return ctx.round(refl / gamma_fn(1 - x, ctx))
        dps = ctx.dps + _log_gamma_extra(*_ratio(x))
    with _working(dps):
        x = mpf(s)
        tn, td = _ratio(x)
        shift = _shift(tn, td, -1, dps)
        zn = tn + shift * td
        z = mpf(zn) / td
        series = mpf(_stirling(-1, zn, td) * zn // td) / (1 << _wp())
        lg = (z - mpf(1) / 2) * mpmath.log(z) - z + mpmath.log(2 * mpmath.pi) / 2 + series
        # Gamma(x) = Gamma(z) / (x (x+1) ... (x+shift-1))
        val = mpmath.exp(lg) * td**shift / math.prod(tn + i * td for i in range(shift))
        return ctx.round(val)


def _log_gamma_extra(tn: int, td: int) -> int:
    """Decimal digits gamma_fn adds to its working precision at x = tn/td >= 1/2.

    log Gamma(x) ~ x ln x has about log10(x ln x) digits before the point,
    and exp turns each of them into a relative digit lost from Gamma(x).  The
    guard absorbs _LOG_GAMMA_SPARE of them, which covers x up to about 190.
    """
    if tn < 100 * td:  # x ln x < 10^3: nothing to add, and ln x may be negative
        return 0
    log10_x = math.log10(tn) - math.log10(td)
    return max(0, math.ceil(log10_x + math.log10(log10_x * math.log(10))) - _LOG_GAMMA_SPARE)


def digamma(x, ctx: PrecisionContext) -> mpf:
    """psi(x) for x > 0."""
    return _psi(0, x, ctx)


def polygamma(m: int, x, ctx: PrecisionContext) -> mpf:
    """psi^(m)(x) for x > 0, m >= 0."""
    if m < 0:
        raise ValueError("derivative order must be non-negative")
    return _psi(m, x, ctx)


def _psi(m: int, x, ctx: PrecisionContext) -> mpf:
    # Shared body of digamma and polygamma.  digamma calls it directly, not
    # through polygamma, so perfbench's per-function call counts keep them apart.
    with ctx.workdps():
        t = mpf(x)
        if t <= 0:
            raise DomainError(f"polygamma of order {m} requires x > 0")
        prec, rnd = mpmath.mp.prec, round_nearest
        wp = _wp()
        one = 1 << wp
        tn, td = _ratio(t)
        shift = _shift(tn, td, m, ctx.dps)
        zn = tn + shift * td
        series = _stirling(m, zn, td)
        if m == 0:
            # psi(t) = log z - 1/(2z) + series - sum_{i<shift} 1/(t+i), absolute units
            s = int(mpmath.log(mpf(zn) / td) * one) - (td << wp) // (2 * zn) + series
            s -= sum((td << wp) // (tn + i * td) for i in range(shift))
            # mpf(s) / one
            val = mpf_div(from_int(s, prec, rnd), from_int(one), prec, rnd)
            return ctx.round(mpmath.mp.make_mpf(val))
        # (-1)^(m+1) psi^(m)(t) in units of (m-1)!/t^m: the shifted series
        # 1 + m/(2z) + series scaled by (t/z)^m, which is exactly 1 unshifted,
        # plus m/t (t/(t+i))^(m+1) per step down
        s = one + (m * td << wp) // (2 * zn) + series
        if shift:
            s = s * _fixed_pow((tn << wp) // zn, m, wp) >> wp
        rec = 0
        for i in range(shift):
            term = _fixed_pow((tn << wp) // (tn + i * td), m + 1, wp)
            if term < _TOL:
                break
            rec += term
        s += rec * m * td // tn
        # mpf(s) * (m-1)! / (t**m * one), negated at even m
        num = mpf_mul_int(from_int(s, prec, rnd), math.factorial(m - 1), prec, rnd)
        den = mpf_mul_int(mpf_pow_int(t._mpf_, m, prec, rnd), one, prec, rnd)
        val = mpf_div(num, den, prec, rnd)
        return ctx.round(mpmath.mp.make_mpf(val if m % 2 else mpf_neg(val)))


def _hsmooth(t: mpf, ctx: PrecisionContext) -> mpf:
    # H(t) = gamma + psi(t+1), the smooth extension of the harmonic numbers,
    # unrounded at the caller's working precision
    return mpmath.euler + digamma(t + 1, ctx)


def hsmooth_pow_derivs(t, a, shift, max_order: int, ctx: PrecisionContext) -> list[mpf]:
    """f = H(t) * (t+shift)^a and its odd-order derivatives up to max_order.

    Entry 0 is f(t) and entry j >= 1 is d^(2j-1)f/dt^(2j-1), for every odd
    order up to max_order; each is rounded to ctx.digits.  H(t) = gamma +
    psi(t+1); the power factor has real exponent a and an integer offset
    (shift = 0 for n^a-type sums, 1 for (n+1)^a-type).  Used by the
    Euler-Maclaurin tails and the Ramanujan summation scheme, which read f
    and its odd-order derivatives at the cut point, built exactly by the
    product rule rather than by numeric differentiation.

    The product rule is a Cauchy product of Taylor coefficients at scale
    h = t+1: with u_i = H^(i)(t) h^i/i! and v_q = C(a, q) (h/base)^q,
    base = t+shift, the m-th derivative is base^a m!/h^m sum_i u_i v_(m-i).
    Every term is then O(1), so the sums run in fixed point.  Every order's
    u_i, v_q and scale is built, one polygamma call per order; the sum is
    taken only at the orders returned.
    """
    with ctx.workdps():
        tv = mpf(t)
        av = mpf(a)
        h = tv + 1
        base = tv + shift
        if base <= 0:
            raise DomainError("the power factor needs t + shift > 0")
        prec, rnd = mpmath.mp.prec, round_nearest
        wp = _wp()
        one = 1 << wp
        # u-side: H(t) and psi^(i)(t+1), scaled by h^i/i!, on the libmp calls
        # of hpow = hpow * h / i and int(polygamma(...) * hpow)
        u = [int(_hsmooth(tv, ctx) * one)]
        hpow = from_int(one)
        for i in range(1, max_order + 1):
            hpow = mpf_div(mpf_mul(hpow, h._mpf_, prec, rnd), from_int(i), prec, rnd)
            u.append(to_int(mpf_mul(polygamma(i, h, ctx)._mpf_, hpow, prec, rnd)))
        # v-side: C(a, q) (h/base)^q, h/base = num/den exactly
        hn, hd = _ratio(h)
        bn, bd = _ratio(base)
        num, den = hn * bd, hd * bn
        afix = to_int(mpf_mul_int(av._mpf_, one, prec, rnd))
        v = [one]
        for q in range(1, max_order + 1):
            v.append(v[-1] * (afix - (q - 1 << wp)) * num // (den * q << wp))
        # scale = base^a m!/h^m / one^2, stepped as scale * (m+1) / h through
        # every order, so each order returned gets the same scale as in a full table
        out = []
        scale = mpf_div(mpf_pow(base._mpf_, av._mpf_, prec, rnd), from_int(one * one), prec, rnd)
        for m in range(max_order + 1):
            if m % 2 or not m:
                f = mpf_mul(from_int(sum(map(mul, u[: m + 1], v[m::-1])), prec, rnd), scale, prec, rnd)
                out.append(ctx.round(mpmath.mp.make_mpf(f)))
            scale = mpf_div(mpf_mul_int(scale, m + 1, prec, rnd), h._mpf_, prec, rnd)
        return out
