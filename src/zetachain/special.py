"""Gamma, digamma and polygamma at arbitrary precision, and H(t) = gamma + psi(t+1).

All three rest on one kernel, ``_stirling(m, z, dps)``, which sums the
Stirling series for d^(m+1)/dz^(m+1) log Gamma(z), m >= -1:

    log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2 + sum_j B_2j/(2j(2j-1)) z^(1-2j)

and its derivatives, whose j-th term is (-1)^(m+1) B_2j (2j+m-1)!/(2j)! z^(-2j-m).
Callers shift the argument upward by ``_shift`` until the series converges
below the context tolerance, call the kernel, and recur back down.  The
kernel raises ArithmeticError rather than return a truncated series.  The
coefficients are exact Bernoulli rationals from the exact layer, rounded
once per working precision: the kernel reads them from a table keyed by
(mpmath prec, m) that grows one term at a time, and the tables of the 16
most recently used precisions are kept (``precision._COEFF_SLOTS``).  These
routines are independent of mpmath's own special-function code (mpmath is
used for elementary operations only); the test suite exploits that
independence for cross-checks.

H(t) = gamma + psi(t+1), the smooth extension of the harmonic numbers, is
written once, in ``_hsmooth``; ``hsmooth_pow_derivs`` builds the
derivatives of H(t) (t+shift)^a that the Euler-sum tails and the Ramanujan
scheme need from it and from psi^(m).

Accuracy: the series stops on an absolute 10^-(dps+2).  Gamma = exp(log
Gamma) turns that into a relative error, but for psi and psi^(m) the
guarantee is absolute: small values (psi near its zero at x ~ 1.46, psi^(m)
of high order at large x) keep fewer relative digits.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mpf

from .exact import bernoulli
from .precision import PrecisionContext, _coefficients


class DomainError(ValueError):
    """Argument outside the domain of a special function (e.g. a pole)."""


def _shift(x: mpf, m: int, dps: int) -> int:
    # The series tail behaves like (2j+m)! / ((2pi x)^(2j) x^m); x ~ 0.4*dps
    # plus the derivative order keeps the optimal term below 10^-dps with margin.
    return max(0, int(math.ceil(int(0.4 * dps) + max(m, 0) + 5 - x)))


def _stirling_coefficient(m: int, j: int) -> mpf:
    # (-1)^(m+1) B_2j (2j+m-1)!/(2j)! = B_2j perm(2j+m-1, m-1) for m >= 1, B_2j / perm(2j, 1-m) for m <= 1
    b2j = bernoulli(2 * j)
    num = (-1) ** (m + 1) * b2j.numerator * math.perm(2 * j + m - 1, max(m - 1, 0))
    return mpf(num) / (b2j.denominator * math.perm(2 * j, max(1 - m, 0)))


def _stirling(m: int, z: mpf, dps: int) -> mpf:
    """d^(m+1)/dz^(m+1) log Gamma(z), m >= -1, for z shifted by ``_shift``."""
    if m == -1:
        s = (z - mpf(1) / 2) * mpmath.log(z) - z + mpmath.log(2 * mpmath.pi) / 2
    elif m == 0:
        s = mpmath.log(z) - 1 / (2 * z)
    else:
        # (-1)^(m+1) [ (m-1)!/z^m + m!/(2 z^(m+1)) ]
        zm = z**m
        s = mpf(math.factorial(m - 1)) / zm + mpf(math.factorial(m)) / (2 * zm * z)
        if m % 2 == 0:
            s = -s
    tol = mpf(10) ** (-dps - 2)
    z2 = z * z
    zpow = z ** (m + 2)
    coeff = _coefficients(_stirling_coefficient, m)
    for j in range(1, 4 * dps):
        term = coeff[j] / zpow
        s += term
        if abs(term) < tol:
            return s
        zpow *= z2
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
        shift = _shift(x, -1, ctx.dps)
        val = mpmath.exp(_stirling(-1, x + shift, ctx.dps))
        for i in range(shift):
            val /= x + i
        return ctx.round(val)


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
        shift = _shift(t, m, ctx.dps)
        s = _stirling(m, t + shift, ctx.dps)
        # downward recurrence: psi^(m)(t) = psi^(m)(t+1) + (-1)^(m+1) m!/t^(m+1)
        rec = mpf((-1) ** (m + 1) * math.factorial(m))
        for i in range(shift):
            # psi is the hot path; (t+i)**1 would cost it a pow call per step
            s += rec / (t + i) ** (m + 1) if m else rec / (t + i)
        return ctx.round(s)


def _hsmooth(t: mpf, ctx: PrecisionContext) -> mpf:
    # H(t) = gamma + psi(t+1), the smooth extension of the harmonic numbers,
    # unrounded at the caller's working precision
    return mpmath.euler + digamma(t + 1, ctx)


def hsmooth_pow_derivs(t, a, shift, max_order: int, ctx: PrecisionContext) -> list[mpf]:
    """Derivatives d^m/dt^m [ H(t) * (t+shift)^a ] for m = 0..max_order.

    H(t) = gamma + psi(t+1); the power factor has real exponent a and an
    integer offset (shift = 0 for n^a-type sums, 1 for (n+1)^a-type).
    Used by the Euler-Maclaurin tails and the Ramanujan summation scheme,
    where the odd-order derivatives at the cut point are needed exactly
    via the product rule rather than by numeric differentiation.
    """
    with ctx.workdps():
        tv = mpf(t)
        av = mpf(a)
        base = tv + shift
        # u-side: H(t) and psi^(i)(t+1); v-side: falling-factorial powers
        u = [_hsmooth(tv, ctx)]
        for i in range(1, max_order + 1):
            u.append(polygamma(i, tv + 1, ctx))
        v = []
        coeff = mpf(1)
        for q in range(max_order + 1):
            v.append(coeff * base ** (av - q))
            coeff *= av - q
        out = []
        for m in range(max_order + 1):
            s = mpf(0)
            for i in range(m + 1):
                s += mpf(math.comb(m, i)) * u[i] * v[m - i]
            out.append(ctx.round(s))
        return out
