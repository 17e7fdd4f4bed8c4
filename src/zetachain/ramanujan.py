"""Ramanujan summation of sum H_n n^k via the smooth extension H(t).

Assigns a finite constant to the divergent series by the Euler-Maclaurin
prescription with integration lower limit fixed at 1:

    sum^R f(n) = sum_{n=1}^{N} f(n) - int_1^N f(t) dt - f(N)/2
                 - sum_{j=1}^{J} B_2j/(2j)! f^(2j-1)(N)

with f(t) = (gamma + psi(t+1)) t^k.  The constant depends on the lower
limit; 1 is the convention used throughout and is recorded in the output.
Odd-order derivatives come from polygamma values and the product rule,
never from numeric differentiation.  Stability is checked by recomputing
at (2N, J+1); a result whose spread exceeds the tolerance is flagged but
still returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mpf

from .exact import bernoulli
from .precision import PrecisionContext
from .quadrature import integrate
from .special import digamma, hsmooth_pow_derivs
from .values import RegularizedSum, SumConvention

MAX_EXPONENT = 8


@dataclass(frozen=True)
class EMScheme:
    N: int = 50
    J: int = 15
    integral_lower_limit: int = 1  # fixed by convention; the constant depends on it

    def __post_init__(self) -> None:
        if self.N < 2 or self.J < 1:
            raise ValueError("scheme requires N >= 2 and J >= 1")
        if self.integral_lower_limit != 1:
            raise ValueError("only the lower-limit-1 convention is supported")

    def refined(self) -> "EMScheme":
        return EMScheme(2 * self.N, self.J + 1)


def _ramanujan_raw(k: int, scheme: EMScheme, ctx: PrecisionContext) -> mpf:
    with ctx.workdps():
        N = scheme.N
        total = mpf(0)
        h = mpf(0)
        for n in range(1, N + 1):
            h += mpf(1) / n
            total += h * mpf(n) ** k

        def f(t):
            return (mpmath.euler + digamma(t + 1, ctx)) * t**k

        off = (ctx.digits + 1) // 2 - 5
        quad = integrate(f, 1, N, ctx, tol_offset=off)
        total -= quad.require_converged()

        derivs = hsmooth_pow_derivs(N, k, 0, 2 * scheme.J - 1, ctx)
        total -= derivs[0] / 2
        for j in range(1, scheme.J + 1):
            b = bernoulli(2 * j)
            total -= (
                mpf(b.numerator) / b.denominator / mpf(math.factorial(2 * j)) * derivs[2 * j - 1]
            )
        return ctx.round(total)


@dataclass(frozen=True)
class RamanujanValue:
    sum: RegularizedSum
    scheme: EMScheme
    refined_value: mpf
    spread: mpf
    stable: bool


def ramanujan_sum(
    k: int,
    scheme: EMScheme,
    ctx: PrecisionContext,
    convention: SumConvention = SumConvention.A,
) -> RamanujanValue:
    """Ramanujan-regularized value of sum H_n n^k with a stability flag.

    The convention tag is carried only so the value can sit in reports next
    to chain values; the Ramanujan constant itself does not depend on it.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > MAX_EXPONENT:
        raise ValueError(f"derivative bookkeeping supports k <= {MAX_EXPONENT}")
    value = _ramanujan_raw(k, scheme, ctx)
    refined = _ramanujan_raw(k, scheme.refined(), ctx)
    with ctx.workdps():
        spread = ctx.round(abs(value - refined))
        stable = spread < mpf(10) ** (-ctx.digits // 2)
    reg = RegularizedSum(k, value, convention, "ramanujan")
    return RamanujanValue(reg, scheme, refined, spread, stable)


def convergent_selftest(scheme: EMScheme, ctx: PrecisionContext) -> mpf:
    """|sum^R n^-2 - (zeta(2) - 1)|: the scheme applied to a convergent series.

    For convergent f the Ramanujan constant equals the ordinary sum minus
    int_1^inf f, here zeta(2) - 1; everything evaluates in closed form.
    """
    with ctx.workdps():
        N = scheme.N
        total = mpf(0)
        for n in range(1, N + 1):
            total += mpf(1) / mpf(n) ** 2
        total -= 1 - mpf(1) / N  # int_1^N t^-2 dt
        total -= mpf(1) / (2 * N * N)
        # f^(2j-1)(N) = -(2j)! N^(-2j-1) for f = t^-2
        for j in range(1, scheme.J + 1):
            b = bernoulli(2 * j)
            total += mpf(b.numerator) / b.denominator * mpf(N) ** (-2 * j - 1)
        target = mpmath.pi**2 / 6 - 1
        return ctx.round(abs(total - target))
