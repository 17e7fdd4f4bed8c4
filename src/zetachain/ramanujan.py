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

One request covers k = 0..kmax under the scheme (N, J) and its
refinement (2N, J+1).  Under one scheme every k integrates over [1, N]
on the same Gauss-Legendre panels, cut at the powers of 3 below N, and
the two schemes share every panel but the base scheme's last, so one
table of H(t) per request serves both: H(t) is evaluated once per
distinct node, whatever kmax, and the nodes of the shared panels are read
by both schemes.  The partial sums
sum_{n<=N} H_n n^k build H_n once for every k, and the refined sum to 2N
continues from the base sum at N by the same mpf operations in the same
order, so it equals a sum started from n = 1 bit for bit.  Each k keeps
its own integral, levels and convergence test, so no value depends on
kmax.  The table lives for one request only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import mpmath
from mpmath import mpf

from .exact import bernoulli
from .precision import PrecisionContext
from .quadrature import integrate
from .special import _hsmooth, hsmooth_pow_derivs
from .zeta import _em_coefficients

MAX_EXPONENT = 8


@dataclass(frozen=True)
class EMScheme:
    N: int = 50
    J: int = 15

    def __post_init__(self) -> None:
        if self.N < 2 or self.J < 1:
            raise ValueError("scheme requires N >= 2 and J >= 1")

    def refined(self) -> "EMScheme":
        return EMScheme(2 * self.N, self.J + 1)


def _partial_sums(kmax: int, cuts: tuple) -> list[list[mpf]]:
    """sum_{n<=N} H_n n^k for k = 0..kmax at each N of the ascending cuts.

    One pass over n builds H_n once for every k, and a later cut continues
    from the state at the earlier one by the same mpf operations in the
    same order, so every sum equals one started from n = 1 bit for bit.
    """
    h = mpf(0)
    totals = [mpf(0)] * (kmax + 1)
    sums = []
    for n in range(1, cuts[-1] + 1):
        h += mpf(1) / n
        p = mpf(n)
        for k in range(kmax + 1):
            totals[k] += h * p**k
        if n in cuts:
            sums.append(list(totals))
    return sums


def _ramanujan_raw(scheme: EMScheme, ctx: PrecisionContext, hsmooth, sums: list[mpf]) -> list[mpf]:
    """sum^R H_n n^k for k = 0..kmax under one scheme.

    hsmooth is the request's H(t) table and sums[k] = sum_{n<=N} H_n n^k.
    Runs at the caller's working precision.
    """
    N = scheme.N
    off = (ctx.digits + 1) // 2 - 5
    # Gauss-Legendre panels [1, 3], [3, 9], ... up to N, each at least
    # half its length from H's first pole, at t = -1
    breaks = tuple(3**i for i in range(1, N.bit_length()) if 3**i < N)
    em = _em_coefficients()
    values = []
    for k, total in enumerate(sums):

        def f(t):
            return hsmooth(t) * t**k

        quad = integrate(f, 1, N, ctx, tol_offset=off, breaks=breaks)
        total -= quad.require_converged()

        derivs = hsmooth_pow_derivs(N, k, 0, 2 * scheme.J - 1, ctx)
        total -= derivs[0] / 2
        for j in range(1, scheme.J + 1):
            total -= em[j] * derivs[2 * j - 1]
        values.append(ctx.round(total))
    return values


@dataclass(frozen=True)
class RamanujanValue:
    value: mpf
    scheme: EMScheme
    refined_value: mpf
    spread: mpf
    stable: bool


def ramanujan_sum(kmax: int, scheme: EMScheme, ctx: PrecisionContext) -> list[RamanujanValue]:
    """Ramanujan-regularized values of sum H_n n^k, k = 0..kmax, with stability flags.

    Row k depends only on k, not on kmax.  The Ramanujan constant does not
    depend on the chain's sum convention.
    """
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    if kmax > MAX_EXPONENT:
        raise ValueError(f"derivative bookkeeping supports k <= {MAX_EXPONENT}")
    fine = scheme.refined()
    rows = []
    with ctx.workdps():

        @cache
        def hsmooth(t):
            return _hsmooth(t, ctx)

        base_sums, fine_sums = _partial_sums(kmax, (scheme.N, fine.N))
        values = _ramanujan_raw(scheme, ctx, hsmooth, base_sums)
        refined = _ramanujan_raw(fine, ctx, hsmooth, fine_sums)
        for value, ref in zip(values, refined):
            spread = ctx.round(abs(value - ref))
            stable = spread < mpf(10) ** (-ctx.digits // 2)
            rows.append(RamanujanValue(value, scheme, ref, spread, stable))
    return rows


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
