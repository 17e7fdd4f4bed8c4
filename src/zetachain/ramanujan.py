"""Ramanujan summation of sum H_n n^k via the smooth extension H(t).

Assigns a finite constant to the divergent series by the Euler-Maclaurin
prescription with integration lower limit fixed at 1:

    sum^R f(n) = sum_{n=1}^{N} f(n) - int_1^N f(t) dt - f(N)/2
                 - sum_{j=1}^{J} B_2j/(2j)! f^(2j-1)(N)

with f(t) = (gamma + psi(t+1)) t^k.  The constant depends on the lower
limit; 1 is the convention used throughout and is recorded in the output.
Odd-order derivatives come from polygamma values and the product rule,
never from numeric differentiation.

Each value is checked against its exact closed form
R_k = r_k + g_k gamma + sum_j (-1)^j C(k,j) zeta'(-j), which
``exact.ramanujan_closed_form`` derives; the closed form is evaluated with
``zeta_prime_oracle``, so it shares no code with the integral.  A row whose
spread from it exceeds the tolerance is flagged but still returned.

One request covers k = 0..kmax under one scheme (N, J), which ``_scheme``
takes from the digits.  Every k integrates over [1, N] on the same
Gauss-Legendre panels, cut at the powers of 3 below N, so one table of H(t)
per request serves every k: H(t) is evaluated once per distinct node,
whatever kmax.  The partial sums sum_{n<=N} H_n n^k build H_n once for
every k.  Each k keeps its own integral, levels and convergence test, so no
value depends on kmax.  The table lives for one request only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import mpmath
from mpmath import mpf
from mpmath.libmp import mpf_mul, mpf_pow_int, round_nearest

from .exact import RamanujanClosedForm, bernoulli, ramanujan_closed_form
from .precision import PrecisionContext, const_gamma
from .quadrature import integrate
from .special import _hsmooth, hsmooth_pow_derivs
from .zeta import _em_coefficients, zeta_prime_oracle

MAX_EXPONENT = 8


@dataclass(frozen=True)
class EMScheme:
    N: int
    J: int


def _scheme(digits: int) -> EMScheme:
    # the first omitted EM term caps a value; the self-test on sum n^-2
    # stops at 1.3e-46 with (50, 15), 5.8e-111 with (150, 40), 2.9e-211
    # with (400, 60), used up to 200 digits, and 3.3e-310 with (600, 90)
    if digits <= 100:
        return EMScheme(50, 15) if digits <= 50 else EMScheme(150, 40)
    d = max(digits, 200)
    return EMScheme(2 * d, 3 * d // 10)


def _partial_sums(kmax: int, N: int) -> list[mpf]:
    """sum_{n<=N} H_n n^k for k = 0..kmax, building H_n once for every k."""
    h = mpf(0)
    totals = [mpf(0)] * (kmax + 1)
    for n in range(1, N + 1):
        h += mpf(1) / n
        p = mpf(n)
        for k in range(kmax + 1):
            totals[k] += h * p**k
    return totals


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
    # H(t) t^k by the libmp calls of mpf's * and ** with an int exponent,
    # on raw tuples (quadrature's docstring)
    prec, rnd = mpmath.mp.prec, round_nearest
    values = []
    for k, total in enumerate(sums):

        def f(t):
            h = hsmooth(t)._mpf_
            return mpmath.mp.make_mpf(mpf_mul(h, mpf_pow_int(t._mpf_, k, prec, rnd), prec, rnd))

        quad = integrate(f, 1, N, ctx, tol_offset=off, breaks=breaks)
        total -= quad.require_converged()

        derivs = hsmooth_pow_derivs(N, k, 0, 2 * scheme.J - 1, ctx)
        total -= derivs[0] / 2
        for j in range(1, scheme.J + 1):
            total -= em[j] * derivs[j]
        values.append(ctx.round(total))
    return values


@dataclass(frozen=True)
class RamanujanValue:
    value: mpf
    scheme: EMScheme
    closed_form: RamanujanClosedForm
    spread: mpf
    stable: bool


def _closed_form_value(form: RamanujanClosedForm, zeta_primes: list[mpf], gamma: mpf) -> mpf:
    # r + g gamma + sum_j w_j zeta'(-j), at the caller's working precision
    r, g = form.rational, form.gamma
    total = mpf(r.numerator) / r.denominator + mpf(g.numerator) / g.denominator * gamma
    for w, zp in zip(form.zeta_prime, zeta_primes):
        total += w * zp
    return total


def ramanujan_sum(kmax: int, ctx: PrecisionContext) -> list[RamanujanValue]:
    """Ramanujan-regularized values of sum H_n n^k, k = 0..kmax, with stability flags.

    Every row runs ``_scheme(ctx.digits)`` and reports it.  spread is
    |value - closed form| and stable is spread < 10^(-digits//2).
    Row k depends only on k, not on kmax.  The Ramanujan constant does not
    depend on the chain's sum convention.
    """
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    if kmax > MAX_EXPONENT:
        raise ValueError(f"derivative bookkeeping supports k <= {MAX_EXPONENT}")
    scheme = _scheme(ctx.digits)
    rows = []
    with ctx.workdps():

        @cache
        def hsmooth(t):
            return _hsmooth(t, ctx)

        values = _ramanujan_raw(scheme, ctx, hsmooth, _partial_sums(kmax, scheme.N))
        zeta_primes = [zeta_prime_oracle(-j, ctx) for j in range(kmax + 1)]
        gamma = const_gamma(ctx)
        for k, value in enumerate(values):
            form = ramanujan_closed_form(k)
            spread = ctx.round(abs(value - _closed_form_value(form, zeta_primes, gamma)))
            stable = spread < mpf(10) ** (-ctx.digits // 2)
            rows.append(RamanujanValue(value, scheme, form, spread, stable))
    return rows


def convergent_selftest(ctx: PrecisionContext) -> mpf:
    """|sum^R n^-2 - (zeta(2) - 1)|: ``_scheme(ctx.digits)`` on a convergent series.

    For convergent f the Ramanujan constant equals the ordinary sum minus
    int_1^inf f, here zeta(2) - 1; everything evaluates in closed form.
    """
    scheme = _scheme(ctx.digits)
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
