"""Hankel-contour evaluation of the Bernoulli interpolation and its derivative.

The interpolation sends real s to B_s with B_s = -s zeta(1-s); at positive
integers it reproduces the Bernoulli numbers (B_1 = +1/2).  The contour is
the standard Hankel path: in along the lower edge of the negative real
axis, counterclockwise around a circle of radius < 2pi, out along the
upper edge.  Branch of z^a and log z: cut on the negative real axis,
arg z = -pi below, +pi above.

Sign calibration: with this orientation the raw contour integral
I(u) = (1/2pi i) oint z^-(u+1) e^z/(1-e^z) dz satisfies B_(u+1) =
-Gamma(u+2) I(u); the sign is anchored empirically on B_1 = +1/2 and
checked at the even integers (see tests), since the two printed forms of
the integrand differ by elementary rewriting that does not pin the
orientation.

The two rays differ only by the branch phase e^(-+i pi e), e = -(u+1), so
their difference is one real integral over [r, T]: with
g(t) = e^-t/(1-e^-t),

    lower - upper = -2i sin(pi e) int t^e g dt,

and with the -log z factor

    lower - upper = 2i int t^e g [sin(pi e) log t + pi cos(pi e)] dt.

The circle folds onto its upper half.  At real u, z(-theta) is the
conjugate of z(theta), so the circle integrand val, with dz = i z dtheta,
has val(-theta) = -conj(val(theta)), and so has -log z val.  Hence

    oint = int_-pi^pi val dtheta = 2i int_0^pi Im val dtheta,

and the circle is integrated over [0, pi] only, with no value computed
twice as its own conjugate.  Its integrand is 2 Im val, the pair
(val(theta) + val(-theta))/i, so each level's estimate and its difference
from the level before have the size they had on the full circle, and the
levels stop where they did there.  The ray integrand returns both real
integrands as one tuple, and the circle its two, so I and I' come from one
pass over the contour.

Each node is written to need few transcendental kernels.  On the circle
z = r e^(i theta), and e^z/(1 - e^z) = 1/(e^-z - 1) gives

    val = i z^(e+1)/(e^-z - 1),
    z^(e+1) = r^(e+1) (cos((e+1) theta) + i sin((e+1) theta)),
    e^-z = e^(-r cos theta) (cos(r sin theta) - i sin(r sin theta)),

with log r and r^(e+1) computed once per contour, and
Im(-log z val) is -(log r Im val + theta Re val).  On the rays,
e^t - 1 is exp(t) - 1 at t >= 1, where it exceeds 1.7 and the
subtraction loses under one bit, and expm1(t) below 1, where it would
cancel: at a radius of 1e-10 the subtraction would lose about 33 bits,
more than the working precision's 10-digit guard.

Most of that work depends on neither u nor the log factor: log t and
e^t - 1 on the rays, and e^-z - 1 on the circle.  These are the node
kernels that ``quadrature.integrate`` keeps beside its Gauss-Legendre
nodes (``kernel=``): the rays' per (panel edges, level), the edges
following from the radius and the ray cutoff, and the circle's per
(radius, level), while the circle's [0, pi] nodes themselves are shared
by every radius.  A node whose
kernels are stored costs one exp, t^e = exp(e log t), on a ray, and one
cos_sin, that of (e+1) theta, and one complex division on the circle.  A
node not yet stored adds a log and an exp (or an expm1 below t = 1) on a
ray, and an exp and two cos_sin pairs on the circle.

Which quadrature rule integrates which piece:

- At integer u with no log factor, z^e is single-valued: sin(pi e) = 0,
  and the rays cancel and are not integrated.
- The circle integrand is analytic in theta on [-pi, pi]
  (z^e = e^(e (log r + i theta))), with its nearest poles, from
  z = +-2pi i, at theta = +-pi/2 + i log(2pi/r).  The half circle runs on
  Gauss-Legendre as one panel [0, pi], centred under the pole at
  theta = pi/2 + i log(2pi/r).  At integer u without the log factor the
  integrand is also periodic, but it takes the same rule as every other
  circle, so every circle shares its nodes, and every circle of one
  radius its kernels.
- The ray integrand t^e/(e^t - 1) is analytic on [r, T], with a branch
  point at t = 0 and poles at t = +-2pi i k.  It runs on Gauss-Legendre
  too, over panels split geometrically from r to T at a ratio as near 3 as
  a whole number of panels allows, so that every panel is as far from the
  branch point, relative to its length, as the first.  The panels depend
  on r and T alone, so every index at one radius and precision reads the
  same ray nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mpf

from .precision import PrecisionContext
from .quadrature import integrate
from .special import digamma, gamma_fn
from .zeta import zeta_em, zeta_prime_oracle


@dataclass(frozen=True)
class ContourSpec:
    radius: float = 1.0
    truncation: float | None = None  # rays cut at Re z = -T; default from precision

    def validate(self) -> None:
        if not 0 < self.radius < 2 * math.pi:
            raise ValueError("contour radius must lie strictly inside (0, 2pi)")
        if self.truncation is not None and self.truncation <= self.radius:
            raise ValueError("ray truncation must exceed the circle radius")

    def cutoff(self, ctx: PrecisionContext) -> mpf:
        # e^-T below half-precision target, with margin
        if self.truncation is not None:
            return mpf(self.truncation)
        return mpf(ctx.digits) * mpmath.log(10) / 2 + 25


def _ray_kernels(t) -> tuple:
    """The _mpf_ of log t and of e^t - 1, with expm1 only below t = 1, where e^t - 1 cancels."""
    em1 = mpmath.exp(t) - 1 if t >= 1 else mpmath.expm1(t)
    return mpmath.log(t)._mpf_, em1._mpf_


def _circle_kernel(r, theta) -> tuple:
    """The _mpc_ of e^-z - 1 at z = r e^(i theta).

    e^-z = e^(-r cos theta) (cos(r sin theta) - i sin(r sin theta)).
    """
    c, s = mpmath.cos_sin(theta)
    cb, sb = mpmath.cos_sin(r * s)
    m = mpmath.exp(-r * c)
    return mpmath.mpc(m * cb - 1, -m * sb)._mpc_


def _contour_integral(u, with_log: bool, spec: ContourSpec, ctx: PrecisionContext) -> tuple:
    """(I,) or, with the log factor, (I, I'), where
    I = (1/2pi i) oint z^-(u+1) e^z/(1-e^z) dz and I' carries an extra -log z.
    """
    spec.validate()
    with ctx.workdps():
        uv = mpf(u)
        r = mpf(spec.radius)
        T = spec.cutoff(ctx)
        expo = -(uv + 1)
        sin_e, cos_e = mpmath.sinpi(expo), mpmath.cospi(expo)
        pi_cos_e = mpmath.pi * cos_e
        log_r = mpmath.log(r)
        r_e1 = r ** (expo + 1)
        off = (ctx.digits + 1) // 2 - 3  # target ~10^(-digits/2)

        def rays(t, kernels):
            # Im of the lower ray's integrand, which is (lower - upper)/2i
            logt, em1 = map(mpmath.mp.make_mpf, kernels)
            v = mpmath.exp(expo * logt) / em1
            if with_log:
                return -sin_e * v, v * (sin_e * logt + pi_cos_e)
            return (-sin_e * v,)

        def circle(theta, kernel):
            # (val(theta) + val(-theta))/i = 2 Im val(theta), the full circle's
            # two points +-theta in one, with val = i z^(e+1)/(e^-z - 1)
            ca, sa = mpmath.cos_sin((expo + 1) * theta)
            val = mpmath.mpc(-r_e1 * sa, r_e1 * ca) / mpmath.mp.make_mpc(kernel)
            if with_log:
                # Im(-log z val), log z = log r + i theta
                return 2 * val.imag, -2 * (log_r * val.imag + theta * val.real)
            return (2 * val.imag,)

        if sin_e == 0 and not with_log:
            # integer index, no log factor: no rays (sinpi is exact at integers)
            ray = (mpf(0),)
        else:
            # m panels [r q^(i-1), r q^i] up to T, q as near 3 as m allows
            m = max(1, round(mpmath.log(T / r) / math.log(3)))
            q = (T / r) ** (mpf(1) / m)
            breaks = tuple(r * q**i for i in range(1, m))
            ray = integrate(
                rays, r, T, ctx, tol_offset=off, breaks=breaks, kernel=(_ray_kernels,)
            ).require_converged()
        # one Gauss-Legendre panel, centred under the pole nearest the half circle
        circ = integrate(
            circle, 0, mpmath.pi, ctx, tol_offset=off, kernel=(_circle_kernel, r)
        ).require_converged()
        # rays 2i ray plus circle i circ, over 2pi i
        return tuple((2 * j + c) / (2 * mpmath.pi) for j, c in zip(ray, circ))


def bernoulli_interp(s, spec: ContourSpec, ctx: PrecisionContext) -> mpf:
    """B_(s+1) from the Hankel contour; s > -1."""
    with ctx.workdps():
        sv = mpf(s)
        (raw,) = _contour_integral(sv, False, spec, ctx)
        return ctx.round(-gamma_fn(sv + 2, ctx) * raw)


def bernoulli_prime_interp(s, spec: ContourSpec, ctx: PrecisionContext) -> mpf:
    """d/ds B_s at real s, differentiating under the contour integral.

    B_s = -Gamma(s+1) I(s-1) gives
    B'_s = -Gamma(s+1) [ psi(s+1) I(s-1) + I'(s-1) ],
    with I' the same contour carrying an extra -log z factor.
    """
    with ctx.workdps():
        sv = mpf(s)
        i0, i1 = _contour_integral(sv - 1, True, spec, ctx)
        g = gamma_fn(sv + 1, ctx)
        return ctx.round(-g * (digamma(sv + 1, ctx) * i0 + i1))


def lemma3_residual(s, spec: ContourSpec, ctx: PrecisionContext) -> mpf:
    """|B_s + s zeta(1-s)| with B_s from the contour, zeta from the oracle."""
    with ctx.workdps():
        sv = mpf(s)
        if sv <= 0:
            raise ValueError("requires s > 0")
        b = bernoulli_interp(sv - 1, spec, ctx)
        return ctx.round(abs(b + sv * zeta_em(1 - sv, ctx)))


def lemma3_prime_residual(s, spec: ContourSpec, ctx: PrecisionContext) -> mpf:
    """|B'_s - (-zeta(1-s) + s zeta'(1-s))|, contour vs oracle."""
    with ctx.workdps():
        sv = mpf(s)
        bp = bernoulli_prime_interp(sv, spec, ctx)
        target = -zeta_em(1 - sv, ctx) + sv * zeta_prime_oracle(1 - sv, ctx)
        return ctx.round(abs(bp - target))
