"""The integrands and level sums on raw libmp tuples equal the mpf-operator expressions they stand for, bit for bit.

Each integrand is taken from the integrate call of its caller and
evaluated at chosen nodes, beside the expression written with mpmath's
operators at the same working precision; the level sums run over real
walks beside the same sums written with operators.  The two must give
the same _mpf_ tuples, not merely close values.
"""

from functools import cache

import mpmath
import pytest
from mpmath import mpf

from zetachain import eulersums, hankel, quadrature, ramanujan
from zetachain.hankel import ContourSpec
from zetachain.precision import PrecisionContext
from zetachain.quadrature import QuadratureResult
from zetachain.ramanujan import EMScheme
from zetachain.special import _hsmooth

DIGITS = (15, 50, 100, 200)


def _probe(monkeypatch, module, call, value, check) -> int:
    """Run call() with check(f, kernel) in place of each integrate call in module.

    check runs where the integral would, at the caller's working precision;
    the integral is not evaluated and returns value.  The number of calls.
    """
    calls = []

    def probe(f, a, b, ctx, kernel=None, **kwargs):
        calls.append(kernel)
        check(f, kernel)
        return QuadratureResult(value, mpf(0), True, 3)

    monkeypatch.setattr(module, "integrate", probe)
    call()
    return len(calls)


def _same(got, ref) -> None:
    assert isinstance(got, tuple) == isinstance(ref, tuple)
    got, ref = (got, ref) if isinstance(ref, tuple) else ((got,), (ref,))
    assert [v._mpf_ for v in got] == [v._mpf_ for v in ref]


def _rays(kernels, expo, with_log):
    sin_e, cos_e = mpmath.sinpi(expo), mpmath.cospi(expo)
    pi_cos_e = mpmath.pi * cos_e
    logt, inv_em1 = map(mpmath.mp.make_mpf, kernels)
    v = mpmath.exp(expo * logt) * inv_em1
    if with_log:
        return -sin_e * v, v * (sin_e * logt + pi_cos_e)
    return (-sin_e * v,)


def _circle(theta, kernel, expo, r, with_log):
    # val = i z^(e+1) K, z^(e+1) = r^(e+1) (ca + i sa), K = kr + i ki
    log_r, twice_r_e1 = mpmath.log(r), 2 * r ** (expo + 1)
    ca, sa = mpmath.cos_sin((expo + 1) * theta)
    kr, ki = map(mpmath.mp.make_mpf, kernel)
    im = ca * kr - sa * ki
    if with_log:
        re = sa * kr + ca * ki
        return twice_r_e1 * im, -twice_r_e1 * (log_r * im - theta * re)
    return (twice_r_e1 * im,)


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("radius", [0.05, 1.0, 6.0])
def test_contour_integrands_match_operators(monkeypatch, digits, radius):
    ctx = PrecisionContext(digits)
    r = mpf(radius)
    for u in ("-0.75", "1.5", "3", "14.5"):
        for with_log in (False, True):

            def check(f, kernel):
                build, *args = kernel
                expo = -(mpf(u) + 1)
                if build is hankel._ray_kernels:
                    # t from the radius up, below and above t = 1, where
                    # e^t - 1 changes from expm1 to exp(t) - 1
                    for t in (r, mpf("0.3"), mpf("0.999"), mpf(1), mpf("2.5"), mpf(40)):
                        if t >= r:
                            k = build(*args, t)
                            _same(f(t, k), _rays(k, expo, with_log))
                else:
                    assert build is hankel._circle_kernel
                    for theta in (mpf("1e-3"), mpf("0.5"), mpmath.pi / 2, mpf("3.1")):
                        k = build(*args, theta)
                        _same(f(theta, k), _circle(theta, k, expo, r, with_log))

            calls = _probe(
                monkeypatch,
                hankel,
                lambda: hankel._contour_integral(u, with_log, ContourSpec(radius), ctx),
                (mpf(0), mpf(0)),
                check,
            )
            # the rays at every non-integer index and with the log factor, then the circle
            assert calls == (1 if u == "3" and not with_log else 2)


@pytest.mark.parametrize("digits", DIGITS)
def test_mellin_integrands_match_operators(monkeypatch, digits):
    ctx = PrecisionContext(digits)
    for s in ("1.01", "2", "3.7", "12.25"):

        def check(f, kernel):
            build, *args = kernel
            sv = mpf(s)
            for x in (mpf("1e-6"), mpf("0.3"), mpf("0.999"), mpf(1), mpf(5), mpf(80)):
                k = build(*args, x)
                ex_over, inv_om, log_om = map(mpmath.mp.make_mpf, k)
                i3 = x ** (sv - 1) * log_om
                _same(f(x, k), (i3 * inv_om, i3 * ex_over, i3))

        calls = _probe(
            monkeypatch, eulersums, lambda: eulersums.mellin_fundamental_check(s, ctx), (mpf(0),) * 3, check
        )
        assert calls == 1


def _near_one(product, prec) -> bool:
    # |product - 1| <= 2^(-prec+2), called at four times prec, where the
    # product and the difference round far below that bound
    return abs(product - 1) <= mpf(2) ** (-prec + 2)


@pytest.mark.parametrize("digits", DIGITS)
def test_node_kernels_invert_what_they_stand_for(digits):
    # each stored reciprocal times the value it inverts, built as the
    # kernel builds it, is 1 to within two units of the last place
    ctx = PrecisionContext(digits)
    with ctx.workdps():
        prec = mpmath.mp.prec
        T = hankel._ray_cutoff(ctx)
        # expm1 below t = 1, from t = r = 0.05, and exp(t) - 1 up to T
        for t in (mpf("0.05"), mpf("0.999"), mpf(1), T):
            _, inv_em1 = hankel._ray_kernels(t)
            em1 = mpmath.exp(t) - 1 if t >= 1 else mpmath.expm1(t)
            with mpmath.workprec(4 * prec):
                assert _near_one(mpmath.mp.make_mpf(inv_em1) * em1, prec), t
        # theta near 0 and near pi, at the smallest and the largest radius
        for radius in (mpf("0.05"), mpf(6)):
            for theta in (mpf("1e-6"), mpf("1e-3"), mpmath.pi - mpf("1e-3"), mpmath.pi - mpf("1e-6")):
                c, s = mpmath.cos_sin(theta)
                cb, sb = mpmath.cos_sin(radius * s)
                m = mpmath.exp(-radius * c)
                kernel = mpmath.mp.make_mpc(hankel._circle_kernel(radius, theta))
                e_z1 = mpmath.mpc(m * cb - 1, -m * sb)
                with mpmath.workprec(4 * prec):
                    assert _near_one(kernel * e_z1, prec), (radius, theta)
        # the Mellin quotients, on both sides of x = 1 and where e^-x is tiny
        for x in (mpf("1e-6"), mpf("0.999"), mpf(1), mpf(80)):
            ex_over, inv_om, _ = map(mpmath.mp.make_mpf, eulersums._mellin_kernels(x))
            ex = mpmath.exp(-x)
            one_minus = -mpmath.expm1(-x) if x < 1 else 1 - ex
            with mpmath.workprec(4 * prec):
                assert _near_one(inv_om * one_minus, prec), x
                assert _near_one(ex_over * one_minus / ex, prec), x


@pytest.mark.parametrize("digits", DIGITS)
def test_ramanujan_integrand_matches_operators(monkeypatch, digits):
    ctx = PrecisionContext(digits)
    kmax = ramanujan.MAX_EXPONENT
    with ctx.workdps():

        @cache
        def hsmooth(t):
            return _hsmooth(t, ctx)

        def check(f, kernel):
            # the integrals run in order of k
            k = len(seen)
            seen.append(kernel)
            for t in (mpf(1), mpf("1.7"), mpf(3), mpf("26.5"), mpf("49.9")):
                _same(f(t), hsmooth(t) * t**k)

        seen = []
        sums = [mpf(0)] * (kmax + 1)
        _probe(
            monkeypatch,
            ramanujan,
            lambda: ramanujan._ramanujan_raw(EMScheme(4, 1), ctx, hsmooth, sums),
            mpf(0),
            check,
        )
        assert seen == [None] * (kmax + 1)


def _operator_level(f, walks, decays, eps, total):
    # the level sum with mpf operators
    for nodes in walks:
        small = 0
        for x, w in nodes:
            fx = f(x)
            terms = [w * v for v in fx] if isinstance(fx, tuple) else [w * fx]
            total = terms if total is None else [s + c for s, c in zip(total, terms)]
            if decays:
                small = small + 1 if all(abs(c) < eps for c in terms) else 0
                if small >= 3:
                    break
    return total


@pytest.mark.parametrize("digits", DIGITS)
def test_level_sums_match_operators(digits):
    ctx = PrecisionContext(digits)
    with ctx.workdps():
        eps = mpf(10) ** (-ctx.dps - 5)
        rules = {
            # exp-exp on [0, inf), where the walks stop on decay and a level
            # adds to the sums of the one before
            "exp_exp": (
                lambda level: quadrature._exp_exp_walks(mpf(0), None, level),
                True,
                (lambda x: mpmath.exp(-x) / (1 + x), lambda x: (mpmath.exp(-x), x * mpmath.exp(-x))),
            ),
            "gauss_legendre": (
                lambda level: quadrature._gauss_legendre_walks((mpf(0), mpf(1), mpf(2)), None, level),
                False,
                (lambda x: mpmath.cos(x) / (1 + x * x), lambda x: (mpmath.exp(x), 1 / (1 + x * x))),
            ),
        }
        for walks, decays, integrands in rules.values():
            for f in integrands:
                raw = ref = None
                for level in (3, 4):
                    raw, is_tuple = quadrature._add_level(f, walks(level), False, decays, eps._mpf_, raw)
                    ref = _operator_level(f, walks(level), decays, eps, ref)
                    assert raw == [v._mpf_ for v in ref]
                    assert is_tuple == isinstance(f(mpf(1)), tuple)
