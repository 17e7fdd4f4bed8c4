"""The Gamma-family scaling, the derivative table and ctx.round on raw libmp tuples equal the mpf-operator expressions they stand for, bit for bit.

psi^(m) is held to its fixed-point body followed by the scaling written
with mpmath's operators, with the (t/z)^m factor taken at every shift and
the result rounded in a precision block.  Each entry of the derivative
table is held to the same order of the full table written with operators.
The two must give the same _mpf_ tuples, not merely close values.
"""

import math
from operator import mul

import mpmath
import pytest
from mpmath import mpf

from zetachain.precision import PrecisionContext, _working
from zetachain.special import (
    _TOL,
    _fixed_pow,
    _hsmooth,
    _ratio,
    _shift,
    _stirling,
    _wp,
    digamma,
    hsmooth_pow_derivs,
    polygamma,
)

DIGITS = (15, 50, 100, 200)


def _operator_round(x, ctx):
    with _working(ctx.digits):
        return +x


def _operator_psi(m, x, ctx):
    # psi^(m)(x) as written before its scaling went to libmp calls
    with ctx.workdps():
        t = mpf(x)
        wp = _wp()
        one = 1 << wp
        tn, td = _ratio(t)
        shift = _shift(tn, td, m, ctx.dps)
        zn = tn + shift * td
        series = _stirling(m, zn, td)
        if m == 0:
            s = int(mpmath.log(mpf(zn) / td) * one) - (td << wp) // (2 * zn) + series
            s -= sum((td << wp) // (tn + i * td) for i in range(shift))
            return _operator_round(mpf(s) / one, ctx)
        s = (one + (m * td << wp) // (2 * zn) + series) * _fixed_pow((tn << wp) // zn, m, wp) >> wp
        rec = 0
        for i in range(shift):
            term = _fixed_pow((tn << wp) // (tn + i * td), m + 1, wp)
            if term < _TOL:
                break
            rec += term
        s += rec * m * td // tn
        val = mpf(s) * math.factorial(m - 1) / (t**m * one)
        return _operator_round(val if m % 2 else -val, ctx)


def _operator_table(t, a, shift, max_order, ctx):
    # every order 0..max_order of the derivative table, written with operators
    with ctx.workdps():
        tv, av = mpf(t), mpf(a)
        h, base = tv + 1, tv + shift
        wp = _wp()
        one = 1 << wp
        u = [int(_hsmooth(tv, ctx) * one)]
        hpow = mpf(one)
        for i in range(1, max_order + 1):
            hpow = hpow * h / i
            u.append(int(polygamma(i, h, ctx) * hpow))
        hn, hd = _ratio(h)
        bn, bd = _ratio(base)
        num, den = hn * bd, hd * bn
        afix = int(av * one)
        v = [one]
        for q in range(1, max_order + 1):
            v.append(v[-1] * (afix - (q - 1 << wp)) * num // (den * q << wp))
        out = []
        scale = base**av / (one * one)
        for m in range(max_order + 1):
            out.append(_operator_round(mpf(sum(map(mul, u[: m + 1], v[m::-1]))) * scale, ctx))
            scale = scale * (m + 1) / h
        return out


@pytest.mark.parametrize("digits", DIGITS)
def test_psi_scaling_matches_operators(digits):
    ctx = PrecisionContext(digits)
    # 0.3 and 1.5 are shifted at every order, 3 dps + 1 at none, 60.5 at
    # the orders past about 55 - 0.4 dps
    points = ("0.3", "1.5", "60.5", 3 * ctx.dps + 1)
    shifted = set()
    for m in (0, 1, 17, 64, 117):
        for x in points:
            got = polygamma(m, x, ctx) if m else digamma(x, ctx)
            assert got._mpf_ == _operator_psi(m, x, ctx)._mpf_, (m, x)
            with ctx.workdps():
                tn, td = _ratio(mpf(x))
            shifted.add(_shift(tn, td, m, ctx.dps) > 0)
    assert shifted == {False, True}


@pytest.mark.parametrize("digits", DIGITS)
def test_derivative_table_matches_full_operator_table(digits):
    ctx = PrecisionContext(digits)
    dps = ctx.dps
    # the shapes of the Euler-sum tails and the Ramanujan scheme, then an
    # even max_order, a point off the integers and f alone
    for t, a, shift, max_order in (
        (3 * dps, "-2.345", 0, 21),
        (3 * dps, "-2.345", 1, 21),
        (50, 4, 0, 29),
        (3, 2, 0, 4),
        ("7.5", "-1.1", 1, 9),
        (9, 0, 0, 0),
    ):
        got = hsmooth_pow_derivs(t, a, shift, max_order, ctx)
        full = _operator_table(t, a, shift, max_order, ctx)
        odd = range(1, max_order + 1, 2)
        assert len(got) == 1 + len(odd)
        assert [v._mpf_ for v in got] == [full[m]._mpf_ for m in (0, *odd)], (t, a, shift)


@pytest.mark.parametrize("digits", DIGITS)
def test_round_matches_operator_in_a_precision_block(digits):
    ctx = PrecisionContext(digits)
    with mpmath.workdps(3 * digits):
        values = [mpmath.pi, -mpmath.e / 7, mpf(2) ** -700 / 3, mpf(1) + mpf(2) ** (-4 * digits), mpf(0)]
        values = [+v for v in values]
    for v in values:
        assert ctx.round(v)._mpf_ == _operator_round(v, ctx)._mpf_
