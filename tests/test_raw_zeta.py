"""The EM zeta/zeta' sum, SymbolicValue.numeric and the odd-zeta bridges equal the expressions they replaced, bit for bit.

zeta_em and zeta_prime_em take their prime logs from libmp calls and carry
the power of N from one correction to the next; they are held to the EM
routine as it was written before, with mpmath.log in a precision block and
N**e computed for every term.  numeric and the bridges make the libmp calls
behind mpf operators; they are held to the operator expressions.  The two
must give the same _mpf_ tuples, not merely close values.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

import zetachain
from zetachain.chain import solve_chain
from zetachain.exact import bernoulli
from zetachain.precision import PrecisionContext, _working, const_gamma, const_log2pi
from zetachain.special import _GUARD_BITS
from zetachain.values import SumConvention, SymbolicValue
from zetachain.zeta import (
    _em_setpoint,
    _extra_dps,
    _inverse_powers,
    _least_prime_factors,
    zeta_em,
    zeta_odd_from_zprime,
    zeta_prime_em,
    zprime_from_zeta_odd,
)

DIGITS = (15, 50, 100, 200)


def _operator_round(x, ctx):
    with _working(ctx.digits):
        return +x


def _reference_em(sv, N, ctx, derivative):
    # the EM routine as written before its prime logs went to libmp calls and
    # N^e was carried from term to term
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
    pw_N = pw.pop()
    if derivative:
        lpf = _least_prime_factors(N)
        primes = [p for p in range(2, N) if lpf[p] == p]
        with _working(mpmath.mp.dps + 8):
            logs = [int(mpmath.log(p) * (1 << wp)) for p in primes + [N]]
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

    def rational(num, den, e):
        if k:
            num *= pw_N
        else:
            num, e = num << up, e - s
        return num * N**e // den if e >= 0 else num // (den * N**-e)

    one = 1 << k
    lead = rational(one, sn - one, 1) + rational(1, 2, 0)
    total += rational(-one * one, (sn - one) ** 2, 1) - (lead * log_n >> wp) if derivative else lead
    tol_mag = 1 - (10 ** (ctx.dps + 5)).bit_length()
    prod, dprod, fact = one, 0, 1
    for j in range(1, 4 * ctx.dps + 1):
        for i in (2 * j - 3, 2 * j - 2) if j > 1 else (0,):
            f = sn + (i << k)
            if derivative:
                dprod = (dprod * f >> k) + prod
            prod = prod * f >> k
        fact *= (2 * j - 1) * 2 * j
        b = bernoulli(2 * j)
        term = rational(b.numerator * prod, b.denominator * fact << k, 1 - 2 * j)
        if derivative:
            term_d = rational(b.numerator * dprod, b.denominator * fact << k, 1 - 2 * j) - (term * log_n >> wp)
        else:
            term_d = term
        total += term_d
        lim = tol_mag + max(0, total.bit_length() - up)
        if max(term_d.bit_length(), term.bit_length()) - up < lim:
            return _operator_round(mpf((total, -up)), ctx)
    raise ArithmeticError("Euler-Maclaurin corrections did not converge")


def _reference(s, ctx, derivative):
    # zeta_em or zeta_prime_em around the reference routine
    with ctx.workdps():
        sv = mpf(s)
    if not derivative and sv < 0 and sv == mpmath.floor(sv) and int(sv) % 2 == 0:
        return mpf(0)
    n_terms = _em_setpoint(ctx)
    with _working(ctx.dps + _extra_dps(sv, n_terms) + (5 if derivative else 0)):
        return _reference_em(mpf(s), n_terms, ctx, derivative)


@pytest.mark.parametrize("digits", DIGITS)
def test_zeta_em_matches_reference_routine(digits):
    ctx = PrecisionContext(digits)
    # a trivial zero, odd and even negative integers, 0, the chain's zeta(2k+1)
    # and beyond, and a non-integer point
    for s in (-12, -3, 0, 2, 3, 9, 31, "2.5"):
        assert zeta_em(s, ctx)._mpf_ == _reference(s, ctx, False)._mpf_, s


@pytest.mark.parametrize("digits", DIGITS)
def test_zeta_prime_em_matches_reference_routine(digits):
    ctx = PrecisionContext(digits)
    # at -8 and -7 the first terms carry a positive power of N and (s)_(2j-1)
    # vanishes from j = 5 on; 3.5 carries N^-s as a fixed-point power
    for s in (-8, -7, -1, 0, 2, "3.5"):
        assert zeta_prime_em(s, ctx)._mpf_ == _reference(s, ctx, True)._mpf_, s


def _operator_numeric(value, ctx):
    # SymbolicValue.numeric as written with mpf operators
    with ctx.workdps():
        val = (
            mpf(value.a.numerator) / value.a.denominator
            + mpf(value.b.numerator) / value.b.denominator * const_gamma(ctx)
            + mpf(value.c.numerator) / value.c.denominator * const_log2pi(ctx)
        )
        return _operator_round(val, ctx)


@pytest.mark.parametrize("digits", DIGITS)
def test_numeric_matches_operators(digits):
    ctx = PrecisionContext(digits)
    # the seed, a zero part, a numerator past the working precision, and the
    # chain's S_0..S_8 under both conventions
    values = [
        SymbolicValue.of(0, 0, Fraction(-1, 2)),
        SymbolicValue.of(Fraction(-691, 2730), 0, Fraction(5, 3)),
        SymbolicValue.of(Fraction(3**700 + 1, 7**300), Fraction(-1, 12), Fraction(1, 720)),
    ]
    for conv in SumConvention:
        values += solve_chain(8, conv)
    for value in values:
        assert value.numeric(ctx)._mpf_ == _operator_numeric(value, ctx)._mpf_, value


def _operator_zeta_odd(k, zprime, ctx):
    with ctx.workdps():
        two_pi = 2 * mpmath.pi
        return _operator_round((-1) ** k * 2 * two_pi ** (2 * k) / mpf(math.factorial(2 * k)) * mpf(zprime), ctx)


def _operator_zprime(k, zeta_odd, ctx):
    with ctx.workdps():
        two_pi = 2 * mpmath.pi
        return _operator_round((-1) ** k * mpf(math.factorial(2 * k)) * mpf(zeta_odd) / (2 * two_pi ** (2 * k)), ctx)


@pytest.mark.parametrize("digits", DIGITS)
def test_odd_zeta_bridges_match_operators(digits):
    ctx = PrecisionContext(digits)
    with ctx.workdps():
        points = [mpf(1) / 3, -mpf(10) ** -5 / 7, mpmath.pi ** 5]
    points += ["-0.0079838", 3]
    for k in (1, 2, 4, 7, 12):
        for x in points:
            assert zeta_odd_from_zprime(k, x, ctx)._mpf_ == _operator_zeta_odd(k, x, ctx)._mpf_, (k, x)
            assert zprime_from_zeta_odd(k, x, ctx)._mpf_ == _operator_zprime(k, x, ctx)._mpf_, (k, x)


def test_chain_sweep_leaves_the_bernoulli_cache_at_its_size():
    # perfbench's chain-sweep warm-up and its top precision: the EM loop reads
    # B_2j only as far as its last term, so the cache holds 191 entries.  A
    # loop that first read B_(8 dps) grew it to 1,761 and took chain-sweep's
    # setup_s from 0.10 s to 0.52 s.
    code = (
        "from zetachain import cli, exact, zeta\n"
        "from zetachain.precision import PrecisionContext\n"
        "from zetachain.values import SumConvention\n"
        "ctx = PrecisionContext(210)\n"
        "zeta.zeta_em(3, ctx)\n"
        "zeta.zeta_prime_em(-3, ctx)\n"
        "cli.run_chain(8, (SumConvention.A, SumConvention.B), 199)\n"
        "print(len(exact._bernoulli_cache))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(zetachain.__path__[0])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) <= 191
