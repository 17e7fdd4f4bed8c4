import json
from pathlib import Path

import mpmath
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from zetachain import zeta
from zetachain.exact import zeta_neg_int_exact
from zetachain.precision import PrecisionContext
from zetachain.special import DomainError
from zetachain.zeta import (
    functional_equation_residual,
    functional_equation_sides,
    zeta_em,
    zeta_odd_from_zprime,
    zeta_prime_em,
    zeta_prime_oracle,
    zprime_from_zeta_odd,
)

CTX = PrecisionContext(50)


def tol(offset):
    with CTX.workdps():
        return mpf(10) ** (-CTX.digits + offset)


def test_zeta2():
    with CTX.workdps():
        assert abs(zeta_em(2, CTX) - mpmath.pi**2 / 6) < tol(5)


def test_zeta3_against_direct_summation():
    # brute-force cross-check at reduced precision: direct sum with an
    # integral tail bound, independent of the Euler-Maclaurin machinery
    N = 200_000
    direct = sum(1.0 / n**3 for n in range(1, N))
    direct += 1.0 / (2 * N**2)  # integral tail
    assert abs(float(zeta_em(3, CTX)) - direct) < 1e-9


def test_zeta_pole_rejected():
    with pytest.raises(DomainError):
        zeta_em(1, CTX)


def test_exact_negative_values():
    assert zeta_neg_int_exact(1) == Fraction(-1, 2)
    assert zeta_neg_int_exact(2) == Fraction(-1, 12)
    assert zeta_neg_int_exact(3) == 0
    assert zeta_neg_int_exact(5) == 0
    assert zeta_neg_int_exact(4) == Fraction(1, 120)


def test_em_matches_exact_negative_values():
    with CTX.workdps():
        for k in range(1, 13):
            ex = zeta_neg_int_exact(k)
            got = zeta_em(1 - k, CTX)
            assert abs(got - mpf(ex.numerator) / ex.denominator) < tol(5)


@pytest.mark.parametrize("digits", [15, 50, 120])
def test_zeta_negative_even_is_exact_zero(digits):
    # the trivial zeros, not EM rounding noise of about 10^-(digits+25)
    ctx = PrecisionContext(digits)
    for k in range(1, 7):
        assert zeta_em(-2 * k, ctx) == 0
        assert zeta_em(str(-2 * k), ctx) == 0


def partial_sum_length(monkeypatch, n):
    monkeypatch.setattr(zeta, "_em_setpoint", lambda ctx: n)


def test_em_truncation_stability(monkeypatch):
    with CTX.workdps():
        base = zeta_em(mpf("1.5"), CTX)
        partial_sum_length(monkeypatch, 2 * CTX.dps)
        assert abs(zeta_em(mpf("1.5"), CTX) - base) < tol(5)


def test_em_too_short_partial_sum_raises(monkeypatch):
    # with N = 2 the corrections at s = -2.5 grow instead of shrinking
    partial_sum_length(monkeypatch, 2)
    with pytest.raises(ArithmeticError):
        zeta_em("-2.5", CTX)


def test_zeta_prime_em_too_short_partial_sum_raises(monkeypatch):
    partial_sum_length(monkeypatch, 2)
    with pytest.raises(ArithmeticError):
        zeta_prime_em("-2.5", CTX)


@pytest.mark.parametrize("k", [4, 6])
def test_em_series_ends_at_nonpositive_integers(monkeypatch, k):
    # at s = 1-k the factor (s)_(2j-1) hits 0, so even N = 2 gives -B_k/k exactly
    partial_sum_length(monkeypatch, 2)
    ex = zeta_neg_int_exact(k)
    with CTX.workdps():
        assert zeta_em(1 - k, CTX) == CTX.round(mpf(ex.numerator) / ex.denominator)


@pytest.mark.parametrize("fn, s", [(zeta_prime_em, -3), (zeta_em, 3)])
def test_em_integer_too_short_partial_sum_raises(monkeypatch, fn, s):
    # zeta' keeps the derivative of (s)_(2j-1), which never vanishes; at s = 3 the terms grow
    partial_sum_length(monkeypatch, 2)
    with pytest.raises(ArithmeticError):
        fn(s, CTX)


def test_zeta_prime_zero_closed_form():
    with CTX.workdps():
        closed = -mpmath.log(2 * mpmath.pi) / 2
        assert abs(zeta_prime_em(0, CTX) - closed) < tol(8)
        assert abs(zeta_prime_oracle(0, CTX) - closed) < tol(8)


def test_zeta_prime_minus_one_glaisher():
    # zeta'(-1) = 1/12 - ln A, with A the Glaisher-Kinkelin constant
    with CTX.workdps():
        expected = mpf(1) / 12 - mpmath.log(mpmath.glaisher)
        assert abs(zeta_prime_em(-1, CTX) - expected) < tol(8)
        assert mpmath.nstr(zeta_prime_em(-1, CTX), 10) == "-0.1654211437"


def test_zeta_prime_minus_two_odd_bridge():
    with CTX.workdps():
        expected = -zeta_em(3, CTX) / (4 * mpmath.pi**2)
        assert abs(zeta_prime_em(-2, CTX) - expected) < tol(8)
        assert abs(zeta_prime_oracle(-2, CTX) - expected) < tol(8)


def test_zeta_prime_positive_argument():
    with CTX.workdps():
        # termwise derivative against a centered difference of zeta_em
        h = mpf(10) ** (-15)
        fd = (zeta_em(2 + h, CTX) - zeta_em(2 - h, CTX)) / (2 * h)
        assert abs(zeta_prime_em(2, CTX) - fd) < mpf(10) ** (-25)


def test_zeta_prime_pole_rejected():
    with pytest.raises(DomainError):
        zeta_prime_oracle(1, CTX)


@pytest.mark.parametrize("s", ["1.25", "1.5", "2", "2.5", "3", "4", "6"])
def test_functional_equation(s):
    assert functional_equation_residual(mpf(s), CTX) < tol(8)


def test_functional_equation_s2_value():
    with CTX.workdps():
        lhs, rhs = functional_equation_sides(2, CTX)
        assert abs(rhs + mpf(1) / 12) < tol(8)


def test_functional_equation_trivial_zero_exact():
    with CTX.workdps():
        _, rhs = functional_equation_sides(3, CTX)
        assert rhs == 0


def test_functional_equation_domain():
    with pytest.raises(DomainError):
        functional_equation_residual(mpf("0.5"), CTX)


def test_odd_bridge_roundtrip():
    with CTX.workdps():
        for k in (1, 2, 3):
            zp = zeta_prime_oracle(-2 * k, CTX)
            z_odd = zeta_odd_from_zprime(k, zp, CTX)
            assert abs(z_odd - zeta_em(2 * k + 1, CTX)) < tol(8)
            assert abs(zprime_from_zeta_odd(k, z_odd, CTX) - zp) < tol(8)


def test_odd_bridge_linearity():
    with CTX.workdps():
        assert zeta_odd_from_zprime(1, mpf(0), CTX) == 0
        v = zeta_odd_from_zprime(1, mpf(1), CTX)
        assert abs(zeta_odd_from_zprime(1, mpf(3), CTX) - 3 * v) < tol(8)


def test_odd_bridge_rejects_k0():
    with pytest.raises(ValueError):
        zeta_odd_from_zprime(0, mpf(1), CTX)


@pytest.mark.parametrize("digits", [20, 50, 200])
def test_odd_bridges_against_mpmath(digits):
    # each bridge is fed mpmath's value of the other side, taken at digits + 40
    # and passed as a string, and held to mpmath's value of its own side
    ctx = PrecisionContext(digits)
    with mpmath.workdps(digits + 40):
        refs = {k: (mpmath.zeta(2 * k + 1), mpmath.zeta(-2 * k, derivative=1)) for k in range(1, 11)}
        sides = {k: (str(odd), str(zprime)) for k, (odd, zprime) in refs.items()}
    for k, (odd, zprime) in sides.items():
        got = zeta_odd_from_zprime(k, zprime, ctx), zprime_from_zeta_odd(k, odd, ctx)
        with mpmath.workdps(digits + 40):
            for value, ref in zip(got, refs[k]):
                assert abs(value - ref) <= mpf(10) ** (-digits + 1) * abs(ref), (k, ref)


# zeta(s) and zeta'(s) against mpmath's independent zeta(s, derivative=m).
# zeta at negative even integers is left out: it is exactly 0 there, which
# test_zeta_negative_even_is_exact_zero checks.
# Integer points take n^-s and (s)_(2j-1) exactly, the others in fixed point.
_MPMATH_POINTS = ["-120.25", "-60.5", "-41.5", "-7", "-2.5", "0", "0.5", "2.5", "10.75"]
_MPMATH_POINTS += ["-41", "-1", "2", "3", "9", "39"]
# next to 0 and to the pole, where s and s - 1 must keep their digits
_MPMATH_POINTS += ["1e-30", "-1e-30", "0.999999", "1.000001"]
# zeta' at 100 to 333.25 is near 2^-s log 2, far below the fixed-point unit
# unless that unit scales with 2^-floor(s).
_MPMATH_POINTS += ["100.5", "150.5", "333.25"]
_MPMATH_CASES = [(0, s) for s in _MPMATH_POINTS]
_MPMATH_CASES += [(1, s) for s in _MPMATH_POINTS + ["-12", "-61", "100", "150"]]


@pytest.mark.parametrize("digits", [15, 50, 120])
@pytest.mark.parametrize("m, s", _MPMATH_CASES)
def test_em_matches_mpmath(m, s, digits):
    ctx = PrecisionContext(digits)
    got = (zeta_em, zeta_prime_em)[m](s, ctx)
    with mpmath.workdps(digits + 20):
        ref = mpmath.zeta(mpf(s), derivative=m)
        assert abs(got - ref) <= mpf(10) ** (-digits + 2) * abs(ref)


# An integer s past the working precision: n**s would not fit in memory, and
# there zeta(s) = 1 and zeta'(s) = -2^-s log 2 to every digit kept.  2^400
# is exact at every precision, so the oracle sees the s given.
@pytest.mark.parametrize("digits", [15, 120])
def test_em_at_huge_integer_s(digits):
    ctx = PrecisionContext(digits)
    s = 2**400
    assert zeta_em(s, ctx) == 1
    got = zeta_prime_em(s, ctx)
    with mpmath.workdps(digits + 20):
        ref = -mpmath.log(2) * mpf(2) ** -s
        assert abs(got - ref) <= mpf(10) ** (-digits + 2) * abs(ref)


# Drawn points, for slips that the fixed ones above miss.  Relative error
# means nothing at a zero, so a point is left out when zeta^(m) changes sign
# within 1/100 of it: the trivial zeros of zeta at -2k (exact there, checked
# above) and the real zeros of zeta', one in each (-2k-2, -2k), are all
# simple.  The sign test also drops zeta's side of the pole at 1.
def _clear_of_zeros(m, s):
    with mpmath.workdps(15):
        x, d = mpf(s), mpf(1) / 100
        signs = {mpmath.sign(mpmath.zeta(x + e, derivative=m)) for e in (-d, d)}
        return x != 1 and len(signs) == 1


@pytest.mark.parametrize("digits", [15, 50, 120])
@pytest.mark.parametrize("m", [0, 1])
def test_em_differential_against_mpmath(m, digits):
    ctx = PrecisionContext(digits)
    fn = (zeta_em, zeta_prime_em)[m]
    # integer part and four decimals drawn apart, so draws spread over [-60, 40);
    # the four-decimal grid almost never hits an integer, so integers get their own draw
    decimal = st.tuples(st.integers(-60, 39), st.integers(0, 9999)).map(lambda p: f"{p[0] + p[1] / 10_000:.4f}")
    integer = st.integers(-60, 39).map(str)

    for drawn in (decimal, integer):

        @settings(max_examples=25, deadline=None, derandomize=True)
        @given(drawn.filter(lambda s: _clear_of_zeros(m, s)))
        def check(s):
            got = fn(s, ctx)
            with mpmath.workdps(digits + 20):
                ref = mpmath.zeta(mpf(s), derivative=m)
                assert abs(got - ref) <= mpf(10) ** (-digits + 2) * abs(ref), (m, s)

        check()


def test_zeta_documents_pinned():
    # zeta and zeta' at the mpmath points above and at edge points (near 0
    # and 1, large s, 2^400), at 15, 50 and 120 digits, recorded to digits + 3
    # significant digits, which fix every bit; the EM routine must reproduce them.
    pins = json.loads((Path(__file__).parent / "zeta_documents.json").read_text())
    for pin in pins:
        ctx = PrecisionContext(pin["digits"])
        got = {name: mpmath.nstr(fn(pin["s"], ctx), pin["digits"] + 3) for name, fn in (("zeta", zeta_em), ("zeta_prime", zeta_prime_em))}
        assert got == {"zeta": pin["zeta"], "zeta_prime": pin["zeta_prime"]}, (pin["s"], pin["digits"])
