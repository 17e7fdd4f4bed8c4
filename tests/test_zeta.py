import mpmath
import pytest
from fractions import Fraction
from mpmath import mpf

from zetachain.precision import PrecisionContext
from zetachain.special import DomainError
from zetachain.zeta import (
    functional_equation_residual,
    functional_equation_sides,
    zeta_em,
    zeta_neg_int_exact,
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


def test_em_truncation_stability():
    with CTX.workdps():
        base = zeta_em(mpf("1.5"), CTX)
        assert abs(zeta_em(mpf("1.5"), CTX, N=2 * CTX.dps) - base) < tol(5)
        assert abs(zeta_em(mpf("1.5"), CTX, N=CTX.dps, J=80) - base) < tol(5)


def test_em_too_short_partial_sum_raises():
    # with N = 2 the corrections at s = -2.5 grow instead of shrinking
    with pytest.raises(ArithmeticError):
        zeta_em("-2.5", CTX, N=2)


def test_zeta_prime_em_too_short_partial_sum_raises():
    with pytest.raises(ArithmeticError):
        zeta_prime_em("-2.5", CTX, N=2)


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
