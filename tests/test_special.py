import mpmath
import pytest
from mpmath import mpf

from zetachain.exact import harmonic
from zetachain.precision import PrecisionContext, const_gamma, const_log2pi
from zetachain.quadrature import integrate
from zetachain.special import DomainError, _stirling, digamma, gamma_fn, hsmooth_pow_derivs, polygamma

CTX = PrecisionContext(50)


def tol(offset):
    with CTX.workdps():
        return mpf(10) ** (-CTX.digits + offset)


def test_constants_known_digits():
    ctx10 = PrecisionContext(15)
    assert abs(const_gamma(ctx10) - 0.5772156649) < 1e-9


def test_gamma_const_independent_cross_check():
    # gamma = H_n - psi(n+1); digamma here is Stirling-based and never
    # references the constant, so this is a second route
    with CTX.workdps():
        h = harmonic(40)
        approx = mpf(h.numerator) / h.denominator - digamma(41, CTX)
        assert abs(approx - const_gamma(CTX)) < tol(3)


def test_log2pi_definitional():
    with CTX.workdps():
        assert abs(const_log2pi(CTX) - mpmath.log(2 * mpmath.pi)) < tol(2)


def test_constants_stable_under_refinement():
    fine = PrecisionContext(100)
    with fine.workdps():
        for f in (const_gamma, const_log2pi):
            assert abs(f(CTX) - f(fine)) < tol(2)


def test_gamma_classical_values():
    with CTX.workdps():
        assert abs(gamma_fn(1, CTX) - 1) < tol(3)
        assert abs(gamma_fn(4, CTX) - 6) < tol(3)
        assert abs(gamma_fn(mpf(1) / 2, CTX) - mpmath.sqrt(mpmath.pi)) < tol(3)


@pytest.mark.parametrize("s", ["0.5", "1.3", "2.7", "5.1"])
def test_gamma_recurrence(s):
    with CTX.workdps():
        sv = mpf(s)
        assert abs(gamma_fn(sv + 1, CTX) - sv * gamma_fn(sv, CTX)) < tol(3)


def test_gamma_pole_rejected():
    for s in (0, -1, -5):
        with pytest.raises(DomainError):
            gamma_fn(s, CTX)


def test_gamma_negative_noninteger():
    with CTX.workdps():
        # reflection: Gamma(-1/2) = -2 sqrt(pi)
        assert abs(gamma_fn(mpf(-1) / 2, CTX) + 2 * mpmath.sqrt(mpmath.pi)) < tol(3)


def test_digamma_classical_values():
    with CTX.workdps():
        g = const_gamma(CTX)
        assert abs(digamma(1, CTX) + g) < tol(3)
        assert abs(digamma(2, CTX) - (1 - g)) < tol(3)
        assert abs(digamma(mpf(3) / 2, CTX) - (2 - g - 2 * mpmath.log(2))) < tol(3)


@pytest.mark.parametrize("x", ["0.5", "1.0", "3.25", "17.5"])
def test_digamma_recurrence(x):
    with CTX.workdps():
        xv = mpf(x)
        assert abs(digamma(xv + 1, CTX) - digamma(xv, CTX) - 1 / xv) < tol(3)


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma(0, CTX)


@pytest.mark.parametrize("m", [1, 2, 5, 10, 21])
def test_polygamma_recurrence(m):
    with CTX.workdps():
        x = mpf("1.75")
        lhs = polygamma(m, x + 1, CTX) - polygamma(m, x, CTX)
        rhs = (-1) ** m * mpf(mpmath.factorial(m)) / x ** (m + 1)
        assert abs(lhs - rhs) < tol(5) * max(1, abs(rhs))


def test_polygamma_trigamma_value():
    with CTX.workdps():
        # psi'(1) = pi^2/6
        assert abs(polygamma(1, 1, CTX) - mpmath.pi**2 / 6) < tol(3)


def test_hsmooth_matches_harmonic_numbers():
    with CTX.workdps():
        for n in range(1, 51):
            h = harmonic(n)
            assert abs(hsmooth_pow_derivs(n, 0, 0, 0, CTX)[0] - mpf(h.numerator) / h.denominator) < tol(3)


def test_integrate_trivial_examples_and_error_bounds():
    with CTX.workdps():
        cases = [
            (lambda x: x, 0, 1, mpf(1) / 2),
            (lambda x: mpmath.exp(-x), 0, mpmath.inf, mpf(1)),
            (lambda x: x * mpmath.exp(-x), 0, mpmath.inf, mpf(1)),
        ]
        for f, a, b, expected in cases:
            res = integrate(f, a, b, CTX)
            assert res.converged
            true_err = abs(res.value - expected)
            assert true_err < tol(5)
            assert true_err <= res.error + tol(0)


def test_integrate_endpoint_log_singularity():
    with CTX.workdps():
        res = integrate(lambda x: mpmath.log(x), 0, 1, CTX)
        assert res.converged
        assert abs(res.value + 1) < tol(5)


# Differential checks against mpmath's own psi and gamma, which share no code
# with the Stirling kernel here.  The psi^(m) bound is absolute (scaled by
# max(1, |ref|)): the series stops on an absolute tolerance, so small values
# of high order keep fewer relative digits.
@pytest.mark.parametrize("digits", [15, 50, 120])
def test_polygamma_matches_mpmath(digits):
    ctx = PrecisionContext(digits)
    for m in (0, 1, 2, 5, 21, 64, 133):
        for x in ("0.3", "1.75", "56", "60.5"):
            got = polygamma(m, x, ctx)
            with mpmath.workdps(digits + 20):
                ref = mpmath.psi(m, mpf(x))
                bound = mpf(10) ** (-digits + 2) * max(1, abs(ref))
                assert abs(got - ref) <= bound, (m, x)


@pytest.mark.parametrize("digits", [15, 50, 120])
def test_gamma_matches_mpmath(digits):
    ctx = PrecisionContext(digits)
    for s in ("0.3", "-2.5", "7.25", "41.5"):
        got = gamma_fn(s, ctx)
        with mpmath.workdps(digits + 20):
            ref = mpmath.gamma(mpf(s))
            assert abs(got - ref) <= mpf(10) ** (-digits + 2) * abs(ref), s


def test_stirling_kernel_raises_on_unshifted_argument():
    with CTX.workdps():
        with pytest.raises(ArithmeticError):
            _stirling(0, mpf("0.3"), CTX.dps)
