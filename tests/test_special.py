import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from zetachain.exact import harmonic
from zetachain.precision import PrecisionContext, const_gamma, const_log2pi
from zetachain.quadrature import integrate
from zetachain.special import DomainError, _shift, _stirling, _stirling_ratio, _stirling_term, _wp, digamma, gamma_fn, hsmooth_pow_derivs, polygamma

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
    # a finite interval is on Gauss-Legendre, which needs f analytic on the
    # closed interval: log x on [0, 1] is still off by about 5e-6 at the
    # last level, and the result says it has not converged instead of
    # returning that value as converged
    res = integrate(mpmath.log, 0, 1, PrecisionContext(15))
    assert res.converged is False
    with pytest.raises(ArithmeticError, match="did not converge"):
        res.require_converged()


# Differential checks against mpmath's own psi and gamma, which share no code
# with the Stirling kernel here.  psi^(m) is relative for every order: small
# values of high order keep all their digits.
@pytest.mark.parametrize("digits", [15, 50, 120])
def test_polygamma_matches_mpmath(digits):
    ctx = PrecisionContext(digits)
    for m in (0, 1, 2, 5, 21, 64, 133):
        for x in ("0.3", "1.75", "56", "60.5"):
            got = polygamma(m, x, ctx)
            with mpmath.workdps(digits + 20):
                ref = mpmath.psi(m, mpf(x))
                assert abs(got - ref) <= mpf(10) ** (-digits + 2) * abs(ref), (m, x)


@st.composite
def _psi_arguments(draw, digits):
    m = draw(st.integers(min_value=0, max_value=140))
    x = draw(
        st.one_of(
            st.decimals(min_value="0.0001", max_value="199.9999", places=4).map(str),
            st.integers(min_value=1, max_value=199),
            st.decimals(min_value="0.000001", max_value="0.999999", places=6).map(str),
            # from here on the kernel needs no downward recurrence
            st.integers(min_value=_shift(0, 1, m, PrecisionContext(digits).dps), max_value=199),
        )
    )
    return m, x


# Scaling or underflow slips in the fixed-point kernel (a term held as
# z^-2j on its own, a unit that is not the largest term) lose digits at
# some order and argument; drawn points find them where fixed ones miss.
@pytest.mark.parametrize("digits", [15, 50, 120])
def test_psi_differential_against_mpmath(digits):
    ctx = PrecisionContext(digits)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_psi_arguments(digits))
    def check(args):
        m, x = args
        got = polygamma(m, x, ctx) if m else digamma(x, ctx)
        with mpmath.workdps(digits + 20):
            ref = mpmath.psi(m, mpf(x))
            assert abs(got - ref) <= mpf(10) ** (-digits + 2) * abs(ref), (m, x)

    check()


# The derivative table at the shapes the Euler-sum tails ask for at 15, 50
# and 100 digits, against the plain product rule on mpmath's psi at 40 more
# digits.  f and every odd order returned are held to a relative bound.
@pytest.mark.parametrize("digits, t, max_order", [(15, 30, 25), (50, 37, 71), (100, 59, 135)])
def test_hsmooth_pow_derivs_match_mpmath_product_rule(digits, t, max_order):
    ctx = PrecisionContext(digits)
    with mpmath.workdps(digits + 40):
        u = [mpmath.euler + mpmath.psi(0, t + 1)] + [mpmath.psi(i, t + 1) for i in range(1, max_order + 1)]
    for a in ("-1.1", "-2.5", "-4.99"):
        for shift in (0, 1):
            got = hsmooth_pow_derivs(t, a, shift, max_order, ctx)
            with mpmath.workdps(digits + 40):
                av, base = mpf(a), mpf(t + shift)
                v, falling = [], mpf(1)
                for q in range(max_order + 1):
                    v.append(falling * base ** (av - q))
                    falling *= av - q
                orders = [0, *range(1, max_order + 1, 2)]
                assert len(got) == len(orders)
                for m, value in zip(orders, got):
                    ref = mpmath.fsum(math.comb(m, i) * u[i] * v[m - i] for i in range(m + 1))
                    assert abs(value - ref) <= mpf(10) ** (-digits + 3) * abs(ref), (a, shift, m)


def test_psi_past_float_range():
    # the Stirling shift is worked out from the argument's exact ratio; taken
    # through a float it overflowed past about 1.8e308
    ctx = PrecisionContext(30)
    x = "1e400"
    got = (digamma(x, ctx), polygamma(1, x, ctx), polygamma(3, x, ctx))
    with mpmath.workdps(50):
        ref = (mpmath.psi(0, mpf(x)), mpmath.psi(1, mpf(x)), mpmath.psi(3, mpf(x)))
        for g, r in zip(got, ref):
            assert abs(g - r) <= mpf(10) ** -28 * abs(r)


@pytest.mark.parametrize("digits", [15, 50, 120])
def test_gamma_matches_mpmath(digits):
    ctx = PrecisionContext(digits)
    for s in ("0.3", "-2.5", "7.25", "41.5"):
        got = gamma_fn(s, ctx)
        with mpmath.workdps(digits + 20):
            ref = mpmath.gamma(mpf(s))
            assert abs(got - ref) <= mpf(10) ** (-digits + 2) * abs(ref), s


@pytest.mark.parametrize("digits", [15, 50])
def test_gamma_keeps_its_digits_at_large_arguments(digits):
    # exp(log Gamma(x)) loses the log10(x ln x) digits before log Gamma's
    # point: without extra working digits 1e20 kept 4 of 15 and 1e40 none
    ctx = PrecisionContext(digits)
    for s in ("1e3", "1e12", "1e20", "1e40"):
        got = gamma_fn(s, ctx)
        with mpmath.workdps(digits + 80):
            ref = mpmath.gamma(mpf(s))
            assert abs(got - ref) <= mpf(10) ** (-digits + 2) * abs(ref), s


# Points drawn on a four-decimal grid over [-40, 60).  The poles at 0, -1,
# -2, ... are left out; near them Gamma is large, not small, so points may
# come as close to them as the grid allows.
_GAMMA_POINTS = (
    st.tuples(st.integers(-40, 59), st.integers(0, 9999))
    .filter(lambda p: p[0] > 0 or p[1] > 0)
    .map(lambda p: f"{p[0] + p[1] / 10_000:.4f}")
)


@pytest.mark.parametrize("digits", [15, 50, 120])
def test_gamma_differential_against_mpmath(digits):
    ctx = PrecisionContext(digits)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_GAMMA_POINTS)
    def check(s):
        got = gamma_fn(s, ctx)
        with mpmath.workdps(digits + 20):
            ref = mpmath.gamma(mpf(s))
            assert abs(got - ref) <= mpf(10) ** (-digits + 2) * abs(ref), s

    check()


def test_stirling_kernel_raises_on_unshifted_argument():
    # z = 3/8: the terms stop shrinking long before the series converges
    with CTX.workdps():
        with pytest.raises(ArithmeticError):
            _stirling(0, 3, 8)


@pytest.mark.parametrize("digits", [15, 200])
def test_stirling_ratios_equal_the_term_quotient(digits):
    # each ratio, built from B_2j/B_(2j-2) and four integers, is the floor of
    # the exact quotient g(m, j)/g(m, j-1) of the series' own terms
    with PrecisionContext(digits).workdps():
        for m in range(-1, 40):
            for j in range(1, 60):
                r = _stirling_term(m, j) / _stirling_term(m, j - 1)
                assert _stirling_ratio(m, j) == (r.numerator << _wp()) // r.denominator, (m, j)


@pytest.mark.parametrize("x", [0, -1, "-0.5", "-1e-30"])
def test_psi_family_rejects_nonpositive_arguments(x):
    for m in (0, 1, 7):
        with pytest.raises(DomainError):
            polygamma(m, x, CTX)
    with pytest.raises(DomainError):
        digamma(x, CTX)


def test_derivative_table_rejects_nonpositive_power_base():
    # (t+shift)^a with real a is not real below 0, and the fixed-point
    # product rule reads the base as an unsigned integer ratio
    with pytest.raises(DomainError):
        hsmooth_pow_derivs("-0.5", "-2.5", 0, 3, CTX)
