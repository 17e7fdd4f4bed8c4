import mpmath
import pytest
from mpmath import mpf

from zetachain import cli, special
from zetachain.chain import solve_chain
from zetachain.exact import GAMMA, LOG_2PI, ONE, ramanujan_closed_form
from zetachain.precision import PrecisionContext, const_gamma
from zetachain.ramanujan import EMScheme, _scheme, convergent_selftest, ramanujan_sum
from zetachain.special import hsmooth_pow_derivs
from zetachain.values import SumConvention

CTX = PrecisionContext(50)


def half_tol():
    with CTX.workdps():
        return mpf(10) ** (-CTX.digits // 2)


def hsmooth(t):
    # H(t) = gamma + psi(t+1): the order-0 entry of the derivative table
    return hsmooth_pow_derivs(t, 0, 0, 0, CTX)[0]


def test_hsmooth_values():
    with CTX.workdps():
        assert abs(hsmooth(1) - 1) < mpf(10) ** (-CTX.digits + 3)
        assert abs(hsmooth(2) - mpf(3) / 2) < mpf(10) ** (-CTX.digits + 3)
        expected = 2 - 2 * mpmath.log(2)
        assert abs(hsmooth(mpf(1) / 2) - expected) < mpf(10) ** (-CTX.digits + 3)


@pytest.mark.parametrize(
    "digits, N, J",
    [
        (15, 50, 15),
        (50, 50, 15),
        (51, 150, 40),
        (100, 150, 40),
        (101, 400, 60),
        (200, 400, 60),
        (201, 402, 60),
        (500, 1000, 150),
    ],
)
def test_scheme_from_digits(digits, N, J):
    assert _scheme(digits) == EMScheme(N, J)


@pytest.mark.parametrize("digits", [15, 50, 100, 200, 300, 500])
def test_convergent_selftest(digits):
    # four distinct schemes: (50, 15), (150, 40), (400, 60), then (2d, 3d/10);
    # the first omitted EM term of each lies below the target
    ctx = PrecisionContext(digits)
    with ctx.workdps():
        assert convergent_selftest(ctx) < mpf(10) ** (-digits // 2)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_stability_against_closed_form(k):
    r = ramanujan_sum(k, CTX)[k]
    assert r.stable
    assert r.spread < half_tol()
    assert r.closed_form == ramanujan_closed_form(k)


def _closed_form_mpmath(k, digits):
    # the closed form at digits + 30 from mpmath's zeta' and gamma, which
    # share no code with zeta_prime_oracle or the Ramanujan integral; the
    # form's ln(2 pi) is -2 zeta'(0)
    form = ramanujan_closed_form(k)
    with mpmath.workdps(digits + 30):
        basis = {ONE: 1, GAMMA: mpmath.euler, LOG_2PI: -2 * mpmath.zeta(0, derivative=1)}
        basis |= {("zeta'", j): mpmath.zeta(-j, derivative=1) for j in range(1, k + 1)}
        return mpmath.fsum(mpmath.mpf(q.numerator) / q.denominator * basis[key] for key, q in form.items())


@pytest.mark.parametrize("k", [2, 12, 60])
def test_closed_form_matches_the_integral_definition(k):
    # Ramanujan summation by its integral definition (Abel-Plana, lower
    # limit 1): R_k = f(1)/2 - 2 int_0^inf Im f(1+iy) / (e^(2 pi y) - 1) dy
    # with f(t) = H(t) t^k, H(t) = gamma + psi(t+1) and f(1) = 1.  It uses
    # none of the shift rule, Lerch's formula and the Hurwitz recursion
    # that derive the closed form, and reaches k far past the EM route's 8.
    # Measured at 30 digits: within 3.8e-31 relative for k = 2, 12 and 60.
    digits = 30
    with mpmath.workdps(digits):

        def f(y):
            t = mpmath.mpc(1, y)
            return mpmath.im((mpmath.euler + mpmath.digamma(t + 1)) * t**k) / mpmath.expm1(2 * mpmath.pi * y)

        value = mpf(1) / 2 - 2 * mpmath.quad(f, [0, 1, mpmath.inf])
    closed = _closed_form_mpmath(k, digits)
    with mpmath.workdps(digits + 30):
        assert abs(value - closed) <= mpf(10) ** -27 * abs(closed), k


def test_rows_match_closed_form_by_mpmath():
    # the scheme's own error grows with k: 2.3e-46 at k = 0 to 6.5e-37 at
    # k = 8 at 50 digits
    rows = ramanujan_sum(8, CTX)
    for k, r in enumerate(rows):
        with mpmath.workdps(CTX.digits + 30):
            error = abs(r.value - _closed_form_mpmath(k, CTX.digits))
            assert error < mpf(10) ** -25, (k, error)
            # spread measures the same distance, from the library's own zeta'
            assert abs(error - r.spread) < mpf(10) ** (-CTX.digits + 5) * max(1, error)


def test_k0_compared_to_chain_not_asserted_equal():
    # the README's one-gamma finding is the k = 0 row of the closed form:
    # R_0 = 1/2 + 3/2 gamma + zeta'(0), with zeta'(0) = -ln(2 pi)/2, and the
    # chain's S_0 under A is exactly one gamma below it
    s0 = solve_chain(1, SumConvention.A)[0]
    assert ramanujan_closed_form(0) - s0 == {"gamma": 1}
    r = ramanujan_sum(0, CTX)[0]
    with CTX.workdps():
        diff = abs(r.value - s0.numeric(CTX))
        assert diff > mpf("0.5")
        assert abs(diff - const_gamma(CTX)) < half_tol()


def test_k1_reported_alongside_chain():
    r = ramanujan_sum(1, CTX)[1]
    with CTX.workdps():
        chain1 = solve_chain(2, SumConvention.A)[1].numeric(CTX)
        assert r.value != chain1


def test_exponent_bound():
    with pytest.raises(ValueError):
        ramanujan_sum(9, CTX)
    with pytest.raises(ValueError):
        ramanujan_sum(-1, CTX)


@pytest.mark.parametrize("digits", [15, 50, 100])
def test_rows_do_not_depend_on_kmax(digits):
    ctx = PrecisionContext(digits)
    assert len(ramanujan_sum(0, ctx)) == 1
    short, long = ramanujan_sum(4, ctx), ramanujan_sum(8, ctx)
    assert len(long) == 9
    for a, b in zip(short, long[:5], strict=True):
        assert a.value == b.value
        assert a.closed_form == b.closed_form
        assert a.spread == b.spread
        assert a.stable == b.stable


def test_ramanujan_digamma_budget(monkeypatch):
    # The k = 0..4 integrals over [1, 50] read one H(t) table per request,
    # so H(t) is evaluated once per distinct Gauss-Legendre node, 384, plus
    # one H(N) per k in hsmooth_pow_derivs: 389 calls.  Re-running the
    # scheme at (2N, J+1) to estimate the spread made 586, and evaluating
    # H(t) again for every k would make 1,925.
    calls, digamma = [], special.digamma

    def counting(x, ctx):
        calls.append(x)
        return digamma(x, ctx)

    monkeypatch.setattr(special, "digamma", counting)
    ramanujan_sum(4, PrecisionContext(50))
    assert 0 < len(calls) <= 389


@pytest.mark.parametrize("digits", [100, 200])
def test_oracle_stable_above_50_digits(digits):
    # with the scheme taken from the digits no row stops at the 1e-46 of
    # (50, 15); the integral, asked for about half the digits, bounds the
    # spread (1.4e-91 at 100 digits, 5.0e-166 at 200)
    doc = cli.run_oracle(4, digits)
    for row in doc["rows"]:
        assert row["stable"], row["k"]
        with mpmath.workdps(digits + 30):
            error = abs(mpmath.mpf(row["ramanujan"]) - _closed_form_mpmath(row["k"], digits))
            assert error < mpf(10) ** (-digits // 2), (row["k"], error)
