import mpmath
import pytest
from mpmath import mpf

from zetachain import special
from zetachain.chain import solve_chain
from zetachain.precision import PrecisionContext, const_gamma
from zetachain.ramanujan import (
    EMScheme,
    convergent_selftest,
    ramanujan_sum,
)
from zetachain.special import hsmooth_pow_derivs
from zetachain.values import SumConvention

CTX = PrecisionContext(50)
SCHEME = EMScheme()


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


def test_scheme_validation():
    with pytest.raises(ValueError):
        EMScheme(N=1)


def test_convergent_selftest():
    assert convergent_selftest(SCHEME, CTX) < half_tol()


def test_convergent_selftest_scheme_independent():
    # the Ramanujan constant of a convergent series does not depend on N
    for scheme in (EMScheme(N=30, J=12), EMScheme(N=80, J=18)):
        assert convergent_selftest(scheme, CTX) < half_tol()


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_stability_under_scheme_refinement(k):
    r = ramanujan_sum(k, SCHEME, CTX)[k]
    assert r.stable
    assert r.spread < half_tol()


def test_k0_compared_to_chain_not_asserted_equal():
    r = ramanujan_sum(0, SCHEME, CTX)[0]
    with CTX.workdps():
        chain0 = solve_chain(1, SumConvention.A)[0].numeric(CTX)
        diff = abs(r.value - chain0)
        # a definite, reproducible difference is the documented finding;
        # empirically it sits at exactly one Euler-Mascheroni constant
        assert diff > mpf("0.5")
        assert abs(diff - const_gamma(CTX)) < half_tol()


def test_k1_reported_alongside_chain():
    r = ramanujan_sum(1, SCHEME, CTX)[1]
    with CTX.workdps():
        chain1 = solve_chain(2, SumConvention.A)[1].numeric(CTX)
        assert r.value != chain1


def test_exponent_bound():
    with pytest.raises(ValueError):
        ramanujan_sum(9, SCHEME, CTX)
    with pytest.raises(ValueError):
        ramanujan_sum(-1, SCHEME, CTX)


@pytest.mark.parametrize("digits", [15, 50, 100])
def test_rows_do_not_depend_on_kmax(digits):
    ctx = PrecisionContext(digits)
    assert len(ramanujan_sum(0, SCHEME, ctx)) == 1
    short, long = ramanujan_sum(4, SCHEME, ctx), ramanujan_sum(8, SCHEME, ctx)
    assert len(long) == 9
    for a, b in zip(short, long[:5], strict=True):
        assert a.value == b.value
        assert a.refined_value == b.refined_value
        assert a.spread == b.spread
        assert a.stable == b.stable


@pytest.mark.parametrize("kmax, digits", [(8, 20), (4, 50)])
def test_refined_value_is_the_refined_scheme_alone(kmax, digits):
    # The refined scheme (2N, J+1) reads the H(t) table and the partial
    # sums that the base scheme left; its values must be bit for bit those
    # of a request that runs (2N, J+1) as its own base scheme.
    ctx = PrecisionContext(digits)
    shared = ramanujan_sum(kmax, EMScheme(), ctx)
    alone = ramanujan_sum(kmax, EMScheme(100, 16), ctx)
    for a, b in zip(shared, alone, strict=True):
        assert a.refined_value == b.value


def test_ramanujan_digamma_budget(monkeypatch):
    # The k = 0..4 integrals of both schemes, N = 50 and the refined
    # N = 100, read one H(t) table per request, so H(t) is evaluated once
    # per distinct Gauss-Legendre node: 576 over both schemes (the 288 on
    # [1, 27] are shared), plus one H(N) per k and scheme in
    # hsmooth_pow_derivs, make 586 calls.  A table per scheme made 874, and
    # evaluating H(t) again for every k would make 4,330.
    calls, digamma = [], special.digamma

    def counting(x, ctx):
        calls.append(x)
        return digamma(x, ctx)

    monkeypatch.setattr(special, "digamma", counting)
    ramanujan_sum(4, EMScheme(), PrecisionContext(50))
    assert 0 < len(calls) <= 586
