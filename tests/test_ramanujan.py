import mpmath
import pytest
from mpmath import mpf

from zetachain.chain import solve_chain
from zetachain.precision import PrecisionContext, const_gamma
from zetachain.ramanujan import (
    EMScheme,
    convergent_selftest,
    ramanujan_sum,
)
from zetachain.special import DomainError, hsmooth
from zetachain.values import SumConvention

CTX = PrecisionContext(50)
SCHEME = EMScheme()


def half_tol():
    with CTX.workdps():
        return mpf(10) ** (-CTX.digits // 2)


def test_hsmooth_values():
    with CTX.workdps():
        assert abs(hsmooth(1, CTX) - 1) < mpf(10) ** (-CTX.digits + 3)
        assert abs(hsmooth(2, CTX) - mpf(3) / 2) < mpf(10) ** (-CTX.digits + 3)
        expected = 2 - 2 * mpmath.log(2)
        assert abs(hsmooth(mpf(1) / 2, CTX) - expected) < mpf(10) ** (-CTX.digits + 3)


def test_hsmooth_domain():
    with pytest.raises(DomainError):
        hsmooth(0, CTX)


def test_scheme_validation():
    with pytest.raises(ValueError):
        EMScheme(N=1)
    with pytest.raises(ValueError):
        EMScheme(integral_lower_limit=0)


def test_convergent_selftest():
    assert convergent_selftest(SCHEME, CTX) < half_tol()


def test_convergent_selftest_scheme_independent():
    # the Ramanujan constant of a convergent series does not depend on N
    for scheme in (EMScheme(N=30, J=12), EMScheme(N=80, J=18)):
        assert convergent_selftest(scheme, CTX) < half_tol()


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_stability_under_scheme_refinement(k):
    r = ramanujan_sum(k, SCHEME, CTX)
    assert r.stable
    assert r.spread < half_tol()


def test_k0_compared_to_chain_not_asserted_equal():
    r = ramanujan_sum(0, SCHEME, CTX)
    with CTX.workdps():
        chain0 = solve_chain(1, SumConvention.A)[0].value.numeric(CTX)
        diff = abs(r.sum.value - chain0)
        # a definite, reproducible difference is the documented finding;
        # empirically it sits at exactly one Euler-Mascheroni constant
        assert diff > mpf("0.5")
        assert abs(diff - const_gamma(CTX)) < half_tol()


def test_k1_reported_alongside_chain():
    r = ramanujan_sum(1, SCHEME, CTX)
    assert r.sum.k == 1
    assert r.sum.provenance == "ramanujan"
    with CTX.workdps():
        chain1 = solve_chain(2, SumConvention.A)[1].value.numeric(CTX)
        assert r.sum.value != chain1


def test_exponent_bound():
    with pytest.raises(ValueError):
        ramanujan_sum(9, SCHEME, CTX)
    with pytest.raises(ValueError):
        ramanujan_sum(-1, SCHEME, CTX)
