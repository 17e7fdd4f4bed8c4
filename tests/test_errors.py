"""Each public entry point rejects an argument outside its domain with its own error class.

DomainError subclasses ValueError, so each case checks the exact class: a
pole or a domain bound raises DomainError, a bad index or order raises a
plain ValueError, and a precision of the wrong type raises TypeError.
"""

import pytest

from zetachain.chain import discrepancy_report, solve_chain
from zetachain.eulersums import bprime_from_zprime, mellin_fundamental_check, s_from_zprime, sum_lm
from zetachain.exact import bernoulli
from zetachain.precision import PrecisionContext
from zetachain.special import DomainError, polygamma
from zetachain.values import SumConvention, SymbolicValue
from zetachain.zeta import zeta_neg_int_exact, zeta_odd_from_bprime, zeta_prime_em, zprime_from_zeta_odd

CTX = PrecisionContext(15)
A = SumConvention.A

CASES = {
    "zeta_prime_em(1)": (DomainError, lambda: zeta_prime_em(1, CTX)),
    "zeta_neg_int_exact(0)": (ValueError, lambda: zeta_neg_int_exact(0)),
    "zeta_odd_from_bprime(0)": (ValueError, lambda: zeta_odd_from_bprime(0, 1, CTX)),
    "zprime_from_zeta_odd(0)": (ValueError, lambda: zprime_from_zeta_odd(0, 1, CTX)),
    "polygamma(-1)": (ValueError, lambda: polygamma(-1, 2, CTX)),
    "bernoulli(-1)": (ValueError, lambda: bernoulli(-1)),
    "sum_lm(0)": (ValueError, lambda: sum_lm(0, A)),
    "bprime_from_zprime(0)": (ValueError, lambda: bprime_from_zprime(0, 1)),
    "s_from_zprime(0)": (ValueError, lambda: s_from_zprime(0, SymbolicValue.of(0), A)),
    "mellin_fundamental_check(1)": (DomainError, lambda: mellin_fundamental_check(1, CTX)),
    "solve_chain(0)": (ValueError, lambda: solve_chain(0, A)),
    "discrepancy_report(0)": (ValueError, lambda: discrepancy_report(0, (A,), CTX)),
    "PrecisionContext(14)": (ValueError, lambda: PrecisionContext(14)),
    "PrecisionContext(15.5)": (TypeError, lambda: PrecisionContext(15.5)),
}


@pytest.mark.parametrize("case", CASES)
def test_out_of_domain_argument_raises_its_documented_class(case):
    cls, call = CASES[case]
    with pytest.raises(cls) as exc:
        call()
    assert type(exc.value) is cls
