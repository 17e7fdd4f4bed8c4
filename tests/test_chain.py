import json
from dataclasses import fields
from fractions import Fraction

import pytest
from mpmath import mpf

from zetachain.chain import (
    ChainRow,
    build_relation,
    chain_report_from_dict,
    discrepancy_report,
    extract_zprime_chain,
    relation_residual,
    solve_chain,
)
from zetachain.exact import bernoulli, harmonic
from zetachain.precision import PrecisionContext
from zetachain.values import SumConvention, SymbolicValue
from zetachain.zeta import zeta_odd_from_zprime

CTX = PrecisionContext(50)
A = SumConvention.A
B = SumConvention.B


def test_build_relation_examples():
    r2 = build_relation(2)
    assert r2.coefficients == (Fraction(1), Fraction(2))
    assert r2.rhs == Fraction(1, 12)
    r3 = build_relation(3)
    assert r3.coefficients == (Fraction(1), Fraction(3), Fraction(3))
    assert r3.rhs == 0
    r4 = build_relation(4)
    assert r4.coefficients == (Fraction(1), Fraction(4), Fraction(6), Fraction(4))
    assert r4.rhs == Fraction(-1, 120)


def test_build_relation_rejects_boundary_case():
    with pytest.raises(ValueError):
        build_relation(1)


def test_seed_and_first_step():
    chain = solve_chain(2, A)
    assert chain[0] == SymbolicValue.of(Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
    assert chain[1] == SymbolicValue.of(Fraction(-5, 24), Fraction(-1, 4), Fraction(1, 4))


def test_exactness_witness_s2():
    # 2 S_1 + S_0 collapses to the rational triple (1/12, 0, 0)
    chain = solve_chain(2, A)
    total = chain[1] * 2 + chain[0]
    assert total == SymbolicValue.of(Fraction(1, 12), 0, 0)


@pytest.mark.parametrize("conv", [A, B])
def test_chain_satisfies_all_relations_exactly(conv):
    chain = solve_chain(8, conv)
    for s in range(2, 10):
        assert relation_residual(build_relation(s), chain) == SymbolicValue.of()


def test_zprime_chain_triples():
    zps = extract_zprime_chain(3, A)
    assert zps[0] == SymbolicValue.of(Fraction(1, 12), Fraction(1, 6), Fraction(-1, 4))
    zps_b = extract_zprime_chain(3, B)
    assert zps_b[0] != zps[0]
    # everything lies in the symbolic field by construction
    assert all(isinstance(z, SymbolicValue) for z in zps + zps_b)


@pytest.mark.parametrize("conv", [A, B])
def test_zprime_chain_closed_forms(conv):
    # the README's closed forms, k = 2..40; q = B_(k+1)/(k+1)
    for k, zp in enumerate(extract_zprime_chain(40, conv)[1:], start=2):
        if k % 2 == 0:
            b = bernoulli(k)
            expected = SymbolicValue.of(b / 2 if conv is B else 0, b / 2, -b / 2)
        else:
            q = bernoulli(k + 1) / (k + 1)
            h = harmonic(k) - (Fraction(1, k + 1) if conv is B else 0)
            expected = SymbolicValue.of(q * h, -q, 0)
        assert zp == expected, k


def test_zprime_chain_numeric_value():
    with CTX.workdps():
        val = extract_zprime_chain(1, A)[0].numeric(CTX)
        assert abs(val - mpf("-0.2799333224520809")) < 1e-14


def test_discrepancy_report_delta1():
    rep = discrepancy_report(1, (A,), CTX)
    assert len(rep.rows) == 1
    row = rep.rows[0]
    with CTX.workdps():
        assert abs(row.delta - mpf("0.114512178751630")) < 1e-12


def test_discrepancy_differs_by_convention():
    rep = discrepancy_report(1, (A, B), CTX)
    assert rep.rows[0].delta != rep.rows[1].delta


def test_delta_stable_under_precision_doubling():
    fine = PrecisionContext(2 * CTX.digits)
    rep = discrepancy_report(2, (A,), CTX)
    rep2 = discrepancy_report(2, (A,), fine)
    with fine.workdps():
        for r1, r2 in zip(rep.rows, rep2.rows):
            assert abs(r1.delta - r2.delta) < mpf(10) ** (-CTX.digits + 5)


def test_report_has_odd_zeta_rows_only_for_even_k():
    rep = discrepancy_report(4, (A,), CTX)
    for row in rep.rows:
        if row.k % 2 == 0:
            assert row.zeta_odd_chain is not None
            assert row.zeta_odd_delta is not None
            # zeta(2k'+1) implied by the chain's own zeta'(-2k'), nothing else
            chain_zp = extract_zprime_chain(row.k, A)[row.k - 1].numeric(CTX)
            assert row.zeta_odd_chain == zeta_odd_from_zprime(row.k // 2, chain_zp, CTX)
        else:
            assert row.zeta_odd_chain is None


def test_report_serialization_roundtrip():
    rep = discrepancy_report(3, (A, B), CTX)
    data = json.loads(json.dumps(rep.to_dict()))
    back = chain_report_from_dict(data)
    # the text form is a fixed point: parsing and re-serializing changes nothing
    assert back.to_dict() == data
    assert (back.kmax, back.digits, len(back.rows)) == (rep.kmax, rep.digits, 6)
    odd_fields = ("zeta_odd_chain", "zeta_odd_oracle", "zeta_odd_delta")
    for r1, r2, d in zip(rep.rows, back.rows, data["rows"]):
        for f in fields(ChainRow):
            v1, v2 = getattr(r1, f.name), getattr(r2, f.name)
            if isinstance(v1, mpf):
                with CTX.workdps():
                    assert abs(v1 - v2) <= mpf(10) ** (-CTX.digits + 3) * max(1, abs(v1)), f.name
            else:
                # exact fields round-trip losslessly, and absent ones stay None
                assert v1 == v2, f.name
        assert all((name in d) == (r1.k % 2 == 0) for name in odd_fields)
