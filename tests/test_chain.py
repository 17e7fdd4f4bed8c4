from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

from zetachain.chain import (
    discrepancy_report,
    extract_zprime_chain,
    relation_residual,
    solve_chain,
)
from zetachain.exact import LinearForm, bernoulli, harmonic
from zetachain.precision import PrecisionContext
from zetachain.values import SumConvention, SymbolicValue
from zetachain.zeta import zeta_odd_from_zprime

CTX = PrecisionContext(50)
A = SumConvention.A
B = SumConvention.B


def test_relation_residual_rejects_boundary_case():
    # s = 1 is the defective boundary relation, and s = 0 names no relation
    chain = solve_chain(2, A)
    for s in (1, 0, -1):
        with pytest.raises(ValueError, match="boundary"):
            relation_residual(s, chain)


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
    # the integer solve against relation_residual's re-derivation on
    # SymbolicValue arithmetic; at kmax = 60 the rows' common denominator has 33 digits (6 at kmax = 8)
    # and the numerators up to 49
    for kmax in (8, 60):
        chain = solve_chain(kmax, conv)
        for s in range(2, kmax + 2):
            assert relation_residual(s, chain) == SymbolicValue.of(), (kmax, s)


def test_zprime_chain_triples():
    zps = extract_zprime_chain(3, A)
    assert zps[0] == SymbolicValue.of(Fraction(1, 12), Fraction(1, 6), Fraction(-1, 4))
    zps_b = extract_zprime_chain(3, B)
    assert zps_b[0] != zps[0]
    # everything lies in the symbolic field by construction
    assert all(isinstance(z, SymbolicValue) for z in zps + zps_b)


@pytest.mark.parametrize("conv", [A, B])
def test_zprime_chain_closed_forms(conv):
    # the README's closed forms, k = 2..60; q = B_(k+1)/(k+1)
    for k, zp in enumerate(extract_zprime_chain(60, conv)[1:], start=2):
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


def test_symbolic_value_with_a_zeta_prime_term_is_not_evaluated():
    # a chain value that picks up a zeta'(-1) term stays a SymbolicValue and
    # shows the term, and numeric raises rather than evaluate it without it
    value = extract_zprime_chain(1, A)[0] + LinearForm({("zeta'", 1): 1})
    assert isinstance(value, SymbolicValue)
    assert str(value) == "1/12 + (1/6)*gamma + (-1/4)*log(2*pi) + (1)*zeta'(-1)"
    with pytest.raises(ValueError, match="zeta'"):
        value.numeric(CTX)
    assert (value - LinearForm({("zeta'", 1): 1})).numeric(CTX) == extract_zprime_chain(1, A)[0].numeric(CTX)


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


def test_readme_quick_start_runs_as_written(capsys):
    # the README's Quick start block, run as written, prints what its
    # comments say: the exact triple, the oracle value and the delta
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## Quick start\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "1/12 + (1/6)*gamma + (-1/4)*log(2*pi)"
    # zeta'(-1) and Delta_1 printed at the 50 digits asked for, checked against mpmath
    with mpmath.workdps(70):
        zp = mpmath.zeta(-1, derivative=1)
        chain_zp = mpf(1) / 12 + mpmath.euler / 6 - mpmath.log(2 * mpmath.pi) / 4
        for line, expected in zip(lines[1:], (zp, abs(chain_zp - zp))):
            assert abs(mpf(line) - expected) < mpf(10) ** -45, line
