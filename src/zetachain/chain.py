"""The zeta'(0)-seeded recurrence chain and its discrepancy report.

Expanding (n+1)^s - n^s binomially turns the naive continuation of the
telescoping identity into a unit-triangular linear system for the
regularized sums S_j:  sum_{j=0}^{s-1} C(s,j) S_j = -zeta(1-s).  Seeded by
the exact S_0 derived from zeta'(0), the chain is solved entirely in
Q + Q*gamma + Q*ln(2pi); floating arithmetic enters only when the chain
values are compared against the classical oracle.

The solve runs on Python integers: each S_j is kept as three integer
numerators over one positive denominator, a row of the system costs
integer multiplies over a running lcm and one gcd, and each S_j becomes a
SymbolicValue (three reduced Fractions) once.  The binomial coefficients and right-hand sides
come from ``build_relation``, the one definition of the relations.
``relation_residual`` checks a solved chain on SymbolicValue arithmetic,
sharing no arithmetic with the solve.

The s = 1 relation is excluded: at s = 1 the naive continuation reads
S_0 - S_0 = -zeta(0), which is false (0 != 1/2), a boundary defect of the
heuristic that the chain does not try to repair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from mpmath import mpf

from .eulersums import s_from_zprime, zprime_from_s
from .precision import PrecisionContext, _working
from .values import SumConvention, SymbolicValue
from .zeta import _zeta_prime_routed, zeta_neg_int_exact, zeta_odd_from_zprime

_SEED = SymbolicValue.of(0, 0, Fraction(-1, 2))  # zeta'(0) = -(1/2) ln(2pi), exactly


@dataclass(frozen=True)
class RecurrenceRelation:
    """sum_{j=0}^{s-1} C(s,j) S_j = rhs, with rhs = -zeta(1-s) exact."""

    s: int
    coefficients: tuple[int, ...]
    rhs: Fraction


def build_relation(s: int) -> RecurrenceRelation:
    if s < 2:
        raise ValueError("the chain starts at s = 2; s = 1 is the defective boundary case")
    coeffs = tuple(math.comb(s, j) for j in range(s))
    return RecurrenceRelation(s, coeffs, -zeta_neg_int_exact(s))


def solve_chain(kmax: int, conv: SumConvention) -> list[SymbolicValue]:
    """S_0..S_kmax, exact, seeded by zeta'(0) and solved triangularly."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    s0 = s_from_zprime(1, _SEED, conv)
    parts = (s0.a, s0.b, s0.c)
    den = math.lcm(*(q.denominator for q in parts))
    # row j is S_j = (a, b, c) / d with d > 0; rows_den is the lcm of every d so far
    rows = [(tuple(q.numerator * (den // q.denominator) for q in parts), den)]
    rows_den = den
    values = [s0]
    for s in range(2, kmax + 2):
        rel = build_relation(s)
        common = math.lcm(rows_den, rel.rhs.denominator)
        a, b, c = rel.rhs.numerator * (common // rel.rhs.denominator), 0, 0
        for coeff, ((ra, rb, rc), d) in zip(rel.coefficients, rows):
            f = coeff * (common // d)
            a, b, c = a - f * ra, b - f * rb, c - f * rc
        den = common * rel.coefficients[s - 1]
        g = math.gcd(a, b, c, den)
        a, b, c, den = a // g, b // g, c // g, den // g
        rows.append(((a, b, c), den))
        rows_den = math.lcm(rows_den, den)
        values.append(SymbolicValue(Fraction(a, den), Fraction(b, den), Fraction(c, den)))
    return values


def relation_residual(rel: RecurrenceRelation, chain: list[SymbolicValue]) -> SymbolicValue:
    """sum_j C(s,j) S_j - rhs as an exact triple; the zero triple iff satisfied."""
    acc = SymbolicValue.of(-rel.rhs)
    for j in range(rel.s):
        acc = acc + chain[j] * rel.coefficients[j]
    return acc


def extract_zprime_chain(kmax: int, conv: SumConvention) -> list[SymbolicValue]:
    """zeta'(1-k)_chain for k = 2..kmax+1, i.e. zeta'(-1)..zeta'(-kmax), exact."""
    chain = solve_chain(kmax, conv)
    return [zprime_from_s(k, chain[k - 1], conv) for k in range(2, kmax + 2)]


@dataclass(frozen=True)
class ChainRow:
    k: int
    convention: SumConvention
    s_value: SymbolicValue  # S_k, the regularized sum H_n n^k
    zprime_chain: SymbolicValue  # zeta'(-k) per the chain
    zprime_numeric: mpf
    zprime_oracle: mpf
    delta: mpf
    zeta_odd_chain: mpf | None = None  # populated for even k = 2k'
    zeta_odd_oracle: mpf | None = None
    zeta_odd_delta: mpf | None = None


@dataclass(frozen=True)
class ChainReport:
    kmax: int
    digits: int
    rows: tuple[ChainRow, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        # serialize numerics at the report's own precision
        with _working(self.digits):
            return _encode(self)


def _encode(value):
    # mpf and Fraction as strings, dataclasses field by field with None fields left out
    if isinstance(value, (mpf, Fraction)):
        return str(value)
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, SumConvention):
        return value.value
    if is_dataclass(value):
        return {f.name: _encode(v) for f in fields(value) if (v := getattr(value, f.name)) is not None}
    return value


def _decode(tp, data):
    # inverse of _encode, driven by the annotation tp
    args = get_args(tp)
    if get_origin(tp) is tuple:
        return tuple(_decode(args[0], d) for d in data)
    if get_origin(tp) is UnionType:  # X | None
        (tp,) = (a for a in args if a is not type(None))
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        return tp(**{f.name: _decode(hints[f.name], data[f.name]) for f in fields(tp) if f.name in data})
    return tp(data)


def chain_report_from_dict(d: dict) -> ChainReport:
    # parse numerics at the precision they were serialized with
    with _working(d["digits"]):
        return _decode(ChainReport, d)


def discrepancy_report(
    kmax: int,
    conventions: tuple[SumConvention, ...],
    ctx: PrecisionContext,
) -> ChainReport:
    """Chain values vs oracle for k = 1..kmax under each convention.

    Delta_k is a finding, not a failure: the chain is exact in its symbolic
    field and the oracle is classical, so a nonzero Delta quantifies how far
    the heuristic summation sits from the classical values.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    # the classical side depends on k only, so it is evaluated once per k; at
    # even k the oracle's odd-zeta bridge hands back the zeta(k+1) it computed
    oracles = {k: _zeta_prime_routed(-k, ctx) for k in range(1, kmax + 1)}
    rows: list[ChainRow] = []
    for conv in conventions:
        chain = solve_chain(kmax, conv)
        for k in range(1, kmax + 1):
            zp_chain = zprime_from_s(k + 1, chain[k], conv)
            zp_oracle, odd_oracle = oracles[k]
            with ctx.workdps():
                zp_num = zp_chain.numeric(ctx)
                delta = ctx.round(abs(zp_num - zp_oracle))
                odd_chain = odd_delta = None
                if k % 2 == 0:
                    odd_chain = zeta_odd_from_zprime(k // 2, zp_num, ctx)
                    odd_delta = ctx.round(abs(odd_chain - odd_oracle))
            rows.append(
                ChainRow(
                    k=k,
                    convention=conv,
                    s_value=chain[k],
                    zprime_chain=zp_chain,
                    zprime_numeric=zp_num,
                    zprime_oracle=zp_oracle,
                    delta=delta,
                    zeta_odd_chain=odd_chain,
                    zeta_odd_oracle=odd_oracle,
                    zeta_odd_delta=odd_delta,
                )
            )
    return ChainReport(kmax=kmax, digits=ctx.digits, rows=tuple(rows))
