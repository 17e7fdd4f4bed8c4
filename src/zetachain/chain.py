"""The zeta'(0)-seeded recurrence chain and its discrepancy report.

Expanding (n+1)^s - n^s binomially turns the naive continuation of the
telescoping identity into a unit-triangular linear system for the
regularized sums S_j:  sum_{j=0}^{s-1} C(s,j) S_j = -zeta(1-s).  Seeded by
the exact S_0 derived from zeta'(0), the chain is solved entirely in
Q + Q*gamma + Q*ln(2pi); floating arithmetic enters only when the chain
values are compared against the classical oracle.

The s = 1 relation is excluded: at s = 1 the naive continuation reads
S_0 - S_0 = -zeta(0), which is false (0 != 1/2), a boundary defect of the
heuristic that the chain does not try to repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mpf

from .exact import binomial
from .eulersums import s_from_zprime, zprime_from_s
from .precision import PrecisionContext
from .values import RegularizedSum, SumConvention, SymbolicValue
from .zeta import zeta_em, zeta_neg_int_exact, zeta_odd_from_zprime, zeta_prime_oracle

_SEED = SymbolicValue.of(0, 0, Fraction(-1, 2))  # zeta'(0) = -(1/2) ln(2pi), exactly


@dataclass(frozen=True)
class RecurrenceRelation:
    """sum_{j=0}^{s-1} C(s,j) S_j = rhs, with rhs = -zeta(1-s) exact."""

    s: int
    coefficients: tuple[Fraction, ...]
    rhs: Fraction


def build_relation(s: int) -> RecurrenceRelation:
    if s < 2:
        raise ValueError("the chain starts at s = 2; s = 1 is the defective boundary case")
    coeffs = tuple(binomial(s, j) for j in range(s))
    return RecurrenceRelation(s, coeffs, -zeta_neg_int_exact(s))


def solve_chain(kmax: int, conv: SumConvention) -> list[RegularizedSum]:
    """S_0..S_kmax, exact, seeded by zeta'(0) and solved triangularly."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    seed = s_from_zprime(1, _SEED, conv, provenance="chain")
    values: list[SymbolicValue] = [seed.value]
    for s in range(2, kmax + 2):
        rel = build_relation(s)
        acc = SymbolicValue.rational(rel.rhs)
        for j in range(s - 1):
            acc = acc - values[j] * rel.coefficients[j]
        values.append(acc / rel.coefficients[s - 1])
    return [RegularizedSum(j, v, conv, "chain") for j, v in enumerate(values)]


def relation_residual(rel: RecurrenceRelation, chain: list[RegularizedSum]) -> SymbolicValue:
    """sum_j C(s,j) S_j - rhs as an exact triple; the zero triple iff satisfied."""
    acc = SymbolicValue.rational(-rel.rhs)
    for j in range(rel.s):
        acc = acc + chain[j].value * rel.coefficients[j]
    return acc


def extract_zprime_chain(kmax: int, conv: SumConvention) -> list[SymbolicValue]:
    """zeta'(1-k)_chain for k = 2..kmax+1, i.e. zeta'(-1)..zeta'(-kmax), exact."""
    chain = solve_chain(kmax, conv)
    return [zprime_from_s(k, chain[k - 1]) for k in range(2, kmax + 2)]


def zeta_odd_chain(k: int, conv: SumConvention, ctx: PrecisionContext) -> mpf:
    """zeta(2k+1) implied by the chain value of zeta'(-2k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    zp = extract_zprime_chain(2 * k, conv)[2 * k - 1]
    return zeta_odd_from_zprime(k, zp.numeric(ctx), ctx)


def oracle_seeded_residual(s: int, conv: SumConvention, ctx: PrecisionContext) -> mpf:
    """Residual of relation s when every S_j comes from oracle zeta'(1-j-1) values.

    This is the paper's unproven step measured directly: it is reported,
    never asserted to vanish.
    """
    rel = build_relation(s)
    with ctx.workdps():
        acc = -mpf(rel.rhs.numerator) / rel.rhs.denominator
        for j in range(s):
            k = j + 1
            zp = zeta_prime_oracle(1 - k, ctx)
            sval = s_from_zprime(k, zp, conv, ctx, provenance="closed_form")
            c = rel.coefficients[j]
            acc += mpf(c.numerator) / c.denominator * sval.value
        return ctx.round(acc)


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

    def to_dict(self) -> dict:
        d = {
            "k": self.k,
            "convention": self.convention.value,
            "s_value": self.s_value.as_strings(),
            "zprime_chain": self.zprime_chain.as_strings(),
            "zprime_numeric": str(self.zprime_numeric),
            "zprime_oracle": str(self.zprime_oracle),
            "delta": str(self.delta),
        }
        if self.zeta_odd_chain is not None:
            d["zeta_odd_chain"] = str(self.zeta_odd_chain)
            d["zeta_odd_oracle"] = str(self.zeta_odd_oracle)
            d["zeta_odd_delta"] = str(self.zeta_odd_delta)
        return d


@dataclass(frozen=True)
class ChainReport:
    kmax: int
    digits: int
    rows: tuple[ChainRow, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        import mpmath

        # serialize numerics at the report's own precision
        with mpmath.workdps(self.digits):
            return {
                "kmax": self.kmax,
                "digits": self.digits,
                "rows": [r.to_dict() for r in self.rows],
            }


def _sym_from_strings(d: dict[str, str]) -> SymbolicValue:
    return SymbolicValue(Fraction(d["a"]), Fraction(d["b"]), Fraction(d["c"]))


def chain_report_from_dict(d: dict) -> ChainReport:
    import mpmath

    rows = []
    # parse numerics at the precision they were serialized with
    with mpmath.workdps(d["digits"]):
        for r in d["rows"]:
            rows.append(
                ChainRow(
                    k=r["k"],
                    convention=SumConvention(r["convention"]),
                    s_value=_sym_from_strings(r["s_value"]),
                    zprime_chain=_sym_from_strings(r["zprime_chain"]),
                    zprime_numeric=mpf(r["zprime_numeric"]),
                    zprime_oracle=mpf(r["zprime_oracle"]),
                    delta=mpf(r["delta"]),
                    zeta_odd_chain=mpf(r["zeta_odd_chain"]) if "zeta_odd_chain" in r else None,
                    zeta_odd_oracle=mpf(r["zeta_odd_oracle"]) if "zeta_odd_oracle" in r else None,
                    zeta_odd_delta=mpf(r["zeta_odd_delta"]) if "zeta_odd_delta" in r else None,
                )
            )
    return ChainReport(kmax=d["kmax"], digits=d["digits"], rows=tuple(rows))


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
    rows: list[ChainRow] = []
    for conv in conventions:
        chain = solve_chain(kmax, conv)
        for k in range(1, kmax + 1):
            zp_chain = zprime_from_s(k + 1, chain[k])
            with ctx.workdps():
                zp_num = zp_chain.numeric(ctx)
                zp_oracle = zeta_prime_oracle(-k, ctx)
                delta = ctx.round(abs(zp_num - zp_oracle))
                odd_chain = odd_oracle = odd_delta = None
                if k % 2 == 0:
                    kp = k // 2
                    odd_chain = zeta_odd_from_zprime(kp, zp_num, ctx)
                    odd_oracle = zeta_em(2 * kp + 1, ctx)
                    odd_delta = ctx.round(abs(odd_chain - odd_oracle))
            rows.append(
                ChainRow(
                    k=k,
                    convention=conv,
                    s_value=chain[k].value,
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
