"""Exact symbolic values in the field Q + Q*gamma + Q*ln(2pi).

Every quantity produced by the zeta'(0)-seeded recurrence chain lives in
this three-dimensional rational vector space, so the chain can be solved
with no floating arithmetic at all; numerics enter only when a triple is
evaluated against a precision context.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath
from mpmath import mpf
from mpmath.libmp import dps_to_prec, from_int, mpf_add, mpf_div, mpf_mul, round_nearest

from .precision import PrecisionContext, const_gamma, const_log2pi

RationalLike = Union[int, Fraction]


class SumConvention(enum.Enum):
    """Index range of the double-Bernoulli sum over l + m = k.

    The l = 0 term is excluded in both variants (B_l/l is undefined there);
    A lets m = 0 contribute (l = 1..k), B does not (l = 1..k-1).
    """

    A = "A"
    B = "B"


@dataclass(frozen=True)
class SymbolicValue:
    """a + b*gamma + c*ln(2pi) with exact rational components."""

    a: Fraction
    b: Fraction
    c: Fraction

    @staticmethod
    def of(a: RationalLike = 0, b: RationalLike = 0, c: RationalLike = 0) -> "SymbolicValue":
        return SymbolicValue(Fraction(a), Fraction(b), Fraction(c))

    def __add__(self, other: "SymbolicValue") -> "SymbolicValue":
        return SymbolicValue(self.a + other.a, self.b + other.b, self.c + other.c)

    def __neg__(self) -> "SymbolicValue":
        return SymbolicValue(-self.a, -self.b, -self.c)

    def scale(self, q: RationalLike) -> "SymbolicValue":
        q = Fraction(q)
        return SymbolicValue(self.a * q, self.b * q, self.c * q)

    def __mul__(self, q: RationalLike) -> "SymbolicValue":
        return self.scale(q)

    def numeric(self, ctx: PrecisionContext) -> mpf:
        """a + b*gamma + c*ln(2pi) at ctx's working precision, rounded to ctx.digits.

        The libmp calls behind mpf(p) / q for each part, the two products and
        the two sums, in the operators' order, on raw values at the working
        precision given explicitly.
        """
        prec = dps_to_prec(ctx.dps)
        a, b, c = (
            mpf_div(from_int(q.numerator, prec, round_nearest), from_int(q.denominator), prec, round_nearest)
            for q in (self.a, self.b, self.c)
        )
        b = mpf_mul(b, const_gamma(ctx)._mpf_, prec, round_nearest)
        c = mpf_mul(c, const_log2pi(ctx)._mpf_, prec, round_nearest)
        val = mpf_add(mpf_add(a, b, prec, round_nearest), c, prec, round_nearest)
        return ctx.round(mpmath.mp.make_mpf(val))

    def __str__(self) -> str:
        return f"{self.a} + ({self.b})*gamma + ({self.c})*log(2*pi)"
