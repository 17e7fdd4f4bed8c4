"""Exact symbolic values in the field Q + Q*gamma + Q*ln(2pi), and the evaluator of exact forms.

Every quantity produced by the zeta'(0)-seeded recurrence chain lives in
this three-dimensional rational vector space, so the chain can be solved
with no floating arithmetic at all; numerics enter only when ``_evaluate``
evaluates a form, for ``SymbolicValue.numeric`` and the Ramanujan spread.
"""

from __future__ import annotations

import enum
from fractions import Fraction

import mpmath
from mpmath import mpf
from mpmath.libmp import dps_to_prec, from_int, mpf_add, mpf_div, mpf_mul, round_nearest

from .exact import GAMMA, LOG_2PI, ONE, LinearForm
from .precision import PrecisionContext, const_gamma, const_log2pi


class SumConvention(enum.Enum):
    """Index range of the double-Bernoulli sum over l + m = k.

    The l = 0 term is excluded in both variants (B_l/l is undefined there);
    A lets m = 0 contribute (l = 1..k), B does not (l = 1..k-1).
    """

    A = "A"
    B = "B"


class SymbolicValue(LinearForm):
    """a + b*gamma + c*ln(2pi) with exact rational components: the LinearForm on ONE, GAMMA and LOG_2PI."""

    a = property(lambda self: self.get(ONE, 0))
    b = property(lambda self: self.get(GAMMA, 0))
    c = property(lambda self: self.get(LOG_2PI, 0))

    @staticmethod
    def of(a: int | Fraction = 0, b: int | Fraction = 0, c: int | Fraction = 0) -> SymbolicValue:
        return SymbolicValue._wrap({key: q for key, q in ((ONE, a), (GAMMA, b), (LOG_2PI, c)) if q})

    def numeric(self, ctx: PrecisionContext) -> mpf:
        """a + b*gamma + c*ln(2pi) at ctx's working precision, rounded to ctx.digits; ValueError on any other term."""
        return ctx.round(_evaluate(self, {GAMMA: const_gamma(ctx), LOG_2PI: const_log2pi(ctx)}, ctx))


def _evaluate(form: LinearForm, basis: dict, ctx: PrecisionContext) -> mpf:
    """form at ctx's working precision, given the value of each basis vector but 1.

    The term of 1 first, then those of basis in its order: the libmp calls of
    mpf(p) / q times the basis value, added, on raw values at the working
    precision given explicitly.  ValueError on a term basis has no value for.
    """
    if stray := form.keys() - {ONE, *basis}:
        raise ValueError(f"no basis value for {stray} in {form}")
    prec, rnd, total = dps_to_prec(ctx.dps), round_nearest, from_int(0)
    for key, value in ((ONE, None), *basis.items()):
        if (q := form.get(key)) is not None:
            term = mpf_div(from_int(q.numerator, prec, rnd), from_int(q.denominator), prec, rnd)
            total = mpf_add(total, term if value is None else mpf_mul(term, value._mpf_, prec, rnd), prec, rnd)
    return mpmath.mp.make_mpf(total)
