"""Precision contexts and fundamental constants.

Precision is always carried explicitly: every numeric operation takes a
PrecisionContext, computes internally at digits + GUARD decimal digits (the
guard is a fixed 10 digits) and rounds its result back to digits.  There is
no ambient global precision in the public API (mpmath's global context is
only touched inside workdps blocks, which restore it on exit).
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf

GUARD = 10  # decimal digits carried beyond the target precision


@dataclass(frozen=True)
class PrecisionContext:
    digits: int = 50

    def __post_init__(self) -> None:
        if self.digits < 15:
            raise ValueError("working precision must be at least 15 digits")

    @property
    def dps(self) -> int:
        """Internal working precision in decimal digits."""
        return self.digits + GUARD

    def workdps(self):
        """Context manager setting mpmath's precision to digits + GUARD."""
        return mpmath.workdps(self.dps)

    def tolerance(self, offset: int = 0) -> mpf:
        """10^(-digits + offset) as an mpf."""
        with self.workdps():
            return mpf(10) ** (-self.digits + offset)

    def round(self, x: mpf) -> mpf:
        """Round x to this context's target precision."""
        with mpmath.workdps(self.digits):
            return +x

    def doubled(self) -> "PrecisionContext":
        return PrecisionContext(2 * self.digits)


def const_pi(ctx: PrecisionContext) -> mpf:
    with ctx.workdps():
        return +mpmath.pi


def const_gamma(ctx: PrecisionContext) -> mpf:
    """Euler-Mascheroni constant."""
    with ctx.workdps():
        return +mpmath.euler


def const_log2pi(ctx: PrecisionContext) -> mpf:
    with ctx.workdps():
        return mpmath.log(2 * mpmath.pi)
