"""Precision contexts and fundamental constants.

Precision is always carried explicitly: every numeric operation takes a
PrecisionContext, computes internally at digits + GUARD decimal digits (the
guard is a fixed 10 digits) and rounds its result back to digits.  There is
no ambient global precision in the public API (mpmath's global context is
only touched inside workdps blocks, which restore it on exit).

Series coefficients that depend only on the working precision (the
Stirling and Euler-Maclaurin kernels' B_2j terms, and the tanh-sinh
quadrature nodes of each level) live in per-precision tables:
``_coefficients(build, *args)`` returns the table of the series
c(j) = build(*args, j), j >= 1, at the current mpmath prec.  An entry is
built once, on first use, at that prec and with the caller's own
expression, so values are the same as building it inline; a table grows
one coefficient at a time and holds only the coefficients some caller
reached.  The tables of the _COEFF_SLOTS most recently used precisions
are kept (an LRU over precisions).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import mpmath
from mpmath import mpf

GUARD = 10  # decimal digits carried beyond the target precision

_COEFF_SLOTS = 16

# mpmath prec -> {(build, args): _Coefficients}
_coeff_tables: OrderedDict[int, dict] = OrderedDict()
_coeff_lock = threading.Lock()


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


def const_gamma(ctx: PrecisionContext) -> mpf:
    """Euler-Mascheroni constant."""
    with ctx.workdps():
        return +mpmath.euler


def const_log2pi(ctx: PrecisionContext) -> mpf:
    with ctx.workdps():
        return mpmath.log(2 * mpmath.pi)


class _Coefficients:
    """c(1), c(2), ... of one series at one precision, each built on first use.

    Entries are appended under the lock, in order, so concurrent readers
    never see a gap or a duplicate; a read of an existing entry takes no lock.
    The lock is not reentrant, so a build must not read a table itself.
    """

    __slots__ = ("_build", "_args", "_items")

    def __init__(self, build, args: tuple) -> None:
        self._build = build
        self._args = args
        self._items: list[mpf] = []

    def __getitem__(self, j: int) -> mpf:
        items = self._items
        if j > len(items):
            with _coeff_lock:
                while len(items) < j:
                    items.append(self._build(*self._args, len(items) + 1))
        return items[j - 1]


def _coefficients(build, *args) -> _Coefficients:
    """The table of c(j) = build(*args, j) at the current mpmath precision."""
    prec = mpmath.mp.prec
    key = (build, args)
    with _coeff_lock:
        tables = _coeff_tables.get(prec)
        if tables is None:
            tables = _coeff_tables[prec] = {}
            while len(_coeff_tables) > _COEFF_SLOTS:
                _coeff_tables.popitem(last=False)
        else:
            _coeff_tables.move_to_end(prec)
        table = tables.get(key)
        if table is None:
            table = tables[key] = _Coefficients(build, args)
        return table
