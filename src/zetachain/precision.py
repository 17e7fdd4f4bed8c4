"""Precision contexts, fundamental constants and the one owner of mpmath's precision.

Precision is always carried explicitly: every numeric operation takes a
PrecisionContext, computes internally at digits + GUARD decimal digits (the
guard is a fixed 10 digits) and rounds its result back to digits.  There is
no ambient global precision in the public API.

mpmath's working precision is one process-wide global, and this module is
the only one in zetachain that sets it: ``PrecisionContext.workdps()``,
``PrecisionContext.round()`` and the private ``_working(dps)`` blocks that
other modules enter all hold one re-entrant process-wide lock for the whole
block, set the precision on entry and restore it on exit.  What this
guarantees and what it does not:

- zetachain's own calls are serialized: a block of one thread never runs
  at another thread's precision, so concurrent callers get the values a
  serial run gives, and the tables below only ever hold entries built at
  their own precision.  Concurrent callers wait for each other; they gain
  no speed from threads.
- Other code that changes mpmath's global precision concurrently (a raw
  ``mpmath.workdps`` or ``mp.dps = ...`` in another thread) does not take
  the lock and is not covered.
- An mpf argument built at mpmath's ambient 15 digits caps the accuracy:
  ``digamma(mpf("0.3"), ctx)`` is off by about 1e-16 whatever ctx is.
  Pass str, int or Fraction arguments, which are parsed at the working
  precision.

Series coefficients that depend only on the working precision (the
Stirling kernel's fixed-point B_2j ratios, the Euler-Maclaurin B_2j terms
and the Gauss-Legendre quadrature nodes) live in per-precision tables:
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

# held by every _working block and by every table update
_lock = threading.RLock()


class _working:
    """Hold the precision lock and set mpmath's precision to dps for a with-block.

    Re-entrant: a block may enter further blocks, and each exit restores the
    precision its entry found.
    """

    __slots__ = ("_dps", "_saved")

    def __init__(self, dps: int) -> None:
        self._dps = dps

    def __enter__(self) -> None:
        _lock.acquire()
        try:
            self._saved = mpmath.mp.prec
            mpmath.mp.dps = self._dps
        except BaseException:  # e.g. a dps that is not a number: never leave the lock held
            _lock.release()
            raise

    def __exit__(self, *exc) -> None:
        mpmath.mp.prec = self._saved
        _lock.release()


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
        """Context manager holding mpmath's precision at digits + GUARD."""
        return _working(self.dps)

    def tolerance(self, offset: int = 0) -> mpf:
        """10^(-digits + offset) as an mpf."""
        with self.workdps():
            return mpf(10) ** (-self.digits + offset)

    def round(self, x: mpf) -> mpf:
        """Round x to this context's target precision."""
        with _working(self.digits):
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
    """

    __slots__ = ("_build", "_args", "_items")

    def __init__(self, build, args: tuple) -> None:
        self._build = build
        self._args = args
        self._items: list = []

    def __getitem__(self, j: int):
        items = self._items
        if j > len(items):
            with _lock:
                while len(items) < j:
                    items.append(self._build(*self._args, len(items) + 1))
        return items[j - 1]


def _coefficients(build, *args) -> _Coefficients:
    """The table of c(j) = build(*args, j) at the current mpmath precision."""
    key = (build, args)
    with _lock:
        prec = mpmath.mp.prec
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
