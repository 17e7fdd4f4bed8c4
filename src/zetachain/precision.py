"""Precision contexts, fundamental constants and the one owner of mpmath's precision.

Precision is always carried explicitly: every numeric operation takes a
PrecisionContext, computes internally at digits + GUARD decimal digits (the
guard is a fixed 10 digits) and rounds its result back to digits.  There is
no ambient global precision in the public API.

mpmath's working precision is one process-wide global, and this module is
the only one in zetachain that sets it: ``PrecisionContext.workdps()`` and
the private ``_working(dps)`` blocks that other modules enter all hold one
re-entrant process-wide lock for the whole block, set the precision on
entry and restore it on exit.  ``PrecisionContext.round()`` opens no such
block: it is one libmp ``mpf_pos`` at the target precision, given
explicitly, so it takes no lock and reads and sets no global.  What this
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

Everything cached here depends only on the working precision, and is
kept in per-precision tables of two kinds, each entry built on first use
by the caller's own expression at its table's precision, so a value read
back is the value an inline build gives:

- ``_coefficients(build, *args)``: the series c(j) = build(*args, j),
  j >= 1, grown one coefficient at a time as far as some caller reached
  (the Stirling kernel's fixed-point B_2j ratios, the Euler-Maclaurin
  B_2j terms and the Gauss-Legendre rule on [-1, 1]).  log(2 pi) is one
  more entry, stored under its build (``const_log2pi``).  Unbounded: a
  series stops where its callers stop.
- ``_node_lists(build)``: the quadrature node lists that build makes, by
  key, each stored whole (``table(*key)``) or grown entry by entry as the
  series build(*key, i) (``table.series`` and ``table.node``).  The
  ``quadrature`` module keeps its nodes here, and beside them the
  transcendental kernels its callers' integrands read at each node.  A
  table holds at most _NODE_LIST_CAP entries; a whole list that does not
  fit in what is left is built on every call and not stored, and so is a
  series entry past the cap.

The tables of the _COEFF_SLOTS most recently used precisions are kept (an
LRU over precisions), and a precision's tables leave together.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import mpmath
from mpmath import mpf
from mpmath.libmp import dps_to_prec, mpf_pos, round_nearest

GUARD = 10  # decimal digits carried beyond the target precision

_COEFF_SLOTS = 16
_NODE_LIST_CAP = 8192  # entries per node-list table and precision

# mpmath prec -> {(build, args): _Coefficients, (build, None): _NodeLists,
#                 build: constant}
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
        if not isinstance(self.digits, int):
            raise TypeError(f"digits must be an int, not {type(self.digits).__name__}")
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
        """Round x to this context's target precision.

        The libmp call behind +x under mp.dps = digits, at that precision
        given explicitly: it takes no lock and leaves mpmath's precision alone.
        """
        return mpmath.mp.make_mpf(mpf_pos(x._mpf_, dps_to_prec(self.digits), round_nearest))


def const_gamma(ctx: PrecisionContext) -> mpf:
    """Euler-Mascheroni constant."""
    with ctx.workdps():
        return +mpmath.euler


def _log2pi() -> mpf:
    return mpmath.log(2 * mpmath.pi)


def const_log2pi(ctx: PrecisionContext) -> mpf:
    """log(2 pi), built once per precision."""
    with ctx.workdps():
        return _table(_log2pi, _log2pi)


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


def _table(key, make, *args):
    """The table stored under key at the current mpmath precision, make(*args) on first use."""
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
            table = tables[key] = make(*args)
        return table


def _coefficients(build, *args) -> _Coefficients:
    """The table of c(j) = build(*args, j) at the current mpmath precision."""
    return _table((build, args), _Coefficients, build, args)


class _NodeLists(dict):
    """Lists of quadrature nodes at one precision, by key, _NODE_LIST_CAP entries in all.

    A list is either whole or a series:

    - ``table(*key)`` returns the list build(*key), stored whole if the
      table has room for it and else built on every call;
    - ``table.series(*key)`` returns the stored prefix of the series
      build(*key, i), i = 0, 1, ..., and ``table.node(nodes, key, i)``
      builds its i-th node and appends it while the table has room.

    ``size`` counts the entries held.  A write holds the lock; a read takes
    none.
    """

    __slots__ = ("_build", "size")

    def __init__(self, build) -> None:
        super().__init__()
        self._build = build
        self.size = 0

    def __call__(self, *key) -> list:
        nodes = self.get(key)
        if nodes is None:
            nodes = self._build(*key)
            with _lock:
                if key not in self and self.size + len(nodes) <= _NODE_LIST_CAP:
                    self[key] = nodes
                    self.size += len(nodes)
        return nodes

    def series(self, *key) -> list:
        with _lock:
            return self.setdefault(key, [])

    def node(self, nodes: list, key: tuple, i: int):
        node = self._build(*key, i)
        with _lock:
            if len(nodes) == i and self.size < _NODE_LIST_CAP:
                nodes.append(node)
                self.size += 1
        return node


def _node_lists(build) -> _NodeLists:
    """The table of quadrature node lists that build makes, at the current mpmath precision."""
    return _table((build, None), _NodeLists, build)
