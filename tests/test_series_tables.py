"""Per-precision coefficient tables of the Stirling and Euler-Maclaurin kernels.

A table must serve only the precision it was built at, hold each
coefficient once and in order, and make a warm call do no Bernoulli work.
"""

import sys
import threading
from collections import OrderedDict

import mpmath

from zetachain import exact, precision, special, zeta
from zetachain.eulersums import h_euler
from zetachain.precision import PrecisionContext, _coefficients
from zetachain.special import _stirling_coefficient, digamma, gamma_fn, polygamma
from zetachain.zeta import _em_coefficient, zeta_em, zeta_prime_em

# one precision revisited after others, so a table built at one precision
# serving another would show
DIGITS_ORDER = (50, 120, 15, 50)

CALLS = {
    "digamma": lambda ctx: digamma("0.3", ctx),
    "polygamma_5": lambda ctx: polygamma(5, "1.75", ctx),
    "polygamma_64": lambda ctx: polygamma(64, "60.5", ctx),
    "gamma": lambda ctx: gamma_fn("7.25", ctx),
    "zeta": lambda ctx: zeta_em("2.5", ctx),
    "zeta_prime": lambda ctx: zeta_prime_em("-2.5", ctx),
    "h_euler": lambda ctx: h_euler("2.5", ctx),
}


def _values(digits):
    ctx = PrecisionContext(digits)
    return {name: call(ctx) for name, call in CALLS.items()}


def test_warm_tables_make_no_bernoulli_calls(monkeypatch):
    ctx = PrecisionContext(50)
    runs = (
        lambda: digamma("0.3", ctx),
        lambda: polygamma(5, "1.75", ctx),
        lambda: zeta_em("2.5", ctx),
    )
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return exact.bernoulli(*args, **kwargs)

    for run in runs:
        run()
    monkeypatch.setattr(special, "bernoulli", counting)
    monkeypatch.setattr(zeta, "bernoulli", counting)
    for run in runs:
        run()
    assert calls[0] == 0
    # the counter does see the coefficient builds once the tables are empty
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    for run in runs:
        run()
    assert calls[0] > 0


def test_interleaved_precisions_match_empty_tables(monkeypatch):
    # two slots, so tables are evicted and rebuilt along the way
    monkeypatch.setattr(precision, "_COEFF_SLOTS", 2)
    fresh = {}
    for digits in set(DIGITS_ORDER):
        monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
        fresh[digits] = _values(digits)
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    for digits in DIGITS_ORDER:
        assert _values(digits) == fresh[digits], digits
        assert len(precision._coeff_tables) <= 2


def test_tables_under_threads(monkeypatch):
    # mpmath's precision is process-global, so every thread of one round
    # works at the precision the main thread holds; the rounds alternate
    # between two precisions that share the cache
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    series = [(_em_coefficient, ())] + [(_stirling_coefficient, (m,)) for m in (-1, 0, 1, 5)]
    terms = 100
    errors = []

    def worker(start, expected):
        # all threads start at once and ask for the last term first, so they
        # race to grow the same empty tables
        try:
            start.wait(timeout=60)
            for build, args in series:
                for j in range(terms, 0, -1):
                    assert _coefficients(build, *args)[j] == expected[build, args][j - 1]
        except Exception as exc:  # reported through errors, read below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for digits in (50, 120, 50):
            with mpmath.workdps(digits):
                expected = {
                    (build, args): [build(*args, j) for j in range(1, terms + 1)]
                    for build, args in series
                }
                start = threading.Barrier(8)
                threads = [threading.Thread(target=worker, args=(start, expected)) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                # each coefficient was appended once, in order
                for (build, args), values in expected.items():
                    assert _coefficients(build, *args)._items == values
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(precision._coeff_tables) == 2
