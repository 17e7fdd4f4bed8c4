"""Per-precision coefficient, constant and node tables and the one owner of mpmath's precision.

A table must serve only the precision it was built at, hold each
coefficient once and in order, and make a warm call do no Bernoulli work.
Threads at different precisions must get the values a serial run gives and
leave only entries built at their table's own precision.  Quadrature node
tables must build each node once per precision and stay within their bound.
"""

import functools
import sys
import threading
from collections import OrderedDict

import mpmath
import pytest

from zetachain import exact, hankel, precision, quadrature, special, zeta
from zetachain.eulersums import h_euler, mellin_fundamental_check
from zetachain.hankel import ContourSpec, bernoulli_interp, bernoulli_prime_interp
from zetachain.precision import PrecisionContext, _coefficients
from zetachain.quadrature import integrate
from zetachain.special import _stirling_ratio, digamma, gamma_fn, polygamma
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
        lambda: h_euler("2.5", ctx),
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
    series = [(_em_coefficient, ())] + [(_stirling_ratio, (m,)) for m in (-1, 0, 1, 5)]
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


RACE_CALLS = {
    "digamma": lambda ctx: digamma("0.3", ctx),
    "polygamma_3": lambda ctx: polygamma(3, "1.75", ctx),
    "zeta": lambda ctx: zeta_em(3, ctx),
    "zeta_prime": lambda ctx: zeta_prime_em("-2.5", ctx),
    "quad": lambda ctx: integrate(lambda x: mpmath.exp(x) / (1 + x * x), 0, 2, ctx).value,
    "quad_half_line": lambda ctx: integrate(lambda x: mpmath.exp(-x) / (1 + x), 0, mpmath.inf, ctx).value,
    "log2pi": precision.const_log2pi,
    "gamma": precision.const_gamma,
}


def _race_values(digits):
    ctx = PrecisionContext(digits)
    return {name: call(ctx) for name, call in RACE_CALLS.items()}


def _stored(key, table):
    """(build, entry, stored value, rebuilt value) of each entry of one table, at the current prec."""
    if isinstance(table, precision._Coefficients):
        build, args = key
        for j, got in enumerate(table._items, 1):
            yield build, (args, j), got, build(*args, j)
    elif isinstance(table, precision._NodeLists):
        for k, got in table.items():
            # an exp-exp walk, with or without its kernels, is a series,
            # node i = build(*k, i); a Gauss-Legendre list, of nodes or of
            # nodes and kernels, is built whole
            if table._build in (quadrature._exp_exp_node, quadrature._exp_exp_kernels):
                yield table._build, k, got, [table._build(*k, i) for i in range(len(got))]
            else:
                yield table._build, k, got, table._build(*k)
    else:  # a constant, stored under its build
        yield key, None, table, key()


def _wrong_table_entries():
    """(prec, build, entry) of each stored entry that differs from a rebuild at its table's prec."""
    wrong = []
    # a rebuild may read, and so reorder, the tables it is checked against
    for prec, tables in list(precision._coeff_tables.items()):
        with mpmath.workprec(prec):
            for key, table in list(tables.items()):
                for build, entry, got, rebuilt in _stored(key, table):
                    if got != rebuilt:
                        wrong.append((prec, build.__name__, entry))
    return wrong


def test_threads_at_different_precisions_match_serial(monkeypatch):
    # one thread at 120 digits and two at 15 share mpmath's one global
    # precision and start each round on an empty table cache
    digits = (120, 15, 15)
    serial = {}
    for d in set(digits):
        monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
        serial[d] = _race_values(d)
    results, errors, wrong = [], [], []

    def worker(start, d):
        try:
            start.wait(timeout=60)
            results.append((d, _race_values(d)))
        except Exception as exc:  # reported through errors, read below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
            start = threading.Barrier(len(digits))
            threads = [threading.Thread(target=worker, args=(start, d)) for d in digits]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            wrong += _wrong_table_entries()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(results) == 3 * len(digits)
    mismatched = [(d, name) for d, values in results for name in values if values[name] != serial[d][name]]
    assert mismatched == []
    assert wrong == []


def test_round_under_another_threads_precision_block():
    # ctx.round is one libmp call at its own precision: while another thread
    # holds a 120-digit block it neither waits for that block nor changes
    # the precision the block set
    with mpmath.workdps(80):
        values = [+mpmath.pi, -mpmath.e / 7, mpmath.mpf(1) + mpmath.mpf(2) ** -60]
    ctx = PrecisionContext(15)
    serial = [ctx.round(v)._mpf_ for v in values]
    held, release = threading.Event(), threading.Event()

    def holder():
        with precision._working(120):
            held.set()
            release.wait(timeout=60)

    t = threading.Thread(target=holder)
    t.start()
    try:
        assert held.wait(timeout=60)
        prec = mpmath.mp.prec
        seen = []
        r = threading.Thread(
            target=lambda: seen.append(([ctx.round(v)._mpf_ for v in values], mpmath.mp.prec)), daemon=True
        )
        r.start()
        r.join(timeout=30)
        assert seen, "round waited for another thread's precision block"
        assert seen[0] == (serial, prec)
        assert mpmath.mp.prec == prec == mpmath.libmp.dps_to_prec(120)
    finally:
        release.set()
        t.join(timeout=60)


def test_a_rejected_precision_leaves_the_lock_free():
    # mpmath rejecting the digits a precision block is entered at must not
    # leave the precision lock held against every other thread
    with pytest.raises(ValueError):
        with precision._working("x"):
            pass
    done = []
    t = threading.Thread(target=lambda: done.append(PrecisionContext(15).tolerance()), daemon=True)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive() and done


# the node lists of the Hankel and Mellin integrands, with their kernels
NODE_CALLS = {
    "B_2.5": lambda: bernoulli_interp("1.5", ContourSpec(), PrecisionContext(50)),
    "B'_2.5": lambda: bernoulli_prime_interp("2.5", ContourSpec(), PrecisionContext(50)),
    "B_4 at radius 3": lambda: bernoulli_interp(3, ContourSpec(radius=3), PrecisionContext(30)),
    "mellin": lambda: mellin_fundamental_check("2.5", PrecisionContext(50)),
}
NODE_FILL = (
    # other u, other s, another radius, another precision
    lambda: bernoulli_interp("0.7", ContourSpec(), PrecisionContext(50)),
    lambda: bernoulli_prime_interp("3.2", ContourSpec(), PrecisionContext(50)),
    lambda: mellin_fundamental_check("3.5", PrecisionContext(50)),
    lambda: bernoulli_prime_interp("2.5", ContourSpec(radius=3), PrecisionContext(50)),
    lambda: bernoulli_interp(3, ContourSpec(radius=0.5), PrecisionContext(30)),
    lambda: bernoulli_prime_interp("2.5", ContourSpec(), PrecisionContext(40)),
    lambda: mellin_fundamental_check("2.5", PrecisionContext(40)),
)


def _node_tables():
    """{(prec, build): table} of every node-list table held."""
    return {
        (prec, table._build): table
        for prec, tables in precision._coeff_tables.items()
        for table in tables.values()
        if isinstance(table, precision._NodeLists)
    }


# the Mellin integrands walk exp-exp only with their kernels
NODE_BUILDS = {"_exp_exp_kernels", "_gauss_legendre_nodes", "_gauss_legendre_kernels"}


def test_node_kernels_cold_and_warm_match(monkeypatch):
    # each call on cleared tables, then on tables filled by other calls,
    # then on tables that hold every node it needs
    cold = {}
    for name, call in NODE_CALLS.items():
        monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
        cold[name] = call()
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    for fill in NODE_FILL:
        fill()
    builds = {build.__name__ for _, build in _node_tables()}
    assert builds == NODE_BUILDS
    for _ in ("filled by others", "warm"):
        assert {name: call() for name, call in NODE_CALLS.items()} == cold
    assert _wrong_table_entries() == []


def test_warm_calls_build_no_node_kernel(monkeypatch):
    # a repeated contour or Mellin check reads every node and node kernel
    # back
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    calls = (NODE_CALLS["B'_2.5"], NODE_CALLS["mellin"])
    for call in calls:
        call()
    assert {build.__name__ for _, build in _node_tables()} == NODE_BUILDS
    built = []
    for (_, build), table in _node_tables().items():

        def counting(*nodes, _build=build):
            built.append(_build.__name__)
            return _build(*nodes)

        monkeypatch.setattr(table, "_build", counting)
    for call in calls:
        call()
    assert built == []


def test_node_tables_evicted_with_their_precision(monkeypatch):
    monkeypatch.setattr(precision, "_COEFF_SLOTS", 2)
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    for digits in (30, 40, 50):
        bernoulli_prime_interp("2.5", ContourSpec(), PrecisionContext(digits))
    precs = {prec for prec, _ in _node_tables()}
    assert len(precision._coeff_tables) == 2
    assert precs == set(precision._coeff_tables)
    assert mpmath.mp.prec not in precs
    for prec in precs:
        builds = {build.__name__ for p, build in _node_tables() if p == prec}
        assert builds == {"_gauss_legendre_nodes", "_gauss_legendre_kernels"}


def test_second_circle_near_2pi_builds_no_kernel(monkeypatch):
    # radius 6 sits near the first poles: the first call's half circle
    # visits 4064 nodes over its levels, and the second call reads the
    # kernels of every one of them back
    built = []
    for name in ("_ray_kernels", "_circle_kernel"):

        @functools.wraps(getattr(hankel, name))
        def counting(*args, _build=getattr(hankel, name)):
            built.append(_build.__name__)
            return _build(*args)

        monkeypatch.setattr(hankel, name, counting)
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    value = bernoulli_interp("1.5", ContourSpec(radius=6), PrecisionContext(50))
    assert built.count("_circle_kernel") == 4064
    built.clear()
    assert bernoulli_interp("1.5", ContourSpec(radius=6), PrecisionContext(50)) == value
    assert built == []


def test_node_tables_under_threads(monkeypatch):
    # the rounds alternate between two precisions that share the cache, and
    # all threads of a round start at once on the same contour and Mellin
    # nodes; each integrand writes its tables inside integrate's workdps
    calls = {
        "B'": lambda ctx: bernoulli_prime_interp("2.5", ContourSpec(), ctx),
        "mellin": lambda ctx: mellin_fundamental_check("2.5", ctx),
    }
    serial = {}
    for digits in (20, 40):
        monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
        serial[digits] = {name: call(PrecisionContext(digits)) for name, call in calls.items()}
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    errors, wrong = [], []

    def worker(start, digits):
        try:
            start.wait(timeout=60)
            ctx = PrecisionContext(digits)
            assert {name: call(ctx) for name, call in calls.items()} == serial[digits]
        except Exception as exc:  # reported through errors, read below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for digits in (20, 40, 20):
            start = threading.Barrier(8)
            threads = [threading.Thread(target=worker, args=(start, digits)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            wrong += _wrong_table_entries()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert wrong == []
    assert len(precision._coeff_tables) == 2
    assert len(_node_tables()) == 2 * len(NODE_BUILDS)


def _counting(monkeypatch, name):
    """Count the calls of quadrature's node builder name from now on; the list of their arguments."""
    build, built = getattr(quadrature, name), []

    @functools.wraps(build)
    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(quadrature, name, counting)
    return built


def _node_list_sizes():
    """{build name: entries held} of every node-list table, each checked against its lists."""
    sizes = {}
    for (_, build), table in _node_tables().items():
        assert table.size == sum(map(len, table.values()))
        sizes[build.__name__] = table.size
    return sizes


def test_mellin_checks_build_each_exp_exp_node_once(monkeypatch):
    # the exp-exp nodes and their kernels depend only on the precision:
    # s = 3 reads the nodes s = 2 built, and builds only those its walks
    # reach beyond them
    built = _counting(monkeypatch, "_exp_exp_node")
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    ctx = PrecisionContext(50)
    mellin_fundamental_check(2, ctx)
    assert built
    mellin_fundamental_check(3, ctx)
    assert len(built) == len(set(built))
    assert _node_list_sizes() == {"_exp_exp_kernels": len(built)}
    assert _wrong_table_entries() == []


def test_second_contour_at_one_radius_builds_no_gauss_legendre_node(monkeypatch):
    # the rays and the half circle of every contour of one radius share
    # their panels, so their node lists, whatever u and the log factor
    built = _counting(monkeypatch, "_gauss_legendre_nodes")
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    ctx = PrecisionContext(50)
    first = bernoulli_prime_interp("2.5", ContourSpec(radius=3), ctx)
    n = len(built)
    assert n > 0
    for u in ("1.5", 3):
        bernoulli_interp(u, ContourSpec(radius=3), ctx)
    assert bernoulli_prime_interp("2.5", ContourSpec(radius=3), ctx) == first
    assert len(built) == n


def test_node_lists_stay_within_their_bound(monkeypatch):
    # a walk to the node cap, a circle near 2pi and a Mellin check each
    # reach more nodes than the lowered bound; what is past it, nodes and
    # kernels alike, is built per call, with the values of a run that
    # stores nothing
    ctx = PrecisionContext(50)
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    mellin = mellin_fundamental_check("2.5", ctx)
    monkeypatch.setattr(precision, "_NODE_LIST_CAP", 100)
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    with pytest.raises(ArithmeticError, match="decay at least exponentially"):
        integrate(lambda x: 1 / (1 + x**3), 0, mpmath.inf, ctx)
    assert _node_list_sizes() == {"_exp_exp_node": 100}
    assert mellin_fundamental_check("2.5", ctx) == mellin
    assert _node_list_sizes() == {"_exp_exp_node": 100, "_exp_exp_kernels": 100}
    monkeypatch.setattr(precision, "_NODE_LIST_CAP", 1000)
    value = bernoulli_interp("1.5", ContourSpec(radius=6), ctx)
    sizes = _node_list_sizes()
    assert 0 < sizes["_gauss_legendre_nodes"] <= 1000
    assert 0 < sizes["_gauss_legendre_kernels"] <= 1000
    assert _wrong_table_entries() == []
    monkeypatch.setattr(precision, "_NODE_LIST_CAP", 0)
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    assert bernoulli_interp("1.5", ContourSpec(radius=6), ctx) == value
    assert mellin_fundamental_check("2.5", ctx) == mellin
    assert set(_node_list_sizes().values()) == {0}
