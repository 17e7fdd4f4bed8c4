"""The quadrature engine: differential checks, node tables, the node cap, work counters.

mpmath.quad is the independent oracle: the library never calls it.
"""

import os
import subprocess
import sys
import threading
from collections import OrderedDict

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

import zetachain
from zetachain import eulersums, hankel, precision, quadrature, ramanujan
from zetachain.hankel import ContourSpec
from zetachain.precision import PrecisionContext
from zetachain.quadrature import integrate

# one precision revisited after others, so a table cached at one precision
# serving another would show
DIGITS_ORDER = (50, 120, 15, 50)

CASES = {
    # finite intervals are on Gauss-Legendre, so their integrands are
    # analytic on the closed interval
    "finite": (lambda x: mpmath.cos(x) / (1 + x * x), 0, 2),
    "reversed": (lambda x: mpmath.cos(x) / (1 + x * x), 2, 0),
    "half_line": (lambda x: mpmath.sqrt(x) * mpmath.exp(-x), mpf("0.5"), mpmath.inf),
    "finite_tuple": (lambda x: (mpmath.exp(x), 1 / (1 + x * x), x * mpmath.log(1 + x)), 0, 1),
    "half_line_tuple": (
        lambda x: (x * mpmath.sqrt(x) * mpmath.exp(-x), mpmath.exp(-x) / (1 + x)),
        0,
        mpmath.inf,
    ),
}


def _reference(f, a, b, digits, n):
    """mpmath.quad of component n (None: scalar) at 20 extra digits."""
    with mpmath.workdps(digits + 20):
        g = f if n is None else (lambda x: f(x)[n])
        if b != mpmath.inf and b < a:
            return -mpmath.quad(g, [b, a])
        return mpmath.quad(g, [a, b])


@pytest.mark.parametrize("case", sorted(CASES))
def test_integrate_matches_mpmath_quad(case):
    f, a, b = CASES[case]
    for digits in DIGITS_ORDER:
        ctx = PrecisionContext(digits)
        res = integrate(f, a, b, ctx)
        assert res.converged
        values = res.value if isinstance(res.value, tuple) else (res.value,)
        assert isinstance(res.value, tuple) == case.endswith("tuple")
        with mpmath.workdps(digits + 20):
            for n, got in enumerate(values):
                ref = _reference(f, a, b, digits, n if len(values) > 1 else None)
                assert abs(got - ref) <= mpf(10) ** (-digits + 5 + 1) * abs(ref), (case, digits, n)


# the node cap exists only on exp-exp: Gauss-Legendre visits every node of
# its level
@pytest.mark.parametrize("b", [mpmath.inf], ids=["exp_exp"])
def test_node_walk_reaching_the_cap_raises(monkeypatch, b):
    monkeypatch.setattr(quadrature, "_NODE_CAP", 1)
    with pytest.raises(ArithmeticError, match="node walk"):
        integrate(lambda x: mpmath.exp(-x), 0, b, PrecisionContext(15))


@pytest.mark.parametrize("digits", [15, 50])
def test_half_line_needs_exponential_decay(digits):
    # exp-exp nodes reach x = e^20 at the cap, where 1/(1+x^3) still
    # contributes about x^-2: the walk raises instead of truncating the sum
    with pytest.raises(ArithmeticError, match="decay at least exponentially"):
        integrate(lambda x: 1 / (1 + x**3), 0, mpmath.inf, PrecisionContext(digits))


@pytest.mark.parametrize("digits", [15, 50, 120])
def test_half_line_endpoint_singularity(digits):
    # int_0^inf x^(s-1) e^-x log x dx = Gamma(s) psi(s) at s = 1/8: the
    # x^(-7/8) log x singularity at 0, checked against the closed form
    # because mpmath.quad on [0, 1, inf] at 20 more digits is off there by a
    # relative 1.5e-4 at 15 digits and 1.2e-8 at 50
    ctx = PrecisionContext(digits)
    res = integrate(lambda x: x ** (mpf(-7) / 8) * mpmath.exp(-x) * mpmath.log(x), 0, mpmath.inf, ctx)
    assert res.converged
    with mpmath.workdps(digits + 20):
        ref = mpmath.gamma(mpf(1) / 8) * mpmath.digamma(mpf(1) / 8)
        assert abs(res.value - ref) <= mpf(10) ** (-digits + 6) * abs(ref)


def _gauss_legendre_rule() -> list:
    # the (x, w) pairs, x > 0, of the rule at the current working precision
    n = quadrature._gauss_legendre_order()
    table = precision._coefficients(quadrature._gauss_legendre_node, n)
    return [table[j] for j in range(1, n // 2 + 1)]


@pytest.mark.parametrize("digits", [15, 50, 200])
def test_gauss_legendre_table_integrates_even_powers(digits):
    # the n-point rule is exact for every polynomial of degree < 2n; by
    # symmetry the odd powers integrate to 0 and the even ones to 2/(2j+1)
    ctx = PrecisionContext(digits)
    with ctx.workdps():
        rule = _gauss_legendre_rule()
        n = 2 * len(rule)
        assert n == quadrature._gauss_legendre_order()
        assert all(0 < x < 1 and w > 0 for x, w in rule)
        for j in range(n):
            got = 2 * sum(w * x ** (2 * j) for x, w in rule)
            assert abs(got - mpf(2) / (2 * j + 1)) < mpf(10) ** (-ctx.dps + 2), j


def test_gauss_legendre_table_cache_under_threads(monkeypatch):
    # mpmath's precision is process-global, so every thread of one round
    # works at the precision the main thread holds; the rounds alternate
    # between two precisions that share the cache, and all threads of a
    # round grow one empty table at once
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    errors = []

    def worker(start, expected):
        try:
            start.wait(timeout=60)
            assert _gauss_legendre_rule() == expected
        except Exception as exc:  # reported through errors, read below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for digits in (20, 40, 20):
            with mpmath.workdps(digits):
                n = quadrature._gauss_legendre_order()
                expected = [quadrature._gauss_legendre_node(n, j) for j in range(1, n // 2 + 1)]
                start = threading.Barrier(8)
                threads = [threading.Thread(target=worker, args=(start, expected)) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                # each node was appended once, in order
                assert precision._coefficients(quadrature._gauss_legendre_node, n)._items == expected
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(precision._coeff_tables) == 2


def test_import_builds_no_table():
    # perfbench's setup_s times the import: every table is built on first use
    code = "import zetachain.cli\nfrom zetachain import precision\nprint(len(precision._coeff_tables))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(zetachain.__path__[0])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0"]


def test_gauss_legendre_that_never_converges_raises():
    # analytic on [-1, 1], but poles 10^-6 off the real axis: the panels of
    # the last level, 2^-8 wide, are still far too wide
    ctx = PrecisionContext(15)
    res = integrate(lambda x: 1 / (x * x + mpf(10) ** -12), -1, 1, ctx)
    assert not res.converged
    assert res.levels == quadrature._MAX_LEVEL
    with pytest.raises(ArithmeticError, match="did not converge"):
        res.require_converged()


def test_gauss_legendre_rejects_bad_breaks():
    ctx = PrecisionContext(15)
    with pytest.raises(ValueError, match="finite interval"):
        integrate(mpmath.exp, 0, mpmath.inf, ctx, breaks=(1,))
    with pytest.raises(ValueError, match="strictly between"):
        integrate(mpmath.exp, 0, 1, ctx, breaks=(1,))


# a rule's (a, b, keywords) for the kernel tests: Gauss-Legendre over
# panels, exp-exp on [0, inf)
KERNEL_RULES = {
    "gauss_legendre": (0, 3, {"breaks": (1, 2)}),
    "exp_exp": (0, mpmath.inf, {}),
}


@pytest.mark.parametrize("rule", sorted(KERNEL_RULES))
def test_kernel_gives_the_inline_value(monkeypatch, rule):
    # the node's kernel comes from the node-list tables, built by the same
    # expression at the same precision as inside the integrand: the result
    # is the same bit for bit, cold and warm, and a warm call builds none
    a, b, kwargs = KERNEL_RULES[rule]
    ctx = PrecisionContext(50)
    c = mpf(3) / 4
    built, evals = [], [0]

    def kernel(c, x):
        built.append(x)
        return mpmath.exp(-c * x), mpmath.log(1 + x)

    def f(x, k):
        evals[0] += 1
        return k[0] * k[1] / (1 + x)

    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    inline = integrate(lambda x: f(x, kernel(c, x)), a, b, ctx, **kwargs)
    assert inline.converged
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    built.clear()
    evals[0] = 0
    assert integrate(f, a, b, ctx, kernel=(kernel, c), **kwargs) == inline
    assert len(built) == evals[0] > 0
    built.clear()
    assert integrate(f, a, b, ctx, kernel=(kernel, c), **kwargs) == inline
    assert built == []
    # another kernel argument is another list, not the one just read
    assert integrate(f, a, b, ctx, kernel=(kernel, 2 * c), **kwargs) != inline
    assert built


def _contour_calls():
    ctx = PrecisionContext(50)
    return {
        # an integer argument: the ray integrand is identically 0 and is not
        # integrated, and the half circle is on Gauss-Legendre like every
        # other circle: two levels of one 32-node panel, 96 evaluations (the
        # trapezoid rule it replaced took 65, at the cost of a third rule)
        "bernoulli_interp_1": (96, lambda: hankel.bernoulli_interp("1", ContourSpec(), ctx)),
        # rays and half circle on composite Gauss-Legendre: 480 at radius 1,
        # 512 at 3
        "bernoulli_interp_1.5": (500, lambda: hankel.bernoulli_interp("1.5", ContourSpec(), ctx)),
        "bernoulli_interp_1.5_r3": (
            540,
            lambda: hankel.bernoulli_interp("1.5", ContourSpec(radius=3.0), ctx),
        ),
        # an integer argument with the -log z factor: the rays do not cancel,
        # so they are integrated, as at any non-integer argument (480 each)
        "bernoulli_prime_interp_2": (
            500,
            lambda: hankel.bernoulli_prime_interp("2", ContourSpec(), ctx),
        ),
        "bernoulli_prime_interp_2.5": (
            500,
            lambda: hankel.bernoulli_prime_interp("2.5", ContourSpec(), ctx),
        ),
        # exp-exp on [0, inf): 342 at s = 2, 320 at s = 3, and 491 at
        # s = 1.01, where x^(s-2) log x is nearly singular at 0
        "mellin_s2": (400, lambda: eulersums.mellin_fundamental_check(2, ctx)),
        "mellin_s3": (400, lambda: eulersums.mellin_fundamental_check(3, ctx)),
        "mellin_s1.01": (600, lambda: eulersums.mellin_fundamental_check("1.01", ctx)),
        # Gauss-Legendre on the panels [1, 3, 9, 27, 50]: 5 integrals of 384
        # evaluations
        "ramanujan_sum_4": (1920, lambda: ramanujan.ramanujan_sum(4, ctx)),
    }


@pytest.mark.parametrize("call", sorted(_contour_calls()))
def test_integrand_evaluation_ceilings(monkeypatch, call):
    # deterministic work counts at 50 digits; no wall time is asserted
    ceiling, run = _contour_calls()[call]
    evals = [0]

    def counting(f, *args, **kwargs):
        def g(*node):
            # x, and the node's kernel when the caller passes one
            evals[0] += 1
            return f(*node)

        return integrate(g, *args, **kwargs)

    for module in (hankel, eulersums, ramanujan):
        monkeypatch.setattr(module, "integrate", counting)
    run()
    assert 0 < evals[0] <= ceiling


# Drawn integrands for each rule, compared with mpmath.quad at 20 more
# digits.  Every parameter is a dyadic rational, exact at any precision, and
# every integrand is positive, so the bound is relative.  A case is (f, a,
# b, the keywords that select the rule).
_eighths = st.integers(min_value=-24, max_value=24).map(lambda k: mpf(k) / 8)
_FAMILIES = {
    # x^alpha e^(-beta x) / (1 + x) on [a, inf)
    "exp_exp": st.tuples(
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=4, max_value=24),
        st.integers(min_value=0, max_value=16),
    ).map(
        lambda p: (
            lambda x, al=mpf(p[0]) / 8, be=mpf(p[1]) / 8: x**al * mpmath.exp(-be * x) / (1 + x),
            mpf(p[2]) / 8,
            mpmath.inf,
            {},
        )
    ),
    # e^(beta x) + 1/(c + (x - phi)^2) on [0, b], analytic there with poles
    # at phi +- i sqrt(c), cut into panels at up to four drawn points
    "gauss_legendre": st.tuples(
        _eighths,
        st.integers(min_value=1, max_value=16),
        _eighths,
        st.integers(min_value=4, max_value=32),
        st.lists(st.integers(min_value=1, max_value=63), max_size=4, unique=True),
    ).map(
        lambda p: (
            lambda x, be=p[0], c=mpf(p[1]) / 8, phi=p[2]: mpmath.exp(be * x)
            + 1 / (c + (x - phi) ** 2),
            0,
            mpf(p[3]) / 8,
            {"breaks": tuple(mpf(k * p[3]) / 512 for k in p[4])},
        )
    ),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("digits", [15, 50, 120])
def test_integrate_differential_against_mpmath_quad(family, digits):
    ctx = PrecisionContext(digits)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(_FAMILIES[family])
    def check(case):
        f, a, b, kwargs = case
        res = integrate(f, a, b, ctx, **kwargs)
        assert res.converged
        with mpmath.workdps(digits + 20):
            ref = _reference(f, a, b, digits, None)
            assert abs(res.value - ref) <= mpf(10) ** (-digits + 5 + 1) * abs(ref), (a, b, kwargs)

    check()
