import json
from collections import OrderedDict
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

from zetachain import hankel, precision
from zetachain.exact import BernoulliConvention, bernoulli
from zetachain.hankel import (
    ContourSpec,
    bernoulli_interp,
    bernoulli_prime_interp,
    lemma3_prime_residual,
    lemma3_residual,
)
from zetachain.precision import PrecisionContext
from zetachain.zeta import zeta_em, zeta_prime_oracle

CTX = PrecisionContext(50)
SPEC = ContourSpec()


def half_tol():
    with CTX.workdps():
        return mpf(10) ** (-CTX.digits // 2)


def test_b1_anchor():
    with CTX.workdps():
        assert abs(bernoulli_interp(0, SPEC, CTX) - mpf(1) / 2) < half_tol()


def test_integer_values_match_exact_core():
    # at integer index the contour is the circle alone, on Gauss-Legendre;
    # at radius 0.05 and 30 digits B_12 is off by 0.032 of the tolerance,
    # as the circle integral cancels by about (2pi/r)^12
    for digits in (30, 50):
        ctx = PrecisionContext(digits)
        for radius in (0.05, 0.5, 1.0, 3.0, 5.5):
            spec = ContourSpec(radius=radius)
            with ctx.workdps():
                for n in range(1, 13):
                    ex = bernoulli(n, BernoulliConvention.PAPER_PLUS)
                    got = bernoulli_interp(n - 1, spec, ctx)
                    err = abs(got - mpf(ex.numerator) / ex.denominator)
                    assert err < mpf(10) ** (-digits // 2), (digits, radius, n)


def test_contour_deformation_invariance():
    with CTX.workdps():
        s = mpf("1.7")
        base = bernoulli_interp(s, SPEC, CTX)
        for alt in (ContourSpec(radius=0.5), ContourSpec(radius=3.0), ContourSpec(truncation=150.0)):
            assert abs(bernoulli_interp(s, alt, CTX) - base) < half_tol()


def test_circle_near_the_first_pole_converges():
    # at integer index the contour is the circle alone; at r = 6.2 its poles
    # at theta = +-pi/2 + i log(2pi/r) lie 0.013 off the Gauss-Legendre panel
    # [0, pi], and the half circle stops at level 11 of 12, after 12,264
    # evaluations
    ctx = PrecisionContext(30)
    with ctx.workdps():
        got = bernoulli_interp(1, ContourSpec(radius=6.2), ctx)
        assert abs(got - mpf(1) / 6) < mpf(10) ** (-ctx.digits // 2)


@pytest.mark.parametrize("u, radius", [("1.5", 6.0), ("2.7", 0.5)])
def test_gauss_legendre_contour_near_and_far_from_the_pole(u, radius):
    # B_(u+1) = -(u+1) zeta(-u); radius 6 puts the circle's nearest poles
    # 0.046 off its panels, and radius 0.5 starts the rays close to the
    # branch point at 0
    ctx = PrecisionContext(30)
    got = bernoulli_interp(u, ContourSpec(radius=radius), ctx)
    with mpmath.workdps(ctx.digits + 20):
        uv = mpf(u)
        expected = -(uv + 1) * mpmath.zeta(-uv)
        assert abs(got - expected) < mpf(10) ** (-ctx.digits // 2)


def test_contour_node_transcendental_budget(monkeypatch):
    # B_2.5 at radius 1 and 50 digits takes 480 evaluations, 384 on the rays
    # and 96 on the half circle.  Cold, a circle node takes e^-z from one
    # real exp and cos_sin pairs, not from complex exps, and the rays, which
    # start at t = r = 1, take e^t - 1 as exp(t) - 1 with nothing to cancel.
    # Warm, at the same radius and precision, the node lists hold log t,
    # e^t - 1 and e^-z - 1: a ray node makes only the exp of t^e, and a
    # circle node only the cos_sin of (e+1) theta.
    monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
    calls = {"exp": [], "expm1": [], "log": [], "cos_sin": []}
    for name, seen in calls.items():

        def counting(x, *args, _fn=getattr(mpmath, name), _seen=seen, **kwargs):
            _seen.append(x)
            return _fn(x, *args, **kwargs)

        monkeypatch.setattr(mpmath, name, counting)
    nodes, integrate = {"rays": [], "circle": []}, hankel.integrate

    def per_node(f, a, b, ctx, **kwargs):
        # the half circle is [0, pi]; the rays start at r
        piece = nodes["circle" if a == 0 else "rays"]

        def node(*args):
            # the node's x and its kernel
            before = {name: len(seen) for name, seen in calls.items()}
            value = f(*args)
            piece.append({name: len(seen) - before[name] for name, seen in calls.items()})
            return value

        return integrate(node, a, b, ctx, **kwargs)

    monkeypatch.setattr(hankel, "integrate", per_node)
    bernoulli_interp("1.5", ContourSpec(), PrecisionContext(50))
    circle = nodes["circle"]
    assert not any(isinstance(x, mpmath.mpc) for x in calls["exp"])
    assert calls["expm1"] == []
    assert circle and max(n["exp"] for n in circle) <= 1
    assert len(calls["cos_sin"]) <= 3 * len(circle)

    nodes["rays"].clear()
    circle.clear()
    bernoulli_interp("1.5", ContourSpec(), PrecisionContext(50))
    assert (len(nodes["rays"]), len(circle)) == (384, 96)
    assert all(n == {"exp": 1, "expm1": 0, "log": 0, "cos_sin": 0} for n in nodes["rays"])
    assert all(n == {"exp": 0, "expm1": 0, "log": 0, "cos_sin": 1} for n in circle)


def test_radius_validation():
    with pytest.raises(ValueError):
        bernoulli_interp(1, ContourSpec(radius=7.0), CTX)
    with pytest.raises(ValueError):
        bernoulli_interp(1, ContourSpec(radius=0.0), CTX)


@pytest.mark.parametrize("s", ["0.5", "1.5", "2", "4"])
def test_lemma3_residual(s):
    assert lemma3_residual(mpf(s), SPEC, CTX) < half_tol()


def test_lemma3_rejects_nonpositive():
    with pytest.raises(ValueError):
        lemma3_residual(mpf(-1) / 2, SPEC, CTX)


def test_prime_interp_k1():
    with CTX.workdps():
        expected = mpf(1) / 2 - mpmath.log(2 * mpmath.pi) / 2
        assert abs(bernoulli_prime_interp(1, SPEC, CTX) - expected) < half_tol()


def test_prime_interp_trivial_zero_simplification():
    with CTX.workdps():
        expected = 3 * zeta_prime_oracle(-2, CTX)
        assert abs(bernoulli_prime_interp(3, SPEC, CTX) - expected) < half_tol()


def test_prime_interp_k2():
    with CTX.workdps():
        expected = mpf(1) / 12 + 2 * zeta_prime_oracle(-1, CTX)
        assert abs(bernoulli_prime_interp(2, SPEC, CTX) - expected) < half_tol()


@pytest.mark.parametrize("s", [2, 3])
def test_prime_interp_at_integers_matches_mpmath(s):
    # integer index with the -log z factor: the rays carry pi cos(pi e) and
    # do not cancel, so the contour has rays as well as the circle
    got = bernoulli_prime_interp(s, SPEC, CTX)
    with mpmath.workdps(CTX.digits + 20):
        expected = -mpmath.zeta(1 - s) + s * mpmath.zeta(1 - s, derivative=1)
        assert abs(got - expected) < mpf(10) ** (-CTX.digits // 2)


@pytest.mark.parametrize("s", ["1.5", "2", "3"])
def test_prime_residual_against_oracle(s):
    assert lemma3_prime_residual(mpf(s), SPEC, CTX) < half_tol()


def test_derivative_consistent_with_finite_difference():
    with CTX.workdps():
        s = mpf("2.3")
        h = mpf(10) ** (-CTX.digits // 4)
        fd = (
            -(s + h) * zeta_em(1 - s - h, CTX) + (s - h) * zeta_em(1 - s + h, CTX)
        ) / (2 * h)
        # centered difference of B_s (via the zeta identity) vs the contour derivative
        assert abs(bernoulli_prime_interp(s, SPEC, CTX) - fd) < max(h * h * 100, half_tol() * 100)


def test_hankel_documents_pinned(monkeypatch):
    # B_(u+1) at seven u and B'_s at four s, at radii 0.5, 1 and 3 and at
    # radius 6 near the first poles, at 30 and 50 digits, and three values
    # at radius 0.05, whose rays start on the expm1 branch below t = 1,
    # recorded to digits + 3 significant digits, which fix every bit; the
    # contour must reproduce them on cleared tables and again with its node
    # kernels read back from the tables.
    pins = json.loads((Path(__file__).parent / "hankel_documents.json").read_text())
    fns = {"bernoulli_interp": bernoulli_interp, "bernoulli_prime_interp": bernoulli_prime_interp}
    for pin in pins:
        monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
        spec, ctx = ContourSpec(radius=pin["radius"]), PrecisionContext(pin["digits"])
        for _ in ("cold", "warm"):
            got = fns[pin["fn"]](pin["arg"], spec, ctx)
            assert mpmath.nstr(got, pin["digits"] + 3) == pin["value"], pin
