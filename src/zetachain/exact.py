"""Exact rational layer: binomials, harmonic and Bernoulli numbers, Ramanujan constants.

Everything here is exact by construction and returned as
:class:`fractions.Fraction`; harmonic and Bernoulli numbers are built on
Python integers and reduced once.  No floating arithmetic ever enters.
The Ramanujan constants are exact linear forms in 1, gamma and the
zeta'(-j), with rational coefficients.  This module is the independent
oracle the numeric layers are checked against, so it must not import any
of them.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass
from fractions import Fraction


class BernoulliConvention(enum.Enum):
    """Sign convention for B1.

    PAPER_PLUS has B1 = +1/2, CONVENTIONAL_MINUS has B1 = -1/2.  All other
    Bernoulli numbers coincide.
    """

    PAPER_PLUS = "plus"
    CONVENTIONAL_MINUS = "minus"


def binomial(n: int, k: int) -> Fraction:
    """C(n, k) as an exact Fraction; 0 when k > n or k < 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


def harmonic(n: int) -> Fraction:
    """H_n = sum_{j=1}^{n} 1/j, exact.  Requires n >= 1 (H_0 is left undefined)."""
    if n < 1:
        raise ValueError("harmonic(n) requires n >= 1")
    return _rational_sum([(1, j) for j in range(1, n + 1)])


def _rational_sum(terms) -> Fraction:
    # sum of num/den over a sequence of (num, den) pairs: integer numerators
    # over the lcm of the denominators, reduced once
    common = math.lcm(*(den for _, den in terms))
    return Fraction(sum(num * (common // den) for num, den in terms), common)


# Cache of conventional-sign Bernoulli numbers B_0, B_1, ...  Guarded by a
# lock so concurrent evaluations can share it safely.
_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_bernoulli_lock = threading.Lock()


def _extend_bernoulli(n: int) -> None:
    # Brent-Harvey: the tangent numbers T_1..T_K by integer additions and small
    # multiplications, then B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  A growth
    # rebuilds to at least twice the old length; the cache only grows, so a hit
    # needs no lock.
    if len(_bernoulli_cache) > n:
        return
    with _bernoulli_lock:
        old = len(_bernoulli_cache)
        if old > n:
            return
        K = (max(n, 2 * old) + 1) // 2
        t = [0, 1] + [0] * (K - 1)
        for k in range(2, K + 1):
            t[k] = (k - 1) * t[k - 1]
        for k in range(2, K + 1):
            for j in range(k, K + 1):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        for m in range(old, 2 * K + 1):
            k = m // 2  # B_m at even m = 2k as above; 0 at odd m >= 3
            b = Fraction((-1) ** (k - 1) * m * t[k], 4**k * (4**k - 1)) if m % 2 == 0 else Fraction(0)
            _bernoulli_cache.append(b)


def bernoulli(n: int, conv: BernoulliConvention = BernoulliConvention.PAPER_PLUS) -> Fraction:
    """Exact B_n under the requested sign convention for B1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 1:
        return Fraction(1, 2) if conv is BernoulliConvention.PAPER_PLUS else Fraction(-1, 2)
    _extend_bernoulli(n)
    return _bernoulli_cache[n]


def bernoulli_self_identity(n: int, conv: BernoulliConvention) -> Fraction:
    """Residual of the self-identity B_n = sum_{k=0}^{n} C(n,k) B_k for n >= 2.

    Returns sum_{k=0}^{n-1} C(n,k) B_k; a zero residual means the identity
    holds under the given convention.  It holds for CONVENTIONAL_MINUS and
    fails at n = 2 under PAPER_PLUS, which is why both are exposed.
    """
    if n < 2:
        raise ValueError("self-identity residual is defined for n >= 2")
    s = Fraction(0)
    for k in range(n):
        s += binomial(n, k) * bernoulli(k, conv)
    return s


# Exact Ramanujan constants R_k = sum^R H_n n^k (lower limit 1).  A linear
# form is a dict {basis key: nonzero Fraction} over the basis "1", "gamma",
# ("log", n) for ln n and ("zeta'", j) for zeta'(-j); ln 2 pi is -2 zeta'(0).


def _combine(*terms) -> dict:
    # sum of c * form over the (c, form) pairs, zero coefficients dropped
    out = {}
    for c, form in terms:
        for key, v in form.items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def _zeta_at_negative(i: int) -> Fraction:
    # zeta(-i) = -B_(i+1)/(i+1) for i >= 0, with B1 = +1/2
    return -bernoulli(i + 1) / (i + 1)


def _hurwitz_jet(i: int, a: int) -> tuple[Fraction, dict]:
    # zeta(z - i, a) = zeta(z - i) - sum_{n<a} n^(i - z) to first order in z
    # at 0, for integer a >= 2: (value, slope)
    value = _zeta_at_negative(i) - sum(n**i for n in range(1, a))
    slope = {("zeta'", i): Fraction(1)} | {("log", n): Fraction(n**i) for n in range(2, a)}
    return value, slope


def _log_gamma_moment(m: int) -> dict:
    """int_2^3 u^m ln Gamma(u) du as a linear form.

    Lerch's formula ln Gamma(u) = d/dz zeta(z, u) at z = 0, minus zeta'(0),
    turns the moment into the z-slope at 0 of J_0 = int_2^3 u^m zeta(z, u) du.
    Parts with zeta(z, u) = -d/du zeta(z-1, u)/(z-1) give, for
    J_i = int_2^3 u^(m-i) zeta(z-i, u) du and q = m - i,

        J_i = [3^q zeta(z-i-1, 3) - 2^q zeta(z-i-1, 2) - q J_(i+1)] / (i+1-z),

    so only Hurwitz values at u = 2 and 3 remain.  Each J_i is carried as a
    first-order jet in z, from J_m down to J_0.
    """
    value, slope = Fraction(0), {}
    for i in range(m, -1, -1):
        q = m - i
        v3, s3 = _hurwitz_jet(i + 1, 3)
        v2, s2 = _hurwitz_jet(i + 1, 2)
        bracket = 3**q * v3 - 2**q * v2 - q * value
        bracket_slope = _combine((3**q, s3), (-(2**q), s2), (-q, slope))
        # 1/(c - z) = 1/c + z/c^2 + O(z^2)
        c = i + 1
        slope = _combine((Fraction(1, c), bracket_slope), (bracket / c**2, {"1": 1}))
        value = bracket / c
    return _combine((1, slope), (Fraction(2 ** (m + 1) - 3 ** (m + 1), m + 1), {("zeta'", 0): 1}))


def _shift_constant(s: int, moments: list[dict]) -> dict:
    """c_s = int_1^2 H(t) t^s dt - 2^s/s with H(t) = gamma + psi(t+1), s >= 1.

    Parts with psi(t+1) = d/dt ln Gamma(t+1) give
    int_1^2 psi(t+1) t^s dt = 2^s ln 2 - s int_2^3 ln Gamma(u) (u-1)^(s-1) du,
    and moments[m] is int_2^3 u^m ln Gamma(u) du.  The ln n parts must
    cancel; an ArithmeticError says they did not.
    """
    form = _combine(
        (Fraction(2 ** (s + 1) - 1, s + 1), {"gamma": 1}),
        (2**s, {("log", 2): 1}),
        (-Fraction(2**s, s), {"1": 1}),
        *((-s * math.comb(s - 1, m) * (-1) ** (s - 1 - m), moments[m]) for m in range(s)),
    )
    logs = {key: v for key, v in form.items() if key[0] == "log"}
    if logs:
        raise ArithmeticError(f"c_{s} keeps logarithms {logs}")
    return form


@dataclass(frozen=True)
class RamanujanClosedForm:
    """R_k = rational + gamma * euler + sum_j zeta_prime[j] * zeta'(-j), j = 0..k."""

    rational: Fraction
    gamma: Fraction
    zeta_prime: tuple[int, ...]


# Linear forms of R_0, R_1, ... and of the moments int_2^3 u^m ln Gamma(u) du,
# grown under a lock as the Bernoulli cache is
_ramanujan_forms: list[dict] = []
_moments: list[dict] = []
_ramanujan_lock = threading.Lock()


def _extend_ramanujan(k: int) -> None:
    # The shift rule sum^R f(n+1) = sum^R f(n) - f(1) + int_1^2 f, applied to
    # f(n) = H_n n^s, gives for s >= 1 the triangular system
    #     sum_{j<s} C(s, j) R_j = -zeta(1-s) + c_s,
    # solved for R_(s-1).  A growth computes only the new rows and moments.
    if len(_ramanujan_forms) > k:
        return
    with _ramanujan_lock:
        for j in range(len(_ramanujan_forms), k + 1):
            s = j + 1
            if len(_moments) == j:  # else a raise below left it from an earlier growth
                _moments.append(_log_gamma_moment(j))
            rhs = _combine(
                (1, _shift_constant(s, _moments)),
                (-_zeta_at_negative(j), {"1": 1}),
                *((-math.comb(s, i), _ramanujan_forms[i]) for i in range(j)),
            )
            _ramanujan_forms.append(_combine((Fraction(1, s), rhs)))


def ramanujan_closed_form(k: int) -> RamanujanClosedForm:
    """Exact R_k = sum^R H_n n^k with lower limit 1, derived, not fitted.

    Raises ArithmeticError if the derivation leaves a term outside
    1, gamma and zeta'(-j) for j <= k, or a non-integer zeta' weight.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    _extend_ramanujan(k)
    form = _ramanujan_forms[k]
    weights = [form.get(("zeta'", j), Fraction(0)) for j in range(k + 1)]
    stray = set(form) - {"1", "gamma"} - {("zeta'", j) for j in range(k + 1)}
    if stray or any(w.denominator != 1 for w in weights):
        raise ArithmeticError(f"R_{k} is not of the closed form: {form}")
    return RamanujanClosedForm(
        form.get("1", Fraction(0)), form.get("gamma", Fraction(0)), tuple(int(w) for w in weights)
    )
