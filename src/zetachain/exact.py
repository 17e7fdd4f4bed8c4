"""Exact rational layer: binomials, harmonic and Bernoulli numbers, zeta(1-k), Ramanujan constants.

Everything here is exact by construction and returned as
:class:`fractions.Fraction`; harmonic and Bernoulli numbers are built on
Python integers and reduced once.  No floating arithmetic ever enters.
``LinearForm`` holds the exact values over 1, gamma, ln 2pi = -2 zeta'(0),
zeta'(-j) and ln n: the chain's on the first three, the Ramanujan
constants' on all but ln n.  ``solve_binomial`` is the one solve of the
paper's system sum_{j<s} C(s,j) X_j = b_s, for the chain (b_s = -zeta(1-s))
and the Ramanujan constants (b_s = -zeta(1-s) + c_s).  This module is the
independent oracle the numeric layers are checked against, so it must not
import any of them.
"""

from __future__ import annotations

import enum
import math
import operator
import threading
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


def zeta_neg_int_exact(k: int) -> Fraction:
    """Exact rational zeta(1-k) = -B_k/k for k >= 1 (B1 = +1/2 convention)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return -bernoulli(k) / k


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


ONE, GAMMA, LOG_2PI = "1", "gamma", "log(2*pi)"


class LinearForm(dict):
    """An exact linear form, the dict {basis vector: nonzero rational coefficient}.

    The basis: ONE, GAMMA, LOG_2PI (ln 2pi = -2 zeta'(0)), ("zeta'", j) for
    zeta'(-j), j >= 1, and ("log", n) for ln n.  Immutable, so not hashable;
    copied and pickled whole.  +, - and negation combine forms and * scales
    by a rational, each into a new form of the left operand's class, with a
    coefficient kept as it came (an int stays an int).  The string shows 1,
    gamma and ln 2pi, zero parts included, then the other terms.
    """

    def __init__(self, terms=()):
        super().__init__({key: q for key, q in dict(terms).items() if q})

    @classmethod
    def _wrap(cls, terms: dict) -> LinearForm:
        # a form of terms that hold no zero, without __init__'s filtering copy
        form = dict.__new__(cls)
        dict.update(form, terms)
        return form

    def _immutable(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is immutable")

    __setattr__ = __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _immutable

    def __reduce__(self):
        return type(self), (dict(self),)

    def _merge(self, other: LinearForm, op) -> LinearForm:
        terms = dict(self)
        for key, q in other.items():
            if total := op(terms.get(key, 0), q):
                terms[key] = total
            else:
                del terms[key]
        return self._wrap(terms)

    def __add__(self, other: LinearForm) -> LinearForm:
        return self._merge(other, operator.add)

    def __sub__(self, other: LinearForm) -> LinearForm:
        return self._merge(other, operator.sub)

    def __neg__(self) -> LinearForm:
        return self._wrap({key: -q for key, q in self.items()})

    def __mul__(self, q) -> LinearForm:
        return self._wrap({key: v * q for key, v in self.items()} if q else {})

    def __str__(self) -> str:
        rest = sorted(key for key in self if isinstance(key, tuple))
        parts = [f"({self.get(key, 0)})*{key}" for key in (GAMMA, LOG_2PI)]
        parts += [f"({self[kind, n]})*" + (f"zeta'(-{n})" if kind == "zeta'" else f"log({n})") for kind, n in rest]
        return " + ".join([str(self.get(ONE, 0)), *parts])


def solve_binomial(xs: list[LinearForm], rhs) -> list[LinearForm]:
    """The one solve of sum_{j<s} C(s, j) X_j = b_s: appends X_(s-1) to xs for each b_s of rhs, s = len(xs) + 1.

    X_(s-1) = (b_s - sum_{j<s-1} C(s, j) X_j) / s is a form of b_s's class.
    The solve runs on Python integers, each X_j held as numerators over one
    positive denominator: a row costs integer multiplies over the lcm of the
    denominators and one gcd, and its Fractions are built once.  Returns xs.
    """
    rows = [_over_lcm(x) for x in xs]
    for b in rhs:
        s = len(xs) + 1
        nums, den = _over_lcm(b)
        common = math.lcm(den, *(d for _, d in rows))
        total = {key: n * (common // den) for key, n in nums.items()}
        for j, (row, d) in enumerate(rows):
            f = -math.comb(s, j) * (common // d)
            for key, n in row.items():
                total[key] = total.get(key, 0) + f * n
        g = math.gcd(common * s, *total.values())
        row, d = {key: n // g for key, n in total.items() if n}, common * s // g
        rows.append((row, d))
        xs.append(b._wrap({key: Fraction(n, d) for key, n in row.items()}))
    return xs


def _over_lcm(form: LinearForm) -> tuple[dict, int]:
    # ({key: integer numerator}, d): form's coefficients over their lcm d
    d = math.lcm(*(q.denominator for q in form.values()))
    return {key: q.numerator * (d // q.denominator) for key, q in form.items()}, d


def _hurwitz_jet(i: int, a: int) -> tuple[Fraction, LinearForm]:
    # zeta(z - i, a) = zeta(z - i) - sum_{n<a} n^(i - z) to first order in z
    # at 0, for integers i >= 1 and a >= 2: (value, slope)
    value = zeta_neg_int_exact(i + 1) - sum(n**i for n in range(1, a))
    return value, LinearForm({("zeta'", i): 1} | {("log", n): n**i for n in range(2, a)})


def _log_gamma_moment(m: int) -> LinearForm:
    """int_2^3 u^m ln Gamma(u) du as a linear form.

    Lerch's formula ln Gamma(u) = d/dz zeta(z, u) at z = 0, minus zeta'(0),
    turns the moment into the z-slope at 0 of J_0 = int_2^3 u^m zeta(z, u) du.
    Parts with zeta(z, u) = -d/du zeta(z-1, u)/(z-1) give, for
    J_i = int_2^3 u^(m-i) zeta(z-i, u) du and q = m - i,

        J_i = [3^q zeta(z-i-1, 3) - 2^q zeta(z-i-1, 2) - q J_(i+1)] / (i+1-z),

    so only Hurwitz values at u = 2 and 3 remain.  Each J_i is carried as a
    first-order jet in z, from J_m down to J_0.
    """
    value, slope = Fraction(0), LinearForm()
    for i in range(m, -1, -1):
        q = m - i
        v3, s3 = _hurwitz_jet(i + 1, 3)
        v2, s2 = _hurwitz_jet(i + 1, 2)
        bracket = 3**q * v3 - 2**q * v2 - q * value
        # 1/(c - z) = 1/c + z/c^2 + O(z^2)
        c = i + 1
        slope = (s3 * 3**q - s2 * 2**q - slope * q) * Fraction(1, c) + LinearForm({ONE: bracket / c**2})
        value = bracket / c
    # -zeta'(0) = ln(2pi)/2 times int_2^3 u^m du
    return slope + LinearForm({LOG_2PI: Fraction(3 ** (m + 1) - 2 ** (m + 1), 2 * (m + 1))})


def _shift_constant(s: int, moments: list[LinearForm]) -> LinearForm:
    """c_s = int_1^2 H(t) t^s dt - 2^s/s with H(t) = gamma + psi(t+1), s >= 1.

    Parts with psi(t+1) = d/dt ln Gamma(t+1) give
    int_1^2 psi(t+1) t^s dt = 2^s ln 2 - s int_2^3 ln Gamma(u) (u-1)^(s-1) du,
    and moments[m] is int_2^3 u^m ln Gamma(u) du.  The ln n parts must
    cancel; an ArithmeticError says they did not.
    """
    form = LinearForm({GAMMA: Fraction(2 ** (s + 1) - 1, s + 1), ("log", 2): 2**s, ONE: -Fraction(2**s, s)})
    form = sum((moments[m] * (s * math.comb(s - 1, m) * (-1) ** (s - m)) for m in range(s)), form)
    if logs := {key: q for key, q in form.items() if isinstance(key, tuple) and key[0] == "log"}:
        raise ArithmeticError(f"c_{s} keeps logarithms {logs}")
    return form


# Linear forms of R_0, R_1, ... and of the moments int_2^3 u^m ln Gamma(u) du,
# grown under a lock as the Bernoulli cache is
_ramanujan_forms: list[LinearForm] = []
_moments: list[LinearForm] = []
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
            solve_binomial(_ramanujan_forms, [_shift_constant(s, _moments) - LinearForm({ONE: zeta_neg_int_exact(s)})])


def ramanujan_closed_form(k: int) -> LinearForm:
    """Exact R_k = sum^R H_n n^k with lower limit 1, derived, not fitted; one cached form per k.

    R_k = r_k + g_k gamma + sum_{j<=k} w_j zeta'(-j) with integers w_j, and
    w_0 zeta'(0) held as -w_0/2 ln 2pi.  Raises ArithmeticError if the
    derivation leaves any other term, or a non-integer zeta' weight.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    _extend_ramanujan(k)
    form = _ramanujan_forms[k]
    units = {LOG_2PI: -2} | {("zeta'", j): 1 for j in range(1, k + 1)}  # a zeta' weight per unit of the term
    if form.keys() - {ONE, GAMMA, *units} or any((form.get(key, 0) * u).denominator != 1 for key, u in units.items()):
        raise ArithmeticError(f"R_{k} is not of the closed form: {form}")
    return form
