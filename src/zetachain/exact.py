"""Exact rational layer: binomials, harmonic numbers, Bernoulli numbers.

Everything here is computed with :class:`fractions.Fraction` and is exact by
construction; no floating arithmetic ever enters.  This module is the
independent oracle the numeric layers are checked against, so it must not
import any of them.
"""

from __future__ import annotations

import enum
import math
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
    h = Fraction(0)
    for j in range(1, n + 1):
        h += Fraction(1, j)
    return h


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
