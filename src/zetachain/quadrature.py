"""Quadrature on finite and semi-infinite intervals.

Two rules share one level driver:

- exp-exp covers [a, inf) for integrands that decay at least
  exponentially, with nodes x = a + exp(t - e^-t) and weights
  (x - a)(1 + e^-t) (Takahasi & Mori 1974; Mori & Sugihara, "The
  double-exponential transformation in numerical analysis", J. Comput.
  Appl. Math. 127, 2001).  The nodes grow like e^t, so an e^-x integrand
  falls double exponentially in t.  The Mellin integrands of
  ``eulersums`` took 342 evaluations at s = 2 and 50 digits, against
  1881 on exp-sinh (x = a + exp(pi/2 sinh t)).  An integrand with
  algebraic decay, such as 1/(1 + x^3), reaches the node cap (below) and
  raises.
- Composite Gauss-Legendre serves every finite interval [a, b], and
  needs the integrand analytic on the closed interval.  The caller may cut
  [a, b] into panels at breakpoints strictly inside it (``breaks``, none
  by default).  Each panel carries an n-point rule, exact for polynomials
  of degree < 2n, whose error falls like rho^(-2n) with rho the largest
  Bernstein ellipse about the panel free of singularities (Trefethen, "Is
  Gauss quadrature better than Clenshaw-Curtis?", SIAM Rev. 50, 2008).
  The order n comes from the working precision, about dps/2 (32 at 50
  digits, 60 at 100, 108 at 200): 32 nodes at every precision made a
  Hankel contour at 100 digits cost 3360 evaluations, more than the 2609
  of the double-exponential rule it replaced there.  Level l halves every
  panel l - _MIN_LEVEL times at that order, which about doubles rho for a
  singularity near a panel and keeps one node table per precision.  An
  endpoint singularity loses that rate: log x on [0, 1] at 15 digits is
  still off by about 5e-6 at the last level, and the result says it has
  not converged.

The exp-exp transform is a trapezoid sum in t at mesh h = 2^-level; both
rules are refined the same way:

- Levels are nested (Takahasi & Mori 1974; Bailey, Jeyabalan & Li, "A
  comparison of three high-precision quadrature schemes", Exp. Math. 14,
  2005).  The first level sums every node of its mesh; each later level
  keeps the running sum and adds only the odd-k nodes of the halved mesh,
  so no node is evaluated twice.  Gauss-Legendre nodes do not nest, so each
  of its levels sums all its panels afresh.  Levels are refined until two
  successive estimates agree below the target tolerance; the returned
  error estimate is the last inter-level difference.
- Gauss-Legendre (x, w) tables depend only on the working precision, so
  they are one more per-precision series of ``precision._coefficients``:
  entry j is the j-th largest root of P_n and its weight (the rule is
  symmetric, n even).  Each root starts from Tricomi's estimate and two
  float Newton steps and is refined by Newton steps on the Legendre
  three-term recurrence in integer fixed point, with the Stirling kernel's
  guard bits (``special._wp``); the n = 32 table at 50 digits takes about
  3 ms.
- The nodes and weights of both rules depend only on the working
  precision too, so they are kept in per-precision node-list tables
  (``precision._node_lists``), built by the same expressions at the same
  precision as an inline build.  An exp-exp walk, one per (level, sign,
  first), is a series indexed by its position in the walk and grown only
  as far as some caller's walk reached; an entry is x - a =
  exp(t - e^-t) and the weight, two exps, and the walk yields a + that.
  A Gauss-Legendre list is the (x, w) of every node of one (panel edges,
  level), stored whole or not at all, so every contour of one radius and
  every Ramanujan k read the same list.  The node cap is checked in the
  walk, not in the table: a walk that reaches t = _NODE_CAP raises
  whatever the table holds.  The trade-off, measured: the warm mellin
  suite took 0.155 -> 0.090 s of thread CPU at 100 digits and 0.79 ->
  0.39 s at 200, the warm hankel suite 0.47 -> 0.44 s and 2.0 -> 1.6 s
  (medians of three processes per side, each the median of 5 warm runs).
  After a cold verify of all suites the tables hold 0.49 MB at 50
  digits, 1.1 MB at 100 and 3.1 MB at 200, and the memory traced after
  the run grew by 0.35, 0.68 and 2.0 MB (``precision`` gives the bound).
  What callers store beside the nodes are the transcendental kernels
  their integrands evaluate at a node (``precision._node_kernels``):
  those cost several exps and logs a node and are shared by every s or u
  that visits the node.
- The integrand may return a tuple.  Its components share nodes and
  levels, the call converges when every component does, and the result's
  value is then a tuple too.
- The exp-exp walk stops on the integrand's decay: three successive
  contributions below 10^-(dps+5), on the walk to infinity and on the walk
  to a.  A walk that reaches t = _NODE_CAP (20*2^level nodes) first
  raises ArithmeticError instead of returning a truncated sum.  That is
  x = a + e^20, about a + 4.9e8, where an integrand with algebraic decay
  is not yet negligible.  The Gauss-Legendre walk has no cutoff: it
  visits every node of its level.

The Ramanujan integral int_1^N H(t) t^k dt is on Gauss-Legendre, over
panels cut at the powers of 3 below N.  Its caller evaluates H(t) once per
distinct node, for all k and for both the scheme and its refinement at
2N, so its cost follows the number of distinct nodes.  At kmax = 4 and
50 digits it takes 4320 evaluations at 576 distinct nodes and 586 psi
evaluations, ten of them at H(N).  When this rule replaced the
double-exponential rule for finite intervals, each scheme still kept its
own H(t) table: 4320 evaluations at 864 distinct nodes and 874 psi
evaluations, against 3744 at 1152 and 1162.  run_oracle(4, 50) took
0.20-0.28 s of thread CPU against 0.26-0.32 s, and run_oracle(4, 30),
where the order is 24, 0.12-0.20 s against 0.13-0.16 s (medians of 7 warm
runs in four processes per rule, taken in turn, on a 2-vCPU KVM host,
Python 3.11.7, pure-Python mpmath 1.3.0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import math

import mpmath
from mpmath import mpf

from .precision import PrecisionContext, _coefficients, _node_lists
from .special import _wp

_MIN_LEVEL = 3
_MAX_LEVEL = 12
_NODE_CAP = 20


@dataclass(frozen=True)
class QuadratureResult:
    value: mpf | tuple
    error: mpf
    converged: bool
    levels: int

    def require_converged(self) -> mpf | tuple:
        if not self.converged:
            raise ArithmeticError(
                f"quadrature did not converge (estimate {self.value}, error {self.error})"
            )
        return self.value


def _gauss_legendre_order() -> int:
    # about dps/2 nodes, a multiple of 4: 32 at 50 digits, 60 at 100, 108 at 200
    return (mpmath.mp.dps + 11) // 8 * 4


def _legendre(n: int, x, shift=None) -> tuple:
    """(P_n(x), P_(n-1)(x)) by the three-term recurrence.

    x is a float, or with shift an integer standing for x * 2^-shift.
    """
    p0, p1 = 1 if shift is None else 1 << shift, x
    for k in range(1, n):
        if shift is None:
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        else:
            p0, p1 = p1, ((2 * k + 1) * (x * p1 >> shift) - k * p0) // (k + 1)
    return p1, p0


def _gauss_legendre_node(n: int, j: int) -> tuple:
    """(x, w): the j-th largest root x of P_n and its weight w."""
    # Tricomi's estimate, then Newton steps with
    # P_n' = n (x P_n - P_(n-1)) / (x^2 - 1): two in floats, the rest in
    # fixed point, until the error left after a step, at most about
    # n^2 dx^2, is below the last bit
    x = math.cos(math.pi * (4 * j - 1) / (4 * n + 2)) * (1 - (n - 1) / (8 * n**3))
    for _ in range(2):
        p, q = _legendre(n, x)
        x -= p * (x * x - 1) / (n * (x * p - q))
    wp = _wp()
    one = 1 << wp
    x = int(math.ldexp(x, 53)) << (wp - 53)
    for _ in range(wp.bit_length()):
        p, q = _legendre(n, x, wp)
        dx = p * ((x * x >> wp) - one) // (n * ((x * p >> wp) - q))
        x -= dx
        if (n * dx) ** 2 < one:
            break
    else:
        raise ArithmeticError(f"Newton's method did not converge to root {j} of P_{n}")
    # at a root, w = 2 / ((1 - x^2) P_n'^2) = 2 (1 - x^2) / (n P_(n-1))^2
    _, q = _legendre(n, x, wp)
    w = (2 * (one - (x * x >> wp)) << 2 * wp) // (n * q) ** 2
    return mpf(x) / one, mpf(w) / one


def _gauss_legendre_nodes(edges: tuple, level: int) -> list:
    """The (x, w) of every node of a level on the panels between edges."""
    n = _gauss_legendre_order()
    table = _coefficients(_gauss_legendre_node, n)
    rule = [table[j] for j in range(1, n // 2 + 1)]
    split = 2 ** (level - _MIN_LEVEL)
    nodes = []
    for lo, hi in zip(edges, edges[1:]):
        half = (hi - lo) / (2 * split)
        weights = [half * w for _, w in rule]
        for i in range(split):
            mid = lo + (2 * i + 1) * half
            for (x, _), w in zip(rule, weights):
                nodes.append((mid + half * x, w))
                nodes.append((mid - half * x, w))
    return nodes


def _gauss_legendre_walks(edges: tuple, level: int, first: bool):
    return (_node_lists(_gauss_legendre_nodes)(edges, level),)


def _exp_exp_node(level: int, sign: int, first: bool, i: int) -> tuple:
    """(x - a, w) at the i-th node of the walk of sign: x - a = exp(t - e^-t), w = (x - a)(1 + e^-t)."""
    # t = k h at h = 2^-level: every k >= 0 on a first level, else odd k;
    # t = 0 belongs to the positive walk
    k = i + (sign < 0) if first else 2 * i + 1
    t = sign * k * mpf(2) ** (-level)
    et = mpmath.exp(-t)
    ex = mpmath.exp(t - et)
    return ex, ex * (1 + et)


def _exp_exp_walks(a: mpf, level: int, first: bool):
    lists = _node_lists(_exp_exp_node)

    def nodes(sign):
        key = (level, sign, first)
        walk = lists.series(*key)
        last = _NODE_CAP * 2**level
        # the number of k <= last the walk visits
        for i in range(last + (sign > 0) if first else last // 2):
            ex, w = walk[i] if i < len(walk) else lists.node(walk, key, i)
            yield a + ex, w
        raise ArithmeticError(
            f"quadrature node walk reached t = {_NODE_CAP} at level {level}; "
            "an integrand on [a, inf) must decay at least exponentially"
        )

    # the positive walk goes to infinity, the negative one approaches a
    return nodes(1), nodes(-1)


def _add_level(f, walks, decays: bool, eps: mpf, total: list | None, is_tuple: bool):
    """Add w*f(x) over the walks' nodes to the running sums; (sums, tuple-valued).

    With decays, a walk stops after three successive contributions below eps.
    """
    for nodes in walks:
        small = 0
        for x, w in nodes:
            fx = f(x)
            is_tuple = isinstance(fx, tuple)
            terms = [w * v for v in fx] if is_tuple else [w * fx]
            total = terms if total is None else [s + c for s, c in zip(total, terms)]
            if decays:
                small = small + 1 if all(abs(c) < eps for c in terms) else 0
                if small >= 3:
                    break
    return total, is_tuple


def integrate(
    f: Callable[[mpf], mpf | tuple],
    a,
    b,
    ctx: PrecisionContext,
    tol_offset: int = 5,
    breaks: tuple = (),
) -> QuadratureResult:
    """Integrate f over [a, b] (b may be mpmath.inf) to ~10^(-digits+tol_offset).

    On [a, inf) f must decay at least exponentially: one with algebraic
    decay, such as 1/(1 + x^3), raises ArithmeticError.  On a finite
    interval f must be analytic on the closed interval [a, b]: composite
    Gauss-Legendre integrates it over the panels that breaks, the points
    strictly between a and b, cut it into.  An endpoint singularity, such
    as log x on [0, 1], does not converge by the last level, and the
    result says so.  b < a without breaks gives the integral from a to b.
    f may return a tuple of values; the result's value is then the tuple
    of their integrals.
    """
    with ctx.workdps():
        tol = mpf(10) ** (-ctx.digits + tol_offset)
        eps = mpf(10) ** (-ctx.dps - 5)
        a = mpf(a)
        nested = decays = b == mpmath.inf
        if decays:
            if breaks:
                raise ValueError("Gauss-Legendre panels need a finite interval [a, b]")
            walks = partial(_exp_exp_walks, a)
        else:
            b = mpf(b)
            inner = sorted(mpf(x) for x in breaks)
            if not all(a < x < b for x in inner):
                raise ValueError("breaks must lie strictly between a and b")
            walks = partial(_gauss_legendre_walks, (a, *inner, b))

        total = prev = None
        value = [mpf(0)]
        err = mpf("inf")
        converged = is_tuple = False
        for level in range(_MIN_LEVEL, _MAX_LEVEL + 1):
            if not nested:
                total = None
            total, is_tuple = _add_level(
                f, walks(level, total is None), decays, eps, total, is_tuple
            )
            h = mpf(2) ** (-level) if nested else 1
            value = [s * h for s in total]
            if prev is not None:
                errs = [abs(v - p) for v, p in zip(value, prev)]
                err = max(errs)
                if all(e < tol * max(mpf(1), abs(v)) for e, v in zip(errs, value)):
                    converged = True
                    break
            prev = value
        rounded = tuple(ctx.round(v) for v in value)
        return QuadratureResult(
            rounded if is_tuple else rounded[0], err, converged, level if converged else _MAX_LEVEL
        )
