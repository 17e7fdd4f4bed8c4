"""Quadrature on finite and semi-infinite intervals.

Two rules share one level driver:

- exp-exp covers [a, inf) for integrands that decay at least
  exponentially, with nodes x = a + exp(t - e^-t) and weights
  (x - a)(1 + e^-t) (Takahasi & Mori 1974; Mori & Sugihara, "The
  double-exponential transformation in numerical analysis", J. Comput.
  Appl. Math. 127, 2001).  The nodes grow like e^t, so an e^-x integrand
  falls double exponentially in t at both ends of the walk.  An integrand
  with algebraic decay, such as 1/(1 + x^3), reaches the node cap (below)
  and raises.
- Composite Gauss-Legendre serves every finite interval [a, b], and
  needs the integrand analytic on the closed interval.  The caller may cut
  [a, b] into panels at breakpoints strictly inside it (``breaks``, none
  by default).  Each panel carries an n-point rule, exact for polynomials
  of degree < 2n, whose error falls like rho^(-2n) with rho the largest
  Bernstein ellipse about the panel free of singularities (Trefethen, "Is
  Gauss quadrature better than Clenshaw-Curtis?", SIAM Rev. 50, 2008).
  The order n comes from the working precision, about dps/2 and a
  multiple of 4, so the digits one level gains, rho^(-2n), grow in
  proportion to the precision asked for.  Level l halves every
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
- The Gauss-Legendre rule on [-1, 1] depends only on the working
  precision, so it is one more per-precision series of
  ``precision._coefficients``: entry j is the j-th largest root of P_n and
  its weight (the rule is symmetric, n even).  Each root starts from
  Tricomi's estimate and two float Newton steps and is refined by Newton
  steps on the Legendre three-term recurrence in integer fixed point, with
  the Stirling kernel's guard bits (``special._wp``).
- Nodes and node kernels live in per-precision node-list tables
  (``precision._node_lists``), built by the same expressions at the same
  precision as an inline build, and bounded like every node list:
  - a Gauss-Legendre list is the (x, w) of every node of one level on its
    panels, keyed by (panel edges, level) and stored whole or not at all;
  - an exp-exp walk is a series of (x, w), keyed by (a, level, sign),
    indexed by position in the walk and grown only as far as some walk
    reached (the level says whether the walk visits every node of its
    mesh or only the odd ones);
  - with ``kernel=(build, *args)`` the integrand is called as f(x, k),
    and k = build(*args, x) is kept beside the node: a Gauss-Legendre
    list of (x, w, k) keyed by (kernel, panel edges, level), or an
    exp-exp series keyed by (kernel, a, level, sign).  A kernel is
    the part of an integrand that depends on the node alone, so every
    integrand that passes the same kernel over the same nodes reads it
    back instead of building it.  The library's kernels are raw
    ``_mpf_``/``_mpc_`` tuples, which take less memory than mpf objects.
  The node cap is checked in the walk, not in the table: a walk that
  reaches t = _NODE_CAP raises whatever the table holds.
- The integrand returns an mpf or a tuple of mpf.  The components of a
  tuple share nodes and levels, the call converges when every component
  does, and the result's value is then a tuple too.
- Integrands and level sums run on raw libmp values.  The library's
  integrands compute on the ``_mpf_``/``_mpc_`` tuples of their node and
  kernel and build an mpf only for what they return.  A level's sums of
  w*f stay raw ``_mpf_`` tuples, and the level driver turns them into mpf
  once per level.  Each step is the libmp call (``mpf_mul``, ``mpf_add``,
  ``mpf_sub``, ``mpf_exp``, ``mpf_cos_sin``, ...) that mpmath's operator or
  function on the same expression makes, in the same order, at the
  working precision and rounding to nearest, so every value equals the
  operators' bit for bit, without an mpf or mpc object per intermediate.
- The exp-exp walk stops on the integrand's decay: three successive
  contributions below 10^-(dps+5), on the walk to infinity and on the walk
  to a.  A walk that reaches t = _NODE_CAP (20*2^level nodes) first
  raises ArithmeticError instead of returning a truncated sum.  That is
  x = a + e^20, about a + 4.9e8, where an integrand with algebraic decay
  is not yet negligible.  The Gauss-Legendre walk has no cutoff: it
  visits every node of its level.

The Ramanujan integral int_1^N H(t) t^k dt is on Gauss-Legendre, over
panels cut at the powers of 3 below N, without a kernel: its caller
evaluates H(t) once per distinct node from a table of its own request, for
all k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import math

import mpmath
from mpmath import mpf
from mpmath.libmp import mpf_abs, mpf_add, mpf_lt, mpf_mul, round_nearest

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


def _gauss_legendre_kernels(kernel: tuple, edges: tuple, level: int) -> list:
    """(x, w, build(*args, x)) at every node of a level, kernel = (build, *args)."""
    build, *args = kernel
    return [(x, w, build(*args, x)) for x, w in _node_lists(_gauss_legendre_nodes)(edges, level)]


def _gauss_legendre_walks(edges: tuple, kernel, level: int):
    if kernel is None:
        return (_node_lists(_gauss_legendre_nodes)(edges, level),)
    return (_node_lists(_gauss_legendre_kernels)(kernel, edges, level),)


def _exp_exp_node(a: mpf, level: int, sign: int, i: int) -> tuple:
    """(x, w) at the i-th node of the walk of sign: x = a + exp(t - e^-t), w = (x - a)(1 + e^-t)."""
    # t = k h at h = 2^-level: every k >= 0 on the first level, else odd k;
    # t = 0 belongs to the positive walk
    k = i + (sign < 0) if level == _MIN_LEVEL else 2 * i + 1
    t = sign * k * mpf(2) ** (-level)
    et = mpmath.exp(-t)
    ex = mpmath.exp(t - et)
    return a + ex, ex * (1 + et)


def _exp_exp_kernels(kernel: tuple, a: mpf, level: int, sign: int, i: int) -> tuple:
    """(x, w, build(*args, x)) at the i-th node of the walk of sign, kernel = (build, *args)."""
    build, *args = kernel
    x, w = _exp_exp_node(a, level, sign, i)
    return x, w, build(*args, x)


def _exp_exp_walks(a: mpf, kernel, level: int):
    lists = _node_lists(_exp_exp_node if kernel is None else _exp_exp_kernels)
    head = (a,) if kernel is None else (kernel, a)

    def nodes(sign):
        key = (*head, level, sign)
        walk = lists.series(*key)
        last = _NODE_CAP * 2**level
        # the number of k <= last the walk visits
        for i in range(last + (sign > 0) if level == _MIN_LEVEL else last // 2):
            yield walk[i] if i < len(walk) else lists.node(walk, key, i)
        raise ArithmeticError(
            f"quadrature node walk reached t = {_NODE_CAP} at level {level}; "
            "an integrand on [a, inf) must decay at least exponentially"
        )

    # the positive walk goes to infinity, the negative one approaches a
    return nodes(1), nodes(-1)


def _add_level(f, walks, kernel: bool, decays: bool, eps: tuple, total: list | None):
    """Add w*f over the walks' nodes to the running sums; (sums, tuple-valued).

    A node is (x, w), or with kernel (x, w, k) and f is called as f(x, k).
    The sums and eps are raw _mpf_ tuples.  With decays, a walk stops after
    three successive contributions below eps.
    """
    prec, rnd = mpmath.mp.prec, round_nearest
    for nodes in walks:
        small = 0
        for node in nodes:
            fx = f(node[0], node[2]) if kernel else f(node[0])
            w = node[1]._mpf_
            is_tuple = isinstance(fx, tuple)
            terms = [mpf_mul(w, v._mpf_, prec, rnd) for v in (fx if is_tuple else (fx,))]
            total = terms if total is None else [mpf_add(s, c, prec, rnd) for s, c in zip(total, terms)]
            if decays:
                small = small + 1 if all(mpf_lt(mpf_abs(c, prec, rnd), eps) for c in terms) else 0
                if small >= 3:
                    break
    return total, is_tuple


def integrate(
    f: Callable[..., mpf | tuple],
    a,
    b,
    ctx: PrecisionContext,
    tol_offset: int = 5,
    breaks: tuple = (),
    kernel: tuple | None = None,
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
    of their integrals.  With kernel = (build, *args), f is called as
    f(x, build(*args, x)), the kernel read from the node-list tables.
    """
    with ctx.workdps():
        tol = mpf(10) ** (-ctx.digits + tol_offset)
        eps = mpf(10) ** (-ctx.dps - 5)
        a = mpf(a)
        exp_exp = b == mpmath.inf
        if exp_exp:
            if breaks:
                raise ValueError("Gauss-Legendre panels need a finite interval [a, b]")
            walks = partial(_exp_exp_walks, a, kernel)
        else:
            b = mpf(b)
            inner = sorted(mpf(x) for x in breaks)
            if not all(a < x < b for x in inner):
                raise ValueError("breaks must lie strictly between a and b")
            walks = partial(_gauss_legendre_walks, (a, *inner, b), kernel)

        total = prev = None
        value = [mpf(0)]
        err = mpf("inf")
        converged = False
        for level in range(_MIN_LEVEL, _MAX_LEVEL + 1):
            if not exp_exp:
                total = None
            total, is_tuple = _add_level(f, walks(level), kernel is not None, exp_exp, eps._mpf_, total)
            h = mpf(2) ** (-level) if exp_exp else 1
            value = [mpmath.mp.make_mpf(s) * h for s in total]
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
