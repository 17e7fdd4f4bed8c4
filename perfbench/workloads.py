"""Workload definitions and seeded input generation.

This module never imports zetachain: the parent process generates inputs
from the seed here, hands them to the worker, and checks the outputs with
mpmath alone.
"""

from __future__ import annotations

import random

# The eight suites of `zetachain verify`, in CLI order.
VERIFY_SUITES = (
    "bernoulli",
    "zeta",
    "functional_equation",
    "fundamental_lemma",
    "mellin",
    "hankel",
    "lemma4",
    "ramanujan",
)

ORACLE_KMAX = 4
CHAIN_KMAX = 8
CHAIN_CONVENTIONS = ("A", "B")
# one precision per 10-digit band from 20 up to 200 digits
CHAIN_BANDS = tuple(range(20, 200, 10))
CHAIN_BAND_WIDTH = 10
EULER_DIGITS = 100
EULER_INTERVAL = (1.1, 5.0)
EULER_POINTS = 4

# Counters that must be non-zero in a traced pass of each workload.  A zero
# here means the tracer missed a binding (or the layer stopped being used),
# so the traced run fails instead of reporting a silent 0.
EXPECTED_USED = {
    "verify-50": (
        "quadrature.calls",
        "quadrature.integrand_evals",
        "hankel.bernoulli_interp.calls",
        "eulersums.h_sum.calls",
        "special.gamma_fn.calls",
        "zeta.zeta_em.calls",
        "exact.bernoulli.calls",
    ),
    "oracle-50": (
        "quadrature.calls",
        "quadrature.integrand_evals",
        "special.digamma.calls",
        "ramanujan.ramanujan_sum.calls",
        "chain.solve_chain.calls",
        "values.numeric.calls",
    ),
    "euler-100": (
        "special.polygamma.calls",
        "special.hsmooth_pow_derivs.calls",
        "eulersums.h_sum.calls",
        "zeta.zeta_em.calls",
    ),
    "chain-sweep": (
        "zeta.zeta_em.calls",
        "zeta.zeta_prime_em.calls",
        "chain.solve_chain.calls",
        "exact.bernoulli.calls",
        "values.numeric.calls",
    ),
}

WORKLOADS = tuple(EXPECTED_USED)


def make_inputs(name: str, seed: int) -> dict:
    """Inputs for one run of a workload; the same seed gives the same inputs.

    Every input carries the highest precision it uses as ``warmup_digits``,
    so the set-up warm-up runs at the precision the passes need most.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "verify-50":
        return {"digits": 50, "suites": list(VERIFY_SUITES), "warmup_digits": 50}
    if name == "oracle-50":
        return {"digits": 50, "kmax": ORACLE_KMAX, "warmup_digits": 50}
    if name == "euler-100":
        lo, hi = EULER_INTERVAL
        width = (hi - lo) / EULER_POINTS
        points = []
        for i in range(EULER_POINTS):
            # three decimals keep the point exact in decimal at any precision
            milli = rng.randrange(round((lo + i * width) * 1000), round((lo + (i + 1) * width) * 1000))
            points.append(f"{milli // 1000}.{milli % 1000:03d}")
        return {"digits": EULER_DIGITS, "points": points, "warmup_digits": EULER_DIGITS}
    if name == "chain-sweep":
        # pass i takes the i-th entry of each band's shuffled digit list, so no
        # precision repeats within a run; the run ends after CHAIN_BAND_WIDTH passes
        columns = [rng.sample(range(b, b + CHAIN_BAND_WIDTH), CHAIN_BAND_WIDTH) for b in CHAIN_BANDS]
        passes = [[col[i] for col in columns] for i in range(CHAIN_BAND_WIDTH)]
        return {
            "kmax": CHAIN_KMAX,
            "conventions": list(CHAIN_CONVENTIONS),
            "passes": passes,
            "warmup_digits": CHAIN_BANDS[-1] + CHAIN_BAND_WIDTH,
        }
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
