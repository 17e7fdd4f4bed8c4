"""Benchmark worker: runs one workload's passes against zetachain in a fresh process.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py --setup DIGITS   # import + warm-up, print JSON
    python3 perfbench/worker.py < request.json    # run passes, print JSON

The request holds the workload name, its generated inputs, the seconds to
measure and whether to trace.  Passes repeat while the next one is expected
to finish within the time budget (at least one pass, or one untraced and
one traced pass when tracing).  Every pass reports its wall time and its
time in reference seconds (see ``speed.py``).  Outputs are returned as
strings and are checked by the parent, which never imports zetachain.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
from pathlib import Path

from speed import INTERVAL_S, Sampler

SETUP_INTERVAL_S = 0.005

SRC = Path(__file__).resolve().parent.parent / "src"


def warm_up(digits: int) -> None:
    """First calls after import, at the workload's top precision: they fill the
    exact layer's Bernoulli cache and mpmath's caches of pi, Euler's gamma and
    the logarithms of small integers."""
    from zetachain import precision, values, zeta

    ctx = precision.PrecisionContext(digits)
    zeta.zeta_em(3, ctx)
    zeta.zeta_prime_em(-3, ctx)
    values.SymbolicValue.of(0, 1, 1).numeric(ctx)


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# Each workload's pass is a list of library calls, each paired with the
# outputs to report as failed if the call raises.


def _verify_calls(inputs: dict, index: int) -> list:
    from zetachain import cli

    def suite(name: str) -> list[dict]:
        doc = cli.run_verify(inputs["digits"], [name])
        return [
            {"suite": name, "name": c["name"], "residual": c["residual"], "tolerance": c["tolerance"]}
            for c in doc["suites"][0]["checks"]
        ]

    return [(functools.partial(suite, name), [{"suite": name}]) for name in inputs["suites"]]


def _oracle_calls(inputs: dict, index: int) -> list:
    from zetachain import cli

    def oracle() -> list[dict]:
        doc = cli.run_oracle(inputs["kmax"], inputs["digits"])
        return [
            {
                "k": r["k"],
                "ramanujan": r["ramanujan"],
                "stable": r["stable"],
                "spread": r["spread"],
                "chain_A": r["chain_A"],
                "chain_B": r["chain_B"],
            }
            for r in doc["rows"]
        ]

    return [(oracle, [{"k": k} for k in range(inputs["kmax"] + 1)])]


def _euler_calls(inputs: dict, index: int) -> list:
    from zetachain import eulersums, precision

    ctx = precision.PrecisionContext(inputs["digits"])

    def residual(s: str) -> list[dict]:
        return [{"s": s, "residual": str(eulersums.fundamental_lemma_residual(s, ctx))}]

    return [(functools.partial(residual, s), [{"s": s}]) for s in inputs["points"]]


def _chain_calls(inputs: dict, index: int) -> list:
    from zetachain import cli
    from zetachain.values import SumConvention

    conventions = tuple(SumConvention(c) for c in inputs["conventions"])

    def chain(digits: int) -> list[dict]:
        doc = cli.run_chain(inputs["kmax"], conventions, digits)
        keys = ("k", "convention", "s_value", "zprime_chain", "zprime_numeric", "zprime_oracle",
                "zeta_odd_chain", "zeta_odd_oracle")
        return [dict({key: r[key] for key in keys if key in r}, digits=digits) for r in doc["report"]["rows"]]

    return [
        (
            functools.partial(chain, digits),
            [
                {"digits": digits, "k": k, "convention": c}
                for c in inputs["conventions"]
                for k in range(1, inputs["kmax"] + 1)
            ],
        )
        for digits in inputs["passes"][index]
    ]


CALLS = {
    "verify-50": _verify_calls,
    "oracle-50": _oracle_calls,
    "euler-100": _euler_calls,
    "chain-sweep": _chain_calls,
}


def _run_pass(calls: list) -> list[dict]:
    outputs = []
    for call, on_error in calls:
        try:
            outputs.extend(call())
        except Exception as exc:  # a raising call fails each of its outputs
            outputs.extend(dict(o, error=_error(exc)) for o in on_error)
    return outputs


def _timed_pass(name: str, inputs: dict, index: int, traced: bool, sampler: Sampler) -> dict:
    calls = CALLS[name](inputs, index)
    layers = None
    mark = sampler.mark()
    t0 = time.perf_counter()
    if traced:
        from tracer import Tracer

        with Tracer() as tracer:
            outputs = _run_pass(calls)
        layers = tracer.snapshot()
    else:
        outputs = _run_pass(calls)
    wall = time.perf_counter() - t0
    pass_s = sampler.reference_s(mark)
    if layers is not None:
        # layer times in reference seconds, like the pass
        layers = {k: v * pass_s / wall if k.endswith("_s") else v for k, v in layers.items()}
    return {"traced": traced, "wall_s": wall, "pass_s": pass_s, "outputs": outputs, "layers": layers}


def run_request(request: dict, sampler: Sampler) -> dict:
    name, inputs = request["workload"], request["inputs"]
    warm_up(inputs["warmup_digits"])
    max_passes = len(inputs["passes"]) if "passes" in inputs else None
    # untraced passes only, or alternating untraced / traced pairs
    kinds = (False, True) if request["trace"] else (False,)
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        for traced in kinds:
            passes.append(_timed_pass(name, inputs, len(passes), traced, sampler))
        last_round = sum(p["wall_s"] for p in passes[-len(kinds):])
        if time.perf_counter() - start + last_round > request["seconds"]:
            break
        if max_passes is not None and len(passes) + len(kinds) > max_passes:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "peak_rss_mb": peak_kb / 1024}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", type=int, metavar="DIGITS", help="import and warm up only")
    args = parser.parse_args(argv)
    request = None if args.setup is not None else json.load(sys.stdin)
    # set-up is short, so it is sampled more densely
    with Sampler(SETUP_INTERVAL_S if request is None else INTERVAL_S) as sampler:
        import zetachain

        if Path(zetachain.__file__).resolve().parent.parent != SRC:
            print(f"zetachain was imported from {zetachain.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        if request is None:
            warm_up(args.setup)
            # from interpreter start-up, not from the sampler's start
            result = {"setup_s": sampler.reference_s()}
        else:
            result = run_request(request, sampler)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
