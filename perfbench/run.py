"""zetachain benchmark: time to a checked result, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-50 --seed 1 --seconds 20 --trace 0

Set-up is timed in fresh interpreters (import plus warm-up), then one worker
process runs the workload's passes on one thread as a closed loop with a
single caller, and this process checks every output with mpmath and pinned
references; it never imports zetachain itself.  Times are reference seconds
(``speed.py``): CPU time rescaled by the CPU speed sampled while it was
spent, so that a change of the host's speed does not show as a change of
the program.  With ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json`` are reported, with ``--trace 1`` its
per-layer metrics, from traced passes that alternate with untraced ones.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import mpmath

from checks import CHECKS
from workloads import EXPECTED_USED, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 15
PROBE_LIMIT_S = 5  # one set-up probe; about 0.2 s of wall time at the fast speed
# the worker's start-up and warm-up plus the one pass that may end after --seconds
PASS_LIMIT_S = 60


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _commit() -> str:
    """HEAD's commit, marked "-dirty" with uncommitted changes; "unknown" outside a repository."""
    if not (ROOT / ".git").exists():
        return "unknown"  # not a checkout of its own; git would report an enclosing repository
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def provenance() -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
    }


def _run_json(args: list[str], timeout: float, request: dict | None = None) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=_environment(),
        input=None if request is None else json.dumps(request),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def measure_setup(digits: int) -> float:
    """Median reference seconds for a fresh interpreter to import zetachain and warm up."""
    probes = [_run_json(["--setup", str(digits)], PROBE_LIMIT_S)["setup_s"] for _ in range(SETUP_PROBES)]
    return statistics.median(probes)


def layer_values(workload: str, passes: list[dict]) -> dict[str, float]:
    """Counters of the first traced pass, medians of traced times, and the trace overhead."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    first = traced[0]["layers"]
    unused = [name for name in EXPECTED_USED[workload] if not first.get(name)]
    if unused:
        raise BenchmarkError(
            f"layers expected on {workload} show zero calls: {', '.join(unused)}; "
            "the tracer missed a binding or the workload no longer reaches them"
        )
    values = {}
    for name, value in first.items():
        timed = name.endswith("_s")
        values[name] = statistics.median(p["layers"][name] for p in traced) if timed else value
    values["trace.overhead_s"] = statistics.median(p["pass_s"] for p in traced) - statistics.median(
        p["pass_s"] for p in untraced
    )
    return values


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "zetachain" / "__init__.py").is_file():
        raise BenchmarkError(f"no zetachain sources under {SRC}; run from a repository checkout")
    spec = json.loads(SPEC.read_text())
    inputs = make_inputs(workload, seed)
    setup_s = None if trace else measure_setup(inputs["warmup_digits"])
    request = {"workload": workload, "inputs": inputs, "seconds": seconds, "trace": trace}
    result = _run_json([], seconds + PASS_LIMIT_S, request)
    passes = result["passes"]

    check = CHECKS[workload]
    verdicts = [v for i, p in enumerate(passes) for v in check(p["outputs"], inputs, i)]
    failed = [v for v in verdicts if not v.ok]
    margins = [v.margin for v in verdicts if v.margin is not None]

    if trace:
        values = layer_values(workload, passes)
        # a listed counter that never fired is a measured zero
        metrics = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}
    else:
        values = {
            "pass_s": statistics.median(p["pass_s"] for p in passes),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            # empty only when every output that has a tolerance raised
            "margin_digits_min": min(margins, default=0.0),
            "pass_ratio": 1 - len(failed) / len(verdicts),
        }
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    return {
        "provenance": provenance(),
        "passes": passes,
        "failures": [v.detail for v in failed],
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": metrics,
        "all_layers": values if trace else None,
    }


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="zetachain benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    run_info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(f"run {json.dumps(dict(run_info, **out['provenance']), sort_keys=True)}")
    print(f"passes {len(out['passes'])}, wall s: " + " ".join(f"{p['wall_s']:.3f}" for p in out["passes"]))
    print(f"passes {len(out['passes'])}, reference s: " + " ".join(f"{p['pass_s']:.3f}" for p in out["passes"]))
    for detail in out["failures"]:
        print(f"FAILED {detail}")
    print(f"fail_ratio = {out['failed'] / out['attempted']:.6g} ratio ({out['failed']}/{out['attempted']})")
    for name, (value, unit) in out["metrics"].items():
        print(f"{name} = {_fmt(value)} {unit}")
    if out["all_layers"]:
        print("every counter of the first traced pass and every median traced time:")
        for name, value in sorted(out["all_layers"].items()):
            print(f"  {name} = {_fmt(value)} {'s' if name.endswith('_s') else 'count'}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
