"""Tests of the benchmark itself: tracer bindings, counter determinism, checks.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The traced-run tests start the benchmark as the driver does and take a few
minutes, most of it in one verify pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check_chain, check_euler, check_oracle, check_verify  # noqa: E402
from compare import compare  # noqa: E402
from speed import Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CHAIN_BANDS, WORKLOADS, make_inputs  # noqa: E402

from zetachain import cli, eulersums, exact, hankel, quadrature, ramanujan, special, zeta  # noqa: E402
from zetachain.precision import PrecisionContext  # noqa: E402


def test_tracer_wraps_every_binding_and_restores_it():
    integrate, bernoulli = quadrature.integrate, exact.bernoulli
    with Tracer():
        for module in (quadrature, hankel, eulersums, ramanujan):
            assert module.integrate is quadrature.integrate is not integrate
        for module in (exact, special, zeta, eulersums, ramanujan, cli):
            assert module.bernoulli is exact.bernoulli is not bernoulli
    for module in (quadrature, hankel, eulersums, ramanujan):
        assert module.integrate is integrate
    for module in (exact, special, zeta, eulersums, ramanujan, cli):
        assert module.bernoulli is bernoulli


def test_reversed_interval_counts_one_integrate_call():
    evals = []

    def f(x):
        evals.append(x)
        return x * x

    with Tracer() as tracer:
        res = quadrature.integrate(f, 1, 0, PrecisionContext(15))
    assert res.converged
    assert tracer.counts["quadrature.calls"] == 1
    assert tracer.counts["quadrature.integrand_evals"] == len(evals)
    assert tracer.counts["quadrature.levels"] == res.levels


def test_integrand_time_is_not_quadrature_self_time():
    def slow(x):
        time.sleep(0.001)
        return x

    with Tracer() as tracer:
        quadrature.integrate(slow, 0, 1, PrecisionContext(15))
    snap = tracer.snapshot()
    assert snap["quadrature.integrand_s"] >= 0.001 * tracer.counts["quadrature.integrand_evals"]
    assert snap["quadrature.self_s"] < snap["quadrature.integrand_s"]


def test_nested_layers_split_self_time():
    with Tracer() as tracer:
        special.hsmooth_pow_derivs(3, 2, 0, 4, PrecisionContext(30))
    assert tracer.counts["special.hsmooth_pow_derivs.calls"] == 1
    assert tracer.counts["special.polygamma.calls"] == 4
    snap = tracer.snapshot()
    assert snap["special.self_s"] > 0 and snap["exact.self_s"] > 0


def test_inputs_follow_the_seed():
    for name in WORKLOADS:
        assert make_inputs(name, 7) == make_inputs(name, 7)
    assert make_inputs("euler-100", 1) != make_inputs("euler-100", 2)
    passes = make_inputs("chain-sweep", 5)["passes"]
    used = [d for p in passes for d in p]
    assert len(used) == len(set(used))
    for p in passes:
        assert [d // 10 * 10 for d in p] == list(CHAIN_BANDS)
    for s in make_inputs("euler-100", 9)["points"]:
        assert 1.1 <= float(s) < 5.0


def test_checks_count_misses():
    verify = {"suites": ["ramanujan"]}
    good = {"suite": "ramanujan", "name": "ramanujan_convergent_selftest", "residual": "1e-30", "tolerance": "1e-20"}
    assert [v.ok for v in check_verify([good], verify, 0)] == [True]
    assert check_verify([good], verify, 0)[0].margin == pytest.approx(10)
    assert not check_verify([dict(good, residual="1e-10")], verify, 0)[0].ok
    assert [v.ok for v in check_verify([{"suite": "ramanujan", "error": "ArithmeticError: boom"}], verify, 0)] == [False]
    assert [v.ok for v in check_verify([], verify, 0)] == [False]  # a pinned check that vanished
    assert not check_euler([{"s": "2.5", "residual": "1e-80"}], {"digits": 100, "points": ["2.5"]}, 0)[0].ok
    assert [v.ok for v in check_euler([], {"digits": 100, "points": ["2.5"]}, 0)] == [False]
    row = {"k": 0, "ramanujan": "0", "stable": False, "spread": "1", "chain_A": "0", "chain_B": "0"}
    oracle = check_oracle([row], {"digits": 50, "kmax": 1}, 0)
    assert [v.ok for v in oracle] == [False, False]  # wrong row, missing row


def test_chain_check_covers_every_row_and_number():
    inputs = {"passes": [[20]], "conventions": ["A"], "kmax": 1}
    row = {"digits": 20, "k": 1, "convention": "A",
           "s_value": {"a": "-5/24", "b": "-1/4", "c": "1/4"},
           "zprime_chain": {"a": "1/12", "b": "1/6", "c": "-1/4"},
           "zprime_numeric": "-0.27993332245208089412",
           "zprime_oracle": "-0.16542114370045092921"}
    assert [v.ok for v in check_chain([row], inputs, 0)] == [True]
    assert not check_chain([dict(row, zprime_numeric="-0.279933322452080")], inputs, 0)[0].ok
    assert not check_chain([dict(row, s_value={"a": "0", "b": "0", "c": "0"})], inputs, 0)[0].ok
    assert [v.ok for v in check_chain([], inputs, 0)] == [False]
    wider = dict(inputs, kmax=2)
    assert [v.ok for v in check_chain([row], wider, 0)] == [True, False]  # k=2 missing


def test_sampler_reports_reference_seconds():
    with Sampler() as sampler:
        mark = sampler.mark()
        t0 = time.thread_time()
        while time.thread_time() - t0 < 0.3:
            pass
        spent = sampler.reference_s(mark)
    assert sampler.speeds
    assert 0 < spent < 10


def test_compare_refuses_mixed_backends(tmp_path):
    paths = []
    for i, backend in enumerate(("python", "gmpy")):
        info = {"workload": "euler-100", "trace": 0, "mpmath_backend": backend}
        res = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"pass_s": {"value": 1.0, "unit": "s"}}}
        path = tmp_path / f"run{i}.txt"
        path.write_text(f"run {json.dumps(info)}\n{json.dumps(res)}\n")
        paths.append(str(path))
    assert compare([paths[0]], [paths[1]]) == 2
    assert compare([paths[0]], [paths[0]]) == 0


def _traced_counters(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"]
    counters = {}
    for line in lines:
        # "  <name> = <value> count" lines list every counter of the first traced pass
        if line.startswith("  ") and line.endswith(" count"):
            name, value = line.split(" = ")
            counters[name.strip()] = float(value.split()[0])
    return counters


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_give_identical_counters(workload):
    first = _traced_counters(workload, seed=11)
    assert first
    assert _traced_counters(workload, seed=11) == first
