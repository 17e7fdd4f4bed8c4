"""Correctness checks for worker outputs, with expected values that owe nothing to src/.

Each check lists the outputs a pass must produce, from its inputs and the
pinned references, and returns one ``Verdict`` per expected output: whether
it passed and its margin, log10(tolerance / error) in digits (None for exact
checks, whose tolerance is 0; an error of exactly 0 counts as 10^-260).  An
output that is missing or that raised in the worker is a failed verdict, so
a library change that drops outputs cannot shrink what is checked.  Expected
values come from mpmath's own functions, from exact identities (a residual
must vanish), or from references pinned in ``reference.json``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mpf


@functools.cache
def _reference() -> dict:
    return json.loads(Path(__file__).with_name("reference.json").read_text())


# parse library strings with more digits than any workload requests
_PARSE_DPS = 260


@dataclass(frozen=True)
class Verdict:
    ok: bool
    margin: float | None
    detail: str = ""


def _margin(tolerance: mpf, error: mpf) -> float | None:
    if tolerance == 0:
        return None
    return float(mpmath.log10(tolerance / max(error, mpf(10) ** -_PARSE_DPS)))


def _bounded(error: mpf, tolerance: mpf, detail: str) -> Verdict:
    ok = error <= tolerance
    return Verdict(ok, _margin(tolerance, error), "" if ok else detail)


def _expected(outputs: list[dict], key, expected: list) -> list[tuple[object, dict | None]]:
    """(key, output) for every expected key, None where the output is missing,
    then any output with a key that was not expected."""
    got = {key(o): o for o in outputs}
    wanted = set(expected)
    return [(k, got.get(k)) for k in expected] + [(k, o) for k, o in got.items() if k not in wanted]


def _unusable(out: dict | None, where: str) -> Verdict | None:
    """A failed verdict for a missing or raising output, else None."""
    if out is None:
        return Verdict(False, None, f"{where}: output missing")
    if "error" in out:
        return Verdict(False, None, f"{where}: {out['error']}")
    return None


def _triple(t: dict) -> mpf:
    """a + b*gamma + c*log(2*pi) for a pinned triple of rational strings."""
    a, b, c = (Fraction(t[x]) for x in "abc")
    q = lambda f: mpf(f.numerator) / f.denominator  # noqa: E731
    return q(a) + q(b) * mpmath.euler + q(c) * mpmath.log(2 * mpmath.pi)


def check_verify(outputs: list[dict], inputs: dict, index: int) -> list[Verdict]:
    """Every pinned check of every suite is present, with its residual at or below its tolerance."""
    pinned = _reference()["verify-50"]["checks"]
    expected = [(suite, name) for suite in inputs["suites"] for name in pinned[suite]]
    # a suite that raised reports one error output and none of its checks
    raised = {o["suite"]: o for o in outputs if "name" not in o}
    rows = [o for o in outputs if "name" in o]
    verdicts = []
    with mpmath.workdps(_PARSE_DPS):
        for (suite, name), out in _expected(rows, lambda o: (o["suite"], o["name"]), expected):
            bad = _unusable(out or raised.get(suite), f"{suite}/{name}")
            if bad:
                verdicts.append(bad)
                continue
            residual, tolerance = mpf(out["residual"]), mpf(out["tolerance"])
            verdicts.append(_bounded(residual, tolerance, f"{suite}/{name}: {residual} > {tolerance}"))
    return verdicts


def check_oracle(outputs: list[dict], inputs: dict, index: int) -> list[Verdict]:
    """All rows stable; each value within 10^-(digits/2) of the pinned reference,
    and each chain value within 10^-digits of its pinned exact triple."""
    ref = _reference()["oracle-50"]
    if inputs["digits"] != ref["digits"]:
        raise ValueError("the pinned oracle reference is for 50 digits only")
    verdicts = []
    with mpmath.workdps(_PARSE_DPS):
        tolerance = mpf(10) ** (-(inputs["digits"] // 2))
        chain_tolerance = mpf(10) ** (-inputs["digits"])
        for k, out in _expected(outputs, lambda o: o["k"], list(range(inputs["kmax"] + 1))):
            bad = _unusable(out, f"k={k}")
            if bad:
                verdicts.append(bad)
                continue
            error = abs(mpf(out["ramanujan"]) - mpf(ref["ramanujan"][str(k)]))
            spread = mpf(out["spread"])
            chain_errors = [
                abs(mpf(out[f"chain_{c}"]) - _triple(ref["s_value"][c][str(k)])) for c in ("A", "B")
            ]
            ok = (
                bool(out["stable"])
                and error <= tolerance
                and spread < tolerance
                and max(chain_errors) <= chain_tolerance
            )
            margin = min(
                _margin(tolerance, error),
                _margin(tolerance, spread),
                *(_margin(chain_tolerance, e) for e in chain_errors),
            )
            detail = "" if ok else (
                f"k={k}: stable={out['stable']} error={error} spread={spread} chain errors={chain_errors}"
            )
            verdicts.append(Verdict(ok, margin, detail))
    return verdicts


def check_euler(outputs: list[dict], inputs: dict, index: int) -> list[Verdict]:
    """Each fundamental-lemma residual (which vanishes exactly) is within 10^-(digits-10)."""
    verdicts = []
    with mpmath.workdps(_PARSE_DPS):
        tolerance = mpf(10) ** (-(inputs["digits"] - 10))
        for s, out in _expected(outputs, lambda o: o["s"], inputs["points"]):
            bad = _unusable(out, f"s={s}")
            if bad:
                verdicts.append(bad)
                continue
            residual = mpf(out["residual"])
            verdicts.append(_bounded(residual, tolerance, f"s={s}: residual {residual}"))
    return verdicts


@functools.cache
def _zprime_reference(k: int) -> mpf:
    # one evaluation above the highest requested precision serves every pass
    with mpmath.workdps(_PARSE_DPS):
        return mpmath.zeta(-k, derivative=1)


@functools.cache
def _zeta_reference(n: int) -> mpf:
    with mpmath.workdps(_PARSE_DPS):
        return mpmath.zeta(n)


def check_chain(outputs: list[dict], inputs: dict, index: int) -> list[Verdict]:
    """Every (digits, convention, k) row of the pass is present, and in each:
    the exact triples equal the pinned ones; zeta'(-k) agrees with mpmath, and
    the chain's numeric zeta'(-k) with its pinned triple, to 10^-digits; for
    even k = 2j, zeta(2j+1) from the chain and from the library's oracle agree
    with the bridge formula and with mpmath to 10^(1-digits) (values above 1)."""
    pinned = _reference()["chain"]
    expected = [
        (digits, c, k)
        for digits in inputs["passes"][index]
        for c in inputs["conventions"]
        for k in range(1, inputs["kmax"] + 1)
    ]
    verdicts = []
    with mpmath.workdps(_PARSE_DPS):
        for (digits, c, k), out in _expected(outputs, lambda o: (o["digits"], o["convention"], o["k"]), expected):
            where = f"digits={digits} k={k} {c}"
            bad = _unusable(out, where)
            if bad:
                verdicts.append(bad)
                continue
            ref = pinned[c][str(k)]
            exact = out["s_value"] == ref["s_value"] and out["zprime_chain"] == ref["zprime_chain"]
            chain_value = _triple(ref["zprime_chain"])
            # (output, expected value, tolerance)
            numbers = {
                "zprime_oracle": (out["zprime_oracle"], _zprime_reference(k), mpf(10) ** -digits),
                "zprime_numeric": (out["zprime_numeric"], chain_value, mpf(10) ** -digits),
            }
            if k % 2 == 0:
                j = k // 2
                bridge = (-1) ** j * 2 * (2 * mpmath.pi) ** k / mpmath.factorial(k) * chain_value
                numbers["zeta_odd_chain"] = (out.get("zeta_odd_chain"), bridge, mpf(10) ** (1 - digits))
                numbers["zeta_odd_oracle"] = (out.get("zeta_odd_oracle"), _zeta_reference(k + 1), mpf(10) ** (1 - digits))
            margins, off = [], []
            for name, (value, want, tolerance) in numbers.items():
                if value is None:
                    off.append(f"{name} missing")
                    continue
                error = abs(mpf(value) - want)
                margins.append(_margin(tolerance, error))
                if error > tolerance:
                    off.append(f"{name} error {error}")
            ok = exact and not off
            detail = "" if ok else f"{where}: exact triples match={exact}; {', '.join(off)}"
            verdicts.append(Verdict(ok, min(margins, default=None), detail))
    return verdicts


CHECKS = {
    "verify-50": check_verify,
    "oracle-50": check_oracle,
    "euler-100": check_euler,
    "chain-sweep": check_chain,
}
