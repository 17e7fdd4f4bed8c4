"""Command-line surface: verification suites, chain reports, oracle tables.

Exit codes: 0 when every asserted residual is within tolerance (chain
discrepancies are findings, never failures), 1 when a rigorously-true
suite fails, 2 on usage errors, an unwritable --out among them.  Reports
are deterministic at fixed precision and parameters; wall-clock timings
live in a separate block.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import mpmath
from mpmath import mpf

from . import __version__
from .chain import discrepancy_report, solve_chain
from .eulersums import (
    bprime_from_zprime,
    fundamental_lemma_residual,
    h_euler_shifted,
    mellin_fundamental_check,
)
from .exact import GAMMA, LOG_2PI, ONE, BernoulliConvention, bernoulli, bernoulli_self_identity, zeta_neg_int_exact
from .hankel import ContourSpec, bernoulli_interp, lemma3_residual
from .precision import PrecisionContext, const_log2pi
from .ramanujan import MAX_EXPONENT, convergent_selftest, ramanujan_sum
from .values import SumConvention
from .zeta import (
    functional_equation_residual,
    zeta_em,
    zeta_odd_from_bprime,
    zeta_odd_from_zprime,
    zeta_prime_em,
    zeta_prime_oracle,
)

def _check(name: str, residual, tolerance) -> dict:
    ok = residual <= tolerance
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "residual": str(residual),
        "tolerance": str(tolerance),
    }


def _suite_bernoulli(ctx: PrecisionContext) -> list[dict]:
    checks = []
    bad = 0
    for n in range(2, 31):
        if bernoulli_self_identity(n, BernoulliConvention.CONVENTIONAL_MINUS) != 0:
            bad += 1
    checks.append(_check("self_identity_conventional_minus_n2..30", mpf(bad), mpf(0)))
    plus_n2 = bernoulli_self_identity(2, BernoulliConvention.PAPER_PLUS)
    checks.append(
        _check("self_identity_paper_plus_n2_nonzero", mpf(0 if plus_n2 == 2 else 1), mpf(0))
    )
    return checks


def _suite_zeta(ctx: PrecisionContext) -> list[dict]:
    checks = []
    with ctx.workdps():
        tol = ctx.tolerance(5)
        checks.append(_check("zeta2_pi2_over_6", abs(zeta_em(2, ctx) - mpmath.pi**2 / 6), tol))
        worst = mpf(0)
        for k in range(1, 13):
            ex = zeta_neg_int_exact(k)
            diff = abs(zeta_em(1 - k, ctx) - mpf(ex.numerator) / ex.denominator)
            worst = max(worst, diff)
        checks.append(_check("zeta_neg_int_k1..12", worst, tol))
        zp0 = abs(zeta_prime_em(0, ctx) + const_log2pi(ctx) / 2)
        checks.append(_check("zeta_prime_zero", zp0, ctx.tolerance(8)))
    return checks


def _suite_functional_equation(ctx: PrecisionContext) -> list[dict]:
    with ctx.workdps():
        tol = ctx.tolerance(8)
        return [
            _check(f"functional_equation_s{s}", functional_equation_residual(s, ctx), tol)
            for s in ("1.25", "1.5", "2", "2.5", "3", "4", "6")
        ]


def _suite_fundamental_lemma(ctx: PrecisionContext) -> list[dict]:
    with ctx.workdps():
        tol = ctx.tolerance(10)
        checks = [
            _check(f"fundamental_lemma_s{s}", fundamental_lemma_residual(mpf(s), ctx), tol)
            for s in ("1.25", "2", "3", "4.5")
        ]
        checks.append(
            _check("shifted_sum_s2_equals_zeta3", abs(h_euler_shifted(2, ctx) - zeta_em(3, ctx)), tol)
        )
        return checks


def _suite_mellin(ctx: PrecisionContext) -> list[dict]:
    checks = []
    with ctx.workdps():
        tol = ctx.tolerance(12)
        for s in (2, 3):
            m = mellin_fundamental_check(s, ctx)
            checks.append(_check(f"mellin_h_s{s}", m.residual_h, tol))
            checks.append(_check(f"mellin_shifted_s{s}", m.residual_shifted, tol))
            checks.append(_check(f"mellin_zeta_s{s}", m.residual_zeta, tol))
            checks.append(_check(f"mellin_combined_s{s}", m.combined, tol))
    return checks


def _suite_hankel(ctx: PrecisionContext) -> list[dict]:
    spec = ContourSpec()
    checks = []
    with ctx.workdps():
        tol = mpf(10) ** (-ctx.digits // 2)
        for n in (2, 4, 6):
            b = bernoulli(n)
            residual = abs(bernoulli_interp(n - 1, spec, ctx) - mpf(b.numerator) / b.denominator)
            checks.append(_check(f"hankel_B{n}", residual, tol))
        for s in (mpf(1) / 2, mpf(3) / 2, mpf(2), mpf(4)):
            checks.append(_check(f"hankel_lemma3_s{s}", lemma3_residual(s, spec, ctx), tol))
        alt = ContourSpec(radius=3.0)
        drift = abs(bernoulli_interp(mpf("1.5"), spec, ctx) - bernoulli_interp(mpf("1.5"), alt, ctx))
        checks.append(_check("hankel_deformation_invariance", drift, tol))
    return checks


def _suite_lemma4(ctx: PrecisionContext) -> list[dict]:
    # the two printed forms of the zeta(2k+1) relation coincide once
    # zeta(-2k) = 0 is used; both are evaluated from the oracle zeta'(-2k)
    checks = []
    with ctx.workdps():
        tol = ctx.tolerance(8)
        for k in range(1, 5):
            zp = zeta_prime_oracle(-2 * k, ctx)
            form1 = zeta_odd_from_zprime(k, zp, ctx)
            form2 = zeta_odd_from_bprime(k, bprime_from_zprime(2 * k + 1, zp), ctx)
            checks.append(_check(f"lemma4_forms_agree_k{k}", abs(form1 - form2), tol))
    return checks


def _suite_ramanujan(ctx: PrecisionContext) -> list[dict]:
    with ctx.workdps():
        tol = mpf(10) ** (-ctx.digits // 2)
        residual = convergent_selftest(ctx)
        return [_check("ramanujan_convergent_selftest", residual, tol)]


_SUITES = {
    "bernoulli": _suite_bernoulli,
    "zeta": _suite_zeta,
    "functional_equation": _suite_functional_equation,
    "fundamental_lemma": _suite_fundamental_lemma,
    "mellin": _suite_mellin,
    "hankel": _suite_hankel,
    "lemma4": _suite_lemma4,
    "ramanujan": _suite_ramanujan,
}
SUITE_NAMES = tuple(_SUITES)


def _status(items: list[dict]) -> str:
    # a suite passes when all its checks pass, a document when all its suites do
    return "pass" if all(i["status"] == "pass" for i in items) else "fail"


def _document(kind: str, precision: int, **body) -> dict:
    return {"tool": "zetachain", "version": __version__, "kind": kind, "precision_digits": precision, **body}


def _suites_error(suites: list[str]) -> str | None:
    if not suites:
        return "--suites must name at least one suite"
    unknown = [s for s in suites if s not in _SUITES]
    if unknown:
        return f"unknown suite(s): {', '.join(unknown)}"
    twice = list(dict.fromkeys(s for s in suites if suites.count(s) > 1))
    if twice:
        return f"suite(s) named twice: {', '.join(twice)}"
    return None


def run_verify(precision: int, suites: list[str]) -> dict:
    """The verify document of the named suites; ValueError if none is named or one is unknown."""
    error = _suites_error(suites)
    if error:
        raise ValueError(error)
    ctx = PrecisionContext(precision)
    done, timing = [], {}
    for name in suites:
        t0 = time.perf_counter()
        checks = _SUITES[name](ctx)
        timing[name] = round(time.perf_counter() - t0, 3)
        done.append({"name": name, "status": _status(checks), "checks": checks})
    return _document("verify", precision, suites=done, timing=timing, status=_status(done))


def run_chain(kmax: int, conventions: tuple[SumConvention, ...], precision: int) -> dict:
    ctx = PrecisionContext(precision)
    t0 = time.perf_counter()
    report = discrepancy_report(kmax, conventions, ctx).to_dict()
    return _document("chain", precision, report=report, timing={"chain": round(time.perf_counter() - t0, 3)})


def run_oracle(kmax: int, precision: int) -> dict:
    ctx = PrecisionContext(precision)
    t0 = time.perf_counter()
    values = ramanujan_sum(kmax, ctx)
    with ctx.workdps():
        rows = [
            {
                "k": k,
                "ramanujan": str(r.value),
                "stable": r.stable,
                "spread": str(r.spread),
                "closed_form": {
                    "rational": str(r.closed_form.get(ONE, 0)),
                    "gamma": str(r.closed_form.get(GAMMA, 0)),
                    "zeta_prime": [str(-2 * r.closed_form.get(LOG_2PI, 0))]  # w_0 zeta'(0) as -w_0/2 ln 2pi
                    + [str(r.closed_form.get(("zeta'", j), 0)) for j in range(1, k + 1)],
                },
                "scheme": {"N": r.scheme.N, "J": r.scheme.J, "lower_limit": 1},
            }
            for k, r in enumerate(values)
        ]
    for conv in (SumConvention.A, SumConvention.B):
        chain = solve_chain(max(kmax, 1), conv)
        for k, (row, r) in enumerate(zip(rows, values)):
            with ctx.workdps():
                num = chain[k].numeric(ctx)
                row[f"chain_{conv.value}"] = str(num)
                row[f"diff_{conv.value}"] = str(ctx.round(abs(r.value - num)))
    return _document("oracle", precision, rows=rows, timing={"oracle": round(time.perf_counter() - t0, 3)})


def chain_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "convention", "a", "b", "c", "numeric", "oracle", "delta"])
    for row in doc["report"]["rows"]:
        trip = row["zprime_chain"]
        writer.writerow(
            [
                row["k"],
                row["convention"],
                trip["a"],
                trip["b"],
                trip["c"],
                row["zprime_numeric"],
                row["zprime_oracle"],
                row["delta"],
            ]
        )
    return buf.getvalue()


def _emit(doc: dict, fmt: str, out: str | None) -> None:
    # --format accepts csv for the chain report only
    text = chain_csv(doc) if fmt == "csv" else json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_suites(arg: str) -> list[str]:
    return [s.strip() for s in arg.split(",") if s.strip()]


def _parse_conventions(arg: str) -> tuple[SumConvention, ...]:
    # --convention is one of A, B and all
    return (SumConvention.A, SumConvention.B) if arg == "all" else (SumConvention(arg),)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=50)
    common.add_argument("--out")
    p = argparse.ArgumentParser(prog="zetachain")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common], help="run the verification suites")
    v.add_argument("--suites", type=_parse_suites, default=",".join(SUITE_NAMES))
    v.add_argument("--format", choices=("json",), default="json")

    c = sub.add_parser("chain", parents=[common], help="solve the heuristic chain and report discrepancies")
    c.add_argument("--kmax", type=int, default=8)
    c.add_argument("--convention", default="all", choices=("A", "B", "all"))
    c.add_argument("--format", choices=("json", "csv"), default="json")

    o = sub.add_parser("oracle", parents=[common], help="Ramanujan-summation values side by side with the chain")
    o.add_argument("--kmax", type=int, default=4)
    o.add_argument("--format", choices=("json",), default="json")
    return p


def _usage_error(args: argparse.Namespace) -> str | None:
    if args.precision < 15:
        return "precision must be at least 15 digits"
    if args.command == "verify":
        return _suites_error(args.suites)
    if args.command == "chain" and args.kmax < 1:
        return "kmax must be >= 1"
    if args.command == "oracle" and not 0 <= args.kmax <= MAX_EXPONENT:
        return f"kmax must be in 0..{MAX_EXPONENT}"
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    error = _usage_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.command == "verify":
        doc = run_verify(args.precision, args.suites)
    elif args.command == "chain":
        doc = run_chain(args.kmax, _parse_conventions(args.convention), args.precision)
    else:
        doc = run_oracle(args.kmax, args.precision)
    try:
        _emit(doc, args.format, args.out)
    except OSError as exc:
        # a failed write's OSError carries no filename, so the path is printed here
        print(f"cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 1 if doc.get("status") == "fail" else 0


if __name__ == "__main__":
    raise SystemExit(main())
