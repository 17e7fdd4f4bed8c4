import errno
import io
import json
import os
import subprocess
import sys
from collections import OrderedDict
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from zetachain import cli, precision
from zetachain.values import SumConvention


def _schema():
    with resources.files("zetachain").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_fast_suites_pass(capsys):
    code, out = run(
        ["verify", "--precision", "20", "--suites", "bernoulli,zeta,functional_equation,lemma4"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    jsonschema.validate(doc, _schema())


@pytest.mark.parametrize("digits", [50, 100, 200])
def test_verify_passes_every_suite_at(digits):
    # the Ramanujan self-test takes its scheme from the digits, (150, 40)
    # at 100 and (400, 60) at 200: the (50, 15) of 50 digits stops near
    # 1e-46, short of 1e-50
    doc = cli.run_verify(digits, list(cli.SUITE_NAMES))
    failed = [c["name"] for s in doc["suites"] for c in s["checks"] if c["status"] != "pass"]
    assert doc["status"] == "pass", failed
    jsonschema.validate(doc, _schema())


def test_verify_unknown_suite(capsys):
    code, _ = run(["verify", "--suites", "nonsense"], capsys)
    assert code == 2


def test_verify_suite_named_twice(capsys):
    # a suite named twice would run twice and be listed twice under one timing key
    code = cli.main(["verify", "--suites", "bernoulli,zeta,bernoulli"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "suite(s) named twice: bernoulli\n"
    with pytest.raises(ValueError, match=r"^suite\(s\) named twice: bernoulli$"):
        cli.run_verify(15, ["bernoulli", "bernoulli"])


@pytest.mark.parametrize("suites", [",", " ", " , "])
def test_verify_empty_suite_list_rejected(suites, capsys):
    # a list that names no suite would check nothing and still pass
    code = cli.main(["verify", "--suites", suites])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "--suites must name at least one suite\n"


def test_verify_document_needs_a_suite():
    # run_verify refuses what main's usage check refuses, with its messages
    with pytest.raises(ValueError, match="^--suites must name at least one suite$"):
        cli.run_verify(15, [])
    with pytest.raises(ValueError, match=r"^unknown suite\(s\): nope$"):
        cli.run_verify(15, ["bernoulli", "nope"])
    # and the schema still refuses a verify document without suites
    doc = cli.run_verify(15, ["bernoulli"])
    jsonschema.validate(doc, _schema())
    with pytest.raises(jsonschema.ValidationError) as refused:
        jsonschema.validate({**doc, "suites": []}, _schema())
    assert refused.value.validator == "minItems"


def test_module_entry_point_runs_verify():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "zetachain.cli", "verify", "--suites", "bernoulli", "--precision", "15"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "pass"
    assert [s["name"] for s in doc["suites"]] == ["bernoulli"]


def test_verify_low_precision_rejected(capsys):
    code, _ = run(["verify", "--precision", "10"], capsys)
    assert code == 2


@pytest.mark.parametrize("convention", ["all", "A", "B"])
def test_chain_json_schema_and_rows(convention, capsys):
    code, out = run(["chain", "--kmax", "2", "--precision", "20", "--convention", convention], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema())
    rows = doc["report"]["rows"]
    wanted = ("A", "B") if convention == "all" else (convention,)
    assert len(rows) == 2 * len(wanted)  # k = 1..2 under each convention asked for
    assert {r["convention"] for r in rows} == set(wanted)
    # a single convention reports the rows that convention has in the full report
    both = cli.run_chain(2, (SumConvention.A, SumConvention.B), 20)["report"]["rows"]
    assert rows == [r for r in both if r["convention"] in wanted]


def test_chain_csv_header_and_order(capsys):
    code, out = run(["chain", "--kmax", "1", "--precision", "20", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,convention,a,b,c,numeric,oracle,delta"
    assert lines[1].startswith("1,A,1/12,1/6,-1/4,")
    assert len(lines) == 3


def test_chain_kmax_validation(capsys):
    code, _ = run(["chain", "--kmax", "0"], capsys)
    assert code == 2


def test_chain_deterministic_output(capsys):
    _, out1 = run(["chain", "--kmax", "2", "--precision", "20"], capsys)
    _, out2 = run(["chain", "--kmax", "2", "--precision", "20"], capsys)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timing"), d2.pop("timing")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_oracle_document(capsys):
    code, out = run(["oracle", "--kmax", "0", "--precision", "20"], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema())
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert row["scheme"] == {"N": 50, "J": 15, "lower_limit": 1}
    assert "chain_A" in row and "chain_B" in row
    # the schema states the range of an Euler-Maclaurin scheme
    for key, low in (("N", 1), ("J", 0)):
        bad = json.loads(out)
        bad["rows"][0]["scheme"][key] = low
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, _schema())


def test_oracle_documents_pinned():
    # run_oracle(4, 50), run_oracle(8, 20) and run_oracle(4, 100), recorded
    # with timing removed; a change that moves an oracle value on purpose
    # records them again and says so.  At 100 digits the scheme is
    # (N, J) = (150, 40), taken from the digits, and every row reports
    # stable: true, within 1.5e-91 of the closed form.
    pins = json.loads((Path(__file__).parent / "oracle_documents.json").read_text())
    for pin in pins:
        doc = cli.run_oracle(pin["kmax"], pin["precision"])
        del doc["timing"]
        assert doc == pin["document"]


def test_chain_documents_pinned():
    # run_chain(8, A+B) at four precisions, recorded with timing removed; the
    # EM kernels must reproduce every reported digit.
    pins = json.loads((Path(__file__).parent / "chain_documents.json").read_text())
    for pin in pins:
        doc = cli.run_chain(pin["kmax"], (SumConvention.A, SumConvention.B), pin["precision"])
        del doc["timing"]
        assert doc == pin["document"]


def test_verify_documents_pinned(monkeypatch):
    # run_verify(30, every suite), run_verify(50, mellin),
    # run_verify(50, hankel), run_verify(100, fundamental_lemma + mellin) and
    # run_verify(100, hankel), recorded with timing removed; a quadrature
    # rule, an integrand or an Euler sum must reproduce every reported
    # residual, on cleared tables and again with the nodes and node kernels
    # read back from the tables.
    pins = json.loads((Path(__file__).parent / "verify_documents.json").read_text())
    for pin in pins:
        monkeypatch.setattr(precision, "_coeff_tables", OrderedDict())
        for _ in ("cold", "warm"):
            doc = cli.run_verify(pin["precision"], pin["suites"])
            del doc["timing"]
            assert doc == pin["document"]


def test_oracle_kmax_bound(capsys):
    code, _ = run(["oracle", "--kmax", "9"], capsys)
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(["chain", "--kmax", "1", "--precision", "20", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["kind"] == "chain"


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # a directory as --out: one stderr line naming the path, nothing on stdout
    code = cli.main(["verify", "--suites", "bernoulli", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(tmp_path) in captured.err, captured.err


def test_failed_write_to_out_names_the_path(monkeypatch, tmp_path, capsys):
    # the OSError of a failed write carries no filename: the message must name --out itself
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Full(), raising=False)
    out = str(tmp_path / "report.json")
    code = cli.main(["verify", "--suites", "bernoulli", "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"cannot write --out {out}: {os.strerror(errno.ENOSPC)}\n"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
