"""End-to-end command line checks, run in process."""

import json

import pytest

from pretzelslice import cli
from pretzelslice._version import __version__


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_check_obstructed_exits_zero(capsys):
    code, out, _ = run(capsys, "check", "3")
    assert code == 0
    assert "a=3: ObstructedParity" in out
    data = json.loads(out[out.index("{"):])
    assert data["verdict"] == "ObstructedParity"
    assert data["witness"] == {"p": "2", "d": "3", "d_is_prime": True}


def test_check_inconclusive_exits_ten(capsys):
    code, out, _ = run(capsys, "check", "1081")
    assert code == 10
    assert "Inconclusive" in out


def test_check_rejects_even_a(capsys):
    code, _, err = run(capsys, "check", "4")
    assert code == 2
    assert err


def test_check_writes_certificate_file(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code, out, _ = run(capsys, "check", "7", "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["a"] == "7"
    assert data["verdict"].startswith("Obstructed")


def test_check_verify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    assert run(capsys, "check", "15", "--out", str(out_file))[0] == 0
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0
    assert "a=15: verified" in out


def test_scan_writes_jsonl_and_csv(tmp_path, capsys):
    prefix = tmp_path / "scan"
    code, out, _ = run(capsys, "scan", "3", "99", "--out", str(prefix))
    assert code == 0
    lines = (tmp_path / "scan.jsonl").read_text().splitlines()
    assert len(lines) == 49
    first = json.loads(lines[0])
    assert first == {"a": "3", "verdict": "ObstructedParity", "p": "2",
                     "d": "3", "reason": first["reason"]}
    csv_lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert csv_lines[0] == "a,verdict,p,d,reason"
    assert len(csv_lines) == 50
    assert "scanned 49 values" in out
    assert "ObstructedParity: 48" in out


def test_scan_summary_lists_survivors(tmp_path, capsys):
    prefix = tmp_path / "scan"
    code, out, _ = run(capsys, "scan", "1000", "1100", "--out", str(prefix))
    assert code == 0
    assert "1081" in out


def test_scan_is_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "one", tmp_path / "two"
    run(capsys, "scan", "3", "61", "--out", str(a))
    run(capsys, "scan", "3", "61", "--jobs", "2", "--out", str(b))
    assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_scan_usage_errors(capsys):
    assert run(capsys, "scan", "10", "5")[0] == 2
    assert run(capsys, "scan", "3", "99", "--mod", "4")[0] == 2
    assert run(capsys, "scan", "3", "99", "--mod", "4", "--residues", "x")[0] == 2


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    run(capsys, "check", "3", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data["evidence"]["count"] = "2"
    out_file.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(out_file))
    assert code == 1
    assert "FAILED" in err


def test_verify_jsonl_stream(tmp_path, capsys):
    out_file = tmp_path / "certs.jsonl"
    rows = []
    for a in ("3", "5", "7"):
        cert_file = tmp_path / f"{a}.json"
        run(capsys, "check", a, "--out", str(cert_file))
        rows.append(cert_file.read_text().replace("\n", " "))
    out_file.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0
    assert out.count("verified") == 3


def test_verify_empty_and_missing_files(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert run(capsys, "verify", str(empty))[0] == 1
    assert run(capsys, "verify", str(tmp_path / "nope.json"))[0] == 1


def test_inspect_cyclotomic(capsys):
    code, out, _ = run(capsys, "inspect", "cyclotomic", "7", "2")
    assert code == 0
    assert "2 irreducible factor(s)" in out
    assert "(1 + t^2 + t^3)" in out and "(1 + t + t^3)" in out
    code, out, _ = run(capsys, "inspect", "cyclotomic", "3", "2")
    assert code == 0
    assert "[self-reciprocal]" in out


def test_inspect_legendre(capsys):
    code, out, _ = run(capsys, "inspect", "legendre", "2", "7")
    assert code == 0 and out.strip().endswith("1")
    code, out, _ = run(capsys, "inspect", "legendre", "2", "11")
    assert code == 0 and out.strip().endswith("-1")


def test_inspect_alexander_mod_p(capsys):
    code, out, _ = run(capsys, "inspect", "alexander", "3", "2")
    assert code == 0
    assert "[self-reciprocal]" in out
    assert "odd multiplicity" in out
    assert "does not admit" in out


def test_inspect_alexander_integer(capsys):
    code, out, _ = run(capsys, "inspect", "alexander", "3")
    assert code == 0
    assert "5*t^3" in out


def test_config_file_sets_seed(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    out_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "check", "3", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["seed"] == "7"


def test_flag_overrides_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    out_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "--seed", "9", "check", "3", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["seed"] == "9"


def test_bad_config_file(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    code, _, err = run(capsys, "check", "3")
    assert code == 2 and err
    monkeypatch.setenv(cli.CONFIG_ENV, str(tmp_path / "missing.json"))
    assert run(capsys, "check", "3")[0] == 2
    # values that int() would silently coerce, and out-of-range values
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    for bad in ({"jobs": 2.7}, {"seed": True}, {"max_a": "9.5"}, {"jobs": "two"},
                {"seed": None}, {"jobs": 0}, {"jobs": "-1"}, {"max_a": 2}):
        cfg.write_text(json.dumps(bad))
        code, _, err = run(capsys, "check", "3")
        assert code == 2 and "bad config" in err, bad
    # unknown keys are named, including the removed oracle_level
    for bad, names in (({"oracle_level": "always"}, ("'oracle_level'",)),
                       ({"sede": 7, "jobz": 2, "seed": 7}, ("'jobz'", "'sede'"))):
        cfg.write_text(json.dumps(bad))
        code, _, err = run(capsys, "check", "3")
        assert code == 2 and "unknown config key" in err, bad
        assert all(name in err for name in names), err
    cfg.write_text(json.dumps({"jobs": 2, "seed": "7", "max_a": 999, "out": "x"}))
    assert cli.load_config() == cli.Config(max_a=999, seed=7, jobs=2, out="x")


def test_removed_oracle_level_flag_is_a_usage_error(capsys):
    for argv in (["--oracle-level", "always", "check", "3"],
                 ["--oracle-level=always", "check", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:"), err
    assert "unrecognized arguments: --oracle-level=always" in err


def test_usage_without_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
