"""End-to-end command line checks, run in process."""

import json
from pathlib import Path

import pytest

from pretzelslice import cli, obstruction
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


def test_scan_usage_errors(tmp_path, capsys):
    assert run(capsys, "scan", "10", "5")[0] == 2
    assert run(capsys, "scan", "3", "99", "--mod", "4", "--residues", "x")[0] == 2
    # an unpaired filter is refused once, by `obstruction.scan`, before any file is written
    for flag in (("--mod", "4"), ("--residues", "1")):
        code, out, err = run(capsys, "scan", "3", "9", *flag, "--out", str(tmp_path / "s"))
        assert code == 2 and "modulus and residues go together" in err and out == "", flag
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # refused with exit code 2, not a traceback; scan decides no a first
    calls = []
    real = obstruction.decide
    monkeypatch.setattr(obstruction, "decide", lambda *a, **k: calls.append(a) or real(*a, **k))
    missing = tmp_path / "missing"
    code, out, err = run(capsys, "scan", "3", "9", "--out", str(missing / "x"))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith(f"cannot write {missing / 'x.jsonl'}: ") and "Traceback" not in err
    code, out, err = run(capsys, "check", "3", "--out", str(missing / "x.json"))
    assert code == 2 and err.startswith(f"cannot write {missing / 'x.json'}: ")
    assert not missing.exists()


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    run(capsys, "check", "3", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data["evidence"]["count"] = "2"
    out_file.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(out_file))
    assert code == 1
    assert "FAILED" in err


MALFORMED = {
    "string_in_pairs": (1081, lambda c: c["evidence"]["pairs"].__setitem__(0, "x")),
    "evidence_list": (3, lambda c: c.update(evidence=[])),
    "witness_string": (3, lambda c: c.update(witness="x")),
    "fox_milnor_string": (1081, lambda c: c["evidence"].update(fox_milnor="x")),
    "a_not_a_string": (3, lambda c: c.update(a=3)),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_verify_fails_malformed_structure_without_a_traceback(tmp_path, capsys, case):
    a, change = MALFORMED[case]
    data = json.loads(json.dumps(obstruction.certificate_to_json(obstruction.decide(a))))
    change(data)
    ok, problems = obstruction.verify_certificate(data)
    assert not ok and problems
    out_file = tmp_path / "cert.json"
    out_file.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(out_file))
    assert code == 1
    assert "FAILED" in err and "Traceback" not in err


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
    assert "d=3 (divides a): has a self-reciprocal factor" in out
    assert "d=5 (divides a+2): has a self-reciprocal factor" in out
    assert "offending factor (1 + t + t^2)^1" in out
    assert "does not admit" in out
    code, out, _ = run(capsys, "inspect", "alexander", "1081", "541")
    assert code == 0
    assert "d=1083 (divides a+2): clean" in out
    assert "offending" not in out and "admits a Fox-Milnor" in out


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


def test_main_reuses_one_parser_without_leaking_state(capsys, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    parser = cli.build_parser()
    before = cli.build_parser.cache_info()

    def cert(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        return json.loads(out[out.index("{"):])

    assert "all_failures" in cert("check", "15", "--all-witnesses")["evidence"]
    assert "all_failures" not in cert("check", "15")["evidence"]
    assert cert("--seed", "5", "check", "3")["seed"] == "5"
    assert cert("check", "3")["seed"] == str(obstruction.DEFAULT_SEED)
    after = cli.build_parser.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 4)
    assert cli.build_parser() is parser


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
                {"seed": None}, {"jobs": 0}, {"jobs": "-1"}, {"max_a": 2},
                {"seed": "1_0"}, {"jobs": " 1"}, {"seed": "\u0667"}):
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
    # a non-string out is named, not turned into a file name
    monkeypatch.chdir(tmp_path)
    for bad, argv in (({"out": None}, ("scan", "3", "21")), ({"out": 5}, ("check", "3"))):
        cfg.write_text(json.dumps(bad))
        code, _, err = run(capsys, *argv)
        assert code == 2 and "bad config" in err and "'out'" in err, bad
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"], bad
    cfg.write_text(json.dumps({"jobs": 2, "seed": "7", "max_a": 999, "out": "x"}))
    assert cli.load_config() == cli.Config(max_a=999, seed=7, jobs=2, out="x")
    cfg.write_text(json.dumps({"seed": "-7"}))
    assert cli.load_config().seed == -7


def test_scan_jobs_is_an_upper_bound(tmp_path, capsys, monkeypatch):
    # the pool is sized to the work: one worker per chunk at most, and no
    # pool for a single chunk; no process is started here
    import concurrent.futures

    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "scan", "3", "21", "--jobs", "64", "--out", "a")[0] == 0
    assert sizes == [2]  # 10 values of a in chunks of 8
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 100000}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    assert run(capsys, "scan", "3", "21", "--out", "b")[0] == 0
    assert sizes == [2, 2]
    assert run(capsys, "scan", "3", "17", "--out", "c")[0] == 0
    assert sizes == [2, 2]  # 8 values: one chunk, scanned in process
    for ext in ("csv", "jsonl"):
        assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()
    serial = list(obstruction.scan(3, 99))
    assert list(obstruction.scan(3, 99, jobs=3)) == serial  # 49 values, 7 chunks
    assert list(obstruction.scan(3, 99, jobs=64)) == serial
    assert list(obstruction.scan(3, 9, modulus=120, residues=(97,), jobs=64)) == []
    assert sizes == [2, 2, 3, 7]


def test_scan_tasks_carry_a_sixteenth_of_each_workers_share(monkeypatch):
    # chunks of at least 8 values of a, about 16 per worker; the pool
    # and the decide calls are stand-ins, so no process is started
    import concurrent.futures

    seen = []

    class Pool:
        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            seen.append((self.workers, len(items), chunksize))
            return map(fn, items)

    def one(args):
        return obstruction.ScanRow(args[0], obstruction.VERDICT_INCONCLUSIVE, None, None, "")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(obstruction, "_scan_one", one)
    for hi, jobs in ((21, 64), (99, 3), (199999, 2), (199999, 64), (17999, 2)):
        assert len(list(obstruction.scan(3, hi, jobs=jobs))) == (hi - 1) // 2
    assert seen == [(2, 10, 8), (3, 49, 8), (2, 99999, 3125), (64, 99999, 98),
                    (2, 8999, 282)]


def _exit_code(capsys, *argv):
    """main's exit code, whether argparse or the command reports the error."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_command_line_integers_follow_the_config_rule(tmp_path, capsys, monkeypatch):
    # int() would read each of these: the Arabic-Indic seven, a digit
    # separator, a fullwidth two; the config file already refused them
    monkeypatch.chdir(tmp_path)
    for argv in (("check", "\u0667"),
                 ("--seed", "1_0", "check", "3"),
                 ("--max-a", " 99", "check", "3"),
                 ("scan", "3", "21", "--mod", "120", "--residues", "1_0,97"),
                 ("scan", "3", "21", "--jobs", "\uff12"),
                 ("inspect", "cyclotomic", "7", "\u0662")):
        code, err = _exit_code(capsys, *argv)
        assert code == 2 and err, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == []
    # spaces around residue tokens and negative values still parse
    code, err = _exit_code(capsys, "scan", "3", "249", "--mod", "120",
                           "--residues", "1, 97", "--out", "r")
    assert code == 0 and not err
    rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["97", "121", "217", "241"]
    assert _exit_code(capsys, "--seed", "-7", "check", "3") == (0, "")
    assert cli.integer("-12") == -12


def test_out_of_range_flags_are_usage_errors(capsys):
    # the flags are range-checked with the config file's values, before
    # any command runs; a good certificate is not blamed
    good = Path(__file__).parent / "fixtures" / "check_3.json"
    code, out, err = run(capsys, "--max-a", "2", "verify", str(good))
    assert code == 2 and "max_a must be >= 3" in err and "FAILED" not in err
    code, out, err = run(capsys, "scan", "3", "9", "--jobs", "0")
    assert code == 2 and "jobs must be >= 1" in err


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
