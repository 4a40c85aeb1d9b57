"""The arithmetic core never loads the polynomial stack.

`check`, `scan` and `verify` are closed-form arithmetic on (p, d)
pairs, so they must run without numpy, `poly`, `_kernels` or `factor`,
and a one-process scan without the process pool.  Each check runs in a
fresh interpreter, since this test process has long since imported
everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pretzelslice
from pretzelslice import cyclotomic, numth

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = sorted((ROOT / "tests" / "fixtures").glob("check_*.json"))
ORACLE_MODULES = (
    "numpy",
    "pretzelslice.factor",
    "pretzelslice.poly",
    "pretzelslice._kernels",
    "concurrent.futures.process",
)


def _run(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PRETZELSLICE_CONFIG", None)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


def _fresh(script: str, *argv) -> dict:
    """Run `script` in a fresh interpreter; it leaves its answer in RESULT."""
    prog = script + "\nimport json, sys\nprint(json.dumps(RESULT))\n"
    done = _run(["-c", prog, *map(str, argv)])
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_core_commands_never_load_the_polynomial_stack(tmp_path):
    got = _fresh(
        "import contextlib, io, sys\n"
        "from pretzelslice import cli\n"
        "out, fixtures = sys.argv[1], sys.argv[2:]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['check', '1081']), cli.main(['scan', '3', '301', '--out', out])]\n"
        "    codes += [cli.main(['verify', f]) for f in fixtures]\n"
        "RESULT = {'codes': codes, 'modules': sorted(sys.modules)}\n",
        tmp_path / "scan", *FIXTURES,
    )
    assert len(FIXTURES) == 7
    assert got["codes"] == [10, 0] + [0] * len(FIXTURES)
    assert (tmp_path / "scan.csv").exists()
    loaded = [m for m in ORACLE_MODULES if m in got["modules"]]
    assert loaded == []


def test_package_import_loads_only_the_version():
    got = _fresh("import sys\nimport pretzelslice\n"
                 "RESULT = sorted(m for m in sys.modules if m.startswith('pretzelslice'))")
    assert got == ["pretzelslice", "pretzelslice._version"]


def test_every_public_name_resolves():
    got = _fresh(
        "import pretzelslice\n"
        "names = pretzelslice.__all__\n"
        "missing = [n for n in names if getattr(pretzelslice, n, None) is None]\n"
        "try:\n"
        "    pretzelslice.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "RESULT = {'missing': missing, 'undir': sorted(set(names) - set(dir(pretzelslice))),"
        " 'unknown': unknown, 'count': len(names)}\n"
    )
    assert got == {"missing": [], "undir": [], "unknown": "AttributeError", "count": 31}
    from pretzelslice import IntPoly, decide

    assert decide(3).verdict == "ObstructedParity"
    assert IntPoly((1, 1)).degree == 1


def test_cyclotomic_reexports_the_closed_forms():
    for name in ("count_irreducible_factors", "has_self_reciprocal_factor",
                 "CyclotomicQuery"):
        assert getattr(cyclotomic, name) is getattr(numth, name), name
    assert pretzelslice.count_irreducible_factors is numth.count_irreducible_factors


def test_module_entry_point_runs_the_cli():
    done = _run(["-m", "pretzelslice", "check", "3"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("a=3: ObstructedParity [witness (p=2, d=3)]")
    cert = json.loads(done.stdout.split("\n", 1)[1])
    assert cert["verdict"] == "ObstructedParity"
    # -X importtime lists every module the command imported, on stderr
    done = _run(["-X", "importtime", "-m", "pretzelslice", "verify",
                 str(ROOT / "tests" / "fixtures" / "check_1081.json")])
    assert done.returncode == 0, done.stderr
    assert "a=1081: verified" in done.stdout
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert "pretzelslice.obstruction" in imported
    assert [m for m in ORACLE_MODULES if m in imported] == []
