"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json RESULT.json

The clock starts before `pretzelslice` is imported, so `setup_s` covers
the import and the first `numth.factorize` (which builds the trial
division sieve), as for any cold `pretzelslice` command.  The job then
runs one phase of a workload with default settings, checks its outputs
and writes the timings and check counts to RESULT.json.

Timings are in reference seconds (see hostspeed.py): setup_s is scaled
by probes taken right after setup, and a pass runs under a HostClock.
With "trace" set, the layer tracer is installed after setup and
removed before the result is written, no probes run, and every timing
is raw wall time, so the per-layer self times hold no probe time.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pretzelslice  # noqa: E402
from pretzelslice import numth  # noqa: E402

numth.factorize(3)
SETUP_S = time.perf_counter() - _T0

import numpy  # noqa: E402

from pretzelslice import cli, cyclotomic, obstruction  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_SPEED = hostspeed.speed_now()


class Pass:
    def __init__(self, job):
        self.job = job
        self.seed = job["seed"]
        self.spans = []  # (start, end) of every timed operation
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def timed(self, fn, *args, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((t, time.perf_counter()))
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def quiet_cli(argv):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        return cli.main(argv)


def run_survivor_scan(ps: Pass):
    # per-a decide latencies: a timing-only wrapper at decide's binding sites
    orig = obstruction.decide
    sites = tracing.patch_everywhere(orig, lambda *a, **k: ps.timed(orig, *a, **k))
    try:
        prefix = os.path.join(ps.job["workdir"], "scan")
        argv = ["--seed", str(ps.seed), "scan", "3", "17999",
                "--mod", "120", "--residues", "1,97", "--out", prefix]
        rc = quiet_cli(argv)
    finally:
        ps.check(tracing.restore(sites), "decide timer left patched")
    ps.check(rc == cli.EXIT_OK, f"scan exit code {rc}")
    return {"csv": prefix + ".csv"}


def run_odd_sample(ps: Pass):
    certs = [ps.timed(obstruction.decide, a) for a in ps.job["inputs"]]
    return {"certs": certs}


def check_odd_sample(ps: Pass, out):
    for cert in out["certs"]:
        ps.check(cert.verdict.startswith("Obstructed"), f"a={cert.a}: {cert.verdict}")
        ok, problems = obstruction.verify_certificate(obstruction.certificate_to_json(cert))
        ps.check(ok, f"a={cert.a}: certificate fails: {problems[:2]}")


def run_certify_check(ps: Pass):
    survivors = set(ps.job["survivors"])
    for a, path in zip(ps.job["inputs"], ps.job["files"]):
        rc = ps.timed(quiet_cli, ["--seed", str(ps.seed), "check", str(a), "--out", path])
        want = cli.EXIT_INCONCLUSIVE if a in survivors else cli.EXIT_OK
        ps.check(rc == want, f"check {a} exit code {rc}, expected {want}")


def run_certify_verify(ps: Pass):
    for path in ps.job["files"]:
        rc = ps.timed(quiet_cli, ["verify", path])
        ps.check(rc == cli.EXIT_OK, f"verify {path} exit code {rc}")


def check_certify_tampered(ps: Pass, out):
    """A copy of each obstructed certificate with one field changed must fail."""
    rng = random.Random(f"tamper:{ps.seed}")
    for a, path in zip(ps.job["inputs"], ps.job["files"]):
        with open(path, encoding="utf-8") as fh:
            cert = json.load(fh)
        if not cert["verdict"].startswith("Obstructed"):
            continue
        fields = [("witness", "d"), ("evidence", "p"), ("evidence", "d")]
        fields.append(("evidence", "count" if cert["verdict"] == "ObstructedParity" else "w"))
        block, key = rng.choice(fields)
        target = cert[block]
        target[key] = str(int(target[key]) + 2)
        bad = path + ".tampered"
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(cert, fh)
        rc = quiet_cli(["verify", bad])
        ps.check(rc == cli.EXIT_VERIFY_FAILED, f"tampered {block}.{key} of a={a} verifies")


def run_oracle_grid(ps: Pass):
    def one(d, p):
        q = cyclotomic.CyclotomicQuery(d, p)
        return cyclotomic.factor_cyclotomic_oracle(q, ps.seed), cyclotomic.count_irreducible_factors(q)

    return {"results": [(d, p, ps.timed(one, d, p)) for d, p in ps.job["inputs"]]}


def check_oracle_grid(ps: Pass, out):
    for d, p, (ms, count) in out["results"]:
        ps.check(len(ms.factors) == count.count,
                 f"(d={d}, p={p}): oracle {len(ms.factors)} factors, closed form {count.count}")
        even = count.count % 2 == 0
        ps.check(even == (numth.legendre(p, d) == 1),
                 f"(d={d}, p={p}): parity {count.parity} disagrees with the Legendre symbol")


PHASES = {
    "survivor_scan": (run_survivor_scan, None),
    "odd_sample": (run_odd_sample, check_odd_sample),
    "certify_check": (run_certify_check, None),
    "certify_verify": (run_certify_verify, check_certify_tampered),
    "oracle_grid": (run_oracle_grid, check_oracle_grid),
}


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = Path(job["root"], "src").resolve()
    where = Path(pretzelslice.__file__).resolve()
    if not where.is_relative_to(src):
        print(f"imported {where}, not the working tree under {src}", file=sys.stderr)
        return 2
    result = {
        "setup_s": SETUP_S * SETUP_SPEED,
        "raw_setup_s": SETUP_S,
        "numpy": numpy.__version__,
        "package_file": str(where),
    }
    phase = job["phase"]
    if phase != "setup":
        ps = Pass(job)
        run, check = PHASES[phase]
        tracer = clock = None
        if job["trace"]:
            tracer = tracing.Tracer()
            tracer.install()
        else:
            clock = hostspeed.HostClock()
            clock.start()
        t0 = time.perf_counter()
        try:
            out = run(ps) or {}
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                ps.check(tracer.uninstall(), "a traced function was not restored")
            if clock is not None:
                clock.stop()
        result["peak_rss_mb"] = peak_rss_mb()
        if check is not None:
            check(ps, out)
        if clock is None:
            wall, raw_wall, slowdown = t1 - t0, t1 - t0, None
            latencies_ms = [1000 * (b - a) for a, b in ps.spans]
        else:
            wall, raw_wall, slowdown = clock.scaled(t0, t1), clock.raw(t0, t1), clock.slowdown()
            latencies_ms = [1000 * clock.scaled(a, b) for a, b in ps.spans]
        result.update(
            wall_s=wall,
            raw_wall_s=raw_wall,
            slowdown=slowdown,
            latencies_ms=latencies_ms,
            attempted=ps.attempted,
            failed=ps.failed,
            problems=ps.problems,
            layers=None if tracer is None else tracer.report(),
            csv=out.get("csv"),
        )
    else:
        result["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
