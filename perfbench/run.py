"""The pretzelslice benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree (the package is imported from
./src, never from an installed copy).  Every pass runs in a fresh
interpreter with default settings, as every `pretzelslice` command a
user runs starts cold.

Workloads (inputs depend only on --seed and the frozen files in data/):

  survivor_scan  `scan 3 17999 --mod 120 --residues 1,97`: the paper's
                 headline computation, 299 values of a, 8 Inconclusive.
  odd_sample     `decide` on odd a < 18000 with a mod 120 not in {1, 97}:
                 witness search, closed-form checks and the composite
                 oracle, with the Fox-Milnor backstop bypassed.
  certify        `check --out` on the 8 survivors plus obstructed a in one
                 process, then `verify` on the files in a second one.
  oracle_grid    `factor_cyclotomic_oracle` plus the closed-form count on
                 (d, p) pairs, d an odd prime <= 500 and p a prime <= 100.

The decide and oracle costs are heavy-tailed (1% of the odd a carry
two thirds of the time), so a plain random sample would make the
throughput depend on the seed more than on the code.  Samples are
therefore stratified: data/ holds each pool ranked by its cost at the
commit that defined the benchmark, and a seed draws one member of
every consecutive block of that ranking.

Every timing is in reference seconds: wall time scaled by the host's
speed, which a probe measures every 50 ms while a pass runs, so that
the neighbours on a shared host do not move the figures (see
hostspeed.py; the raw wall times are kept in the line before the
result).

With --trace 0 a run repeats whole passes until --seconds is used up
and prints medians over its passes of the end-to-end metrics:

  setup_s      fresh interpreter to package imported and first
               numth.factorize returned (sieve built); median over
               SETUP_PROBES probes and every pass's own start
  wall_s       workload time after setup (certify: both processes)
  ops_per_s    operations per second of wall_s
  op_p50_ms    median latency of one operation
  op_tail_ms   the highest percentile with at least 10 samples beyond
               it, as the Harrell-Davis estimate of that percentile
  peak_rss_mb  peak RSS of the pass's own process(es)

An operation is one `decide` inside the scan (survivor_scan, timed by
a wrapper at decide's binding sites), one `decide` (odd_sample), one
certificate through its `check` and its `verify` command (certify: the
median follows the obstructed a, the tail the 8 survivors), or one
(d, p) pair (oracle_grid).

With --trace 1 a run makes one untraced and one traced pass and
prints the per-layer metrics (see tracer.py), three waste ratios with
their base counts, and the tracing overhead (traced minus untraced
wall_s).  The traced pass runs no probes, so its times are raw wall
seconds, and the overhead is taken between raw wall times.  It also
runs the tracer self-test: decide is called once per input, the
backstop the expected number of times, and every wrapped function is
the original object again afterwards.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the
environment (git rev, Python and numpy versions, CPUs, seed).  Every
output check that fails counts into failed, and the exit code is 0
only when none did.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402

DATA = HERE / "data"
WORKLOADS = ("survivor_scan", "odd_sample", "certify", "oracle_grid")
SURVIVORS = (1081, 3577, 11257, 12457, 12841, 14617, 17521, 17881)

SETUP_PROBES = 8
RUN_LIMIT_S = 170  # every child is killed once the run has taken this long
# one draw per block of the cost ranking
ODD_BLOCK = 8  # ~1090 a, about 4 s per pass
CERTIFY_BLOCK = 44  # ~200 obstructed a beside the survivors
GRID_BLOCK = 5  # ~466 pairs, about 15 s per pass
TAIL_BEYOND = 10
# backstop calls the code makes on each workload: one per prime of
# (a+1)/2 for every a whose pairs all pass (17521 has two such primes)
BACKSTOP_CALLS = {"survivor_scan": 9, "odd_sample": 0}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# inputs


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def scan_pool():
    return [a for a in range(3, 18000, 2) if a % 120 in (1, 97)]


def odd_pool():
    return [a for a in range(3, 18000, 2) if a % 120 not in (1, 97)]


def grid_pool():
    return [(d, p) for d in range(3, 501, 2) if _is_prime(d)
            for p in range(2, 101) if _is_prime(p) and p != d]


def load_ranked(name: str, expected):
    with open(DATA / name, encoding="utf-8") as fh:
        rows = [tuple(int(x) for x in line.split()) for line in fh if line.strip()]
    ranked = [r[0] if len(r) == 1 else r for r in rows]
    if sorted(ranked) != sorted(expected):
        raise BenchError(f"data/{name} does not rank exactly the expected pool")
    return ranked


def stratified(ranked, block: int, rng: random.Random):
    return sorted(rng.choice(ranked[i:i + block]) for i in range(0, len(ranked), block))


def make_inputs(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "odd_sample":
        return stratified(load_ranked("odd_pool_ranked.txt", odd_pool()), ODD_BLOCK, rng)
    if workload == "certify":
        drawn = stratified(load_ranked("odd_pool_ranked.txt", odd_pool()), CERTIFY_BLOCK, rng)
        return sorted(set(SURVIVORS) | set(drawn))
    if workload == "oracle_grid":
        return stratified(load_ranked("grid_ranked.txt", grid_pool()), GRID_BLOCK, rng)
    return []


# ---------------------------------------------------------------------------
# passes


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.inputs = make_inputs(workload, seed)
        self.tmp = root / ".perfbench_tmp" / f"run-{os.getpid()}"
        self.env = dict(os.environ)
        self.env.pop("PRETZELSLICE_CONFIG", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.setup_samples = []
        self.raw_setup_samples = []
        self.raw_walls = []  # per untraced pass, wall seconds
        self.slowdowns = []  # per untraced child, median probe / REFERENCE_S
        self.package_file = None
        self.numpy = None
        self._n = 0

    def child(self, phase: str, trace: bool = False, **extra):
        self._n += 1
        job = dict(phase=phase, seed=self.seed, trace=trace, root=str(self.root),
                   workdir=str(self.tmp), **extra)
        job_path = self.tmp / f"job{self._n}.json"
        res_path = self.tmp / f"result{self._n}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path), str(res_path)],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{phase} pass stopped: the run exceeded {RUN_LIMIT_S} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{phase} pass exited with code {proc.returncode}")
        res = json.loads(res_path.read_text(encoding="utf-8"))
        self.setup_samples.append(res["setup_s"])
        self.raw_setup_samples.append(res["raw_setup_s"])
        if res.get("slowdown") is not None:
            self.slowdowns.append(res["slowdown"])
        self.package_file = res["package_file"]
        self.numpy = res["numpy"]
        return res

    def one_pass(self, trace: bool):
        """One workload pass; returns (wall_s, latencies_ms, ops, rss_mb, checks, layers)."""
        checks = Checks()
        if self.workload == "certify":
            certs = self.tmp / "certs"
            shutil.rmtree(certs, ignore_errors=True)
            certs.mkdir()
            files = [str(certs / f"cert_{a}.json") for a in self.inputs]
            extra = dict(inputs=self.inputs, files=files, survivors=SURVIVORS)
            parts = [self.child("certify_check", trace, **extra),
                     self.child("certify_verify", trace, **extra)]
            latencies = [c + v for c, v in zip(parts[0]["latencies_ms"], parts[1]["latencies_ms"])]
        else:
            parts = [self.child(self.workload, trace, inputs=self.inputs)]
            latencies = parts[0]["latencies_ms"]
        for part in parts:
            checks.add_child(part)
        if self.workload == "survivor_scan":
            check_scan_csv(parts[0]["csv"], checks)
        wall = sum(part["wall_s"] for part in parts)
        if not trace:
            self.raw_walls.append(sum(part["raw_wall_s"] for part in parts))
        rss = max(part["peak_rss_mb"] for part in parts)
        layers = merge_layers([part["layers"] for part in parts]) if trace else None
        return wall, latencies, len(latencies), rss, checks, layers


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def add_child(self, res):
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.problems.extend(res["problems"])

    def add(self, other: "Checks"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def check_scan_csv(path: str, checks: Checks):
    """Verdict/p/d columns byte-identical to the golden scan; 8 survivors exactly."""
    with open(path, newline="", encoding="utf-8") as fh:
        got = [row[:4] for row in csv.reader(fh)]
    with open(DATA / "survivor_scan.csv", newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    checks.check(len(got) == len(want), f"scan wrote {len(got)} lines, golden has {len(want)}")
    for g, w in zip(got, want):
        checks.check(g == w, f"scan row {g} differs from golden {w}")
    inconclusive = tuple(int(r[0]) for r in got[1:] if r[1] == "Inconclusive")
    checks.check(inconclusive == SURVIVORS, f"Inconclusive set {inconclusive}")


def merge_layers(parts):
    out = {}
    for part in parts:
        for k, v in part.items():
            out[k] = out.get(k, 0) + v
    return out


# ---------------------------------------------------------------------------
# metrics


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_inc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def harrell_davis(xs, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of xs.

    A weighted mean of all order statistics, centred on rank q*n, so a
    quantile that falls in a sparse part of the distribution does not
    jump between neighbouring samples as they trade places run to run.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [beta_inc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail(latencies):
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond); the value is the
    Harrell-Davis estimate of that percentile."""
    n = len(latencies)
    beyond = min(TAIL_BEYOND, n - 1)
    q = (n - beyond) / n
    return harrell_davis(latencies, q), 100 * q, beyond


def end_to_end(runner: Runner, seconds: float):
    start = time.monotonic()
    # half the setup probes before the passes and half after, so their
    # median does not rest on one stretch of the run
    for _ in range(SETUP_PROBES // 2):
        runner.child("setup")
    passes = []
    checks = Checks()
    while True:
        t = time.monotonic()
        wall, lat, ops, rss, pass_checks, _ = runner.one_pass(trace=False)
        checks.add(pass_checks)
        passes.append((wall, lat, ops, rss))
        if time.monotonic() - start + (time.monotonic() - t) > seconds:
            break
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        runner.child("setup")
    med = statistics.median
    tails = [tail(lat) for _, lat, _, _ in passes]
    metrics = {
        "setup_s": (med(runner.setup_samples), "s"),
        "wall_s": (med(w for w, _, _, _ in passes), "s"),
        "ops_per_s": (med(ops / w for w, _, ops, _ in passes), "1/s"),
        "op_p50_ms": (med(med(lat) for _, lat, _, _ in passes), "ms"),
        "op_tail_ms": (med(v for v, _, _ in tails), "ms"),
        "peak_rss_mb": (med(r for _, _, _, r in passes), "MB"),
    }
    detail = {
        "passes": len(passes),
        "pass_walls_s": [round(w, 4) for w, _, _, _ in passes],
        "raw_pass_walls_s": [round(w, 4) for w in runner.raw_walls],
        "host_slowdowns": [round(x, 3) for x in runner.slowdowns],
        "raw_setup_s": med(runner.raw_setup_samples),
        "ops_per_pass": passes[0][2],
        "tail_percentile": tails[0][1],
        "tail_samples_beyond": tails[0][2],
        "setup_samples": len(runner.setup_samples),
    }
    return metrics, checks, detail


def per_layer(runner: Runner):
    checks = Checks()
    _, *_, plain_checks, _ = runner.one_pass(trace=False)
    plain_wall = runner.raw_walls[-1]
    traced_wall, *_, traced_checks, layers = runner.one_pass(trace=True)
    checks.add(plain_checks)
    checks.add(traced_checks)

    decides = layers["obstruction.decide.calls"]
    want_decides = {"survivor_scan": len(scan_pool()), "oracle_grid": 0}.get(
        runner.workload, len(runner.inputs))
    checks.check(decides == want_decides,
                 f"tracer self-test: obstruction.decide.calls {decides} != {want_decides}")
    if runner.workload in BACKSTOP_CALLS:
        got, want = layers["pretzel.fox_milnor_status.calls"], BACKSTOP_CALLS[runner.workload]
        checks.check(got == want,
                     f"tracer self-test: pretzel.fox_milnor_status.calls {got} != {want}")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name, value in layers.items():
        metrics[name] = (value, layer_unit(name))
    metrics["obstruction.pairs_per_decide"] = (
        ratio(layers["obstruction.check_pair.calls"], decides), "pairs/decide")
    metrics["cyclotomic.oracle_decisive_frac"] = (
        ratio(layers["cyclotomic.oracle_decisive_calls"], layers["cyclotomic.oracle_calls"]),
        "ratio")
    metrics["pretzel.backstop_obstructed_frac"] = (
        ratio(layers["pretzel.backstop_obstructed_calls"],
              layers["pretzel.fox_milnor_status.calls"]), "ratio")
    metrics["trace_overhead_s"] = (traced_wall - plain_wall, "s")
    detail = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return metrics, checks, detail


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# environment record


def environment(root: Path, runner: Runner, seed: int):
    rev, dirty = "unknown", None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=root, capture_output=True, text=True, timeout=30,
                                    check=True).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            rev, dirty = "unknown", None
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": runner.numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "package_file": os.path.relpath(runner.package_file, root),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # SIGTERM unwinds like an exception, so a running child is killed and awaited
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd().resolve()
    if not (root / "src" / "pretzelslice" / "__init__.py").is_file():
        print(f"error: no source tree at {root / 'src' / 'pretzelslice'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    # setup_s is a cold start with the bytecode cache in place, as for an
    # installed package, also where PYTHONDONTWRITEBYTECODE keeps the
    # children from writing it
    compileall.compile_dir(str(root / "src"), quiet=1)
    runner = None
    try:
        runner = Runner(root, args.workload, args.seed)
        runner.tmp.mkdir(parents=True, exist_ok=True)
        if args.trace:
            metrics, checks, detail = per_layer(runner)
        else:
            metrics, checks, detail = end_to_end(runner, args.seconds)
        env = environment(root, runner, args.seed)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if runner is not None:
            shutil.rmtree(runner.tmp, ignore_errors=True)
            try:
                runner.tmp.parent.rmdir()
            except OSError:
                pass

    for problem in checks.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    failed_frac = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    print(f"  failed_frac: {failed_frac:.6g} ({checks.failed} of {checks.attempted} checks)")
    print(json.dumps({"env": env, "detail": detail}))
    correct = checks.failed == 0 and checks.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
