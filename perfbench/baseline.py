"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--out FILE]

For each workload, runs `run.py --trace 0` once per seed, then one
`run.py --trace 1` on the first seed, all from the current directory.
The summary gives, per end-to-end metric, the values, their median and
quartiles (`statistics.quantiles(values, n=4)`) and the spread: the
distance between the quartiles as a share of the median, which is what
a metric's bound in BENCHMARK.json is compared with.  Per-layer values
come from the one traced run.  Writes JSON to --out (default stdout).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, env = [], None
        for seed in seeds:
            rc, info, result = run_once(workload, seed, seconds, 0)
            env = info["env"]
            runs.append({"seed": seed, "exit": rc, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "detail": info["detail"], "metrics": result["metrics"]})
            print(f"{workload} seed {seed}: exit {rc}, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        metrics = {}
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bounds[name]
            metrics[name] = s
            print(f"  {name}: median {s['median']:.4g}, spread {s['spread']:.3f} "
                  f"(bound {bounds[name]})", file=sys.stderr, flush=True)
        rc, info, traced = run_once(workload, seeds[0], seconds, 1)
        summary["workloads"][workload] = {
            "env": env, "runs": runs, "end_to_end": metrics,
            "trace": {"seed": seeds[0], "exit": rc, "correct": traced["correct"],
                      "detail": info["detail"],
                      "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
