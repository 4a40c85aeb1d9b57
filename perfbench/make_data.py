"""Regenerate the frozen benchmark inputs in perfbench/data/.

    PYTHONPATH=src python3 perfbench/make_data.py

Writes
  survivor_scan.csv    a,verdict,p,d of the survivor scan, the golden
                       output every later version must reproduce;
  odd_pool_ranked.txt  odd a < 18000 with a mod 120 not in {1, 97},
                       slowest `decide` first;
  grid_ranked.txt      "d p" for odd prime d <= 500 and prime p <= 100,
                       slowest `factor_cyclotomic_oracle` first.

The rankings only define the strata the workloads sample from, so
they are measured once, in one process and in reference seconds (see
hostspeed.py), and then kept: regenerating them changes the
benchmark's inputs and needs a new baseline.
"""

import contextlib
import csv
import io
import os
import sys
import tempfile
import time

from pretzelslice import cli, cyclotomic, obstruction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostspeed  # noqa: E402
from run import DATA, grid_pool, odd_pool  # noqa: E402


def golden_scan():
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "scan")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["scan", "3", "17999", "--mod", "120", "--residues", "1,97",
                           "--out", prefix])
        if rc != cli.EXIT_OK:
            raise SystemExit(f"scan failed with exit code {rc}")
        with open(prefix + ".csv", newline="", encoding="utf-8") as fh:
            rows = [row[:4] for row in csv.reader(fh)]
    with open(DATA / "survivor_scan.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def ranked(pool, cost):
    """The pool, costliest first, timed in reference seconds so that the
    host's speed swings do not reorder it."""
    clock = hostspeed.HostClock()
    spans = []
    clock.start()
    for item in pool:
        t = time.perf_counter()
        cost(item)
        spans.append((item, t, time.perf_counter()))
    clock.stop()
    times = {item: clock.scaled(a, b) for item, a, b in spans}
    return sorted(pool, key=lambda item: -times[item])


def main():
    DATA.mkdir(exist_ok=True)
    golden_scan()
    odd = ranked(odd_pool(), obstruction.decide)
    (DATA / "odd_pool_ranked.txt").write_text("".join(f"{a}\n" for a in odd), encoding="utf-8")
    grid = ranked(grid_pool(),
                  lambda dp: cyclotomic.factor_cyclotomic_oracle(cyclotomic.CyclotomicQuery(*dp)))
    (DATA / "grid_ranked.txt").write_text("".join(f"{d} {p}\n" for d, p in grid),
                                          encoding="utf-8")


if __name__ == "__main__":
    main()
