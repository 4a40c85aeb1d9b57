"""Command-line front end.

Four subcommands: `check` decides a single family member and emits its
certificate, `scan` sweeps a range into JSON-lines + CSV reports,
`inspect` prints cyclotomic factorizations, Legendre symbols, and
Alexander polynomials, and `verify` re-verifies a certificate file
without rerunning the search.

Exit codes: 0 success (an obstruction counts as success), 10 the
method was silent (Inconclusive), 1 verification failure, 2 usage
error.  10 instead of 1 keeps "no obstruction found" distinguishable
from "broken input" in shell pipelines.

Defaults can be overridden by a JSON config file named by the
PRETZELSLICE_CONFIG environment variable (keys: seed, jobs, max_a,
out; any other key is an error); explicit flags always win.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import List, Optional

from . import numth, obstruction, pretzel
from ._version import __version__
from .cyclotomic import CyclotomicQuery, factor_cyclotomic_oracle
from .factor import DEFAULT_SEED

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 10

CONFIG_ENV = "PRETZELSLICE_CONFIG"


@dataclass
class Config:
    max_a: int = pretzel.DEFAULT_MAX_A
    seed: int = DEFAULT_SEED
    jobs: int = 1
    out: Optional[str] = None


def _config_int(key: str, value) -> int:
    # bool is an int subclass and int() truncates floats and parses strings;
    # accept only a JSON integer or a string of decimal digits
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"config key {key!r} must be an integer, got {value!r}")


def load_config() -> Config:
    cfg = Config()
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    known = [f.name for f in fields(Config)]
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                         f"known keys are {', '.join(known)}")
    for key in ("max_a", "seed", "jobs"):
        if key in data:
            setattr(cfg, key, _config_int(key, data[key]))
    if cfg.jobs < 1:
        raise ValueError(f"config key 'jobs' must be >= 1, got {cfg.jobs}")
    if cfg.max_a < 3:
        raise ValueError(f"config key 'max_a' must be >= 3, got {cfg.max_a}")
    if "out" in data:
        cfg.out = str(data["out"])
    return cfg


def _parse_residues(text: str) -> List[int]:
    try:
        out = [int(r) for r in text.split(",") if r.strip() != ""]
    except ValueError:
        raise ValueError(f"bad residue list {text!r}") from None
    if not out:
        raise ValueError("empty residue list")
    return out


def _print_certificate(cert_json: dict, out: Optional[str]):
    blob = json.dumps(cert_json, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)


def cmd_check(args, cfg: Config) -> int:
    cert = obstruction.decide(
        args.a,
        seed=cfg.seed,
        max_a=cfg.max_a,
        all_witnesses=args.all_witnesses,
    )
    if cert.witness is not None:
        detail = f"witness (p={cert.witness.p}, d={cert.witness.d})"
    elif cert.verdict == obstruction.VERDICT_MOD_P:
        detail = f"mod-{cert.evidence['p']} factorization"
    else:
        detail = "no obstruction from this method"
    print(f"a={cert.a}: {cert.verdict} [{detail}]")
    _print_certificate(obstruction.certificate_to_json(cert), cfg.out)
    if cert.verdict == obstruction.VERDICT_INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def write_scan_files(report: obstruction.ScanReport, prefix: str):
    """One JSON object per row to {prefix}.jsonl, summary to {prefix}.csv."""
    with open(prefix + ".jsonl", "w", encoding="utf-8") as fh:
        for row in report.rows:
            fh.write(json.dumps(obstruction._stringify({
                "a": row.a, "verdict": row.verdict,
                "p": row.p, "d": row.d, "reason": row.reason,
            })) + "\n")
    with open(prefix + ".csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "verdict", "p", "d", "reason"])
        for row in report.rows:
            w.writerow([
                row.a, row.verdict,
                "" if row.p is None else row.p,
                "" if row.d is None else row.d,
                row.reason,
            ])


def cmd_scan(args, cfg: Config) -> int:
    if (args.mod is None) != (args.residues is None):
        raise ValueError("--mod and --residues must be given together")
    residues = None if args.residues is None else _parse_residues(args.residues)
    report = obstruction.scan(
        args.lo, args.hi,
        modulus=args.mod, residues=residues,
        seed=cfg.seed, jobs=cfg.jobs, max_a=cfg.max_a,
    )
    prefix = cfg.out or "scan"
    write_scan_files(report, prefix)
    total = len(report.rows)
    print(f"scanned {total} values of a in [{args.lo}, {args.hi}]"
          + (f" with a mod {args.mod} in {set(report.residues)}"
             if args.mod else ""))
    for verdict in sorted(report.counts):
        print(f"  {verdict}: {report.counts[verdict]}")
    if report.inconclusive:
        print("inconclusive a:", ", ".join(str(a) for a in report.inconclusive))
    print(f"wrote {prefix}.jsonl and {prefix}.csv")
    return EXIT_OK


def _inspect_cyclotomic(args, cfg: Config) -> int:
    q = CyclotomicQuery(args.d, args.p)
    ms = factor_cyclotomic_oracle(q, cfg.seed)
    print(f"Phi_{args.d} mod {args.p} splits into {len(ms.factors)} "
          f"irreducible factor(s):")
    for g, m in ms:
        mark = "  [self-reciprocal]" if g.is_self_reciprocal() else ""
        expo = f"^{m}" if m > 1 else ""
        print(f"  ({g}){expo}{mark}")
    return EXIT_OK


def _inspect_legendre(args, cfg: Config) -> int:
    print(numth.legendre(args.n, args.d))
    return EXIT_OK


def _inspect_alexander(args, cfg: Config) -> int:
    if args.p is None:
        delta = pretzel.alexander_poly(args.a, cfg.max_a)
        print(f"Delta_{args.a}(t) = {delta}")
        return EXIT_OK
    status = pretzel.fox_milnor_status(args.a, args.p, cfg.seed, max_a=cfg.max_a)
    delta_bar = pretzel.alexander_mod_p(args.a, args.p, cfg.max_a)
    print(f"Delta_{args.a}(t) mod {args.p} = {delta_bar}")
    if status.route == "direct":
        print("factorization:")
        for g, m in status.multiset:
            mark = " [self-reciprocal]" if g.is_self_reciprocal() else ""
            odd = " <- odd multiplicity" if m % 2 == 1 and g.is_self_reciprocal() else ""
            expo = f"^{m}" if m > 1 else ""
            print(f"  ({g}){expo}{mark}{odd}")
    else:
        print("cyclotomic parts (degree too large for a full listing):")
        for c in status.parts:
            state = "has a self-reciprocal factor" if c.exists else "clean"
            print(f"  d={c.d} (divides {c.source}): {state}")
        for g, m in status.offenders:
            print(f"  offending factor ({g})^{m}")
    verdict = "admits" if status.admits else "does not admit"
    print(f"the reduction {verdict} a Fox-Milnor style factorization")
    return EXIT_OK


def cmd_verify(args, cfg: Config) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"cannot read {args.file}: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    try:
        certs = _parse_certificates(text)
    except ValueError as e:
        print(f"malformed certificate file: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    failures = 0
    for i, data in enumerate(certs):
        ok, problems = obstruction.verify_certificate(data, cfg.max_a)
        label = data.get("a", f"entry {i}")
        if ok:
            print(f"a={label}: verified")
        else:
            failures += 1
            print(f"a={label}: FAILED", file=sys.stderr)
            for msg in problems:
                print(f"  {msg}", file=sys.stderr)
    if failures:
        print(f"{failures} of {len(certs)} certificate(s) failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _parse_certificates(text: str) -> List[dict]:
    """A file is one JSON certificate or JSON-lines of certificates."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty file")
    try:
        data = json.loads(stripped)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict):
        return [data]
    if isinstance(data, list):
        raise ValueError("expected an object or JSON-lines, got an array")
    certs = []
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        if not isinstance(entry, dict):
            raise ValueError(f"line {lineno}: not a JSON object")
        certs.append(entry)
    return certs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pretzelslice",
        description="Non-sliceness obstruction certificates for the "
                    "pretzel knots P(a, -a-2, -(a+1)^2/2).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--seed", type=int, default=None,
                        help="PRNG seed recorded into certificates")
    parser.add_argument("--max-a", type=int, default=None,
                        help="largest admissible a")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide one family member")
    p_check.add_argument("a", type=int)
    p_check.add_argument("--all-witnesses", action="store_true",
                         help="record every failing pair, not just the first")
    p_check.add_argument("--out", help="write the certificate JSON here")

    p_scan = sub.add_parser("scan", help="decide a whole range")
    p_scan.add_argument("lo", type=int)
    p_scan.add_argument("hi", type=int)
    p_scan.add_argument("--mod", type=int, default=None,
                        help="keep only a in given residue classes")
    p_scan.add_argument("--residues", default=None,
                        help="comma-separated residues for --mod")
    p_scan.add_argument("--jobs", type=int, default=None,
                        help="worker processes")
    p_scan.add_argument("--out", default=None,
                        help="output prefix (default: scan)")

    p_inspect = sub.add_parser("inspect", help="print the underlying objects")
    isub = p_inspect.add_subparsers(dest="what", required=True)
    p_cyc = isub.add_parser("cyclotomic", help="factor Phi_d mod p")
    p_cyc.add_argument("d", type=int)
    p_cyc.add_argument("p", type=int)
    p_leg = isub.add_parser("legendre", help="Legendre symbol (n/d)")
    p_leg.add_argument("n", type=int)
    p_leg.add_argument("d", type=int)
    p_alex = isub.add_parser("alexander",
                             help="Alexander polynomial, optionally mod p")
    p_alex.add_argument("a", type=int)
    p_alex.add_argument("p", type=int, nargs="?", default=None)

    p_verify = sub.add_parser("verify", help="re-verify a certificate file")
    p_verify.add_argument("file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config()
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bad config: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        cfg.seed = args.seed
    if args.max_a is not None:
        cfg.max_a = args.max_a
    if getattr(args, "jobs", None) is not None:
        cfg.jobs = args.jobs
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    try:
        if args.command == "check":
            return cmd_check(args, cfg)
        if args.command == "scan":
            return cmd_scan(args, cfg)
        if args.command == "inspect":
            handler = {
                "cyclotomic": _inspect_cyclotomic,
                "legendre": _inspect_legendre,
                "alexander": _inspect_alexander,
            }[args.what]
            return handler(args, cfg)
        if args.command == "verify":
            return cmd_verify(args, cfg)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
