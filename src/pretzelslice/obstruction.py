"""Non-sliceness obstruction pipeline and certificates.

For an odd a >= 3, every prime p dividing (a+1)/2 and every divisor
d > 1 of a or of a+2 yields a pair (p, d) whose reduced cyclotomic
must, if the knot were slice, have an even factor count and no
self-reciprocal irreducible factor.  `decide` walks the pairs in a
canonical order and wraps the outcome in a certificate carrying
enough numeric evidence to be re-verified from scratch.  When every
pair passes, the mod-p Fox-Milnor test is silent too: by Lemma (b)
(proved in `pretzel.fox_milnor_status`) it asks each part C_d mod p
the same question the pairs already answered, and the verdict is
Inconclusive.

The two residue-class constructions that make the published case
splits effective are exposed as `parity_witness` (a = 3,5 mod 8 or
5 mod 12: a pair with an odd factor count, found via quadratic
residues) and `self_reciprocal_witness` (a = 3 mod 4: a pair whose
cyclotomic contains a palindromic irreducible factor, found via the
odd part of phi(a(a+2))).

`scan` sweeps a range and reports one row per a; `verify_certificate`
recomputes every number in a certificate by arithmetic on (p, d),
without rerunning the decision search or factoring a polynomial.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import factor as _factor
from . import numth
from . import pretzel
from ._version import __version__
from .cyclotomic import (
    CyclotomicQuery,
    count_irreducible_factors,
    factor_count_oracle,
    has_self_reciprocal_factor,
    reduced,
)
from .poly import ModPoly

VERDICT_PARITY = "ObstructedParity"
VERDICT_SELF_RECIPROCAL = "ObstructedSelfReciprocal"
VERDICT_INCONCLUSIVE = "Inconclusive"

TAG_PARITY = "legendre_parity"
TAG_SELF_RECIPROCAL = "self_reciprocal_factor"

_INCONCLUSIVE_NOTE = (
    "no obstruction from this method; this is not a sliceness claim"
)


@dataclass(frozen=True)
class WitnessPair:
    """A candidate (p, d): p prime dividing (a+1)/2, d > 1 dividing a or a+2."""

    p: int
    d: int
    d_is_prime: bool
    source: str  # which of a, a+2 the divisor came from

    def query(self) -> CyclotomicQuery:
        return CyclotomicQuery(self.d, self.p)


def witness_pairs(a: int, max_a: int = pretzel.DEFAULT_MAX_A) -> List[WitnessPair]:
    """All pairs in canonical order: p ascending; within each p the
    divisors of a (primes ascending, then composites ascending), then
    the divisors of a+2 likewise.

    >>> [(w.p, w.d) for w in witness_pairs(3)]
    [(2, 3), (2, 5)]
    >>> [(w.p, w.d) for w in witness_pairs(49)]
    [(5, 7), (5, 49), (5, 3), (5, 17), (5, 51)]
    """
    knot = pretzel.validate_member(a, max_a)
    by_source = []
    for n, source in ((a, "a"), (a + 2, "a+2")):
        divs = numth.divisors(numth.factorize(n))[1:]
        primes = [d for d in divs if numth.is_prime(d)]
        composites = [d for d in divs if not numth.is_prime(d)]
        by_source.extend((d, True, source) for d in primes)
        by_source.extend((d, False, source) for d in composites)
    out = []
    for p in knot.reduction_primes():
        for d, is_prime_d, source in by_source:
            if d % p == 0:  # pragma: no cover
                raise ArithmeticError(f"impossible common factor p={p}, d={d}")
            out.append(WitnessPair(p, d, is_prime_d, source))
    return out


STATUS_PARITY = "parity_failed"
STATUS_SELF_RECIPROCAL = "self_reciprocal_failed"
STATUS_PASS = "pass"


@dataclass(frozen=True)
class PairOutcome:
    """check_pair result: the first failing condition, with the numbers."""

    pair: WitnessPair
    status: str
    count: int
    order: int
    parity: str
    legendre: Optional[int]
    sr_exists: Optional[bool]  # None when parity already failed
    w: Optional[int]
    u_odd_part: Optional[int]
    power_at_u: Optional[int]


def check_pair(a: int, pair: WitnessPair) -> PairOutcome:
    """Evaluate the two conditions for one pair, cheapest first.

    Factor-count parity is checked before the self-reciprocal
    condition, both by closed form for every d: the count is
    phi(d)/ord_d(p), and a self-reciprocal factor exists iff -1 is a
    power of p mod d (both proved in `has_self_reciprocal_factor`).

    Lemma (a): a composite d never fails unless some prime q | d fails
    for the same p.  Phi_d is self-reciprocal, so reversal permutes its
    factors mod p.  If the count for (p, d) is odd, this involution on
    an odd set fixes a factor, so a self-reciprocal factor exists.  So
    either failure gives -1 = p^k mod d for some k.  Reducing mod a
    prime q | d gives -1 = p^k mod q (q is odd, as d | a(a+2)), so
    (p, q) has a self-reciprocal factor and fails too.  Within each p
    the prime divisors of a and of a+2 come before their composites in
    the canonical order of `witness_pairs`, and q comes from the same
    one of a, a+2 as d, so the first failing pair always has prime d.

    >>> check_pair(3, witness_pairs(3)[0]).status
    'parity_failed'
    >>> check_pair(15, WitnessPair(2, 17, True, "a+2")).status
    'self_reciprocal_failed'
    """
    knot = pretzel.PretzelKnot(a)
    if knot.half_a_plus_one % pair.p != 0:
        raise ValueError(f"p = {pair.p} does not divide (a+1)/2 for a = {a}")
    if pair.d < 2 or (a % pair.d != 0 and (a + 2) % pair.d != 0):
        raise ValueError(f"d = {pair.d} divides neither {a} nor {a + 2}")
    q = pair.query()
    count = count_irreducible_factors(q)
    common = dict(
        count=count.count,
        order=count.degree_each,
        parity=count.parity,
        legendre=count.legendre_check,
    )
    if count.parity == "odd":
        return PairOutcome(
            pair, STATUS_PARITY, sr_exists=None, w=None, u_odd_part=None,
            power_at_u=None, **common,
        )
    sr = has_self_reciprocal_factor(q)
    return PairOutcome(
        pair,
        STATUS_SELF_RECIPROCAL if sr.exists else STATUS_PASS,
        sr_exists=sr.exists,
        w=sr.w,
        u_odd_part=sr.u_odd_part,
        power_at_u=sr.power_at_u,
        **common,
    )


def theorem_tags(a: int) -> Tuple[str, ...]:
    """Which residue-class case splits cover this a (empty when none)."""
    tags = []
    if a % 8 in (3, 5) or a % 12 == 5:
        tags.append(TAG_PARITY)
    if a % 4 == 3:
        tags.append(TAG_SELF_RECIPROCAL)
    return tuple(tags)


@dataclass(frozen=True)
class Certificate:
    """Self-contained verdict for one a, re-verifiable from evidence alone."""

    a: int
    verdict: str
    witness: Optional[WitnessPair]
    evidence: Dict
    theorem_tags: Tuple[str, ...]
    seed: int
    version: str


def _pair_evidence(out: PairOutcome) -> Dict:
    ev = {
        "p": out.pair.p,
        "d": out.pair.d,
        "d_is_prime": out.pair.d_is_prime,
        "source": out.pair.source,
        "count": out.count,
        "order": out.order,
        "parity": out.parity,
        "legendre": out.legendre,
    }
    if out.sr_exists is not None:
        ev.update(
            sr_exists=out.sr_exists,
            w=out.w,
            u_odd_part=out.u_odd_part,
            power_at_u=out.power_at_u,
        )
    return ev


def _failure_certificate(
    a: int, out: PairOutcome, seed: int, extra_failures: Optional[List[Dict]]
) -> Certificate:
    ev = _pair_evidence(out)
    if out.status == STATUS_PARITY:
        verdict = VERDICT_PARITY
        ev["kind"] = "parity"
        ev["phi"] = out.count * out.order
    else:
        verdict = VERDICT_SELF_RECIPROCAL
        ev["kind"] = "self_reciprocal"
        if out.w is not None:
            ev["power_at_w"] = pow(out.pair.p, out.w, out.pair.d)
    if extra_failures is not None:
        ev["all_failures"] = extra_failures
    return Certificate(a, verdict, out.pair, ev, theorem_tags(a), seed, __version__)


def _fox_milnor_evidence(status: pretzel.FoxMilnorStatus) -> Dict:
    # "route" and "squarefree" keep the 0.2.0 format; both are constant
    # since the part-by-part route is the only one (Lemma (b))
    return {
        "p": status.p,
        "admits": status.admits,
        "route": "structured",
        "squarefree": True,
        "parts": [{"d": c.d, "source": c.source, "exists": c.exists} for c in status.parts],
    }


def decide(
    a: int,
    seed: int = _factor.DEFAULT_SEED,
    max_a: int = pretzel.DEFAULT_MAX_A,
    all_witnesses: bool = False,
) -> Certificate:
    """Full obstruction decision for one family member.

    Pairs are checked in canonical order by closed form (`check_pair`)
    and the first failure wins; by Lemma (a) its d is prime.  If every
    pair passes, the mod-p Fox-Milnor status of each prime p | (a+1)/2
    is recorded and the verdict is Inconclusive.  By Lemma (b) (in
    `pretzel.fox_milnor_status`) that status asks each part C_d mod p
    whether it has a self-reciprocal factor, which the passing pairs
    have already ruled out, so it always admits; a status that does
    not contradicts the lemma and raises ArithmeticError.  No
    polynomial is factored or searched.  `all_witnesses` additionally
    collects every failing pair into the evidence.

    >>> decide(3).verdict
    'ObstructedParity'
    >>> (decide(3).witness.p, decide(3).witness.d)
    (2, 3)
    """
    pairs = witness_pairs(a, max_a)
    first_failure: Optional[PairOutcome] = None
    failures: List[Dict] = []
    passes: List[PairOutcome] = []
    for pair in pairs:
        out = check_pair(a, pair)
        if out.status == STATUS_PASS:
            passes.append(out)
            continue
        if first_failure is None:
            first_failure = out
            if not all_witnesses:
                break
        failures.append({"p": pair.p, "d": pair.d, "status": out.status})
    if first_failure is not None:
        extra = failures if all_witnesses else None
        cert = _failure_certificate(a, first_failure, seed, extra)
        return cert

    statuses = [
        pretzel.fox_milnor_status(a, p, seed, max_a=max_a)
        for p in pretzel.PretzelKnot(a).reduction_primes()
    ]
    bad = [s.p for s in statuses if not s.admits]
    if bad:
        raise ArithmeticError(
            f"a = {a}: every pair passes but the reduction mod {bad[0]} does "
            "not admit a Fox-Milnor factorization; this contradicts Lemma (b)"
        )
    tags = theorem_tags(a)
    if tags:  # pragma: no cover
        raise ArithmeticError(
            f"a = {a} is covered by a residue case split but no obstruction "
            "was found; this contradicts a proven statement"
        )
    ev = {
        "kind": "inconclusive",
        "note": _INCONCLUSIVE_NOTE,
        "pairs": [_pair_evidence(out) for out in passes],
        "fox_milnor": [_fox_milnor_evidence(s) for s in statuses],
    }
    return Certificate(a, VERDICT_INCONCLUSIVE, None, ev, tags, seed, __version__)


# ---------------------------------------------------------------------------
# the published witness constructions


def parity_witness(a: int) -> Tuple[WitnessPair, Dict]:
    """Construct an odd-count pair for a = 3,5 (mod 8) or a = 5 (mod 12).

    Follows the case analysis: a = 3 (mod 8) takes p = 2 and a prime
    divisor d = 3,5 (mod 8) of a; a = 5 (mod 12) takes p = 3 and a
    prime divisor d = 5,7 (mod 12) of a; a = 5 (mod 8) takes a prime
    p = 3 (mod 4) of (a+1)/2 and a prime divisor d of a that is a
    quadratic nonresidue witness, which the product formula over the
    factorization of a guarantees to exist.

    >>> pw, ev = parity_witness(11)
    >>> (pw.p, pw.d, ev["legendre"])
    (2, 11, -1)
    >>> parity_witness(13)[0]
    WitnessPair(p=7, d=13, d_is_prime=True, source='a')
    """
    knot = pretzel.PretzelKnot(a)
    a_primes = numth.factorize(a).primes
    if a % 8 == 3:
        p = 2
        cands = [d for d in a_primes if d % 8 in (3, 5)]
        branch = "a=3 mod 8"
    elif a % 12 == 5:
        p = 3
        cands = [d for d in a_primes if d % 12 in (5, 7)]
        branch = "a=5 mod 12"
    elif a % 8 == 5:
        half_primes = [q for q in knot.reduction_primes() if q % 4 == 3]
        if not half_primes:  # pragma: no cover
            raise ArithmeticError(f"(a+1)/2 = 3 mod 4 but no such prime, a = {a}")
        p = half_primes[0]
        cands = [d for d in a_primes if numth.legendre(p, d) == -1]
        branch = "a=5 mod 8"
    else:
        raise ValueError(f"a = {a} is not 3,5 mod 8 or 5 mod 12")
    if not cands:  # pragma: no cover
        raise ArithmeticError(f"guaranteed parity witness missing for a = {a}")
    d = cands[0]
    sym = numth.legendre(p, d)
    if sym != -1:  # pragma: no cover
        raise ArithmeticError(f"witness (p={p}, d={d}) is a residue, a = {a}")
    pair = WitnessPair(p, d, True, "a")
    outcome = check_pair(a, pair)
    if outcome.status != STATUS_PARITY:  # pragma: no cover
        raise ArithmeticError(f"constructed pair does not fail parity, a = {a}")
    return pair, {
        "branch": branch,
        "legendre": sym,
        "count": outcome.count,
        "order": outcome.order,
    }


def self_reciprocal_witness(a: int) -> Tuple[WitnessPair, Dict]:
    """Construct a palindromic-factor pair for a = 3 (mod 4).

    With u the odd part of phi(a(a+2)): if ((a+1)/2)^u = 1 mod a(a+2)
    then 2^u = -1 mod d for every prime d | a+2, giving (2, d).
    Otherwise some prime p | (a+1)/2 has p^u != 1 mod a(a+2), and
    peeling prime powers (the lifting lemma in reverse) yields a prime
    d | a(a+2) with p^(odd part of phi(d)) != 1 mod d, giving (p, d).

    >>> pw, ev = self_reciprocal_witness(7)
    >>> (pw.p, pw.d, ev["branch"])
    (2, 3, 'half-power trivial')
    >>> self_reciprocal_witness(3)[0]
    WitnessPair(p=2, d=3, d_is_prime=True, source='a')
    """
    if a % 4 != 3:
        raise ValueError(f"a = {a} is not 3 mod 4")
    knot = pretzel.PretzelKnot(a)
    m = a * (a + 2)
    phi_m = numth.totient(numth.factorize(m))
    u = numth.valuation(phi_m, 2).u
    half = knot.half_a_plus_one
    if pow(half, u, m) == 1:
        p = 2
        d = numth.factorize(a + 2).primes[0]
        source = "a+2"
        branch = "half-power trivial"
        if pow(2, u, d) != d - 1:  # pragma: no cover
            raise ArithmeticError(f"2^u should be -1 mod {d}, a = {a}")
    else:
        ps = [q for q in knot.reduction_primes() if pow(q, u, m) != 1]
        if not ps:  # pragma: no cover
            raise ArithmeticError(f"no prime with nontrivial power at u, a = {a}")
        p = ps[0]
        d = None
        for q, l in numth.factorize(m).pairs:
            if pow(p, u, q**l) != 1:
                d = q
                break
        if d is None:  # pragma: no cover
            raise ArithmeticError(f"power nontrivial mod {m} but trivial mod "
                                  f"every prime power, a = {a}")
        source = "a" if a % d == 0 else "a+2"
        branch = "prime-power descent"
        u_d = numth.valuation(numth.totient(numth.factorize(d)), 2).u
        if pow(p, u_d, d) == 1:  # pragma: no cover
            raise ArithmeticError(f"descent to d = {d} failed, a = {a}")
    pair = WitnessPair(p, d, True, source)
    report = has_self_reciprocal_factor(pair.query())
    if not report.exists:  # pragma: no cover
        raise ArithmeticError(f"constructed pair has no palindromic factor, a = {a}")
    return pair, {
        "branch": branch,
        "u_odd_part": u,
        "order": report.order,
        "w": report.w,
    }


# ---------------------------------------------------------------------------
# range scans


@dataclass(frozen=True)
class ScanRow:
    a: int
    verdict: str
    p: Optional[int]
    d: Optional[int]
    reason: str


@dataclass(frozen=True)
class ScanReport:
    lo: int
    hi: int
    modulus: Optional[int]
    residues: Optional[Tuple[int, ...]]
    rows: Tuple[ScanRow, ...]
    counts: Dict[str, int]
    inconclusive: Tuple[int, ...]
    seed: int
    version: str


def _row_reason(cert: Certificate) -> str:
    ev = cert.evidence
    if cert.verdict == VERDICT_PARITY:
        return f"factor count {ev['count']} is odd for (p={ev['p']}, d={ev['d']})"
    if cert.verdict == VERDICT_SELF_RECIPROCAL:
        return (
            f"p^{ev['w']} = -1 mod d forces a palindromic factor for "
            f"(p={ev['p']}, d={ev['d']})"
        )
    return "all conditions hold; method silent"


def _scan_one(args) -> ScanRow:
    a, seed, max_a = args
    cert = decide(a, seed=seed, max_a=max_a)
    w = cert.witness
    return ScanRow(
        a, cert.verdict, None if w is None else w.p, None if w is None else w.d,
        _row_reason(cert),
    )


def scan(
    lo: int,
    hi: int,
    modulus: Optional[int] = None,
    residues: Optional[Sequence[int]] = None,
    seed: int = _factor.DEFAULT_SEED,
    jobs: int = 1,
    max_a: int = pretzel.DEFAULT_MAX_A,
) -> ScanReport:
    """Decide every matching odd a in [lo, hi] and aggregate one row each.

    The optional filter keeps only a with a mod modulus in residues.
    Rows are ordered by a regardless of worker scheduling, so reports
    are byte-stable for a fixed configuration.  Each a costs one
    `decide`, and a row's witness d, when there is one, is prime
    (Lemma (a) in `check_pair`).
    """
    if lo < 3 or hi < lo:
        raise ValueError(f"need 3 <= lo <= hi, got [{lo}, {hi}]")
    if (modulus is None) != (residues is None):
        raise ValueError("modulus and residues go together")
    rset: Optional[Tuple[int, ...]] = None
    if modulus is not None:
        if modulus < 1 or not residues:
            raise ValueError("empty residue filter")
        rset = tuple(sorted(set(r % modulus for r in residues)))
        if modulus % 2 == 0 and all(r % 2 == 0 for r in rset):
            raise ValueError("residue filter excludes every odd a")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    targets = [
        a for a in range(lo | 1, hi + 1, 2)
        if rset is None or a % modulus in rset
    ]
    work = [(a, seed, max_a) for a in targets]
    if jobs == 1:
        rows = tuple(_scan_one(args) for args in work)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = tuple(pool.map(_scan_one, work, chunksize=8))
    counts: Dict[str, int] = {}
    for r in rows:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    inconclusive = tuple(r.a for r in rows if r.verdict == VERDICT_INCONCLUSIVE)
    return ScanReport(
        lo, hi, modulus, rset, rows, counts, inconclusive, seed, __version__
    )


# ---------------------------------------------------------------------------
# JSON round trip: every integer is serialized as a decimal string


def _stringify(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def certificate_to_json(cert: Certificate) -> Dict:
    """Certificate as a JSON-ready dict (numbers as decimal strings)."""
    witness = None
    if cert.witness is not None:
        witness = {
            "p": cert.witness.p,
            "d": cert.witness.d,
            "d_is_prime": cert.witness.d_is_prime,
        }
    return _stringify({
        "a": cert.a,
        "verdict": cert.verdict,
        "witness": witness,
        "evidence": cert.evidence,
        "theorem_tags": list(cert.theorem_tags),
        "seed": cert.seed,
        "version": cert.version,
    })


def _as_int(v, what: str) -> int:
    if isinstance(v, bool) or v is None:
        raise ValueError(f"{what} is not an integer")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        s = v.strip()
        if s and (s.lstrip("+-").isdigit()):
            return int(s)
    raise ValueError(f"{what} is not an integer: {v!r}")


def _as_opt_int(v, what: str) -> Optional[int]:
    return None if v is None else _as_int(v, what)


# ---------------------------------------------------------------------------
# certificate re-verification (no search, evidence-driven recomputation)


class _Verifier:
    def __init__(self, data: Dict, max_a: int):
        self.data = data
        self.max_a = max_a
        self.problems: List[str] = []

    def flag(self, msg: str):
        self.problems.append(msg)

    def expect(self, cond: bool, msg: str) -> bool:
        if not cond:
            self.flag(msg)
        return cond

    def run(self) -> bool:
        data = self.data
        a = _as_int(data.get("a"), "a")
        pretzel.validate_member(a, self.max_a)
        verdict = data.get("verdict")
        known = (VERDICT_PARITY, VERDICT_SELF_RECIPROCAL, VERDICT_INCONCLUSIVE)
        if not self.expect(verdict in known, f"unknown verdict {verdict!r}"):
            return False
        tags = tuple(data.get("theorem_tags") or ())
        self.expect(tags == theorem_tags(a),
                    f"theorem tags {tags} do not match the residues of {a}")
        if tags and verdict == VERDICT_INCONCLUSIVE:
            self.flag("inconclusive verdict inside a covered residue class")
        ev = data.get("evidence")
        if not self.expect(isinstance(ev, dict), "missing evidence"):
            return False
        if verdict in (VERDICT_PARITY, VERDICT_SELF_RECIPROCAL):
            self._check_witness_pair(a, data.get("witness"), ev)
            if verdict == VERDICT_PARITY:
                self._verify_parity(a, ev)
            else:
                self._verify_self_reciprocal(a, ev)
        else:
            self._verify_inconclusive(a, ev)
        return not self.problems

    # -- shared pieces

    def _check_witness_pair(self, a: int, witness, ev: Dict):
        if not self.expect(isinstance(witness, dict), "missing witness"):
            return
        p = _as_int(witness.get("p"), "witness.p")
        d = _as_int(witness.get("d"), "witness.d")
        self.expect(p == _as_int(ev.get("p"), "evidence.p"), "witness/evidence p differ")
        self.expect(d == _as_int(ev.get("d"), "evidence.d"), "witness/evidence d differ")
        self.expect(numth.is_prime(p), f"p = {p} is not prime")
        self.expect((a + 1) // 2 % p == 0, f"p = {p} does not divide (a+1)/2")
        self.expect(d > 1 and (a % d == 0 or (a + 2) % d == 0),
                    f"d = {d} divides neither a nor a+2")
        self.expect(bool(witness.get("d_is_prime")) == numth.is_prime(d),
                    "d_is_prime flag is wrong")

    def _recount(self, p: int, d: int) -> Tuple[int, int]:
        phi = numth.totient(numth.factorize(d))
        order = numth.mult_order(p, d)
        return phi // order, order

    def _verify_parity(self, a: int, ev: Dict):
        p = _as_int(ev.get("p"), "p")
        d = _as_int(ev.get("d"), "d")
        count, order = self._recount(p, d)
        self.expect(count == _as_int(ev.get("count"), "count"),
                    f"recomputed count {count} != stated {ev.get('count')}")
        self.expect(order == _as_int(ev.get("order"), "order"),
                    f"recomputed order {order} != stated {ev.get('order')}")
        self.expect(count % 2 == 1, "stated parity failure but the count is even")
        self.expect(ev.get("parity") == "odd", "parity field is not 'odd'")
        if numth.is_prime(d) and d % 2 == 1:
            sym = numth.legendre(p, d)
            self.expect(sym == -1, f"legendre({p},{d}) = {sym}, expected -1")
            stated = _as_opt_int(ev.get("legendre"), "legendre")
            if stated is not None:
                self.expect(stated == sym, "stated legendre symbol is wrong")
        oc = _as_opt_int(ev.get("oracle_count"), "oracle_count")
        if oc is not None:
            got = factor_count_oracle(CyclotomicQuery(d, p))
            self.expect(got == oc == count, "oracle count does not re-verify")

    def _verify_self_reciprocal(self, a: int, ev: Dict):
        p = _as_int(ev.get("p"), "p")
        d = _as_int(ev.get("d"), "d")
        count, order = self._recount(p, d)
        self.expect(count % 2 == 0, "pair should have passed parity first")
        w = _as_opt_int(ev.get("w"), "w")
        if w is not None:
            self.expect(order % 2 == 0 and w == order // 2,
                        f"w = {w} is not half the order {order}")
            got = pow(p, w, d)
            self.expect(got == d - 1, f"p^w = {got} mod d, expected -1")
            stated = _as_opt_int(ev.get("power_at_w"), "power_at_w")
            if stated is not None:
                self.expect(stated == got, "stated power at w is wrong")
        else:
            self.flag("self-reciprocal verdict without the exponent w")
        if ev.get("oracle_sr_exists") is not None:
            self._reverify_sr_oracle(ev, p, d)

    def _reverify_sr_oracle(self, ev: Dict, p: int, d: int):
        # oracle evidence is emitted only by certificates before 0.2.0
        m = _as_opt_int(ev.get("oracle_sr_power"), "oracle_sr_power")
        g = _as_opt_int(ev.get("oracle_sr_divisor"), "oracle_sr_divisor")
        deg = _as_opt_int(ev.get("oracle_sr_gcd_degree"), "oracle_sr_gcd_degree")
        if m is None or g is None or deg is None:
            self.flag(f"oracle evidence for d = {d} is incomplete")
            return
        self.expect(math.gcd(pow(p, m, d) + 1, d) == g and g > 2,
                    f"stated divisor {g} does not match gcd(p^{m}+1, {d})")
        f = reduced(CyclotomicQuery(d, p))
        part = f.gcd(ModPoly(p, [p - 1] + [0] * (g - 1) + [1]))
        self.expect(part.degree == deg and deg > 0,
                    f"gcd with t^{g}-1 has degree {part.degree}, stated {deg}")

    def _verify_inconclusive(self, a: int, ev: Dict):
        stated_pairs = ev.get("pairs")
        if not self.expect(isinstance(stated_pairs, list), "missing pair list"):
            return
        expected = [(w.p, w.d) for w in witness_pairs(a, self.max_a)]
        got = [( _as_int(e.get("p"), "p"), _as_int(e.get("d"), "d"))
               for e in stated_pairs]
        if not self.expect(got == expected,
                           "pair list does not match the canonical enumeration"):
            return
        for e in stated_pairs:
            p = _as_int(e.get("p"), "p")
            d = _as_int(e.get("d"), "d")
            count, order = self._recount(p, d)
            self.expect(count == _as_int(e.get("count"), "count"),
                        f"count mismatch at (p={p}, d={d})")
            self.expect(count % 2 == 0 and e.get("parity") == "even",
                        f"pair (p={p}, d={d}) does not pass parity")
            if numth.is_prime(d):
                self.expect(numth.legendre(p, d) == 1,
                            f"legendre({p},{d}) should be 1 for an even count")
            sr = order % 2 == 0 and pow(p, order // 2, d) == d - 1
            self.expect(e.get("sr_exists") is False and not sr,
                        f"pair (p={p}, d={d}) has a palindromic factor")
            # 0.1.0 pairs may state oracle results; the closed forms are
            # proved equal to them, so they are checked without factoring
            oc = _as_opt_int(e.get("oracle_count"), "oracle_count")
            deg = _as_opt_int(e.get("oracle_sr_gcd_degree"), "oracle_sr_gcd_degree")
            self.expect(oc in (None, count) and deg in (None, 0)
                        and e.get("oracle_sr_exists") in (None, False)
                        and e.get("oracle_sr_power") is None
                        and e.get("oracle_sr_divisor") is None,
                        f"stated oracle result at (p={p}, d={d}) is wrong")
        # The pairs above cover every part index d > 1 of a and of a+2
        # for every prime p, and none has a self-reciprocal factor.  By
        # Lemma (b) (in `pretzel.fox_milnor_status`) each reduction is
        # the squarefree product of those parts, so it admits, and its
        # block must state exactly that.
        fm = ev.get("fox_milnor")
        if not self.expect(isinstance(fm, list) and fm
                           and all(isinstance(s, dict) for s in fm),
                           "missing Fox-Milnor block"):
            return
        stated_ps = [_as_int(s.get("p"), "p") for s in fm]
        knot = pretzel.PretzelKnot(a)
        self.expect(tuple(stated_ps) == knot.reduction_primes(),
                    "Fox-Milnor block does not cover every prime")
        expected = [(d, source) for n, source in ((a, "a"), (a + 2, "a+2"))
                    for d in numth.divisors(numth.factorize(n))[1:]]
        for p, s in zip(stated_ps, fm):
            self.expect(s.get("admits") is True, f"stated non-admitting p = {p}")
            self.expect(s.get("route") == "structured" and s.get("squarefree") is True,
                        f"Fox-Milnor block at p = {p} states another route")
            parts = s.get("parts")
            ok = isinstance(parts, list) and all(isinstance(c, dict) for c in parts)
            self.expect(ok and [(_as_int(c.get("d"), "part d"), c.get("source"))
                                for c in parts] == expected
                        and all(c.get("exists") is False for c in parts),
                        f"Fox-Milnor parts at p = {p} are not the clean parts of a, a+2")


def verify_certificate(data: Dict, max_a: int = pretzel.DEFAULT_MAX_A) -> Tuple[bool, List[str]]:
    """Recompute a certificate's evidence; (ok, list of discrepancies).

    Works from the JSON dict alone, by arithmetic on (a, p, d) for
    every verdict: orders, totients, Legendre symbols and the
    self-reciprocal criterion are recomputed, and the Fox-Milnor block
    of an Inconclusive certificate is checked against Lemma (b).  The
    original decision search is never rerun and no polynomial is
    factored, except that 0.1.0 certificates stating oracle evidence
    for their witness pair have that evidence recomputed.
    """
    v = _Verifier(data, max_a)
    try:
        ok = v.run()
    except (ValueError, TypeError, KeyError, ArithmeticError) as e:
        v.flag(f"malformed certificate: {e}")
        ok = False
    return ok, v.problems
