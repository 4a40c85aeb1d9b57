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
Inconclusive.  That status is closed-form arithmetic like the pairs,
and the seed a certificate carries is recorded, not used.

The walk is lazy: `decide` consumes the generator `iter_witness_pairs`
and stops at the first failure, so the pairs past it are never made,
and a+2 is factored only if the walk reaches its divisors.  Whether a
divisor is prime is read off the factorization it came from, not
tested.  `witness_pairs` is the same walk as a list, for the full
walks of `build_certificate`.

The two residue-class constructions that make the published case
splits effective are exposed as `parity_witness` (a = 3,5 mod 8 or
5 mod 12: a pair with an odd factor count, found via quadratic
residues) and `self_reciprocal_witness` (a = 3 mod 4: a pair whose
cyclotomic contains a palindromic irreducible factor, found via the
odd part of phi(a(a+2))).

`scan` sweeps a range as an iterator of rows, one per a in order of a,
each decided when it is taken; the command line writes each row out
as it arrives, so a long scan holds no rows.  `build_certificate`
is the one writer of the evidence format: `decide` hands it the pair
outcomes of its search, and `verify_certificate` calls it on the
stated witness and compares, so verifying factors no polynomial.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import numth
from . import pretzel
from ._version import __version__
from .numth import (
    DEFAULT_SEED,
    CyclotomicQuery,
    count_irreducible_factors,
    has_self_reciprocal_factor,
)

VERDICT_PARITY = "ObstructedParity"
VERDICT_SELF_RECIPROCAL = "ObstructedSelfReciprocal"
VERDICT_INCONCLUSIVE = "Inconclusive"

TAG_PARITY = "legendre_parity"
TAG_SELF_RECIPROCAL = "self_reciprocal_factor"


class WitnessPair(NamedTuple):
    """A candidate (p, d): p prime dividing (a+1)/2, d > 1 dividing a or a+2."""

    p: int
    d: int
    d_is_prime: bool
    source: str  # which of a, a+2 the divisor came from

    def query(self) -> CyclotomicQuery:
        return CyclotomicQuery(self.d, self.p)


def iter_witness_pairs(a: int, max_a: int = pretzel.DEFAULT_MAX_A) -> Iterator[WitnessPair]:
    """The canonical pairs, made as the walk reaches them: p ascending;
    within each p the divisors of a (primes ascending, then composites
    ascending), then the divisors of a+2 likewise.

    a and a+2 are each factored on first use, so a walk that stops in
    a's block never factors a+2.  A divisor d > 1 of n is prime iff it
    is one of `numth.factorize(n).primes`, so no divisor is tested for
    primality.  a is validated on the first `next`.

    >>> [(w.p, w.d) for w in iter_witness_pairs(3)]
    [(2, 3), (2, 5)]
    """
    knot = pretzel.validate_member(a, max_a)
    by_source: Dict[int, List[Tuple[int, bool]]] = {}
    # p | a+1 is prime to a and to a+2, so p never divides d
    for p in knot.reduction_primes():
        for n, source in ((a, "a"), (a + 2, "a+2")):
            if n not in by_source:
                f = numth.factorize(n)
                primes = f.primes
                by_source[n] = [(q, True) for q in primes] + [
                    (d, False) for d in numth.divisors(f)[1:] if d not in primes
                ]
            for d, d_is_prime in by_source[n]:
                yield WitnessPair(p, d, d_is_prime, source)


def witness_pairs(a: int, max_a: int = pretzel.DEFAULT_MAX_A) -> List[WitnessPair]:
    """All canonical pairs of a, as a list of `iter_witness_pairs`.

    >>> [(w.p, w.d) for w in witness_pairs(49)]
    [(5, 7), (5, 49), (5, 3), (5, 17), (5, 51)]
    """
    return list(iter_witness_pairs(a, max_a))


STATUS_PARITY = "parity_failed"
STATUS_SELF_RECIPROCAL = "self_reciprocal_failed"
STATUS_PASS = "pass"


class PairOutcome(NamedTuple):
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
    power of p mod d (both proved in `numth.has_self_reciprocal_factor`).

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


class Certificate(NamedTuple):
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


def build_certificate(
    a: int,
    witness: Optional[WitnessPair],
    seed: int = DEFAULT_SEED,
    all_witnesses: bool = False,
    max_a: int = pretzel.DEFAULT_MAX_A,
) -> Certificate:
    """The certificate for a: obstructed by the failing pair `witness`.

    The one writer of the evidence format, used by `decide` on the
    outcomes of its search and by `verify_certificate` on the stated
    witness.  The
    witness must fail (ValueError otherwise).  With `witness=None`
    every canonical pair must pass (ValueError otherwise) and the
    Fox-Milnor status of each prime p | (a+1)/2 is recorded; by Lemma
    (b) (in `pretzel.fox_milnor_status`) it admits once the pairs pass,
    and ArithmeticError says otherwise.  No a in a `theorem_tags` class
    gets that far: `parity_witness` and `self_reciprocal_witness`
    construct a failing pair for each.  `all_witnesses` lists every
    failing pair in an Obstructed certificate.

    >>> build_certificate(15, WitnessPair(2, 17, True, "a+2")).verdict
    'ObstructedSelfReciprocal'
    """
    outcomes = []
    if witness is None or all_witnesses:
        outcomes = [check_pair(a, pair) for pair in witness_pairs(a, max_a)]
    out = None if witness is None else check_pair(a, witness)
    return _certificate(a, out, outcomes, seed, all_witnesses, max_a)


def _certificate(
    a: int,
    out: Optional[PairOutcome],
    outcomes: List[PairOutcome],
    seed: int,
    all_witnesses: bool,
    max_a: int,
) -> Certificate:
    """`build_certificate` from the pair outcomes already at hand.

    `out` is the witness's outcome (None for no witness).  `outcomes`
    must hold every canonical pair's outcome, in order, when `out` is
    None or `all_witnesses` is set; otherwise it is not read.
    """
    tags = theorem_tags(a)
    failures = [o for o in outcomes if o.status != STATUS_PASS]
    if out is not None:
        ev = _pair_evidence(out)
        if out.status == STATUS_PARITY:
            verdict = VERDICT_PARITY
            ev.update(kind="parity", phi=out.count * out.order)
        elif out.status == STATUS_SELF_RECIPROCAL:
            verdict = VERDICT_SELF_RECIPROCAL
            ev.update(kind="self_reciprocal", power_at_w=pow(out.pair.p, out.w, out.pair.d))
        else:
            raise ValueError(f"pair (p={out.pair.p}, d={out.pair.d}) passes both conditions")
        if all_witnesses:
            ev["all_failures"] = [
                {"p": o.pair.p, "d": o.pair.d, "status": o.status} for o in failures
            ]
        return Certificate(a, verdict, out.pair, ev, tags, seed, __version__)

    if failures:
        o = failures[0]
        raise ValueError(f"pair (p={o.pair.p}, d={o.pair.d}) fails: {o.status}")
    statuses = [
        pretzel.fox_milnor_status(a, p, max_a=max_a)
        for p in pretzel.PretzelKnot(a).reduction_primes()
    ]
    bad = [s.p for s in statuses if not s.admits]
    if bad:
        raise ArithmeticError(
            f"a = {a}: every pair passes but the reduction mod {bad[0]} does "
            "not admit a Fox-Milnor factorization; this contradicts Lemma (b)"
        )
    ev = {
        "kind": "inconclusive",
        "note": "no obstruction from this method; this is not a sliceness claim",
        "pairs": [_pair_evidence(o) for o in outcomes],
        "fox_milnor": [_fox_milnor_evidence(s) for s in statuses],
    }
    return Certificate(a, VERDICT_INCONCLUSIVE, None, ev, tags, seed, __version__)


def decide(
    a: int,
    seed: int = DEFAULT_SEED,
    max_a: int = pretzel.DEFAULT_MAX_A,
    all_witnesses: bool = False,
) -> Certificate:
    """Full obstruction decision for one family member.

    Pairs are checked in canonical order by closed form (`check_pair`)
    and the first failure is the witness; by Lemma (a) its d is prime.
    With no failure the verdict is Inconclusive.  The walk consumes
    `iter_witness_pairs` lazily, so no pair past the first failure is
    made.  The outcomes of this one walk go to the writer behind
    `build_certificate`, so no pair is checked twice (`all_witnesses`
    walks on past the first failure).  No polynomial is factored or
    searched.

    >>> decide(3).verdict
    'ObstructedParity'
    >>> (decide(3).witness.p, decide(3).witness.d)
    (2, 3)
    """
    outcomes = []
    found = None
    for pair in iter_witness_pairs(a, max_a):
        out = check_pair(a, pair)
        outcomes.append(out)
        if found is None and out.status != STATUS_PASS:
            found = out
            if not all_witnesses:
                break
    return _certificate(a, found, outcomes, seed, all_witnesses, max_a)


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


class ScanRow(NamedTuple):
    a: int
    verdict: str
    p: Optional[int]
    d: Optional[int]
    reason: str


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
    # a module global looked up on each call, so a rebinding is seen
    cert = decide(a, seed=seed, max_a=max_a)
    w = cert.witness
    return ScanRow(
        a, cert.verdict, None if w is None else w.p, None if w is None else w.d,
        _row_reason(cert),
    )


_CHUNK = 8  # least values of a per task sent to a scan worker


def scan(
    lo: int,
    hi: int,
    modulus: Optional[int] = None,
    residues: Optional[Sequence[int]] = None,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    max_a: int = pretzel.DEFAULT_MAX_A,
) -> Iterator[ScanRow]:
    """The rows of every matching odd a in [lo, hi], as an iterator in order of a.

    The optional filter keeps only a with a mod modulus in residues.
    The arguments are checked at the call, and the largest kept a is
    validated there once (`pretzel.validate_member`), so a range past
    `max_a` or past numth's exact range is refused (ValueError) before
    any a is decided.  Nothing else happens at the call.  In this
    process each a is decided as its row is taken, so the scan holds no
    rows; with workers, `ProcessPoolExecutor.map` submits every task
    when the first row is taken.  The order is by a regardless of
    worker scheduling, so the rows are byte-stable for a fixed
    configuration.  Each a costs one `decide`, and a row's witness d,
    when there is one, is prime (Lemma (a) in `check_pair`).

    `jobs` is an upper bound on worker processes.  The pool starts every
    worker at the first row taken, so it gets min(jobs, number of
    `_CHUNK`-value chunks) workers; when that is 1 the scan runs in this
    process and forks nothing.  Tasks carry about 1/16 of each worker's
    share and at least `_CHUNK` values of a, so that one task's decide
    work outweighs its pickling and round trip.
    """
    if lo < 3 or hi < lo:
        raise ValueError(f"need 3 <= lo <= hi, got [{lo}, {hi}]")
    if (modulus is None) != (residues is None):
        raise ValueError("modulus and residues go together")
    if modulus is None:
        modulus, residues = 2, (1,)  # every odd a
    if modulus < 1 or not residues:
        raise ValueError("empty residue filter")
    # the odd a = r mod modulus are the a = c mod lcm(2, modulus), c the
    # odd one of r mod modulus and it plus modulus; if both are even, none
    step = modulus if modulus % 2 == 0 else 2 * modulus
    classes = {c for c in (r % modulus + modulus * (1 - r % modulus % 2) for r in residues)
               if c % 2}
    if not classes:
        raise ValueError("residue filter excludes every odd a")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    kept = [range(lo + (c - lo) % step, hi + 1, step) for c in classes]
    last = max((r[-1] for r in kept if r), default=None)
    if last is not None:
        pretzel.validate_member(last, max_a)
    work = ((a, seed, max_a) for a in heapq.merge(*kept))
    count = sum(map(len, kept))
    workers = min(jobs, -(-count // _CHUNK))
    if workers <= 1:
        return map(_scan_one, work)
    chunksize = max(_CHUNK, -(-count // (16 * workers)))
    return _pooled_rows(work, workers, chunksize)


def _pooled_rows(work, workers: int, chunksize: int) -> Iterator[ScanRow]:
    # imported here: a one-process scan never pays for it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_scan_one, work, chunksize=chunksize)


# ---------------------------------------------------------------------------
# JSON round trip: every integer is serialized as a decimal string


def _stringify(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj)
    # by exact type: a record is a tuple, but never a JSON list
    if type(obj) in (list, tuple):
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
    if isinstance(v, str) and v.lstrip("-").isdigit():
        return int(v)
    raise ValueError(f"{what} is not a decimal string: {v!r}")


# ---------------------------------------------------------------------------
# certificate re-verification: rebuild from the stated witness and compare

LEGACY_VERSION = "0.1.0"
_ABSENT = object()


def legacy_oracle_fields(ev: Dict) -> Dict:
    """The `oracle_*` keys a 0.1.0 certificate states for one pair.

    `ev` is the pair's evidence as `build_certificate` writes it.  The
    keys held what the factorization oracles returned, and each has a
    closed form.  `oracle_count` is the count phi(d)/ord_d(p) (proved
    in `numth.has_self_reciprocal_factor`).  The `oracle_sr_*`
    keys, stated with `sr_exists`, record the first hit of
    `factor.self_reciprocal_search` on Phi_d mod p: the least m >= 1
    with g = gcd(p^m + 1, d) > 2 and gcd(Phi_d, t^g - 1) of positive
    degree.  As p does not divide d, the roots of Phi_d mod p are the
    primitive d-th roots of unity, and such a root is a root of
    t^g - 1 (g | d) iff d | g.  So gcd(Phi_d, t^g - 1) is 1 for a
    proper divisor g of d and Phi_d for g = d, and a hit is exactly an
    m with p^m = -1 mod d.  When -1 lies in <p>, p^m = -1 iff
    m = w mod ord_d(p) for w = ord_d(p)/2, so the first hit is m = w
    (w <= phi(d)/2, inside the search range): power w, divisor d and
    gcd degree phi(d) = count * order.  Otherwise there is no hit, and
    they are None, None and 0.
    """
    fields = {"oracle_count": ev["count"]}
    if "sr_exists" in ev:
        hit = ev["sr_exists"]
        fields.update(
            oracle_sr_exists=hit,
            oracle_sr_power=ev["w"],
            oracle_sr_divisor=ev["d"] if hit else None,
            oracle_sr_gcd_degree=ev["count"] * ev["order"] if hit else 0,
        )
    return fields


def _expected_json(cert: Certificate, data: Dict) -> Dict:
    """`certificate_to_json(cert)` in the format of the stated version.

    A 0.1.0 certificate is the 0.2.0 one with another version string
    and the keys of `legacy_oracle_fields` in each pair's evidence; a
    key stated as null (that oracle was not run) is expected as null.
    """
    want = certificate_to_json(cert)
    if data.get("version") != LEGACY_VERSION:
        return want
    want["version"] = LEGACY_VERSION
    stated = data.get("evidence")
    if cert.witness is not None:
        entries = [(cert.evidence, stated, want["evidence"])]
    else:
        stated = stated.get("pairs") if isinstance(stated, dict) else None
        stated = stated if isinstance(stated, list) else []
        entries = zip(cert.evidence["pairs"], stated, want["evidence"]["pairs"])
    for built, stated_entry, entry in entries:
        for key, value in legacy_oracle_fields(built).items():
            null = isinstance(stated_entry, dict) and stated_entry.get(key, 0) is None
            entry[key] = None if null else _stringify(value)
    return want


def _label(entry, i: int) -> str:
    if isinstance(entry, dict) and ("p" in entry or "d" in entry):
        return ", ".join(f"{k}={entry[k]}" for k in ("p", "d") if k in entry)
    return str(i)


def _show(v) -> str:
    if isinstance(v, (dict, list)):
        return "an object" if isinstance(v, dict) else "a list"
    return "nothing" if v is _ABSENT else repr(v)


def _diff(path: str, stated, want, problems: List[str]):
    """Append one problem per path at which `stated` differs from `want`."""
    if isinstance(stated, dict) and isinstance(want, dict):
        keys = list(want) + [k for k in stated if k not in want]
        subs = [(f"{path}.{k}" if path else f"{k}", stated.get(k, _ABSENT),
                 want.get(k, _ABSENT)) for k in keys]
    elif isinstance(stated, list) and isinstance(want, list):
        entries = itertools.zip_longest(stated, want, fillvalue=_ABSENT)
        subs = [(f"{path}[{_label(w if w is not _ABSENT else s, i)}]", s, w)
                for i, (s, w) in enumerate(entries)]
    else:
        if type(stated) is not type(want) or stated != want:
            problems.append(f"{path}: stated {_show(stated)}, expected {_show(want)}")
        return
    for at, s, w in subs:
        _diff(at, s, w, problems)


def verify_certificate(data: Dict, max_a: int = pretzel.DEFAULT_MAX_A) -> Tuple[bool, List[str]]:
    """Rebuild a certificate from its stated witness; (ok, list of problems).

    Reads only `a`, `verdict`, `witness.p` and `witness.d`, `seed`,
    `version` and whether the evidence has `all_failures`, and calls
    `build_certificate` on them, the function `decide` writes with.
    There is no search: an Obstructed certificate is rebuilt from its
    stated witness, which must fail, and an Inconclusive one (or an
    `all_failures` list) walks the canonical pairs.  `certificate_to_json`
    of the result is compared with the stated JSON, and each differing
    path is one problem; a problem inside a list entry names that
    entry's p= and d=.  Every integer must be the decimal string
    `decide` writes.  A 0.1.0 certificate's `oracle_*` keys must be
    null or equal their closed forms (`legacy_oracle_fields`).  No
    polynomial is factored or searched for any certificate version.
    """
    try:
        if not isinstance(data, dict):
            return False, ["a certificate must be a JSON object"]
        a = _as_int(data.get("a"), "a")
        if data.get("verdict") not in (VERDICT_PARITY, VERDICT_SELF_RECIPROCAL,
                                       VERDICT_INCONCLUSIVE):
            return False, [f"unknown verdict {data.get('verdict')!r}"]
        witness = data.get("witness")
        if witness is not None:
            if not isinstance(witness, dict):
                raise ValueError("witness is neither null nor an object")
            p = _as_int(witness.get("p"), "witness.p")
            d = _as_int(witness.get("d"), "witness.d")
            pretzel.validate_member(a, max_a)
            # check_pair rejects a (p, d) that is not a witness pair of a
            witness = WitnessPair(p, d, numth.is_prime(d), "a" if a % d == 0 else "a+2")
        ev = data.get("evidence")
        all_witnesses = isinstance(ev, dict) and "all_failures" in ev
        seed = _as_int(data.get("seed"), "seed")
        cert = build_certificate(a, witness, seed, all_witnesses, max_a)
    except (ValueError, TypeError, ArithmeticError) as e:
        return False, [f"cannot rebuild the certificate: {e}"]
    problems: List[str] = []
    _diff("", data, _expected_json(cert, data), problems)
    return not problems, problems
