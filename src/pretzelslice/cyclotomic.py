"""Cyclotomic polynomials and the two factor criteria used by the pipeline.

For a prime p not dividing d, the reduction of the d-th cyclotomic
polynomial mod p splits into phi(d)/ord_d(p) distinct irreducible
factors, all of degree ord_d(p).  Two questions about that splitting
drive everything downstream:

* is the factor count even?  (for odd prime d this is exactly whether p
  is a quadratic residue mod d)
* does some irreducible factor coincide with its own reversal?  (for
  every d >= 3 this is exactly whether -1 is a power of p mod d; the
  proof is in `has_self_reciprocal_factor`)

Both are answered here by closed-form arithmetic, for prime and
composite d alike.  The oracle routes at the bottom answer the same
questions by actually factoring; they serve tests and `inspect`, and
neither the decision pipeline nor certificate verification calls them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import factor as _factor
from . import numth
from .poly import IntPoly, ModPoly, reduce_mod

_MEMO: Dict[int, IntPoly] = {}


def _subst_pow(f: IntPoly, k: int) -> IntPoly:
    """f(t^k)."""
    if k == 1:
        return f
    out = [0] * (f.degree * k + 1)
    for i, c in enumerate(f.coeffs):
        out[i * k] = c
    return IntPoly(out)


def cyclotomic_poly(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial over the integers, memoized.

    Built on the radical: peeling one prime q at a time via
    C_{mq}(t) = C_m(t^q) / C_m(t) for q not dividing m, then
    substituting t^(d/rad(d)).  Divisions here are exact and the
    divisor stays small, which keeps large composite d cheap.

    >>> str(cyclotomic_poly(1)), str(cyclotomic_poly(2))
    ('-1 + t', '1 + t')
    >>> str(cyclotomic_poly(6))
    '1 - t + t^2'
    >>> cyclotomic_poly(7)
    IntPoly((1, 1, 1, 1, 1, 1, 1))
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    got = _MEMO.get(d)
    if got is not None:
        return got
    f = IntPoly((-1, 1))
    rad = 1
    for q in numth.factorize(d).primes:
        f = _subst_pow(f, q).exact_div(f)
        rad *= q
    f = _subst_pow(f, d // rad)
    _MEMO[d] = f
    return f


def _cyclotomic_by_division(d: int) -> IntPoly:
    # the textbook recursion; kept as a cross-check for the fast route
    num = IntPoly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            num = num.exact_div(_cyclotomic_by_division(e))
    return num


@dataclass(frozen=True)
class CyclotomicQuery:
    """A pair (d, p): which cyclotomic, reduced mod which prime."""

    d: int
    p: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("need d >= 2")
        if not numth.is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if math.gcd(self.p, self.d) != 1:
            raise ValueError(f"p = {self.p} divides d = {self.d}")

    @property
    def d_is_prime(self) -> bool:
        return numth.is_prime(self.d)


def reduced(q: CyclotomicQuery) -> ModPoly:
    """The mod-p reduction of the d-th cyclotomic polynomial, monic."""
    return reduce_mod(cyclotomic_poly(q.d), q.p)


@dataclass(frozen=True)
class FactorCountReport:
    """Count and shape of the irreducible factors of a reduced cyclotomic.

    count * degree_each = phi(d); all factors share degree ord_d(p).
    legendre_check is filled for odd prime d, where evenness of the
    count is equivalent to p being a quadratic residue mod d.
    """

    d: int
    p: int
    count: int
    degree_each: int
    parity: str
    legendre_check: Optional[int]


# bounded memo: building a certificate asks about each (d, p) repeatedly
@functools.lru_cache(maxsize=512)
def count_irreducible_factors(q: CyclotomicQuery) -> FactorCountReport:
    """Closed-form factor count of the reduced cyclotomic: phi(d)/ord_d(p).

    >>> count_irreducible_factors(CyclotomicQuery(7, 2))
    FactorCountReport(d=7, p=2, count=2, degree_each=3, parity='even', legendre_check=1)
    >>> count_irreducible_factors(CyclotomicQuery(3, 2)).parity
    'odd'
    """
    phi = numth.totient(numth.factorize(q.d))
    order = numth.mult_order(q.p, q.d)
    if phi % order:  # pragma: no cover
        raise ArithmeticError("order does not divide the group order")
    count = phi // order
    parity = "even" if count % 2 == 0 else "odd"
    check = None
    if q.d != 2 and q.d_is_prime:
        check = numth.legendre(q.p, q.d)
        if (check == 1) != (parity == "even"):  # pragma: no cover
            raise ArithmeticError(f"parity/residue mismatch for {q}")
    return FactorCountReport(q.d, q.p, count, order, parity, check)


def parity_via_legendre(p: int, d: int) -> str:
    """Parity of the factor count straight from the Legendre symbol.

    Only meaningful for odd prime d distinct from p.

    >>> parity_via_legendre(2, 7), parity_via_legendre(2, 3), parity_via_legendre(3, 5)
    ('even', 'odd', 'odd')
    """
    if not numth.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == d:
        raise ValueError("p and d must be distinct")
    return "even" if numth.legendre(p, d) == 1 else "odd"


@dataclass(frozen=True)
class SelfReciprocalReport:
    """Evidence for/against a self-reciprocal irreducible factor.

    exists is decided by whether -1 lies in the powers of p mod d,
    witnessed by w = ord/2 with p^w = -1 when it does (proved for every
    d >= 3 in `has_self_reciprocal_factor`).  The companion route
    checks p^u mod d for u the odd part of phi(d).  For prime d the two
    agree (and this is asserted); for composite d the unit group need
    not be cyclic and the odd-part route is only recorded.
    """

    d: int
    p: int
    exists: bool
    order: int
    w: Optional[int]
    u_odd_part: int
    power_at_u: int
    odd_part_route: bool
    routes_agree: Optional[bool]


@functools.lru_cache(maxsize=512)  # bounded memo, as above
def has_self_reciprocal_factor(q: CyclotomicQuery) -> SelfReciprocalReport:
    """Does the reduced cyclotomic have a self-reciprocal irreducible factor?

    Yes iff -1 is a power of p mod d, for every d >= 3 with p not
    dividing d.  Proof: Phi_d is separable mod p and its roots in an
    extension of F_p are the primitive d-th roots of unity z^x, x in
    (Z/d)^*.  Frobenius maps z^x to z^(px), so the irreducible factors
    correspond to the cosets x<p> of <p> in (Z/d)^*, each of degree
    ord_d(p) (whence the count phi(d)/ord_d(p)).  Reversal sends a
    factor's roots to their inverses, that is the coset x<p> to
    -x<p>.  A factor is self-reciprocal iff -x<p> = x<p>, iff -1 lies
    in <p>; this does not depend on x, so one factor is
    self-reciprocal iff all are.  Since d >= 3, -1 != 1 mod d and
    -1 lies in <p> iff ord_d(p) = 2w is even with p^w = -1 mod d (the
    unique element of order 2 in a cyclic group).

    >>> has_self_reciprocal_factor(CyclotomicQuery(3, 2)).exists
    True
    >>> has_self_reciprocal_factor(CyclotomicQuery(7, 2)).exists
    False
    >>> r = has_self_reciprocal_factor(CyclotomicQuery(9, 2))
    >>> r.exists, r.w
    (True, 3)
    """
    if q.d < 3:
        raise ValueError("criterion needs d >= 3")
    order = numth.mult_order(q.p, q.d)
    w = order // 2 if order % 2 == 0 else None
    exists = w is not None and pow(q.p, w, q.d) == q.d - 1
    if not exists:
        w = None
    u = numth.valuation(numth.totient(numth.factorize(q.d)), 2).u
    power_at_u = pow(q.p, u, q.d)
    odd_part_route = power_at_u != 1
    agree = exists == odd_part_route
    if q.d_is_prime and not agree:  # pragma: no cover
        raise ArithmeticError(f"equivalent criteria disagree for {q}")
    return SelfReciprocalReport(
        q.d, q.p, exists, order, w, u, power_at_u, odd_part_route, agree
    )


# ---------------------------------------------------------------------------
# oracle routes: answer the same questions by actually factoring

_ORACLE_MEMO: Dict[Tuple[int, int, int], _factor.FactorMultiset] = {}
_SEARCH_MEMO: Dict[Tuple[int, int, int, int], _factor.SelfReciprocalSearch] = {}


def factor_cyclotomic_oracle(
    q: CyclotomicQuery, seed: int = _factor.DEFAULT_SEED
) -> _factor.FactorMultiset:
    """Complete factorization of the reduced cyclotomic, fully verified.

    All multiplicities must be 1 and all degrees must equal ord_d(p);
    violations raise, since they would falsify the closed-form counts
    this oracle exists to confirm.
    """
    key = (q.d, q.p, seed)
    got = _ORACLE_MEMO.get(key)
    if got is not None:
        return got
    ms = _factor.factor_cyclic(reduced(q), q.d, seed)
    order = numth.mult_order(q.p, q.d)
    if any(m != 1 or g.degree != order for g, m in ms):  # pragma: no cover
        raise ArithmeticError(f"unexpected factor shape for {q}")
    _ORACLE_MEMO[key] = ms
    return ms


def factor_count_oracle(q: CyclotomicQuery) -> int:
    """Number of irreducible factors, from distinct-degree splitting only.

    Cheaper than full factorization (no equal-degree stage); the count
    of a degree-k class is its degree divided by k.
    """
    f = reduced(q)
    total = 0
    for piece, k in _factor.distinct_degree_cyclic(f, q.d):
        if piece.degree % k:  # pragma: no cover
            raise ArithmeticError("ragged degree class")
        total += piece.degree // k
    return total


def self_reciprocal_factor_oracle(
    q: CyclotomicQuery,
    seed: int = _factor.DEFAULT_SEED,
    exhibit_cap: int = _factor.ORACLE_FULL_CAP,
) -> _factor.SelfReciprocalSearch:
    """Search the actual factorization machinery for a palindromic factor.

    Returns the existence certificate (a nontrivial gcd with t^g - 1
    for g dividing p^m + 1) and, when extraction is affordable, an
    explicit irreducible self-reciprocal factor.
    """
    key = (q.d, q.p, seed, exhibit_cap)
    got = _SEARCH_MEMO.get(key)
    if got is not None:
        return got
    out = _factor.self_reciprocal_search(reduced(q), q.d, seed, exhibit_cap)
    _SEARCH_MEMO[key] = out
    return out
