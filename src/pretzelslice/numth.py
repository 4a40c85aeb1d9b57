"""Integer number theory and the two closed forms the decision rests on.

Everything here is deterministic.  Primality uses the Miller-Rabin base
set that is exact below 2^64; factoring runs trial division over a small
sieve and finishes with Brent's cycle finder using a fixed parameter
sequence, so the same input always walks the same path.

This module is the bottom of the arithmetic core (`numth`, `pretzel`,
`obstruction`, `cli`), which never imports the polynomial stack
(`poly`, `_kernels`, `factor`, numpy).  So the closed forms about
Phi_d mod p for a pair (d, p) live here, at the end of the module:
the factor count phi(d)/ord_d(p) (`count_irreducible_factors`) and
the self-reciprocal criterion -1 in <p> mod d
(`has_self_reciprocal_factor`).  `cyclotomic`, the oracle module that
answers the same questions by factoring, re-exports both as the same
objects.

The core's records are named tuples, so a cold command never loads the
`inspect`, `ast`, `dis` and `tokenize` modules a dataclass needs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import List, NamedTuple, Optional, Tuple

# Seed recorded in certificates and keying the factorization oracle's
# random splits; only the oracle (`factor`) draws from it.
DEFAULT_SEED = 0

# Witnesses making Miller-Rabin exact for all n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
EXACT_LIMIT = 1 << 64  # is_prime and factorize take n below this

# Trial division by primes below 2^16 fully factors every n < 2^32, which
# covers a(a+2) for a below 65535; Brent's method finishes larger inputs.
_TRIAL_BOUND = 1 << 16
_small_primes: List[int] = []


def _sieve() -> List[int]:
    global _small_primes
    if not _small_primes:
        half = _TRIAL_BOUND // 2
        flags = bytearray([1]) * half  # flags[k] stands for 2k + 1: odd numbers only
        flags[0] = 0  # 1 is not prime
        for k in range(1, (math.isqrt(_TRIAL_BOUND) + 1) // 2):
            if flags[k]:
                i = 2 * k + 1
                flags[i * i // 2 :: i] = bytes(len(range(i * i // 2, half, i)))
        _small_primes = [2, *itertools.compress(range(1, _TRIAL_BOUND, 2), flags)]
    return _small_primes


@functools.lru_cache(maxsize=1024)  # bounded memo: every CyclotomicQuery re-tests p
def is_prime(n: int) -> bool:
    """Deterministic primality for 1 <= n < 2^64.

    >>> [k for k in range(2, 20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    n = operator.index(n)  # on a memo miss only: the hit path stays bare
    if n < 1:
        raise ValueError("is_prime wants a positive integer")
    if n >= EXACT_LIMIT:
        raise ValueError("is_prime is exact only below 2^64")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Factorization(tuple):
    """The sorted (prime, exponent) pairs, as a tuple, with product the input."""

    __slots__ = ()

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        out = 1
        for q, e in self:
            out *= q**e
        return out

    @property
    def primes(self) -> Tuple[int, ...]:
        return tuple(q for q, _ in self)

    def __repr__(self) -> str:
        return f"Factorization(pairs={tuple(self)!r})"


def _brent(n: int) -> int:
    """A nontrivial factor of composite n, deterministic parameter walk."""
    if n % 2 == 0:
        return 2
    for offset in range(1, 64):
        y, m = 2 + offset, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + offset) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + offset) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + offset) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"factor search exhausted for {n}")  # pragma: no cover


# bounded memo: the closed forms of one (d, p) factor d and ord_d(p) repeatedly
@functools.lru_cache(maxsize=1024)
def factorize(n: int) -> Factorization:
    """Full prime factorization of n >= 1.

    Trial division walks the sieve primes q ascending, dividing each
    out of the cofactor m, and stops at the first q with q*q > m.
    Then m is 1 or prime, so it is recorded without a primality test.
    Proof: every prime below q has been divided out of m, so each
    prime factor of m is at least q.  A composite m would have two of
    them, so m >= q*q, a contradiction.  Only when the sieve runs out
    (every q up to 65521 has q*q <= m, so n >= 65521^2, close to 2^32)
    may the cofactor be composite; `is_prime` and Brent's method
    finish it.

    >>> factorize(63).pairs
    ((3, 2), (7, 1))
    """
    n = operator.index(n)  # as in is_prime
    if n < 1:
        raise ValueError("factorize wants a positive integer")
    if n >= EXACT_LIMIT:
        raise ValueError("factorize is limited to n < 2^64")
    found = {}
    stack = []
    for q in _sieve():
        if q * q > n:
            break
        while n % q == 0:
            found[q] = found.get(q, 0) + 1
            n //= q
    else:
        stack, n = [n], 1  # the sieve ran out: the cofactor may be composite
    if n > 1:
        found[n] = 1  # prime, by the exit proof above
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _brent(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(sorted(found.items()))


def totient(f: Factorization) -> int:
    """Euler's totient from a factorization."""
    out = 1
    for q, e in f:
        out *= (q - 1) * q ** (e - 1)
    return out


def divisors(f: Factorization) -> List[int]:
    """All positive divisors, ascending."""
    out = [1]
    for q, e in f:
        out = [d * q**k for d in out for k in range(e + 1)]
    return sorted(out)


def mult_order(p: int, d: int) -> int:
    """Multiplicative order of p modulo d (d >= 2, gcd(p, d) = 1).

    Starts from the group order phi(d) and strips prime factors while
    the power stays 1, so the cost is a handful of modular powers.

    >>> mult_order(2, 7)
    3
    """
    if d < 2:
        raise ValueError("order needs a modulus >= 2")
    p %= d
    if math.gcd(p, d) != 1:
        raise ValueError(f"{p} is not a unit modulo {d}")
    order = totient(factorize(d))
    for q, _ in factorize(order):
        while order % q == 0 and pow(p, order // q, d) == 1:
            order //= q
    return order


def _require_odd_prime(d: int):
    if d < 3 or d % 2 == 0 or not is_prime(d):
        raise ValueError(f"Legendre symbol needs an odd prime modulus, got {d}")


def legendre(n: int, d: int) -> int:
    """Legendre symbol (n/d) by Euler's criterion; d an odd prime.

    >>> [legendre(n, 7) for n in range(7)]
    [0, 1, 1, -1, 1, -1, -1]
    """
    _require_odd_prime(d)
    n %= d
    if n == 0:
        return 0
    r = pow(n, (d - 1) // 2, d)
    return 1 if r == 1 else -1


class Valuation(NamedTuple):
    """n = q**v * u with q not dividing u; u keeps the sign of n."""

    v: int
    u: int


def valuation(n: int, q: int) -> Valuation:
    """q-adic valuation and q-free part of a nonzero integer.

    >>> valuation(36, 2)
    Valuation(v=2, u=9)
    """
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if q < 2 or not is_prime(q):
        raise ValueError(f"valuation needs a prime base, got {q}")
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return Valuation(v, n)


# ---------------------------------------------------------------------------
# closed forms for Phi_d mod p


class _CyclotomicQueryFields(NamedTuple):
    d: int
    p: int


class CyclotomicQuery(_CyclotomicQueryFields):
    """A pair (d, p): which cyclotomic, reduced mod which prime."""

    __slots__ = ()

    # unpickling calls __new__ too; _make and _replace skip it, so nothing calls them
    def __new__(cls, d: int, p: int):
        if d < 2:
            raise ValueError("need d >= 2")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if math.gcd(p, d) != 1:
            raise ValueError(f"p = {p} divides d = {d}")
        return super().__new__(cls, d, p)

    @property
    def d_is_prime(self) -> bool:
        return is_prime(self.d)


class FactorCountReport(NamedTuple):
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


# bounded memo: building a certificate asks about each (d, p) repeatedly;
# typed, as a query equals the plain tuple of its fields, which must miss
@functools.lru_cache(maxsize=512, typed=True)
def count_irreducible_factors(q: CyclotomicQuery) -> FactorCountReport:
    """Closed-form factor count of the reduced cyclotomic: phi(d)/ord_d(p).

    >>> count_irreducible_factors(CyclotomicQuery(7, 2))
    FactorCountReport(d=7, p=2, count=2, degree_each=3, parity='even', legendre_check=1)
    >>> count_irreducible_factors(CyclotomicQuery(3, 2)).parity
    'odd'
    """
    phi = totient(factorize(q.d))
    order = mult_order(q.p, q.d)
    if phi % order:  # pragma: no cover
        raise ArithmeticError("order does not divide the group order")
    count = phi // order
    parity = "even" if count % 2 == 0 else "odd"
    check = None
    if q.d != 2 and q.d_is_prime:
        check = legendre(q.p, q.d)
        if (check == 1) != (parity == "even"):  # pragma: no cover
            raise ArithmeticError(f"parity/residue mismatch for {q}")
    return FactorCountReport(q.d, q.p, count, order, parity, check)


class SelfReciprocalReport(NamedTuple):
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


@functools.lru_cache(maxsize=512, typed=True)  # bounded and typed, as above
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
    order = mult_order(q.p, q.d)
    w = order // 2 if order % 2 == 0 else None
    exists = w is not None and pow(q.p, w, q.d) == q.d - 1
    if not exists:
        w = None
    u = valuation(totient(factorize(q.d)), 2).u
    power_at_u = pow(q.p, u, q.d)
    odd_part_route = power_at_u != 1
    agree = exists == odd_part_route
    if q.d_is_prime and not agree:  # pragma: no cover
        raise ArithmeticError(f"equivalent criteria disagree for {q}")
    return SelfReciprocalReport(
        q.d, q.p, exists, order, w, u, power_at_u, odd_part_route, agree
    )
