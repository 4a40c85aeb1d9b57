"""Integer number theory: primality, factoring, orders, Legendre symbols.

Everything here is deterministic.  Primality uses the Miller-Rabin base
set that is exact below 2^64; factoring runs trial division over a small
sieve and finishes with Brent's cycle finder using a fixed parameter
sequence, so the same input always walks the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

# Witnesses making Miller-Rabin exact for all n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_LIMIT = 1 << 64

# Trial division by primes below 2^16 fully factors every n < 2^32, which
# covers a(a+2) for a below 65535; Brent's method finishes larger inputs.
_TRIAL_BOUND = 1 << 16
_small_primes: List[int] = []


def _sieve() -> List[int]:
    global _small_primes
    if not _small_primes:
        flags = bytearray([1]) * _TRIAL_BOUND
        flags[0:2] = b"\x00\x00"
        for i in range(2, int(_TRIAL_BOUND**0.5) + 1):
            if flags[i]:
                flags[i * i :: i] = b"\x00" * len(range(i * i, _TRIAL_BOUND, i))
        _small_primes = [i for i in range(_TRIAL_BOUND) if flags[i]]
    return _small_primes


def is_prime(n: int) -> bool:
    """Deterministic primality for 1 <= n < 2^64.

    >>> [k for k in range(2, 20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 1:
        raise ValueError("is_prime wants a positive integer")
    if n >= _LIMIT:
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


@dataclass(frozen=True)
class Factorization:
    """Sorted (prime, exponent) pairs with product equal to the input."""

    pairs: Tuple[Tuple[int, int], ...]

    @property
    def n(self) -> int:
        out = 1
        for q, e in self.pairs:
            out *= q**e
        return out

    @property
    def primes(self) -> Tuple[int, ...]:
        return tuple(q for q, _ in self.pairs)

    def __iter__(self):
        return iter(self.pairs)


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


def factorize(n: int) -> Factorization:
    """Full prime factorization of n >= 1.

    >>> factorize(63).pairs
    ((3, 2), (7, 1))
    """
    if n < 1:
        raise ValueError("factorize wants a positive integer")
    if n >= _LIMIT:
        raise ValueError("factorize is limited to n < 2^64")
    found = {}
    for q in _sieve():
        if q * q > n:
            break
        while n % q == 0:
            found[q] = found.get(q, 0) + 1
            n //= q
    stack = [n] if n > 1 else []
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
    return Factorization(tuple(sorted(found.items())))


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


def legendre_reciprocity(n: int, d: int) -> int:
    """Legendre symbol (n/d) evaluated by the classical reduction rules.

    Periodicity, multiplicativity, the supplements for -1 and 2, and
    quadratic reciprocity for odd prime entries; the numerator is
    factored so reciprocity is only ever applied to primes.  Kept as an
    independent route that must agree with :func:`legendre` everywhere.
    """
    _require_odd_prime(d)
    n %= d
    if n == 0:
        return 0
    if n == 1:
        return 1
    sign = 1
    while n % 2 == 0:
        n //= 2
        if d % 8 in (3, 5):
            sign = -sign
    if n == 1:
        return sign
    for q, e in factorize(n):
        if e % 2 == 0:
            continue
        if q == d:
            return 0
        flip = -1 if (q % 4 == 3 and d % 4 == 3) else 1
        sign *= flip * legendre_reciprocity(d % q, q)
    return sign


@dataclass(frozen=True)
class Valuation:
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


def lifted_residue_is_one(n: int, d: int, l: int) -> bool:
    """Whether n^(d^(l-1)) is 1 modulo d^l, for n = 1 (mod d), d prime.

    This is the congruence-lifting step used when a self-reciprocal
    witness is pushed down from a prime power to the prime itself.
    """
    if l < 1:
        raise ValueError("exponent level l must be >= 1")
    if not is_prime(d):
        raise ValueError(f"{d} is not prime")
    if n % d != 1:
        raise ValueError(f"{n} is not 1 modulo {d}")
    return pow(n, d ** (l - 1), d**l) == 1
