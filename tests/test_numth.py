"""Primality, factorization, orders, Legendre symbols, valuations."""

import math
import random

import numpy as np
import pytest

from pretzelslice import numth


def _trial_is_prime(n):
    if n < 2:
        return False
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return False
    return True


def legendre_reciprocity(n: int, d: int) -> int:
    """Legendre symbol (n/d) evaluated by the classical reduction rules.

    Periodicity, multiplicativity, the supplements for -1 and 2, and
    quadratic reciprocity for odd prime entries; the numerator is
    factored so reciprocity is only ever applied to primes.  A reference
    route that must agree with `numth.legendre` everywhere.
    """
    if d < 3 or not _trial_is_prime(d):
        raise ValueError(f"Legendre symbol needs an odd prime modulus, got {d}")
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
    for q, e in numth.factorize(n):
        if e % 2 == 0:
            continue
        if q == d:
            return 0
        flip = -1 if (q % 4 == 3 and d % 4 == 3) else 1
        sign *= flip * legendre_reciprocity(d % q, q)
    return sign


def test_is_prime_examples():
    assert numth.is_prime(2)
    assert not numth.is_prime(1081)  # 23 * 47
    assert not numth.is_prime(1)
    assert numth.is_prime(541)


def test_is_prime_agrees_with_trial_division():
    for n in range(1, 2000):
        assert numth.is_prime(n) == _trial_is_prime(n), n


def test_is_prime_large_words():
    assert numth.is_prime((1 << 61) - 1)  # Mersenne
    assert not numth.is_prime((1 << 61) - 3)


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        numth.is_prime(1 << 64)


def test_is_prime_and_factorize_take_integers_only():
    # an integral float used to pass: factorize(12.0) gave the factor 3.0
    numth.is_prime.cache_clear()
    numth.factorize.cache_clear()
    for n in (7.0, 12.0, 7.5, "7"):
        for call in (numth.is_prime, numth.factorize):
            with pytest.raises(TypeError):
                call(n)
    # also once the integer itself is memoized
    assert numth.is_prime(7) and numth.factorize(12).pairs == ((2, 2), (3, 1))
    with pytest.raises(TypeError):
        numth.is_prime(7.0)
    with pytest.raises(TypeError):
        numth.factorize(12.0)
    # anything with __index__ is an integer, and is read as one
    assert numth.is_prime(np.int64(10007)) and numth.is_prime(True) is False
    got = numth.factorize(np.int64(1000014))
    assert got.pairs == numth.factorize(1000014).pairs
    assert all(type(q) is int for q in got.primes)


def test_factorize_examples():
    assert numth.factorize(12).pairs == ((2, 2), (3, 1))
    assert numth.factorize(1081).pairs == ((23, 1), (47, 1))
    assert numth.factorize(63).pairs == ((3, 2), (7, 1))
    assert numth.factorize(1).pairs == ()


def test_factorize_reconstructs_random_inputs():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 10**9)
        f = numth.factorize(n)
        assert f.n == n
        assert all(numth.is_prime(q) for q, _ in f.pairs)
        assert list(f.primes) == sorted(f.primes)


def test_factorize_beyond_the_trial_bound():
    # both primes exceed the trial-division bound, so Brent's method splits n
    assert 65537 > numth._TRIAL_BOUND
    n = 65537 * 1000003
    assert numth.factorize(n).pairs == ((65537, 1), (1000003, 1))
    assert numth.factorize(n * 65537 * 3).pairs == ((3, 1), (65537, 2), (1000003, 1))


def _naive_factorize(n):
    pairs, q = [], 2
    while q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            pairs.append((q, e))
        q += 1
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def test_factorize_matches_a_naive_reference_below_2_17(monkeypatch):
    # smallest-prime-factor table as the reference; trial division ends
    # without a primality test (the exit proof in `factorize`), so
    # is_prime is never reached below 65521^2
    limit = 1 << 17
    spf = list(range(limit))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit, i):
                if spf[j] == j:
                    spf[j] = i

    def no_test(n):
        raise AssertionError(f"is_prime({n}) called")

    numth.factorize.cache_clear()
    monkeypatch.setattr(numth, "is_prime", no_test)
    for n in range(1, limit):
        want, m = {}, n
        while m > 1:
            want[spf[m]] = want.get(spf[m], 0) + 1
            m //= spf[m]
        assert numth.factorize(n).pairs == tuple(sorted(want.items())), n


def test_factorize_where_the_sieve_runs_out():
    # 65521 is the last sieve prime: at 65521^2 trial division ends on
    # the sieve's last prime, and past it the cofactor goes to Brent
    assert numth._sieve()[-1] == 65521
    small = [q for q in range(3, 60) if numth.is_prime(q)]
    cases = [65521**2, 65521 * 65537, 65521**2 - 2, 65521**2 + 2, 65537**2, 65537 * 65539]
    cases += [(1 << 32) + s * q for q in small for s in (-1, 1)]
    numth.factorize.cache_clear()
    for n in cases:
        assert numth.factorize(n).pairs == _naive_factorize(n), n


def test_totient_and_divisors():
    assert numth.totient(numth.factorize(1)) == 1
    assert numth.totient(numth.factorize(63)) == 36
    assert numth.totient(numth.factorize(97)) == 96
    assert numth.divisors(numth.factorize(63)) == [1, 3, 7, 9, 21, 63]
    assert numth.divisors(numth.factorize(49)) == [1, 7, 49]


def test_totient_by_counting():
    for n in range(1, 200):
        direct = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert numth.totient(numth.factorize(n)) == direct


def test_mult_order_examples():
    assert numth.mult_order(2, 7) == 3
    assert numth.mult_order(2, 17) == 8
    assert numth.mult_order(2, 3) == 2
    assert numth.mult_order(3, 73) == 12


def test_mult_order_divides_totient_and_is_minimal():
    rng = random.Random(22)
    for _ in range(200):
        d = rng.randint(2, 3000)
        p = rng.randint(2, 10**6)
        if math.gcd(p, d) != 1:
            continue
        r = numth.mult_order(p, d)
        phi = numth.totient(numth.factorize(d))
        assert phi % r == 0
        assert pow(p, r, d) == 1
        # minimality: no proper divisor of r works
        for q in {q for q, _ in numth.factorize(r).pairs}:
            assert pow(p, r // q, d) != 1


def test_mult_order_rejects_shared_factor():
    with pytest.raises(ValueError):
        numth.mult_order(6, 9)


def test_legendre_examples():
    assert numth.legendre(2, 7) == 1
    assert numth.legendre(2, 11) == -1  # squares mod 11: 1,3,4,5,9
    assert numth.legendre(7, 13) == -1
    assert numth.legendre(14, 7) == 0


def test_legendre_matches_square_enumeration():
    for d in (3, 5, 7, 11, 13, 17, 19, 23):
        squares = {(x * x) % d for x in range(1, d)}
        for n in range(0, 3 * d):
            want = 0 if n % d == 0 else (1 if n % d in squares else -1)
            assert numth.legendre(n, d) == want


def test_legendre_euler_and_reciprocity_routes_agree():
    rng = random.Random(23)
    odd_primes = [d for d in range(3, 5000, 2) if numth.is_prime(d)]
    for _ in range(400):
        d = rng.choice(odd_primes)
        n = rng.randint(0, 10**7)
        assert numth.legendre(n, d) == legendre_reciprocity(n, d)


def test_legendre_is_multiplicative_and_periodic():
    rng = random.Random(24)
    for _ in range(300):
        d = rng.choice([3, 5, 7, 11, 13, 101, 997])
        m, n = rng.randint(0, 10**6), rng.randint(0, 10**6)
        assert numth.legendre(m * n, d) == numth.legendre(m, d) * numth.legendre(n, d)
        assert numth.legendre(m + d, d) == numth.legendre(m, d)


def test_legendre_rejects_non_prime_modulus():
    with pytest.raises(ValueError):
        numth.legendre(2, 9)
    with pytest.raises(ValueError):
        numth.legendre(2, 2)


def test_valuation():
    v = numth.valuation(36, 2)
    assert (v.v, v.u) == (2, 9)
    v = numth.valuation(120, 2)
    assert (v.v, v.u) == (3, 15)
    assert numth.valuation(7, 3) == numth.Valuation(0, 7)


def test_valuation_reconstructs():
    rng = random.Random(25)
    for _ in range(200):
        n = rng.randint(1, 10**9)
        q = rng.choice([2, 3, 5, 7])
        val = numth.valuation(n, q)
        assert q**val.v * val.u == n
        assert val.u % q != 0


def test_valuation_errors():
    with pytest.raises(ValueError):
        numth.valuation(0, 2)
    with pytest.raises(ValueError):
        numth.valuation(12, 4)


def test_lifted_residue_lifting_property():
    # if n = 1 mod d then n^(d^(l-1)) = 1 mod d^l: the congruence always lifts
    rng = random.Random(27)
    for _ in range(200):
        d = rng.choice([3, 5, 7, 11])
        l = rng.randint(1, 4)
        n = 1 + d * rng.randint(0, 10**4)
        assert pow(n, d ** (l - 1), d**l) == 1
