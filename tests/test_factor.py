"""Factorization engine: squarefree split, CZ, cyclic fast paths."""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

import pretzelslice.factor as factor_mod
from pretzelslice import _kernels as _k
from pretzelslice import numth, poly
from pretzelslice.cyclotomic import CyclotomicQuery, reduced
from pretzelslice.factor import (
    CounterRng,
    FactorMultiset,
    distinct_degree,
    distinct_degree_cyclic,
    equal_degree_split,
    factor,
    factor_cyclic,
    is_irreducible,
    is_irreducible_cyclic,
    self_reciprocal_search,
    squarefree_decomposition,
)
from pretzelslice.poly import ModPoly


def _random_poly(rng, p, max_deg, monic=False):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randrange(p) for _ in range(deg)] + [1 if monic else rng.randrange(1, p)]
    return ModPoly(p, coeffs)


def _naive_factor(f):
    """Trial division over all monic polynomials by increasing degree."""
    p = f.p
    scalar = f.coeffs[-1]
    f = f.monic()
    out = []
    deg = 1
    while f.degree >= 2 * deg:
        found = False
        for tail in itertools.product(range(p), repeat=deg):
            g = ModPoly(p, list(tail) + [1])
            q, r = f.divrem(g)
            if r.is_zero():
                m, f = 1, q
                while True:
                    q, r = f.divrem(g)
                    if not r.is_zero():
                        break
                    f, m = q, m + 1
                out.append((g, m))
                found = True
                break
        if not found:
            deg += 1
    if f.degree > 0:
        out.append((f, 1))
    return scalar, sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))


def test_counter_rng_is_deterministic_and_seed_sensitive():
    a = CounterRng(1, b"tag")
    b = CounterRng(1, b"tag")
    c = CounterRng(2, b"tag")
    xs = [a.randbelow(1000) for _ in range(20)]
    assert xs == [b.randbelow(1000) for _ in range(20)]
    assert xs != [c.randbelow(1000) for _ in range(20)]
    assert all(0 <= x < 7 for x in CounterRng(0, b"t").coeffs(50, 7))


@pytest.mark.parametrize("p", [2, 3, 97, 251, 257, 65521])
def test_counter_rng_batched_coeffs_are_the_randbelow_stream(p):
    # draws of 2 bytes (p < 256) and 3 bytes (256 <= p < 65536); the counts
    # and the 5-byte draw before them put the 64-byte block refills at
    # every offset within a batch
    nbytes = (p.bit_length() + 7) // 8 + 1
    per_block = 64 // nbytes
    for count in (0, 1, per_block - 1, per_block, per_block + 1, 64, 65, 500, 1000):
        for lead in (False, True):
            batch = CounterRng(3, "stream", p, count)
            single = CounterRng(3, "stream", p, count)
            if lead:
                assert batch.randbelow(2**32) == single.randbelow(2**32)
            assert batch.coeffs(count, p) == [single.randbelow(p) for _ in range(count)]
            assert batch.randbelow(p) == single.randbelow(p)
            assert batch.randbelow(10**30) == single.randbelow(10**30)


def test_counter_rng_batched_coeffs_reject_as_randbelow_does():
    # 65536 mod 251 = 25, so about one 2-byte chunk in 2600 is rejected;
    # a 20000-draw batch must skip exactly the chunks randbelow skips
    p, count = 251, 20000
    batch, single = CounterRng(9, "reject"), CounterRng(9, "reject")
    assert batch.coeffs(count, p) == [single.randbelow(p) for _ in range(count)]
    consumed = 64 * single._counter - len(single._buf)
    assert consumed > 2 * count  # some chunks were rejected
    assert 64 * batch._counter - len(batch._buf) == consumed
    assert batch.randbelow(p) == single.randbelow(p)


def test_counter_rng_coeffs_past_eight_byte_draws():
    for p in ((1 << 61) - 1, (1 << 89) - 1):
        batch, single = CounterRng(p), CounterRng(p)
        assert batch.coeffs(40, p) == [single.randbelow(p) for _ in range(40)]


def test_counter_rng_coeffs_stream_is_pinned():
    """Every split draws its random elements through `coeffs`, so the draw
    stream fixes which factor a `limit` search exhibits.  Draws of 2, 3, 9
    and 13 bytes, at counts that put the 64-byte block refills at every
    offset and between wider draws, hash to a frozen digest, so any change
    to the stream shows.  At p = 251 about one 2-byte chunk in 2600 is
    rejected, and the rejected chunks are skipped."""
    h = hashlib.sha256()
    for p in (2, 251, 65521, (1 << 61) - 1, (1 << 89) - 1):
        for count in (0, 1, 20, 21, 22, 64, 65, 500):
            rng = CounterRng(3, "stream", p, count)
            draws = (rng.randbelow(2**32), rng.coeffs(count, p), rng.randbelow(10**30))
            assert all(0 <= c < p for c in draws[1])
            h.update(repr((p, count, draws)).encode())
    rng = CounterRng(9, "reject")
    h.update(repr(rng.coeffs(20000, 251)).encode())
    assert 64 * rng._counter - len(rng._buf) > 2 * 20000  # some chunks were rejected
    assert h.hexdigest() == "a0dce6110edafe7876790b98da651494a6c7df2ab1099c9e8b392a39e28becf3"


def test_squarefree_decomposition_separates_multiplicities():
    p = 2
    g = ModPoly(p, [1, 1, 1])
    h = ModPoly(p, [1, 1, 0, 1])
    f = g * g * h
    parts = squarefree_decomposition(f)
    assert parts == [(h, 1), (g, 2)]


def test_squarefree_decomposition_handles_pth_powers():
    # derivative vanishes identically on p-th powers
    p = 3
    g = ModPoly(p, [1, 2, 1, 1])
    f = g * g * g
    parts = squarefree_decomposition(f)
    assert len(parts) == 1
    assert parts[0][1] == 3
    got = ModPoly(p, [1])
    for piece, m in parts:
        for _ in range(m):
            got = got * piece
    assert got == f.monic()


def test_squarefree_decomposition_random_reconstruction():
    rng = random.Random(41)
    for p in (2, 3, 5):
        for _ in range(60):
            f = _random_poly(rng, p, 10)
            parts = squarefree_decomposition(f)
            got = ModPoly(p, [1])
            for g, m in parts:
                assert g.gcd(g.derivative()).degree == 0 or g.derivative().is_zero()
                for _ in range(m):
                    got = got * g
            assert got == f.monic()
            # parts are pairwise coprime
            for (g1, m1), (g2, m2) in itertools.combinations(parts, 2):
                assert g1.gcd(g2).degree == 0


def test_distinct_degree_classes_multiply_back():
    rng = random.Random(42)
    for p in (2, 5):
        for _ in range(40):
            f = _random_poly(rng, p, 9)
            sf = ModPoly(p, [1])
            for g, m in squarefree_decomposition(f):
                sf = sf * g
            classes = distinct_degree(sf)
            got = ModPoly(p, [1])
            for piece, k in classes:
                assert piece.degree % k == 0
                got = got * piece
            assert got == sf.monic()


def test_equal_degree_split_known_class():
    # t^4 + t^3 + t^2 + t + 1 over F_2 is the full degree-4 class of Phi_5
    piece = ModPoly(2, [1, 1, 1, 1, 1])
    ms = equal_degree_split(piece, 4)
    assert [(g, m) for g, m in ms] == [(piece, 1)]
    # x^2+1 over F_5 splits into two linears
    ms = equal_degree_split(ModPoly(5, [1, 0, 1]), 1)
    gs = [g for g, _ in ms]
    assert len(gs) == 2 and all(g.degree == 1 for g in gs)


def test_factor_matches_naive_trial_division():
    rng = random.Random(43)
    for p in (2, 3):
        for _ in range(120):
            f = _random_poly(rng, p, 8)
            scalar, want = _naive_factor(f)
            ms = factor(f)
            assert ms.scalar == scalar
            assert [(g.coeffs, m) for g, m in ms] == [(g.coeffs, m) for g, m in want]


def test_factor_reconstructs_and_certifies():
    rng = random.Random(44)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 13])
        f = _random_poly(rng, p, 14)
        ms = factor(f)
        assert ms.product() == f
        for g, m in ms:
            assert m >= 1
            assert is_irreducible(g)


def test_factor_is_deterministic():
    rng = random.Random(45)
    for _ in range(20):
        f = _random_poly(rng, 5, 16)
        assert factor(f, seed=9) == factor(f, seed=9)


def test_is_irreducible_matches_enumeration():
    # p = 2 through degree 5: compare against sieve by trial division
    p = 2
    for deg in range(1, 6):
        for tail in itertools.product(range(p), repeat=deg):
            f = ModPoly(p, list(tail) + [1])
            has_root_free_divisor = False
            for d in range(1, deg // 2 + 1):
                for dt in itertools.product(range(p), repeat=d):
                    g = ModPoly(p, list(dt) + [1])
                    if g.degree == d and f.divrem(g)[1].is_zero():
                        has_root_free_divisor = True
                        break
                if has_root_free_divisor:
                    break
            assert is_irreducible(f) == (not has_root_free_divisor), f


def test_is_irreducible_rejects_constants():
    with pytest.raises(ValueError):
        is_irreducible(ModPoly(3, [2]))


def _odd_self_reciprocal(f):
    """The Fox-Milnor criterion's offenders: the self-reciprocal
    irreducible factors of f with odd multiplicity (none iff f admits)."""
    return [g for g, m in factor(f) if g.is_self_reciprocal() and m % 2]


def test_fox_milnor_flagship_case():
    f = ModPoly(2, [1, 0, 1, 1, 1, 0, 1])  # the a=3 reduction
    assert [g.coeffs for g in _odd_self_reciprocal(f)] == [(1, 1, 1), (1, 1, 1, 1, 1)]


def test_fox_milnor_even_multiplicities_admit():
    g = ModPoly(2, [1, 1, 1])
    assert [(h, m) for h, m in factor(g * g)] == [(g, 2)] and g.is_self_reciprocal()
    assert not _odd_self_reciprocal(g * g)


def test_fox_milnor_product_with_reversal_admits():
    rng = random.Random(46)
    for p in (2, 3, 5):
        for _ in range(40):
            f = _random_poly(rng, p, 8)
            if f.evaluate(0) == 0:
                continue
            assert not _odd_self_reciprocal((f * f.reverse()).canonical())


CYCLIC_CASES = [(2, 7), (2, 9), (2, 15), (2, 31), (3, 8), (3, 26),
                (5, 12), (5, 33), (7, 10), (13, 36)]


def test_factor_cyclic_agrees_with_generic_route():
    for p, n in CYCLIC_CASES:
        f = ModPoly(p, [p - 1] + [0] * (n - 1) + [1])
        fast = factor_cyclic(f, n)
        slow = factor(f)
        assert fast == slow


def test_factor_cyclic_on_proper_divisors():
    for p, n in ((2, 21), (3, 20), (5, 24)):
        f = ModPoly(p, [p - 1] + [0] * (n - 1) + [1])
        for g, _ in factor(f):
            sub = g
            for h, _ in factor_cyclic(sub, n):
                assert h == g


def test_factor_cyclic_validates_input():
    with pytest.raises(ValueError):
        factor_cyclic(ModPoly(2, [1, 1]), 4)  # p | n
    with pytest.raises(ValueError):
        factor_cyclic(ModPoly(2, [0, 1]), 3)  # vanishes at 0
    with pytest.raises(ValueError):
        factor_cyclic(ModPoly(2, [1, 1, 1]), 5)  # not a divisor


def test_distinct_degree_cyclic_matches_generic():
    for p, n in CYCLIC_CASES:
        f = ModPoly(p, [p - 1] + [0] * (n - 1) + [1])
        fast = {(piece.coeffs, k) for piece, k in distinct_degree_cyclic(f, n)}
        slow = {(piece.coeffs, k) for piece, k in distinct_degree(f.monic())}
        assert fast == slow


def test_is_irreducible_cyclic_agreement():
    rng = random.Random(47)
    for p, n in CYCLIC_CASES:
        f = ModPoly(p, [p - 1] + [0] * (n - 1) + [1])
        for g, _ in factor(f):
            assert is_irreducible_cyclic(g, n)
        # products of two factors are reducible
        fs = [g for g, _ in factor(f)]
        if len(fs) >= 2:
            a, b = rng.sample(fs, 2)
            assert not is_irreducible_cyclic(a * b, n)


def _tn1(p, n):
    return ModPoly(p, [p - 1] + [0] * (n - 1) + [1])


def _prod(polys):
    out = ModPoly(polys[0].p, (1,))
    for g in polys:
        out = out * g
    return out


def test_class_rabin_agrees_with_generic_test_on_single_divisors():
    rng = random.Random(53)
    # p = 1 mod n: t^(p mod n) is t itself, of the degree of a linear piece
    for p, n in CYCLIC_CASES + [(13, 12), (7, 3)]:
        fs = [g for g, _ in factor(_tn1(p, n))]
        picks = fs + [_prod(rng.sample(fs, rng.randint(2, len(fs))))
                      for _ in range(4) if len(fs) >= 2]
        for g in picks:
            got = factor_mod._rabin_cyclic(g, g.degree, n)
            assert got == is_irreducible(g) == is_irreducible_cyclic(g, n), (p, n, g)


def test_class_rabin_accepts_every_class_product():
    cases = [(_tn1(p, n), n) for p, n in CYCLIC_CASES + [(3, 728)]]
    grid = [(d, p) for d in range(3, 501, 2) if numth.is_prime(d)
            for p in range(2, 101) if numth.is_prime(p) and p != d]
    cases += [(reduced(CyclotomicQuery(d, p)), d) for d, p in grid[::97]]
    for f, n in cases:
        for piece, k in distinct_degree_cyclic(f, n):
            assert factor_mod._rabin_cyclic(piece, k, n), (f.p, n, k)
        by_degree = {}
        for g, _ in factor_cyclic(f, n):
            by_degree.setdefault(g.degree, []).append(g)
        for k, gs in by_degree.items():
            assert factor_mod._rabin_cyclic(_prod(gs), k, n), (f.p, n, k)


def _irreducibles(p, n, k):
    """The monic irreducible factors of degree k of t^n - 1 over F_p."""
    return [g for g, _ in factor(_tn1(p, n)) if g.degree == k]


def test_class_rabin_rejects_products_with_roots_of_lower_degree():
    # over F_3, t^728 - 1 (728 = 8 * 7 * 13) has irreducible factors of
    # degrees 1, 2, 3 and 6: three quadratics (from t^8 - 1), four
    # cubics (t^13 - 1) and sextics (Phi_7)
    p, n = 3, 728
    quad, cub, sext = _irreducibles(p, 8, 2), _irreducibles(p, 13, 3), _irreducibles(p, 7, 6)
    assert (len(quad), len(cub), len(sext)) == (3, 4, 1)
    linear = ModPoly(p, (p - 1, 1))
    # q irreducibles of degree 6/q, labelled as the class k = 6: only the
    # gcd for that q sees them
    assert not factor_mod._rabin_cyclic(_prod(quad), 6, n)
    assert not factor_mod._rabin_cyclic(_prod(cub[:2]), 6, n)
    # a class product times one factor of another degree
    p6 = _prod(sext)
    for other in (quad[0], cub[0], linear):
        assert factor_mod._rabin_cyclic(p6, 6, n)
        assert not factor_mod._rabin_cyclic(p6 * other, 6, n), other
    # degree 3 does not divide 2: the first condition fails
    assert not factor_mod._rabin_cyclic(_prod(quad) * cub[0], 2, n)
    assert not factor_mod._rabin_cyclic(p6, 3, n)
    # over F_2, two cubics labelled 6 (q = 2) and a cubic times a
    # sextic labelled 6
    cub2 = _irreducibles(2, 7, 3)
    assert not factor_mod._rabin_cyclic(_prod(cub2), 6, 63)
    assert not factor_mod._rabin_cyclic(_prod(_irreducibles(2, 9, 6)) * cub2[0], 6, 63)


def _fake_split(p, n, change):
    """An `_edf_cyclic` stand-in that returns the true factors of t^n - 1, altered."""
    def fake(pieces, n_, p_, seed, limit=None):
        assert (n_, p_) == (n, p)
        return change([(g, g.degree) for g, _ in factor(_tn1(p, n))])
    return fake


def _merge(degree, count, label):
    """Replace `count` factors of `degree` by their product, labelled `label`."""
    def change(split):
        merged = [g for g, k in split if k == degree][:count]
        rest = [(g, k) for g, k in split if g not in merged]
        return rest + [(_prod(merged), label)]
    return change


@pytest.mark.parametrize("p, n, change, message", [
    # a reducible piece of the class's degree: two cubics as a sextic
    (2, 7, _merge(3, 2, 6), "reducible"),
    # three quadratics as a sextic, caught only by the gcd for q = 3
    (3, 56, _merge(2, 3, 6), "reducible"),
    # a piece of the wrong degree for its class
    (2, 7, _merge(3, 2, 3), "wrong degree"),
    # a factor dropped: every piece is irreducible, the product is short
    (2, 7, lambda split: split[1:], "reconstruct"),
    # a factor repeated
    (3, 56, lambda split: split + split[-1:], "reconstruct"),
])
def test_factor_cyclic_rejects_a_bad_split(p, n, change, message, monkeypatch):
    f = _tn1(p, n)
    assert factor_cyclic(f, n) == factor(f)
    monkeypatch.setattr(factor_mod, "_edf_cyclic", _fake_split(p, n, change))
    with pytest.raises(ArithmeticError, match=message):
        factor_cyclic(f, n)


def test_self_reciprocal_search_matches_factoring_truth():
    for p, n in CYCLIC_CASES:
        f = ModPoly(p, [p - 1] + [0] * (n - 1) + [1])
        # strip the roots at 1 and -1 first; the criterion excludes them
        for root in (1, p - 1):
            g = ModPoly(p, [-root % p, 1])
            while f.divrem(g)[1].is_zero():
                f = f.divrem(g)[0]
        if f.degree == 0:
            continue
        truth = any(g.is_self_reciprocal() for g, _ in factor(f))
        got = self_reciprocal_search(f, n)
        assert got.exists == truth
        if got.exists:
            assert got.factor is not None
            assert got.factor.is_self_reciprocal()
            assert f.divrem(got.factor)[1].is_zero()
            assert is_irreducible(got.factor)


def test_self_reciprocal_search_rejects_unit_roots():
    with pytest.raises(ValueError):
        self_reciprocal_search(ModPoly(2, [1, 1]), 3)


def test_multiset_equality_is_order_insensitive():
    f = ModPoly(2, [1, 0, 1, 1, 1, 0, 1])
    ms = factor(f)
    rebuilt = FactorMultiset(ms.p, ms.scalar, tuple(ms.factors))
    assert rebuilt == ms


def test_kernel_results_wrapped_unvalidated_are_reduced_and_trimmed(monkeypatch):
    """`ModPoly._of` skips validation; every result it wraps must already be valid.

    Runs the cyclotomic oracle on every 8th (d, p) of the acceptance grid
    (d an odd prime <= 500, p a prime <= 100) plus the generic factorizer,
    with `_of` checking its own contract on each call.
    """
    orig = ModPoly._of
    calls = []

    def checked(cls, p, cs):
        cs = list(cs)
        assert p in poly._checked_moduli, p
        assert all(0 <= c < p for c in cs), (p, cs)
        assert not cs or cs[-1] != 0, (p, cs)
        calls.append(len(cs))
        return orig(p, cs)

    monkeypatch.setattr(ModPoly, "_of", classmethod(checked))
    grid = [(d, p) for d in range(3, 501, 2) if numth.is_prime(d)
            for p in range(2, 101) if numth.is_prime(p) and p != d]
    for d, p in grid[::8]:
        f = reduced(CyclotomicQuery(d, p))
        ms = factor_cyclic(f, d, seed=1)
        assert ms.product() == f, (d, p)
        assert self_reciprocal_search(f, d, seed=1, exhibit_cap=64).exists == any(
            g.is_self_reciprocal() for g, _ in ms), (d, p)
    for p in (2, 3, 5, 13):
        rng = CounterRng("unvalidated-constructor", p)
        for _ in range(100):
            f = ModPoly(p, rng.coeffs(1 + rng.randbelow(20), p) + [1])
            assert factor(f).product() == f, (p, f)
    assert len(calls) > 10_000


def test_is_irreducible_cyclic_validates_the_divisor_claim():
    # t^2 + 1 is irreducible over F_3, but it does not divide t^5 - 1
    g = ModPoly(3, (1, 0, 1))
    with pytest.raises(ValueError, match="does not divide"):
        is_irreducible_cyclic(g, 5)
    assert is_irreducible_cyclic(g, 4)
    with pytest.raises(ValueError):
        is_irreducible_cyclic(ModPoly(3, (1, 1)), 6)  # p | n
    with pytest.raises(ValueError):
        is_irreducible_cyclic(ModPoly(2, (0, 1)), 3)  # vanishes at 0


# -- Rabin's class test with its gcds collapsed to binomials


# composite orders with several characteristics each
COMPOSITE_CASES = [(63, 2), (63, 5), (63, 11), (63, 13), (105, 2), (105, 11),
                   (105, 13), (255, 2), (255, 7), (255, 11)]


def _class_products():
    """(P, k, n): the class products of every 8th grid pair and of t^n - 1
    for composite n, plus for composite n products of two random factors,
    labelled with the larger degree."""
    grid = [(d, p) for d in range(3, 501, 2) if numth.is_prime(d)
            for p in range(2, 101) if numth.is_prime(p) and p != d]
    out = []
    for d, p in grid[::8]:
        f = reduced(CyclotomicQuery(d, p))
        out += [(P, k, d) for P, k in distinct_degree_cyclic(f, d)]
    rng = random.Random(63)
    for n, p in COMPOSITE_CASES:
        ms = [g for g, _ in factor_cyclic(_tn1(p, n), n)]
        out += [(P, k, n) for P, k in distinct_degree_cyclic(_tn1(p, n), n)]
        for _ in range(4):
            a, b = rng.sample(ms, 2)
            out.append((a * b, max(a.degree, b.degree), n))
    return out


# sha256 over the reprs of `distinct_degree_cyclic` on every product of
# `_class_products()`, as computed while it still took gcd(rem, t^n - 1)
DISTINCT_DEGREE_REFERENCE = "cda80d87a83afbcede232842dd4aa887e767a06208d3d91a86b84e35318b349b"


def _divisors(n):
    return [g for g in range(1, n + 1) if n % g == 0]


def test_binomial_gcd_is_the_generic_gcd():
    products = _class_products()
    for P, _, n in products:
        for g in _divisors(n):
            want = P.gcd(_tn1(P.p, g))
            assert factor_mod._binomial_gcd(P, g) == want, (P.p, n, g)
    assert len(products) > 300


def _rabin_by_monomials(P, k, n):
    """Rabin's test with each gcd taken against t^(p^(k/q) mod n) - t."""
    if k < 1 or P.degree < 1:
        return False
    p = P.p
    t = ModPoly(p, (0, 1)).divrem(P)[1]

    def frobenius(j):
        return ModPoly(p, (0,) * pow(p, j, n) + (1,)).divrem(P)[1]

    if frobenius(k) != t:
        return False
    primes = {q for q, _ in numth.factorize(k)}
    return all(P.gcd(frobenius(k // q) - t).degree == 0 for q in primes)


def test_class_rabin_agrees_with_the_monomial_gcd_reference():
    # each product under its own label, and under labels that are off by
    # a factor: its multiples make p^(k/q) = 1 (mod n) for some q
    seen = {True: 0, False: 0}
    for P, k, n in _class_products():
        for label in {k, 2 * k, 3 * k, 6 * k, max(1, k // 2), k + 1}:
            got = factor_mod._rabin_cyclic(P.monic(), label, n)
            assert got == _rabin_by_monomials(P.monic(), label, n), (P.p, n, k, label)
            seen[got] += 1
    assert seen[True] > 300 and seen[False] > 1000


# -- the ring F_p[t]/(t^n - 1) on int64 arrays


def test_ring_frobenius_is_the_coefficient_permutation():
    """x^p is x with index i moved to i*p mod n, and `_frobenius_orbits`
    labels exactly the orbits of that permutation, one per irreducible
    factor of t^n - 1."""
    rng = random.Random(64)
    for p in (2, 3, 5, 7, 97):
        for n in range(1, 61):
            if n % p == 0:
                continue
            x = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
            want = [0] * n
            for i, c in enumerate(x.tolist()):
                want[i * p % n] = c
            assert factor_mod._ring_pow(x, p, n, p).tolist() == want, (p, n)
            label, m = factor_mod._frobenius_orbits(n, p)
            powers = [pow(p, j, n) for j in range(n)]
            orbit_of = {}
            for i in range(n):
                orbit = frozenset(i * q % n for q in powers)
                orbit_of.setdefault(orbit, set()).add(int(label[i]))
            assert all(len(ids) == 1 for ids in orbit_of.values()), (p, n)
            assert sorted(i for ids in orbit_of.values() for i in ids) == list(range(m))
            assert m == len(factor(_tn1(p, n)).factors), (p, n)


def _fixed_element(n, p, rng):
    label, m = factor_mod._frobenius_orbits(n, p)
    return np.array([rng.randrange(p) for _ in range(m)], dtype=_k.cyclic_dtype(p))[label]


@pytest.mark.parametrize("p, n", [(2, 7), (2, 45), (3, 40), (5, 42), (7, 57),
                                  (13, 36), (97, 60)])
def test_frobenius_fixed_elements_are_constants_mod_every_factor(p, n):
    """The lemma behind `_edf_cyclic`: an orbit-constant x has x^p = x,
    and x mod g lies in F_p for every irreducible g | t^n - 1."""
    rng = random.Random(p * n)
    factors = [g for g, _ in factor(_tn1(p, n))]
    for _ in range(8):
        x = _fixed_element(n, p, rng)
        assert factor_mod._ring_pow(x, p, n, p).tolist() == x.tolist()
        xpoly = ModPoly(p, x.tolist())
        for g in factors:
            assert xpoly.divrem(g)[1].degree <= 0, (p, n, g)


@pytest.mark.parametrize("p, n", [(2, 7), (2, 15), (3, 8), (5, 6)])
def test_frobenius_fixed_elements_take_every_value_tuple(p, n):
    """The orbit indicators are a basis: the p^m orbit-constant elements
    have p^m distinct tuples of values mod the m factors."""
    label, m = factor_mod._frobenius_orbits(n, p)
    factors = [g for g, _ in factor(_tn1(p, n))]
    assert len(factors) == m
    values = set()
    for coeffs in itertools.product(range(p), repeat=m):
        x = ModPoly(p, [coeffs[j] for j in label.tolist()])
        values.add(tuple(x.divrem(g)[1].coeffs for g in factors))
    assert len(values) == p ** m


def test_orbit_pow_is_the_ring_pow():
    """A product of fixed elements is fixed, so the power taken in orbit
    values and expanded by the labels is the ring power."""
    rng = random.Random(20)
    for p in (2, 3, 5, 7, 97):
        for n in range(1, 61):
            if n % p == 0:
                continue
            label, m = factor_mod._frobenius_orbits(n, p)
            table = factor_mod._orbit_table(label, m)
            # row C reads the labels backwards from an index of orbit C
            for row in table.tolist():
                r = [i for i in range(n) if label[i] == row[0]]
                assert any(row == [label[(j - i) % n] for i in range(n)] for j in r), (p, n)
            for e in sorted({1, 2, 3, max(1, (p - 1) // 2), p, 70}):
                c = np.array([rng.randrange(p) for _ in range(m)], dtype=np.int64)
                keep = c.copy()
                got = factor_mod._orbit_pow(c, e, table, label, p)
                assert got.dtype == np.int64 and len(got) == m
                want = factor_mod._ring_pow(c[label], e, n, p)
                assert got[label].tolist() == want.tolist(), (p, n, e)
                assert (c == keep).all()


def _power_routes(monkeypatch):
    """Record which power `_edf_cyclic` takes, by name."""
    calls = []
    for name in ("_ring_pow", "_orbit_pow"):
        def spied(*args, _name=name, _orig=getattr(factor_mod, name)):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(factor_mod, name, spied)
    return calls


def test_power_route_switches_at_the_table_size(monkeypatch):
    """Phi_31 mod 5 has m = 7 orbits on n = 31 coefficients: orbit values
    with a cutoff of m * n entries, the ring one entry below it."""
    label, m = factor_mod._frobenius_orbits(31, 5)
    f = reduced(CyclotomicQuery(31, 5))
    want = factor(f)
    calls = _power_routes(monkeypatch)
    for cells, route in ((m * 31, "_orbit_pow"), (m * 31 - 1, "_ring_pow")):
        monkeypatch.setattr(factor_mod, "_ORBIT_CELLS", cells)
        del calls[:]
        assert factor_cyclic(f, 31) == want
        assert calls and set(calls) == {route}, cells


@pytest.mark.parametrize("d, p, route", [
    (487, 41, "_orbit_pow"),  # 55 orbits: 26785 entries, the largest timed below
    (307, 17, "_ring_pow"),  # 103 orbits: 31621 entries, the smallest timed above
])
def test_grid_pairs_next_to_the_cutoff_take_the_timed_route(d, p, route, monkeypatch):
    label, m = factor_mod._frobenius_orbits(d, p)
    assert (m * d <= factor_mod._ORBIT_CELLS) == (route == "_orbit_pow")
    f = reduced(CyclotomicQuery(d, p))
    calls = _power_routes(monkeypatch)
    assert factor_cyclic(f, d).product() == f
    assert calls and set(calls) == {route}


@pytest.mark.parametrize("n, p", [(1, 5), (7, 29), (64, 3), (300, 97)])
def test_ring_pow_is_the_repeated_product(n, p):
    rng = random.Random(n + p)
    x = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
    keep = x.copy()
    want = x.tolist()
    for e in range(1, 71):
        got = factor_mod._ring_pow(x, e, n, p)
        assert got.tolist() == want, e
        assert (x == keep).all()
        raw = _k.mul_mod(want, x.tolist(), p).tolist()
        want = [sum(raw[i::n]) % p for i in range(n)]


def test_ring_pow_squarings_and_products(monkeypatch):
    calls = []
    orig = _k.mul_cyclic_mod

    def counted(a, b, n, p):
        calls.append(a is b)
        return orig(a, b, n, p)

    monkeypatch.setattr(_k, "mul_cyclic_mod", counted)
    x = np.arange(1, 8, dtype=np.int64)
    for e in (1, 2, 3, 48, 70):
        del calls[:]
        factor_mod._ring_pow(x, e, 7, 29)
        # floor(log2 e) squarings and popcount(e) - 1 other products
        assert calls.count(True) == e.bit_length() - 1
        assert calls.count(False) == bin(e).count("1") - 1
    assert factor_mod._ring_pow(x, 1, 7, 29) is x


# the largest prime below 2^63, the top of the ModPoly range, and one
# past it; both are 1 mod 3 and mod 9
P63_TOP = 9_223_372_036_854_775_783
P64 = 9_223_372_036_854_775_837
M89 = (1 << 89) - 1


@pytest.mark.parametrize("f, n", [
    (ModPoly(P63_TOP, (1, 1, 1)), 3),
    (ModPoly(P63_TOP, (1, 0, 0, 1, 0, 0, 1)), 9),
])
def test_factor_cyclic_at_the_top_of_the_int64_ring(f, n):
    """Ring elements below 2^63 stay int64, every product packs past 8 bytes."""
    assert f.p % n == 1
    assert factor_cyclic(f, n) == factor(f)
    assert len(factor(f).factors) == f.degree


def test_moduli_past_a_machine_word_are_rejected_on_entry():
    assert numth.is_prime(P64)
    with pytest.raises(ValueError, match="machine word"):
        ModPoly(P64, (1, 1, 1))


@pytest.mark.parametrize("p", [P63_TOP, P64, M89])
def test_ring_is_exact_past_int64(p):
    """A Frobenius-fixed element and powers of it on the ring at any p:
    int64 arrays below 2^63, arrays of Python ints beyond, against a
    list reference."""
    n = 9
    x = _fixed_element(n, p, random.Random(p % 1000))
    assert x.dtype == (np.int64 if p < 1 << 63 else object)
    keep = x.tolist()

    def times(a, b):
        raw = _k.mul_mod(a, b, p).tolist()
        return [sum(raw[i::n]) % p for i in range(n)]

    power = keep
    for _ in range(4):
        power = times(power, keep)
    got = factor_mod._ring_pow(x, 5, n, p)
    assert got.dtype == x.dtype and got.tolist() == power
    fixed = factor_mod._ring_pow(x, p, n, p)
    assert fixed.dtype == x.dtype and fixed.tolist() == keep
    assert x.tolist() == keep
    # the same powers in orbit values: n (p-1)^2 is past int64 at each p,
    # so the row sums run on Python ints, also where x is int64
    label, m = factor_mod._frobenius_orbits(n, p)
    c = np.empty(m, dtype=x.dtype)
    c[label] = x
    table = factor_mod._orbit_table(label, m)
    got = factor_mod._orbit_pow(c, 5, table, label, p)
    assert got.dtype == object and got[label].tolist() == power
    assert factor_mod._orbit_pow(c, p, table, label, p)[label].tolist() == keep
    assert x.tolist() == keep


@pytest.mark.parametrize("f, n", [
    # p = 3: the power (p - 1) / 2 is 1, and classes of degree 1 and 2
    (_tn1(3, 8), 8), (_tn1(3, 16), 16), (_tn1(3, 80), 80),
    # 29 = 1 mod 7: Phi_7 is one class of six linear factors
    (reduced(CyclotomicQuery(7, 29)), 7),
])
def test_factor_cyclic_leaves_the_random_element_alone(f, n, monkeypatch):
    """The power and the subtraction of 1 write into no array that x (or
    its orbit values) is, and x is Frobenius-fixed, on either route."""
    assert factor_cyclic(f, n) == factor(f)
    seen = []
    orig = factor_mod._ring_pow
    orbit = factor_mod._orbit_pow

    def recorded(x, e, n_, p):
        seen.append((x, x.copy(), x))
        return orig(x, e, n_, p)

    def orbit_recorded(c, e, table, label, p):
        seen.append((c, c.copy(), c[label]))
        return orbit(c, e, table, label, p)

    monkeypatch.setattr(factor_mod, "_ring_pow", recorded)
    monkeypatch.setattr(factor_mod, "_orbit_pow", orbit_recorded)
    assert factor_cyclic(f, n, seed=5) == factor(f)
    assert seen
    assert all((a == snapshot).all() for a, snapshot, _ in seen)
    p = f.p
    assert all(orig(x, p, n, p).tolist() == x.tolist() for _, _, x in seen)


M61 = (1 << 61) - 1


def _leftmost_path(node):
    """The polynomials of the nodes from `node` down to its leftmost pending leaf."""
    out = [node.poly]
    while node.kids is not None:
        node = next(kid for kid in node.kids if kid.open)
        out.append(node.poly)
    return out


@pytest.mark.parametrize("p, n, k", [(2, 255, 8), (97, 96, 1), (M61, 90, 1)])
def test_split_tree_remainders_are_the_direct_ones(p, n, k, monkeypatch):
    """Every pending leaf is gcd'ed with w mod itself, though w is reduced
    only down the leaf's path, and each node reduces by a reciprocal it
    keeps from round to round as a fresh division would.  The tree holds
    arrays and calls the kernels by their module names.  The first-factor
    search (`path`) gcds only the leftmost pending leaf, divides only
    along the path down to it, and ends the round at the first factor it
    isolates."""
    parts = [g for g, _ in factor_cyclic(_tn1(p, n), n) if g.degree == k]
    assert len(parts) >= 30
    dtype = _k.cyclic_dtype(p)

    def tree(ps):  # halves down to leaves of at most 4 factors
        node = factor_mod._Node(np.array(_prod(ps).coeffs, dtype=dtype))
        if len(ps) > 4:
            node.kids = [tree(ps[: len(ps) // 2]), tree(ps[len(ps) // 2 :])]
        return node

    leaves, divisions = [], []
    gcd, divrem = _k.gcd_mod, _k.divrem_mod

    def leaf_gcd(a, b, p_):
        leaves.append((a.copy(), b.copy()))
        return gcd(a, b, p_)

    def recorded(a, b, p_, inv=None):
        out = divrem(a, b, p_, inv)
        divisions.append((a.copy(), b, inv, out[1]))
        return out

    for path in (False, True):
        root = tree(parts)
        rng = random.Random(n)
        kept, reused = {}, 0
        for _ in range(3):
            w = np.array([rng.randrange(p) for _ in range(n)], dtype=dtype)
            del leaves[:], divisions[:]
            done = []
            followed = _leftmost_path(root)
            with monkeypatch.context() as patch:
                patch.setattr(_k, "gcd_mod", leaf_gcd)
                patch.setattr(_k, "divrem_mod", recorded)
                factor_mod._refine(root, w, k, p, done, path=path)
            assert leaves and divisions
            if path:  # one division per node of the path, then at most the split's quotient
                assert len(leaves) == 1 and (leaves[0][0] == followed[-1]).all()
                assert all(b is node for (_, b, _, _), node in zip(divisions, followed))
                assert len(followed) <= len(divisions) <= len(followed) + 1
                assert len(done) <= 2
            direct = ModPoly(p, w.tolist())
            for leaf, r in leaves:
                assert ModPoly(p, r.tolist()) == direct.divrem(ModPoly(p, leaf.tolist()))[1]
            for a, b, inv, out in divisions:
                want = ModPoly(p, a.tolist()).divrem(ModPoly(p, b.tolist()))[1]
                assert out.dtype == dtype and ModPoly(p, out.tolist()) == want
                if inv is not None:
                    if id(b) in kept:
                        assert kept[id(b)] is inv
                        reused += 1
                    kept[id(b)] = inv
            assert all(g.degree == k and _prod(parts).divrem(g)[1].is_zero() for g, _ in done)
        if p != 97:
            assert reused  # deg >= 16 with precision >= 32: p = 97 has none


def test_exhibited_self_reciprocal_factors_are_pinned():
    """The factor `self_reciprocal_search` exhibits (the `limit` path), for
    `inspect alexander` with a = 3, 15, 1081 at their reduction primes, and
    over every (a, p) with odd a < 200 and p | (a+1)/2, as at the commit
    before the split tree."""
    from pretzelslice.cyclotomic import fox_milnor_offenders
    from pretzelslice.pretzel import fox_milnor_status

    def exhibited(a, p):
        out = []
        for m in (a, a + 2):
            for d in range(3, m + 1):
                q = CyclotomicQuery(d, p) if m % d == 0 else None
                if q and numth.has_self_reciprocal_factor(q).exists:
                    out.append((d, self_reciprocal_search(reduced(q), d).factor.coeffs))
        return out

    assert exhibited(3, 2) == [(3, (1, 1, 1)), (5, (1, 1, 1, 1, 1))]
    assert exhibited(15, 2) == [(3, (1, 1, 1)), (5, (1, 1, 1, 1, 1)),
                                (17, (1, 0, 0, 1, 1, 1, 0, 0, 1))]
    assert exhibited(1081, 541) == []
    h = hashlib.sha256()
    for a in range(3, 200, 2):
        for p in range(2, (a + 1) // 2 + 1):
            if numth.is_prime(p) and (a + 1) // 2 % p == 0:
                offenders = fox_milnor_offenders(fox_milnor_status(a, p))
                shown = [(g.coeffs, 1) for g in offenders]
                h.update(repr((a, p, shown)).encode())
    assert h.hexdigest() == "8bf1dcf45f092b85c955dcd4e6b40ffc186021e64ab3a28285024c9b85807182"


def test_distinct_degree_cyclic_takes_no_gcd_with_t_n_minus_1(monkeypatch):
    """gcd(rem, t^n - 1) is rem itself, so it is never computed."""
    products = _class_products()
    calls = []
    orig = factor_mod._binomial_gcd

    def recorded(rem, g):
        calls.append((rem.p, g))
        return orig(rem, g)

    monkeypatch.setattr(factor_mod, "_binomial_gcd", recorded)
    h = hashlib.sha256()
    for P, _, n in products:
        del calls[:]
        got = distinct_degree_cyclic(P, n)
        assert all(g != n for _, g in calls), (P.p, n)
        h.update(repr([(piece.coeffs, k) for piece, k in got]).encode())
    # the outputs of the commit that still took the gcd
    assert h.hexdigest() == DISTINCT_DEGREE_REFERENCE


def test_factor_cyclic_validates_once(monkeypatch):
    calls = []
    orig = factor_mod._validate_cyclic

    def recorded(f, n):
        calls.append(n)
        return orig(f, n)

    monkeypatch.setattr(factor_mod, "_validate_cyclic", recorded)
    for p, n in CYCLIC_CASES:
        del calls[:]
        assert factor_cyclic(_tn1(p, n), n).total_degree() == n
        assert calls == [n], (p, n)


def test_public_cyclic_entry_points_reject_a_non_divisor():
    # t^2 + 1 over F_3 divides t^4 - 1 but not t^5 - 1
    g = ModPoly(3, (1, 0, 1))
    for call in (distinct_degree_cyclic, is_irreducible_cyclic, factor_cyclic):
        assert call(g, 4)
        with pytest.raises(ValueError, match="does not divide"):
            call(g, 5)


# -- the conjugate finish of small degree classes


CONJUGATE_CASES = [(d, p) for d in (7, 13, 15, 21, 45, 63, 105, 127)
                   for p in (2, 3, 5, 97, M61, P63_TOP) if d % p]


def _conjugates_of(g, n):
    p = g.p
    label, _ = factor_mod._frobenius_orbits(n, p)
    return factor_mod._conjugates(np.array(g.coeffs, dtype=_k.cyclic_dtype(p)), n, p, label)


@pytest.mark.parametrize("d, p", CONJUGATE_CASES)
def test_conjugates_are_the_generic_factors(d, p):
    """The conjugates of any one factor of Phi_d mod p are all of its
    factors, for prime and composite d, and where p divides the degree
    (d = 13, p = 3: degree 3)."""
    f = reduced(CyclotomicQuery(d, p))
    # past the cutoff the tree splits the class alone and is the reference
    # (the generic route takes a minute at d = 127, p = 2^61 - 1, degree 63)
    tree = numth.mult_order(p, d) > factor_mod._CONJUGATE_MAX
    want = factor_cyclic(f, d) if tree else factor(f)
    factors = sorted(list(g.coeffs) for g, _ in want)
    for g, _ in want.factors[:3]:
        assert sorted(_conjugates_of(g, d)) == factors
    assert factor_cyclic(f, d) == want


@pytest.mark.parametrize("d, p", [(7, 2), (13, 3), (21, 2), (45, 97), (127, 5), (15, M61)])
def test_power_sums_are_sums_of_root_powers(d, p):
    """s_x is sum beta^x over the roots of g: the trace of t^x mod g,
    sum over i < k of t^(x p^i), with t^d = 1 mod g."""
    for g, _ in factor(reduced(CyclotomicQuery(d, p))).factors[:2]:
        s = factor_mod._power_sums(np.array(g.coeffs, dtype=_k.cyclic_dtype(p)), d, p)
        assert len(s) == d
        for x in range(d):
            trace = ModPoly(p, ())
            for i in range(g.degree):
                trace = trace + ModPoly(p, (0,) * (x * pow(p, i, d) % d) + (1,)).divrem(g)[1]
            assert trace.coeffs == ((s[x],) if s[x] else ()), (g, x)


def _finish_spy(monkeypatch):
    """Events ("conj", k) and ("refine", k, path) of `_edf_cyclic`."""
    events = []
    conjugates, refine = factor_mod._conjugates, factor_mod._refine

    def conj(g, n, p, label):
        events.append(("conj", len(g) - 1))
        return conjugates(g, n, p, label)

    def ref(root, w, k, p, done, path=False):
        events.append(("refine", k, path))
        return refine(root, w, k, p, done, path)

    monkeypatch.setattr(factor_mod, "_conjugates", conj)
    monkeypatch.setattr(factor_mod, "_refine", ref)
    return events


def _finished(events):
    """The classes whose conjugates ended their tree, and those that fell back."""
    tried = [e[1] for e in events if e[0] == "conj"]
    fell_back = {k for k in tried
                 if ("refine", k) in [e[:2] for e in events[events.index(("conj", k)):]]}
    return set(tried) - fell_back, fell_back


@pytest.mark.parametrize("d, n, p", [(7, 63, 2), (21, 63, 2), (7, 7, 29), (13, 39, 5)])
def test_conjugate_finish_of_roots_of_lower_order(d, n, p, monkeypatch):
    """Phi_d for d | n, d < n: the units mod n fall into more Frobenius
    orbits than Phi_d has factors, so conjugates repeat and are kept
    once; and Phi_7 mod 29 with n = d, six linear factors."""
    f = reduced(CyclotomicQuery(d, p))
    want = factor(f)
    events = _finish_spy(monkeypatch)
    for seed in range(3):
        del events[:]
        assert factor_cyclic(f, n, seed) == want
        assert _finished(events) == ({want.factors[0][0].degree}, set())
    orbits = numth.totient(numth.factorize(n)) // numth.mult_order(p, n)
    assert orbits > len(want.factors) or n == d
    assert len(_conjugates_of(want.factors[0][0], n)) == len(want.factors)


@pytest.mark.parametrize("f, n, fallback", [
    (_tn1(2, 15), 15, {4}),  # Phi_5 Phi_15: orders 5 and 15 in the class of degree 4
    (_tn1(2, 21), 21, set()),  # Phi_7 and Phi_21 have classes of their own
    (_tn1(2, 63), 63, {6}),  # Phi_9 Phi_21 Phi_63 in the class of degree 6
    # Phi_9 and five of the six factors of Phi_63: the conjugates of a
    # factor of Phi_63 have f's degree, 36, but are not f's factors
    (_prod([reduced(CyclotomicQuery(9, 2))]
           + [g for g, _ in factor(reduced(CyclotomicQuery(63, 2)))][:5]), 63, {6}),
])
def test_conjugate_finish_falls_back_to_the_tree(f, n, fallback, monkeypatch):
    """A class whose conjugates do not rebuild it continues its tree, and
    the answer is the generic one at every seed."""
    events = _finish_spy(monkeypatch)
    for seed in range(4):
        del events[:]
        assert factor_cyclic(f, n, seed) == factor(f)
        assert _finished(events)[1] == fallback
