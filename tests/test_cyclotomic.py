"""Cyclotomic polynomials and their mod-p factor structure."""

import random

import pytest
import sympy

from pretzelslice import cyclotomic, numth
from pretzelslice.cyclotomic import (
    CyclotomicQuery,
    count_irreducible_factors,
    cyclotomic_poly,
    factor_count_oracle,
    factor_cyclotomic_oracle,
    has_self_reciprocal_factor,
    reduced,
    self_reciprocal_factor_oracle,
)
from pretzelslice.poly import IntPoly


# -- reference routes the fast code must agree with


def _cyclotomic_by_division(d: int) -> IntPoly:
    """Phi_d by the textbook recursion (t^d - 1) / prod_{e | d, e < d} Phi_e."""
    num = IntPoly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            num = num.exact_div(_cyclotomic_by_division(e))
    return num


def parity_via_legendre(p: int, d: int) -> str:
    """Parity of the factor count straight from the Legendre symbol.

    Only meaningful for odd prime d distinct from the prime p.
    """
    if not numth.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == d:
        raise ValueError("p and d must be distinct")
    return "even" if numth.legendre(p, d) == 1 else "odd"


def test_small_cyclotomics():
    assert cyclotomic_poly(1) == IntPoly([-1, 1])
    assert cyclotomic_poly(2) == IntPoly([1, 1])
    assert cyclotomic_poly(3) == IntPoly([1, 1, 1])
    assert cyclotomic_poly(6) == IntPoly([1, -1, 1])
    assert cyclotomic_poly(7) == IntPoly([1] * 7)
    assert cyclotomic_poly(12) == IntPoly([1, 0, -1, 0, 1])


def test_cyclotomic_degree_is_totient():
    for d in range(1, 400):
        assert cyclotomic_poly(d).degree == numth.totient(numth.factorize(d))


def test_cyclotomic_105_has_coefficient_minus_two():
    # the first d whose cyclotomic has a coefficient outside {-1,0,1}
    assert -2 in cyclotomic_poly(105).coeffs


def test_product_over_divisors_is_tn_minus_1():
    for n in (1, 2, 6, 12, 30, 49, 60, 105):
        prod = IntPoly([1])
        for d in numth.divisors(numth.factorize(n)):
            prod = prod * cyclotomic_poly(d)
        want = IntPoly([-1] + [0] * (n - 1) + [1])
        assert prod == want


def test_radical_route_matches_division_route():
    for d in range(1, 130):
        assert cyclotomic_poly(d) == _cyclotomic_by_division(d)


def test_matches_sympy_for_a_sample():
    t = sympy.symbols("t")
    for d in (1, 2, 9, 15, 36, 100, 101, 105, 255):
        ours = list(cyclotomic_poly(d).coeffs)
        theirs = sympy.Poly(sympy.cyclotomic_poly(d, t), t).all_coeffs()[::-1]
        assert ours == [int(c) for c in theirs]


def test_query_validation():
    with pytest.raises(ValueError):
        CyclotomicQuery(1, 2)
    with pytest.raises(ValueError):
        CyclotomicQuery(7, 6)
    with pytest.raises(ValueError):
        CyclotomicQuery(14, 7)  # shared factor
    q = CyclotomicQuery(9, 2)
    assert not q.d_is_prime
    assert CyclotomicQuery(7, 2).d_is_prime


@pytest.mark.parametrize("memo", [count_irreducible_factors, has_self_reciprocal_factor,
                                  factor_cyclotomic_oracle, self_reciprocal_factor_oracle])
def test_query_memos_refuse_a_plain_tuple_even_once_cached(memo):
    # a CyclotomicQuery hashes and compares equal to the tuple of its
    # fields, so an untyped memo answered (7, 2) once (7, 2) was cached
    assert memo(CyclotomicQuery(7, 2)) == memo(CyclotomicQuery(7, 2))
    for plain in ((7, 2), (11, 2)):
        with pytest.raises(AttributeError):
            memo(plain)


@pytest.mark.parametrize("oracle, memo", [
    (factor_cyclotomic_oracle, cyclotomic._factor_cyclotomic),
    (self_reciprocal_factor_oracle, cyclotomic._self_reciprocal),
])
def test_oracle_memos_key_on_the_question_not_the_call_form(oracle, memo):
    # (q), (q, seed) and (q, seed=seed) ask one question: one search, two hits
    q = CyclotomicQuery(11, 2)
    memo.cache_clear()
    answers = [oracle(q), oracle(q, numth.DEFAULT_SEED), oracle(q, seed=numth.DEFAULT_SEED)]
    assert answers[0] is answers[1] is answers[2]
    info = memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_reduced_is_squarefree():
    for d, p in ((7, 2), (9, 2), (15, 2), (49, 5), (121, 3)):
        f = reduced(CyclotomicQuery(d, p))
        assert f.gcd(f.derivative()).degree == 0


def test_count_irreducible_factors_frozen_cases():
    r = count_irreducible_factors(CyclotomicQuery(7, 2))
    assert (r.count, r.degree_each, r.parity) == (2, 3, "even")
    r = count_irreducible_factors(CyclotomicQuery(3, 2))
    assert (r.count, r.parity, r.legendre_check) == (1, "odd", -1)
    r = count_irreducible_factors(CyclotomicQuery(17, 2))
    assert (r.count, r.degree_each) == (2, 8)
    r = count_irreducible_factors(CyclotomicQuery(15, 2))
    assert (r.count, r.degree_each) == (2, 4)
    assert r.legendre_check is None  # composite d has no symbol


def test_count_times_degree_is_totient():
    rng = random.Random(31)
    for _ in range(150):
        d = rng.randint(2, 600)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        if d % p == 0:
            continue
        r = count_irreducible_factors(CyclotomicQuery(d, p))
        assert r.count * r.degree_each == numth.totient(numth.factorize(d))


def test_parity_via_legendre_matches_count_for_prime_d():
    assert (parity_via_legendre(2, 7), parity_via_legendre(2, 3),
            parity_via_legendre(3, 5)) == ("even", "odd", "odd")
    for d in (3, 5, 7, 11, 13, 17, 19, 23, 29, 97):
        for p in (2, 3, 5, 7, 11, 13):
            if p == d:
                continue
            r = count_irreducible_factors(CyclotomicQuery(d, p))
            assert parity_via_legendre(p, d) == r.parity


def test_factor_count_oracle_agrees_with_closed_form():
    for d in (3, 7, 9, 15, 21, 45, 49, 91, 105):
        for p in (2, 3, 5, 7):
            if d % p == 0:
                continue
            q = CyclotomicQuery(d, p)
            assert factor_count_oracle(q) == count_irreducible_factors(q).count


def test_oracle_factorization_shape():
    ms = factor_cyclotomic_oracle(CyclotomicQuery(7, 2))
    assert len(ms.factors) == 2
    assert all(g.degree == 3 and m == 1 for g, m in ms)
    assert ms.product() == reduced(CyclotomicQuery(7, 2))


def test_oracle_factors_close_under_reversal():
    # irreducible factors of a cyclotomic come in reciprocal pairs
    # unless individually palindromic
    for d, p in ((7, 2), (15, 2), (31, 2), (13, 3), (49, 3), (33, 5)):
        ms = factor_cyclotomic_oracle(CyclotomicQuery(d, p))
        factors = {g for g, _ in ms}
        for g in factors:
            assert g.reverse().monic() in factors


def test_sr_report_frozen_cases():
    r = has_self_reciprocal_factor(CyclotomicQuery(3, 2))
    assert (r.exists, r.w, r.order) == (True, 1, 2)
    r = has_self_reciprocal_factor(CyclotomicQuery(7, 2))
    assert (r.exists, r.w) == (False, None)
    r = has_self_reciprocal_factor(CyclotomicQuery(9, 2))
    assert (r.exists, r.w) == (True, 3)
    r = has_self_reciprocal_factor(CyclotomicQuery(17, 2))
    assert (r.exists, r.w) == (True, 4)


def test_sr_routes_diverge_for_composite_d():
    # d = 15, p = 2: ord is 4 and 2^2 = 4 != -1 mod 15, so no factor
    # exists, yet the odd-part power is nontrivial; the -1 route is
    # the true one and the factorization agrees with it
    r = has_self_reciprocal_factor(CyclotomicQuery(15, 2))
    assert r.exists is False
    assert r.odd_part_route is True
    assert r.routes_agree is False
    search = self_reciprocal_factor_oracle(CyclotomicQuery(15, 2))
    assert search.exists is False
    ms = factor_cyclotomic_oracle(CyclotomicQuery(15, 2))
    assert not any(g.is_self_reciprocal() for g, _ in ms)


def test_sr_routes_agree_for_prime_d():
    rng = random.Random(32)
    for _ in range(150):
        d = rng.choice([d for d in range(3, 300, 2) if numth.is_prime(d)])
        p = rng.choice([2, 3, 5, 7, 11])
        if p == d:
            continue
        r = has_self_reciprocal_factor(CyclotomicQuery(d, p))
        assert r.routes_agree is True


def test_sr_oracle_exhibits_a_verified_factor():
    q = CyclotomicQuery(3, 2)
    search = self_reciprocal_factor_oracle(q)
    assert search.exists and search.factor is not None
    assert search.factor.coeffs == (1, 1, 1)
    q = CyclotomicQuery(9, 2)
    search = self_reciprocal_factor_oracle(q)
    assert search.factor.is_self_reciprocal()
    assert reduced(q).divrem(search.factor)[1].is_zero()
    assert self_reciprocal_factor_oracle(CyclotomicQuery(7, 2)).exists is False


def test_sr_existence_matches_full_factorization():
    rng = random.Random(33)
    for _ in range(80):
        d = rng.randint(3, 120)
        p = rng.choice([2, 3, 5, 7])
        if d % p == 0:
            continue
        q = CyclotomicQuery(d, p)
        truth = any(
            g.is_self_reciprocal() for g, _ in factor_cyclotomic_oracle(q)
        )
        assert has_self_reciprocal_factor(q).exists == truth
        assert self_reciprocal_factor_oracle(q).exists == truth


def test_sympy_confirms_factor_counts():
    t = sympy.symbols("t")
    for d, p in ((7, 2), (9, 2), (11, 3), (15, 2), (21, 5)):
        q = CyclotomicQuery(d, p)
        poly = sympy.Poly(sympy.cyclotomic_poly(d, t), t, modulus=p)
        _, sympy_factors = poly.factor_list()
        assert len(sympy_factors) == count_irreducible_factors(q).count
