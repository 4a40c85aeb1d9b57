"""Polynomial layer: canonical associates, exact division, F_p Euclid."""

import random

import pytest

from pretzelslice.poly import (
    ExactDivisionError,
    IntPoly,
    ModPoly,
    reduce_mod,
)

DELTA_3 = (1, -2, -1, 5, -1, -2, 1)  # degree-6 palindrome used all over


def test_canonicalize_unit_normalization():
    assert IntPoly([0, -1, -2]).canonical().coeffs == (1, 2)


def test_canonicalize_laurent_offset_is_ignored():
    # a power of t is a unit, so shifting never changes the associate
    assert IntPoly([1]).shift(5).canonical() == IntPoly([1])
    assert IntPoly([0, 3]).shift(7).canonical() == IntPoly([3])


def test_canonicalize_fixed_point():
    f = IntPoly(DELTA_3)
    assert f.canonical() == f


def test_canonicalize_idempotent_and_identifies_associates():
    rng = random.Random(11)
    for _ in range(200):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]
        f = IntPoly(coeffs)
        if f.is_zero():
            continue
        c = f.canonical()
        assert c.canonical() == c
        shifted = f.shift(rng.randint(0, 4))
        assert shifted.canonical() == c
        assert (-shifted).canonical() == c


def test_modpoly_canonical_identifies_scalar_unit_multiples():
    rng = random.Random(12)
    for p in (2, 3, 7):
        for _ in range(100):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 9))]
            f = ModPoly(p, coeffs)
            if f.is_zero():
                continue
            c = rng.randrange(1, p)
            assert f.scale(c).shift(rng.randint(0, 3)).canonical() == f.canonical()


def test_add_mul_basics():
    t_plus_1 = IntPoly([1, 1])
    assert (t_plus_1 * t_plus_1).coeffs == (1, 2, 1)
    assert (IntPoly([-1, 1]) + IntPoly([1, -1])).is_zero()


def test_mod2_product_of_the_two_delta3_factors():
    a = ModPoly(2, [1, 1, 1])
    b = ModPoly(2, [1, 1, 1, 1, 1])
    assert (a * b).coeffs == (1, 0, 1, 1, 1, 0, 1)


def test_modpoly_modulus_mismatch():
    with pytest.raises(ValueError):
        ModPoly(2, [1, 1]) + ModPoly(3, [1, 1])


def test_modpoly_requires_prime_modulus():
    with pytest.raises(ValueError):
        ModPoly(6, [1, 1])


def test_exact_div_cubic():
    q = IntPoly([1, 0, 0, 1]).exact_div(IntPoly([1, 1]))
    assert q.coeffs == (1, -1, 1)


def test_exact_div_product_of_binomial_pluses():
    num = IntPoly([1, 0, 0, 0, 0, 1]) * IntPoly([1, 0, 0, 1])
    den = IntPoly([1, 1]) * IntPoly([1, 1])
    want = IntPoly([1, -1, 1, -1, 1]) * IntPoly([1, -1, 1])
    assert num.exact_div(den) == want


def test_exact_div_rejects_inexact():
    with pytest.raises(ExactDivisionError):
        IntPoly([1, 0, 1]).exact_div(IntPoly([1, 1]))
    # 3t / 2t: the leading coefficients do not divide, and nothing is left
    # below the divisor's degree for the remainder check to see
    with pytest.raises(ExactDivisionError):
        IntPoly([0, 3]).exact_div(IntPoly([0, 2]))


def test_exact_div_rejects_a_quotient_past_int64():
    # t^129 = (t - 2^39) * sum 2^(39k) t^(128-k) + 2^(39*129): a nonzero
    # remainder, and quotient coefficients past int64 from k = 2 on
    with pytest.raises(ExactDivisionError):
        IntPoly([0] * 129 + [1]).exact_div(IntPoly([-(2**39), 1]))


def test_exact_div_random_roundtrip():
    rng = random.Random(13)
    for _ in range(150):
        f = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 8))])
        g = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 8))])
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).exact_div(g) == f
    # dividends of 129 to 600 coefficients of both signs, with coefficients
    # up to 2^40 in size, over monic and non-monic divisors of degree 8
    for length in (129, 130, 257, 600):
        for height in (6, 1 << 20, 1 << 40):
            f = IntPoly([rng.randint(-height, height) for _ in range(length - 9)] + [height])
            g = IntPoly([rng.randint(-height, height) for _ in range(8)] + [rng.choice((-1, 1))])
            h = IntPoly([rng.randint(-height, height) for _ in range(8)] + [-height])
            for den in (g, h):
                num = f * den
                assert len(num.coeffs) == length
                assert num.exact_div(den) == f
                # off by one in the constant and in the leading coefficient
                for bump in (IntPoly([1]), IntPoly([1]).shift(num.degree)):
                    with pytest.raises(ExactDivisionError):
                        (num + bump).exact_div(den)


def test_divrem_monomials():
    q, r = ModPoly(5, [0, 0, 0, 1]).divrem(ModPoly(5, [0, 0, 1]))
    assert q == ModPoly(5, [0, 1]) and r.is_zero()


def test_divrem_contract_random():
    rng = random.Random(14)
    for p in (2, 5, 13):
        for _ in range(120):
            a = ModPoly(p, [rng.randrange(p) for _ in range(rng.randint(0, 12))])
            b = ModPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 8))])
            if b.is_zero():
                continue
            q, r = a.divrem(b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_divrem_long_input_with_modulus_past_int64():
    # len(a) >= 64 with (p-1)^2 + p >= 2^62 takes the plain Python loop
    p = (1 << 61) - 1
    rng = random.Random(61)
    for la, lb in ((64, 1), (80, 9), (130, 64)):
        a = ModPoly(p, [rng.randrange(p) for _ in range(la - 1)] + [1 + rng.randrange(p - 1)])
        b = ModPoly(p, [rng.randrange(p) for _ in range(lb - 1)] + [1 + rng.randrange(p - 1)])
        q, r = a.divrem(b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_divrem_of_a_shorter_dividend_skips_the_kernel(monkeypatch):
    """A dividend shorter than the divisor is its own remainder, as the
    kernel route says, and no kernel call is made; equal lengths divide."""
    from pretzelslice import _kernels

    rng = random.Random(25)
    cases = []
    for p in (2, 97, (1 << 61) - 1):
        for la, lb in ((0, 1), (0, 5), (1, 2), (3, 4), (4, 4), (16, 17), (17, 17), (40, 64)):
            a = ModPoly(p, [rng.randrange(p) for _ in range(la)])
            b = ModPoly(p, [rng.randrange(p) for _ in range(lb - 1)] + [1 + rng.randrange(p - 1)])
            q, r = _kernels.divrem_mod(a.coeffs, b.coeffs, p)
            cases.append((a, b, ModPoly(p, q.tolist()), ModPoly(p, r.tolist())))
    calls = []
    orig = _kernels.divrem_mod

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(_kernels, "divrem_mod", counted)
    for a, b, q, r in cases:
        del calls[:]
        assert a.divrem(b) == (q, r)
        assert len(calls) == (len(a.coeffs) >= len(b.coeffs)), (a, b)
        if len(a.coeffs) < len(b.coeffs):
            assert a.divrem(b)[1] is a and q.is_zero()


def test_divrem_by_zero():
    with pytest.raises(ZeroDivisionError):
        ModPoly(5, [1]).divrem(ModPoly(5))


def test_gcd_cyclotomic_factor_of_t3_minus_1():
    f = ModPoly(5, [1, 1, 1])
    g = ModPoly(5, [-1, 0, 0, 1])
    assert f.gcd(g) == f


def test_gcd_phi7_mod_2_squarefree():
    phi7 = ModPoly(2, [1] * 7)
    assert phi7.gcd(phi7.derivative()).degree == 0


def test_gcd_divides_both_and_is_monic():
    rng = random.Random(15)
    for p in (2, 3, 7):
        for _ in range(80):
            a = ModPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 10))])
            b = ModPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 10))])
            if a.is_zero() or b.is_zero():
                continue
            g = a.gcd(b)
            assert g.coeffs[-1] == 1
            assert a.divrem(g)[1].is_zero()
            assert b.divrem(g)[1].is_zero()


def test_reverse_examples():
    assert IntPoly([1, 1, 1]).reverse() == IntPoly([1, 1, 1])
    # reverse of 2t - 1 normalizes the sign: [-1, 2] -> [2, -1] -> t - 2
    assert IntPoly([-1, 2]).reverse() == IntPoly([-2, 1])
    assert ModPoly(2, [1, 1, 0, 1]).reverse() == ModPoly(2, [1, 0, 1, 1])


def test_reverse_involution_on_canonical_forms():
    rng = random.Random(16)
    for _ in range(150):
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 9))])
        if f.is_zero():
            continue
        c = f.canonical()
        assert c.reverse().reverse() == c


def test_reverse_of_zero_rejected():
    with pytest.raises(ValueError):
        IntPoly().reverse()
    with pytest.raises(ValueError):
        ModPoly(3).is_self_reciprocal()


def test_self_reciprocal_examples():
    assert IntPoly([1, 1, 1]).is_self_reciprocal()
    assert not ModPoly(2, [1, 1, 0, 1]).is_self_reciprocal()
    assert IntPoly(DELTA_3).is_self_reciprocal()


def test_product_with_own_reversal_is_self_reciprocal():
    rng = random.Random(17)
    for _ in range(120):
        f = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(2, 8))])
        if f.is_zero():
            continue
        assert (f * f.reverse()).is_self_reciprocal()
        g = ModPoly(7, [rng.randrange(7) for _ in range(rng.randint(2, 8))])
        if g.is_zero():
            continue
        assert (g * g.reverse()).is_self_reciprocal()


def test_substitute_neg():
    assert IntPoly([1, 1, 1]).substitute_neg() == IntPoly([1, -1, 1])
    assert IntPoly([1, 1, 1, 1, 1]).substitute_neg() == IntPoly([1, -1, 1, -1, 1])
    f = ModPoly(2, [1, 1, 0, 1, 1])
    assert f.substitute_neg() == f.canonical()


def test_substitute_neg_is_an_involution_up_to_canonical():
    rng = random.Random(18)
    for _ in range(100):
        f = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 9))]).canonical()
        if f.is_zero():
            continue
        assert f.substitute_neg().substitute_neg() == f


def test_reduce_mod_examples():
    assert reduce_mod(IntPoly(DELTA_3), 2) == ModPoly(2, [1, 0, 1, 1, 1, 0, 1])
    assert reduce_mod(IntPoly([3, 3]), 3).is_zero()
    assert reduce_mod(IntPoly([1, 1, 1, 1, 1]), 2) == ModPoly(2, [1, 1, 1, 1, 1])


def test_reduce_mod_is_multiplicative_up_to_canonical():
    rng = random.Random(19)
    for p in (2, 3, 5):
        for _ in range(80):
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
            g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
            lhs = reduce_mod(f * g, p)
            rhs = reduce_mod(f, p) * reduce_mod(g, p)
            if lhs.is_zero() or rhs.is_zero():
                assert lhs.is_zero() and rhs.is_zero()
            else:
                assert lhs.canonical() == rhs.canonical()
    # the body IntPoly and ModPoly share: reduction mod p commutes with
    # +, binary and unary -, shift and f(-t), raw values compared as they are
    for p in (2, 3, 97):
        for _ in range(80):
            f = IntPoly([rng.randint(-200, 200) for _ in range(rng.randint(0, 8))])
            g = IntPoly([rng.randint(-200, 200) for _ in range(rng.randint(0, 8))])
            k = rng.randint(0, 3)
            fp, gp = ModPoly(p, f.coeffs), ModPoly(p, g.coeffs)
            assert ModPoly(p, (f + g).coeffs) == fp + gp
            assert ModPoly(p, (f - g).coeffs) == fp - gp
            assert ModPoly(p, (-f).coeffs) == -fp
            assert ModPoly(p, f.shift(k).coeffs) == fp.shift(k)
            if fp:
                assert reduce_mod(f.substitute_neg(), p) == fp.substitute_neg()


def test_values_are_immutable():
    f = IntPoly([1, 2])
    with pytest.raises(AttributeError):
        f.coeffs = (3,)
    g = ModPoly(5, [1])
    with pytest.raises(AttributeError):
        g.p = 7


def test_string_forms():
    assert str(IntPoly(DELTA_3)) == "1 - 2*t - t^2 + 5*t^3 - t^4 - 2*t^5 + t^6"
    assert str(IntPoly()) == "0"
    assert str(ModPoly(5, [4, 1, 3])) == "4 + t + 3*t^2"
