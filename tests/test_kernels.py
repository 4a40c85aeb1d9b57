"""Coefficient kernels against a schoolbook reference, at every path boundary.

Each kernel picks its path from the operand lengths and, for products
and gcd, a worst-case int64 bound (see the `_kernels` module docstring).
These tests sit on both sides of every cutoff and of every bound, and
compare with plain Python arithmetic that shares no code with the
kernels.
"""

import random

import numpy as np
import pytest

from pretzelslice import _kernels as _k

M61 = (1 << 61) - 1
M89 = (1 << 89) - 1
P63_TOP = 9_223_372_036_854_775_783  # the largest prime below 2^63
P64 = 9_223_372_036_854_775_837  # the smallest prime above 2^63
P31 = (1 << 31) - 1  # the largest prime below 2^31
PRIMES = (2, 3, 5, 13, 97, 251, 257, 4099, 65521, 65537, 1048573, 16777213, P31, M61)


def lists(x):
    """A kernel's array result, or a tuple of them, read back as lists."""
    return tuple(lists(y) for y in x) if isinstance(x, tuple) else x.tolist()


def ref_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_mul_mod(a, b, p):
    return [c % p for c in ref_mul(a, b)]


def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_divrem(a, b, p):
    """Long division reducing every entry at every step."""
    a, b = ref_trim(a), ref_trim(b)
    r = list(a)
    m = len(b) - 1
    if len(a) <= m:
        return [], r
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - m)
    for i in range(len(a) - 1 - m, -1, -1):
        c = r[i + m] * inv % p
        q[i] = c
        for j, y in enumerate(b):
            r[i + j] = (r[i + j] - c * y) % p
    return q, ref_trim(r)


def ref_gcd(a, b, p):
    a, b = ref_trim(a), ref_trim(b)
    while b:
        a, b = b, ref_divrem(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def vec(rng, n, p, top=None):
    """n coefficients in [0, p) with a nonzero leading one."""
    return [rng.randrange(p) for _ in range(n - 1)] + [top or rng.randrange(1, p)]


def spy(monkeypatch, name):
    """Count the calls of _kernels.<name>."""
    calls = []
    orig = getattr(_k, name)

    def wrapped(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(_k, name, wrapped)
    return calls


# ---------------------------------------------------------------------------
# multiplication


@pytest.mark.parametrize("p", [2, 97, 65521])
@pytest.mark.parametrize("la, lb", [
    (_k._TINY, _k._TINY),
    (_k._TINY, _k._TINY + 1),
    (_k._TINY + 1, 1),
    (1, _k._TINY + 1),
])
def test_mul_mod_at_the_schoolbook_cutoff(p, la, lb, monkeypatch):
    school = spy(monkeypatch, "_mul_school")
    rng = random.Random(la * 1000 + lb + p)
    a, b = vec(rng, la, p), vec(rng, lb, p)
    assert lists(_k.mul_mod(a, b, p)) == ref_mul_mod(a, b, p)
    assert len(school) == (la <= _k._TINY and lb <= _k._TINY)


@pytest.mark.parametrize("p", [2, 97, 65521])
@pytest.mark.parametrize("short, long", [
    (_k._KRONECKER_CUTOFF, _k._KRONECKER_CUTOFF),
    (_k._KRONECKER_CUTOFF + 1, _k._KRONECKER_CUTOFF + 1),
    (_k._KRONECKER_CUTOFF, 4 * _k._KRONECKER_CUTOFF + 1),
    (_k._KRONECKER_CUTOFF + 1, 4 * _k._KRONECKER_CUTOFF + 1),
])
def test_mul_mod_at_the_kronecker_cutoff(p, short, long, monkeypatch):
    packed = spy(monkeypatch, "_mul_kronecker_mod")
    rng = random.Random(short * 7 + long + p)
    a, b = vec(rng, long, p), vec(rng, short, p)
    assert lists(_k.mul_mod(a, b, p)) == ref_mul_mod(a, b, p)
    assert lists(_k.mul_mod(b, a, p)) == ref_mul_mod(a, b, p)
    assert len(packed) == 2 * (short > _k._KRONECKER_CUTOFF)


def test_mul_mod_packs_past_the_int64_bound_at_any_length(monkeypatch):
    packed = spy(monkeypatch, "_mul_kronecker_mod")
    rng = random.Random(31)
    # (2^31 - 2)^2 is just below 2^62: a single coefficient of the shorter
    # operand still fits the int64 convolution, two do not
    for p in (P31, M61):
        for la, lb in ((_k._TINY + 1, 1), (_k._TINY + 1, 2), (40, 40)):
            a, b = vec(rng, la, p), vec(rng, lb, p)
            before = len(packed)
            assert lists(_k.mul_mod(a, b, p)) == ref_mul_mod(a, b, p)
            fits = min(la, lb) * (p - 1) ** 2 < _k._I64_SAFE
            assert len(packed) - before == (not fits)
    assert len(packed) == 5


# operand lengths for the cyclic product's packed-width cases
CYCLIC_WIDTH_LENGTHS = (_k._TINY + 1, 8, 64, 300)


def _width_cases(lengths=(1, 2, 8, 64, 300)):
    """(p, length) per packed width: the first hit for each width 1..9."""
    cases = {}
    for length in lengths:
        for p in PRIMES:
            w = _k._width(length * (p - 1) ** 2)
            cases.setdefault(w, (p, length))
    return cases


def test_width_cases_cover_one_through_nine_bytes():
    assert set(range(1, 10)) <= set(_width_cases())
    assert set(range(1, 10)) <= set(_width_cases(CYCLIC_WIDTH_LENGTHS))


@pytest.mark.parametrize("width", range(1, 10))
def test_kronecker_product_at_each_packed_width(width):
    p, length = _width_cases()[width]
    rng = random.Random(width)
    for la, lb in ((length, length), (length, length + 3), (length + 5, length)):
        a, b = vec(rng, la, p), vec(rng, lb, p)
        # the extreme coefficient p - 1 everywhere hits the width's bound
        top = [p - 1] * la, [p - 1] * lb
        for x, y in ((a, b), top):
            assert lists(_k._mul_kronecker_mod(x, y, p)) == ref_mul_mod(x, y, p)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 8, 9, 16])
def test_pack_unpack_round_trip(width):
    rng = random.Random(width)
    top = 256**width - 1
    cs = [0, top, 1, top - 1] + [rng.randrange(top + 1) for _ in range(40)] + [top]
    x = _k._pack(cs, width)
    # past the top coefficient at widths 1..7 and 9, so there x reads back as cs
    for p in (97, P63_TOP if width <= 8 else M89):
        assert _k._unpack(x, width, len(cs), p).tolist() == [c % p for c in cs]


def test_exact_width_is_the_byte_length_of_the_bound():
    assert _k._width(1) == 1
    assert _k._width(255) == 1
    assert _k._width(256) == 2
    # p <= 100 and n <= 500: three bytes, not eight
    assert _k._width(500 * 96 * 96) == 3
    assert _k._width(2**64 - 1) == 8
    assert _k._width(2**64) == 9


@pytest.mark.parametrize("la, lb", [
    (_k._TINY, _k._TINY),
    (_k._TINY + 1, _k._TINY),
    (_k._KRONECKER_CUTOFF, _k._KRONECKER_CUTOFF + 1),
    (_k._KRONECKER_CUTOFF + 1, _k._KRONECKER_CUTOFF + 1),
])
@pytest.mark.parametrize("height", [3, 1 << 20, 1 << 40, 1 << 70])
def test_mul_int_signed_against_schoolbook(la, lb, height):
    rng = random.Random(la + lb + height)
    a = [rng.randint(-height, height) for _ in range(la)]
    b = [rng.randint(-height, height) for _ in range(lb)]
    a[0], b[-1] = -height, height  # the extremes, with both signs
    assert _k.mul_int(a, b) == ref_mul(a, b)


def test_mul_int_packed_widths_with_both_signs():
    rng = random.Random(7)
    # bound = min(la, lb) * ha * hb at 8, 9 and 17 bytes
    for height, la, lb in ((1 << 31, 40, 41), (1 << 32, 40, 41), (1 << 63, 33, 50)):
        a = [rng.choice((-1, 1)) * rng.randrange(height) for _ in range(la)]
        b = [rng.choice((-1, 1)) * rng.randrange(height) for _ in range(lb)]
        a[-1], b[0] = height, -height
        assert _k.mul_int(a, b) == ref_mul(a, b)


# ---------------------------------------------------------------------------
# division


def _check_divrem(a, b, p):
    q, r = lists(_k.divrem_mod(a, b, p))
    assert (q, r) == ref_divrem(a, b, p)


@pytest.mark.parametrize("m", [_k._DIV_SHORT - 1, _k._DIV_SHORT])
@pytest.mark.parametrize("steps", [1, 2, 64, 300])
@pytest.mark.parametrize("p", [2, 97, 65521])
def test_divrem_at_the_divisor_degree_cutoff(m, steps, p, monkeypatch):
    newton = spy(monkeypatch, "_divrem_newton")
    rng = random.Random(m * 1000 + steps + p)
    b = vec(rng, m + 1, p)
    a = vec(rng, m + steps, p)
    for divisor in (b, b[:-1] + [1]):
        del newton[:]
        assert lists(_k.divrem_mod(a, divisor, p)) == ref_divrem(a, divisor, p)
        assert len(newton) == newton_taken(m, steps)
    a, b = worst_division(p, m, steps)
    _check_divrem(a, b, p)


def _prime_at_or_below(n):
    from pretzelslice import numth

    while not numth.is_prime(n):
        n -= 1
    return n


def worst_division(p, m, steps):
    """Dividend and divisor whose quotient is all p - 1 against a divisor
    of p - 1's: every step subtracts the most, (p-1)^2, from every entry
    below the lead, and the entries grow as fast as they can."""
    b = [p - 1] * m + [1]
    a = [(k - 1) % p for k in range(m + steps - 1, 0, -1)] + [p - 1]
    return a, b


@pytest.mark.parametrize("p_bits", [26, 28, 30])
def test_divrem_at_the_int64_step_bound(p_bits, monkeypatch):
    """The longest division whose lazily reduced entries stay below 2^62,
    and one step more.

    Division checks no such bound: the loop runs on Python ints and the
    reciprocal's products go through `mul_mod`, so both sides take the
    route their shape gives (the loop at 2^30, the reciprocal below).
    """
    newton = spy(monkeypatch, "_divrem_newton")
    p = _prime_at_or_below(1 << p_bits)
    most = (_k._I64_SAFE - p - 1) // ((p - 1) ** 2)
    assert most * (p - 1) ** 2 + p < _k._I64_SAFE <= (most + 1) * (p - 1) ** 2 + p
    m = max(_k._DIV_SHORT, most + 1)
    rng = random.Random(p)
    for steps in (most, most + 1):
        del newton[:]
        a, b = worst_division(p, m, steps)
        q, r = lists(_k.divrem_mod(a, b, p))
        assert q == [p - 1] * steps
        assert (q, r) == ref_divrem(a, b, p)
        a, b = vec(rng, m + steps, p), vec(rng, m + 1, p)
        assert lists(_k.divrem_mod(a, b, p)) == ref_divrem(a, b, p)
        assert len(newton) == 2 * newton_taken(m, steps)


def test_divrem_with_moduli_past_int64():
    rng = random.Random(61)
    for p in (M61, (1 << 89) - 1):
        for la, lb in ((5, 1), (64, 9), (130, 64), (80, _k._DIV_SHORT + 1)):
            _check_divrem(vec(rng, la, p), vec(rng, lb, p), p)
        a, b = worst_division(p, 40, 40)
        _check_divrem(a, b, p)


# -- the reciprocal (Newton) path

NEWTON_PRIMES = (2, 3, 97, M61, (1 << 89) - 1)


def newton_taken(m, steps):
    """Whether `divrem_mod` should divide by a reciprocal (its docstring)."""
    return m >= _k._DIV_SHORT and steps >= _k._NEWTON_MIN


# (divisor degree, quotient length) around the cutoffs c = _NEWTON_MIN and
# short = _DIV_SHORT; the four "short" corners straddle both at once
NEWTON_SHAPES = {
    "c-1/c": lambda c: (c - 1, c),
    "c/c": lambda c: (c, c),
    "c/c-1": lambda c: (c, c - 1),
    "c-1/c-1": lambda c: (c - 1, c - 1),
    "short-1/c-1": lambda c: (_k._DIV_SHORT - 1, c - 1),
    "short-1/c": lambda c: (_k._DIV_SHORT - 1, c),
    "short/c-1": lambda c: (_k._DIV_SHORT, c - 1),
    "short/c": lambda c: (_k._DIV_SHORT, c),
    "short/3c": lambda c: (_k._DIV_SHORT, 3 * c),
    "3c/c": lambda c: (3 * c, c),
}


@pytest.mark.parametrize("p", NEWTON_PRIMES)
@pytest.mark.parametrize("shape", list(NEWTON_SHAPES))
def test_divrem_at_the_newton_cutoff(p, shape, monkeypatch):
    m, steps = NEWTON_SHAPES[shape](_k._NEWTON_MIN)
    newton = spy(monkeypatch, "_divrem_newton")
    rng = random.Random(m * 1000 + steps + p % 1000)
    b = vec(rng, m + 1, p)
    cases = [(vec(rng, m + steps, p), b), (vec(rng, m + steps, p), b[:-1] + [1]),
             worst_division(p, m, steps)]
    for a, divisor in cases:
        del newton[:]
        assert lists(_k.divrem_mod(a, divisor, p)) == ref_divrem(a, divisor, p)
        assert len(newton) == newton_taken(m, steps)


@pytest.mark.parametrize("p", [2, 97, M61])
def test_divrem_newton_with_a_kept_reciprocal(p):
    """A reciprocal taken once at the largest precision serves each later
    division by the same divisor with a quotient no longer than it."""
    rng = random.Random(p % 1000 + 20)
    for m in (_k._DIV_SHORT, 40):
        b = vec(rng, m + 1, p)
        kept = _k._reciprocal(b[::-1], 64, p)
        for steps in (1, 2, 31, 32, 63, 64):
            a = vec(rng, m + steps, p)
            want = ref_divrem(a, b, p)
            assert lists(_k._divrem_newton(a, b, p, kept)) == want, (m, steps)
            assert lists(_k._divrem_newton(a, b, p)) == want, (m, steps)
        assert lists(kept) == lists(_k._reciprocal(b[::-1], 64, p))

@pytest.mark.parametrize("p", [2, 3, 97])
@pytest.mark.parametrize("m", [_k._DIV_SHORT, 300])
@pytest.mark.parametrize("steps", [_k._KRONECKER_CUTOFF + 1, 600])
def test_divrem_newton_with_quotients_past_the_kronecker_cutoff(p, m, steps, monkeypatch):
    newton = spy(monkeypatch, "_divrem_newton")
    packed = spy(monkeypatch, "_mul_kronecker_mod")
    rng = random.Random(m + steps + p)
    for a, b in ((vec(rng, m + steps, p), vec(rng, m + 1, p)), worst_division(p, m, steps)):
        assert lists(_k.divrem_mod(a, b, p)) == ref_divrem(a, b, p)
    assert len(newton) == 2
    # rev(a) times the reciprocal: both operands have `steps` coefficients
    assert len(packed) >= 2


@pytest.mark.parametrize("p_bits", [26, 27])
def test_divrem_newton_at_the_int64_step_bound(p_bits, monkeypatch):
    """At the longest quotient whose products all meet the int64 bound,
    and one past it.

    Every product of the reciprocal path has a shorter operand of at
    most `steps` coefficients, so at `most` steps the bound covers them
    all: at 2^27 `most` is 256 = `_KRONECKER_CUTOFF`, and every product
    convolves in int64; at 2^26 it is 1024, and the long ones pack.  One
    step more, the product with rev(a) has `most` + 1 coefficients on
    both sides and packs, exact, at either prime.
    """
    newton = spy(monkeypatch, "_divrem_newton")
    packed = spy(monkeypatch, "_mul_kronecker_mod")
    p = _prime_at_or_below(1 << p_bits)
    most = (_k._I64_SAFE - p - 1) // ((p - 1) ** 2)
    assert most >= _k._NEWTON_MIN
    for steps in (most, most + 1):
        del newton[:], packed[:]
        a, b = worst_division(p, most + 1, steps)
        q, r = lists(_k.divrem_mod(a, b, p))
        assert q == [p - 1] * steps
        assert (q, r) == ref_divrem(a, b, p)
        assert len(newton) == 1
        assert bool(packed) == (steps > most or most > _k._KRONECKER_CUTOFF)


# the division bound for P_MID: 115 steps * (P_MID - 1)^2 + P_MID < 2^62
LAST_I64_DIV = 115


@pytest.mark.parametrize("steps", [LAST_I64_DIV, LAST_I64_DIV + 1])
def test_divrem_newton_products_at_the_int64_bound(steps, monkeypatch):
    """P_MID puts the int64 bound at 115 steps, below the Kronecker cutoff.

    With divisors longer than the quotient, the quotient and the divisor
    are all p - 1, so the product q * b reaches 115 (p-1)^2 at 115 steps,
    where every product of the reciprocal path convolves in int64; at
    116 the products with `steps` coefficients on both sides pack, and
    the division still takes the reciprocal.
    """
    p = P_MID
    assert LAST_I64_DIV * (p - 1) ** 2 + p < _k._I64_SAFE <= (LAST_I64_DIV + 1) * (p - 1) ** 2 + p
    newton = spy(monkeypatch, "_divrem_newton")
    packed = spy(monkeypatch, "_mul_kronecker_mod")
    for m in (LAST_I64_DIV + 1, 200):
        a, b = worst_division(p, m, steps)
        q, r = lists(_k.divrem_mod(a, b, p))
        assert q == [p - 1] * steps
        assert (q, r) == ref_divrem(a, b, p)
    rng = random.Random(steps)
    cut = _k._NEWTON_MIN
    a, b = vec(rng, cut + steps, p), vec(rng, cut + 1, p)
    assert lists(_k.divrem_mod(a, b, p)) == ref_divrem(a, b, p)
    assert len(newton) == 3
    assert bool(packed) == (steps > LAST_I64_DIV)


def ref_inverse_series(f, k, p):
    """The first k coefficients of 1/f, one at a time."""
    inv = pow(f[0], -1, p)
    g = []
    for i in range(k):
        acc = 1 if i == 0 else 0
        for j in range(1, min(i, len(f) - 1) + 1):
            acc -= f[j] * g[i - j]
        g.append(acc * inv % p)
    return g


@pytest.mark.parametrize("p", NEWTON_PRIMES)
def test_reciprocal_inverts_mod_every_power_of_t(p):
    # rev(b) * g = 1 mod t^k; the inverse mod t^k is unique, so it is the
    # first k coefficients of the power series 1 / rev(b)
    rng = random.Random(p % 10007)
    for length in (2, 301):
        f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(length - 1)]
        want = ref_inverse_series(f, 300, p)
        for k in range(1, 301):
            assert lists(_k._reciprocal(f, k, p)) == want[:k], (length, k)


def test_divrem_short_dividend_and_zero_divisor():
    assert lists(_k.divrem_mod([1, 2], [3, 4, 5], 7)) == ([], [1, 2])
    assert lists(_k.divrem_mod([0, 0], [1, 1], 7)) == ([], [])
    with pytest.raises(ZeroDivisionError):
        _k.divrem_mod([1, 2], [0, 0], 7)


# the moduli of the exactness tests: Euclid runs in place up to 65521, the
# kernels hold int64 arrays up to P63_TOP and Python ints at M89
EXACT_PRIMES = (2, 3, 97, 65521, M61, P63_TOP, M89)


def array_of(cs, p):
    return np.array(cs, dtype=_k.cyclic_dtype(p))


@pytest.mark.parametrize("p", EXACT_PRIMES)
def test_divrem_over_the_shape_grid(p, monkeypatch):
    """`divrem_mod` against `ref_divrem` over m x steps, on lists and on
    arrays, which it leaves as they were.  Below `_NEWTON_MIN` steps, where
    `_TOP_MIN`'s rule holds, the loop sees only the top `steps`
    coefficients of the divisor; a kept reciprocal takes every shape from
    m = `_DIV_SHORT` on to Newton."""
    loops = spy(monkeypatch, "_divrem_loop")
    newton = spy(monkeypatch, "_divrem_newton")
    rng = random.Random(p % 10007)
    for m in (1, _k._DIV_SHORT - 1, _k._DIV_SHORT, _k._DIV_SHORT + 1, 32, 48, 128, 450):
        b = vec(rng, m + 1, p)
        kept = _k._reciprocal(b[::-1], 40, p)
        for steps in (1, 2, 8, 16, 17, 31, 32, 40):
            by_newton = newton_taken(m, steps)
            on_top = (steps + 1) * m >= 2 * steps * steps + _k._TOP_MIN
            top = steps if on_top else m + 1
            for a, d in ((vec(rng, m + steps, p), b), worst_division(p, m, steps)):
                want = ref_divrem(a, d, p)
                x, y = array_of(a, p), array_of(d, p)
                del loops[:], newton[:]
                assert lists(_k.divrem_mod(a, d, p)) == want, (m, steps)
                assert lists(_k.divrem_mod(x, y, p)) == want, (m, steps)
                assert x.tolist() == a and y.tolist() == d
                assert len(newton) == 2 * by_newton
                if not by_newton:  # else the reciprocal's first terms take the loop
                    assert [len(args[1]) for args in loops] == [top] * 2
            del newton[:]
            assert lists(_k.divrem_mod(a, b, p, kept)) == ref_divrem(a, b, p)
            assert len(newton) == (m >= _k._DIV_SHORT)


# ---------------------------------------------------------------------------
# gcd


@pytest.mark.parametrize("n", [_k._DIV_SHORT, _k._DIV_SHORT + 1, _k._DIV_SHORT + 2, 128, 129, 256])
@pytest.mark.parametrize("p", [2, 97, 65521, P31, M61])
def test_gcd_at_the_inplace_cutoff(n, p, monkeypatch):
    """Euclid in place once both inputs pass `_DIV_SHORT` under the int64
    bound, the division loop on lists while one has at most `_DIV_SHORT`,
    repeated `divrem_mod` otherwise (M61 never meets the bound)."""
    divisions = spy(monkeypatch, "divrem_mod")
    loops = spy(monkeypatch, "_divrem_loop")
    rng = random.Random(n + p)
    k = min(17, n // 2)
    g = vec(rng, k, p, top=1)
    u = vec(rng, n - k + 1, p)
    v = vec(rng, n - k + 2, p)
    a, b = ref_mul_mod(g, u, p), ref_mul_mod(g, v, p)
    coprime = vec(rng, n, p), vec(rng, n + 1, p)
    for x, y in ((a, b), (b, a), coprime):
        del divisions[:], loops[:]
        got = lists(_k.gcd_mod(x, y, p))
        assert got == ref_gcd(x, y, p)
        short = min(len(x), len(y)) <= _k._DIV_SHORT
        inplace = not short and max(len(x), len(y)) * (p - 1) ** 2 + p < _k._I64_SAFE
        assert bool(divisions) == (not short and not inplace)
        assert bool(loops) or not short
    assert len(_k.gcd_mod(a, b, p)) >= k


def test_gcd_of_zeros_and_units():
    assert lists(_k.gcd_mod([], [], 5)) == []
    assert lists(_k.gcd_mod([0, 3], [], 5)) == [0, 1]
    assert lists(_k.gcd_mod([2], [1, 1], 5)) == [1]


def euclid_lengths(a, b, p):
    """The lengths of dividend and divisor at each division of Euclid on
    a, b, longer first."""
    a, b = ref_trim(a), ref_trim(b)
    if len(a) < len(b):
        a, b = b, a
    out = []
    while b:
        out.append((len(a), len(b)))
        a, b = b, ref_divrem(a, b, p)[1]
    return out


def reductions(a, b, p):
    """The index and operand lengths of each division before which the
    in-place Euclid reduces mod p, by the bound in the `_kernels` docstring."""
    out, ha, hb = [], p - 1, p - 1
    for i, (la, lb) in enumerate(euclid_lengths(a, b, p)):
        steps = la - lb + 1
        if ha + steps * (p - 1) * hb >= _k._I64_SAFE:
            out.append((i, la, lb))
            ha = hb = p - 1
        ha, hb = hb, ha + steps * (p - 1) * hb
    return out


@pytest.mark.parametrize("p, n, crossing", [
    (2, 120, "many"), (3, 100, "many"), (97, 100, "many"),
    (65521, 100, 2), (200_000_033, 100, 1),  # P_MID: in place up to 115 coefficients
    (M61, 100, None), (P63_TOP, 60, None), (M89, 60, None),
])
def test_gcd_reduces_lazily_and_exactly(p, n, crossing, monkeypatch):
    """`gcd_mod` against repeated `ref_divrem`, on inputs whose in-place
    Euclid first reduces mod p after one, two or many divisions (past the
    int64 bound it divides repeatedly and never does), on lists and on
    arrays, which it leaves as they were.  The Euclid reduces dividend and
    divisor (two `np.remainder` calls) exactly where the bound says it must."""
    remainders = []
    remainder = np.remainder

    def counted(*args, **kwargs):
        remainders.append(args)
        return remainder(*args, **kwargs)

    monkeypatch.setattr(np, "remainder", counted)
    rng = random.Random(p % 10007 + n)
    k = 17
    g = vec(rng, k, p, top=1)
    a, b = ref_mul_mod(g, vec(rng, n - k + 1, p), p), ref_mul_mod(g, vec(rng, n - k, p), p)
    inplace = n * (p - 1) ** 2 + p < _k._I64_SAFE
    for x, y in ((a, b), (vec(rng, n, p), vec(rng, n - 1, p))):
        at = reductions(x, y, p) if inplace else []
        first = at[0][0] if at else None
        assert (first is not None and first >= 5) if crossing == "many" else first == crossing
        want = ref_gcd(x, y, p)
        del remainders[:]
        assert lists(_k.gcd_mod(x, y, p)) == want
        assert [len(args[0]) for args in remainders] == [n for _, la, lb in at for n in (la, lb)]
        xa, ya = array_of(x, p), array_of(y, p)
        assert lists(_k.gcd_mod(ya, xa, p)) == want
        assert xa.tolist() == x and ya.tolist() == y
    assert len(ref_gcd(a, b, p)) >= k


# ---------------------------------------------------------------------------
# the cyclic ring F_p[t]/(t^n - 1)


def ref_cyclic(a, b, n, p):
    out = [0] * n
    for k, c in enumerate(ref_mul(a, b)):
        out[k % n] += c
    return [c % p for c in out]


@pytest.mark.parametrize("n", [1, 2, _k._TINY, _k._TINY + 1, 97, _k._KRONECKER_CUTOFF + 1, 499])
@pytest.mark.parametrize("p", [2, 3, 97])
def test_ring_mul_is_the_product_reduced_mod_t_n_minus_1(n, p):
    rng = random.Random(n * 101 + p)
    a = [rng.randrange(p) for _ in range(n)]
    b = [rng.randrange(p) for _ in range(n)]
    got = _k.mul_cyclic_mod(a, b, n, p).tolist()
    assert len(got) == n
    assert got == ref_cyclic(a, b, n, p)
    # also against mul_mod followed by the reduction
    raw = lists(_k.mul_mod(a, b, p))
    want = [sum(raw[k::n]) % p for k in range(n)]
    assert got == want


def folded_mul_mod(a, b, n, p):
    """`mul_mod` followed by an explicit fold of the wrap-around."""
    raw = lists(_k.mul_mod(a, b, p))
    return [sum(raw[k::n]) % p for k in range(n)]


# a prime whose int64 bound falls between the schoolbook and Kronecker
# cutoffs: 115 * (P_MID - 1)^2 < 2^62 <= 116 * (P_MID - 1)^2
P_MID = 200_000_033
LAST_I64 = 115


def test_int64_bound_prime_is_where_the_tests_assume():
    assert LAST_I64 * (P_MID - 1) ** 2 < _k._I64_SAFE <= (LAST_I64 + 1) * (P_MID - 1) ** 2
    assert _k._TINY < LAST_I64 < _k._KRONECKER_CUTOFF


@pytest.mark.parametrize("p", [2, 97, 65521])
@pytest.mark.parametrize("la, lb, n", [
    (_k._TINY, _k._TINY, _k._TINY),
    (_k._TINY, _k._TINY, _k._TINY + 3),
    (_k._TINY + 1, _k._TINY, _k._TINY + 1),
    (_k._TINY + 1, _k._TINY + 1, 2 * _k._TINY),
    (_k._KRONECKER_CUTOFF, _k._KRONECKER_CUTOFF, _k._KRONECKER_CUTOFF),
    (_k._KRONECKER_CUTOFF, 300, 300),
    (_k._KRONECKER_CUTOFF + 1, _k._KRONECKER_CUTOFF + 1, _k._KRONECKER_CUTOFF + 1),
    (_k._KRONECKER_CUTOFF + 1, 300, 400),
])
def test_mul_cyclic_mod_at_the_path_cutoffs(p, la, lb, n, monkeypatch):
    school = spy(monkeypatch, "_mul_school")
    packed = spy(monkeypatch, "_pack")
    rng = random.Random(la * 1000 + lb * 10 + n + p)
    a, b = vec(rng, la, p), vec(rng, lb, p)
    for x, y in ((a, b), (b, a), ([p - 1] * la, [p - 1] * lb)):
        del school[:], packed[:]
        got = _k.mul_cyclic_mod(x, y, n, p).tolist()
        assert not school
        assert len(packed) == 2  # packed on every shape
        assert got == folded_mul_mod(x, y, n, p) == ref_cyclic(x, y, n, p)


@pytest.mark.parametrize("short", [LAST_I64, LAST_I64 + 1])
def test_mul_cyclic_mod_at_the_int64_bound(short, monkeypatch):
    packed = spy(monkeypatch, "_pack")
    rng = random.Random(short)
    p = P_MID
    for la, lb, n in ((short, short, short), (short, 200, 200), (200, short, 250)):
        # all coefficients p - 1 and la = lb = n: every folded coefficient
        # is exactly short * (p - 1)^2, the bound itself
        for x, y in ((vec(rng, la, p), vec(rng, lb, p)), ([p - 1] * la, [p - 1] * lb)):
            before = len(packed)
            got = _k.mul_cyclic_mod(x, y, n, p).tolist()
            assert len(packed) - before == 2  # packed on both sides of the bound
            assert got == ref_cyclic(x, y, n, p)
            assert got == folded_mul_mod(x, y, n, p)


@pytest.mark.parametrize("width", range(1, 10))
def test_mul_cyclic_mod_at_each_packed_width(width, monkeypatch):
    packed = spy(monkeypatch, "_pack")
    p, n = _width_cases(CYCLIC_WIDTH_LENGTHS)[width]
    rng = random.Random(width)
    for la, lb in ((n, n), (n, n - 1), (n - 2, n), (n // 2 + 1, n // 2 + 1)):
        for x, y in ((vec(rng, la, p), vec(rng, lb, p)), ([p - 1] * la, [p - 1] * lb)):
            del packed[:]
            assert _k.mul_cyclic_mod(x, y, n, p).tolist() == ref_cyclic(x, y, n, p)
            assert [w for _, w in packed] == [_k._width(min(la, lb) * (p - 1) ** 2)] * 2
            if la == lb == n:
                assert packed[0][1] == width


@pytest.mark.parametrize("n", [1, 3, _k._TINY + 1, 40, _k._KRONECKER_CUTOFF + 1])
def test_mul_cyclic_mod_with_the_mersenne_prime(n):
    rng = random.Random(n)
    p = M61
    for la, lb in ((n, n), (1, n), (max(1, n // 2), max(1, n - 1))):
        for x, y in ((vec(rng, la, p), vec(rng, lb, p)), ([p - 1] * la, [p - 1] * lb)):
            got = _k.mul_cyclic_mod(x, y, n, p).tolist()
            assert got == folded_mul_mod(x, y, n, p) == ref_cyclic(x, y, n, p)


@pytest.mark.parametrize("p", [2, 97, P31])
def test_mul_cyclic_mod_with_operands_shorter_than_n(p):
    rng = random.Random(p)
    for n in (7, 64, 300, 499):
        # la + lb - 1 below n (no wrap), exactly n, and past it
        for la, lb in ((1, 1), (n // 3, n // 3), (n // 2, n - n // 2 + 1),
                       (n - 1, 2), (n - 1, n - 1), (n, n // 4 + 1)):
            a, b = vec(rng, la, p), [0] * (lb - 1) + [1]
            c = vec(rng, lb, p)
            for x, y in ((a, b), (a, c), (c, a)):
                got = _k.mul_cyclic_mod(x, y, n, p).tolist()
                assert len(got) == n
                assert got == folded_mul_mod(x, y, n, p) == ref_cyclic(x, y, n, p)


def test_mul_cyclic_mod_rejects_operands_outside_the_ring():
    with pytest.raises(ValueError):
        _k.mul_cyclic_mod([1, 2, 3], [1], 2, 5)
    with pytest.raises(ValueError):
        _k.mul_cyclic_mod([], [1], 2, 5)


@pytest.mark.parametrize("n", [1, 3, _k._TINY, _k._TINY + 1, 64, _k._KRONECKER_CUTOFF,
                               _k._KRONECKER_CUTOFF + 1, 499])
@pytest.mark.parametrize("p", [2, 97, 65521, M61])
def test_mul_cyclic_mod_on_int64_arrays_and_squares(n, p, monkeypatch):
    """int64 arrays in, an int64 array of n coefficients out, at every shape.

    Every product packs; a square (the same object twice) packs once, and
    its value is still `mul_mod` followed by an explicit fold.
    """
    packed = spy(monkeypatch, "_pack")
    rng = random.Random(n * 7 + p % 1000)
    x = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
    y = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
    for u, v, packs in ((x, y, 2), (x, x, 1), (y[: n // 2 + 1], x, 2)):
        del packed[:]
        before = u.copy(), v.copy()
        got = _k.mul_cyclic_mod(u, v, n, p)
        assert len(packed) == packs
        assert got.dtype == np.int64 and got.shape == (n,)
        assert got.tolist() == folded_mul_mod(u.tolist(), v.tolist(), n, p)
        assert (u == before[0]).all() and (v == before[1]).all()


@pytest.mark.parametrize("n", [1, 3, _k._TINY, _k._TINY + 1, 64, _k._KRONECKER_CUTOFF + 1])
@pytest.mark.parametrize("p", [P63_TOP, P64, M89])
def test_mul_cyclic_mod_past_int64(n, p):
    """Moduli at 2^63 and beyond: ring elements hold Python ints, exact on every path."""
    dtype = _k.cyclic_dtype(p)
    assert dtype == (np.int64 if p < 1 << 63 else object)
    rng = random.Random(n + p % 1000)
    x = np.array([rng.randrange(p) for _ in range(n)], dtype=dtype)
    y = np.array([rng.randrange(p) for _ in range(n)], dtype=dtype)
    top = np.array([p - 1] * n, dtype=dtype)
    for u, v in ((x, y), (x, x), (y[: n // 2 + 1], x), (top, top), (x.tolist(), y.tolist())):
        got = _k.mul_cyclic_mod(u, v, n, p)
        assert got.dtype == dtype and got.shape == (n,)
        a, b = [int(c) for c in u], [int(c) for c in v]
        assert got.tolist() == folded_mul_mod(a, b, n, p) == ref_cyclic(a, b, n, p)
