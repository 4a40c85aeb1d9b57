"""Low-level coefficient kernels for dense polynomial arithmetic.

A polynomial is a coefficient sequence in ascending exponent order.
The kernels over F_p take arrays (or any sequences) and return arrays
of dtype `cyclic_dtype(p)`, int64 while [0, p) fits and Python ints
beyond, so `factor` keeps its operands as arrays from call to call and
`poly` converts only at its boundary.  Everything is exact: int64 sums
are formed only where a worst-case bound rules out overflow, and long
products go through Kronecker substitution (packing coefficients into
one big integer), which is exact for any modulus.

Which path a call takes depends on p and the operand lengths:

* multiplication: Python schoolbook while both operands have at most
  `_TINY` coefficients, `np.convolve` while the shorter one has at most
  `_KRONECKER_CUTOFF` and the int64 bound holds, packing otherwise; the
  cyclic product in F_p[t]/(t^n - 1) always packs and folds before it
  reduces; over Z (`mul_int`, lists in and out) `np.convolve` at any
  length while the int64 bound holds, schoolbook otherwise;
* division: a reciprocal by Newton iteration for long quotients, the
  Python loop on the top coefficients for short quotients by long
  divisors, and the loop on the whole operands otherwise (`divrem_mod`);
* gcd: Euclid on int64 arrays held across steps once both inputs have
  more than `_DIV_SHORT` coefficients and the int64 bound holds, the
  division loop on Python ints while one has at most `_DIV_SHORT`
  (every division takes it there), repeated `divrem_mod` otherwise.
  The int64 Euclid reduces mod p lazily.
  A division with s quotient steps subtracts at most s multiples c y,
  c < p, of each divisor entry y, so if the dividend's entries are
  bounded by A and the divisor's by B, the remainder's are by
  A + s (p-1) B.  Euclid carries these bounds from one division to the
  next and reduces both operands only when the next bound would reach
  2^62; from reduced operands one division always fits.

These helpers are internal; `poly` wraps them in value types and the
`factor` module drives them at scale.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

# Safety margin for int64 accumulation (numpy gives no overflow traps).
_I64_SAFE = 1 << 62

# Cutoffs timed at p = 97 on operands of 4..4096 coefficients (numpy 2.4,
# CPython 3.11, 2 vCPUs; times in microseconds).
# In `mul_mod` and `mul_int` schoolbook wins while both operands have at
# most _TINY coefficients (mul_mod 4 x 4: 5.0 against 6.7 for np.convolve;
# 6 x 6: 5.9 against 4.4).
_TINY = 5
# np.convolve costs about la * lb, Kronecker packing at the exact byte
# width about (la + lb)^1.6, so the shorter operand decides: packing wins
# once it has more than this many coefficients, at any longer length
# (256 x 256: 53 convolve, 58 packed; 384 x 384: 98 and 90; 4096 x 128:
# 613 and 744; 4096 x 256: 1099 and 953).
_KRONECKER_CUTOFF = 256
# `gcd_mod` runs Euclid in place once both inputs are longer than this
# (with a common factor, p = 97: 41 coefficients 326 against 476 by
# repeated division, 161: 712 against 2889; 16: 120 against 89); it
# breaks even near 20 coefficients (BENCH_11.json).
_DIV_SHORT = 16
# `divrem_mod` divides by a reciprocal once the divisor has degree at
# least _DIV_SHORT and the quotient at least _NEWTON_MIN coefficients.
# Loop time over reciprocal time on random divisions at 32 steps, two
# runs, divisor degrees 16, 48, 128 and 484 (BENCH_15.json):
#   p = 2:     0.36 0.92 1.24 2.24 | 0.38 0.90 1.74 3.47
#   p = 97:    0.75 1.04 5.57 13.5 | 0.75 1.56 3.46 8.75
#   p = 65521: 0.89 2.11 4.49 10.7 | 0.89 1.97 3.94 11.0
# The loop wins at low degree, the reciprocal from degree 48 or so.  On
# the division calls of one oracle_grid pass, replayed (seed 3, 9266
# calls, ms), the cutoff reads 16: 635, 24: 621, 32: 620, 48: 627, 64:
# 650, 96: 727.
_NEWTON_MIN = 32
# Below that, the quotient comes from the top coefficients where (steps
# + 1) m >= 2 steps^2 + _TOP_MIN: the loop costs about m (steps + 1) scalar
# steps, the top route 2 steps^2 and a fixed cost of about _TOP_MIN of
# them (fitted at p = 97, m = 16..128, steps = 1..31; BENCH_24.json).
_TOP_MIN = 160


def cyclic_dtype(p: int):
    """Array dtype for coefficients mod p: int64 while [0, p) fits, else object."""
    return np.int64 if p < 1 << 63 else object


def trim(cs):
    """cs without trailing (highest-exponent) zeros (cs or a slice of it); empty is zero."""
    n = len(cs)
    if not n or cs[n - 1] != 0:
        return cs
    nonzero = np.flatnonzero(cs)
    return cs[: int(nonzero[-1]) + 1 if len(nonzero) else 0]


# ---------------------------------------------------------------------------
# multiplication


def _mul_school(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _width(bound: int) -> int:
    """Bytes per packed coefficient for coefficients in [0, bound]."""
    return max(1, (bound.bit_length() + 7) // 8)


def _pack(cs: Sequence[int], width: int) -> int:
    """Pack coefficients in [0, 256**width) into one integer, `width` bytes apiece."""
    if width <= 8:
        words = np.asarray(cs, dtype="<u8")
        buf = words.view(np.uint8).reshape(-1, 8)[:, :width].tobytes()
    else:
        buf = b"".join(int(c).to_bytes(width, "little") for c in cs)
    return int.from_bytes(buf, "little")


def _unpack(x: int, width: int, count: int, p: int) -> np.ndarray:
    """The `count` coefficients packed in x, reduced mod p, of dtype `cyclic_dtype(p)`."""
    buf = x.to_bytes(width * count, "little")
    if width <= 8:
        wide = np.zeros((count, 8), dtype=np.uint8)
        wide[:, :width] = np.frombuffer(buf, np.uint8).reshape(count, width)
        return (wide.view("<u8").reshape(count) % p).astype(np.int64)
    cs = [int.from_bytes(buf[i * width : (i + 1) * width], "little") % p for i in range(count)]
    return np.array(cs, dtype=cyclic_dtype(p))


def _mul_kronecker_mod(a, b, p: int) -> np.ndarray:
    """Exact product of mod-p coefficient vectors via integer packing.

    Every product coefficient lies in [0, min(la, lb) * (p-1)^2], so
    that many bytes per coefficient keep the packed digits apart.
    """
    width = _width(min(len(a), len(b)) * (p - 1) * (p - 1))
    return _unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1, p)


def mul_mod(a, b, p: int) -> np.ndarray:
    """Product of two coefficient vectors, reduced mod p, not trimmed."""
    dtype = cyclic_dtype(p)
    a, b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return np.zeros(0, dtype=dtype)
    if la <= _TINY and lb <= _TINY:
        return np.array([c % p for c in _mul_school(a.tolist(), b.tolist())], dtype=dtype)
    short = min(la, lb)
    if short <= _KRONECKER_CUTOFF and short * (p - 1) * (p - 1) < _I64_SAFE:
        return np.convolve(a, b) % p
    return _mul_kronecker_mod(a, b, p)


def mul_cyclic_mod(a: np.ndarray, b: np.ndarray, n: int, p: int) -> np.ndarray:
    """a * b mod (t^n - 1, p) as an array of n coefficients, not trimmed.

    The operands are arrays (or sequences) of 1..n coefficients in
    [0, p), so that ring elements stay arrays from one product to the
    next; the result has dtype `cyclic_dtype(p)`, int64 where [0, p)
    fits and Python ints beyond, so the ring is exact at any p.

    Coefficient k of the cyclic product is the sum of a_i b_j over
    i + j = k (mod n).  For each i at most one j < len(b) <= n is in
    that class, and symmetrically, so every coefficient is a sum of at
    most min(la, lb) products of size (p-1)^2: the bound of `mul_mod`.
    Packed at that width (Kronecker substitution), the product folds
    exactly before its one reduction mod p: with w-byte digits, t^n - 1
    becomes 2^(8wn) - 1, so the high half is added onto the low half,
    and the digits of the sum are the cyclic coefficients, each still
    below 256^w.  A square (a is b) packs once, and CPython squares a
    big integer faster than it multiplies two.  Every shape packs: the
    ring is used only where n > 173 (`factor._ORBIT_CELLS`), and there
    np.convolve was no faster on the squares that dominate a power.
    """
    square = a is b
    dtype = cyclic_dtype(p)
    a, b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
    la, lb = len(a), len(b)
    if not (0 < la <= n and 0 < lb <= n):
        raise ValueError(f"operand lengths {la}, {lb} outside 1..{n}")
    width = _width(min(la, lb) * (p - 1) * (p - 1))
    x = _pack(a, width)
    x = x * x if square else x * _pack(b, width)
    shift = 8 * width * n
    x = (x & ((1 << shift) - 1)) + (x >> shift)
    return _unpack(x, width, n, p)


def mul_int(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Exact product over the integers, not trimmed."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    if la > _TINY or lb > _TINY:
        ha = max(abs(c) for c in a)
        hb = max(abs(c) for c in b)
        if min(la, lb) * ha * hb < _I64_SAFE:
            out = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
            return out.tolist()
    return _mul_school(a, b)


# ---------------------------------------------------------------------------
# division


def _divrem_loop(a: List[int], b: List[int], p: int):
    """Long division of trimmed lists, len(a) > len(b) - 1, on Python ints.

    Reduces lazily: the leading entry is reduced when its quotient
    coefficient is read off, the others only once, in the remainder.
    """
    m = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    q = [0] * (len(a) - m)
    r = list(a)
    low = b[:m]
    for i in range(len(q) - 1, -1, -1):
        c = (r[i + m] * inv_lead) % p
        q[i] = c
        if c:
            for j, y in enumerate(low, i):
                r[j] -= c * y
    return q, trim([x % p for x in r[:m]])


def divrem_mod(a, b, p: int, inv=None):
    """Quotient and remainder over F_p, as trimmed arrays; `b` must be nonzero.

    With m = deg b and steps quotient coefficients, the quotient comes
    from `_divrem_newton` once m >= `_DIV_SHORT` and steps >=
    `_NEWTON_MIN`, or a kept reciprocal `inv` (rev(b)^-1 mod t^k, k >=
    steps) is given.  Below that, by `_TOP_MIN`'s rule (which implies
    m >= 32 and c = m + 1 - steps > 0), it comes from the loop on the
    top coefficients: with a = t^c A + a0, b = t^c B + b0 and deg a0,
    deg b0 < c, Q = A quo B leaves a - Q b = t^c (A - Q B) + a0 - Q b0
    of degree below m, so Q is the quotient; the remainder takes one
    product.  Otherwise the loop runs on the whole operands.
    """
    dtype = cyclic_dtype(p)
    b = trim(np.asarray(b, dtype=dtype))
    if not len(b):
        raise ZeroDivisionError("polynomial division by zero")
    a = trim(np.asarray(a, dtype=dtype))
    m = len(b) - 1
    steps = len(a) - m
    if steps <= 0:
        return a[:0], a
    if m >= _DIV_SHORT and (steps >= _NEWTON_MIN or inv is not None):
        return _divrem_newton(a, b, p, inv)
    if (steps + 1) * m >= 2 * steps * steps + _TOP_MIN:
        q = _divrem_loop(a[1 - 2 * steps :].tolist(), b[-steps:].tolist(), p)[0]
        q = np.array(q, dtype=dtype)
        return q, trim((a[:m] - mul_mod(q, b[:m], p)[:m]) % p)
    q, r = _divrem_loop(a.tolist(), b.tolist(), p)
    return np.array(q, dtype=dtype), np.array(r, dtype=dtype)


def _reciprocal(f, k: int, p: int) -> np.ndarray:
    """The k coefficients of g with f * g = 1 (mod t^k, p); f[0] must be a unit.

    Newton iteration (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, 9.1): if f g = 1 mod t^h, then g - g (f g - 1) inverts f
    mod t^(2h).  The precision runs up through ceil(k / 2^i), so the
    last step lands on k exactly.  Going from h to l, f g - 1 is t^h D
    mod t^l, so the step appends the l - h coefficients of -g D mod
    t^(l-h) to g.  The first h <= `_DIV_SHORT` coefficients come from
    the loop, reversed, as the quotient of t^(2h-2) by rev(f mod t^h)
    (see `_divrem_newton`).
    """
    dtype = cyclic_dtype(p)
    precisions = []
    while k > _DIV_SHORT:
        precisions.append(k)
        k = (k + 1) // 2
    low = [0] * (k - len(f[:k])) + [int(c) for c in f[:k][::-1]]  # rev(f mod t^k)
    g = np.array(_divrem_loop([0] * (2 * k - 2) + [1], low, p)[0][::-1], dtype=dtype)
    for prec in reversed(precisions):
        h = len(g)
        delta = mul_mod(f[:prec], g, p)[h:prec]
        step = mul_mod(g[: prec - h], delta, p)[: prec - h]
        g = np.concatenate((g, -step % p, np.zeros(prec - h - len(step), dtype=dtype)))
    return g


def _divrem_newton(a, b, p: int, inv=None):
    """`divrem_mod` for trimmed a, b with deg a >= deg b, by one reciprocal.

    With m = deg b and steps = deg a - m + 1, reversal turns a = q b + r
    into rev(a) = rev(q) rev(b) (mod t^steps), and rev(b) starts with
    b's unit leading coefficient, so rev(q) = rev(a) / rev(b) mod
    t^steps: one `_reciprocal` and one product.  Then r = a - q b, of
    which only the m low coefficients are nonzero.  Every product goes
    through `mul_mod`, exact at any p, so this route needs no bound on p.
    A given `inv` = rev(b)^-1 mod t^k, k >= steps, is cut to t^steps.
    """
    m = len(b) - 1
    steps = len(a) - m
    g = _reciprocal(b[::-1], steps, p) if inv is None else inv[:steps]
    q = mul_mod(a[m:][::-1], g, p)[steps - 1 :: -1]
    return q, trim((a[:m] - mul_mod(q[:m], b[:m], p)[:m]) % p)


def gcd_mod(a, b, p: int) -> np.ndarray:
    """Monic gcd over F_p as an array (the zero polynomial for gcd(0, 0))."""
    dtype = cyclic_dtype(p)
    a, b = trim(np.asarray(a, dtype=dtype)), trim(np.asarray(b, dtype=dtype))
    short, long = sorted((len(a), len(b)))
    if short <= _DIV_SHORT:  # every division takes the loop: run it on lists
        a, b = sorted((a.tolist(), b.tolist()), key=len, reverse=True)
        while b:
            a, b = b, _divrem_loop(a, b, p)[1]
        a = np.array(a, dtype=dtype)
    elif long * (p - 1) * (p - 1) + p < _I64_SAFE:
        a = _gcd_mod_inplace(a, b, p)
    else:
        while len(b):
            a, b = b, divrem_mod(a, b, p)[1]
    if len(a) and a[-1] != 1:
        return mul_mod(a, [pow(int(a[-1]), -1, p)], p)
    return a


def _gcd_mod_inplace(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """A gcd, not yet monic, by Euclid on int64 arrays held across steps.

    Euclid reduces mod p only where the bound in the module docstring
    calls for it, with `ha` and `hb` bounding the entries of dividend
    and divisor.  The caller's bound makes one division from reduced
    operands fit, as its steps are fewer than max(len(a), len(b)).
    """
    ra = np.array(a, dtype=np.int64)  # copies: Euclid writes into both
    rb = np.array(b, dtype=np.int64)
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        ra, rb, da, db = rb, ra, db, da
    ha = hb = p - 1
    tmp = np.empty(max(da, db) + 1, dtype=np.int64)
    c = np.empty((), dtype=np.int64)  # numpy multiplies by it faster than by an int
    while db >= 0:
        grow = (da - db + 1) * (p - 1)  # times the divisor's bound
        if ha + grow * hb >= _I64_SAFE:
            np.remainder(ra[: da + 1], p, out=ra[: da + 1])
            np.remainder(rb[: db + 1], p, out=rb[: db + 1])
            ha = hb = p - 1
        inv = pow(rb.item(db), -1, p)
        t = tmp[:db]
        low = rb[:db]
        while da >= db:
            c[()] = (ra.item(da) * inv) % p
            if c:
                seg = ra[da - db : da]
                np.multiply(low, c, out=t)
                np.subtract(seg, t, out=seg)
            da -= 1
            while da >= 0 and ra.item(da) % p == 0:
                da -= 1
        ra, rb, da, db, ha, hb = rb, ra, db, da, hb, ha + grow * hb
    return ra[: da + 1] % p
