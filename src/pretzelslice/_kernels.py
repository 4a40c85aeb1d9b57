"""Low-level coefficient kernels for dense polynomial arithmetic.

Polynomials are plain sequences of Python ints in ascending exponent
order.  Everything here is exact: numpy int64 paths are taken only when
a worst-case bound shows no overflow is possible, and multiplication of
long operands goes through Kronecker substitution (packing coefficients
into one big integer), which is exact for any modulus.

Which path a call takes depends on the operand lengths:

* multiplication: plain Python schoolbook while both operands have at
  most `_TINY` coefficients, `np.convolve` while the shorter one has at
  most `_KRONECKER_CUTOFF`, Kronecker packing beyond (and whenever the
  int64 bound fails); the product in the cyclic ring F_p[t]/(t^n - 1)
  always packs, arrays in and an array out (int64 for p < 2^63, Python
  ints beyond), and folds the packed product before it reduces; over
  the integers (`mul_int`) `np.convolve` at any length while the int64
  bound holds, schoolbook otherwise;
* division: a reciprocal by Newton iteration, with every product
  through `mul_mod`, once the divisor has degree at least `_DIV_SHORT`
  and the quotient at least `_NEWTON_MIN` coefficients; a plain Python
  loop otherwise.  The choice looks at the shapes only, since both
  routes are exact at any p.  `_divrem_newton` reuses a kept reciprocal;
* gcd: Euclid on int64 arrays held across steps once both inputs have
  more than `_DIV_SHORT` coefficients and the int64 bound holds,
  repeated `divrem_mod` otherwise.

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


def cyclic_dtype(p: int):
    """Array dtype for ring elements mod p: int64 while [0, p) fits, else object."""
    return np.int64 if p < 1 << 63 else object


def trim(cs: Sequence[int]) -> List[int]:
    """Drop trailing (highest-exponent) zeros; [] is the zero polynomial."""
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return list(cs[:n])


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


def _words(buf: bytes, width: int, count: int) -> np.ndarray:
    """The first `count` little-endian integers of `width` <= 8 bytes in buf."""
    wide = np.zeros((count, 8), dtype=np.uint8)
    wide[:, :width] = np.frombuffer(buf, np.uint8, width * count).reshape(count, width)
    return wide.view("<u8").reshape(count)


def _unpack(x: int, width: int, count: int, p: int) -> List[int]:
    """The `count` coefficients packed in x, reduced mod p (p = 0: as they are)."""
    buf = x.to_bytes(width * count, "little")
    if width <= 8:
        words = _words(buf, width, count)
        return (words % p).tolist() if p else words.tolist()
    out = []
    for i in range(count):
        c = int.from_bytes(buf[i * width : (i + 1) * width], "little")
        out.append(c % p if p else c)
    return out


def _mul_kronecker_mod(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """Exact product of mod-p coefficient vectors via integer packing.

    Every product coefficient lies in [0, min(la, lb) * (p-1)^2], so
    that many bytes per coefficient keep the packed digits apart.
    """
    width = _width(min(len(a), len(b)) * (p - 1) * (p - 1))
    return _unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1, p)


def mul_mod(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """Product of two nonzero coefficient vectors, reduced mod p, not trimmed."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    if la <= _TINY and lb <= _TINY:
        return [c % p for c in _mul_school(a, b)]
    short = min(la, lb)
    if short <= _KRONECKER_CUTOFF and short * (p - 1) * (p - 1) < _I64_SAFE:
        out = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        return (out % p).tolist()
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
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    la, lb = len(a), len(b)
    if not (0 < la <= n and 0 < lb <= n):
        raise ValueError(f"operand lengths {la}, {lb} outside 1..{n}")
    width = _width(min(la, lb) * (p - 1) * (p - 1))
    x = _pack(a, width)
    x = x * x if square else x * _pack(b, width)
    shift = 8 * width * n
    x = (x & ((1 << shift) - 1)) + (x >> shift)
    if width <= 8:
        return (_words(x.to_bytes(width * n, "little"), width, n) % p).astype(np.int64)
    return np.array(_unpack(x, width, n, p), dtype=dtype)


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


def divrem_mod(a: Sequence[int], b: Sequence[int], p: int):
    """Quotient and remainder of coefficient vectors over F_p.

    `b` must be nonzero (trimmed).  Returns trimmed lists.

    A divisor of degree at least `_DIV_SHORT` with a quotient of at
    least `_NEWTON_MIN` coefficients goes to `_divrem_newton`; every
    other division runs the loop below on Python ints.  The loop
    reduces lazily: the leading entry is reduced when its quotient
    coefficient is read off, the others only once, in the remainder.
    """
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim(a)
    m = len(b) - 1
    steps = len(a) - m
    if steps <= 0:
        return [], a
    if m >= _DIV_SHORT and steps >= _NEWTON_MIN:
        return _divrem_newton(a, b, p)
    inv_lead = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    q = [0] * steps
    r = list(a)
    low = b[:m]
    for i in range(steps - 1, -1, -1):
        c = (r[i + m] * inv_lead) % p
        q[i] = c
        if c:
            for j, y in enumerate(low, i):
                r[j] -= c * y
    return q, trim([x % p for x in r[:m]])


def _reciprocal(f: Sequence[int], k: int, p: int) -> List[int]:
    """The k coefficients of g with f * g = 1 (mod t^k, p); f[0] must be a unit.

    Newton iteration (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, 9.1): if f g = 1 mod t^h, then g - g (f g - 1) inverts f
    mod t^(2h).  The precision runs up through ceil(k / 2^i), so the
    last step lands on k exactly.  Going from h to l, f g - 1 is t^h D
    mod t^l, so the step appends the l - h coefficients of -g D mod
    t^(l-h) to g.
    """
    precisions = []
    while k > 1:
        precisions.append(k)
        k = (k + 1) // 2
    g = [pow(f[0], p - 2, p)]
    for prec in reversed(precisions):
        h = len(g)
        delta = mul_mod(f[:prec], g, p)[h:prec]
        step = mul_mod(g[: prec - h], delta, p)[: prec - h]
        g += [-c % p for c in step] + [0] * (prec - h - len(step))
    return g


def _divrem_newton(a: Sequence[int], b: Sequence[int], p: int, inv=None):
    """`divrem_mod` for trimmed a, b with deg a >= deg b, by one reciprocal.

    With m = deg b and steps = deg a - m + 1, reversal turns a = q b + r
    into rev(a) = rev(q) rev(b) (mod t^steps), and rev(b) starts with
    b's unit leading coefficient, so rev(q) = rev(a) / rev(b) mod
    t^steps: one `_reciprocal` and one product.  Then r = a - q b, of
    which only the m low coefficients are nonzero.  Every product goes
    through `mul_mod`, exact at any p, and the subtraction runs on
    Python ints, so this route needs no bound on p.

    A given `inv` = rev(b)^-1 mod t^k, k >= steps, is cut to t^steps.
    """
    m = len(b) - 1
    steps = len(a) - m
    g = _reciprocal(b[::-1], steps, p) if inv is None else inv[:steps]
    q = mul_mod(a[m:][::-1], g, p)[steps - 1 :: -1]
    low = mul_mod(q[:m], b[:m], p)
    return q, trim([(x - y) % p for x, y in zip(a[:m], low)])


def gcd_mod(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """Monic gcd over F_p (the zero polynomial for gcd(0, 0))."""
    a, b = trim(a), trim(b)
    if (
        len(a) > _DIV_SHORT
        and len(b) > _DIV_SHORT
        and max(len(a), len(b)) * (p - 1) * (p - 1) + p < _I64_SAFE
    ):
        a = _gcd_mod_inplace(a, b, p)
    else:
        while b:
            _, r = divrem_mod(a, b, p)
            a, b = b, r
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _gcd_mod_inplace(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """A gcd, not yet monic, by Euclid on int64 arrays held across steps.

    Each division reduces lazily, as in `divrem_mod`: its steps are
    fewer than max(len(a), len(b)), which the caller's bound covers,
    and the remainder is reduced once before it becomes the divisor.
    """
    ra = np.asarray(a, dtype=np.int64)
    rb = np.asarray(b, dtype=np.int64)
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        ra, rb, da, db = rb, ra, db, da
    tmp = np.empty(max(da, db) + 1, dtype=np.int64)
    while db >= 0:
        inv = pow(rb.item(db), p - 2, p)
        t = tmp[:db]
        low = rb[:db]
        while da >= db:
            c = (ra.item(da) * inv) % p
            if c:
                seg = ra[da - db : da]
                np.multiply(low, c, out=t)
                np.subtract(seg, t, out=seg)
            da -= 1
            while da >= 0 and ra.item(da) % p == 0:
                da -= 1
        np.remainder(ra[: da + 1], p, out=ra[: da + 1])
        ra, rb, da, db = rb, ra, db, da
    return ra[: da + 1].tolist()
