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
  takes the same paths and folds before it reduces;
* division: a plain Python loop for divisors of degree below
  `_DIV_SHORT` or when the int64 bound fails, an int64 loop in place
  otherwise;
* gcd: Euclid on int64 arrays held across steps once both inputs
  exceed `_GCD_INPLACE` coefficients, repeated division below that.

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
# Schoolbook wins while both operands have at most _TINY coefficients
# (4 x 4: 2.7 against 5.1 for np.convolve; 8 x 8: 6.5 against 3.4).
_TINY = 5
# np.convolve costs about la * lb, Kronecker packing at the exact byte
# width about (la + lb)^1.6, so the shorter operand decides: packing wins
# once it has more than this many coefficients, at any longer length
# (256 x 256: 53 convolve, 58 packed; 384 x 384: 98 and 90; 4096 x 128:
# 613 and 744; 4096 x 256: 1099 and 953).
_KRONECKER_CUTOFF = 256
# Divisors of lower degree divide faster in the plain Python loop than in
# the int64 one (64 quotient steps by degree 12: 63 against 96; by degree
# 64: 339 against 118; degrees 16 to 24 come out even within the noise).
_DIV_SHORT = 16
# Both gcd inputs longer than this: Euclid on int64 arrays in place.
_GCD_INPLACE = 128


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


def mul_cyclic_mod(a: Sequence[int], b: Sequence[int], n: int, p: int) -> List[int]:
    """a * b mod (t^n - 1, p) for 1 <= len(a), len(b) <= n: n coefficients, not trimmed.

    Coefficient k of the cyclic product is the sum of a_i b_j over
    i + j = k (mod n).  For each i at most one j < len(b) <= n is in that
    class, and symmetrically, so every coefficient is a sum of at most
    min(la, lb) products of size (p-1)^2: the bound of `mul_mod`.  Each
    path therefore folds the wrap-around exactly before its one
    reduction mod p.  The Kronecker path folds the packed product itself:
    with w-byte digits, t^n - 1 becomes 2^(8wn) - 1, so the high half
    is added onto the low half, and the digits of the sum are the
    cyclic coefficients, each still below 256^w.
    """
    la, lb = len(a), len(b)
    if not (0 < la <= n and 0 < lb <= n):
        raise ValueError(f"operand lengths {la}, {lb} outside 1..{n}")
    if la <= _TINY and lb <= _TINY:
        out = [0] * n
        for k, c in enumerate(_mul_school(a, b)):
            out[k % n] += c
        return [c % p for c in out]
    short = min(la, lb)
    if short <= _KRONECKER_CUTOFF and short * (p - 1) * (p - 1) < _I64_SAFE:
        raw = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        wrap = len(raw) - n
        if wrap > 0:
            raw[:wrap] += raw[n:]
            raw = raw[:n]
        out = (raw % p).tolist()
        return out + [0] * (n - len(out))
    width = _width(short * (p - 1) * (p - 1))
    x = _pack(a, width) * _pack(b, width)
    shift = 8 * width * n
    return _unpack((x & ((1 << shift) - 1)) + (x >> shift), width, n, p)


def _split_sign(cs: Sequence[int]):
    pos = [c if c > 0 else 0 for c in cs]
    neg = [-c if c < 0 else 0 for c in cs]
    return pos, neg


def mul_int(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Exact product over the integers, not trimmed."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    if la <= _TINY and lb <= _TINY:
        return _mul_school(a, b)
    ha = max(abs(c) for c in a)
    hb = max(abs(c) for c in b)
    bound = min(la, lb) * ha * hb
    if bound < _I64_SAFE:
        out = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        return out.tolist()
    # Kronecker with a sign split: four nonnegative products.  At most one
    # of a_i^+ b_j^+ and a_i^- b_j^- is nonzero, so each sum of two still
    # has coefficients in [0, bound].
    n = la + lb - 1
    width = _width(bound)
    ap, an = _split_sign(a)
    bp, bn = _split_sign(b)
    xap, xan = _pack(ap, width), _pack(an, width)
    xbp, xbn = _pack(bp, width), _pack(bn, width)
    plus = _unpack(xap * xbp + xan * xbn, width, n, 0)
    minus = _unpack(xap * xbn + xan * xbp, width, n, 0)
    return [u - v for u, v in zip(plus, minus)]


# ---------------------------------------------------------------------------
# division


def divrem_mod(a: Sequence[int], b: Sequence[int], p: int):
    """Quotient and remainder of coefficient vectors over F_p.

    `b` must be nonzero (trimmed).  Returns trimmed lists.

    Both loops reduce lazily: the leading entry is reduced when its
    quotient coefficient is read off, the others only once, in the
    remainder.  Each entry takes at most one subtraction of c * b_j
    <= (p-1)^2 per quotient step, so after `steps` of them it stays
    below steps * (p-1)^2 + p in size; the int64 loop needs that
    bound under 2^62.
    """
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim(a)
    m = len(b) - 1
    steps = len(a) - m
    if steps <= 0:
        return [], a
    inv_lead = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    q = [0] * steps
    if m < _DIV_SHORT or steps * (p - 1) * (p - 1) + p >= _I64_SAFE:
        r = list(a)
        low = b[:m]
        for i in range(steps - 1, -1, -1):
            c = (r[i + m] * inv_lead) % p
            q[i] = c
            if c:
                for j, y in enumerate(low, i):
                    r[j] -= c * y
        return q, trim([x % p for x in r[:m]])
    rv = np.array(a, dtype=np.int64)
    bv = np.array(b[:m], dtype=np.int64)
    prod = np.empty(m, dtype=np.int64)
    for i in range(steps - 1, -1, -1):
        c = (rv.item(i + m) * inv_lead) % p
        q[i] = c
        if c:
            seg = rv[i : i + m]
            np.multiply(bv, c, out=prod)
            np.subtract(seg, prod, out=seg)
    return q, trim((rv[:m] % p).tolist())


def gcd_mod(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """Monic gcd over F_p (the zero polynomial for gcd(0, 0))."""
    a, b = trim(a), trim(b)
    if (
        len(a) > _GCD_INPLACE
        and len(b) > _GCD_INPLACE
        and max(len(a), len(b)) * (p - 1) * (p - 1) + p < _I64_SAFE
    ):
        return _gcd_mod_inplace(a, b, p)
    while b:
        _, r = divrem_mod(a, b, p)
        a, b = b, r
    if not a:
        return []
    if a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _gcd_mod_inplace(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """Euclid on int64 arrays held across steps; no per-step reallocation.

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
    if da < 0:
        return []
    out = ra[: da + 1].tolist()
    if out[-1] != 1:
        inv = pow(out[-1], p - 2, p)
        out = [(c * inv) % p for c in out]
    return out
