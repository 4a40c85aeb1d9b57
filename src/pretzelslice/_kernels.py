"""Low-level coefficient kernels for dense polynomial arithmetic.

Polynomials are plain sequences of Python ints in ascending exponent
order.  Everything here is exact: numpy int64 paths are taken only when
a worst-case bound shows no overflow is possible, and multiplication of
large operands goes through Kronecker substitution (packing coefficients
into one big integer), which is exact for any modulus.

These helpers are internal; `poly` wraps them in value types and the
`factor` module drives them at scale.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

# Safety margin for int64 accumulation (numpy gives no overflow traps).
_I64_SAFE = 1 << 62

# Below this many coefficients plain Python schoolbook wins on overhead.
_TINY = 24
# Above this many coefficients Kronecker packing beats np.convolve.
_KRONECKER_CUTOFF = 512


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


def _pack(cs: Sequence[int], width: int) -> int:
    """Pack nonnegative coefficients into one integer, `width` bytes apiece."""
    if width == 8:
        buf = np.asarray(cs, dtype=np.uint64).astype("<u8").tobytes()
    else:
        buf = b"".join(int(c).to_bytes(width, "little") for c in cs)
    return int.from_bytes(buf, "little")


def _unpack(x: int, width: int, count: int, p: int) -> List[int]:
    buf = x.to_bytes(width * count, "little")
    if width == 8:
        arr = np.frombuffer(buf, dtype="<u8").astype(object)
        return [int(c) % p for c in arr] if p else [int(c) for c in arr]
    out = []
    for i in range(count):
        c = int.from_bytes(buf[i * width : (i + 1) * width], "little")
        out.append(c % p if p else c)
    return out


def _mul_kronecker_mod(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """Exact product of mod-p coefficient vectors via integer packing."""
    n = len(a) + len(b) - 1
    bound = min(len(a), len(b)) * (p - 1) * (p - 1)
    width = (bound.bit_length() + 7) // 8
    if width <= 8:
        width = 8
    xa = _pack(a, width)
    xb = _pack(b, width)
    return _unpack(xa * xb, width, n, p)


def mul_mod(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """Product of two nonzero coefficient vectors, reduced mod p, not trimmed."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    if la > _TINY or lb > _TINY:
        n = la + lb - 1
        if min(la, lb) * (p - 1) * (p - 1) < _I64_SAFE and n <= _KRONECKER_CUTOFF:
            out = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
            return [int(c) for c in out % p]
        return _mul_kronecker_mod(a, b, p)
    return [c % p for c in _mul_school(a, b)]


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
    if min(la, lb) * ha * hb < _I64_SAFE:
        out = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        return [int(c) for c in out]
    # Kronecker with a sign split: four nonnegative products.
    n = la + lb - 1
    bound = min(la, lb) * ha * hb
    width = max(8, (bound.bit_length() + 7) // 8)
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
    """
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim(a)
    m = len(b) - 1
    if len(a) - 1 < m:
        return [], a
    inv_lead = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    # plain Python for short inputs and for p too large for the int64
    # step below, whose products stay below p**2 + p
    if len(a) < 64 or (p - 1) * (p - 1) + p >= _I64_SAFE:
        r = list(a)
        q = [0] * (len(a) - m)
        for i in range(len(a) - 1 - m, -1, -1):
            c = (r[i + m] * inv_lead) % p
            q[i] = c
            if c:
                for j, bj in enumerate(b):
                    r[i + j] = (r[i + j] - c * bj) % p
        return q, trim(r)
    rv = np.asarray(a, dtype=np.int64)
    bv = np.asarray(b, dtype=np.int64)
    q = [0] * (len(a) - m)
    for i in range(len(a) - 1 - m, -1, -1):
        c = (int(rv[i + m]) * inv_lead) % p
        q[i] = c
        if c:
            rv[i : i + m + 1] = (rv[i : i + m + 1] - c * bv) % p
    return q, trim([int(c) for c in rv])


def gcd_mod(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """Monic gcd over F_p (the zero polynomial for gcd(0, 0))."""
    a, b = trim(a), trim(b)
    if len(a) > 128 and len(b) > 128 and (p - 1) * (p - 1) + p < _I64_SAFE:
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
    """Euclid on int64 arrays held across steps; no per-step reallocation."""
    ra = np.asarray(a, dtype=np.int64)
    rb = np.asarray(b, dtype=np.int64)
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        ra, rb, da, db = rb, ra, db, da
    tmp = np.empty(max(da, db) + 1, dtype=np.int64)
    while db >= 0:
        inv = pow(int(rb[db]), p - 2, p)
        while da >= db:
            c = (int(ra[da]) * inv) % p
            if c:
                lo = da - db
                seg = ra[lo : da + 1]
                t = tmp[: db + 1]
                np.multiply(rb[: db + 1], c, out=t)
                np.subtract(seg, t, out=seg)
                np.remainder(seg, p, out=seg)
            da -= 1
            while da >= 0 and not ra[da]:
                da -= 1
        ra, rb, da, db = rb, ra, db, da
    if da < 0:
        return []
    out = [int(c) for c in ra[: da + 1]]
    if out[-1] != 1:
        inv = pow(out[-1], p - 2, p)
        out = [(c * inv) % p for c in out]
    return out

