"""Complete factorization of polynomials over prime fields.

The pipeline is the classical one: squarefree decomposition, then
distinct-degree splitting by Frobenius powers, then Cantor-Zassenhaus
equal-degree splitting (a trace map replaces the power map when p = 2).
Splitting is randomized internally but fully deterministic for a given
seed: every random draw comes from a counter-mode hash keyed by the
seed, the modulus and the operand, so results do not depend on call
order or process layout.

Divisors of t^n - 1 admit much faster arithmetic.  The Frobenius
x -> x^p permutes the coefficients of F_p[t]/(t^n - 1), so elements
constant on its orbits are fixed and take values in F_p modulo every
factor: equal-degree splitting draws those, powers them in orbit values
and reduces down each class's tree of splits, with no norm.  The
Frobenius gcds of distinct-degree splitting and of Rabin's test
collapse to gcds with t^g - 1 for divisors g of n.  A class of small
degree is split only until one factor is isolated; the others are the
minimal polynomials of powers of its root, read off its power sums by
Berlekamp-Massey, and kept if they rebuild the class.  The ``*_cyclic``
entry points validate the divisor claim once on entry and verify
their output (equal degrees, reconstruction, and Rabin's test once
per degree class), so they are safe to use as an independent oracle
for the closed-form counting rules.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels as _k
from . import numth
from .numth import DEFAULT_SEED
from .poly import ModPoly

# Full equal-degree factorization is the oracle of choice up to this
# degree; past it the gcd-certificate routes stay exact but cheaper.
ORACLE_FULL_CAP = 4000


class CounterRng:
    """Deterministic byte stream: blake2b in counter mode over a key."""

    def __init__(self, *material):
        text = "|".join(repr(m) for m in material)
        self._key = hashlib.blake2b(text.encode(), digest_size=32).digest()
        self._counter = 0
        self._buf = b""

    def _fill(self, size: int):
        """Extend the buffer by whole 64-byte blocks to at least `size` bytes."""
        short = size - len(self._buf)
        if short > 0:
            start = self._counter
            self._counter += -(-short // 64)
            self._buf += b"".join(
                hashlib.blake2b(c.to_bytes(8, "little"), key=self._key, digest_size=64).digest()
                for c in range(start, self._counter)
            )

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("empty range")
        nbytes = (bound.bit_length() + 7) // 8 + 1
        limit = (256**nbytes // bound) * bound
        while True:
            self._fill(nbytes)
            chunk, self._buf = self._buf[:nbytes], self._buf[nbytes:]
            val = int.from_bytes(chunk, "little")
            if val < limit:
                return val % bound

    def coeffs(self, count: int, p: int) -> List[int]:
        """`count` successive `randbelow(p)`: one per coefficient, or per orbit."""
        return [self.randbelow(p) for _ in range(count)]


def _poly_key(coeffs: Sequence[int], p: int) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(p).encode())
    for c in coeffs:
        h.update(b",")
        h.update(str(c).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# factor multisets


def _canon_key(f: ModPoly):
    return (f.degree, f.coeffs)


@dataclass(frozen=True)
class FactorMultiset:
    """Monic irreducible factors with multiplicities, plus the unit scalar.

    Factors are kept in the canonical order (degree, then coefficient
    tuple), so equal multisets compare equal structurally.
    """

    p: int
    scalar: int
    factors: Tuple[Tuple[ModPoly, int], ...]

    def __iter__(self):
        return iter(self.factors)

    def product(self) -> ModPoly:
        out = ModPoly(self.p, (self.scalar,))
        for g, m in self.factors:
            for _ in range(m):
                out = out * g
        return out

    def total_degree(self) -> int:
        return sum(g.degree * m for g, m in self.factors)


def _make_multiset(p: int, scalar: int, pairs) -> FactorMultiset:
    merged: Dict[Tuple[int, tuple], Tuple[ModPoly, int]] = {}
    for g, m in pairs:
        key = _canon_key(g)
        if key in merged:
            merged[key] = (g, merged[key][1] + m)
        else:
            merged[key] = (g, m)
    ordered = tuple(merged[k] for k in sorted(merged))
    return FactorMultiset(p, scalar % p, ordered)


# ---------------------------------------------------------------------------
# squarefree decomposition (Yun, characteristic p)


def _pth_root(f: ModPoly) -> ModPoly:
    # over the prime field, f = g(t^p) means g has the same coefficients
    return ModPoly(f.p, f.coeffs[:: f.p])


def squarefree_decomposition(f: ModPoly) -> List[Tuple[ModPoly, int]]:
    """Pairwise-coprime squarefree parts [(g, m)] with prod g^m = monic f.

    >>> fp = ModPoly(3, (0, 1)) ; cube = fp * fp * fp
    >>> [(str(g), m) for g, m in squarefree_decomposition(cube)]
    [('t', 3)]
    """
    if f.is_zero():
        raise ValueError("squarefree decomposition of zero")
    p = f.p
    out: Dict[int, ModPoly] = {}

    def accumulate(g: ModPoly, mult: int):
        if g.degree > 0:
            out[mult] = out[mult] * g if mult in out else g

    def walk(g: ModPoly, mult: int):
        if g.degree < 1:
            return
        dg = g.derivative()
        if dg.is_zero():
            walk(_pth_root(g), mult * p)
            return
        c = g.gcd(dg)
        w, _ = g.divrem(c)
        i = 1
        while w.degree > 0:
            y = w.gcd(c)
            z, _ = w.divrem(y)
            accumulate(z, mult * i)
            w = y
            c, _ = c.divrem(y)
            i += 1
        if c.degree > 0:
            walk(_pth_root(c), mult * p)

    walk(f.monic(), 1)
    return sorted(((g.monic(), m) for m, g in out.items()), key=lambda t: t[1])


# ---------------------------------------------------------------------------
# generic distinct-degree and equal-degree splitting


def _powmod(base: ModPoly, e: int, mod: ModPoly) -> ModPoly:
    result = ModPoly(base.p, (1,))
    cur = base.divrem(mod)[1]
    while e:
        if e & 1:
            result = (result * cur).divrem(mod)[1]
        cur = (cur * cur).divrem(mod)[1]
        e >>= 1
    return result


def distinct_degree(f: ModPoly) -> List[Tuple[ModPoly, int]]:
    """Split squarefree monic f into [(product of degree-k factors, k)].

    Raises on non-squarefree input, detected via the derivative gcd.
    """
    if f.degree < 1:
        raise ValueError("distinct_degree wants a nonconstant polynomial")
    f = f.monic()
    if f.gcd(f.derivative()).degree != 0:
        raise ValueError("input is not squarefree")
    p = f.p
    t = ModPoly(p, (0, 1))
    out = []
    h = t
    k = 0
    rem = f
    while rem.degree > 2 * k:
        k += 1
        h = _powmod(h, p, rem)
        g = rem.gcd(h - t)
        if g.degree > 0:
            out.append((g.monic(), k))
            rem, _ = rem.divrem(g)
            h = h.divrem(rem)[1]
    if rem.degree > 0:
        out.append((rem.monic(), rem.degree))
    return out


def _split_once(f: ModPoly, k: int, rng: CounterRng) -> Optional[ModPoly]:
    """One Cantor-Zassenhaus attempt; a proper monic divisor or None."""
    p = f.p
    x = ModPoly(p, rng.coeffs(f.degree, p))
    if x.degree < 1:
        return None
    if p == 2:
        acc = x
        tr = x
        for _ in range(k - 1):
            acc = (acc * acc).divrem(f)[1]
            tr = tr + acc
        g = f.gcd(tr)
    else:
        y = _powmod(x, (p**k - 1) // 2, f)
        g = f.gcd(y - ModPoly(p, (1,)))
    if 0 < g.degree < f.degree:
        return g.monic()
    return None


def equal_degree_split(f: ModPoly, k: int, seed: int = DEFAULT_SEED) -> FactorMultiset:
    """All irreducible factors of f when every factor has degree k.

    f must be squarefree and monic; deg f must be a multiple of k.
    """
    f = f.monic()
    if f.degree % k:
        raise ValueError(f"degree {f.degree} is not a multiple of {k}")
    factors: List[ModPoly] = []
    work = [f]
    while work:
        g = work.pop()
        if g.degree == k:
            factors.append(g)
            continue
        rng = CounterRng(seed, "edf", g.p, k, _poly_key(g.coeffs, g.p))
        attempts = 0
        piece = None
        while piece is None:
            attempts += 1
            if attempts > 64 + 8 * g.degree:
                raise ArithmeticError("equal-degree split stalled")  # pragma: no cover
            piece = _split_once(g, k, rng)
        work.append(piece)
        work.append(g.divrem(piece)[0].monic())
    return _make_multiset(f.p, 1, ((g, 1) for g in factors))


def factor(f: ModPoly, seed: int = DEFAULT_SEED) -> FactorMultiset:
    """Complete factorization into monic irreducibles with multiplicities.

    >>> f = ModPoly(2, (1, 0, 1, 1, 1, 0, 1))
    >>> [(str(g), m) for g, m in factor(f)]
    [('1 + t + t^2', 1), ('1 + t + t^2 + t^3 + t^4', 1)]
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    scalar = f.coeffs[-1]
    if f.degree == 0:
        return FactorMultiset(f.p, scalar, ())
    pairs = []
    for part, mult in squarefree_decomposition(f):
        for piece, k in distinct_degree(part):
            for g, _ in equal_degree_split(piece, k, seed):
                pairs.append((g, mult))
    out = _make_multiset(f.p, scalar, pairs)
    if out.total_degree() != f.degree:
        raise ArithmeticError("factorization lost degree")  # pragma: no cover
    return out


def is_irreducible(f: ModPoly) -> bool:
    """Rabin's irreducibility test for monic nonconstant f.

    >>> is_irreducible(ModPoly(2, (1, 1, 0, 0, 0, 0, 1)))
    True
    """
    if f.degree < 1:
        raise ValueError("irreducibility is about nonconstant polynomials")
    f = f.monic()
    n = f.degree
    p = f.p
    t = ModPoly(p, (0, 1))
    frob = [_powmod(t, p, f)]
    while len(frob) < n:
        frob.append(_powmod(frob[-1], p, f))
    if frob[n - 1] != t.divrem(f)[1]:
        return False
    for q in {q for q, _ in numth.factorize(n)}:
        if f.gcd(frob[n // q - 1] - t).degree != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# fast path for divisors of t^n - 1


def _tn_minus_1(n: int, p: int) -> ModPoly:
    return ModPoly(p, [p - 1] + [0] * (n - 1) + [1])


def _validate_cyclic(f: ModPoly, n: int):
    if n < 1:
        raise ValueError("cyclic order must be positive")
    if n % f.p == 0:
        raise ValueError("cyclic order divisible by the characteristic")
    if f.is_zero() or f.coeffs[0] == 0:
        raise ValueError("a divisor of t^n - 1 cannot vanish at 0")
    if f.degree > n:
        raise ValueError("degree exceeds the cyclic order")
    _, r = _tn_minus_1(n, p=f.p).divrem(f)
    if not r.is_zero():
        raise ValueError(f"input does not divide t^{n} - 1")


def _binomial_gcd(rem: ModPoly, g: int) -> ModPoly:
    """gcd(rem, t^g - 1) for g >= 1.

    t^g = 1 modulo t^g - 1, so rem reduces to the fold of its
    coefficients (index i goes to i mod g), and one gcd of degree below
    g is left.
    """
    p = rem.p
    cs = rem.coeffs
    folded = ModPoly(p, [sum(cs[i::g]) for i in range(g)])
    return ModPoly._of(p, (p - 1,) + (0,) * (g - 1) + (1,)).gcd(folded)


def _distinct_degree_cyclic(f: ModPoly, n: int) -> List[Tuple[ModPoly, int]]:
    """`distinct_degree_cyclic` for an f already known to divide t^n - 1."""
    p = f.p
    rem = f.monic()
    out = []
    dead = set()
    e = 1
    k = 0
    while rem.degree > 2 * k:
        k += 1
        e = (e * p) % n
        g = math.gcd(e - 1, n)
        if g in dead:
            continue
        # rem | f | t^n - 1, so gcd(rem, t^n - 1) is rem itself
        part = rem if g == n else _binomial_gcd(rem, g)
        if part.degree == 0:
            dead.add(g)
            continue
        out.append((part.monic(), k))
        rem, _ = rem.divrem(part)
        dead.add(g)
    if rem.degree > 0:
        out.append((rem.monic(), rem.degree))
    return out


def distinct_degree_cyclic(f: ModPoly, n: int) -> List[Tuple[ModPoly, int]]:
    """Distinct-degree split of f | t^n - 1, via divisor-gcd collapsing.

    Frobenius powers of t are monomials modulo t^n - 1, so the usual
    gcd(f, t^(p^k) - t) equals gcd(f, t^g - 1) with g = gcd(p^k - 1, n);
    only a handful of distinct g ever occur.  At g = n that gcd is the
    remaining part itself, which divides f.  Validates f | t^n - 1.
    """
    _validate_cyclic(f, n)
    return _distinct_degree_cyclic(f, n)


# -- ring F_p[t]/(t^n - 1): elements are arrays of n coefficients (int64
# for p < 2^63, Python ints beyond)


def _frobenius_orbits(n: int, p: int) -> Tuple[np.ndarray, int]:
    """Orbit labels of i -> i*p mod n (p a unit mod n) on range(n), and their count."""
    label = [-1] * n
    m = 0
    for i in range(n):
        if label[i] < 0:
            j = i
            while label[j] < 0:
                label[j], j = m, j * p % n
            m += 1
    return np.array(label, dtype=np.intp), m


def _ring_pow(x: np.ndarray, e: int, n: int, p: int) -> np.ndarray:
    """x^e for e >= 1 in the cyclic ring, by left-to-right square-and-multiply.

    floor(log2 e) squarings and popcount(e) - 1 products; e = 1 returns
    x itself, so the caller must not write into the result.
    """
    acc = x
    for bit in bin(e)[3:]:
        acc = _k.mul_cyclic_mod(acc, acc, n, p)
        if bit == "1":
            acc = _k.mul_cyclic_mod(acc, x, n, p)
    return acc


def _orbit_table(label: np.ndarray, m: int) -> np.ndarray:
    """T[C, i] = label[(r_C - i) mod n] for one index r_C of each orbit C."""
    n = len(label)
    reps = np.empty(m, dtype=np.intp)
    reps[label] = np.arange(n)  # whichever index of C lands last serves
    return label[(reps[:, None] - np.arange(n)) % n]


def _orbit_pow(c: np.ndarray, e: int, table: np.ndarray, label: np.ndarray, p: int) -> np.ndarray:
    """x^e for e >= 1 and Frobenius-fixed x = c[label], in orbit values.

    A product yz of fixed elements is fixed, so its values c' at the r_C
    give it as c'[label], and c'_C = sum_i y_i z[(r_C - i) mod n] =
    np.dot(z[table], y[label])[C]: m x n entries, not n x n.  Row
    sums reach n (p-1)^2, `_k.mul_cyclic_mod`'s int64 bound; past it
    they run on Python ints.
    """
    if len(label) * (p - 1) ** 2 >= _k._I64_SAFE:
        c = c.astype(object)
    base = c[table]
    acc = c
    for bit in bin(e)[3:]:
        acc = np.dot(acc[table], acc[label]) % p
        if bit == "1":
            acc = np.dot(base, acc[label]) % p
    return acc


# Orbit values while the table's m * n entries are at most this many (also
# its memory bound); past it the ring was faster on the grid (BENCH_20.json).
_ORBIT_CELLS = 30000


class _Node:
    """A monic piece of a degree class in its split tree (see `_edf_cyclic`)."""

    __slots__ = ("poly", "kids", "open", "inv")

    def __init__(self, poly: np.ndarray):
        self.poly = poly  # coefficients, dtype `_k.cyclic_dtype(p)`
        self.kids: Optional[List[_Node]] = None  # None for a leaf
        self.open = True  # a pending piece, or an ancestor of one
        self.inv = None  # rev(poly)^-1 mod t^(deg parent - deg poly), once taken


def _refine(root: _Node, w: np.ndarray, k: int, p: int, done: List[Tuple[ModPoly, int]],
            path: bool = False):
    """One round on class k's tree: gcd each pending leaf with w mod itself.

    A kid of degree m >= `_k._DIV_SHORT` keeps its reciprocal at the
    precision deg parent - m, which bounds the quotient of every
    remainder passed down to it, once that reaches `_k._NEWTON_MIN`,
    where `divrem_mod` would take one.  With `path` the round follows
    only the path down to the leftmost pending leaf and gcds that leaf.
    """
    seen = []  # parents before children
    stack = [(root, _k.divrem_mod(w, root.poly, p)[1])]
    while stack:
        node, r = stack.pop()
        seen.append(node)
        if node.kids is not None:
            above = len(node.poly) - 1
            kids = [kid for kid in node.kids if kid.open]
            for kid in reversed(kids[:1] if path else kids):
                m = len(kid.poly) - 1
                if kid.inv is None and m >= _k._DIV_SHORT and above - m >= _k._NEWTON_MIN:
                    kid.inv = _k._reciprocal(kid.poly[::-1], above - m, p)
                stack.append((kid, _k.divrem_mod(r, kid.poly, p, kid.inv)[1]))
            continue
        g = _k.gcd_mod(node.poly, r, p)
        if 1 < len(g) < len(node.poly):
            node.kids = [_Node(g), _Node(_k.divrem_mod(node.poly, g, p)[0])]
            for kid in node.kids:
                if len(kid.poly) == k + 1:
                    done.append((ModPoly._of(p, kid.poly.tolist()), k))
                    kid.open = False
    for node in reversed(seen):
        if node.kids is not None:
            node.open = any(kid.open for kid in node.kids)


# Classes of degree k <= _CONJUGATE_MAX are finished from the conjugates
# of their first factor (`_edf_cyclic`).  Berlekamp-Massey costs O(k^2) of
# Python per conjugate, and past this k the tree's remaining rounds are
# as cheap: finish time over tree time, summed over the grid's classes of
# each degree (BENCH_25.json `cutoff_table`), reads 0.14 at k = 4, 0.48
# at 16, 0.57 at 24, 0.97 at 26, 1.09 at 32 and 2.08 at 48.
_CONJUGATE_MAX = 24


def _power_sums(g: np.ndarray, n: int, p: int) -> List[int]:
    """s_x = sum of beta^x over the roots beta of monic g, for 0 <= x < n.

    s_0 = deg g mod p, and s_x for x >= 1 is coefficient x of -X rev(g)'/rev(g).
    """
    rev = g[::-1]  # prod (1 - beta X), constant term 1
    deriv = [i * int(c) % p for i, c in enumerate(rev.tolist())][1:]
    series = _k.mul_mod(deriv, _k._reciprocal(rev, n, p), p)[: n - 1]
    return [(len(g) - 1) % p] + (-series % p).tolist()


def _berlekamp_massey(s: Sequence[int], p: int) -> List[int]:
    """The monic minimal polynomial (ascending) of a linear recurrence
    over F_p, from at least twice its length of terms s.

    Massey 1969: C is the shortest connection polynomial of the prefix
    read so far (degree at most L, its length), and B the one before the
    last length change, whose discrepancy was b, m terms back.
    """
    C, B, L, b, m = [1], [1], 0, 1, 1
    for i in range(len(s)):
        d = sum(map(operator.mul, C, s[i::-1])) % p
        if d == 0:
            m += 1
            continue
        coef = d * pow(b, -1, p) % p
        T, C = C, C + [0] * (len(B) + m - len(C))
        C[m : m + len(B)] = [(c - coef * y) % p for c, y in zip(C[m:], B)]
        if 2 * L <= i:
            L, B, b, m = i + 1 - L, T, d, 1
        else:
            m += 1
    return (C + [0] * L)[L::-1]


def _conjugates(g: np.ndarray, n: int, p: int, label: np.ndarray) -> List[List[int]]:
    """The distinct minimal polynomials of beta^j, beta a root of g, one
    unit j mod n per orbit of j -> jp (see `_edf_cyclic`)."""
    k, s = len(g) - 1, _power_sums(g, n, p)
    hs = [_berlekamp_massey([s[j * i % n] for i in range(2 * k)], p)
          for j in np.unique(label, return_index=True)[1].tolist() if math.gcd(j, n) == 1]
    return list({tuple(h): h for h in hs}.values())


def _edf_cyclic(
    pieces: List[Tuple[ModPoly, int]],
    n: int,
    p: int,
    seed: int,
    limit: Optional[int] = None,
) -> List[Tuple[ModPoly, int]]:
    """Split every (product, k) into its degree-k irreducible factors.

    Each round draws one Frobenius-fixed ring element x and refines the
    pending pieces of every class with it.  With `limit` set, returns
    once that many factors are isolated (any one witness suffices).

    Proof (the Berlekamp subalgebra: Berlekamp 1970; von zur Gathen &
    Gerhard, *Modern Computer Algebra*, 14.8).  On R = F_p[t]/(t^n - 1),
    x -> x^p permutes coefficients by t^i -> t^(ip), as c^p = c on F_p,
    so x^p = x exactly when x is constant on the orbits of i -> ip mod n.
    Modulo an irreducible g | t^n - 1 such an x is a root of Y^p - Y in
    a field, so it lies in F_p.  As p does not divide n, R is the
    product of the fields F_p[t]/(g) by CRT, and its fixed elements are
    exactly the tuples of constants.  So uniform coefficients per orbit
    give independent uniform values x mod g, and w = x (p = 2) or
    x^((p-1)/2) - 1 vanishes mod g with the Cantor-Zassenhaus odds:
    gcd(piece, w) splits two factors with probability >= 4/9.  The
    caller verifies every output, whichever element found it.

    The power stays in orbit values while orbits are few (`_orbit_pow`):
    the Frobenius is a ring map, so a product of fixed elements is fixed
    and is determined by its value at one index per orbit.

    Each class keeps the tree of its splits: the root is the class
    product, a piece that split has its two parts as children.  A round
    reduces w mod the root once and passes remainders down only into
    subtrees holding a pending leaf (`_refine`), which is exact as a
    child divides its parent: (w mod parent) mod child = w mod child.
    Leaves are visited left to right, the order a flat list of pieces
    refined in place would have, so factors are found, and a `limit`
    search stops, in that order.

    Small classes (k <= `_CONJUGATE_MAX`, no `limit`) run the tree only
    until one factor g is isolated, a round following the path to the
    leftmost pending leaf alone, and take the rest from g (Lidl &
    Niederreiter, *Finite Fields*, 2.47).  Let g's roots be beta_i =
    beta^(p^i), i < k, with beta^n = 1.  Power sums: rev(g) =
    prod (1 - beta_i X), so in any characteristic rev(g)'/rev(g) =
    -sum_(x >= 0) s_(x+1) X^x with s_x = sum_i beta_i^x, which depends
    on x mod n, and s_0 = k mod p (`_power_sums`).  Conjugates: for a
    unit j mod n, u_m = s_(jm mod n) = sum_i gamma_i^m with gamma_i =
    beta^(j p^i), distinct as b -> b^j is injective on the n-th roots
    of unity.  With distinct gamma_i and weights 1, no recurrence is
    shorter than prod (X - gamma_i) (its first k terms would make a
    Vandermonde matrix singular), so Berlekamp-Massey on 2k terms
    returns it (Massey 1969).  Its roots are the Frobenius orbit of
    beta^j, so it is the minimal polynomial of beta^j, irreducible of
    degree k; j and jp give the same one, and the units reach every
    root of beta's order.  Below order n, units repeat a polynomial,
    kept once.  Class check: distinct irreducibles that multiply to the
    class product are its factors by unique factorization, so the
    output is exact; otherwise (a class mixing orders, as in t^n - 1)
    the tree continues where it stopped.  Every root of Phi_n has order
    n, so there the check always holds.
    """
    done: List[Tuple[ModPoly, int]] = []
    product: Dict[int, ModPoly] = {}
    for piece, k in pieces:
        if piece.degree == k:
            done.append((piece, k))
        else:
            product[k] = piece if k not in product else product[k] * piece
    dtype = _k.cyclic_dtype(p)
    roots = {k: _Node(np.array(P.coeffs, dtype=dtype)) for k, P in product.items()}
    total = sum(P.degree for P in product.values())
    rng = CounterRng(seed, "edf-cyclic", p, n, total)
    label, orbits = _frobenius_orbits(n, p)
    e = (p - 1) // 2
    # the power is x itself at p = 3, and p = 2 takes none
    table = _orbit_table(label, orbits) if e > 1 and orbits * n <= _ORBIT_CELLS else None
    # classes that look for one factor to finish from its conjugates
    first = {k for k in roots if k <= _CONJUGATE_MAX} if limit is None else set()
    rounds = 0
    while roots:
        if limit is not None and len(done) >= limit:
            break
        rounds += 1
        if rounds > 64 + 8 * max(1, total.bit_length()):
            raise ArithmeticError("cyclic equal-degree split stalled")  # pragma: no cover
        c = np.array(rng.coeffs(orbits, p), dtype=dtype)
        if p == 2:
            w = c[label]
        else:
            if table is None:
                w = _ring_pow(c[label], e, n, p).copy()  # the power is x itself at e = 1
            else:
                w = _orbit_pow(c, e, table, label, p)[label]
            w[0] = (w[0] - 1) % p
        for k, root in list(roots.items()):
            start = len(done)
            _refine(root, w, k, p, done, path=k in first)
            if k in first and len(done) > start:
                first.discard(k)
                conj = _conjugates(np.array(done[start][0].coeffs, dtype=dtype), n, p, label)
                if len(conj) * k == len(root.poly) - 1 and np.array_equal(
                        functools.reduce(lambda a, b: _k.mul_mod(a, b, p), conj), root.poly):
                    done[start:] = [(ModPoly._of(p, h), k) for h in conj]
                    root.open = False
            if not root.open:
                del roots[k]
    return done


def _rabin_cyclic(P: ModPoly, k: int, n: int) -> bool:
    """Whether every root of monic P | t^n - 1 has degree exactly k over F_p.

    This is Rabin's test (Rabin 1980; von zur Gathen & Gerhard, *Modern
    Computer Algebra*, 14.9) applied to a product of degree-k candidates
    instead of to each one:

        t^(p^k) = t (mod P), and gcd(P, t^(p^(k/q)) - t) = 1 for every
        prime q | k.

    Because P | t^n - 1, t^n = 1 modulo P, so t^(p^j) = t^(p^j mod n)
    (mod P) and each Frobenius power is a monomial of degree below n.
    The first condition says P | t^(p^k) - t, the product of all monic
    irreducibles of degree dividing k, so every root of P lies in
    F_(p^k).  A root of degree j < k has j | k/q for some prime q | k,
    so it lies in F_(p^(k/q)) and is a common root of P and
    t^(p^(k/q)) - t; the second condition rules that out.  Hence every
    root has degree exactly k, and every irreducible factor of P has
    degree k: a monic degree-k divisor of P cannot split, so it is
    irreducible.

    Each gcd of the second condition collapses to a binomial one.  Take
    e >= 1 with e = p^(k/q) (mod n), so that t^(p^(k/q)) = t^e modulo
    P.  P(0) != 0, so t is a unit modulo P and gcd(P, t^e - t) =
    gcd(P, t^(e-1) - 1).  Euclid on the exponents (t^a - 1 =
    t^(a-b) (t^b - 1) + t^(a-b) - 1) gives the elementary identity
    gcd(t^n - 1, t^a - 1) = t^gcd(n, a) - 1.  As P | t^n - 1,
    gcd(P, X) = gcd(P, gcd(t^n - 1, X)) for every X, so the gcd is
    gcd(P, t^g - 1) with g = gcd(e - 1, n), which depends on e mod n
    only.  When e = 1 (mod n), g = n: the gcd is P, and the test fails
    as it must, since then t^(p^(k/q)) = t modulo P.  `_binomial_gcd`
    takes the gcd after folding P mod t^g - 1.  For prime n, g = 1
    unless e = 1 (mod n), and the gcd is trivial exactly when
    P(1) != 0.  The test uses no coset structure of the roots.
    """
    if k < 1 or P.degree < 1:
        return False
    p = P.p
    t = ModPoly(p, (0, 1)).divrem(P)[1]
    if ModPoly(p, (0,) * pow(p, k, n) + (1,)).divrem(P)[1] != t:
        return False
    for q in {q for q, _ in numth.factorize(k)}:
        if _binomial_gcd(P, math.gcd(pow(p, k // q, n) - 1, n)).degree != 0:
            return False
    return True


def is_irreducible_cyclic(g: ModPoly, n: int, k: Optional[int] = None) -> bool:
    """Rabin's test for g | t^n - 1, with Frobenius powers as monomials.

    Raises ValueError unless g divides t^n - 1 (the test relies on it).
    """
    _validate_cyclic(g, n)
    if k is None:
        k = g.degree
    return g.degree == k and _rabin_cyclic(g, k, n)


def factor_cyclic(f: ModPoly, n: int, seed: int = DEFAULT_SEED) -> FactorMultiset:
    """Complete factorization of a divisor of t^n - 1 (all multiplicities 1).

    Validates the divisor claim once, splits, then verifies the output:
    every piece has the degree k of its class, the pieces reconstruct
    the input exactly, and the product of each degree class passes
    Rabin's test once (`_rabin_cyclic`).  Reconstruction comes first,
    because it is what makes each class product divide t^n - 1, as the
    test requires; the test then makes every degree-k piece irreducible.
    """
    _validate_cyclic(f, n)
    scalar = f.coeffs[-1]
    g = f.monic()
    if g.degree == 0:
        return FactorMultiset(f.p, scalar, ())
    classes = _distinct_degree_cyclic(g, n)
    split = _edf_cyclic(classes, n, f.p, seed)
    products: Dict[int, ModPoly] = {}
    for h, k in split:
        if h.degree != k:
            raise ArithmeticError("cyclic split produced a piece of the wrong degree")
        products[k] = products[k] * h if k in products else h
    rebuilt = ModPoly(f.p, (1,))
    for P in products.values():
        rebuilt = rebuilt * P
    if rebuilt != g:
        raise ArithmeticError("cyclic factorization failed to reconstruct")
    if not all(_rabin_cyclic(P, k, n) for k, P in products.items()):
        raise ArithmeticError("cyclic split produced a reducible piece")
    return _make_multiset(f.p, scalar, ((h, 1) for h, _ in split))


@dataclass(frozen=True)
class SelfReciprocalSearch:
    """Existence certificate for a self-reciprocal irreducible factor.

    When ``exists``, some irreducible factor h of f satisfies
    h(t) ~ t^deg(h) h(1/t): the roots in the class witnessed by
    ``power`` are inverted by the p^power Frobenius, which is checked
    by a single gcd with t^divisor - 1.  ``factor`` carries an explicit
    witness when one was extracted.
    """

    exists: bool
    power: Optional[int]
    divisor: Optional[int]
    gcd_degree: int
    factor: Optional[ModPoly]


def self_reciprocal_search(
    f: ModPoly,
    n: int,
    seed: int = DEFAULT_SEED,
    exhibit_cap: int = ORACLE_FULL_CAP,
) -> SelfReciprocalSearch:
    """Find out whether f | t^n - 1 has a self-reciprocal irreducible factor.

    An irreducible factor with root set closed under inversion has even
    degree 2m with alpha^(p^m + 1) = 1 for every root alpha, so it
    divides gcd(f, t^(p^m + 1) - 1); modulo t^n - 1 that collapses to a
    gcd with t^g - 1 for g = gcd(p^m + 1, n), and only a few distinct g
    occur.  Linear factors t -/+ 1 would confound the criterion and are
    rejected up front (they never divide the cyclotomic-style inputs
    this is used on).
    """
    _validate_cyclic(f, n)
    p = f.p
    if f.evaluate(1) == 0 or f.evaluate(p - 1) == 0:
        raise ValueError("input vanishes at 1 or -1; criterion not applicable")
    half = f.degree // 2
    tried = set()
    e = 1
    for m in range(1, half + 1):
        e = (e * p) % n
        g = math.gcd(e + 1, n)
        if g <= 2 or g in tried:
            continue
        tried.add(g)
        # f | t^n - 1, so gcd(f, t^n - 1) is f itself
        part = f.monic() if g == n else _binomial_gcd(f.monic(), g)
        if part.degree > 0:
            witness = None
            if part.degree <= exhibit_cap:
                # part | f was validated with f
                classes = _distinct_degree_cyclic(part, n)
                piece, k = classes[0]
                sub = _edf_cyclic([(piece, k)], n, p, seed, limit=1)
                witness = sub[0][0]
                if not witness.is_self_reciprocal():  # pragma: no cover
                    raise ArithmeticError("witness factor is not self-reciprocal")
                if not is_irreducible_cyclic(witness, n, k):  # pragma: no cover
                    raise ArithmeticError("witness factor is not irreducible")
            return SelfReciprocalSearch(True, m, g, part.degree, witness)
    return SelfReciprocalSearch(False, None, None, 0, None)
