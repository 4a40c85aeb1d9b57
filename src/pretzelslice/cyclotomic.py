"""Cyclotomic polynomials and the factorization oracles.

For a prime p not dividing d, the reduction of the d-th cyclotomic
polynomial mod p splits into phi(d)/ord_d(p) distinct irreducible
factors, all of degree ord_d(p).  Two questions about that splitting
drive everything downstream:

* is the factor count even?  (for odd prime d this is exactly whether p
  is a quadratic residue mod d)
* does some irreducible factor coincide with its own reversal?  (for
  every d >= 3 this is exactly whether -1 is a power of p mod d; the
  proof is in `numth.has_self_reciprocal_factor`)

Both are answered by closed-form arithmetic, for prime and composite d
alike, in `numth` (`count_irreducible_factors`,
`has_self_reciprocal_factor`, `CyclotomicQuery`): the decision
pipeline and certificate verification need nothing else, and `numth`
imports no polynomial code.  This module is the oracle layer.  It
builds Phi_d, reduces it mod p, and answers the same questions by
actually factoring; the oracles serve tests and `inspect`, and
`fox_milnor_offenders` exhibits the offending factors behind a
`pretzel.fox_milnor_status` that does not admit.  It re-exports the
closed forms as the same objects, so that oracle and closed form are
asked side by side from one place and a wrapper put on
`cyclotomic.count_irreducible_factors` reaches every caller.
"""

from __future__ import annotations

import functools
from typing import Tuple

from . import factor as _factor
from . import numth
from .numth import (  # re-exported, see above
    CyclotomicQuery,
    FactorCountReport,
    SelfReciprocalReport,
    count_irreducible_factors,
    has_self_reciprocal_factor,
)
from .poly import IntPoly, ModPoly, reduce_mod
from .pretzel import FoxMilnorStatus


def _subst_pow(f: IntPoly, k: int) -> IntPoly:
    """f(t^k)."""
    if k == 1:
        return f
    out = [0] * (f.degree * k + 1)
    for i, c in enumerate(f.coeffs):
        out[i * k] = c
    return IntPoly(out)


@functools.lru_cache(maxsize=1024, typed=True)  # bounded memo; typed, so 7.0 still raises
def cyclotomic_poly(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial over the integers, memoized.

    Built on the radical: peeling one prime q at a time via
    C_{mq}(t) = C_m(t^q) / C_m(t) for q not dividing m, then
    substituting t^(d/rad(d)).  Divisions here are exact and the
    divisor stays small, which keeps large composite d cheap.

    >>> str(cyclotomic_poly(1)), str(cyclotomic_poly(2))
    ('-1 + t', '1 + t')
    >>> str(cyclotomic_poly(6))
    '1 - t + t^2'
    >>> cyclotomic_poly(7)
    IntPoly((1, 1, 1, 1, 1, 1, 1))
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    f = IntPoly((-1, 1))
    rad = 1
    for q in numth.factorize(d).primes:
        f = _subst_pow(f, q).exact_div(f)
        rad *= q
    return _subst_pow(f, d // rad)


def reduced(q: CyclotomicQuery) -> ModPoly:
    """The mod-p reduction of the d-th cyclotomic polynomial, monic."""
    return reduce_mod(cyclotomic_poly(q.d), q.p)


# ---------------------------------------------------------------------------
# oracle routes: answer the same questions by actually factoring

# bounded memos, keyed on the question (q, seed[, exhibit_cap]) however a
# call spells it, and large enough for the whole acceptance grid (2326
# pairs), which criteria 4 and 5 walk one after the other; typed, as in `numth`
@functools.lru_cache(maxsize=4096, typed=True)
def _factor_cyclotomic(q: CyclotomicQuery, seed: int) -> _factor.FactorMultiset:
    ms = _factor.factor_cyclic(reduced(q), q.d, seed)
    order = numth.mult_order(q.p, q.d)
    if any(m != 1 or g.degree != order for g, m in ms):  # pragma: no cover
        raise ArithmeticError(f"unexpected factor shape for {q}")
    return ms


def factor_cyclotomic_oracle(
    q: CyclotomicQuery, seed: int = _factor.DEFAULT_SEED
) -> _factor.FactorMultiset:
    """Complete factorization of the reduced cyclotomic, fully verified.

    All multiplicities must be 1 and all degrees must equal ord_d(p);
    violations raise, since they would falsify the closed-form counts
    this oracle exists to confirm.
    """
    return _factor_cyclotomic(q, seed)


def factor_count_oracle(q: CyclotomicQuery) -> int:
    """Number of irreducible factors, from distinct-degree splitting only.

    Cheaper than full factorization (no equal-degree stage); the count
    of a degree-k class is its degree divided by k.
    """
    f = reduced(q)
    total = 0
    for piece, k in _factor.distinct_degree_cyclic(f, q.d):
        if piece.degree % k:  # pragma: no cover
            raise ArithmeticError("ragged degree class")
        total += piece.degree // k
    return total


@functools.lru_cache(maxsize=1024, typed=True)
def _self_reciprocal(q: CyclotomicQuery, seed: int, cap: int) -> _factor.SelfReciprocalSearch:
    return _factor.self_reciprocal_search(reduced(q), q.d, seed, cap)


def self_reciprocal_factor_oracle(
    q: CyclotomicQuery,
    seed: int = _factor.DEFAULT_SEED,
    exhibit_cap: int = _factor.ORACLE_FULL_CAP,
) -> _factor.SelfReciprocalSearch:
    """Search the actual factorization machinery for a palindromic factor.

    Returns the existence certificate (a nontrivial gcd with t^g - 1
    for g dividing p^m + 1) and, when extraction is affordable, an
    explicit irreducible self-reciprocal factor.
    """
    return _self_reciprocal(q, seed, exhibit_cap)


def _divides_reduction(a: int, h: ModPoly) -> bool:
    """Does h divide (t^(a+2) + 1)(t^a + 1) mod p, p = h.p?"""
    t, one = ModPoly(h.p, (0, 1)), ModPoly(h.p, (1,))
    n = (_factor._powmod(t, a + 2, h) + one) * (_factor._powmod(t, a, h) + one)
    return n.divrem(h)[1].is_zero()


def fox_milnor_offenders(
    status: FoxMilnorStatus, seed: int = _factor.DEFAULT_SEED
) -> Tuple[ModPoly, ...]:
    """Self-reciprocal irreducible factors that keep a reduction from admitting.

    `pretzel.fox_milnor_status` decides the reduction Delta mod p part
    by part; this exhibits, for each part C_d(-t) it found with a
    self-reciprocal factor, h = g(-t) for the factor g of C_d mod p that
    `self_reciprocal_factor_oracle` extracts (none past its cap).  By
    Lemma (b) each h has multiplicity 1.  Each h is checked to divide
    the reduction mod h alone (`_divides_reduction`, ArithmeticError if
    not): mod p, Delta (t+1)^2 = (t^(a+2)+1)(t^a+1) as the correction
    vanishes, and h is irreducible of even degree (self-reciprocal, and
    not t +/- 1: its roots are -z, z of odd order d > 1), so prime to
    t + 1.  A status that admits has none, and no search is run.

    >>> from pretzelslice.pretzel import fox_milnor_status
    >>> [str(h) for h in fox_milnor_offenders(fox_milnor_status(3, 2))]
    ['1 + t + t^2', '1 + t + t^2 + t^3 + t^4']
    """
    offenders = []
    for d in (c.d for c in status.parts if c.exists):
        shown = self_reciprocal_factor_oracle(CyclotomicQuery(d, status.p), seed)
        if not shown.exists:  # pragma: no cover
            raise ArithmeticError(f"closed form and search disagree at d = {d}, p = {status.p}")
        if shown.factor is not None:
            h = shown.factor.substitute_neg().monic()
            if not _divides_reduction(status.a, h):
                raise ArithmeticError("offending factor does not divide the reduction")
            offenders.append(h)
    return tuple(offenders)
