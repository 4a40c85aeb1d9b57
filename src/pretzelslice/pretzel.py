"""Alexander polynomials for the pretzel knots P(a, -a-2, -(a+1)^2/2).

The polynomial is never computed from a diagram.  `alexander_poly`
evaluates two closed forms and requires them to agree exactly:

    (t^(a+2) + 1)(t^a + 1) / (t + 1)^2  -  ((a+1)^2/4) t^(a-1) (t-1)^2

and the same expression with the left product replaced by the product
of C_d(-t) over all divisors d > 1 of a and of a + 2, where C_d is the
d-th cyclotomic polynomial.  For a prime p dividing (a+1)/2 the
correction term vanishes mod p; `alexander_mod_p` builds the reduction
as the product of reduced cyclotomics and asserts that it equals the
coefficient reduction of the integer polynomial.

Lemma (b) (proved in `fox_milnor_status`): that reduction is squarefree
and its parts C_d(-t) are pairwise coprime.  The Fox-Milnor test on it
has two routes.  The direct route builds the reduction and fully
factors it.  The structured route never builds it: by the lemma the
reduction admits a Fox-Milnor factorization iff no cyclotomic part has
a self-reciprocal irreducible factor, so it asks each part alone.  Both
decide the same predicate; the degree cutoff is purely a cost choice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import factor as _factor
from . import numth
from .cyclotomic import cyclotomic_poly
from .poly import IntPoly, ModPoly, reduce_mod

DEFAULT_MAX_A = 200_000

# degree bound below which the direct (full-factorization) route is default
DIRECT_ROUTE_MAX_DEGREE = 1200


@dataclass(frozen=True)
class PretzelKnot:
    """Family member P(a, -a-2, -(a+1)^2/2) for odd a >= 3."""

    a: int

    def __post_init__(self):
        if not isinstance(self.a, int) or self.a < 3 or self.a % 2 == 0:
            raise ValueError(f"family parameter must be an odd integer >= 3, got {self.a!r}")

    @property
    def strands(self) -> Tuple[int, int, int]:
        return (self.a, -self.a - 2, -((self.a + 1) ** 2) // 2)

    @property
    def half_a_plus_one(self) -> int:
        """(a + 1) / 2; its prime divisors select the useful reductions."""
        return (self.a + 1) // 2

    def reduction_primes(self) -> Tuple[int, ...]:
        return numth.factorize(self.half_a_plus_one).primes


def validate_member(a: int, max_a: int = DEFAULT_MAX_A) -> PretzelKnot:
    knot = PretzelKnot(a)
    if a > max_a:
        raise ValueError(f"a = {a} exceeds the configured bound {max_a}")
    return knot


def _divisors_over_one(n: int) -> Tuple[int, ...]:
    return numth.divisors(numth.factorize(n))[1:]


def _binomial_plus(n: int) -> IntPoly:
    # t^n + 1
    return IntPoly([1] + [0] * (n - 1) + [1])


def _correction_term(a: int) -> IntPoly:
    # ((a+1)^2 / 4) * t^(a-1) * (t-1)^2
    c = ((a + 1) // 2) ** 2
    return IntPoly([c, -2 * c, c]).shift(a - 1)


@functools.lru_cache(maxsize=32)
def _alexander_cached(a: int) -> IntPoly:
    quotient = (_binomial_plus(a + 2) * _binomial_plus(a)).exact_div(
        IntPoly((1, 2, 1))
    )
    delta = quotient - _correction_term(a)

    product = IntPoly((1,))
    for n in (a, a + 2):
        for d in _divisors_over_one(n):
            product = product * cyclotomic_poly(d).substitute_neg()
    delta_again = product - _correction_term(a)
    if delta != delta_again:  # pragma: no cover
        raise ArithmeticError(f"closed forms disagree at a = {a}")

    if delta.degree != 2 * a:  # pragma: no cover
        raise ArithmeticError(f"degree {delta.degree} != 2a at a = {a}")
    if not delta.is_self_reciprocal():  # pragma: no cover
        raise ArithmeticError(f"not self-reciprocal at a = {a}")
    if abs(delta.evaluate(1)) != 1 or abs(delta.evaluate(-1)) != 1:  # pragma: no cover
        raise ArithmeticError(f"unit evaluations violated at a = {a}")
    return delta


def alexander_poly(a: int, max_a: int = DEFAULT_MAX_A) -> IntPoly:
    """The Alexander polynomial of P(a, -a-2, -(a+1)^2/2), canonical form.

    Both closed forms are computed and compared, and the standard
    sanity properties (degree 2a, palindromic, |value| 1 at t = +/-1)
    are enforced.

    >>> alexander_poly(3)
    IntPoly((1, -2, -1, 5, -1, -2, 1))
    """
    validate_member(a, max_a)
    return _alexander_cached(a)


def _validate_reduction(a: int, p: int, max_a: int) -> None:
    knot = validate_member(a, max_a)
    if not numth.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if knot.half_a_plus_one % p:
        raise ValueError(f"{p} does not divide (a+1)/2 = {knot.half_a_plus_one}")


def alexander_mod_p(a: int, p: int, max_a: int = DEFAULT_MAX_A) -> ModPoly:
    """Reduction mod p of the Alexander polynomial, for p | (a+1)/2.

    Computed as the product of the reduced cyclotomics C_d(-t) over
    d > 1 dividing a or a + 2, and asserted equal to the coefficient
    reduction of the integer polynomial (the correction term has
    coefficient divisible by p^2, so it drops out).

    >>> str(alexander_mod_p(3, 2))
    '1 + t^2 + t^3 + t^4 + t^6'
    """
    _validate_reduction(a, p, max_a)
    product = ModPoly(p, (1,))
    for n in (a, a + 2):
        for d in _divisors_over_one(n):
            product = product * reduce_mod(cyclotomic_poly(d), p).substitute_neg()
    direct = reduce_mod(_alexander_cached(a), p)
    if product != direct:  # pragma: no cover
        raise ArithmeticError(f"product form differs from reduction at a = {a}, p = {p}")
    return product


@dataclass(frozen=True)
class PartCheck:
    """Self-reciprocal-factor search outcome for one cyclotomic part."""

    d: int
    source: str  # "a" or "a+2"
    exists: bool
    power: Optional[int]
    divisor: Optional[int]
    gcd_degree: int


@dataclass(frozen=True)
class FoxMilnorStatus:
    """Fox-Milnor verdict for one reduction, with route-specific evidence.

    offenders lists self-reciprocal irreducible factors of the
    reduction with odd multiplicity (each with its multiplicity);
    nonempty exactly when admits is False.
    """

    a: int
    p: int
    admits: bool
    route: str
    squarefree: bool
    offenders: Tuple[Tuple[ModPoly, int], ...]
    parts: Tuple[PartCheck, ...]
    multiset: Optional[_factor.FactorMultiset]


def _structured_status(a: int, p: int, seed: int, max_a: int) -> FoxMilnorStatus:
    parts = []
    offenders = []
    delta_bar = None
    for n, source in ((a, "a"), (a + 2, "a+2")):
        for d in _divisors_over_one(n):
            if d % p == 0:
                raise ArithmeticError(f"p = {p} divides the part index d = {d}")
            part = reduce_mod(cyclotomic_poly(d), p)
            got = _factor.self_reciprocal_search(part, d, seed, exhibit_cap=0)
            parts.append(PartCheck(d, source, got.exists, got.power, got.divisor, got.gcd_degree))
            if got.exists:
                # rare path: extract the factor so the verdict carries proof
                shown = _factor.self_reciprocal_search(part, d, seed)
                h = shown.factor
                if h is not None:
                    h = h.substitute_neg().monic()
                    if delta_bar is None:
                        delta_bar = alexander_mod_p(a, p, max_a)
                    if not delta_bar.divrem(h)[1].is_zero():  # pragma: no cover
                        raise ArithmeticError("offending factor does not divide the reduction")
                    offenders.append((h, 1))
    admits = not any(c.exists for c in parts)
    return FoxMilnorStatus(
        a, p, admits, "structured", True, tuple(offenders), tuple(parts), None
    )


def fox_milnor_status(
    a: int,
    p: int,
    seed: int = _factor.DEFAULT_SEED,
    route: str = "auto",
    max_a: int = DEFAULT_MAX_A,
) -> FoxMilnorStatus:
    """Does the mod-p Alexander reduction admit a Fox-Milnor factorization?

    A reduction f admits one (f = g g* up to a unit) iff every
    self-reciprocal irreducible factor of f has even multiplicity.  An
    obstructed outcome here certifies the knot is not topologically
    slice.

    route is "direct", "structured", or "auto" (direct up to degree
    1200; the degree of the reduction is 2a).  The direct route builds
    the reduction with `alexander_mod_p` and factors it completely.
    The structured route never builds it: it runs the self-reciprocal
    factor search on each reduced cyclotomic C_d, d > 1 dividing a or
    a + 2, and only on the rare path where some part has such a factor
    does it build the reduction, to check that the exhibited factor
    divides it.  It rests on

    Lemma (b).  For a prime p | (a+1)/2, Delta mod p is the product of
    C_d(-t) over the distinct d > 1 dividing a or a + 2, and that
    product is squarefree.

    Proof.  The correction term ((a+1)/2)^2 t^(a-1) (t-1)^2 has
    coefficients divisible by p^2, so Delta mod p is the cyclotomic
    product.  Since a(a+2) = (a+1)^2 - 1 and p | a + 1, p does not
    divide a(a+2), so p does not divide any part index d.  Then t^d - 1
    is coprime to its derivative d t^(d-1) mod p, so C_d mod p is
    separable and its roots are exactly the elements of order d in the
    algebraic closure of F_p.  Parts with different d therefore have
    roots of different orders and are coprime.  a and a + 2 are odd and
    differ by 2, so gcd(a, a+2) = 1 and their divisor sets meet only in
    1: every d occurs once.  Finally t -> -t is a ring automorphism of
    F_p[t], so the parts C_d(-t) are still separable and pairwise
    coprime, and their product is squarefree.  QED

    Every factor thus has multiplicity 1, and the reduction admits a
    Fox-Milnor factorization iff no part C_d(-t) has a self-reciprocal
    irreducible factor.  As h(t) is self-reciprocal iff h(-t) is, that
    is asking each C_d mod p.  The structured route checks the lemma's
    hypothesis, p not dividing d, for every part and raises
    ArithmeticError if it fails.

    >>> fox_milnor_status(3, 2).admits
    False
    >>> [str(g) for g, m in fox_milnor_status(3, 2).offenders]
    ['1 + t + t^2', '1 + t + t^2 + t^3 + t^4']
    """
    if route not in ("auto", "direct", "structured"):
        raise ValueError(f"unknown route {route!r}")
    _validate_reduction(a, p, max_a)
    if route == "auto":
        route = "direct" if 2 * a <= DIRECT_ROUTE_MAX_DEGREE else "structured"
    if route == "structured":
        return _structured_status(a, p, seed, max_a)
    rep = _factor.fox_milnor_mod_p(alexander_mod_p(a, p, max_a), seed)
    squarefree = all(m == 1 for _, m in rep.multiset)
    return FoxMilnorStatus(
        a, p, rep.admits, "direct", squarefree, rep.odd_multiplicity, (), rep.multiset
    )
