"""Alexander polynomials for the pretzel knots P(a, -a-2, -(a+1)^2/2).

The polynomial is never computed from a diagram.  It is

    (t^(a+2) + 1)(t^a + 1) / (t + 1)^2  -  ((a+1)^2/4) t^(a-1) (t-1)^2,

whose coefficients `alexander_poly` writes down in closed form.  The
quotient equals the product of C_d(-t) over all divisors d > 1 of a and
of a + 2, where C_d is the d-th cyclotomic polynomial; the tests
compare the three forms.  For a prime p dividing (a+1)/2 the correction
term vanishes mod p, and `alexander_mod_p` is the coefficient reduction.

By Lemma (b) (proved in `fox_milnor_status`) that reduction is the
squarefree product of its coprime parts C_d(-t), so `fox_milnor_status`
decides it part by part in closed form, without building it.

The knot parameters and `fox_milnor_status` belong to the arithmetic
core and import only `numth`; the polynomial functions import `poly`
when called.  Nothing here factors: the offending factors of a
reduction that does not admit are exhibited by the oracle layer
(`cyclotomic.fox_milnor_offenders`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Tuple

from . import numth
from .numth import CyclotomicQuery, has_self_reciprocal_factor

if TYPE_CHECKING:
    from .poly import IntPoly, ModPoly

DEFAULT_MAX_A = 200_000


class _PretzelKnotFields(NamedTuple):
    a: int


class PretzelKnot(_PretzelKnotFields):
    """Family member P(a, -a-2, -(a+1)^2/2) for odd a >= 3."""

    __slots__ = ()

    # unpickling calls __new__ too; _make and _replace skip it, so nothing calls them
    def __new__(cls, a: int):
        if not isinstance(a, int) or a < 3 or a % 2 == 0:
            raise ValueError(f"family parameter must be an odd integer >= 3, got {a!r}")
        return super().__new__(cls, a)

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
    """The knot of a, if a is at most `max_a` and a + 2 is factorable.

    a + 2 must lie below 2^64 (`numth.EXACT_LIMIT`), where `factorize`
    and `is_prime` are exact, so an admitted a never fails partway.
    """
    knot = PretzelKnot(a)
    if a > max_a:
        raise ValueError(f"a = {a} exceeds the configured bound {max_a}")
    if a + 2 >= numth.EXACT_LIMIT:
        raise ValueError(f"a = {a} is too large: a + 2 must be below 2^64, "
                         "where factorize and is_prime are exact")
    return knot


def alexander_poly(a: int, max_a: int = DEFAULT_MAX_A) -> IntPoly:
    """The Alexander polynomial of P(a, -a-2, -(a+1)^2/2), canonical form.

    Its t^k coefficient, 0 <= k <= 2a, is (-1)^k min(k+1, a, 2a+1-k),
    less c, -2c, c at k = a-1, a, a+1, where c = ((a+1)/2)^2.

    Proof.  For odd n, (t^n + 1)/(t + 1) = sum_{i<n} (-t)^i, so the
    quotient's t^k coefficient is (-1)^k times the number of lattice
    points on the diagonal i + j = k with 0 <= i <= a+1, 0 <= j <= a-1:
    min(k, a-1) - max(0, k-a-1) + 1 = min(k+1, a, 2a+1-k).  And
    c t^(a-1) (t-1)^2 = c t^(a-1) - 2c t^a + c t^(a+1).  QED  The end
    coefficients are 1, so this is the canonical form; the degree 2a,
    the palindrome and |value| 1 at t = +/-1 are checked.

    >>> alexander_poly(3)
    IntPoly((1, -2, -1, 5, -1, -2, 1))
    """
    from .poly import IntPoly

    validate_member(a, max_a)
    c = ((a + 1) // 2) ** 2
    coeffs = [*range(1, a + 1), a, *range(a, 0, -1)]
    coeffs[1::2] = [-m for m in coeffs[1::2]]
    coeffs[a - 1 : a + 2] = [a - c, 2 * c - a, a - c]  # a - 1 is even
    delta = IntPoly(coeffs)
    units = {delta.evaluate(1), delta.evaluate(-1)} <= {1, -1}
    if delta.degree != 2 * a or not delta.is_self_reciprocal() or not units:  # pragma: no cover
        raise ArithmeticError(f"degree, palindrome or unit values wrong at a = {a}")
    return delta


def _validate_reduction(a: int, p: int, max_a: int) -> None:
    knot = validate_member(a, max_a)
    if not numth.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if knot.half_a_plus_one % p:
        raise ValueError(f"{p} does not divide (a+1)/2 = {knot.half_a_plus_one}")


def alexander_mod_p(a: int, p: int, max_a: int = DEFAULT_MAX_A) -> ModPoly:
    """Reduction mod p of the Alexander polynomial, for p | (a+1)/2.

    The coefficient reduction of `alexander_poly`; p^2 divides the
    correction's coefficients, so it is also the product of the reduced
    cyclotomics C_d(-t) over d > 1 dividing a or a + 2.

    >>> str(alexander_mod_p(3, 2))
    '1 + t^2 + t^3 + t^4 + t^6'
    """
    _validate_reduction(a, p, max_a)
    return alexander_poly(a, max_a).reduce_mod(p)


class PartCheck(NamedTuple):
    """Whether one cyclotomic part C_d mod p has a self-reciprocal factor."""

    d: int
    source: str  # "a" or "a+2"
    exists: bool


class FoxMilnorStatus(NamedTuple):
    """Fox-Milnor verdict for one reduction, decided part by part."""

    a: int
    p: int
    admits: bool
    parts: Tuple[PartCheck, ...]


def fox_milnor_status(a: int, p: int, max_a: int = DEFAULT_MAX_A) -> FoxMilnorStatus:
    """Does the mod-p Alexander reduction admit a Fox-Milnor factorization?

    A reduction f admits one (f = g g* up to a unit) iff every
    self-reciprocal irreducible factor of f has even multiplicity.  An
    obstructed outcome here certifies the knot is not topologically
    slice.  The reduction is never built or factored to decide this:
    each cyclotomic part C_d mod p, d > 1 dividing a or a + 2, is
    decided by the closed form of `has_self_reciprocal_factor`, which
    rests on

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
    is asking each C_d mod p.  The lemma's hypothesis, p not dividing
    d, is checked for every part (ArithmeticError if it fails).  The
    offending factors themselves are exhibited by the oracle layer,
    `cyclotomic.fox_milnor_offenders`.

    >>> fox_milnor_status(3, 2).admits
    False
    """
    _validate_reduction(a, p, max_a)
    parts = []
    for n, source in ((a, "a"), (a + 2, "a+2")):
        for d in numth.divisors(numth.factorize(n))[1:]:
            if d % p == 0:
                raise ArithmeticError(f"p = {p} divides the part index d = {d}")
            exists = has_self_reciprocal_factor(CyclotomicQuery(d, p)).exists
            parts.append(PartCheck(d, source, exists))
    admits = not any(c.exists for c in parts)
    return FoxMilnorStatus(a, p, admits, tuple(parts))
