"""Dense univariate polynomials over Z and over prime fields F_p.

Alexander polynomials are only defined up to a unit `±t^k`, so equality
questions in this package are really questions about associate classes.
The convention used throughout:

* a value stores plain coefficients, ascending exponent, with the
  leading (highest) coefficient nonzero;
* :meth:`canonical` picks the distinguished associate — constant term
  nonzero and positive leading coefficient over Z, constant term nonzero
  and monic over F_p;
* arithmetic never canonicalizes behind your back.  Compare canonical
  forms when you mean "equal up to a unit".

>>> f = IntPoly((0, -1, 2))           # -t + 2t^2, a raw value
>>> f.canonical()
IntPoly((-1, 2))
>>> str(f.canonical())
'-1 + 2*t'

`IntPoly` and `ModPoly` share one body, `_Poly`: immutability, degree,
printing, sum, negation, difference, shift by t^k and the associate-class
operations.  Each ring supplies `_like(coeffs)`, a value of the same ring
(over F_p the constructor reduces mod p), and `_normal()`, the unit normal
form (a positive lead over Z, monic over F_p); `ModPoly` also refuses to
mix moduli (`_match`).  Equality, products, evaluation, division and gcd
stay with each ring.

Coefficients are exact Python integers.  Products over Z, and products,
division and gcd over F_p, go through `_kernels`, which picks a route
from p and the operand lengths; over F_p its results are arrays, read
back into tuples here.  Exact division over Z is a plain Python loop.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from . import _kernels as _k


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division that must be exact is not."""


class _Poly:
    """The ring-independent half of `IntPoly` and `ModPoly` (see the module)."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _match(self, other):
        """Raise if `other` lies in a different ring; no-op over Z."""

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self):
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) or "0"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._match(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._like(out)

    def __neg__(self):
        return self._like([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def shift(self, k: int):
        """Multiply by t^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        return self._like((0,) * k + self.coeffs)

    # -- associate-class operations -----------------------------------------

    def canonical(self):
        """The distinguished associate: nonzero constant term, then `_normal`.

        >>> IntPoly((0, 0, -2, -4)).canonical()
        IntPoly((2, 4))
        >>> ModPoly(5, (0, 2, 4)).canonical()
        ModPoly(5, (3, 1))
        """
        cs = self.coeffs
        if not cs:
            return self
        low = 0
        while cs[low] == 0:
            low += 1
        return self._like(cs[low:])._normal()

    def reverse(self):
        """Coefficients reversed (t^deg * f(1/t)), canonicalized."""
        if not self.coeffs:
            raise ValueError("reverse of the zero polynomial")
        return self._like(self.coeffs[::-1]).canonical()

    def is_self_reciprocal(self) -> bool:
        """True when f and its reversal agree up to a unit.

        >>> IntPoly((1, -2, -1, 5, -1, -2, 1)).is_self_reciprocal()
        True
        """
        if not self.coeffs:
            raise ValueError("self-reciprocal test on the zero polynomial")
        return self.canonical() == self.reverse()

    def substitute_neg(self):
        """f(-t), canonicalized (the identity map when p = 2)."""
        return self._like([-c if e & 1 else c for e, c in enumerate(self.coeffs)]).canonical()


class IntPoly(_Poly):
    """A polynomial with integer coefficients, ascending exponent order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = _k.trim(list(coeffs))
        object.__setattr__(self, "coeffs", tuple(cs))

    def _like(self, cs) -> "IntPoly":
        return IntPoly(cs)

    def _normal(self) -> "IntPoly":
        return -self if self.coeffs and self.coeffs[-1] < 0 else self

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("IntPoly", self.coeffs))

    def __repr__(self):
        return f"IntPoly({self.coeffs!r})"

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        return IntPoly(_k.mul_int(self.coeffs, other.coeffs))

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def exact_div(self, den: "IntPoly") -> "IntPoly":
        """Exact quotient over Z; raises ExactDivisionError otherwise."""
        if den.is_zero():
            raise ZeroDivisionError("exact_div by zero polynomial")
        if self.is_zero():
            return IntPoly()
        num = list(self.coeffs)
        dc = den.coeffs
        m = len(dc) - 1
        n = len(num) - 1
        if n < m:
            raise ExactDivisionError("degree of denominator exceeds numerator")
        lead = dc[-1]
        q = [0] * (n - m + 1)
        for i in range(n - m, -1, -1):
            c = num[i + m]
            if c % lead:
                raise ExactDivisionError("division is not exact over Z")
            c //= lead
            q[i] = c
            if c:
                for j, dj in enumerate(dc):
                    num[i + j] -= c * dj
        if any(num[:m]):
            raise ExactDivisionError("division leaves a remainder")
        return IntPoly(q)

    def reduce_mod(self, p: int) -> "ModPoly":
        """Coefficientwise reduction mod p, then monic canonicalization."""
        return ModPoly(p, [c % p for c in self.coeffs]).canonical()


_checked_moduli = set()


def _check_modulus(p: int):
    if p in _checked_moduli:
        return
    from . import numth

    if not numth.is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p >= 1 << 63:
        raise ValueError("modulus does not fit a machine word")
    _checked_moduli.add(p)


class ModPoly(_Poly):
    """A polynomial over F_p, p prime, coefficients in [0, p)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        _check_modulus(p)
        cs = _k.trim([c % p for c in coeffs])
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of(cls, p: int, cs: Iterable[int]) -> "ModPoly":
        """A ModPoly from coefficients already in [0, p), with no trailing
        zero, over a modulus a ModPoly already holds: no re-validation.

        Only for kernel results whose contract guarantees this.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "p", p)
        object.__setattr__(out, "coeffs", tuple(cs))
        return out

    def _like(self, cs) -> "ModPoly":
        return ModPoly(self.p, cs)

    def _match(self, other: "ModPoly"):
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(("ModPoly", self.p, self.coeffs))

    def __repr__(self):
        return f"ModPoly({self.p}, {self.coeffs!r})"

    def __mul__(self, other: "ModPoly") -> "ModPoly":
        self._match(other)
        if not self.coeffs or not other.coeffs:
            return ModPoly(self.p)
        # the leading coefficient is a product of units mod p, so nonzero
        return ModPoly._of(self.p, _k.mul_mod(self.coeffs, other.coeffs, self.p).tolist())

    def scale(self, c: int) -> "ModPoly":
        c %= self.p
        return ModPoly(self.p, [(c * x) % self.p for x in self.coeffs])

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def derivative(self) -> "ModPoly":
        return ModPoly(self.p, [(e * c) % self.p for e, c in enumerate(self.coeffs)][1:])

    def divrem(self, den: "ModPoly") -> Tuple["ModPoly", "ModPoly"]:
        """Quotient and remainder; den must be nonzero.

        >>> t3 = ModPoly(5, (0, 0, 0, 1)); t2 = ModPoly(5, (0, 0, 1))
        >>> q, r = t3.divrem(t2); (str(q), str(r))
        ('t', '0')
        """
        self._match(den)
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(den.coeffs):
            return ModPoly._of(self.p, ()), self
        q, r = _k.divrem_mod(self.coeffs, den.coeffs, self.p)
        return ModPoly._of(self.p, q.tolist()), ModPoly._of(self.p, r.tolist())

    def gcd(self, other: "ModPoly") -> "ModPoly":
        """Monic greatest common divisor."""
        self._match(other)
        return ModPoly._of(self.p, _k.gcd_mod(self.coeffs, other.coeffs, self.p).tolist())

    def monic(self) -> "ModPoly":
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        inv = pow(self.coeffs[-1], self.p - 2, self.p)
        return self.scale(inv)

    _normal = monic


def reduce_mod(f: IntPoly, p: int) -> ModPoly:
    return f.reduce_mod(p)
