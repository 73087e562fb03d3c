"""Exact scalar arithmetic over the rationals and over prime fields.

Two kinds of field are supported:

  * ``Q``     -- arbitrary-precision rationals backed by fractions.Fraction,
                 always stored in lowest terms with a positive denominator;
  * ``GF(p)`` -- integers modulo a prime p, stored as canonical residues
                 in [0, p).

Elements carry their field descriptor and refuse mixed-field arithmetic.
Everything is exact; no floating point is used anywhere in this package.
``GF(p)`` returns one shared Field object per p, so field comparisons are
mostly identity checks; elements are plain values, built as needed.  The
GF(p) algorithms of the package compute on the raw residues of ``_modp``
and box FieldElements only at the public boundary.  Coercion has one body,
``Field.raw``, which hands out the raw value; calling the field boxes it.
Square testing uses Euler's criterion over GF(p) and perfect-square checks
on the reduced numerator/denominator over Q.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ConstructionError, DivisionByZero, FieldMismatch, ParseError

RATIONALS = "rationals"
PRIME = "prime"

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the twelve witnesses above is proven deterministic for
# n below psi_12 (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017); psi_12 itself passes every witness.
PRIMALITY_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < PRIMALITY_BOUND.

    Miller-Rabin with fixed witnesses; at or above the bound the witnesses
    prove nothing, so the test raises ValueError instead of answering.
    """
    if n >= PRIMALITY_BOUND:
        raise ValueError(
            f"primality is proven only below {PRIMALITY_BOUND}; got {n}"
        )
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Descriptor for Q or GF(p); also acts as an element factory.

    Use ``GF(p)`` for the one shared instance per p; a separately built
    Field compares and hashes equal to it.
    """

    __slots__ = ("kind", "modulus", "characteristic", "_hash")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind == RATIONALS:
            if modulus is not None:
                raise ConstructionError("the rationals take no modulus")
        elif kind == PRIME:
            if modulus is None or modulus < 2:
                raise ConstructionError("a prime field needs a modulus >= 2")
            if modulus >= PRIMALITY_BOUND:
                raise ConstructionError(
                    f"modulus {modulus} is not below {PRIMALITY_BOUND}, the bound "
                    "under which the primality test is proven"
                )
            if not is_prime(modulus):
                raise ConstructionError(f"modulus {modulus} is not prime")
        else:
            raise ConstructionError(f"unknown field kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "characteristic", 0 if kind == RATIONALS else modulus)
        object.__setattr__(self, "_hash", hash((kind, modulus)))

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def is_finite(self) -> bool:
        return self.kind == PRIME

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Field({self})"

    def __str__(self):
        return "Q" if self.kind == RATIONALS else f"GF({self.modulus})"

    @staticmethod
    def parse(text: str) -> "Field":
        """Parse a field literal: ``Q`` or ``GF(p)``."""
        text = text.strip()
        if text == "Q":
            return QQ
        m = re.fullmatch(r"GF\(\s*(\d+)\s*\)", text)
        if m:
            return GF(int(m.group(1)))
        raise ParseError(f"bad field literal {text!r} (expected Q or GF(p))")

    def __call__(self, value) -> "FieldElement":
        """Coerce an int, Fraction, literal string, or same-field element."""
        if value.__class__ is FieldElement and value.field is self:
            return value
        return FieldElement(self, self.raw(value))

    def raw(self, value):
        """The raw value ``self(value)`` holds: a residue in [0, p) over GF(p), a Fraction over Q.

        Takes what ``__call__`` takes and raises what it raises, but boxes nothing.
        """
        p = self.characteristic
        if isinstance(value, int):
            return value % p if p else Fraction(value)
        if isinstance(value, Fraction):
            if not p:
                return value if value.__class__ is Fraction else Fraction(value)
            den = value.denominator % p
            if den == 0:
                raise DivisionByZero(f"denominator of {value} vanishes mod {p}")
            return value.numerator * pow(den, -1, p) % p
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise FieldMismatch(f"element of {value.field} used in {self}")
            return value.value
        if isinstance(value, str):
            return self._raw_literal(value)
        raise ConstructionError(f"cannot coerce {value!r} into {self}")

    def _raw_literal(self, text: str):
        text = text.strip()
        m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", text)
        if not m:
            raise ParseError(f"bad scalar literal {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise DivisionByZero(f"zero denominator in literal {text!r}")
        return self.raw(Fraction(num, den))

    def _residue(self, r: int) -> "FieldElement":
        """The element with canonical residue r (GF(p) only)."""
        return FieldElement(self, r)

    def zero(self) -> "FieldElement":
        return self(0)

    def one(self) -> "FieldElement":
        return self(1)

    def elements(self):
        """Iterate over all field elements (finite fields only)."""
        from .errors import NeedsFiniteField

        if self.kind != PRIME:
            raise NeedsFiniteField("cannot enumerate the rationals")
        for i in range(self.modulus):  # type: ignore[arg-type]
            yield self._residue(i)


QQ = Field(RATIONALS)

_PRIME_FIELDS: dict[int, Field] = {}


def GF(p: int) -> Field:
    """The prime field with p elements; p must be prime.

    Returns the same Field object for every call with the same p.
    """
    field = _PRIME_FIELDS.get(p)
    if field is None:
        # setdefault keeps the first instance when two threads race here
        field = _PRIME_FIELDS.setdefault(p, Field(PRIME, p))
    return field


class FieldElement:
    """An exact scalar together with its field descriptor.

    GF(p) values are canonical residues (int in [0, p)); rational values are
    Fractions in lowest terms.  Arithmetic with plain ints is allowed and
    coerces the int; arithmetic between elements of different fields raises
    FieldMismatch.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(
                    f"mixed-field arithmetic: {self.field} vs {other.field}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if field.kind == PRIME:
            return FieldElement(field, (self.value + other.value) % field.modulus)
        return FieldElement(field, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if field.kind == PRIME:
            return FieldElement(field, (self.value - other.value) % field.modulus)
        return FieldElement(field, self.value - other.value)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if field.kind == PRIME:
            return FieldElement(field, (self.value * other.value) % field.modulus)
        return FieldElement(field, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        field = self.field
        if field.kind == PRIME:
            return field._residue(-self.value % field.modulus)
        return FieldElement(field, -self.value)

    def inv(self) -> "FieldElement":
        if not self:
            raise DivisionByZero(f"inverse of zero in {self.field}")
        if self.field.kind == PRIME:
            return self.field._residue(pow(self.value, -1, self.field.modulus))
        return FieldElement(self.field, 1 / self.value)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = self.field.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            return self.value == other.value
        if isinstance(other, (int, Fraction)):
            other = self.field(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return f"<{self} in {self.field}>"

    def __str__(self):
        return str(self.value)


def is_square(x: FieldElement) -> bool:
    """True iff some y in the field satisfies y*y == x.

    GF(p): Euler's criterion, x^((p-1)/2) in {0, 1} (every element of GF(2)
    is a square).  Q: nonnegative and both numerator and denominator of the
    reduced fraction are perfect integer squares.
    """
    if x.field.kind == PRIME:
        p = x.field.modulus
        return pow(x.value, (p - 1) // 2, p) <= 1
    v: Fraction = x.value
    if v < 0:
        return False
    return (
        math.isqrt(v.numerator) ** 2 == v.numerator
        and math.isqrt(v.denominator) ** 2 == v.denominator
    )


def sqrt(x: FieldElement) -> FieldElement | None:
    """Some y with y*y == x, or None when x is not a square.

    Deterministic: over GF(p) the smaller of the two canonical residues is
    returned (found by Tonelli-Shanks); over Q the nonnegative root is
    returned.
    """
    if x.field.kind == PRIME:
        r = _sqrt_mod(x.value, x.field.modulus)
        return None if r is None else x.field._residue(min(r, -r % x.field.modulus))
    if not is_square(x):
        return None
    v: Fraction = x.value
    return FieldElement(x.field, Fraction(math.isqrt(v.numerator), math.isqrt(v.denominator)))


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of the residue a modulo the prime p, or None (Tonelli-Shanks)."""
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    # Invariant: r^2 = a t and t has order dividing 2^m, c of order 2^m.
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r
