"""Exact scalar fields: the rationals and GF(p) for odd primes p.

Scalars are plain values (fractions.Fraction, or FpElement for prime fields)
supporting +, -, *, / exactly, so the linear algebra kernel is field-generic.
A field object supplies constants, parsing, and the canonical string forms
used by scenario files and reports: "p/q" for rationals, "k mod p" for GF(p).
A rational whose numerator or denominator has more decimal digits than the
interpreter converts (`sys.get_int_max_str_digits()`) is refused by its bit
length, before any conversion, with `EntryTooLong`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import EntryTooLong, ParseError

# Largest accepted order of GF(p): it keeps trial division in `_is_prime`
# below 50,000 steps and field elements within a machine word.
MAX_PRIME = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _scalar_text(text) -> str:
    """Scalars are written as strings; a JSON number is not a scalar."""
    if not isinstance(text, str):
        raise ParseError(f"scalar must be a string, got {text!r}")
    return text.strip()


class FpElement:
    """Element of GF(p). Arithmetic stays in [0, p); ints lift implicitly."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError(f"mixed characteristics {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return FpElement(self.val * pow(o.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"{self.val} mod {self.p}"


class RationalField:
    """The field of rational numbers; scalars are fractions.Fraction."""

    characteristic = 0
    name = "rationals"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def parse(self, text: str) -> Fraction:
        text = _scalar_text(text)
        try:
            if "/" in text:
                num, den = text.split("/")
                return Fraction(int(num), int(den))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational scalar: {text!r}") from exc

    def format(self, x: Fraction) -> str:
        # always "p/q", lowest terms, q > 0 (Fraction normalizes both). An
        # int of b bits has at most floor(b log10 2) + 1 digits, so it
        # converts under a limit of L digits whenever b log10 2 < L (0, and
        # an interpreter before 3.10.7, have no limit)
        limit = getattr(sys, "get_int_max_str_digits", int)()
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        if limit and bits * math.log10(2) >= limit:
            raise EntryTooLong(
                f"a rational entry of {bits} bits has more than the {limit} digits"
                " the interpreter converts", bits=bits
            )
        return f"{x.numerator}/{x.denominator}"

    def elements(self):
        raise ValueError("the rationals are not enumerable")

    def random_scalar(self, rng) -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    def random_nonzero(self, rng) -> Fraction:
        while True:
            x = self.random_scalar(rng)
            if x != 0:
                return x

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """GF(p) for an odd prime p >= 3 (characteristic 2 is out of scope)."""

    def __init__(self, p: int):
        if p > MAX_PRIME:
            raise ParseError(f"prime field order must be at most {MAX_PRIME}, got {p}")
        if not _is_prime(p) or p < 3:
            raise ParseError(f"prime field order must be an odd prime >= 3, got {p}")
        self.p = p
        self.characteristic = p
        self.name = f"gf:{p}"
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def from_int(self, k: int) -> FpElement:
        return FpElement(k, self.p)

    def parse(self, text: str) -> FpElement:
        text = _scalar_text(text)
        try:
            if "mod" in text:
                val, mod = text.split("mod")
                if int(mod) != self.p:
                    raise ParseError(
                        f"scalar {text!r} has modulus {mod.strip()} but field is GF({self.p})"
                    )
                return FpElement(int(val), self.p)
            return FpElement(int(text), self.p)
        except ValueError as exc:
            raise ParseError(f"not a GF({self.p}) scalar: {text!r}") from exc

    def format(self, x: FpElement) -> str:
        return f"{x.val} mod {self.p}"

    def elements(self):
        return [FpElement(k, self.p) for k in range(self.p)]

    def random_scalar(self, rng) -> FpElement:
        return FpElement(rng.randrange(self.p), self.p)

    def random_nonzero(self, rng) -> FpElement:
        return FpElement(rng.randrange(1, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def field_from_name(name: str):
    """Build a field from its report name: "rationals" or "gf:p"."""
    if not isinstance(name, str):
        raise ParseError(f"bad field name: {name!r} (want 'rationals' or 'gf:p')")
    name = name.strip()
    if name == "rationals":
        return RationalField()
    if name.startswith("gf:"):
        try:
            p = int(name[3:])
        except ValueError as exc:
            raise ParseError(f"bad field name: {name!r}") from exc
        return PrimeField(p)
    raise ParseError(f"bad field name: {name!r} (want 'rationals' or 'gf:p')")
