"""Exact arithmetic: rationals, radical values, residues mod Z, and the
oracle ring Z[zeta_4p].

Every quantity of interest is either rational or of the form
(rational) * u * sqrt(d) with u in {1, i} and d a squarefree positive
integer (an odd prime or 1 in practice).  Rationals are stdlib Fractions:
always in lowest terms with a positive denominator.

Every brute-force oracle is a finite sum of roots of unity, so it is an
exact element of Z[z], z = zeta_4p = e^{i pi / 2p}: e^{i pi m / p} = z^{2m},
i = z^p, and sin and cos expand by their definitions.  ``CyclotomicRing``
holds that ring for one odd prime; a closed form enters it through
``CyclotomicRing.embed`` and is compared with the literal sum by ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

UNIT_ONE = "1"
UNIT_I = "i"


def _rational(x: Fraction | int, what: str) -> Fraction:
    """x as a Fraction: an int is wrapped; a float, bool, string or any
    other type raises ValueError rather than being read as a rational."""
    if isinstance(x, Fraction):
        return x
    if type(x) is not int:
        raise ValueError(f"{what} must be an int or a Fraction, got {x!r}")
    return Fraction(x)


def rational_str(x: Fraction | int) -> str:
    """Serialize as "num/den", omitting the denominator when it is 1."""
    x = _rational(x, "rational")
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class ResidueModZ:
    """A rational residue r with 0 <= r < 1."""

    value: Fraction

    def __post_init__(self) -> None:
        value = self.value
        if not isinstance(value, Fraction):
            value = _rational(value, "residue")
            object.__setattr__(self, "value", value)
        # the denominator is positive, so this is 0 <= value < 1 on ints
        if not 0 <= value.numerator < value.denominator:
            raise ValueError(f"residue out of [0, 1): {value}")

    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return rational_str(self.value)


def reduce_mod_Z(x: Fraction | int) -> ResidueModZ:
    """The unique r in [0, 1) with x - r an integer: num mod den over den."""
    x = _rational(x, "x")
    den = x.denominator
    return ResidueModZ(Fraction(x.numerator % den, den))


@dataclass(frozen=True)
class RadicalValue:
    """coeff * unit * sqrt(radicand), with unit in {1, i}.

    Zero is normalized to coeff 0, unit 1, radicand 1.
    """

    coeff: Fraction
    unit: str = UNIT_ONE
    radicand: int = 1

    def __post_init__(self) -> None:
        if self.unit not in (UNIT_ONE, UNIT_I):
            raise ValueError(f"unit must be '1' or 'i', got {self.unit!r}")
        if type(self.radicand) is not int or self.radicand < 1:  # bool refused too
            raise ValueError(f"radicand must be a positive integer, got {self.radicand!r}")
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", _rational(self.coeff, "coeff"))
        if self.coeff == 0:
            object.__setattr__(self, "unit", UNIT_ONE)
            object.__setattr__(self, "radicand", 1)

    @classmethod
    def zero(cls) -> "RadicalValue":
        """The shared zero value (instances are immutable)."""
        return _ZERO

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = [rational_str(self.coeff)]
        if self.unit == UNIT_I:
            parts.append("i")
        if self.radicand != 1:
            parts.append(f"sqrt({self.radicand})")
        return "*".join(parts)


_ZERO = RadicalValue(Fraction(0))


# ---------------------------------------------------------------------------
# the oracle ring


class CyclotomicRing:
    """Z[z] with z = zeta_4p = e^{i pi / 2p}, for an odd prime p.

    A vector over exponents (a sequence or a dict) stands for sum_e v[e] z^e,
    exponents mod 4p.  Its canonical form folds by z^{2p} = -1, then
    reduces the two top coefficients by Phi_4p(z) = sum_{j<p} (-1)^j z^{2j},
    leaving the coordinates of 1, z, ..., z^{2p-3}; elements are packed
    from those (``pack``).  ``mono[e]`` is the packed z^e: below z^{2p-2} a
    shift.  A sum of s monomials has coordinates of size at most s, far
    inside the slots, so the literal sums are sums of monomials.
    """

    __slots__ = ("p", "dim", "bits", "bound", "mono", "_units", "_multiples")

    def __init__(self, P):
        p = self.p = P.p
        self.dim = 2 * p - 2
        # a product of q factors z^a -+ z^b, the largest oracle value, has
        # canonical coordinates of size at most 2^q: q + 2 bits with the sign
        self.bits = 64 * max(1, -(-(P.q + 2) // 64))
        self.bound = 1 << (self.bits - 1)
        half = [1 << (self.bits * e) for e in range(self.dim)]
        half += [self.pack(self.reduce({e: 1})) for e in (2 * p - 2, 2 * p - 1)]
        self.mono = tuple(half + [-x for x in half])  # z^{2p + e} = -z^e
        # sqrt p is g = sum_k (k/p) z^{4k} for p = 1 mod 4 and -i g = z^{3p} g
        # for p = 3 mod 4 (Gauss's sign), confirmed by its square and its value
        shift = 0 if p % 4 == 1 else 3 * p
        root = {(4 * k + shift) % (4 * p): s for k, s in enumerate(P.legendre_table()) if s}
        at_zeta = sum(c * math.cos(math.pi * e / (2 * p)) for e, c in enumerate(self.reduce(root)))
        if self.reduce(self.times(root, root)) != [p] + [0] * (self.dim - 1) or not (
            at_zeta > math.sqrt(p) / 2  # the exact square leaves +-sqrt(p) only
        ):
            raise ArithmeticError(f"no sqrt({p}) in Z[zeta_{4 * p}]: {root}")
        # the units i^j (index j) and i^j sqrt(p) (index 4 + j) of the closed
        # forms, with their first nonzero slot, its coordinate and their
        # largest |coordinate|
        self._units = []
        for vec in [{j * p: 1} for j in range(4)] + [
            {e + j * p: c for e, c in root.items()} for j in range(4)
        ]:
            coords = self.reduce(vec)
            slot = next(i for i, c in enumerate(coords) if c)
            self._units.append((self.pack(coords), slot, coords[slot], max(map(abs, coords))))
        self._multiples = {}

    def pack(self, coords: list[int]) -> int:
        """sum_i c_i 2^{bits i}: the coordinates in signed slots.  While every
        |c_i| < bound this is injective and linear, so a packed sum is the
        sum of the packed elements and == compares every coordinate at
        once; a coordinate at or past the bound raises OverflowError, so no
        overflow passes."""
        if any(abs(c) >= self.bound for c in coords):
            raise OverflowError(f"a coordinate does not fit a {self.bits}-bit slot: {coords}")
        return sum(c << (self.bits * i) for i, c in enumerate(coords))

    def unpack(self, x: int, n: int | None = None) -> list[int]:
        """The first n (default all) coordinates of a packed element."""
        coords, mask = [], (1 << self.bits) - 1
        for _ in range(self.dim if n is None else n):
            coords.append(((x + self.bound) & mask) - self.bound)
            x = (x - coords[-1]) >> self.bits
        return coords

    def reduce(self, vec, k: int = 1) -> list[int]:
        """Canonical coordinates of sum_e vec[e] z^{ek}: the image under
        z -> z^k, an endomorphism of Z[z]/(z^{4p} - 1), reduced after the map."""
        p2 = 2 * self.p
        folded = [0] * p2
        for e, c in vec.items() if isinstance(vec, dict) else enumerate(vec):
            e = e * k % (2 * p2)
            folded[e % p2] += c if e < p2 else -c
        # z^{2p-2} = -sum_{j<p-1} (-1)^j z^{2j}, and z times that for z^{2p-1}
        out = folded[: p2 - 2]
        for i in range(p2 - 2):
            out[i] += folded[p2 - 2 + i % 2] * (1 if i // 2 % 2 else -1)
        return out

    def times(self, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        """The product of two vectors, as dicts, modulo z^{4p} - 1."""
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                e = (i + j) % (4 * self.p)
                out[e] = out.get(e, 0) + a * b
        return out

    def to_str(self, x: int) -> str:
        """A packed element as a polynomial in z, e.g. "2 -1*z^3 +1*z^5"."""
        terms = [f"{c:+}" + (f"*z^{e}" if e else "") for e, c in enumerate(self.unpack(x)) if c]
        return " ".join(terms).lstrip("+") or "0"

    def _unit(self, i_pow: int, radicand: int) -> tuple:
        if radicand not in (1, self.p):
            raise ValueError(f"sqrt({radicand}) is not in Z[zeta_{4 * self.p}]")
        return self._units[i_pow % 4 + (4 if radicand > 1 else 0)]

    def embed(self, value, scale: int = 1, i_pow: int = 0) -> int:
        """The packed scale * i^i_pow * value for a closed form value: a
        rational, or a RadicalValue c * u * sqrt(d) with d in {1, p}.
        ValueError if that is not in Z[z], OverflowError past the slots."""
        coeff, radicand = value, 1
        if isinstance(value, RadicalValue):
            coeff, radicand = value.coeff, value.radicand
            i_pow += value.unit == UNIT_I
        unit, _, _, largest = self._unit(i_pow, radicand)
        coeff, rem = divmod(coeff.numerator * scale, coeff.denominator)
        if rem:
            raise ValueError(f"{scale} * {value} is not in Z[zeta_{4 * self.p}]")
        if abs(coeff) * largest >= self.bound:
            raise OverflowError(f"{scale} * {value} does not fit a {self.bits}-bit slot")
        return coeff * unit

    def multiple(self, x: int, i_pow: int, radicand: int = 1) -> int | None:
        """The integer t with x = t i^i_pow sqrt(radicand), read off one
        coordinate and confirmed by one packed comparison; None if there is
        none.  x must be packed, its coordinates inside the slots.

        The answer, None included, is kept on the ring by (x, i_pow mod 4,
        radicand): an oracle sweep asks for the same few values many times.
        An invalid radicand is never kept, so it raises on every call."""
        key = (x, i_pow % 4, radicand)
        t = self._multiples.get(key, self)  # the ring itself marks a miss
        if t is self:
            t = self._multiples[key] = self._extract(x, i_pow, radicand)
        return t

    def _extract(self, x: int, i_pow: int, radicand: int) -> int | None:
        unit, slot, lead, largest = self._unit(i_pow, radicand)
        # a multiple of the unit is zero in the slots below the unit's first
        t, rem = divmod(self.unpack(x >> (self.bits * slot), 1)[0], lead)
        # a t * unit with a coordinate past the slots is not the packed x
        if rem or abs(t) * largest >= self.bound or t * unit != x:
            return None
        return t


@lru_cache(maxsize=4)
def cyclotomic_ring(P) -> CyclotomicRing:
    """The ring of the OddPrime P, for the last four primes asked for."""
    return CyclotomicRing(P)
