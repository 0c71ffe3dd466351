"""Exact arithmetic: rationals, radical values, and residues mod Z.

Every quantity of interest is either rational or of the form
(rational) * u * sqrt(d) with u in {1, i} and d a squarefree positive
integer (an odd prime or 1 in practice).  Values stay exact until a
float is explicitly requested.  Rationals are stdlib Fractions: always in
lowest terms with a positive denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

UNIT_ONE = "1"
UNIT_I = "i"


def rational_str(x: Fraction | int) -> str:
    """Serialize as "num/den", omitting the denominator when it is 1."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class ResidueModZ:
    """A rational residue r with 0 <= r < 1."""

    value: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        if not 0 <= self.value < 1:
            raise ValueError(f"residue out of [0, 1): {self.value}")

    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return rational_str(self.value)


def reduce_mod_Z(x: Fraction | int) -> ResidueModZ:
    """The unique r in [0, 1) with x - r an integer."""
    return ResidueModZ((x if isinstance(x, Fraction) else Fraction(x)) % 1)


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
        if not isinstance(self.radicand, int) or self.radicand < 1:
            raise ValueError(f"radicand must be a positive integer, got {self.radicand!r}")
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff == 0:
            object.__setattr__(self, "unit", UNIT_ONE)
            object.__setattr__(self, "radicand", 1)

    @classmethod
    def zero(cls) -> "RadicalValue":
        """The shared zero value (instances are immutable)."""
        return _ZERO

    def is_zero(self) -> bool:
        return self.coeff == 0

    def to_complex(self) -> complex:
        mag = float(self.coeff) * math.sqrt(self.radicand)
        return complex(0.0, mag) if self.unit == UNIT_I else complex(mag, 0.0)

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
