"""Twisted Gauss sums, their sine-weighted variants, and trig products.

For an odd prime p, a character chi mod p (trivial chi0 or quadratic
chip), h in {1, 2} and integers l, c:

    G_h(l)    = sum_{k=1}^{p-1} (-1)^{k(h+1)} chi(k) e^{i pi k (2l + [h=2]) / p}
    F_h(l, c) = sum_{k=1}^{p-1} (-1)^{k(h+1)} chi(k) e^{2 pi i l k / p}
                    * sin(pi k (2c + [h=2]) / p)

plus the half-period products prod_{j=1}^{q} sin(j k pi / p) and the
cosine analogue, q = (p-1)/2.

Each sum has two faces: an exact closed form (RadicalValue) and a literal
floating-point summation in fixed ascending-k order.  The two sides are
kept strictly separate so each can serve as the other's oracle.

F_h(l, c) depends only on l mod p and c mod p, so its direct sum is
evaluated for a whole p x p grid at once (one numpy outer product per k,
accumulated in ascending k) and cached for the last four (h, chi, p);
each grid cell is the same literal sum, in the same order, as a scalar
loop over k.
"""

from __future__ import annotations

import cmath
import enum
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import UNIT_I, UNIT_ONE, RadicalValue
from .numtheory import OddPrime, as_prime


class CharacterChoice(enum.Enum):
    CHI0 = "chi0"  # trivial character mod p
    CHIP = "chip"  # quadratic (Legendre) character mod p


CHI0 = CharacterChoice.CHI0
CHIP = CharacterChoice.CHIP


@lru_cache(maxsize=None)
def _phase_table(p: int) -> tuple[complex, ...]:
    # e^{i pi m / p} for m in 0..2p-1; index reduction mod 2p is exact
    return tuple(cmath.exp(1j * math.pi * m / p) for m in range(2 * p))


@lru_cache(maxsize=None)
def _sine_table(p: int) -> tuple[float, ...]:
    return tuple(math.sin(math.pi * m / p) for m in range(2 * p))


def _char_values(chi: CharacterChoice, P: OddPrime) -> tuple[int, ...]:
    return P.trivial_table() if chi is CHI0 else P.legendre_table()


def _check_h(h: int) -> int:
    if h not in (1, 2):
        raise ValueError(f"h must be 1 or 2, got {h}")
    return h


def _check_c(c: int) -> int:
    if c < 1:
        raise ValueError(f"c must be a positive integer, got {c}")
    return c


def gauss_direct(h: int, chi: CharacterChoice, l: int, p: int | OddPrime) -> complex:
    """Literal floating summation of G_h, ascending k."""
    P = as_prime(p)
    _check_h(h)
    phases = _phase_table(P.p)
    chars = _char_values(chi, P)
    step = 2 * l + (1 if h == 2 else 0)
    total = 0.0 + 0.0j
    for k in range(1, P.p):
        sign = -1 if (h == 2 and k % 2 == 1) else 1
        total += sign * chars[k % P.p] * phases[(k * step) % (2 * P.p)]
    return total


def G_h_chi0(h: int, l: int, p: int | OddPrime) -> int:
    """G_h for the trivial character: p - 1 on the divisibility locus, else -1."""
    P = as_prime(p)
    _check_h(h)
    hit = (l % P.p == 0) if h == 1 else ((2 * l + 1) % P.p == 0)
    return P.p - 1 if hit else -1


def G_h_chip(h: int, l: int, p: int | OddPrime) -> RadicalValue:
    """G_h for the quadratic character, as an exact radical value."""
    P = as_prime(p)
    _check_h(h)
    if h == 1:
        coeff = P.legendre(l)
    else:
        coeff = P.legendre(2) * P.legendre(2 * l + 1)
    # delta(p): 1 for p = 1 mod 4, i for p = 3 mod 4
    return RadicalValue(Fraction(coeff), UNIT_ONE if P.p % 4 == 1 else UNIT_I, P.p)


def F_h_chi0(h: int, l: int, c: int, p: int | OddPrime) -> RadicalValue:
    """F_h for the trivial character: 0 or a purely imaginary +-i p/2."""
    P = as_prime(p)
    _check_h(h)
    _check_c(c)
    if l % P.p == 0:
        return RadicalValue.zero()
    if h == 1:
        plus = (l - c) % P.p == 0
        minus = (l + c) % P.p == 0
    else:
        plus = (2 * (l - c) - 1) % P.p == 0
        minus = (2 * (l + c) + 1) % P.p == 0
    if plus:
        return RadicalValue(Fraction(P.p, 2), UNIT_I, 1)
    if minus:
        return RadicalValue(Fraction(-P.p, 2), UNIT_I, 1)
    return RadicalValue.zero()


def F_h_chip(h: int, l: int, c: int, p: int | OddPrime) -> RadicalValue:
    """F_h for the quadratic character.

    h=1: i delta(p) (((l-c)/p) - ((l+c)/p)) sqrt(p)/2
    h=2: i delta(p) (2/p) (((2(l-c)-1)/p) - ((2(l+c)+1)/p)) sqrt(p)/2

    The i * delta(p) product is folded exactly: it is i for p = 1 mod 4
    and -1 for p = 3 mod 4.
    """
    P = as_prime(p)
    _check_h(h)
    _check_c(c)
    if h == 1:
        diff = P.legendre(l - c) - P.legendre(l + c)
    else:
        diff = P.legendre(2) * (P.legendre(2 * (l - c) - 1) - P.legendre(2 * (l + c) + 1))
    if P.p % 4 == 1:
        return RadicalValue(Fraction(diff, 2), UNIT_I, P.p)
    return RadicalValue(Fraction(-diff, 2), UNIT_ONE, P.p)


@lru_cache(maxsize=4)
def _F_grid(h: int, chi: CharacterChoice, p: int) -> tuple[tuple[complex, ...], ...]:
    """F_h(l, c) by direct summation for l, c in 0..p-1, indexed [l][c].

    Cell (l, c) accumulates sign * chi(k) * e^{2 pi i l k / p} * sin(...)
    for k = 1..p-1 in ascending order, with real and imaginary parts kept
    apart so that each product and each addition rounds exactly as the
    scalar complex loop does.  A matrix product would let BLAS reorder
    the sum, so the grid is built one k at a time.
    """
    P = as_prime(p)
    phases = np.array(_phase_table(p))
    sines = np.array(_sine_table(p))
    chars = _char_values(chi, P)
    residues = np.arange(p)
    sin_steps = 2 * residues + (1 if h == 2 else 0)
    real = np.zeros((p, p))
    imag = np.zeros((p, p))
    for k in range(1, p):
        weight = (-1 if (h == 2 and k % 2 == 1) else 1) * chars[k]
        phase_row = phases[(2 * k * residues) % (2 * p)]
        sine_row = sines[(k * sin_steps) % (2 * p)]
        real += np.multiply.outer(weight * phase_row.real, sine_row)
        imag += np.multiply.outer(weight * phase_row.imag, sine_row)
    grid = real.astype(complex)
    grid.imag = imag
    return tuple(map(tuple, grid.tolist()))


def F_direct(h: int, chi: CharacterChoice, l: int, c: int, p: int | OddPrime) -> complex:
    """Literal floating summation of F_h, ascending k, for any l and c >= 1.

    The value is read from the cached grid of its (h, chi, p) at
    (l mod p, c mod p); the summation order is that of the scalar loop.
    """
    P = as_prime(p)
    _check_h(h)
    _check_c(c)
    return _F_grid(h, chi, P.p)[l % P.p][c % P.p]


def trig_prod(kind: str, k: int, p: int | OddPrime) -> RadicalValue:
    """Closed form of prod_{j=1}^{q} sin(jk pi/p) or cos(jk pi/p).

    sin: (-1)^{(k-1)(p^2-1)/8} (k/p) 2^{-q} sqrt(p) for (k, p) = 1, else 0.
    cos: (-1)^{(k-1)(p^2-1)/8} 2^{-q} for (k, p) = 1,
         (-1)^{(k/p)[(q+1)/2]} for p | k (k/p here the integer quotient).
    """
    P = as_prime(p)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    eps = (P.p * P.p - 1) // 8
    if kind == "sin":
        sym = P.legendre(k)
        if sym == 0:
            return RadicalValue.zero()
        sign = -1 if ((k - 1) * eps) % 2 else 1
        return RadicalValue(Fraction(sign * sym, 2**P.q), UNIT_ONE, P.p)
    if kind == "cos":
        if k % P.p == 0:
            sign = -1 if ((k // P.p) * ((P.q + 1) // 2)) % 2 else 1
            return RadicalValue(Fraction(sign), UNIT_ONE, 1)
        sign = -1 if ((k - 1) * eps) % 2 else 1
        return RadicalValue(Fraction(sign, 2**P.q), UNIT_ONE, 1)
    raise ValueError(f"kind must be 'sin' or 'cos', got {kind!r}")


def trig_prod_direct(kind: str, k: int, p: int | OddPrime) -> float:
    """Literal floating product prod_{j=1}^{q} of sin or cos of jk pi/p."""
    P = as_prime(p)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if kind not in ("sin", "cos"):
        raise ValueError(f"kind must be 'sin' or 'cos', got {kind!r}")
    fn = math.sin if kind == "sin" else math.cos
    prod = 1.0
    for j in range(1, P.q + 1):
        prod *= fn(j * k * math.pi / P.p)
    return prod
