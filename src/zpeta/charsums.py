"""Twisted Gauss sums, their sine-weighted variants, and trig products.

For an odd prime p, a character chi mod p (trivial chi0 or quadratic
chip), h in {1, 2} and integers l, c:

    G_h(l)    = sum_{k=1}^{p-1} (-1)^{k(h+1)} chi(k) e^{i pi k (2l + [h=2]) / p}
    F_h(l, c) = sum_{k=1}^{p-1} (-1)^{k(h+1)} chi(k) e^{2 pi i l k / p}
                    * sin(pi k (2c + [h=2]) / p)

plus the half-period products prod_{j=1}^{q} sin(j k pi / p) and the
cosine analogue, q = (p-1)/2.

Each sum has two faces: an exact closed form (RadicalValue) and the
literal sum, evaluated term by term in the oracle ring Z[z], z = zeta_4p
(``exact.CyclotomicRing``), where it is an exact packed element.  The two
sides are kept strictly separate so each can serve as the other's oracle,
and they are compared with ``==`` after ``CyclotomicRing.embed``.

Both sums are read from one table per (chi, p).  With

    D(u) = sum_{k=1}^{p-1} chi(k) z^{2ku},   u mod 2p,

the h = 2 weight (-1)^k is z^{2pk}, so an h = 2 sum reads D at u + p:
G_h(l) = D(2l + [h=2] + p[h=2]), and, since sin x = (e^{ix} - e^{-ix}) / 2i,
2i F_h(l, c) = D(2l + m + p[h=2]) - D(2l - m + p[h=2]) with m = 2c + [h=2].
Every one of those indices is even, so the table is

    E(v) = D(2v) = sum_{k=1}^{p-1} chi(k) z^{4kv},   v mod p,

built as sums of packed monomials: G_h(l) = E(s) and
2i F_h(l, c) = E(s + c) - E(s - c - [h=2]), s = l + [h=2] (q + 1).
The trig products are literal products of z^{2jk} -+ z^{-2jk} (2i sin and
2 cos of j k pi / p); ``product_weights`` holds the k = 1 product, and its
powers, as coefficients of x = z^2.

Each table is summed on one orbit of the root-of-unity identities its
literal terms obey, and filled from it by those identities:

    E(p - v) = chi(-1) E(v)          (k -> p - k),
    T(-k) = s^q T(k),  T(k + p) = (-1)^{q(q+1)/2} T(k)

for the product T(k) of z^{2jk} + s z^{-2jk}, s = -1 (sin) or +1 (cos).
So only v = 0..q and k = 0..q are summed.  The identities hold in Z[z]
itself, term by term (a reindexing of the sum, a sign per factor of the
product), so a filled entry is still the literal sum.  No closed form
enters a table: a table built from one would check it against itself.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache

from .exact import UNIT_I, UNIT_ONE, RadicalValue, cyclotomic_ring
from .numtheory import OddPrime, as_prime, check_ints


class CharacterChoice(enum.Enum):
    CHI0 = "chi0"  # trivial character mod p
    CHIP = "chip"  # quadratic (Legendre) character mod p


CHI0 = CharacterChoice.CHI0
CHIP = CharacterChoice.CHIP

_KINDS = {"sin": -1, "cos": 1}  # the sign of z^{-2jk} in a factor of the product


def _prime(p: int | OddPrime, chi: CharacterChoice, h: int, l: int, c: int = 1) -> OddPrime:
    """p as an OddPrime once the arguments pass, before any table is read:
    chi a CharacterChoice, h, l and c ints (bools refused), h in {1, 2} and
    c >= 1."""
    # one test on the valid path, which the appendix takes at every cell
    if (
        type(h) is type(l) is type(c) is int and 0 < h < 3 and c > 0
        and type(chi) is CharacterChoice
    ):
        return p if type(p) is OddPrime else as_prime(p)  # the suites pass an OddPrime
    check_ints("h l c", h, l, c)
    if not isinstance(chi, CharacterChoice):
        raise ValueError(f"chi must be a CharacterChoice, got {chi!r}")
    if h not in (1, 2):
        raise ValueError(f"h must be 1 or 2, got {h}")
    # the fast test failed on c alone
    raise ValueError(f"c must be a positive integer, got {c}")


def _trig_prime(kind: str, k: int, p: int | OddPrime) -> OddPrime:
    check_ints("k", k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if kind not in _KINDS:
        raise ValueError(f"kind must be 'sin' or 'cos', got {kind!r}")
    return as_prime(p)


@lru_cache(maxsize=4)
def _gauss_terms(quadratic: bool, p: int) -> tuple[int, ...]:
    """E(v) = D(2v) for v = 0..p-1, packed: v = 0..q each the sum of its
    p - 1 monomials, the rest E(p - v) = chi(-1) E(v)."""
    P = as_prime(p)
    mono = cyclotomic_ring(P).mono
    chars = P.legendre_table() if quadratic else [1] * p  # k = 1..p-1 are read
    plus = [k for k in range(1, p) if chars[k] == 1]
    minus = [k for k in range(1, p) if chars[k] == -1]
    n = 4 * p
    low = [
        sum([mono[4 * k * v % n] for k in plus]) - sum([mono[4 * k * v % n] for k in minus])
        for v in range(P.q + 1)
    ]
    return tuple(low + [low[p - v] * chars[p - 1] for v in range(P.q + 1, p)])  # chi(-1)


def gauss_direct(h: int, chi: CharacterChoice, l: int, p: int | OddPrime) -> int:
    """The literal sum G_h(l), packed in the ring of p."""
    P = _prime(p, chi, h, l)
    return _gauss_terms(chi is CHIP, P.p)[(l + (h == 2) * (P.q + 1)) % P.p]


def G_h_chi0(h: int, l: int, p: int | OddPrime) -> int:
    """G_h for the trivial character: p - 1 if p | l (h=1) or p | 2l + 1 (h=2),
    else -1.  Uniformly: p - 1 if p | u, u = 2l + [h=2], else -1."""
    P = _prime(p, CHI0, h, l)
    return P.p - 1 if (2 * l + (h == 2)) % P.p == 0 else -1


def G_h_chip(h: int, l: int, p: int | OddPrime) -> RadicalValue:
    """G_h for the quadratic character: (l/p) delta(p) sqrt(p) (h=1) or
    (2/p) ((2l+1)/p) delta(p) sqrt(p) (h=2).  Uniformly, as (l/p) =
    (2/p)(2l/p): (2/p) (u/p) delta(p) sqrt(p), u = 2l + [h=2]."""
    P = _prime(p, CHI0, h, l)
    return _closed_values(P.p)["gauss"][P.legendre(2) * P.legendre(2 * l + (h == 2)) + 2]


def F_h_chi0(h: int, l: int, c: int, p: int | OddPrime) -> RadicalValue:
    """F_h for the trivial character: 0 if p | l, else +-i p/2 if p | l -+ c
    (h=1) or p | 2(l -+ c) -+ 1 (h=2), else 0.  Uniformly: +-i p/2 if
    p | 2l -+ m, m = 2c + [h=2], for l != 0 mod p."""
    P = _prime(p, CHI0, h, l, c)
    if l % P.p == 0:
        return RadicalValue.zero()
    m = 2 * c + (h == 2)
    if (2 * l - m) % P.p == 0:
        return _closed_values(P.p)["sine_chi0"][3]
    if (2 * l + m) % P.p == 0:
        return _closed_values(P.p)["sine_chi0"][1]
    return RadicalValue.zero()


def F_h_chip(h: int, l: int, c: int, p: int | OddPrime) -> RadicalValue:
    """F_h for the quadratic character.

    h=1: i delta(p) (((l-c)/p) - ((l+c)/p)) sqrt(p)/2
    h=2: i delta(p) (2/p) (((2(l-c)-1)/p) - ((2(l+c)+1)/p)) sqrt(p)/2
    Uniformly: diff = (2/p) (((2l-m)/p) - ((2l+m)/p)), m = 2c + [h=2].

    The i * delta(p) product is folded exactly: it is i for p = 1 mod 4
    and -1 for p = 3 mod 4.
    """
    P = _prime(p, CHI0, h, l, c)
    tab, m = P.legendre_table(), 2 * c + (h == 2)
    diff = tab[2] * (tab[(2 * l - m) % P.p] - tab[(2 * l + m) % P.p])
    return _closed_values(P.p)["sine_chip"][diff + 2]


@lru_cache(maxsize=4)
def _closed_values(p: int) -> dict[str, tuple[RadicalValue, ...]]:
    """Per closed form, its values s * v at p for s = -2..2 (index s + 2),
    built once per prime: the forms return these shared objects (the zero
    among them), so the appendix suite embeds each value once, not once
    per cell.  v is delta(p) sqrt(p) for G_h_chip, i p/2 for F_h_chi0,
    i delta(p) sqrt(p)/2 for F_h_chip, 2^-q sqrt(p) and 2^-q for the sine
    and cosine products, and 1 for the cosine product at p | k.  delta(p)
    is 1 for p = 1 mod 4 and i for p = 3 mod 4, so i delta(p) is i or -1."""
    q, one_mod_4 = (p - 1) // 2, p % 4 == 1
    units = {
        "gauss": (Fraction(1), UNIT_ONE if one_mod_4 else UNIT_I, p),
        "sine_chi0": (Fraction(p, 2), UNIT_I, 1),
        "sine_chip": (Fraction(1 if one_mod_4 else -1, 2), UNIT_I if one_mod_4 else UNIT_ONE, p),
        "sin": (Fraction(1, 2**q), UNIT_ONE, p),
        "cos": (Fraction(1, 2**q), UNIT_ONE, 1),
        "one": (Fraction(1), UNIT_ONE, 1),
    }
    zero = RadicalValue.zero()
    return {
        name: tuple(RadicalValue(s * v, unit, r) if s else zero for s in range(-2, 3))
        for name, (v, unit, r) in units.items()
    }


def F_direct(h: int, chi: CharacterChoice, l: int, c: int, p: int | OddPrime) -> int:
    """The literal sum 2i F_h(l, c), packed in the ring of p, for any l and c >= 1."""
    P = _prime(p, chi, h, l, c)
    terms, delta = _gauss_terms(chi is CHIP, P.p), h == 2
    s = l + delta * (P.q + 1)
    return terms[(s + c) % P.p] - terms[(s - c - delta) % P.p]


def trig_prod(kind: str, k: int, p: int | OddPrime) -> RadicalValue:
    """Closed form of prod_{j=1}^{q} sin(jk pi/p) or cos(jk pi/p).

    sin: (2/p)^{k-1} (k/p) 2^{-q} sqrt(p) for (k, p) = 1, else 0.
    cos: (2/p)^{k-1} 2^{-q} for (k, p) = 1,
         (2/p)^{k/p} for p | k (k/p here the integer quotient).
    """
    P = _trig_prime(kind, k, p)
    l2, values = P.legendre(2), _closed_values(P.p)
    if kind == "sin":
        return values["sin"][l2 ** (k - 1) * P.legendre(k) + 2]
    if k % P.p == 0:
        return values["one"][l2 ** (k // P.p) + 2]
    return values["cos"][l2 ** (k - 1) + 2]


def half_period_product(kind: str, p: int | OddPrime) -> dict[int, int]:
    """prod_{j=1}^{q} (z^{2j} -+ z^{-2j}) modulo z^{4p} - 1, as its nonzero
    coefficients {e: c}: (2i)^q times the sine product at k = 1, or 2^q
    times the cosine one.  Its image under z -> z^k is the product at k.
    Every exponent is even: it is ``product_weights(kind, p, 1)`` at x = z^2."""
    P = _trig_prime(kind, 1, p)
    return {2 * v: c for v, c in enumerate(product_weights(kind, P.p, 1)) if c}


@lru_cache(maxsize=None, typed=True)  # so 1.0 or True is checked, not read as 1
def product_weights(kind: str, p: int, blocks: int) -> tuple[int, ...]:
    """The coefficients of (prod_{j=1}^{q} (x^j -+ x^{-j}))^blocks in
    Z[x]/(x^{2p} - 1), slot v holding x^v: W_blocks for kind "sin", U_blocks
    for "cos".  A coefficient counts the sign vectors e, one sign per
    factor, whose signed exponents sum to v (mod 2p), each weighted by
    (-1)^{number of -1 signs} for "sin".  Kept for every (kind, p, blocks)
    asked for, each a tuple of 2p ints."""
    P = _trig_prime(kind, 1, p)
    check_ints("blocks", blocks)
    if blocks < 0:
        raise ValueError(f"blocks must be >= 0, got {blocks}")
    sign = _KINDS[kind]
    vec = [1] + [0] * (2 * P.p - 1)
    for _ in range(blocks):
        for j in range(1, P.q + 1):  # times x^j -+ x^{-j}: slot v takes slots v - j and v + j
            vec = [x + sign * y for x, y in zip(vec[-j:] + vec[:-j], vec[j:] + vec[:j])]
    return tuple(vec)


@lru_cache(maxsize=4)
def _trig_literals(p: int) -> dict[str, tuple[int, ...]]:
    """Per kind, the packed product T(k) at k = 0..2p-1: every exponent of
    the product is even, so its image under z -> z^k depends on k mod 2p
    only.  k = 0..q are mapped from the product at k = 1, the rest filled
    by T(p - k) = (-1)^{q(q+1)/2} s^q T(k) and T(k + p) = (-1)^{q(q+1)/2} T(k)."""
    P = as_prime(p)
    ring, q = cyclotomic_ring(P), P.q
    shift = -1 if q * (q + 1) // 2 % 2 else 1
    out = {}
    for kind, sign in _KINDS.items():
        prod = half_period_product(kind, P)
        low = [ring.pack(ring.reduce(prod, k)) for k in range(q + 1)]
        mirror = shift * sign**q
        half = low + [mirror * low[p - k] for k in range(q + 1, p)]
        out[kind] = tuple(half + [shift * x for x in half])
    return out


def trig_prod_direct(kind: str, k: int, p: int | OddPrime) -> int:
    """The literal product prod_{j=1}^{q} (z^{2jk} -+ z^{-2jk}), packed in the
    ring of p: (2i)^q prod sin(jk pi/p) for kind "sin", 2^q prod cos(jk pi/p)
    for "cos"."""
    P = _trig_prime(kind, k, p)
    return _trig_literals(P.p)[kind][k % (2 * P.p)]
