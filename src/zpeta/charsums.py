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

Both sums are read from one table per (chi, p),

    D(u) = sum_{k=1}^{p-1} chi(k) z^{2ku},   u mod 2p,

built as sums of packed monomials.  The h = 2 weight (-1)^k is z^{2pk},
so an h = 2 sum reads D at u + p: G_h(l) = D(2l + [h=2] + p[h=2]), and,
since sin x = (e^{ix} - e^{-ix}) / 2i,
2i F_h(l, c) = D(2l + m + p[h=2]) - D(2l - m + p[h=2]) with m = 2c + [h=2].
The trig products are literal products of z^{2jk} -+ z^{-2jk} (2i sin and
2 cos of j k pi / p).

Each table is summed on one orbit of the root-of-unity identities its
literal terms obey, and filled from it by those identities:

    D(2p - u) = chi(-1) (-1)^u D(u)          (k -> p - k),
    T(-k) = s^q T(k),  T(k + p) = (-1)^{q(q+1)/2} T(k)

for the product T(k) of z^{2jk} + s z^{-2jk}, s = -1 (sin) or +1 (cos).
So only u = 0..p and k = 0..q are summed.  The identities hold in Z[z]
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
    """D(u) for u = 0..2p-1, packed: u = 0..p each the sum of its p - 1
    monomials, the rest D(2p - u) = chi(-1) (-1)^u D(u)."""
    P = as_prime(p)
    mono = cyclotomic_ring(P).mono
    chars = P.legendre_table() if quadratic else [1] * p  # k = 1..p-1 are read
    plus = [k for k in range(1, p) if chars[k] == 1]
    minus = [k for k in range(1, p) if chars[k] == -1]
    n = 4 * p
    low = [
        sum([mono[2 * k * u % n] for k in plus]) - sum([mono[2 * k * u % n] for k in minus])
        for u in range(p + 1)
    ]
    odd = -chars[p - 1]  # chi(-1) (-1)^u at odd u
    high = [low[2 * p - u] * (odd if u % 2 else -odd) for u in range(p + 1, 2 * p)]
    return tuple(low + high)


def gauss_direct(h: int, chi: CharacterChoice, l: int, p: int | OddPrime) -> int:
    """The literal sum G_h(l), packed in the ring of p."""
    P = _prime(p, chi, h, l)
    return _gauss_terms(chi is CHIP, P.p)[(2 * l + (h == 2) * (P.p + 1)) % (2 * P.p)]


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
    coeff = P.legendre(2) * P.legendre(2 * l + (h == 2))
    # delta(p): 1 for p = 1 mod 4, i for p = 3 mod 4
    return RadicalValue(Fraction(coeff), UNIT_ONE if P.p % 4 == 1 else UNIT_I, P.p)


def F_h_chi0(h: int, l: int, c: int, p: int | OddPrime) -> RadicalValue:
    """F_h for the trivial character: 0 if p | l, else +-i p/2 if p | l -+ c
    (h=1) or p | 2(l -+ c) -+ 1 (h=2), else 0.  Uniformly: +-i p/2 if
    p | 2l -+ m, m = 2c + [h=2], for l != 0 mod p."""
    P = _prime(p, CHI0, h, l, c)
    if l % P.p == 0:
        return RadicalValue.zero()
    m = 2 * c + (h == 2)
    if (2 * l - m) % P.p == 0:
        return RadicalValue(Fraction(P.p, 2), UNIT_I, 1)
    if (2 * l + m) % P.p == 0:
        return RadicalValue(Fraction(-P.p, 2), UNIT_I, 1)
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
    return _half_root_multiples(P.p)[diff + 2]


@lru_cache(maxsize=4)
def _half_root_multiples(p: int) -> tuple[RadicalValue, ...]:
    """i delta(p) diff sqrt(p)/2 for diff = -2..2, the values of F_h_chip,
    built once per prime: one RadicalValue per call made the appendix suite
    about a quarter slower."""
    if p % 4 == 1:
        return tuple(RadicalValue(Fraction(diff, 2), UNIT_I, p) for diff in range(-2, 3))
    return tuple(RadicalValue(Fraction(-diff, 2), UNIT_ONE, p) for diff in range(-2, 3))


def F_direct(h: int, chi: CharacterChoice, l: int, c: int, p: int | OddPrime) -> int:
    """The literal sum 2i F_h(l, c), packed in the ring of p, for any l and c >= 1."""
    P = _prime(p, chi, h, l, c)
    terms = _gauss_terms(chi is CHIP, P.p)
    m, n = 2 * c + (h == 2), 2 * P.p
    u = 2 * l + (h == 2) * P.p
    return terms[(u + m) % n] - terms[(u - m) % n]


def trig_prod(kind: str, k: int, p: int | OddPrime) -> RadicalValue:
    """Closed form of prod_{j=1}^{q} sin(jk pi/p) or cos(jk pi/p).

    sin: (2/p)^{k-1} (k/p) 2^{-q} sqrt(p) for (k, p) = 1, else 0.
    cos: (2/p)^{k-1} 2^{-q} for (k, p) = 1,
         (2/p)^{k/p} for p | k (k/p here the integer quotient).
    """
    P = _trig_prime(kind, k, p)
    l2 = P.legendre(2)
    if kind == "sin":
        sym = P.legendre(k)
        if sym == 0:
            return RadicalValue.zero()
        return RadicalValue(Fraction(l2 ** (k - 1) * sym, 2**P.q), UNIT_ONE, P.p)
    if k % P.p == 0:
        return RadicalValue(Fraction(l2 ** (k // P.p)), UNIT_ONE, 1)
    return RadicalValue(Fraction(l2 ** (k - 1), 2**P.q), UNIT_ONE, 1)


def half_period_product(kind: str, p: int | OddPrime) -> dict[int, int]:
    """prod_{j=1}^{q} (z^{2j} -+ z^{-2j}) modulo z^{4p} - 1, as its nonzero
    coefficients {e: c}: (2i)^q times the sine product at k = 1, or 2^q
    times the cosine one.  Its image under z -> z^k is the product at k."""
    P = _trig_prime(kind, 1, p)
    sign, n = _KINDS[kind], 4 * P.p
    vec = [1] + [0] * (n - 1)
    for j in range(1, P.q + 1):
        vec = [vec[(e - 2 * j) % n] + sign * vec[(e + 2 * j) % n] for e in range(n)]
    return {e: c for e, c in enumerate(vec) if c}


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
