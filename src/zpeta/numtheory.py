"""Legendre symbols, class numbers, and Legendre-weighted sums.

Conventions for an odd prime p = 2q + 1:

    (k/p)   Legendre symbol, p-periodic, 0 iff p | k
    delta   1 for p = 1 mod 4, i for p = 3 mod 4
    h(-p)   class number of Q(sqrt(-p)), via the Dirichlet value
            h = -(w / 2p) * sum_j (j/p) j   with w = 6 for p = 3, else 2

All the structured sums here (shifted, weighted, split) are evaluated by
literal direct summation.  Their closed forms are deliberately *not* used
in this module; the test suite asserts sum == closed form, so the
executable side stays the naive one.
"""

from __future__ import annotations

from functools import lru_cache

from .exact import UNIT_I, UNIT_ONE


class NotPrimeError(ValueError):
    pass


class NotOddError(ValueError):
    pass


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # least strong pseudoprime to all of _MR_BASES


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below psi_13 (about 3.3e24); a
    larger n raises ValueError rather than risk a pseudoprime."""
    if n < 2:
        return False
    if n >= _PSI_13:
        raise ValueError(f"primality is certified only below {_PSI_13}, got {n}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OddPrime:
    """An odd prime p with the derived quantities q = (p-1)/2 and t = [p/4]."""

    __slots__ = ("p", "q", "t", "_table", "_trivial", "_weighted")

    def __init__(self, p: int):
        p = int(p)
        if not is_prime(p):
            raise NotPrimeError(f"p must be prime, got {p}")
        if p == 2:
            raise NotOddError("p must be odd")
        self.p = p
        self.q = (p - 1) // 2
        self.t = p // 4
        self._table = None
        self._trivial = None
        self._weighted = None

    def legendre_table(self) -> tuple[int, ...]:
        if self._table is None:
            squares = {k * k % self.p for k in range(1, self.p)}
            self._table = tuple(
                0 if k == 0 else (1 if k in squares else -1) for k in range(self.p)
            )
        return self._table

    def trivial_table(self) -> tuple[int, ...]:
        """Values of the trivial character mod p at k = 0..p-1."""
        if self._trivial is None:
            self._trivial = (0,) + (1,) * (self.p - 1)
        return self._trivial

    def legendre(self, k: int) -> int:
        return self.legendre_table()[k % self.p]

    def weighted_sum(self) -> int:
        """sum_{j=1}^{p-1} (j/p) j"""
        if self._weighted is None:
            tab = self.legendre_table()
            self._weighted = sum(tab[j] * j for j in range(1, self.p))
        return self._weighted

    def __eq__(self, other) -> bool:
        return isinstance(other, OddPrime) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("OddPrime", self.p))

    def __int__(self) -> int:
        return self.p

    def __repr__(self) -> str:
        return f"OddPrime({self.p})"


@lru_cache(maxsize=None)
def _prime_cache(p: int) -> OddPrime:
    return OddPrime(p)


def as_prime(p: int | OddPrime) -> OddPrime:
    """p as an OddPrime; a float, string or bool raises ValueError, not truncated."""
    if isinstance(p, OddPrime):
        return p
    if type(p) is not int:
        raise ValueError(f"p must be an int, got {p!r}")
    return _prime_cache(p)


def legendre(k: int, p: int | OddPrime) -> int:
    """Legendre symbol (k/p) in {-1, 0, 1}."""
    return as_prime(p).legendre(k)


def delta_p(p: int | OddPrime) -> str:
    """1 if p = 1 mod 4, i if p = 3 mod 4 (as a RadicalValue unit tag)."""
    return UNIT_ONE if as_prime(p).p % 4 == 1 else UNIT_I


def class_number(p: int | OddPrime) -> int:
    """h(-p) from the Dirichlet value -(w/2p) sum_j (j/p) j; needs p = 3 mod 4."""
    P = as_prime(p)
    if P.p % 4 != 3:
        raise ValueError(f"class_number needs p = 3 mod 4, got p = {P.p}")
    omega = 6 if P.p == 3 else 2
    num = -omega * P.weighted_sum()
    h, rem = divmod(num, 2 * P.p)
    if rem != 0 or h <= 0:
        raise ArithmeticError(f"class number formula failed for p = {P.p}")
    return h


def class_number_reduced_forms(p: int | OddPrime) -> int:
    """Independent h(-p) oracle: count reduced forms ax^2 + bxy + cy^2.

    Reduced means |b| <= a <= c with b > 0 when |b| = a or a = c; the
    discriminant is b^2 - 4ac = -p, so b is odd and 0 < b <= sqrt(p/3).
    """
    P = as_prime(p)
    if P.p % 4 != 3:
        raise ValueError(f"needs p = 3 mod 4, got p = {P.p}")
    count = 0
    b = 1
    while 3 * b * b <= P.p:
        m4 = P.p + b * b
        if m4 % 4 == 0:
            m = m4 // 4
            a = b if b > 0 else 1
            while a * a <= m:
                if a >= b and m % a == 0:
                    c = m // a
                    count += 1 if (a == b or a == c) else 2
                a += 1
        b += 2
    return count


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return sign


def sum_legendre_shift(ell: int, k: int, sign: int, p: int | OddPrime) -> int:
    """sum_{j=1}^{p-1} ((k*ell +- j)/p), by direct summation."""
    P = as_prime(p)
    _check_sign(sign)
    tab, p = P.legendre_table(), P.p
    base = k * (ell % p)
    return sum(tab[(base + sign * j) % p] for j in range(1, p))


def sum_legendre_odd_shift(ell: int, sign: int, p: int | OddPrime) -> int:
    """sum_{j=0}^{p-1} ((2*ell +- (2j+1))/p), by direct summation."""
    P = as_prime(p)
    _check_sign(sign)
    tab, p = P.legendre_table(), P.p
    base = 2 * (ell % p)
    return sum(tab[(base + sign * (2 * j + 1)) % p] for j in range(p))


def weighted_legendre_sum(ell: int, factor: int, sign: int, p: int | OddPrime) -> int:
    """sum_{j=1}^{p-1} ((factor*ell +- j)/p) * j, by direct summation.

    factor is 1 or 2; ell is reduced mod p (the symbol is p-periodic).
    """
    P = as_prime(p)
    _check_sign(sign)
    if factor not in (1, 2):
        raise ValueError(f"factor must be 1 or 2, got {factor}")
    tab, p = P.legendre_table(), P.p
    base = factor * (ell % p)
    return sum(tab[(base + sign * j) % p] * j for j in range(1, p))


def S_h_pm(h: int, sign: int, ell: int, p: int | OddPrime) -> int:
    """Split partial sums of Legendre symbols.

    S_h^+-(ell, p) = sum_{j=1}^{p + [h*ell/p]p - h*ell - 1} (j/p)
                     +- sum_{j=1}^{h*ell - [h*ell/p]p - 1} (j/p)

    Empty ranges (upper limit < 1) contribute 0.
    """
    P = as_prime(p)
    _check_sign(sign)
    if h not in (1, 2):
        raise ValueError(f"h must be 1 or 2, got {h}")
    he = h * (ell % P.p)
    shift = (he // P.p) * P.p
    upper1 = P.p + shift - he - 1
    upper2 = he - shift - 1
    tab = P.legendre_table()
    first = sum(tab[j] for j in range(1, upper1 + 1))
    second = sum(tab[j] for j in range(1, upper2 + 1))
    return first + sign * second


def S_direct(which: int, ell: int, p: int | OddPrime) -> int:
    """The difference sums S_1, S_2 by literal direct summation.

    S_1(ell,p) = sum_{j=1}^{p-1} (((ell-j)/p) - ((ell+j)/p)) j
    S_2(ell,p) = sum_{j=0}^{p-1} (((2ell-(2j+1))/p) - ((2ell+(2j+1))/p)) j
    """
    P = as_prime(p)
    tab, p = P.legendre_table(), P.p
    e = ell % p
    if which == 1:
        return sum((tab[(e - j) % p] - tab[(e + j) % p]) * j for j in range(1, p))
    if which == 2:
        return sum(
            (tab[(2 * e - (2 * j + 1)) % p] - tab[(2 * e + (2 * j + 1)) % p]) * j
            for j in range(p)
        )
    raise ValueError(f"which must be 1 or 2, got {which}")


def odd_primes_upto(bound: int) -> list[int]:
    """All odd primes p with 3 <= p <= bound, ascending."""
    return [n for n in range(3, bound + 1, 2) if is_prime(n)]
