"""Legendre symbols, class numbers, and Legendre-weighted sums.

Conventions for an odd prime p = 2q + 1:

    (k/p)   Legendre symbol, p-periodic, 0 iff p | k
    h(-p)   class number of Q(sqrt(-p)), via the Dirichlet value
            h = -(w / 2p) * sum_j (j/p) j   with w = 6 for p = 3, else 2

The shifted, weighted and difference sums are evaluated by literal direct
summation, and never read a split form.  ``weighted_split`` (a weighted
sum from the partial sums of the symbol, W included) and ``S_split``
(the difference sums S_1, S_2 as differences of it) are the split side;
the appendix suite and the tests assert literal sum == split form.

The shifted and weighted sums depend only on their base (k*ell, 2*ell or
factor*ell, taken mod p) and their sign.  ``OddPrime`` keeps each such sum
in a memo keyed by (kind, base mod p, sign): the literal ascending-j loop
fills a cell on its first read, once per prime, so a sweep over every
(ell, k) costs O(p^2) per prime and one call costs O(p).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate


class NotPrimeError(ValueError):
    pass


class NotOddError(ValueError):
    pass


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # least strong pseudoprime to all of _MR_BASES


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below psi_13 (about 3.3e24); a
    larger n raises ValueError rather than risk a pseudoprime."""
    check_ints("n", n)
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

    __slots__ = ("p", "q", "t", "_table", "_prefix", "_weight", "_sums")

    def __init__(self, p: int):
        if type(p) is not int:
            raise ValueError(f"p must be an int, got {p!r}")
        if not is_prime(p):
            raise NotPrimeError(f"p must be prime, got {p}")
        if p == 2:
            raise NotOddError("p must be odd")
        self.p = p
        self.q = (p - 1) // 2
        self.t = p // 4
        self._table = self._prefix = self._weight = None
        self._sums = {}

    def legendre_table(self) -> tuple[int, ...]:
        if self._table is None:
            squares = {k * k % self.p for k in range(1, self.p)}
            self._table = tuple(
                0 if k == 0 else (1 if k in squares else -1) for k in range(self.p)
            )
        return self._table

    def prefix_table(self) -> tuple[int, ...]:
        """Entry u is sum_{j=1}^{u} (j/p), for u = 0, ..., p - 1."""
        if self._prefix is None:
            self._prefix = tuple(accumulate(self.legendre_table()))
        return self._prefix

    def legendre(self, k: int) -> int:
        return self.legendre_table()[k % self.p]

    def literal_sum(self, kind: str, base: int, sign: int) -> int:
        """The Legendre sum of the kind at (base mod p, sign).  Its literal
        loop runs, after a check of the kind and sign, on the first read of
        the cell; later reads return it."""
        key = (kind, base % self.p, sign)
        value = self._sums.get(key)
        if value is None:
            if kind not in _LOOPS:
                raise ValueError(f"kind must be one of {', '.join(_LOOPS)}, got {kind!r}")
            _check_sign(sign)
            value = self._sums[key] = _LOOPS[kind](self.legendre_table(), self.p, key[1], sign)
        return value

    def weighted_sum(self) -> int:
        """W = sum_{j=1}^{p-1} (j/p) j, once per prime, from P = prefix_table()
        and not from the literal memo: sum_u P[u] = sum_j (j/p)(p - j) = -W."""
        if self._weight is None:
            self._weight = -sum(self.prefix_table())
        return self._weight

    def __eq__(self, other) -> bool:
        return isinstance(other, OddPrime) and other.p == self.p

    def __hash__(self) -> int:
        # read on every cyclotomic_ring(P) lookup; equal primes have equal p
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
    if type(p) is not int:  # before the cache, where 7.0 would hit the cached 7
        raise ValueError(f"p must be an int, got {p!r}")
    return _prime_cache(p)


def class_number(p: int | OddPrime) -> int:
    """h(-p) from the literal Dirichlet sum -(w/2p) sum_j (j/p) j; needs p = 3 mod 4."""
    P = as_prime(p)
    if P.p % 4 != 3:
        raise ValueError(f"class_number needs p = 3 mod 4, got p = {P.p}")
    omega = 6 if P.p == 3 else 2
    num = -omega * P.literal_sum("weighted", 0, 1)
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


# The literal loops behind OddPrime.literal_sum, by kind; base is reduced mod p.
_LOOPS = {
    "shift": lambda tab, p, base, sign: sum(tab[(base + sign * j) % p] for j in range(1, p)),
    "odd-shift": lambda tab, p, base, sign: sum(
        tab[(base + sign * (2 * j + 1)) % p] for j in range(p)
    ),
    "weighted": lambda tab, p, base, sign: sum(
        tab[(base + sign * j) % p] * j for j in range(1, p)
    ),
    "odd-weighted": lambda tab, p, base, sign: sum(
        tab[(base + sign * (2 * j + 1)) % p] * j for j in range(p)
    ),
}


def check_ints(names: str, *values) -> None:
    """Refuse a float, bool, Fraction or string before any table or memo is
    read.  names holds the names of the values, space-separated."""
    for i, value in enumerate(values):
        if type(value) is not int:
            raise ValueError(f"{names.split()[i]} must be an int, got {value!r}")


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return sign


def sum_legendre_shift(ell: int, k: int, sign: int, p: int | OddPrime) -> int:
    """sum_{j=1}^{p-1} ((k*ell +- j)/p), by direct summation."""
    check_ints("ell k sign", ell, k, sign)
    return as_prime(p).literal_sum("shift", k * ell, sign)


def sum_legendre_odd_shift(ell: int, sign: int, p: int | OddPrime) -> int:
    """sum_{j=0}^{p-1} ((2*ell +- (2j+1))/p), by direct summation."""
    check_ints("ell sign", ell, sign)
    return as_prime(p).literal_sum("odd-shift", 2 * ell, sign)


def weighted_legendre_sum(ell: int, factor: int, sign: int, p: int | OddPrime) -> int:
    """sum_{j=1}^{p-1} ((factor*ell +- j)/p) * j, by direct summation.

    factor is 1 or 2; ell is reduced mod p (the symbol is p-periodic).
    """
    check_ints("ell factor sign", ell, factor, sign)
    if factor not in (1, 2):
        raise ValueError(f"factor must be 1 or 2, got {factor}")
    return as_prime(p).literal_sum("weighted", factor * ell, sign)


def odd_weighted_legendre_sum(ell: int, sign: int, p: int | OddPrime) -> int:
    """sum_{j=0}^{p-1} ((2*ell +- (2j+1))/p) * j, by direct summation."""
    check_ints("ell sign", ell, sign)
    return as_prime(p).literal_sum("odd-weighted", 2 * ell, sign)


def weighted_split(base: int, sign: int, p: int | OddPrime) -> int:
    """The weighted sum sum_{j=1}^{p-1} ((base +- j)/p) j from two reads:
    with b = base mod p, P = prefix_table() and W = sum_j (j/p) j, itself
    read off P (``OddPrime.weighted_sum``),

      sign +1:  p P[b - 1] + W
      sign -1:  (-1/p) (p P[p - b - 1] + W)

    At b = 0, P[-1] = sum_{j<p} (j/p) = 0 is the empty sum.
    """
    check_ints("base sign", base, sign)
    P = as_prime(p)
    _check_sign(sign)
    b, prefix = base % P.p, P.prefix_table()
    if sign == 1:
        return P.p * prefix[b - 1] + P.weighted_sum()
    return P.legendre(-1) * (P.p * prefix[P.p - b - 1] + P.weighted_sum())


def S_split(which: int, ell: int, p: int | OddPrime) -> int:
    """The difference sums as S_direct takes them, of the split forms: with
    D(b) = weighted_split(b, -1) - weighted_split(b, +1), S_1 = D(ell) and
    S_2 = D(2 ell) - (2/p) D(ell), the odd-index identity.  In the paper's
    split sums S_h^+- = P[p - b - 1] +- P[b - 1], b = h ell mod p, and the W
    of weighted_split, that is

      p = 1 (4):  S_1 =  p S_1^-         S_2 =  p (S_2^- - (2/p) S_1^-)
      p = 3 (4):  S_1 = -p S_1^+ - 2W    S_2 = -p (S_2^+ - (2/p) S_1^+) + 2((2/p) - 1) W
    """
    check_ints("which ell", which, ell)
    P = as_prime(p)
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    s1 = weighted_split(ell, -1, P) - weighted_split(ell, 1, P)
    if which == 1:
        return s1
    s2 = weighted_split(2 * ell, -1, P) - weighted_split(2 * ell, 1, P)
    return s2 - P.legendre(2) * s1


def S_direct(which: int, ell: int, p: int | OddPrime) -> int:
    """The difference sums S_1, S_2 by literal direct summation.

    S_1(ell,p) = sum_{j=1}^{p-1} (((ell-j)/p) - ((ell+j)/p)) j
    S_2(ell,p) = sum_{j=0}^{p-1} (((2ell-(2j+1))/p) - ((2ell+(2j+1))/p)) j

    read as memoised weighted (odd-weighted) sums at sign -1 minus sign +1.
    """
    check_ints("which ell", which, ell)
    P = as_prime(p)
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    kind, base = ("weighted", ell) if which == 1 else ("odd-weighted", 2 * ell)
    return P.literal_sum(kind, base, -1) - P.literal_sum(kind, base, 1)


def odd_primes_upto(bound: int) -> list[int]:
    """All odd primes p with 3 <= p <= bound, ascending."""
    check_ints("bound", bound)
    return [n for n in range(3, bound + 1, 2) if is_prime(n)]
