"""Twisted Dirac spectrum: exact multiplicity differences and kernel dims.

For an exceptional manifold (b, c) = (0, 1) of dimension n = a(p-1) + 1,
the eigenvalues are +-2 pi mu with mu in N for the h = 1 structure and
mu in N0 + 1/2 for h = 2.  The signed multiplicity difference
d+ - d- at mu is, with q = (p-1)/2, r = [n/4]:

    a even:  +-(-1)^r p^{a/2}   if p | h(ell -+ mu), else 0  (0 for ell = 0)
    a odd :  (-1)^{q+r} ( ((2(ell-mu))/p) - ((2(ell+mu))/p) ) p^{(a-1)/2}

Non-exceptional manifolds have a symmetric spectrum, so every difference
is 0 there (returned as such, not an error, so sweeps stay uniform).

The kernel of the twisted operator is nonzero only for the trivial-type
spin structure, where

    dim ker = 2^{(b+c-1)/2} ( 2^{(a+b)q} + (2/p)^{a+b} (p [ell=0] - 1) ) / p,

and the division by p is always exact.  Each exact formula is paired
with a literal character-sum oracle, evaluated exactly in the oracle ring
Z[zeta_4p] (``exact.CyclotomicRing``) and returned as an int once the ring
value is confirmed to be the integer it must be.
"""

from __future__ import annotations

from functools import lru_cache

from .charsums import CHI0, CHIP, F_direct, half_period_product
from .exact import cyclotomic_ring
from .manifold import EvenDimensionError, SpinStructure, ZpParams
from .numtheory import as_prime, check_ints


class OracleResidualError(ArithmeticError):
    """A character-sum oracle's ring value is not the integer it must be."""


class NonIntegerKernelError(ArithmeticError):
    """The exact division by p in the kernel formula failed."""


def _check_index(h: int, ell: int, c: int) -> None:
    if not type(h) is type(ell) is type(c) is int:  # skips a call per oracle cell
        check_ints("h ell c", h, ell, c)
    if h not in (1, 2):
        raise ValueError(f"h must be 1 or 2, got {h}")
    if c < 1:
        raise ValueError(f"series index must be >= 1, got {c}")


def mult_diff_by_index(params: ZpParams, h: int, ell: int, c: int) -> int:
    """Exact d+ - d- at the c-th admissible mu (mu = c for h=1, c - 1/2 for
    h=2), eigenvalue 2 pi mu; 0 for non-exceptional params."""
    _check_index(h, ell, c)
    if not params.exceptional:
        return 0
    P = params.prime
    two_mu = 2 * c - (1 if h == 2 else 0)
    p, a = P.p, params.a
    ell %= p
    r = params.n // 4
    if a % 2 == 0:
        if ell == 0:
            return 0
        if (2 * ell - two_mu) % p == 0:  # p | h(ell - mu) in both h cases
            sign = 1
        elif (2 * ell + two_mu) % p == 0:
            sign = -1
        else:  # before p^{a/2}, as below: 2 of the p cells of a period are nonzero
            return 0
        return (-1) ** r * sign * p ** (a // 2)
    diff = P.legendre(2 * ell - two_mu) - P.legendre(2 * ell + two_mu)
    if not diff:  # before p^{(a-1)/2}, which has millions of digits at a = 10^7
        return 0
    return (-1) ** (P.q + r) * diff * p ** ((a - 1) // 2)


def mult_diff_oracle(params: ZpParams, h: int, ell: int, c: int) -> int:
    """Literal character-sum evaluation of mult_diff_by_index, exactly.

    prefactor (-1)^{((p^2-1)/8) a + 1} i^{m+1} 2 p^{a/2 - 1} against
    sum_k (-1)^{k(h+1)} (k/p)^a e^{2 pi i k ell / p} sin(2 pi mu k / p).
    Term for term that sum is the direct sine-weighted Gauss sum
    F_h(ell, c'), 2 mu = 2c' + [h=2], so it is read from charsums.F_direct
    (which gives 2i F) at c' = c - h + 1 (mod p).  The value is then
    (-1)^eps i^m p^{a/2 - 1} 2iF, an integer only if 2iF = t i^{-m} (a even)
    or t i^{-m} sqrt(p) (a odd) for an integer t; it is (-1)^eps t
    p^{(a-1)//2}.  Any other ring value raises OracleResidualError.
    """
    _check_index(h, ell, c)
    if not params.exceptional:
        return 0
    P = params.prime
    p, a = P.p, params.a
    m = (params.n - 1) // 2
    # F is p-periodic in c', so c' is taken in 1..p
    total = F_direct(h, CHIP if a % 2 == 1 else CHI0, ell, (c - h) % p + 1, P)
    t = cyclotomic_ring(P).multiple(total, -m, p if a % 2 else 1)
    if t is None:
        raise OracleResidualError(
            f"multiplicity oracle for {params}, h={h}, ell={ell}, c={c} is not an integer"
        )
    eps = ((p * p - 1) // 8) * a + 1
    return (-1) ** (eps % 2) * t * p ** ((a - 1) // 2)


def dim_ker(params: ZpParams, structure: SpinStructure, ell: int) -> int:
    """Dimension of the harmonic spinor space for the twist ell.

    Zero for every non-trivial-type structure; the exact closed form for
    the trivial one.  Requires odd n and one of the record's own structures
    (``ZpParams.check_structure``).
    """
    check_ints("ell", ell)
    if not params.n_odd:
        raise EvenDimensionError(f"kernel formula needs odd n, got n = {params.n}")
    params.check_structure(structure)
    if not structure.trivial_type:
        return 0
    P, p = params.prime, params.p
    ab = params.a + params.b
    delta = p if ell % p == 0 else 0
    num = 2 ** ((params.beta1 - 1) // 2) * (2 ** (ab * P.q) + P.legendre(2) ** ab * (delta - 1))
    d, rem = divmod(num, p)
    if rem != 0 or d < 0:
        raise NonIntegerKernelError(f"kernel formula not divisible by p for {params}")
    return d


@lru_cache(maxsize=None)
def _kernel_sums(ab: int, p: int) -> tuple[int | None, ...]:
    """sum_{k=0}^{p-1} eps_k (2^q C(k))^{ab} z^{4k ell} for ell = 0..p-1, with
    eps_k = (-1)^{k [(q+1)/2] ab} and C(k) = prod_{j=1}^q cos(jk pi/p).

    2^q C(k) is the image of the product at k = 1 under z -> z^k, so its
    power is the image of one power modulo z^{4p} - 1, taken by repeated
    squaring.  A sum that is not a rational integer is None, so the table
    is cached either way and ``dim_ker_oracle`` refuses it at its own ell.
    """
    P = as_prime(p)
    ring, n = cyclotomic_ring(P), 4 * p
    base, power = half_period_product("cos", P), {0: 1}
    for bit in bin(ab)[2:]:
        power = ring.times(power, power)
        if bit == "1":
            power = ring.times(power, base)
    flip = (P.q + 1) // 2 * ab % 2
    sums = []
    for ell in range(p):
        total = [0] * n
        for e, w in power.items():
            e = (e + 4 * ell) % n  # times z^{4 ell}, before the map z -> z^k
            for k in range(p):
                total[e * k % n] += -w if flip and k % 2 else w
        coords = ring.reduce(total)
        sums.append(None if any(coords[1:]) else coords[0])
    return tuple(sums)


def dim_ker_oracle(params: ZpParams, ell: int) -> int:
    """Spin-character oracle for the trivial-structure kernel dimension.

    (2^m / p) sum_{k=0}^{p-1} (-1)^{k [(q+1)/2] (a+b)}
        (prod_{j=1}^q cos(jk pi/p))^{a+b} e^{2 pi i k ell / p},
    m = (n-1)/2, evaluated exactly: 2^{m - q(a+b)} = 2^{(b+c-1)/2} times the
    ring sum of _kernel_sums, over p.  OracleResidualError unless that sum
    is a rational integer and the quotient an integer.
    """
    check_ints("ell", ell)
    if not params.n_odd:
        raise EvenDimensionError(f"kernel oracle needs odd n, got n = {params.n}")
    P = params.prime
    ab = params.a + params.b
    total = _kernel_sums(ab, P.p)[ell % P.p]
    if total is None:
        raise OracleResidualError(
            f"kernel oracle sum at p={P.p}, a+b={ab}, ell={ell % P.p} is not an integer"
        )
    d, rem = divmod(total << ((params.n - 1) // 2 - P.q * ab), P.p)
    if rem:
        raise OracleResidualError(f"kernel oracle for {params}, ell={ell} is not an integer")
    return d
