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

    dim ker = 2^{(b+c-1)/2} ( 2^{(a+b)q} + s (p [ell=0] - 1) ) / p,
    s = (-1)^{((p^2-1)/8)(a+b)},

and the division by p is always exact.  Each exact formula is paired
with a literal character-sum oracle in floating point.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .charsums import CHI0, CHIP, F_direct
from .manifold import EvenDimensionError, SpinStructure, ZpParams
from .numtheory import as_prime


class OracleResidualError(ArithmeticError):
    """A floating character-sum oracle violated its numeric contract."""


class NonIntegerKernelError(ArithmeticError):
    """The exact division by p in the kernel formula failed."""


_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)

_LD_PI = np.longdouble("3.141592653589793238462643383279502884197")


def _check_index(h: int, c: int) -> None:
    if h not in (1, 2):
        raise ValueError(f"h must be 1 or 2, got {h}")
    if c < 1:
        raise ValueError(f"series index must be >= 1, got {c}")


def mult_diff_by_index(params: ZpParams, h: int, ell: int, c: int) -> int:
    """Exact d+ - d- at the c-th admissible mu (mu = c for h=1, c - 1/2 for
    h=2), eigenvalue 2 pi mu; 0 for non-exceptional params."""
    _check_index(h, c)
    if not params.exceptional:
        return 0
    two_mu = 2 * c - (1 if h == 2 else 0)
    P = as_prime(params.p)
    p, a = P.p, params.a
    ell %= p
    r = params.n // 4
    if a % 2 == 0:
        if ell == 0:
            return 0
        mag = (-1) ** r * p ** (a // 2)
        if (2 * ell - two_mu) % p == 0:  # p | h(ell - mu) in both h cases
            return mag
        if (2 * ell + two_mu) % p == 0:
            return -mag
        return 0
    diff = P.legendre(2 * ell - two_mu) - P.legendre(2 * ell + two_mu)
    return (-1) ** (P.q + r) * diff * p ** ((a - 1) // 2)


def mult_diff_oracle(params: ZpParams, h: int, ell: int, c: int) -> float:
    """Literal character-sum evaluation of mult_diff_by_index, as a float.

    prefactor (-1)^{((p^2-1)/8) a + 1} i^{m+1} 2 p^{a/2 - 1} against
    sum_k (-1)^{k(h+1)} (k/p)^a e^{2 pi i k ell / p} sin(2 pi mu k / p).
    Term for term that sum is the direct sine-weighted Gauss sum
    F_h(ell, c'), 2 mu = 2c' + [h=2], so it is read from charsums.F_direct
    at c' = c - h + 1 (mod p).

    The result must be within 1e-6 of an integer with imaginary part
    below 1e-6, otherwise OracleResidualError is raised.
    """
    _check_index(h, c)
    if not params.exceptional:
        return 0.0
    P = as_prime(params.p)
    p, a = P.p, params.a
    m = (params.n - 1) // 2
    # F is p-periodic in c', so c' is taken in 1..p
    total = F_direct(h, CHIP if a % 2 == 1 else CHI0, ell, (c - h) % p + 1, P)
    eps = ((p * p - 1) // 8) * a + 1
    pref = (-1) ** (eps % 2) * _I_POW[(m + 1) % 4] * 2.0 * float(p) ** (a / 2 - 1)
    value = pref * total
    if abs(value.imag) > 1e-6 or abs(value.real - round(value.real)) > 1e-6:
        raise OracleResidualError(
            f"multiplicity oracle residual for {params}, h={h}, ell={ell}, c={c}: {value}"
        )
    return value.real


def dim_ker(params: ZpParams, structure: SpinStructure, ell: int) -> int:
    """Dimension of the harmonic spinor space for the twist ell.

    Zero for every non-trivial-type structure; the exact closed form for
    the trivial one.  Requires odd n.
    """
    if not params.n_odd:
        raise EvenDimensionError(f"kernel formula needs odd n, got n = {params.n}")
    if len(structure.deltas) != params.beta1 - 1:
        raise ValueError(
            f"structure has {len(structure.deltas)} delta signs, expected {params.beta1 - 1}"
        )
    if not structure.trivial_type:
        return 0
    P = as_prime(params.p)
    p = P.p
    ab = params.a + params.b
    sign = -1 if (((p * p - 1) // 8) * ab) % 2 else 1
    delta = p if ell % p == 0 else 0
    num = 2 ** ((params.beta1 - 1) // 2) * (2 ** (ab * P.q) + sign * (delta - 1))
    d, rem = divmod(num, p)
    if rem != 0 or d < 0:
        raise NonIntegerKernelError(f"kernel formula not divisible by p for {params}")
    return d


@lru_cache(maxsize=None)
def _cos_prod_table(p: int) -> tuple:
    """prod_{j=1}^{q} cos(jk pi/p) for k = 0..p-1, in extended precision."""
    q = (p - 1) // 2
    out = []
    for k in range(p):
        v = np.longdouble(1.0)
        for j in range(1, q + 1):
            v = v * np.cos(_LD_PI * j * k / p)
        out.append(v)
    return tuple(out)


def dim_ker_oracle(params: ZpParams, ell: int) -> float:
    """Spin-character oracle for the trivial-structure kernel dimension.

    (2^m / p) sum_{k=0}^{p-1} (-1)^{k [(q+1)/2] (a+b)}
        (prod_{j=1}^q cos(jk pi/p))^{a+b} e^{2 pi i k ell / p},
    m = (n-1)/2, evaluated in extended precision so the 1e-6 absolute
    contract survives the 2^m scale.
    """
    if not params.n_odd:
        raise EvenDimensionError(f"kernel oracle needs odd n, got n = {params.n}")
    P = as_prime(params.p)
    p = P.p
    ab = params.a + params.b
    m = (params.n - 1) // 2
    prods = _cos_prod_table(p)
    flip = ((P.q + 1) // 2) * ab
    re = np.longdouble(0.0)
    im = np.longdouble(0.0)
    for k in range(p):
        sign = -1 if (k * flip) % 2 else 1
        term = sign * prods[k] ** ab
        angle = 2 * _LD_PI * ((k * ell) % p) / p
        re += term * np.cos(angle)
        im += term * np.sin(angle)
    scale = np.longdouble(2.0) ** m / p
    value_re = float(scale * re)
    value_im = float(scale * im)
    if abs(value_im) > 1e-6:
        raise OracleResidualError(
            f"kernel oracle imaginary residual {value_im} for {params}, ell={ell}"
        )
    return value_re
