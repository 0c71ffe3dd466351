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

and the division by p is always exact.

Each exact formula has one oracle, read from the weights of the spin lift
of the holonomy.  Only the spinors that are constant along the fiber
torus carry the multiplicities that the oracles count: a Fourier mode
that the holonomy moves pairs with its images into a symmetric part of
the spectrum (Miatello and Podesta, "The spectrum of twisted Dirac
operators on compact flat manifolds", Trans. AMS 358, 2006).  That
reduction is the analytic input; it is cited here, not computed.  Each
C_p block turns q planes by 2 pi j / p, j = 1..q, and the lift acts on a
constant spinor of weight e (one sign e_t per turned plane t, turned by
j_t) by e^{i pi sum_t e_t j_t / p}.  So over k blocks the count of the
weights by sum_t e_t j_t mod 2p is a coefficient of

    W_k = (prod_{j=1}^q (x^j - x^{-j}))^k,  U_k = (prod_{j=1}^q (x^j + x^{-j}))^k

in Z[x]/(x^{2p} - 1) (``charsums.product_weights``): W weighs each weight
by its chirality, U counts it.  The twist ell and the spin structure shift
the circle phase by 2 ell + sigma p slots, where sigma = 1 exactly when
the lift of the generator has p-th power -1 on the constant spinors:

    sigma = (a q(q+1)/2 + [h=2]) mod 2   (mult_diff_oracle, k = a),
    sigma = (a + b) q(q+1)/2 mod 2       (dim_ker_oracle, k = a + b).

No Legendre symbol, Gauss sum or root of unity enters an oracle, so
neither shares anything with the closed forms it checks.
"""

from __future__ import annotations

from .charsums import product_weights
from .manifold import EvenDimensionError, SpinStructure, ZpParams
from .numtheory import check_ints


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
    """d+ - d- at the c-th admissible mu, from the chirality-weighted weights.

    With delta = [h=2], 2 mu = T = 2c - delta and the phase o = 2 ell +
    sigma p, sigma = (a q(q+1)/2 + delta) mod 2, the constant spinors at
    eigenvalue +2 pi mu are the weights at slot T - o of W_a, those at
    -2 pi mu the weights at slot -T - o, so

        d = W_a[(T - o) mod 2p] - W_a[(-T - o) mod 2p].

    0 for non-exceptional params, as mult_diff_by_index.
    """
    _check_index(h, ell, c)
    if not params.exceptional:
        return 0
    P, a = params.prime, params.a
    p, q, delta = P.p, P.q, h - 1
    weights = product_weights("sin", p, a)
    two_mu = 2 * c - delta
    phase = 2 * ell + (a * q * (q + 1) // 2 + delta) % 2 * p
    return weights[(two_mu - phase) % (2 * p)] - weights[(-two_mu - phase) % (2 * p)]


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


def dim_ker_oracle(params: ZpParams, ell: int) -> int:
    """The trivial-structure kernel dimension, from the weights.

    A harmonic spinor of the twist ell is a constant spinor whose weight
    sits at the phase slot -(2 ell + sigma p) of U_{a+b}, sigma =
    (a + b) q(q+1)/2 mod 2, and each such weight carries the
    2^{(b+c-1)/2} spinors of the b + c - 1 flat directions besides the
    circle:

        dim ker = 2^{(b+c-1)/2} U_{a+b}[(-2 ell - sigma p) mod 2p].
    """
    check_ints("ell", ell)
    if not params.n_odd:
        raise EvenDimensionError(f"kernel oracle needs odd n, got n = {params.n}")
    P, ab = params.prime, params.a + params.b
    sigma = ab * P.q * (P.q + 1) // 2 % 2
    count = product_weights("cos", P.p, ab)[(-2 * ell - sigma * P.p) % (2 * P.p)]
    return count << (params.beta1 - 1) // 2
