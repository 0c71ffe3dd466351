"""Flat manifolds with cyclic holonomy of odd prime order p.

A manifold in this family is classified by (p, a, b, c) plus an ideal
label: its translation lattice splits into a ideal-type blocks of rank
p - 1, b regular-representation blocks of rank p, and c trivial rank-1
blocks, so n = a(p-1) + bp + c.  Constraints: a + b > 0 and c >= 1.

The generator of the holonomy acts by the block-diagonal integer matrix
diag(C_p, ..., C_p, J_p, ..., J_p, 1, ..., 1), where C_p is the companion
matrix of the p-th cyclotomic polynomial and J_p the cyclic shift.

Exceptional means (b, c) = (0, 1): first Betti number 1, the only case
with an asymmetric twisted Dirac spectrum.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache

from .numtheory import NotOddError, NotPrimeError, OddPrime, as_prime, check_ints, odd_primes_upto


class ZeroHolonomyBlockError(ValueError):
    """a + b = 0: the holonomy action would be trivial."""


class TorsionViolationError(ValueError):
    """c = 0: the group would not be torsion-free."""


class UnsupportedIdealError(ValueError):
    """Only principal ideal classes have a concrete matrix model here."""


class EvenDimensionError(ValueError):
    """Operation needs odd n = a(p-1) + bp + c (i.e. b + c odd)."""


@dataclass(frozen=True)
class ZpParams:
    """Classification data (p, a, b, c) plus an ideal label: the one place
    that decides what a manifold of the family is.

    The record refuses, in this order, an a, b or c that is not a
    non-negative int (a bool included), a + b = 0
    (``ZeroHolonomyBlockError``), c = 0 (``TorsionViolationError``), a p
    that is not an odd prime (through ``as_prime``, whose ``OddPrime`` it
    keeps as ``prime``) and any label but the principal one, the only
    ideal class with a matrix model.  ``check_structure`` decides whether
    a spin structure is one of its own.
    """

    p: int
    a: int
    b: int
    c: int
    ideal_label: str = "principal"
    # derived once per instance (a sweep reads them ~10^5 times); kept out
    # of ==, hash and repr, which read the five fields above
    prime: OddPrime = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)
    beta1: int = field(init=False, repr=False, compare=False)  # first Betti number b + c
    exceptional: bool = field(init=False, repr=False, compare=False)
    n_odd: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, a, b, c = self.p, self.a, self.b, self.c
        # one test on the valid path: a sweep builds ~10^4 records
        if not (type(a) is type(b) is type(c) is int and a >= 0 and b >= 0 and c >= 1 and a + b):
            for name, v in (("a", a), ("b", b), ("c", c)):
                if type(v) is not int or v < 0:
                    raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
            if a + b == 0:
                raise ZeroHolonomyBlockError("a + b must be positive")
            raise TorsionViolationError("c must be >= 1")
        prime = as_prime(p)  # raises ValueError / NotPrimeError / NotOddError
        if self.ideal_label != "principal":
            raise UnsupportedIdealError(f"no matrix model for ideal class {self.ideal_label!r}")
        n = a * (p - 1) + b * p + c
        self.__dict__.update(  # the record is frozen
            prime=prime, n=n, beta1=b + c, exceptional=(b, c) == (0, 1), n_odd=n % 2 == 1
        )

    def check_structure(self, structure: SpinStructure) -> None:
        """Refuse a spin structure whose b + c - 1 delta signs are not this
        record's: the one test every consumer of a structure goes through."""
        if len(structure.deltas) != self.beta1 - 1:
            raise ValueError(
                f"structure has {len(structure.deltas)} delta signs, expected {self.beta1 - 1}"
            )

    def key(self) -> tuple[int, int, int, int]:
        return (self.p, self.a, self.b, self.c)

    def __reduce__(self):
        # the five fields only: the unpickling process resolves p from its own cache
        return ZpParams, (self.p, self.a, self.b, self.c, self.ideal_label)

    def __str__(self) -> str:
        return f"({self.p},{self.a},{self.b},{self.c})"


def validate(p: int, a: int, b: int, c: int, ideal_label: str = "principal") -> ZpParams:
    """The record of (p, a, b, c): ``ZpParams`` makes every check.

    Kept as the named entry point of the command line and the library
    examples.  Even total dimension is allowed (flagged by ``n_odd``, not
    an error); downstream spectral operations refuse it themselves.
    """
    return ZpParams(p, a, b, c, ideal_label)


@dataclass(frozen=True)
class HomologyH1:
    """H_1 = (Z_p)^torsion_copies + Z^free_rank."""

    p: int
    torsion_copies: int
    free_rank: int


def homology_h1(params: ZpParams) -> HomologyH1:
    """First homology: a copies of Z_p torsion plus free rank b + c."""
    return HomologyH1(params.p, params.a, params.beta1)


@dataclass(frozen=True)
class SpinStructure:
    """Sign labels (delta_1, ..., delta_{b+c-1}) plus the type index h.

    The trivial-type structure is the all-plus label with h = 1; it is
    the unique structure whose restriction to the lattice is trivial.
    """

    deltas: tuple[int, ...]
    h: int

    def __post_init__(self) -> None:
        deltas = self.deltas
        if type(deltas) is not tuple:  # a list would leave the frozen record unhashable
            raise ValueError(f"deltas must be a tuple, got {deltas!r}")
        # set tests, run in C; on a failure check_ints names the first non-int
        if not (type(self.h) is int and set(map(type, deltas)) <= {int} and set(deltas) <= {1, -1}):
            check_ints("delta " * len(deltas) + "h", *deltas, self.h)
            raise ValueError(f"deltas must be +-1, got {deltas}")
        if self.h not in (1, 2):
            raise ValueError(f"h must be 1 or 2, got {self.h}")

    @property
    def trivial_type(self) -> bool:
        return self.h == 1 and -1 not in self.deltas

    @property
    def label(self) -> str:
        return "".join(map(_SIGNS.__getitem__, self.deltas))


_SIGNS = {1: "+", -1: "-"}


def enumerate_spin_structures(params: ZpParams) -> list[SpinStructure]:
    """All 2^{b+c} spin structures, deltas lexicographic (+ first), h ascending."""
    k = params.beta1 - 1
    return [
        SpinStructure(deltas, h)
        for deltas in itertools.product((1, -1), repeat=k)
        for h in (1, 2)
    ]


_ONE = ((0, 1),)  # the row of IntMatrix.entries that is a 1 on the diagonal


class IntMatrix:
    """Square matrix of Python integers with exact operations.

    Storage is sparse: ``entries[i]`` is the tuple of ``(j - i, value)``
    pairs of row i's nonzeros, j ascending.  Columns are measured from the
    diagonal, so an equal diagonal block is the same slice of ``entries``
    wherever it sits, and == and hash are by entries.  ``rows`` is a dense
    read-only view (a tuple of int tuples) for the eliminations.

    Every value has type int (no bool): the constructor checks each entry
    and ``_from_entries`` wraps only pairs computed from ints, so a reader
    of the type (the certificate writer) need not scan them.  The product
    meets each nonzero A[i][j] only with the nonzeros of B's row j, so a
    left factor with at most k nonzeros per column (such as C_p or J_p)
    costs O(k nnz(B)), not the O(k n^2) of a dense row sum.
    """

    __slots__ = ("entries",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix must be square")
            for x in r:
                if type(x) is not int:  # bool is an int subclass and is refused too
                    raise ValueError(f"matrix entries must be integers, got {x!r}")
        self.entries = tuple(
            tuple((j - i, x) for j, x in enumerate(r) if x) for i, r in enumerate(rows)
        )

    @classmethod
    def _from_entries(cls, entries: tuple[tuple[tuple[int, int], ...], ...]) -> "IntMatrix":
        """Wrap rows of (j - i, nonzero int) pairs, j ascending, unchecked."""
        m = object.__new__(cls)
        m.entries = entries
        return m

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        dense = [[0] * self.n for _ in self.entries]
        for i, pairs in enumerate(self.entries):
            for d, v in pairs:
                dense[i][i + d] = v
        return tuple(map(tuple, dense))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        check_ints("n", n)
        if n < 0:
            raise ValueError(f"identity needs n >= 0, got {n}")
        return cls._from_entries((_ONE,) * n)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and other.entries == self.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix) or other.n != self.n:
            raise ValueError(f"a {self.n} x {self.n} matrix needs a {self.n} x {self.n} IntMatrix")
        out = []
        for i, pairs in enumerate(self.entries):
            acc = {}  # row i of the product: A[i][i + d] * B[i + d][i + d + e] at offset d + e
            for d, a in pairs:
                for e, b in other.entries[i + d]:
                    acc[d + e] = acc.get(d + e, 0) + a * b
            out.append(tuple(sorted([pair for pair in acc.items() if pair[1]])))
        return IntMatrix._from_entries(tuple(out))

    def add_scalar_identity(self, s: int) -> "IntMatrix":
        check_ints("s", s)
        out = []
        for pairs in self.entries:
            acc = dict(pairs)
            acc[0] = acc.get(0, 0) + s
            out.append(tuple(sorted([pair for pair in acc.items() if pair[1]])))
        return IntMatrix._from_entries(tuple(out))

    def power(self, k: int) -> "IntMatrix":
        check_ints("k", k)
        if k < 0:
            raise ValueError(f"power needs k >= 0, got {k}")
        result = IntMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def rank(self) -> int:
        """Exact rank over Q by fraction-free Bareiss elimination.

        After each pivot every lower row is updated by one exact division,
        row[j] = (row[j] * pivot - row[c] * top[j]) / prev, where prev is the
        previous pivot (Bareiss, Sylvester's identity), so entries stay int.
        """
        a = [list(r) for r in self.rows]
        n = self.n
        r, prev = 0, 1
        for c in range(n):
            piv = next((i for i in range(r, n) if a[i][c] != 0), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            top = a[r]
            pivot = top[c]
            for row in a[r + 1 :]:
                f = row[c]
                for j in range(c + 1, n):
                    q, rem = divmod(row[j] * pivot - f * top[j], prev)
                    assert rem == 0
                    row[j] = q
                row[c] = 0
            prev = pivot
            r += 1
        return r

    def charpoly(self) -> tuple[int, ...]:
        """det(xI - M), ascending coefficients, by the Hessenberg recurrence.

        M is first brought to upper Hessenberg form H by an exact similarity
        over Q: for each column c a nonzero entry below the diagonal is
        swapped into row and column c + 1, and the entries below it are
        cleared by a row operation and the inverse column operation.  A
        matrix that is already upper Hessenberg, as C_p and J_p are, is only
        scanned, so its entries stay int.  Then, with p_0 = 1,

            p_{k+1} = (x - h_kk) p_k - sum_{i<k} h_ik (prod_{j=i+1}^{k} h_{j,j-1}) p_i

        (Cohen, A Course in Computational Algebraic Number Theory, Alg.
        2.2.9), skipping zero h_ik and stopping once the product is 0.
        """
        n = self.n
        h = [list(r) for r in self.rows]
        for c in range(n - 2):
            piv = next((i for i in range(c + 1, n) if h[i][c] != 0), None)
            if piv is None:
                continue
            k = c + 1
            if piv != k:
                h[k], h[piv] = h[piv], h[k]
                for row in h:
                    row[k], row[piv] = row[piv], row[k]
            for i in range(k + 1, n):
                if h[i][c] != 0:
                    u = Fraction(h[i][c], h[k][c])
                    h[i] = [x - u * y for x, y in zip(h[i], h[k])]
                    for row in h:
                        if row[i]:
                            row[k] += u * row[i]
        polys = [[1]]
        for k in range(n):
            nxt = [0] + polys[k]
            if h[k][k]:
                for d, v in enumerate(polys[k]):
                    nxt[d] -= h[k][k] * v
            t = 1
            for i in range(k - 1, -1, -1):
                t *= h[i + 1][i]
                if t == 0:
                    break
                if h[i][k]:
                    s = h[i][k] * t
                    for d, v in enumerate(polys[i]):
                        nxt[d] -= s * v
            polys.append(nxt)
        coeffs = []
        for v in polys[n]:
            assert v.denominator == 1
            coeffs.append(int(v))
        return tuple(coeffs)


MAX_HOLONOMY_N = 2000  # not for the storage: the certificate writes all n^2 entries


def build_holonomy(params: ZpParams) -> IntMatrix:
    """Block-diagonal generator matrix diag(C_p x a, J_p x b, 1 x c).

    A block's rows are pairs relative to the diagonal, so the matrix is the
    C_p rows a times, the J_p rows b times and the row of 1 c times: O(n)
    tuples, no n x n fill.  n above MAX_HOLONOMY_N raises ValueError first.
    """
    p, n = params.p, params.n
    if n > MAX_HOLONOMY_N:
        raise ValueError(
            f"holonomy matrix of {params} would be {n} x {n}; n is limited to {MAX_HOLONOMY_N}"
        )
    # C_p, companion of Phi_p: subdiagonal ones, last column -1
    c_rows = (((p - 2, -1),),) + tuple(((-1, 1), (p - 2 - i, -1)) for i in range(1, p - 1))
    j_rows = (((p - 1, 1),),) + (((-1, 1),),) * (p - 1)  # J_p, the cyclic shift
    return IntMatrix._from_entries(c_rows * params.a + j_rows * params.b + (_ONE,) * params.c)


def _diagonal_blocks(entries: tuple[tuple[tuple[int, int], ...], ...]) -> list[tuple[int, int]]:
    """(start, stop) of each block of the finest contiguous block-diagonal split
    of the matrix with these ``IntMatrix.entries``.

    A nonzero (i, j) spans every k with min(i, j) <= k < max(i, j), and the
    split cuts after each k that no nonzero spans.  Of row i only the first
    nonzero j_0 and the last j_1 are read: they span [j_0, i) and [i, j_1),
    and every other nonzero of the row spans a part of one of them.
    """
    n = len(entries)
    reach = list(range(n))  # reach[k]: the furthest index a nonzero spans from k
    for i, pairs in enumerate(entries):
        if pairs:  # a zero row spans nothing
            j = i + pairs[0][0]  # j_0
            if i > reach[j]:
                reach[j] = i
            j = i + pairs[-1][0]  # j_1
            if j > reach[i]:
                reach[i] = j
    stops = [k + 1 for k, end in enumerate(itertools.accumulate(reach, max)) if end == k]
    return list(zip([0] + stops[:-1], stops))


def _divide_monic(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...] | None:
    """num / den for a monic den (ascending coefficients), or None if it does not divide."""
    d = len(den) - 1
    rem = list(num)
    quot = [0] * (len(num) - d)
    for i in reversed(range(len(quot))):
        q = quot[i] = rem[i + d]
        if q:
            for j, v in enumerate(den):
                rem[i + j] -= q * v
    return tuple(quot) if quot and not any(rem[:d]) else None


@lru_cache(maxsize=None)
def _component_analysis(block: IntMatrix, p: int):
    """(order or 0 if not dividing p, det, dim ker(M - I), exponents) of the block M.

    The charpoly comes from the Hessenberg recurrence (``IntMatrix.charpoly``)
    and det(M) is (-1)^n times its constant term.  exponents is (e, f) with
    charpoly Phi_p^e (x - 1)^f, found by exact division, or None when any
    other factor remains.  Phi_p(1) = p, so f is the algebraic multiplicity
    of the eigenvalue 1 and 1 <= ker <= f once f >= 1: ker = f when f <= 1,
    as on every block of ``build_holonomy``, else n - rank(M - I) by
    ``IntMatrix.rank``.

    p is prime, so an order dividing p is 1 or p, and it follows from
    these without raising M to the p-th power:
      - ker = n means M = I, order 1;
      - another charpoly factor is an eigenvalue outside mu_p, order 0;
      - ker < f means a Jordan block at 1, so M^k - I != 0 for k >= 1, order 0;
      - otherwise, with e <= 1 every eigenvalue is simple or (at 1)
        semisimple, so M is diagonalisable over C with eigenvalues in
        mu_p: its minimal polynomial divides (x - 1) Phi_p = x^p - 1,
        M^p = I and the order is p.
    Only e >= 2 with ker = f is left to the literal test M^p = I; no block
    of ``build_holonomy`` reaches it.
    """
    n = block.n
    cp = block.charpoly()
    det = (-1) ** n * cp[0]
    exponents = []
    for factor in ((1,) * p, (-1, 1)):  # Phi_p, x - 1
        k = 0
        while (q := _divide_monic(cp, factor)) is not None:
            cp, k = q, k + 1
        exponents.append(k)
    e, f = exponents
    ker = f if f <= 1 else n - block.add_scalar_identity(-1).rank()
    if ker == n:
        order = 1
    elif cp == (1,) and ker == f and (e <= 1 or block.power(p) == IntMatrix.identity(n)):
        order = p
    else:
        order = 0
    return order, det, ker, (tuple(exponents) if cp == (1,) else None)


@dataclass(frozen=True)
class HolonomyReport:
    """Outcome of the five structural checks on a holonomy matrix."""

    params: ZpParams
    power_identity: bool
    order_exact: bool
    det_one: bool
    fixed_space_dim: int
    fixed_space_ok: bool
    charpoly_ok: bool

    @property
    def failures(self) -> tuple[str, ...]:
        """The false bool fields in field order, each named without its "_ok"."""
        return tuple(name.removesuffix("_ok") for name in _CHECKS if not getattr(self, name))

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """Every field in order, params as its string, then the failure names."""
        out = {name: getattr(self, name) for name in _FIELDS}
        return out | {"params": str(self.params), "failures": list(self.failures)}


_FIELDS = tuple(f.name for f in fields(HolonomyReport))
_CHECKS = tuple(f.name for f in fields(HolonomyReport) if f.type == "bool")


def holonomy_checks(m: IntMatrix, params: ZpParams) -> HolonomyReport:
    """Verify order, determinant, fixed space, and characteristic polynomial.

    The matrix is cut into its finest contiguous diagonal blocks (exact by
    block multiplicativity); each distinct block is analysed once, through a
    cache, and weighted by its count.  All arithmetic is exact.
    """
    if not isinstance(m, IntMatrix):
        raise ValueError(f"m must be an IntMatrix, got {type(m).__name__}")
    if not isinstance(params, ZpParams):
        raise ValueError(f"params must be a ZpParams, got {type(params).__name__}")
    if m.n != params.n:
        raise ValueError(f"matrix is {m.n}x{m.n}, but {params} has n = {params.n}")
    p, entries = params.p, m.entries
    # a block's rows are a slice of entries: its pairs are relative to the diagonal
    blocks = Counter([entries[start:stop] for start, stop in _diagonal_blocks(entries)])
    analyses = [(_component_analysis(IntMatrix._from_entries(b), p), k) for b, k in blocks.items()]

    # each block's order is 1, p or 0 (not dividing p)
    orders = [a[0] for a, _ in analyses]
    power_identity = 0 not in orders
    order_exact = power_identity and p in orders

    det = math.prod(a[1] ** k for a, k in analyses)
    ker = sum(a[2] * k for a, k in analyses)

    # Phi_p and x - 1 are distinct irreducibles of Z[x], so by unique
    # factorisation the product of the block charpolys is
    # Phi_p^a (x^p - 1)^b (x - 1)^c = Phi_p^(a+b) (x - 1)^(b+c) exactly
    # when no block has another factor and the exponents add up.
    exponents = [a[3] for a, _ in analyses]
    charpoly_ok = None not in exponents and (
        sum(a[3][0] * k for a, k in analyses) == params.a + params.b
        and sum(a[3][1] * k for a, k in analyses) == params.b + params.c
    )

    return HolonomyReport(
        params=params,
        power_identity=power_identity,
        order_exact=order_exact,
        det_one=det == 1,
        fixed_space_dim=ker,
        fixed_space_ok=ker == params.beta1,
        charpoly_ok=charpoly_ok,
    )


def sweep_keys(p_max: int, n_max: int) -> list[tuple[int, int, int, int]]:
    """The keys (p, a, b, c) of every valid manifold with p <= p_max and
    n <= n_max and b + c odd, ascending: the one enumeration rule of the
    sweeps.  It builds no record; enumerate_params builds theirs."""
    check_ints("p_max n_max", p_max, n_max)
    # each prime's keys ascend and the primes ascend
    return [key for p in odd_primes_upto(p_max) for key in _prime_keys(p, n_max)]


def _prime_keys(p: int, n_max: int) -> list[tuple[int, int, int, int]]:
    """The keys of sweep_keys whose prime is p: (a, b, c) ascending."""
    check_ints("n_max", n_max)
    keys = []
    for a in range(0, n_max // (p - 1) + 1):
        base_a = a * (p - 1)
        for b in range(0, (n_max - base_a) // p + 1):
            if a + b == 0:
                continue
            base = base_a + b * p
            for c in range(1 + b % 2, n_max - base + 1, 2):  # b + c odd
                keys.append((p, a, b, c))
    return keys


def enumerate_params(p_max: int, n_max: int) -> list[ZpParams]:
    """All valid (p, a, b, c) with p <= p_max and n <= n_max, ordered;
    only odd-dimensional manifolds (b + c odd)."""
    return [ZpParams(*key) for key in sweep_keys(p_max, n_max)]


def prime_sweep(p: int, n_max: int) -> list[ZpParams]:
    """The manifolds of enumerate_params whose prime is p, in its order:
    (a, b, c) ascending."""
    as_prime(p)
    return [ZpParams(*key) for key in _prime_keys(p, n_max)]


# re-exported for callers that catch validation errors in one place
__all__ = [
    "EvenDimensionError",
    "HolonomyReport",
    "HomologyH1",
    "IntMatrix",
    "MAX_HOLONOMY_N",
    "NotOddError",
    "NotPrimeError",
    "SpinStructure",
    "TorsionViolationError",
    "UnsupportedIdealError",
    "ZeroHolonomyBlockError",
    "ZpParams",
    "build_holonomy",
    "enumerate_params",
    "enumerate_spin_structures",
    "holonomy_checks",
    "homology_h1",
    "sweep_keys",
    "validate",
]
