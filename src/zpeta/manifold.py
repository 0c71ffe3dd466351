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
from dataclasses import dataclass, field
from functools import lru_cache

from .numtheory import NotOddError, NotPrimeError, as_prime


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
    """Validated classification data (p, a, b, c) plus an ideal label."""

    p: int
    a: int
    b: int
    c: int
    ideal_label: str = "principal"

    @property
    def n(self) -> int:
        return self.a * (self.p - 1) + self.b * self.p + self.c

    @property
    def beta1(self) -> int:
        """First Betti number b + c."""
        return self.b + self.c

    @property
    def exceptional(self) -> bool:
        return (self.b, self.c) == (0, 1)

    @property
    def n_odd(self) -> bool:
        return self.n % 2 == 1

    def key(self) -> tuple[int, int, int, int]:
        return (self.p, self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"({self.p},{self.a},{self.b},{self.c})"


def validate(p: int, a: int, b: int, c: int, ideal_label: str = "principal") -> ZpParams:
    """Check (p, a, b, c) and return the validated parameter record.

    Even total dimension is allowed (flagged by ``n_odd``, not an
    error); downstream spectral operations refuse it themselves.
    """
    if type(p) is not int:  # bool is an int subclass and is refused too
        raise ValueError(f"p must be an integer, got {p!r}")
    as_prime(p)  # raises NotPrimeError / NotOddError
    for name, v in (("a", a), ("b", b), ("c", c)):
        if type(v) is not int or v < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
    if a + b == 0:
        raise ZeroHolonomyBlockError("a + b must be positive")
    if c == 0:
        raise TorsionViolationError("c must be >= 1")
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
        if any(d not in (1, -1) for d in self.deltas):
            raise ValueError(f"deltas must be +-1, got {self.deltas}")
        if self.h not in (1, 2):
            raise ValueError(f"h must be 1 or 2, got {self.h}")

    @property
    def trivial_type(self) -> bool:
        return self.h == 1 and all(d == 1 for d in self.deltas)

    @property
    def label(self) -> str:
        return "".join("+" if d == 1 else "-" for d in self.deltas)


def enumerate_spin_structures(params: ZpParams) -> list[SpinStructure]:
    """All 2^{b+c} spin structures, deltas lexicographic (+ first), h ascending."""
    k = params.beta1 - 1
    return [
        SpinStructure(deltas, h)
        for deltas in itertools.product((1, -1), repeat=k)
        for h in (1, 2)
    ]


def trivial_structure(params: ZpParams) -> SpinStructure:
    return SpinStructure((1,) * (params.beta1 - 1), 1)


def nontrivial_structure(params: ZpParams) -> SpinStructure:
    """A representative non-trivial-type structure (all-plus deltas, h = 2)."""
    return SpinStructure((1,) * (params.beta1 - 1), 2)


class IntMatrix:
    """Dense square matrix of Python integers with exact operations."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.rows = rows

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and other.rows == self.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        n = self.n
        bt = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.rows)
        )

    def add_scalar_identity(self, s: int) -> "IntMatrix":
        return IntMatrix(
            tuple(
                tuple(x + s if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(self.rows)
            )
        )

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def power(self, k: int) -> "IntMatrix":
        result = IntMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def _eliminate(self) -> tuple[int, int]:
        """(rank, det) by fraction-free Bareiss elimination, skipping pivot-less columns."""
        a = [list(r) for r in self.rows]
        n = self.n
        r, sign, prev = 0, 1, 1
        for c in range(n):
            piv = next((i for i in range(r, n) if a[i][c] != 0), None)
            if piv is None:
                continue
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
                sign = -sign
            for i in range(r + 1, n):
                for j in range(c + 1, n):
                    num = a[i][j] * a[r][c] - a[i][c] * a[r][j]
                    q, rem = divmod(num, prev)
                    assert rem == 0
                    a[i][j] = q
                a[i][c] = 0
            prev = a[r][c]
            r += 1
        return r, (sign * prev if r == n else 0)

    def det(self) -> int:
        """Exact determinant."""
        return self._eliminate()[1]

    def rank(self) -> int:
        """Exact rank over Q."""
        return self._eliminate()[0]

    def charpoly(self) -> tuple[int, ...]:
        """det(xI - M) by Faddeev-LeVerrier, ascending coefficients."""
        n = self.n
        desc = [1]
        mk = self
        for k in range(1, n + 1):
            ck, rem = divmod(-mk.trace(), k)
            assert rem == 0
            desc.append(ck)
            if k < n:
                mk = self @ mk.add_scalar_identity(ck)
        return tuple(reversed(desc))

    def components(self) -> list[tuple[int, ...]]:
        """Index blocks under the symmetric nonzero adjacency pattern."""
        n = self.n
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(n):
            for j in range(n):
                if i != j and (self.rows[i][j] != 0 or self.rows[j][i] != 0):
                    parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        return [tuple(sorted(g)) for g in sorted(groups.values())]

    def submatrix(self, idx: tuple[int, ...]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(self.rows[i][j] for j in idx) for i in idx))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def poly_pow(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    out = (1,)
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def cyclotomic_prime(p: int) -> tuple[int, ...]:
    """Phi_p(x) = 1 + x + ... + x^{p-1} for prime p, ascending coefficients."""
    return (1,) * p


def _cp_block(p: int) -> IntMatrix:
    # companion of Phi_p: subdiagonal ones, last column all -1
    n = p - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][n - 1] = -1
        if i >= 1:
            rows[i][i - 1] = 1
    return IntMatrix(rows)


def _jp_block(p: int) -> IntMatrix:
    rows = [[0] * p for _ in range(p)]
    rows[0][p - 1] = 1
    for i in range(1, p):
        rows[i][i - 1] = 1
    return IntMatrix(rows)


def build_holonomy(params: ZpParams) -> IntMatrix:
    """Block-diagonal generator matrix diag(C_p x a, J_p x b, 1 x c)."""
    if params.ideal_label != "principal":
        raise UnsupportedIdealError(
            f"no matrix model for ideal class {params.ideal_label!r}"
        )
    p = params.p
    blocks = [_cp_block(p)] * params.a + [_jp_block(p)] * params.b
    n = params.n
    rows = [[0] * n for _ in range(n)]
    off = 0
    for blk in blocks:
        for i in range(blk.n):
            rows[off + i][off : off + blk.n] = [blk.rows[i][j] for j in range(blk.n)]
        off += blk.n
    for i in range(off, n):
        rows[i][i] = 1
    return IntMatrix(rows)


@lru_cache(maxsize=None)
def _component_analysis(rows: tuple[tuple[int, ...], ...], p: int):
    """(order or 0 if not dividing p, det, dim ker(M - I), charpoly).

    p is prime, so an order dividing p is 1 or p: it suffices to test
    M = I and M^p = I.  Matrices whose order does not divide p report 0.
    """
    comp = IntMatrix(rows)
    ident = IntMatrix.identity(comp.n)
    if comp == ident:
        order = 1
    elif comp.power(p) == ident:
        order = p
    else:
        order = 0
    det = comp.det()
    ker = comp.n - comp.add_scalar_identity(-1).rank()
    return order, det, ker, comp.charpoly()


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
    failures: tuple[str, ...] = field(default=())

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "params": str(self.params),
            "power_identity": self.power_identity,
            "order_exact": self.order_exact,
            "det_one": self.det_one,
            "fixed_space_dim": self.fixed_space_dim,
            "fixed_space_ok": self.fixed_space_ok,
            "charpoly_ok": self.charpoly_ok,
            "failures": list(self.failures),
        }


def holonomy_checks(m: IntMatrix, params: ZpParams) -> HolonomyReport:
    """Verify order, determinant, fixed space, and characteristic polynomial.

    The matrix is split into connected components of its nonzero pattern
    (a generic decomposition, exact by block multiplicativity), and the
    per-component analyses are cached, which keeps large parameter sweeps
    cheap.  All arithmetic is exact.
    """
    p = params.p
    analyses = [_component_analysis(m.submatrix(idx).rows, p) for idx in m.components()]

    orders = [a[0] for a in analyses]
    power_identity = all(o != 0 and p % o == 0 for o in orders)
    order = 0 if 0 in orders else math.lcm(*orders)
    order_exact = order == p

    det = math.prod(a[1] for a in analyses)
    ker = sum(a[2] for a in analyses)

    charpoly = (1,)
    for a in analyses:
        charpoly = poly_mul(charpoly, a[3])
    expected = poly_mul(
        poly_pow(cyclotomic_prime(p), params.a),
        poly_mul(
            poly_pow((-1,) + (0,) * (p - 1) + (1,), params.b),
            poly_pow((-1, 1), params.c),
        ),
    )

    failures = []
    if not power_identity:
        failures.append("power_identity")
    if not order_exact:
        failures.append("order_exact")
    if det != 1:
        failures.append("det_one")
    if ker != params.beta1:
        failures.append("fixed_space")
    if charpoly != expected:
        failures.append("charpoly")

    return HolonomyReport(
        params=params,
        power_identity=power_identity,
        order_exact=order_exact,
        det_one=det == 1,
        fixed_space_dim=ker,
        fixed_space_ok=ker == params.beta1,
        charpoly_ok=charpoly == expected,
        failures=tuple(failures),
    )


def enumerate_params(
    p_max: int, n_max: int, include_even_n: bool = False
) -> list[ZpParams]:
    """All valid (p, a, b, c) with p <= p_max and n <= n_max, ordered.

    By default only odd-dimensional manifolds (b + c odd) are produced.
    """
    from .numtheory import odd_primes_upto

    out = []
    for p in odd_primes_upto(p_max):
        for a in range(0, n_max // (p - 1) + 1):
            base_a = a * (p - 1)
            if base_a > n_max:
                break
            for b in range(0, (n_max - base_a) // p + 1):
                if a + b == 0:
                    continue
                base = base_a + b * p
                for c in range(1, n_max - base + 1):
                    if not include_even_n and (b + c) % 2 == 0:
                        continue
                    out.append(ZpParams(p, a, b, c))
    out.sort(key=ZpParams.key)
    return out


# re-exported for callers that catch validation errors in one place
__all__ = [
    "EvenDimensionError",
    "HolonomyReport",
    "HomologyH1",
    "IntMatrix",
    "NotOddError",
    "NotPrimeError",
    "SpinStructure",
    "TorsionViolationError",
    "UnsupportedIdealError",
    "ZeroHolonomyBlockError",
    "ZpParams",
    "build_holonomy",
    "cyclotomic_prime",
    "enumerate_params",
    "enumerate_spin_structures",
    "holonomy_checks",
    "homology_h1",
    "nontrivial_structure",
    "poly_mul",
    "poly_pow",
    "trivial_structure",
    "validate",
]
