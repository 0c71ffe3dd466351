import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpeta.charsums import G_h_chip
from zpeta.exact import UNIT_I, UNIT_ONE
from zpeta import numtheory as nt
from zpeta.numtheory import (
    NotOddError,
    NotPrimeError,
    OddPrime,
    S_direct,
    S_split,
    as_prime,
    is_prime,
    class_number,
    class_number_reduced_forms,
    odd_primes_upto,
    odd_weighted_legendre_sum,
    sum_legendre_odd_shift,
    sum_legendre_shift,
    weighted_legendre_sum,
    weighted_split,
)

SMALL_PRIMES = odd_primes_upto(23)


def prefix_sum(P, upper):
    tab = P.legendre_table()
    return sum(tab[j] for j in range(1, upper + 1))


def S_h_pm(h, sign, ell, p):
    """The paper's split sums S_h^+-(ell, p) = P[p - b - 1] +- P[b - 1] with
    b = h*ell mod p: two reads of the prefix table, P[-1] = 0 the empty sum."""
    P = as_prime(p)
    b = h * ell % P.p
    prefix = P.prefix_table()
    return prefix[P.p - b - 1] + sign * prefix[b - 1]


def test_odd_prime_validation():
    with pytest.raises(NotPrimeError):
        OddPrime(9)
    with pytest.raises(NotPrimeError):
        OddPrime(1)
    with pytest.raises(NotOddError):
        OddPrime(2)
    assert OddPrime(97).q == 48
    assert OddPrime(97).t == 24
    assert as_prime(7) is as_prime(7)


def test_equal_odd_primes_hash_equal():
    # the key of every cyclotomic_ring(P) lookup
    assert OddPrime(7) == as_prime(7) and hash(OddPrime(7)) == hash(as_prime(7))
    assert {OddPrime(7): 1}[as_prime(7)] == 1 and OddPrime(7) != OddPrime(11)


def test_is_prime_spot_checks():
    assert nt.is_prime(2) and nt.is_prime(3) and nt.is_prime(3_000_000_019)
    assert not nt.is_prime(3_000_000_021)
    assert not nt.is_prime(561)  # Carmichael


def test_is_prime_is_exact_below_psi13():
    psi12 = 318_665_857_834_031_151_167_461  # least strong pseudoprime to the bases 2..37
    assert psi12 == 399_165_290_221 * 798_330_580_441
    assert not nt.is_prime(psi12)
    assert nt.is_prime(399_165_290_221) and nt.is_prime(798_330_580_441)
    with pytest.raises(NotPrimeError):
        as_prime(psi12)
    with pytest.raises(ValueError, match="certified"):
        nt.is_prime(3_317_044_064_679_887_385_961_981)  # psi13: bases 2..41


NOT_INTS = st.one_of(
    st.floats(allow_nan=True),
    st.sampled_from(SMALL_PRIMES).map(float),
    st.text(max_size=4),
    st.sampled_from(SMALL_PRIMES).map(str),
    st.booleans(),
)


@given(NOT_INTS)
def test_as_prime_refuses_anything_but_an_int(p):
    for call in (as_prime, lambda q: sum_legendre_shift(1, 1, 1, q), class_number):
        with pytest.raises(ValueError):
            call(p)


@given(NOT_INTS)
def test_odd_prime_refuses_anything_but_an_int(p):
    with pytest.raises(ValueError, match="p must be an int, got "):
        OddPrime(p)


@given(st.sampled_from(odd_primes_upto(97)))
def test_as_prime_accepts_odd_primes(p):
    P = as_prime(p)
    assert P.p == p and as_prime(P) is P is as_prime(p)


def test_legendre_examples():
    assert as_prime(3).legendre(1) == 1
    assert as_prime(3).legendre(2) == -1
    assert as_prime(5).legendre(0) == 0
    assert as_prime(7).legendre(2) == 1  # 3^2 = 2 mod 7
    assert as_prime(5).legendre(-1) == 1
    assert as_prime(7).legendre(-1) == -1


def test_legendre_against_square_enumeration():
    for p in SMALL_PRIMES:
        squares = {k * k % p for k in range(1, p)}
        for k in range(p):
            want = 0 if k == 0 else (1 if k in squares else -1)
            assert as_prime(p).legendre(k) == want


def test_legendre_supplementary_laws():
    for p in odd_primes_upto(97):
        P = as_prime(p)
        assert P.legendre(2) == (-1) ** ((p * p - 1) // 8)
        assert P.legendre(-1) == (-1) ** ((p - 1) // 2)


def test_legendre_multiplicativity_random():
    rng = random.Random(97)
    for p in SMALL_PRIMES:
        P = as_prime(p)
        for _ in range(500):
            a = rng.randint(-3 * p, 3 * p)
            b = rng.randint(-3 * p, 3 * p)
            assert P.legendre(a * b) == P.legendre(a) * P.legendre(b)


@settings(deadline=None)
@given(st.integers(), st.integers(), st.sampled_from(odd_primes_upto(31)))
def test_legendre_multiplicativity_hypothesis(a, b, p):
    P = as_prime(p)
    assert P.legendre(a * b) == P.legendre(a) * P.legendre(b)


def test_delta_p():
    # delta(p), the unit of the quadratic Gauss sum: 1 for p = 1 mod 4, i for 3 mod 4
    assert G_h_chip(1, 1, 5).unit == UNIT_ONE
    assert G_h_chip(1, 1, 3).unit == UNIT_I
    assert G_h_chip(1, 1, 13).unit == UNIT_ONE


def test_class_number_examples():
    assert class_number(3) == 1
    assert class_number(11) == 1
    assert class_number(23) == 3
    with pytest.raises(ValueError):
        class_number(13)
    with pytest.raises(ValueError):
        class_number_reduced_forms(5)


def test_class_number_matches_reduced_form_oracle():
    for p in odd_primes_upto(199):
        if p % 4 == 3:
            assert class_number(p) == class_number_reduced_forms(p), p


def test_sum_legendre_shift_examples():
    assert sum_legendre_shift(0, 1, 1, 5) == 0
    assert sum_legendre_shift(1, 1, 1, 5) == -1
    assert sum_legendre_shift(1, 2, 1, 5) == 1


def test_sum_legendre_shift_closed_form():
    for p in SMALL_PRIMES:
        P = as_prime(p)
        for ell in range(p):
            for k in range(1, p + 1):
                for sign in (1, -1):
                    got = sum_legendre_shift(ell, k, sign, P)
                    assert got == -P.legendre(k * ell), (p, ell, k, sign)


def test_sum_legendre_odd_shift_vanishes():
    assert sum_legendre_odd_shift(0, 1, 5) == 0
    assert sum_legendre_odd_shift(3, -1, 7) == 0
    assert sum_legendre_odd_shift(1, 1, 3) == 0
    for p in SMALL_PRIMES:
        for ell in range(p):
            for sign in (1, -1):
                assert sum_legendre_odd_shift(ell, sign, p) == 0


def test_weighted_legendre_sum_examples():
    assert weighted_legendre_sum(0, 1, 1, 5) == 0
    assert weighted_legendre_sum(2, 1, 1, 5) == 5
    assert weighted_legendre_sum(0, 1, -1, 3) == 1


def test_weighted_legendre_sum_closed_forms():
    for p in SMALL_PRIMES:
        P = as_prime(p)
        w = P.weighted_sum()
        lm1 = P.legendre(-1)
        for ell in range(p):
            fold = (2 * ell) // p * p
            closed = {
                (1, 1): p * prefix_sum(P, max(ell - 1, 0)) + w,
                (1, -1): lm1 * (p * prefix_sum(P, p - ell - 1) + w),
                (2, 1): p * prefix_sum(P, 2 * ell - fold - 1) + w,
                (2, -1): lm1 * (p * prefix_sum(P, p + fold - 2 * ell - 1) + w),
            }
            for (factor, sign), want in closed.items():
                assert weighted_legendre_sum(ell, factor, sign, P) == want, (
                    p,
                    ell,
                    factor,
                    sign,
                )


def test_odd_weighted_identity():
    # sum_j ((2l +- (2j+1))/p) j == weighted(l,2,+-) - (2/p) weighted(l,1,+-)
    for p in SMALL_PRIMES:
        P = as_prime(p)
        l2 = P.legendre(2)
        for ell in range(p):
            for sign in (1, -1):
                direct = sum(
                    P.legendre(2 * ell + sign * (2 * j + 1)) * j for j in range(p)
                )
                closed = weighted_legendre_sum(ell, 2, sign, P) - l2 * (
                    weighted_legendre_sum(ell, 1, sign, P)
                )
                assert direct == closed


def test_odd_weighted_legendre_sum_examples():
    assert odd_weighted_legendre_sum(0, 1, 3) == -2  # (1/3) 0 + (3/3) 1 + (5/3) 2
    assert odd_weighted_legendre_sum(1, -1, 5) == -5  # 0 + 1 - 2 + 0 - 4
    assert odd_weighted_legendre_sum(6, -1, 5) == -5  # ell is p-periodic


# -- the per-prime memo of the literal sums -----------------------------------


def reference_sum(P, kind, base, sign):
    """The literal loop of each memoised kind, term by term through P.legendre."""
    p = P.p
    if kind == "shift":
        return sum(P.legendre(base + sign * j) for j in range(1, p))
    if kind == "odd-shift":
        return sum(P.legendre(base + sign * (2 * j + 1)) for j in range(p))
    if kind == "weighted":
        return sum(P.legendre(base + sign * j) * j for j in range(1, p))
    return sum(P.legendre(base + sign * (2 * j + 1)) * j for j in range(p))


def memo_reads(P, base, sign):
    """Per kind, two calls that reach the cell (base, sign) by different
    arguments: the first is the miss, the second the hit."""
    half = base * (P.p + 1) // 2  # 2 * half = base mod p
    return {
        "shift": (
            lambda: sum_legendre_shift(base, 1, sign, P),
            lambda: sum_legendre_shift(half - P.p, 2, sign, P),
        ),
        "odd-shift": (
            lambda: sum_legendre_odd_shift(half, sign, P),
            lambda: sum_legendre_odd_shift(half + 3 * P.p, sign, P),
        ),
        "weighted": (
            lambda: weighted_legendre_sum(base, 1, sign, P),
            lambda: weighted_legendre_sum(half, 2, sign, P),
        ),
        "odd-weighted": (
            lambda: odd_weighted_legendre_sum(half, sign, P),
            lambda: odd_weighted_legendre_sum(half - P.p, sign, P),
        ),
    }


@pytest.mark.parametrize("p", odd_primes_upto(97))
def test_every_memoised_sum_is_the_literal_loop(p):
    P = OddPrime(p)  # a cold memo, not the shared cached prime
    for base in range(p):
        for sign in (1, -1):
            for kind, (miss, hit) in memo_reads(P, base, sign).items():
                want = reference_sum(P, kind, base, sign)
                cells = len(P._sums)
                assert miss() == want, (kind, base, sign)
                assert len(P._sums) == cells + 1
                assert hit() == want, (kind, base, sign)
                assert len(P._sums) == cells + 1
    assert P.weighted_sum() == reference_sum(P, "weighted", 0, 1)
    assert len(P._sums) == 4 * 2 * p  # every cell filled once


NOT_AN_INT = st.one_of(
    st.sampled_from((1.0, 3.0, -1.0, True, False, Fraction(1), Fraction(3), "1", "3")),
    st.floats(allow_nan=True),
    st.fractions(),
    st.text(max_size=3),
)

# each entry point with int arguments that read a cell when called on a prime
ENTRY_POINTS = (
    (sum_legendre_shift, ("ell", "k", "sign"), (3, 1, 1)),
    (sum_legendre_odd_shift, ("ell", "sign"), (3, -1)),
    (weighted_legendre_sum, ("ell", "factor", "sign"), (3, 1, 1)),
    (odd_weighted_legendre_sum, ("ell", "sign"), (3, 1)),
    (weighted_split, ("base", "sign"), (3, 1)),
    (S_direct, ("which", "ell"), (1, 3)),
    (S_split, ("which", "ell"), (1, 3)),
)


@settings(deadline=None)
@given(NOT_AN_INT, st.sampled_from((7, 11, 13)))
def test_legendre_sums_refuse_anything_but_ints_cold_and_warm(bad, p):
    cold, warm = OddPrime(p), OddPrime(p)
    for func, _, args in ENTRY_POINTS:
        for ell in range(p):
            func(*(ell if a == 3 else a for a in args), warm)
    for func, names, args in ENTRY_POINTS:
        for i, name in enumerate(names):
            wrong = args[:i] + (bad,) + args[i + 1 :]
            for P in (cold, warm):
                with pytest.raises(ValueError, match=f"{name} must be an int, got "):
                    func(*wrong, P)
    assert not cold._sums


def test_wrong_types_that_used_to_pass():
    with pytest.raises(ValueError, match="which must be an int"):
        S_direct(1.0, 1, 7)
    with pytest.raises(ValueError, match="sign must be an int"):
        sum_legendre_shift(1, 1, True, 7)


@pytest.mark.parametrize(
    "kind, sign, message",
    [
        ("nope", 1, "kind must be one of shift, odd-shift, weighted, odd-weighted, got 'nope'"),
        ("shift", 5, "sign must be \\+1 or -1, got 5"),
        ("weighted", 0, "sign must be \\+1 or -1, got 0"),
    ],
)
def test_literal_sum_refuses_an_unknown_kind_or_sign_and_fills_no_cell(kind, sign, message):
    # an unknown kind raised KeyError, and sign 5 summed tab[base + 5j] instead
    P = OddPrime(7)
    for _ in range(2):  # the first read would fill the cell; nothing is left to hit
        with pytest.raises(ValueError, match=message):
            P.literal_sum(kind, 0, sign)
    assert not P._sums


class CountingTable(tuple):
    """A Legendre table that counts its reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return tuple.__getitem__(self, index)


def test_one_call_reads_the_table_at_most_p_times():
    p = 10_007
    P = OddPrime(p)
    table = CountingTable(P.legendre_table())
    P._table = table
    assert sum_legendre_shift(5, 3, -1, P) == -P.legendre(15)
    reads = table.reads - 1  # the check's own P.legendre
    assert 0 < reads <= p
    assert len(P._sums) == 1


def test_split_sum_examples():
    assert S_h_pm(1, 1, 0, 7) == 0
    assert S_h_pm(1, -1, 0, 7) == 0
    assert S_h_pm(1, 1, 1, 3) == 1
    assert S_h_pm(2, 1, 1, 3) == 1
    assert S_h_pm(1, -1, 1, 5) == -1


def test_difference_sum_examples():
    assert S_direct(1, 0, 5) == 0
    assert S_direct(1, 1, 5) == -5
    assert S_direct(1, 0, 3) == 2
    assert S_direct(2, 1, 3) == -2


def test_difference_sums_match_split_forms():
    for p in SMALL_PRIMES:
        P = as_prime(p)
        w = P.weighted_sum()
        l2 = P.legendre(2)
        for ell in range(p):
            for s1, s2 in (
                (S_direct(1, ell, P), S_direct(2, ell, P)),
                (S_split(1, ell, P), S_split(2, ell, P)),
            ):
                if p % 4 == 1:
                    assert s1 == p * S_h_pm(1, -1, ell, P)
                    assert s2 == p * (S_h_pm(2, -1, ell, P) - l2 * S_h_pm(1, -1, ell, P))
                else:
                    assert s1 == -p * S_h_pm(1, 1, ell, P) - 2 * w
                    assert s2 == -p * (
                        S_h_pm(2, 1, ell, P) - l2 * S_h_pm(1, 1, ell, P)
                    ) + 2 * (l2 - 1) * w


@pytest.mark.parametrize("p", odd_primes_upto(61))
def test_prefix_table_is_the_partial_sum_of_the_symbol(p):
    P = OddPrime(p)
    table = P.prefix_table()
    assert len(table) == p
    for u in range(p):
        assert table[u] == sum(P.legendre(j) for j in range(1, u + 1)), u
    assert P.prefix_table() is table


@pytest.mark.parametrize("p", odd_primes_upto(61))
def test_split_sums_match_their_literal_definition(p):
    P = as_prime(p)
    for h in (1, 2):
        for ell in range(-p, 2 * p):
            fold = h * ell // p * p
            first = sum(P.legendre(j) for j in range(1, p + fold - h * ell))
            second = sum(P.legendre(j) for j in range(1, h * ell - fold))
            for sign in (1, -1):
                assert S_h_pm(h, sign, ell, P) == first + sign * second, (h, sign, ell)


@pytest.mark.parametrize("p", odd_primes_upto(61))
def test_weighted_split_is_the_literal_weighted_sum(p):
    P = OddPrime(p)
    for base in range(-p, 2 * p):
        for sign in (1, -1):
            want = P.literal_sum("weighted", base, sign)
            assert weighted_split(base, sign, P) == want, (base, sign)


def test_weighted_sum_is_the_literal_weight_without_reading_its_memo():
    # W = -sum_u P[u] against the literal Dirichlet sum (j/p) j, at every odd p < 2000
    for p in odd_primes_upto(2000):
        P = OddPrime(p)
        w = P.weighted_sum()
        assert not P._sums  # no literal cell read or filled
        assert w == sum(P.legendre(j) * j for j in range(1, p)) == P.literal_sum("weighted", 0, 1)
        assert P.weighted_sum() is w  # computed once


def test_weighted_split_refuses_a_sign_other_than_plus_or_minus_1():
    for sign in (0, 2, -3):
        with pytest.raises(ValueError, match=f"sign must be \\+1 or -1, got {sign}"):
            weighted_split(1, sign, 7)


@pytest.mark.parametrize("func", (S_direct, S_split))
def test_difference_sums_refuse_a_which_other_than_1_or_2(func):
    for which in (0, 3, -1):
        with pytest.raises(ValueError, match=f"which must be 1 or 2, got {which}"):
            func(which, 1, 7)


@pytest.mark.parametrize("bad", (7.0, "7", True, None, Fraction(7)))
def test_primality_and_prime_lists_refuse_anything_but_an_int(bad):
    # 7.0 passed as prime and "7" raised TypeError
    with pytest.raises(ValueError, match="n must be an int, got "):
        is_prime(bad)
    # 13.5, "13" and None raised TypeError from range
    with pytest.raises(ValueError, match="bound must be an int, got "):
        odd_primes_upto(bad)


def test_split_sum_parity():
    # nonzero twist: both split sums are odd (p - 2 signed unit terms)
    for p in SMALL_PRIMES:
        for ell in range(1, p):
            for h in (1, 2):
                for sign in (1, -1):
                    assert S_h_pm(h, sign, ell, p) % 2 == 1, (p, ell, h, sign)


def test_weighted_sum_links_to_class_number():
    # sum_j (j/p) j = -(2p / w) h(-p) for p = 3 mod 4
    for p in (3, 7, 11, 19, 23):
        P = as_prime(p)
        omega = 6 if p == 3 else 2
        assert omega * P.weighted_sum() == -2 * p * class_number(P)
