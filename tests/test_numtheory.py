import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpeta.exact import UNIT_I, UNIT_ONE
from zpeta import numtheory as nt
from zpeta.numtheory import (
    NotOddError,
    NotPrimeError,
    OddPrime,
    S_direct,
    S_h_pm,
    as_prime,
    class_number,
    class_number_reduced_forms,
    delta_p,
    legendre,
    odd_primes_upto,
    sum_legendre_odd_shift,
    sum_legendre_shift,
    weighted_legendre_sum,
)

SMALL_PRIMES = odd_primes_upto(23)


def prefix_sum(P, upper):
    tab = P.legendre_table()
    return sum(tab[j] for j in range(1, upper + 1))


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
    for call in (as_prime, lambda q: legendre(2, q), class_number):
        with pytest.raises(ValueError):
            call(p)


@given(st.sampled_from(odd_primes_upto(97)))
def test_as_prime_accepts_odd_primes(p):
    P = as_prime(p)
    assert P.p == p and as_prime(P) is P is as_prime(p)


def test_legendre_examples():
    assert legendre(1, 3) == 1
    assert legendre(2, 3) == -1
    assert legendre(0, 5) == 0
    assert legendre(2, 7) == 1  # 3^2 = 2 mod 7
    assert legendre(-1, 5) == 1
    assert legendre(-1, 7) == -1


def test_legendre_against_square_enumeration():
    for p in SMALL_PRIMES:
        squares = {k * k % p for k in range(1, p)}
        for k in range(p):
            want = 0 if k == 0 else (1 if k in squares else -1)
            assert legendre(k, p) == want


def test_legendre_supplementary_laws():
    for p in odd_primes_upto(97):
        assert legendre(2, p) == (-1) ** ((p * p - 1) // 8)
        assert legendre(-1, p) == (-1) ** ((p - 1) // 2)


def test_legendre_multiplicativity_random():
    rng = random.Random(97)
    for p in SMALL_PRIMES:
        for _ in range(500):
            a = rng.randint(-3 * p, 3 * p)
            b = rng.randint(-3 * p, 3 * p)
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


@settings(deadline=None)
@given(st.integers(), st.integers(), st.sampled_from(odd_primes_upto(31)))
def test_legendre_multiplicativity_hypothesis(a, b, p):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_delta_p():
    assert delta_p(5) == UNIT_ONE
    assert delta_p(3) == UNIT_I
    assert delta_p(13) == UNIT_ONE


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
            s1, s2 = S_direct(1, ell, P), S_direct(2, ell, P)
            if p % 4 == 1:
                assert s1 == p * S_h_pm(1, -1, ell, P)
                assert s2 == p * (S_h_pm(2, -1, ell, P) - l2 * S_h_pm(1, -1, ell, P))
            else:
                assert s1 == -p * S_h_pm(1, 1, ell, P) - 2 * w
                assert s2 == -p * (
                    S_h_pm(2, 1, ell, P) - l2 * S_h_pm(1, 1, ell, P)
                ) + 2 * (l2 - 1) * w


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
