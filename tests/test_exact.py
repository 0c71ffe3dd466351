import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpeta.exact import (
    UNIT_I,
    UNIT_ONE,
    RadicalValue,
    cyclotomic_ring,
    rational_str,
    reduce_mod_Z,
)
from zpeta.numtheory import as_prime, odd_primes_upto


def test_reduce_mod_Z_examples():
    assert reduce_mod_Z(Fraction(-1, 3)).value == Fraction(2, 3)
    assert reduce_mod_Z(Fraction(7, 3)).value == Fraction(1, 3)
    assert reduce_mod_Z(4).value == 0


@given(st.fractions())
def test_reduce_mod_Z_roundtrip(x):
    r = reduce_mod_Z(x)
    assert 0 <= r.value < 1
    assert (x - r.value).denominator == 1


def test_rational_arithmetic_is_exact():
    # cross-multiplication oracle against Fraction addition, big operands
    rng = random.Random(20260810)
    for _ in range(1000):
        a = rng.randint(-(2**256), 2**256)
        b = rng.randint(1, 2**256)
        c = rng.randint(-(2**256), 2**256)
        d = rng.randint(1, 2**256)
        got = Fraction(a, b) + Fraction(c, d)
        assert got == Fraction(a * d + c * b, b * d)
        assert got.denominator > 0
        import math

        assert math.gcd(got.numerator, got.denominator) == 1


def test_rational_serialization():
    assert rational_str(Fraction(-2, 3)) == "-2/3"
    assert rational_str(Fraction(4, 1)) == "4"
    assert Fraction(rational_str(Fraction(-2, 3))) == Fraction(-2, 3)
    assert Fraction(rational_str(4)) == 4


def test_residue_rejects_out_of_range():
    from zpeta.exact import ResidueModZ

    with pytest.raises(ValueError):
        ResidueModZ(Fraction(3, 2))
    with pytest.raises(ValueError):
        ResidueModZ(Fraction(-1, 2))


@pytest.mark.parametrize(
    "value, ok",
    [(Fraction(0), True), (Fraction(1), False), (Fraction(-1, 2), False),
     (1 - Fraction(1, 10**30), True)],
    ids=("0", "1", "-1/2", "1-1e-30"),
)
def test_residue_range_is_checked_on_numerator_and_denominator(value, ok):
    from zpeta.exact import ResidueModZ

    if ok:
        assert ResidueModZ(value).value is value
    else:
        with pytest.raises(ValueError, match=r"residue out of \[0, 1\)"):
            ResidueModZ(value)


NOT_A_RATIONAL = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.fractions().map(str),
    st.integers().map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(str),
)


@given(NOT_A_RATIONAL)
def test_the_exact_layer_refuses_floats_bools_and_strings(x):
    # 0.1 became 3602879701896397/36028797018963968, True became 1 and
    # "7/3" was parsed
    from zpeta.exact import ResidueModZ

    for build in (ResidueModZ, reduce_mod_Z, RadicalValue, rational_str):
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            build(x)


def test_residue_keeps_a_fraction_and_wraps_an_int():
    from zpeta.exact import ResidueModZ

    x = Fraction(2, 3)
    assert ResidueModZ(x).value is x
    zero = ResidueModZ(0)
    assert type(zero.value) is Fraction and zero.is_zero() and str(zero) == "0"
    assert reduce_mod_Z(Fraction(-7, 3)).value == Fraction(2, 3)
    assert type(reduce_mod_Z(-4).value) is Fraction


def at_zeta(x: int, p: int) -> complex:
    coords = cyclotomic_ring(as_prime(p)).unpack(x)
    return sum(c * cmath.exp(1j * math.pi * e / (2 * p)) for e, c in enumerate(coords))


def test_radical_embedding_examples():
    ring5, ring3, ring7 = (cyclotomic_ring(as_prime(p)) for p in (5, 3, 7))
    assert at_zeta(ring5.embed(RadicalValue(Fraction(1), UNIT_ONE, 5)), 5) == pytest.approx(
        2.2360679774997896
    )
    v = at_zeta(ring3.embed(RadicalValue(Fraction(1, 2), UNIT_I, 3), 2), 3)
    assert v.real == pytest.approx(0, abs=1e-12)
    assert v.imag == pytest.approx(2 * 0.8660254037844386)
    assert ring7.embed(RadicalValue(Fraction(0), UNIT_ONE, 7)) == 0
    assert ring7.embed(-3) == -3  # a rational integer packs as itself
    assert ring7.embed(RadicalValue(Fraction(5, 2), UNIT_I, 1), 2, 1) == -5
    for value, scale in ((RadicalValue(Fraction(1, 2), UNIT_ONE, 7), 1), (Fraction(1, 3), 2)):
        with pytest.raises(ValueError, match="is not in Z"):
            ring7.embed(value, scale)
    with pytest.raises(ValueError, match="is not in Z"):
        ring7.embed(RadicalValue(Fraction(1), UNIT_ONE, 5))
    with pytest.raises(OverflowError):
        ring7.embed(1 << 63)


def phi_4p(p: int) -> list[int]:
    """Coefficients of Phi_4p(z) = sum_{j<p} (-1)^j z^{2j}, lowest first."""
    phi = [0] * (2 * p - 1)
    for j in range(p):
        phi[2 * j] = (-1) ** j
    return phi


def long_division_remainder(poly: list[int], divisor: list[int]) -> list[int]:
    """poly mod a monic divisor, by schoolbook long division."""
    rem = list(poly)
    deg = len(divisor) - 1
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        if c:
            for i, d in enumerate(divisor):
                rem[top - deg + i] -= c * d
    return (rem + [0] * deg)[:deg]


@settings(deadline=None)
@given(
    st.sampled_from((3, 5, 7, 11, 13)),
    st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=60),
    st.integers(1, 60),
)
def test_canonical_form_is_the_remainder_mod_phi_4p(p, coeffs, k):
    ring = cyclotomic_ring(as_prime(p))
    # exponents up to 4p - 1: z^{4p} = 1 is the only reduction before the division
    poly = [0] * (4 * p)
    for e, c in enumerate(coeffs):
        poly[e * k % (4 * p)] += c
    want = long_division_remainder(poly, phi_4p(p))
    assert ring.reduce(coeffs, k) == want
    assert ring.unpack(ring.pack(want)) == want


@pytest.mark.parametrize("p", odd_primes_upto(97))
def test_sqrt_p_squares_to_p(p):
    ring = cyclotomic_ring(as_prime(p))
    root = ring.embed(RadicalValue(Fraction(1), UNIT_ONE, p))
    coords = dict(enumerate(ring.unpack(root)))
    square = ring.reduce(ring.times(coords, coords))
    assert square == [p] + [0] * (ring.dim - 1)
    assert at_zeta(root, p) == pytest.approx(math.sqrt(p))


@pytest.mark.parametrize("p, bits", ((7, 64), (113, 64), (127, 128), (257, 192)))
def test_pack_refuses_a_coordinate_at_its_slot_bound(p, bits):
    # the slots hold the cosine product 2^q, q = (p - 1) / 2, with its sign
    ring = cyclotomic_ring(as_prime(p))
    assert ring.bits == bits and ring.bound == 1 << (bits - 1) > 1 << ((p - 1) // 2)
    top = ring.bound - 1
    assert ring.unpack(ring.pack([top, -top, 0, 5]), 4) == [top, -top, 0, 5]
    for bad in (ring.bound, -ring.bound, ring.bound << 7):
        with pytest.raises(OverflowError):
            ring.pack([0, bad, 1])


@given(st.sampled_from((7, 127)), st.data())
def test_pack_is_linear_and_injective(p, data):
    ring = cyclotomic_ring(as_prime(p))
    top = ring.bound - 1
    coords = data.draw(st.lists(st.integers(-top, top), min_size=1, max_size=12))
    doubled = [2 * c for c in coords]
    assert ring.unpack(ring.pack(coords), len(coords)) == coords
    if max(map(abs, doubled)) < ring.bound:
        assert ring.pack(coords) + ring.pack(coords) == ring.pack(doubled)
    assert ring.pack(coords) - ring.pack(coords) == 0


def test_radical_zero_is_normalized():
    z = RadicalValue(Fraction(0), UNIT_I, 7)
    assert z.is_zero() and z.unit == UNIT_ONE and z.radicand == 1
    assert z == RadicalValue.zero()


@pytest.mark.parametrize(
    "unit, radicand, message",
    [
        ("j", 1, "unit must be '1' or 'i', got 'j'"),
        (1, 1, "unit must be '1' or 'i', got 1"),
        (UNIT_ONE, 0, "radicand must be a positive integer, got 0"),
        (UNIT_I, -3, "radicand must be a positive integer, got -3"),
        (UNIT_ONE, True, "radicand must be a positive integer, got True"),
        (UNIT_ONE, 2.0, "radicand must be a positive integer, got 2.0"),
    ],
    ids=("unit-j", "unit-int", "radicand-0", "radicand-negative", "radicand-bool", "radicand-float"),
)
def test_radical_refuses_a_bad_unit_or_a_radicand_that_is_not_a_positive_int(
    unit, radicand, message
):
    # radicand True was accepted and shown as radicand=True in the repr
    with pytest.raises(ValueError, match=message):
        RadicalValue(Fraction(1), unit, radicand)


def test_radical_str_examples():
    assert str(RadicalValue(Fraction(3, 2), UNIT_I, 7)) == "3/2*i*sqrt(7)"
    assert str(RadicalValue(Fraction(-1), UNIT_ONE, 1)) == "-1"
    assert str(RadicalValue.zero()) == "0"
