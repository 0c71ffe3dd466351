import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpeta.exact import (
    UNIT_I,
    UNIT_ONE,
    RadicalValue,
    rational_str,
    reduce_mod_Z,
)


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


def test_radical_to_complex_examples():
    assert RadicalValue(Fraction(1), UNIT_ONE, 5).to_complex() == pytest.approx(
        2.2360679774997896
    )
    v = RadicalValue(Fraction(1, 2), UNIT_I, 3).to_complex()
    assert v.real == 0
    assert v.imag == pytest.approx(0.8660254037844386)
    assert RadicalValue(Fraction(0), UNIT_ONE, 7).to_complex() == 0


def test_radical_zero_is_normalized():
    z = RadicalValue(Fraction(0), UNIT_I, 7)
    assert z.is_zero() and z.unit == UNIT_ONE and z.radicand == 1
    assert z == RadicalValue.zero()


def test_radical_unit_and_radicand_reduction():
    # i * i = -1 and sqrt(p) * sqrt(p) = p
    a = RadicalValue(Fraction(1, 2), UNIT_I, 5)
    b = RadicalValue(Fraction(3), UNIT_I, 5)
    prod = a * b
    assert prod == RadicalValue(Fraction(-15, 2), UNIT_ONE, 1)
    c = RadicalValue(Fraction(2), UNIT_ONE, 1) * RadicalValue(Fraction(1), UNIT_I, 3)
    assert c == RadicalValue(Fraction(2), UNIT_I, 3)


@settings(deadline=None)
@given(
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
    st.sampled_from([UNIT_ONE, UNIT_I]),
    st.sampled_from([UNIT_ONE, UNIT_I]),
    st.sampled_from([1, 3, 5, 7, 13]),
)
def test_radical_mul_matches_float(c1, c2, u1, u2, p):
    x = RadicalValue(c1, u1, p)
    y = RadicalValue(c2, u2, p)
    want = x.to_complex() * y.to_complex()
    got = (x * y).to_complex()
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_radical_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        RadicalValue(Fraction(1), UNIT_ONE, 3) * RadicalValue(Fraction(1), UNIT_ONE, 5)


def test_radical_scalar_multiplication():
    v = 3 * RadicalValue(Fraction(1, 2), UNIT_I, 7)
    assert v == RadicalValue(Fraction(3, 2), UNIT_I, 7)
    assert str(v) == "3/2*i*sqrt(7)"
