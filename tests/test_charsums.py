import cmath
import math
from fractions import Fraction

import pytest

from zpeta import charsums, numtheory
from zpeta.charsums import (
    CHI0,
    CHIP,
    F_direct,
    F_h_chi0,
    F_h_chip,
    G_h_chi0,
    G_h_chip,
    gauss_direct,
    trig_prod,
    trig_prod_direct,
)
from zpeta.cli import _appendix_for_prime, suite_appendix
from zpeta.exact import UNIT_I, UNIT_ONE, RadicalValue
from zpeta.numtheory import as_prime, odd_primes_upto

ORACLE_PRIMES = odd_primes_upto(19)


def test_gauss_G_examples():
    # h = 1 is the quadratic Gauss sum G(l) = delta(p) (l/p) sqrt(p)
    assert G_h_chip(1, 1, 5) == RadicalValue(Fraction(1), UNIT_ONE, 5)
    assert G_h_chip(1, 1, 3) == RadicalValue(Fraction(1), UNIT_I, 3)
    assert G_h_chip(1, 5, 5).is_zero()
    assert G_h_chip(1, 2, 5) == RadicalValue(Fraction(-1), UNIT_ONE, 5)


def test_gauss_direct_examples():
    assert gauss_direct(1, CHI0, 0, 7) == pytest.approx(6.0)
    assert gauss_direct(1, CHIP, 1, 5) == pytest.approx(2.2360679774997896)
    assert gauss_direct(2, CHI0, 3, 7) == pytest.approx(6.0)


def test_G_h_chi0_examples():
    assert G_h_chi0(1, 0, 7) == 6
    assert G_h_chi0(1, 3, 7) == -1
    assert G_h_chi0(2, 3, 7) == 6
    assert G_h_chi0(2, 1, 7) == -1


def test_G_h_chip_examples():
    assert G_h_chip(1, 2, 5) == RadicalValue(Fraction(-1), UNIT_ONE, 5)
    assert G_h_chip(2, 3, 7).is_zero()
    assert G_h_chip(2, 1, 5) == RadicalValue(Fraction(1), UNIT_ONE, 5)


def test_F_h_chi0_examples():
    assert F_h_chi0(1, 2, 2, 5) == RadicalValue(Fraction(5, 2), UNIT_I, 1)
    assert F_h_chi0(1, 1, 2, 5).is_zero()
    assert F_h_chi0(2, 3, 2, 11) == RadicalValue(Fraction(-11, 2), UNIT_I, 1)
    # p | l wins over any later divisibility
    assert F_h_chi0(1, 5, 5, 5).is_zero()


def test_F_h_chip_examples():
    assert F_h_chip(1, 1, 1, 5) == RadicalValue(Fraction(1, 2), UNIT_I, 5)
    assert F_h_chip(1, 1, 5, 5).is_zero()
    assert F_h_chip(1, 3, 1, 3) == RadicalValue(Fraction(1), UNIT_ONE, 3)


def test_F_h_chip_vanishing_symmetry():
    # h = 1, c = 0 mod p: the two Legendre symbols cancel exactly
    for p in ORACLE_PRIMES:
        for l in range(p):
            for c in (p, 2 * p):
                assert F_h_chip(1, l, c, p).is_zero(), (p, l, c)


def test_F_direct_examples():
    v = F_direct(1, CHI0, 2, 2, 5)
    assert v.imag == pytest.approx(2.5, abs=1e-9)
    assert v.real == pytest.approx(0.0, abs=1e-9)
    v = F_direct(1, CHIP, 1, 1, 5)
    assert v.imag == pytest.approx(1.118033988749895, abs=1e-9)
    assert abs(F_direct(1, CHI0, 1, 2, 5)) == pytest.approx(0.0, abs=1e-9)


def _F_scalar_loop(h, chi, l, c, p):
    """F_h(l, c) summed one k at a time, in ascending k."""
    total = 0.0 + 0.0j
    for k in range(1, p):
        sign = -1 if (h == 2 and k % 2 == 1) else 1
        char = 1 if chi is CHI0 else as_prime(p).legendre(k)
        phase = cmath.exp(1j * math.pi * ((2 * k * l) % (2 * p)) / p)
        sine = math.sin(math.pi * ((k * (2 * c + (h == 2))) % (2 * p)) / p)
        total += sign * char * phase * sine
    return total


@pytest.mark.parametrize("h", (1, 2))
@pytest.mark.parametrize("chi", (CHI0, CHIP))
def test_F_direct_is_bitwise_the_ascending_k_loop(h, chi):
    # negative l, l >= p and c >= p all read the grid at (l mod p, c mod p)
    for p in odd_primes_upto(43):
        for l in range(-1, p + 2):
            for c in range(1, 2 * p + 2):
                got = F_direct(h, chi, l, c, p)
                want = _F_scalar_loop(h, chi, l, c, p)
                assert got == want, (p, h, chi, l, c)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@pytest.mark.parametrize("c", (0, -1, -7))
def test_F_sums_reject_c_below_one(c):
    message = f"c must be a positive integer, got {c}"
    for chi in (CHI0, CHIP):
        with pytest.raises(ValueError, match=message):
            F_direct(1, chi, 1, c, 5)
    for closed in (F_h_chi0, F_h_chip):
        with pytest.raises(ValueError, match=message):
            closed(2, 1, c, 5)


def test_appendix_reports_a_wrong_closed_form_cell(monkeypatch):
    right = charsums.F_h_chip

    def wrong_at_one_cell(h, l, c, p):
        value = right(h, l, c, p)
        wrong = (h, l, c, int(p)) == (2, 3, 4, 5)
        return RadicalValue(-value.coeff, value.unit, value.radicand) if wrong else value

    monkeypatch.setattr(charsums, "F_h_chip", wrong_at_one_cell)
    report = suite_appendix(5)
    assert report.cases == 500
    assert [f.to_dict() for f in report.failures] == [
        {
            "params": "p=5",
            "structure": "sine-quadratic(h=2,l=3,c=4)",
            "ell": None,
            "expected": "-1.118033988749895j",
            "got": "(-1.1102230246251565e-16+1.118033988749895j) (tol 1e-08)",
        }
    ]


def test_appendix_reports_a_wrong_legendre_sum(monkeypatch):
    right = numtheory.S_direct

    def wrong_at_one_cell(which, ell, p):
        value = right(which, ell, p)
        return value + 1 if (which, ell, int(p)) == (2, 3, 5) else value

    monkeypatch.setattr(numtheory, "S_direct", wrong_at_one_cell)
    report = suite_appendix(5)
    assert [f.to_dict() for f in report.failures] == [
        {
            "params": "p=5",
            "structure": "difference-sum-2",
            "ell": 3,
            "expected": "0",
            "got": "1",
        }
    ]


def test_a_poisoned_memo_cell_fails_at_every_reader(monkeypatch):
    # the shift sum at base k*ell = 3 mod 7, sign +1: one k per ell in 1..6 reads it
    P = as_prime(7)
    right = numtheory.sum_legendre_shift(3, 1, 1, P)
    monkeypatch.setitem(P._sums, ("shift", 3, 1), right + 1)
    report = _appendix_for_prime((7, None))
    assert [f.structure for f in report.failures] == ["shifted-sum"] * 6
    assert [f.ell for f in report.failures] == [1, 2, 3, 4, 5, 6]
    assert report.failures[0].to_dict() == {
        "params": "p=7",
        "structure": "shifted-sum",
        "ell": 1,
        "expected": "1",
        "got": "2",
    }


@pytest.mark.parametrize("h", (1, 2))
@pytest.mark.parametrize("chi", (CHI0, CHIP))
def test_gauss_closed_forms_match_direct_sums(h, chi):
    for p in ORACLE_PRIMES:
        for l in range(p):
            direct = gauss_direct(h, chi, l, p)
            if chi is CHI0:
                closed = complex(G_h_chi0(h, l, p))
            else:
                closed = G_h_chip(h, l, p).to_complex()
            assert abs(direct - closed) < 1e-8, (p, h, chi, l)


@pytest.mark.parametrize("h", (1, 2))
@pytest.mark.parametrize("chi", (CHI0, CHIP))
def test_F_closed_forms_match_direct_sums(h, chi):
    for p in ORACLE_PRIMES:
        for l in range(p):
            for c in range(1, 2 * p + 1):
                direct = F_direct(h, chi, l, c, p)
                fn = F_h_chi0 if chi is CHI0 else F_h_chip
                closed = fn(h, l, c, p).to_complex()
                assert abs(direct - closed) < 1e-8, (p, h, chi, l, c)


def test_trig_prod_examples():
    assert trig_prod("sin", 3, 3).is_zero()
    assert trig_prod("sin", 2, 5) == RadicalValue(Fraction(1, 4), UNIT_ONE, 5)
    assert trig_prod("cos", 1, 5) == RadicalValue(Fraction(1, 4), UNIT_ONE, 1)
    assert trig_prod("cos", 5, 5) == RadicalValue(Fraction(-1), UNIT_ONE, 1)
    assert trig_prod("sin", 3, 5) == RadicalValue(Fraction(-1, 4), UNIT_ONE, 5)


def test_trig_prod_direct_examples():
    assert trig_prod_direct("sin", 1, 3) == pytest.approx(0.8660254037844386)
    assert trig_prod_direct("cos", 5, 5) == pytest.approx(-1.0)
    assert trig_prod_direct("sin", 3, 3) == pytest.approx(0.0, abs=1e-12)
    assert trig_prod_direct("sin", 2, 5) == pytest.approx(0.5590169943749474)


def test_trig_prod_matches_direct():
    for p in odd_primes_upto(97):
        for kind in ("sin", "cos"):
            for k in range(1, 3 * p + 1):
                closed = trig_prod(kind, k, p).to_complex().real
                direct = trig_prod_direct(kind, k, p)
                assert abs(closed - direct) < 1e-9, (p, kind, k)


def test_argument_validation():
    with pytest.raises(ValueError):
        trig_prod("tan", 1, 5)
    with pytest.raises(ValueError):
        trig_prod("sin", 0, 5)
    with pytest.raises(ValueError):
        F_h_chi0(1, 1, 0, 5)
    with pytest.raises(ValueError):
        gauss_direct(3, CHI0, 1, 5)
