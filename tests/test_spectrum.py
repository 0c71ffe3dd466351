import cmath
import math
from fractions import Fraction
from functools import lru_cache

import pytest

from zpeta.manifold import EvenDimensionError, SpinStructure, enumerate_params, validate
from zpeta.eta import structure_classes
from zpeta.numtheory import as_prime, odd_primes_upto
from zpeta.spectrum import (
    dim_ker,
    dim_ker_oracle,
    mult_diff,
    mult_diff_by_index,
    mult_diff_oracle,
)

TRICOSM = validate(3, 1, 0, 1)


def test_mult_diff_examples():
    assert mult_diff(TRICOSM, 1, 0, 1) == -2
    assert mult_diff(validate(5, 2, 0, 1), 1, 1, 1) == 5
    for mu in (1, 2, 3, 4):
        assert mult_diff(validate(5, 2, 0, 1), 1, 0, mu) == 0


def test_mult_diff_vanishes_at_p_dividing_mu():
    assert mult_diff(TRICOSM, 1, 1, 3) == 0


def test_mult_diff_nonexceptional_is_zero():
    params = validate(5, 1, 1, 2)
    assert not params.exceptional
    for h, mu in ((1, 4), (2, Fraction(7, 2))):
        for ell in range(5):
            assert mult_diff(params, h, ell, mu) == 0


def test_spectral_index_validation():
    mult_diff(TRICOSM, 1, 0, 1)
    mult_diff(TRICOSM, 2, 0, Fraction(1, 2))
    with pytest.raises(ValueError, match="need mu in N for h=1"):
        mult_diff(TRICOSM, 1, 0, Fraction(1, 2))
    with pytest.raises(ValueError, match="incompatible with h = 2"):
        mult_diff(TRICOSM, 2, 0, 1)
    with pytest.raises(ValueError, match="must be positive, got 2\\*mu = 0"):
        mult_diff(TRICOSM, 1, 0, 0)
    # mu = 3/2 (h = 2) and mu = 2 (h = 1) both have index c = 2
    for ell in range(3):
        by_index = mult_diff_by_index(TRICOSM, 2, ell, 2)
        assert mult_diff(TRICOSM, 2, ell, Fraction(3, 2)) == by_index
        assert mult_diff(TRICOSM, 1, ell, 2) == mult_diff_by_index(TRICOSM, 1, ell, 2)


def test_mult_diff_mu_validation():
    with pytest.raises(ValueError):
        mult_diff(TRICOSM, 1, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        mult_diff(TRICOSM, 2, 0, 1)
    with pytest.raises(ValueError, match="half-integer"):
        mult_diff(TRICOSM, 1, 0, Fraction(1, 3))
    with pytest.raises(ValueError, match="h must be 1 or 2"):
        mult_diff(TRICOSM, 3, 0, 1)


def test_mult_diff_mu_of_every_rational_type():
    # int, Fraction, float and str give the same 2 mu and the same messages
    oracle = mult_diff_oracle(TRICOSM, 2, 1, Fraction(5, 2))
    for mu in (Fraction(5, 2), 2.5, "5/2"):
        assert mult_diff(TRICOSM, 2, 1, mu) == mult_diff_by_index(TRICOSM, 2, 1, 3)
        assert mult_diff_oracle(TRICOSM, 2, 1, mu) == oracle
    for mu in (3, Fraction(6, 2), 3.0):
        assert mult_diff(TRICOSM, 1, 2, mu) == mult_diff_by_index(TRICOSM, 1, 2, 3)
    for mu, shown in ((0.3, "0.3"), (Fraction(1, 3), "1/3"), ("5/4", "5/4")):
        with pytest.raises(ValueError, match=f"mu must be a half-integer, got {shown}$"):
            mult_diff(TRICOSM, 1, 0, mu)
    with pytest.raises(ValueError, match="must be positive, got 2\\*mu = -3"):
        mult_diff(TRICOSM, 2, 0, Fraction(-3, 2))


def test_mult_diff_by_index_matches_mu_form():
    for h in (1, 2):
        for c in range(1, 10):
            mu = Fraction(2 * c - (1 if h == 2 else 0), 2)
            for ell in range(3):
                assert mult_diff_by_index(TRICOSM, h, ell, c) == mult_diff(
                    TRICOSM, h, ell, mu
                )


def test_mult_diff_oracle_examples():
    assert mult_diff_oracle(TRICOSM, 1, 0, 1) == pytest.approx(-2.0, abs=1e-9)
    assert mult_diff_oracle(validate(5, 2, 0, 1), 1, 1, 1) == pytest.approx(5.0, abs=1e-9)
    assert mult_diff_oracle(TRICOSM, 1, 1, 3) == pytest.approx(0.0, abs=1e-9)


def test_mult_diff_matches_oracle():
    for p in odd_primes_upto(13):
        for a in (1, 2, 3):
            params = validate(p, a, 0, 1)
            for h in (1, 2):
                for ell in range(p):
                    for c in range(1, 2 * p + 1):
                        exact = mult_diff_by_index(params, h, ell, c)
                        mu = Fraction(2 * c - (1 if h == 2 else 0), 2)
                        approx = mult_diff_oracle(params, h, ell, mu)
                        assert abs(exact - approx) < 1e-6, (p, a, h, ell, c)


def test_mult_diff_oracle_twist_sum_rule():
    # summed over all twists the character sum keeps only k = 0 mod p, which
    # the oracle never visits: the covering torus has a symmetric spectrum
    for p in odd_primes_upto(13):
        for a in (1, 2, 3):
            params = validate(p, a, 0, 1)
            for h in (1, 2):
                for c in range(1, 2 * p + 1):
                    mu = Fraction(2 * c - (1 if h == 2 else 0), 2)
                    total = sum(mult_diff_oracle(params, h, ell, mu) for ell in range(p))
                    assert abs(total) < 1e-9, (p, a, h, c, total)


def test_mult_diff_zero_twist_symmetry_for_1_mod_4():
    # a odd, p = 1 mod 4: untwisted differences vanish identically
    for p in (5, 13, 17):
        params = validate(p, 1, 0, 1)
        for c in range(1, 3 * p):
            assert mult_diff_by_index(params, 1, 0, c) == 0
            assert mult_diff_by_index(params, 2, 0, c) == 0


def test_dim_ker_examples():
    triv = structure_classes(TRICOSM)[0]
    assert dim_ker(TRICOSM, triv, 0) == 0
    assert dim_ker(TRICOSM, triv, 1) == 1
    assert dim_ker(TRICOSM, triv, 2) == 1
    p512 = validate(5, 1, 1, 2)
    assert dim_ker(p512, structure_classes(p512)[0], 0) == 8
    p71 = validate(7, 1, 0, 1)
    assert dim_ker(p71, structure_classes(p71)[0], 0) == 2


def test_dim_ker_nontrivial_structures_vanish():
    for params in (TRICOSM, validate(5, 1, 1, 2), validate(7, 1, 0, 1)):
        structs = [s for s in structure_classes(params) if not s.trivial_type]
        for s in structs:
            for ell in range(params.p):
                assert dim_ker(params, s, ell) == 0


def test_dim_ker_parity():
    for params in enumerate_params(11, 40):
        triv = structure_classes(params)[0]
        for ell in range(params.p):
            d = dim_ker(params, triv, ell)
            assert d >= 0
            if params.beta1 > 1:
                assert d % 2 == 0
            elif ell == 0:
                assert d % 2 == 0
            else:
                assert d % 2 == 1


def test_dim_ker_rejects_even_dimension():
    params = validate(5, 1, 1, 1)
    with pytest.raises(EvenDimensionError):
        dim_ker(params, SpinStructure((1,), 1), 0)
    with pytest.raises(EvenDimensionError):
        dim_ker_oracle(params, 0)


def test_dim_ker_rejects_mismatched_structure():
    with pytest.raises(ValueError):
        dim_ker(TRICOSM, SpinStructure((1, 1), 1), 0)


def test_dim_ker_oracle_examples():
    assert dim_ker_oracle(TRICOSM, 1) == pytest.approx(1.0, abs=1e-9)
    assert dim_ker_oracle(validate(5, 1, 1, 2), 0) == pytest.approx(8.0, abs=1e-9)
    assert dim_ker_oracle(validate(7, 1, 0, 1), 0) == pytest.approx(2.0, abs=1e-9)


def test_dim_ker_matches_oracle():
    for params in enumerate_params(11, 36):
        triv = structure_classes(params)[0]
        for ell in range(params.p):
            exact = dim_ker(params, triv, ell)
            assert abs(exact - dim_ker_oracle(params, ell)) < 1e-6, (params, ell)


def test_oracle_suite_full_range():
    # p <= 31, a <= 5, all h and ell, first 3p eigenvalue indices
    from zpeta.cli import run_suite

    report = run_suite("oracles", 31, 60)
    assert report.ok, report.failures[:5]
    assert report.cases > 100_000


@lru_cache(maxsize=None)
def _loop_character_sum(p: int, a_odd: bool, h: int, ell: int, two_mu: int) -> complex:
    # the oracle's former per-call loop over k, with its own tables
    phases = [cmath.exp(1j * math.pi * m / p) for m in range(2 * p)]
    sines = [math.sin(math.pi * m / p) for m in range(2 * p)]
    tab = as_prime(p).legendre_table()
    total = 0.0 + 0.0j
    for k in range(1, p):
        sign = -1 if (h == 2 and k % 2 == 1) else 1
        chi = tab[k % p] if a_odd else 1
        total += sign * chi * phases[(2 * k * ell) % (2 * p)] * sines[(k * two_mu) % (2 * p)]
    return total


def _loop_oracle(params, h: int, ell: int, two_mu: int) -> float:
    p, a = params.p, params.a
    m = (params.n - 1) // 2
    total = _loop_character_sum(p, a % 2 == 1, h, ell, two_mu % (2 * p))
    eps = ((p * p - 1) // 8) * a + 1
    pref = (-1) ** (eps % 2) * (1 + 0j, 1j, -1 + 0j, -1j)[(m + 1) % 4] * 2.0 * float(p) ** (a / 2 - 1)
    return (pref * total).real


def test_mult_diff_oracle_is_the_literal_loop_bit_for_bit():
    # p <= 31, a <= 5, both h, every ell, c <= 3p: 100,620 cells
    cells = 0
    for p in odd_primes_upto(31):
        for a in range(1, 6):
            params = validate(p, a, 0, 1)
            for h in (1, 2):
                for ell in range(p):
                    for c in range(1, 3 * p + 1):
                        two_mu = 2 * c - (1 if h == 2 else 0)
                        got = mult_diff_oracle(params, h, ell, Fraction(two_mu, 2))
                        want = _loop_oracle(params, h, ell, two_mu)
                        assert got.hex() == want.hex(), (p, a, h, ell, c)
                        cells += 1
    assert cells == 100_620
