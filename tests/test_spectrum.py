import re
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpeta import spectrum
from zpeta.exact import UNIT_ONE, CyclotomicRing, RadicalValue, cyclotomic_ring
from zpeta.manifold import EvenDimensionError, SpinStructure, ZpParams, enumerate_params, validate
from zpeta.eta import structure_classes
from zpeta.numtheory import NotPrimeError, OddPrime, as_prime, odd_primes_upto
from zpeta.spectrum import (
    NonIntegerKernelError,
    dim_ker,
    dim_ker_oracle,
    mult_diff_by_index,
    mult_diff_oracle,
)

TRICOSM = validate(3, 1, 0, 1)


def test_mult_diff_examples():
    assert mult_diff_by_index(TRICOSM, 1, 0, 1) == -2
    assert mult_diff_by_index(validate(5, 2, 0, 1), 1, 1, 1) == 5
    for c in (1, 2, 3, 4):
        assert mult_diff_by_index(validate(5, 2, 0, 1), 1, 0, c) == 0


def test_mult_diff_vanishes_at_p_dividing_mu():
    assert mult_diff_by_index(TRICOSM, 1, 1, 3) == 0


def test_mult_diff_nonexceptional_is_zero():
    params = validate(5, 1, 1, 2)
    assert not params.exceptional
    for h in (1, 2):  # mu = 4 and mu = 7/2
        for ell in range(5):
            assert mult_diff_by_index(params, h, ell, 4) == 0


def test_even_a_zero_cells_build_no_power_of_p():
    # p^{a/2} has about 350 million digits here; only the 2 nonzero cells of a period need it
    params = validate(5, 10**9, 0, 1)
    start = time.perf_counter()
    cells = [
        (h, ell, c)
        for h in (1, 2)
        for ell in range(1, 5)
        for c in range(1, 6)
        if (2 * ell - (2 * c - h + 1)) % 5 and (2 * ell + (2 * c - h + 1)) % 5
    ]
    assert len(cells) == 2 * 4 * 3
    assert all(mult_diff_by_index(params, h, ell, c) == 0 for h, ell, c in cells)
    assert time.perf_counter() - start < 0.5


def test_spectral_index_validation():
    mult_diff_by_index(TRICOSM, 1, 0, 1)
    mult_diff_by_index(TRICOSM, 2, 0, 1)
    for entry in (mult_diff_by_index, mult_diff_oracle):
        for c in (0, -1):
            with pytest.raises(ValueError, match=f"series index must be >= 1, got {c}$"):
                entry(TRICOSM, 1, 0, c)
    # mu = 3/2 (h = 2) and mu = 2 (h = 1) both have index c = 2
    assert [mult_diff_by_index(TRICOSM, 2, ell, 2) for ell in range(3)] == [0, 0, 0]
    assert [mult_diff_by_index(TRICOSM, 1, ell, 2) for ell in range(3)] == [2, -1, -1]


@pytest.mark.parametrize("params", (TRICOSM, validate(5, 1, 1, 2)), ids=("exceptional", "not"))
@pytest.mark.parametrize("entry", (mult_diff_by_index, mult_diff_oracle))
@pytest.mark.parametrize("h", (0, 3, -1))
def test_h_outside_one_two_is_refused(h, entry, params):
    with pytest.raises(ValueError, match=f"h must be 1 or 2, got {h}$"):
        entry(params, h, 1, 1)


def test_mult_diff_oracle_examples():
    assert mult_diff_oracle(TRICOSM, 1, 0, 1) == -2
    assert mult_diff_oracle(validate(5, 2, 0, 1), 1, 1, 1) == 5
    assert mult_diff_oracle(TRICOSM, 1, 1, 3) == 0


def test_mult_diff_matches_oracle():
    for p in odd_primes_upto(13):
        for a in (1, 2, 3):
            params = validate(p, a, 0, 1)
            for h in (1, 2):
                for ell in range(p):
                    for c in range(1, 2 * p + 1):
                        exact = mult_diff_by_index(params, h, ell, c)
                        assert mult_diff_oracle(params, h, ell, c) == exact, (p, a, h, ell, c)


def test_mult_diff_oracle_twist_sum_rule():
    # summed over all twists the character sum keeps only k = 0 mod p, which
    # the oracle never visits: the covering torus has a symmetric spectrum
    for p in odd_primes_upto(13):
        for a in (1, 2, 3):
            params = validate(p, a, 0, 1)
            for h in (1, 2):
                for c in range(1, 2 * p + 1):
                    total = sum(mult_diff_oracle(params, h, ell, c) for ell in range(p))
                    assert total == 0, (p, a, h, c, total)


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


def test_dim_ker_refuses_a_kernel_formula_that_p_does_not_divide(monkeypatch):
    # 2^{(a+b)q} = (2/p)^{a+b} (mod p) makes the division exact; with the wrong
    # sign of (2/p) it still holds for even a + b, and fails for odd a + b
    sweep = enumerate_params(7, 30)
    right = {q: dim_ker(q, structure_classes(q)[0], 0) for q in sweep}
    legendre = OddPrime.legendre

    def wrong_two(self, k):
        value = legendre(self, k)
        return -value if k % self.p == 2 % self.p else value

    monkeypatch.setattr(OddPrime, "legendre", wrong_two)
    odd = [q for q in sweep if (q.a + q.b) % 2]
    assert odd and len(odd) < len(sweep)
    for q in sweep:
        trivial = structure_classes(q)[0]
        if q in odd:
            with pytest.raises(NonIntegerKernelError, match=re.escape(f"not divisible by p for {q}")):
                dim_ker(q, trivial, 0)
        else:
            assert dim_ker(q, trivial, 0) == right[q]


def test_dim_ker_oracle_examples():
    assert dim_ker_oracle(TRICOSM, 1) == 1
    assert dim_ker_oracle(validate(5, 1, 1, 2), 0) == 8
    assert dim_ker_oracle(validate(7, 1, 0, 1), 0) == 2


def test_dim_ker_matches_oracle():
    for params in enumerate_params(11, 36):
        triv = structure_classes(params)[0]
        for ell in range(params.p):
            exact = dim_ker(params, triv, ell)
            assert dim_ker_oracle(params, ell) == exact, (params, ell)


def test_oracle_suite_full_range():
    # p <= 31, a <= 5, all h and ell, first 3p eigenvalue indices
    from zpeta.cli import run_suite

    report = run_suite("oracles", 31, 60)
    assert report.ok, report.failures[:5]
    assert report.cases > 100_000


@lru_cache(maxsize=None)
def _loop_character_sum(p: int, a_odd: bool, h: int, ell: int, two_mu: int) -> int:
    # 2i sum_k (-1)^{k(h+1)} (k/p)^a e^{2 pi i k ell/p} sin(2 pi mu k/p), one k at a
    # time in the ring: e^{2 pi i k ell/p} = z^{4k ell} and
    # 2i sin(pi k 2mu/p) = z^{2k 2mu} - z^{-2k 2mu}
    tab = as_prime(p).legendre_table()
    vec = {}
    for k in range(1, p):
        sign = -1 if (h == 2 and k % 2 == 1) else 1
        w = sign * (tab[k % p] if a_odd else 1)
        for e, c in ((4 * k * ell + 2 * k * two_mu, w), (4 * k * ell - 2 * k * two_mu, -w)):
            vec[e % (4 * p)] = vec.get(e % (4 * p), 0) + c
    ring = cyclotomic_ring(as_prime(p))
    return ring.pack(ring.reduce(vec))


def _loop_value(params, got: int) -> int:
    # the ring value 2i sum the oracle's integer stands for: the value is
    # (-1)^eps i^m p^{a/2-1} 2i sum, so 2i sum = (-1)^eps got i^{-m} sqrt(p)^{a odd} / p^{(a-1)//2}
    p, a = params.p, params.a
    m = (params.n - 1) // 2
    eps = ((p * p - 1) // 8) * a + 1
    coeff = Fraction((-1) ** (eps % 2) * got, p ** ((a - 1) // 2))
    closed = RadicalValue(coeff, UNIT_ONE, p if a % 2 else 1)
    return cyclotomic_ring(as_prime(p)).embed(closed, 1, -m)


def test_mult_diff_oracle_is_the_literal_loop_bit_for_bit():
    # p <= 31, a <= 5, both h, every ell, c <= 3p: 100,620 cells, each the
    # integer whose ring value is exactly the test's own loop over k
    cells = 0
    for p in odd_primes_upto(31):
        for a in range(1, 6):
            params = validate(p, a, 0, 1)
            for h in (1, 2):
                for ell in range(p):
                    for c in range(1, 3 * p + 1):
                        two_mu = 2 * c - (1 if h == 2 else 0)
                        got = mult_diff_oracle(params, h, ell, c)
                        want = _loop_character_sum(p, a % 2 == 1, h, ell, two_mu % (2 * p))
                        assert type(got) is int, (p, a, ell, c)
                        assert _loop_value(params, got) == want, (p, a, h, ell, c)
                        cells += 1
    assert cells == 100_620


def test_mult_diff_oracle_is_exact_past_the_float_range():
    # n = 187: the float oracle raised a spurious residual error on 81 of these cells
    params = validate(7, 31, 0, 1)
    assert params.n == 187
    for h in (1, 2):
        for ell in range(7):
            for c in range(1, 8):
                got = mult_diff_oracle(params, h, ell, c)
                assert type(got) is int and got == mult_diff_by_index(params, h, ell, c)


@pytest.mark.parametrize("key, ells", (((7, 31, 0, 1), range(7)), ((3, 120, 0, 1), (0,))))
def test_dim_ker_oracle_is_exact_past_the_float_range(key, ells):
    # a 1e-6 float check also accepted dim_ker + 1 and dim_ker - 1 here
    params = validate(*key)
    triv = structure_classes(params)[0]
    for ell in ells:
        d, got = dim_ker(params, triv, ell), dim_ker_oracle(params, ell)
        assert type(got) is int and got == d
        assert got != d + 1 and got != d - 1


def test_mult_diff_of_a_nonprime_manifold_is_refused():
    # the non-exceptional early return came before the prime and gave 0
    with pytest.raises(NotPrimeError, match="p must be prime, got 9"):
        mult_diff_by_index(ZpParams(9, 1, 1, 2), 1, 1, 1)


def test_mult_diff_oracle_of_a_nonprime_manifold_is_refused():
    with pytest.raises(NotPrimeError, match="p must be prime, got 9"):
        mult_diff_oracle(ZpParams(9, 1, 1, 2), 1, 1, 1)


def test_dim_ker_of_a_nonprime_manifold_is_refused():
    # a non-trivial structure has no kernel, and its early return gave 0
    with pytest.raises(NotPrimeError, match="p must be prime, got 9"):
        dim_ker(ZpParams(9, 1, 1, 2), SpinStructure((1, 1), 2), 1)


def test_the_oracle_extracts_each_ring_value_once(monkeypatch):
    # the 1,470 cells of a <= 5, c <= 3p at p = 7 ask the ring for 16 distinct
    # values; each is extracted once
    keys = []
    extract = CyclotomicRing._extract

    def counted(ring, x, i_pow, radicand):
        keys.append((ring.p, x, i_pow % 4, radicand))
        return extract(ring, x, i_pow, radicand)

    monkeypatch.setattr(CyclotomicRing, "_extract", counted)
    cyclotomic_ring.cache_clear()
    cells = 0
    for a in range(1, 6):
        params = validate(7, a, 0, 1)
        for h in (1, 2):
            for ell in range(7):
                for c in range(1, 22):
                    assert mult_diff_oracle(params, h, ell, c) == mult_diff_by_index(params, h, ell, c)
                    cells += 1
    assert len(keys) == len(set(keys)) == 16 and cells == 1470
    cyclotomic_ring.cache_clear()


def test_oracles_raise_on_a_ring_value_that_is_not_their_integer(monkeypatch):
    # 2i F that is not an integer multiple of the unit i^{-m} (sqrt p)
    monkeypatch.setattr(spectrum, "F_direct", lambda *args: 1 << 64)
    with pytest.raises(spectrum.OracleResidualError, match="is not an integer"):
        mult_diff_oracle(TRICOSM, 1, 0, 1)
    monkeypatch.setattr(spectrum, "_kernel_sums", lambda ab, p: (1, 1, 1))
    with pytest.raises(spectrum.OracleResidualError, match="is not an integer"):
        dim_ker_oracle(TRICOSM, 1)


def test_kernel_oracle_raises_on_a_sum_that_is_not_rational(monkeypatch):
    # z in place of the cosine product at p = 3: the sum is 1 - z + z^2 at
    # ell = 0, and no sum is rational; each call names its own ell
    monkeypatch.setattr(spectrum, "half_period_product", lambda kind, P: {1: 1})
    spectrum._kernel_sums.cache_clear()
    try:
        for ell in (0, 1, 2, 4):
            with pytest.raises(spectrum.OracleResidualError) as err:
                dim_ker_oracle(TRICOSM, ell)
            want = f"kernel oracle sum at p=3, a+b=1, ell={ell % 3} is not an integer"
            assert str(err.value) == want
        assert spectrum._kernel_sums.cache_info().misses == 1  # the table is built once
    finally:
        spectrum._kernel_sums.cache_clear()


def test_kernel_sums_keep_every_table_they_built():
    # bounded at 64 tables, the cache missed 230 times on the 99 keys of the p = 3 oracle sweep
    spectrum._kernel_sums.cache_clear()
    try:
        for _ in range(2):
            for ab in range(1, 71):
                spectrum._kernel_sums(ab, 3)
        assert spectrum._kernel_sums.cache_info().misses == 70
    finally:
        spectrum._kernel_sums.cache_clear()


NOT_AN_INT = st.one_of(
    st.sampled_from((1.0, 0.5, True, False, Fraction(1), "1", None)),
    st.floats(allow_nan=True),
    st.fractions(),
    st.text(max_size=3),
)

# each spectral entry point with its int arguments, after the params
SPECTRUM_ENTRY_POINTS = (
    (mult_diff_by_index, ("h", "ell", "c"), (1, 1, 1)),
    (mult_diff_oracle, ("h", "ell", "c"), (1, 1, 1)),
    (lambda params, ell: dim_ker(params, structure_classes(params)[0], ell), ("ell",), (1,)),
    (dim_ker_oracle, ("ell",), (1,)),
)
SPECTRUM_CACHES = (spectrum._kernel_sums,)


@settings(deadline=None, max_examples=60)
@given(NOT_AN_INT, st.sampled_from(((3, 1, 0, 1), (7, 2, 0, 1), (5, 1, 0, 3))))
def test_spectral_entry_points_refuse_anything_but_ints_cold_and_warm(bad, key):
    params = validate(*key)
    for cache in SPECTRUM_CACHES:
        cache.cache_clear()
    for warm in (False, True):
        if warm:
            for func, _, args in SPECTRUM_ENTRY_POINTS:
                func(params, *args)
        for func, names, args in SPECTRUM_ENTRY_POINTS:
            for i, name in enumerate(names):
                with pytest.raises(ValueError, match=f"{name} must be an int, got "):
                    func(params, *args[:i], bad, *args[i + 1 :])
        if not warm:
            assert all(cache.cache_info().currsize == 0 for cache in SPECTRUM_CACHES)


def test_dim_ker_refuses_a_half_twist():
    triv = structure_classes(TRICOSM)[0]
    with pytest.raises(ValueError, match="ell must be an int, got 0.5"):
        dim_ker(TRICOSM, triv, 0.5)
