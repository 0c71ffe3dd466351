import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpeta.manifold import (
    IntMatrix,
    NotOddError,
    NotPrimeError,
    SpinStructure,
    TorsionViolationError,
    UnsupportedIdealError,
    ZeroHolonomyBlockError,
    build_holonomy,
    cyclotomic_prime,
    enumerate_params,
    enumerate_spin_structures,
    holonomy_checks,
    homology_h1,
    poly_mul,
    poly_pow,
    validate,
)


def test_validate_examples():
    tri = validate(3, 1, 0, 1)
    assert tri.n == 3 and tri.exceptional and tri.n_odd
    with pytest.raises(ZeroHolonomyBlockError):
        validate(3, 0, 0, 1)
    with pytest.raises(TorsionViolationError):
        validate(5, 1, 1, 0)
    with pytest.raises(NotPrimeError):
        validate(4, 1, 0, 1)
    with pytest.raises(NotPrimeError):
        validate(9, 1, 0, 1)
    with pytest.raises(NotOddError):
        validate(2, 1, 0, 1)


@given(st.integers(0, 3), st.one_of(st.floats(), st.booleans()))
def test_validate_rejects_floats_and_bools(position, bad):
    args = [3, 1, 0, 1]
    args[position] = bad
    with pytest.raises(ValueError, match=f"^{'pabc'[position]} must be"):
        validate(*args)


def test_even_dimension_is_flagged_not_rejected():
    params = validate(5, 1, 1, 1)  # b + c even, n = 10
    assert params.n == 10
    assert not params.n_odd


def test_n_parity_matches_beta1_parity():
    for params in enumerate_params(13, 40, include_even_n=True):
        assert params.n % 2 == params.beta1 % 2


def test_homology_examples():
    h = homology_h1(validate(3, 1, 0, 1))
    assert (h.torsion_copies, h.free_rank) == (1, 1)
    h = homology_h1(validate(5, 1, 1, 2))
    assert (h.torsion_copies, h.free_rank) == (1, 3)
    h = homology_h1(validate(7, 2, 0, 1))
    assert (h.torsion_copies, h.free_rank) == (2, 1)


def test_spin_structure_counts():
    assert len(enumerate_spin_structures(validate(3, 1, 0, 1))) == 2
    assert len(enumerate_spin_structures(validate(5, 1, 1, 2))) == 8


def test_spin_structures_distinct_unique_trivial():
    for params in enumerate_params(7, 30, include_even_n=True):
        if params.beta1 > 7:
            continue
        structs = enumerate_spin_structures(params)
        assert len(structs) == 2**params.beta1
        assert len(set(structs)) == len(structs)
        assert sum(1 for s in structs if s.trivial_type) == 1


def test_spin_structure_order_deterministic():
    structs = enumerate_spin_structures(validate(5, 1, 0, 3))
    assert structs[0].trivial_type
    assert structs[0] == SpinStructure((1, 1), 1)
    assert structs[1] == SpinStructure((1, 1), 2)
    assert structs[-1] == SpinStructure((-1, -1), 2)
    assert structs == enumerate_spin_structures(validate(5, 1, 0, 3))


def test_spin_structure_validation():
    with pytest.raises(ValueError):
        SpinStructure((0,), 1)
    with pytest.raises(ValueError):
        SpinStructure((), 3)


def test_holonomy_blocks():
    m = build_holonomy(validate(3, 1, 0, 1))
    assert m.rows == ((0, -1, 0), (1, -1, 0), (0, 0, 1))
    j3 = build_holonomy(validate(3, 0, 1, 1)).submatrix((0, 1, 2))
    assert j3.rows == ((0, 0, 1), (1, 0, 0), (0, 1, 0))


def test_holonomy_rejects_nonprincipal_ideal():
    params = validate(5, 1, 0, 1, ideal_label="a2")
    with pytest.raises(UnsupportedIdealError):
        build_holonomy(params)


def test_holonomy_checks_tricosm():
    params = validate(3, 1, 0, 1)
    m = build_holonomy(params)
    report = holonomy_checks(m, params)
    assert report.all_ok
    # char poly (x^2 + x + 1)(x - 1) = x^3 - 1
    assert m.charpoly() == (-1, 0, 0, 1)


def test_holonomy_fixed_space_dimension():
    params = validate(5, 0, 1, 1)
    report = holonomy_checks(build_holonomy(params), params)
    assert report.fixed_space_dim == 2
    assert report.all_ok


def test_holonomy_checks_detect_wrong_matrix():
    params = validate(3, 1, 0, 1)
    bad = IntMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 2)))
    report = holonomy_checks(bad, params)
    assert not report.all_ok
    assert "det_one" in report.failures
    assert "order_exact" in report.failures


def test_holonomy_sweep_small():
    for params in enumerate_params(7, 24):
        report = holonomy_checks(build_holonomy(params), params)
        assert report.all_ok, (params, report.failures)


def test_holonomy_checks_large_prime_blocks():
    # biggest blocks that fit in the supported range n <= 60
    for key in ((37, 1, 0, 1), (59, 1, 0, 1), (59, 0, 1, 1)):
        params = validate(*key)
        assert params.n <= 60
        report = holonomy_checks(build_holonomy(params), params)
        assert report.all_ok, (key, report.failures)


def test_intmatrix_det_rank_charpoly():
    m = IntMatrix(((2, 1), (1, 1)))
    assert m.det() == 1
    assert m.rank() == 2
    # det(xI - m) = x^2 - 3x + 1
    assert m.charpoly() == (1, -3, 1)
    singular = IntMatrix(((1, 2), (2, 4)))
    assert singular.det() == 0
    assert singular.rank() == 1


def _leibniz_det(rows) -> int:
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


_SQUARE_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=300, deadline=None)
@given(_SQUARE_MATRICES)
def test_intmatrix_elimination_matches_leibniz(rows):
    # zero leading entries force row swaps and pivot-less columns
    m = IntMatrix(rows)
    assert m.det() == _leibniz_det(rows)
    assert (m.rank() == m.n) == (m.det() != 0)
    assert m.rank() == IntMatrix(zip(*rows)).rank()


def test_intmatrix_power_and_order():
    j = build_holonomy(validate(3, 0, 1, 1)).submatrix((0, 1, 2))
    assert j.power(3) == IntMatrix.identity(3)
    assert j.power(2) != IntMatrix.identity(3)


def test_poly_helpers():
    assert cyclotomic_prime(3) == (1, 1, 1)
    assert poly_mul((1, 1, 1), (-1, 1)) == (-1, 0, 0, 1)
    assert poly_pow((-1, 1), 2) == (1, -2, 1)


def test_enumerate_params_ordering_and_validity():
    sweep = enumerate_params(5, 20)
    assert sweep == sorted(sweep, key=lambda q: q.key())
    assert len(set(sweep)) == len(sweep)
    for params in sweep:
        assert params.a + params.b > 0
        assert params.c >= 1
        assert params.p <= 5 and params.n <= 20
        assert params.beta1 % 2 == 1
    # even dimensions appear only on request
    assert any(q.beta1 % 2 == 0 for q in enumerate_params(5, 20, include_even_n=True))
