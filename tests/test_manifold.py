import hashlib
import itertools
import json
import math
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zpeta import manifold
from zpeta.manifold import (
    IntMatrix,
    NotOddError,
    NotPrimeError,
    SpinStructure,
    TorsionViolationError,
    UnsupportedIdealError,
    ZeroHolonomyBlockError,
    ZpParams,
    build_holonomy,
    enumerate_params,
    enumerate_spin_structures,
    holonomy_checks,
    homology_h1,
    validate,
)
from zpeta.numtheory import as_prime, odd_primes_upto


def _params_with_even_n(p_max, n_max):
    """Every valid (p, a, b, c) with p <= p_max and n <= n_max, both parities
    of n, in key order; enumerate_params keeps only odd n."""
    return [
        validate(p, a, b, c)
        for p in odd_primes_upto(p_max)
        for a in range(n_max // (p - 1) + 1)
        for b in range(n_max // p + 1)
        for c in range(1, n_max + 1)
        if a + b and a * (p - 1) + b * p + c <= n_max
    ]



class _Claimed(ZpParams):
    """Block counts (p, a, b, c) read off a planted matrix, with the n, beta1
    and str that holonomy_checks reads.  A ZpParams that skips the family's
    refusals: it may have a + b = 0 or c = 0, as a matrix of 1 blocks or of
    C_p blocks does."""

    def __init__(self, p: int, a: int, b: int, c: int) -> None:
        self.__dict__.update(  # the record is frozen
            p=p, a=a, b=b, c=c, ideal_label="principal", n=a * (p - 1) + b * p + c, beta1=b + c
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
    for params in _params_with_even_n(13, 40):
        assert params.n % 2 == params.beta1 % 2


def test_derived_params_are_the_formulas_and_stay_out_of_eq_hash_repr():
    # n, beta1, exceptional and n_odd are stored once per instance
    for params in _params_with_even_n(13, 60):
        p, a, b, c = params.key()
        assert params.key() == (params.p, params.a, params.b, params.c)
        assert params.n == a * (p - 1) + b * p + c
        assert params.beta1 == b + c
        assert params.exceptional == ((b, c) == (0, 1))
        assert params.n_odd == (params.n % 2 == 1)
        twin = ZpParams(p, a, b, c)
        assert twin == params and hash(twin) == hash(params) == hash((p, a, b, c, "principal"))
        assert repr(params) == f"ZpParams(p={p}, a={a}, b={b}, c={c}, ideal_label='principal')"
        assert str(params) == f"({p},{a},{b},{c})"
        back = pickle.loads(pickle.dumps(params))
        assert back == params and hash(back) == hash(params)
        assert (back.n, back.beta1, back.exceptional, back.n_odd) == (
            params.n, params.beta1, params.exceptional, params.n_odd
        )
    # the five fields come first and in order; ==, hash and repr read them alone
    params = validate(3, 1, 0, 1)
    assert list(vars(params)) == [
        "p", "a", "b", "c", "ideal_label", "prime", "n", "beta1", "exceptional", "n_odd"
    ]
    twin = validate(3, 1, 0, 1)
    twin.__dict__.update(prime=None, n=4, beta1=0, exceptional=False, n_odd=False)
    assert twin == params and hash(twin) == hash(params) and repr(twin) == repr(params)
    for name in ("p", "a", "b", "c", "ideal_label"):
        other = validate(3, 1, 0, 1)
        other.__dict__[name] = 5
        assert other != params
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        params.n = 4
    with pytest.raises(AttributeError, match="cannot delete field 'p'"):
        del params.p
    assert (params.n, params.p) == (3, 3)


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((9, 1, 1, 2), NotPrimeError, "p must be prime, got 9"),
        ((2, 1, 0, 1), NotOddError, "p must be odd"),
        ((7.0, 1, 0, 1), ValueError, "p must be an int, got 7.0"),
        ((True, 1, 0, 1), ValueError, "p must be an int, got True"),
        ((5, 1, 0, 1, "a2"), UnsupportedIdealError, "no matrix model for ideal class 'a2'"),
        ((7, 2, 0, 1), None, None),
        ((13, 0, 3, 2), None, None),
    ],
)
def test_params_record_resolves_its_prime_and_label(args, error, message):
    # the record refuses what every consumer used to refuse on its own
    if error is not None:
        with pytest.raises(error, match=f"^{message}$") as info:
            ZpParams(*args)
        assert type(info.value) is error
        return
    params = ZpParams(*args)
    assert params.prime is as_prime(params.p)
    back = pickle.loads(pickle.dumps(params))
    assert back.prime.p == params.p and back.prime is params.prime  # resolved, not copied
    assert back == params and hash(back) == hash(params) and repr(back) == repr(params)



@pytest.mark.parametrize(
    "args, error, message",
    [
        ((3, -1, 0, 1), ValueError, "a must be a non-negative integer, got -1"),
        ((3, 1, -2, 1), ValueError, "b must be a non-negative integer, got -2"),
        ((3, 1, 0, -1), ValueError, "c must be a non-negative integer, got -1"),
        ((3, 1.0, 0, 1), ValueError, "a must be a non-negative integer, got 1.0"),
        ((3, 1, 0.0, 1), ValueError, "b must be a non-negative integer, got 0.0"),
        ((3, 1, 0, 1.5), ValueError, "c must be a non-negative integer, got 1.5"),
        ((3, True, 0, 1), ValueError, "a must be a non-negative integer, got True"),
        ((3, 1, False, 1), ValueError, "b must be a non-negative integer, got False"),
        ((3, 1, 0, True), ValueError, "c must be a non-negative integer, got True"),
        ((3, 0, 0, 1), ZeroHolonomyBlockError, "a + b must be positive"),
        ((3, 1, 0, 0), TorsionViolationError, "c must be >= 1"),
        ((3, 0, 0, 0), ZeroHolonomyBlockError, "a + b must be positive"),
        # a bad a, b or c is reported before a bad p or label
        ((9, -1, 0, 1), ValueError, "a must be a non-negative integer, got -1"),
        ((2, 0, 0, 1), ZeroHolonomyBlockError, "a + b must be positive"),
        ((7.0, 1, 0, 0), TorsionViolationError, "c must be >= 1"),
        ((5, 0, 0, 1, "a2"), ZeroHolonomyBlockError, "a + b must be positive"),
    ],
)
def test_params_record_refuses_what_validate_refuses(args, error, message):
    # one constructor: the record is what decides, and validate only builds it
    for build in (ZpParams, validate):
        with pytest.raises(error) as info:
            build(*args)
        assert type(info.value) is error and str(info.value) == message


SMALL_OR_NOT_AN_INT = st.one_of(
    st.integers(-2, 3), st.booleans(), st.floats(-2, 3), st.sampled_from(("1", None))
)


@given(st.sampled_from((3, 5, 2, 9, 3.0, True)), *[SMALL_OR_NOT_AN_INT] * 3)
def test_params_record_and_validate_agree_on_every_input(p, a, b, c):
    outcomes = []
    for build in (ZpParams, validate):
        try:
            outcomes.append(build(p, a, b, c))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]

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
    for params in _params_with_even_n(7, 30):
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


@pytest.mark.parametrize(
    "deltas, h, message",
    [
        ((1, "1", 0), 1.0, "delta must be an int, got '1'"),
        ((1, 0), True, "h must be an int, got True"),
        ((1, 0, -1), 1, r"deltas must be \+-1, got \(1, 0, -1\)"),
        ((2,), 3, r"deltas must be \+-1, got \(2,\)"),
    ],
)
def test_spin_structure_errors_keep_their_order(deltas, h, message):
    # every type first, in order, then the signs, then the range of h
    with pytest.raises(ValueError, match=f"^{message}$"):
        SpinStructure(deltas, h)


def test_trivial_type_is_all_plus_with_h_1():
    for deltas in itertools.product((1, -1), repeat=4):
        for h in (1, 2):
            want = h == 1 and all(d == 1 for d in deltas)
            assert SpinStructure(deltas, h).trivial_type is want


def test_prime_sweep_is_one_prime_of_enumerate_params():
    every = enumerate_params(13, 40)
    assert every == sorted(every, key=ZpParams.key)
    for p in odd_primes_upto(13):
        want = [q for q in every if q.p == p]
        assert manifold.prime_sweep(p, 40) == want


@pytest.mark.parametrize("n_max", (0, 1, 13, 40, 60))
@pytest.mark.parametrize("p_max", (0, 2, 3, 7, 13, 31))
def test_sweep_keys_are_the_keys_of_enumerate_params(p_max, n_max):
    # one enumeration rule: the keys the --jobs pool sends, then the records
    keys = manifold.sweep_keys(p_max, n_max)
    assert keys == [q.key() for q in enumerate_params(p_max, n_max)]
    assert all(type(x) is int for key in keys for x in key)
    for p in odd_primes_upto(p_max):
        want = [q.key() for q in manifold.prime_sweep(p, n_max)]
        assert [key for key in keys if key[0] == p] == want


@pytest.mark.parametrize("bounds", ((13, None), (13.0, 40), (13, True), ("13", 40), (None, None)))
def test_sweep_keys_refuse_the_bounds_enumerate_params_refuses(bounds):
    with pytest.raises(ValueError) as records:
        enumerate_params(*bounds)
    with pytest.raises(ValueError) as keys:
        manifold.sweep_keys(*bounds)
    assert (type(keys.value), str(keys.value)) == (type(records.value), str(records.value))


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((9, 40), NotPrimeError, "p must be prime, got 9"),
        ((2, 40), NotOddError, "p must be odd"),
        ((7.0, 40), ValueError, "p must be an int, got 7.0"),
        ((7, None), ValueError, "n_max must be an int, got None"),
    ],
)
def test_prime_sweep_checks_its_arguments(args, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        manifold.prime_sweep(*args)


@pytest.mark.parametrize("deltas", ([1, 1], [], "++", range(2)), ids=repr)
def test_spin_structure_refuses_deltas_that_are_not_a_tuple(deltas):
    # a list constructed, and hash() of the frozen record then raised TypeError
    with pytest.raises(ValueError, match="deltas must be a tuple, got"):
        SpinStructure(deltas, 1)
    assert hash(SpinStructure((1, 1), 1)) == hash(SpinStructure((1, 1), 1))


def test_holonomy_blocks():
    m = build_holonomy(validate(3, 1, 0, 1))
    assert m.rows == ((0, -1, 0), (1, -1, 0), (0, 0, 1))
    j3 = build_holonomy(validate(3, 0, 1, 1)).rows[:3]
    assert [r[:3] for r in j3] == [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
    # every block in its place: diag(C_p x a, J_p x b, 1 x c)
    for p, a, b, c in ((3, 2, 1, 2), (5, 1, 2, 1), (7, 3, 0, 1), (5, 0, 1, 4)):
        kinds = "C" * a + "J" * b + "1" * c
        want = _block_diagonal_rows([_block_rows(k, p) for k in kinds])[0]
        assert [list(r) for r in build_holonomy(validate(p, a, b, c)).rows] == want


def test_holonomy_rejects_nonprincipal_ideal():
    with pytest.raises(UnsupportedIdealError):
        params = validate(5, 1, 0, 1, ideal_label="a2")
        build_holonomy(params)


def test_build_holonomy_rejects_a_directly_built_nonprincipal_label():
    with pytest.raises(UnsupportedIdealError, match="no matrix model for ideal class 'a2'"):
        build_holonomy(ZpParams(5, 1, 0, 1, ideal_label="a2"))


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


def test_holonomy_checks_of_the_empty_matrix():
    # no block at all: empty products and sums, and no block of order p
    report = holonomy_checks(IntMatrix([]), _Claimed(3, 0, 0, 0))
    assert (report.fixed_space_dim, report.failures) == (0, ("order_exact",))


def test_holonomy_checks_reject_size_mismatch():
    params = validate(5, 1, 0, 1)
    with pytest.raises(ValueError, match="n = 5"):
        holonomy_checks(IntMatrix.identity(3), params)


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


def test_holonomy_checks_past_n_60():
    # the exact path has no oracle bound; n = 483
    params = validate(97, 3, 2, 1)
    report = holonomy_checks(build_holonomy(params), params)
    assert report.all_ok, report.failures
    assert report.fixed_space_dim == 3


# SHA-256 of json.dumps of the reports, recorded with the det/rank
# eliminations and the product charpoly test
CHECKS_13_40_SHA256 = "c49a1c31ccf8d0ee52412abd15f31445121453527a0a0635220d8549fed0d9c0"


def test_holonomy_checks_sweep_is_byte_identical():
    reports = [holonomy_checks(build_holonomy(q), q).to_dict() for q in enumerate_params(13, 40)]
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == CHECKS_13_40_SHA256


def test_intmatrix_det_rank_charpoly():
    m = IntMatrix(((2, 1), (1, 1)))
    assert m.rank() == 2
    # det(xI - m) = x^2 - 3x + 1
    assert m.charpoly() == (1, -3, 1)
    singular = IntMatrix(((1, 2), (2, 4)))
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


def _rank_by_minors(rows) -> int:
    n = len(rows)
    for k in range(n, 0, -1):
        for sub_rows in itertools.combinations(range(n), k):
            for sub_cols in itertools.combinations(range(n), k):
                if _leibniz_det([[rows[i][j] for j in sub_cols] for i in sub_rows]):
                    return k
    return 0


@st.composite
def _non_unit_pivot_matrices(draw):
    # the first two diagonal entries are not units, so the Bareiss updates
    # divide exactly by a prev other than +-1; the last row is zero in those
    # two columns, so its first updates have f = 0 and still divide by prev
    n = draw(st.integers(3, 5))
    rows = draw(_kernel_matrices(n))
    rows[0][0] = draw(st.sampled_from((2, -2, 3)))
    rows[1][1] = draw(st.sampled_from((2, 3, -3)))
    rows[-1][0] = rows[-1][1] = 0
    if draw(st.booleans()):  # rank-deficient: one row a combination of two others
        i, j, k = draw(st.permutations(range(n)))[:3]
        s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[k] = [s * x + t * y for x, y in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=300, deadline=None)
@given(st.one_of(_SQUARE_MATRICES, _non_unit_pivot_matrices()))
def test_intmatrix_elimination_matches_leibniz(rows):
    # zero leading entries force row swaps and pivot-less columns
    m = IntMatrix(rows)
    assert m.rank() == _rank_by_minors(rows)
    assert (m.rank() == m.n) == (_leibniz_det(rows) != 0)
    assert m.rank() == IntMatrix(zip(*rows)).rank()


@settings(max_examples=300, deadline=None)
@given(_SQUARE_MATRICES, st.sampled_from((3, 5, 7)))
def test_component_analysis_det_matches_leibniz(rows, p):
    # det is read off the charpoly's constant term, not eliminated
    assert manifold._component_analysis(IntMatrix(rows), p)[1] == _leibniz_det(rows)


def test_intmatrix_power_and_order():
    j = IntMatrix(_block_rows("J", 3))
    assert j.power(3) == IntMatrix.identity(3)
    assert j.power(2) != IntMatrix.identity(3)


def test_intmatrix_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        IntMatrix.identity(2).power(-1)


@pytest.mark.parametrize(
    "rows",
    [
        ((1.7, 0), (0, 1)),
        ((1.0, 0), (0, 1)),
        ((True, 0), (0, 1)),
        ((1, False), (0, 1)),
        (("1", 0), (0, 1)),
        ("ab", "cd"),
    ],
)
def test_intmatrix_rejects_non_int_entries(rows):
    with pytest.raises(ValueError):
        IntMatrix(rows)


@pytest.mark.parametrize("rows", [[[1, 2]], [[1, 0], [0]], [[1], [0]]], ids=repr)
def test_intmatrix_refuses_a_matrix_that_is_not_square(rows):
    with pytest.raises(ValueError, match="matrix must be square"):
        IntMatrix(rows)


@pytest.mark.parametrize("k", [True, False, 2.0, "2"], ids=repr)
def test_intmatrix_power_refuses_an_exponent_that_is_not_an_int(k):
    # power(True) returned M and power(2.0) raised TypeError from k & 1
    with pytest.raises(ValueError, match=f"k must be an int, got {k!r}"):
        IntMatrix.identity(2).power(k)


@pytest.mark.parametrize(
    "other", [IntMatrix([[2]]), IntMatrix.identity(3), ((1, 0), (0, 1)), 2], ids=repr
)
def test_intmatrix_product_refuses_an_operand_of_another_size_or_type(other):
    # identity(2) @ IntMatrix([[2]]) returned the non-square ((2,), (0, 0))
    with pytest.raises(ValueError, match="a 2 x 2 matrix needs a 2 x 2 IntMatrix"):
        IntMatrix.identity(2) @ other


@pytest.mark.parametrize("s", [0.5, 1.0, True, "1", None], ids=repr)
def test_add_scalar_identity_refuses_a_scalar_that_is_not_an_int(s):
    # add_scalar_identity(0.5) stored floats, which the certificate writer trusts to be ints
    with pytest.raises(ValueError, match=f"s must be an int, got {s!r}"):
        IntMatrix.identity(2).add_scalar_identity(s)


@pytest.mark.parametrize(
    "n, message",
    [
        (-1, "identity needs n >= 0, got -1"),
        (2.0, "n must be an int, got 2.0"),
        (True, "n must be an int, got True"),
    ],
    ids=repr,
)
def test_identity_refuses_a_size_that_is_not_a_non_negative_int(n, message):
    # identity(-1) was the empty matrix and identity(2.0) raised TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IntMatrix.identity(n)


@pytest.mark.parametrize("m", [((0, -1, 0), (1, -1, 0), (0, 0, 1)), None], ids=repr)
def test_holonomy_checks_refuse_a_matrix_that_is_not_an_intmatrix(m):
    with pytest.raises(ValueError, match="m must be an IntMatrix, got"):
        holonomy_checks(m, validate(3, 1, 0, 1))


@pytest.mark.parametrize("params", [(3, 1, 0, 1), "(3,1,0,1)", None], ids=repr)
def test_holonomy_checks_refuse_params_that_are_not_a_zpparams(params):
    with pytest.raises(ValueError, match="params must be a ZpParams, got"):
        holonomy_checks(build_holonomy(validate(3, 1, 0, 1)), params)


@pytest.mark.parametrize("key", [(3, 1, 0, 1), (5, 2, 1, 2), (7, 1, 2, 3), (13, 2, 1, 4)], ids=str)
def test_a_block_of_build_holonomy_is_the_block_built_dense(key):
    # the component cache is keyed by the block: a slice of the stored rows
    # must equal, and hash like, the same block validated from its dense rows
    m = build_holonomy(validate(*key))
    dense = m.rows
    for start, stop in manifold._diagonal_blocks(m.entries):
        sliced = IntMatrix._from_entries(m.entries[start:stop])
        built = IntMatrix([r[start:stop] for r in dense[start:stop]])
        assert sliced == built and hash(sliced) == hash(built)
        assert sliced.rows == built.rows


@pytest.mark.parametrize("n", [1, 2, 5])
def test_the_zero_matrix_splits_into_one_block_per_index(n):
    zero = IntMatrix([[0] * n for _ in range(n)])
    assert zero.entries == ((),) * n
    assert manifold._diagonal_blocks(zero.entries) == [(k, k + 1) for k in range(n)]


def _triple_loop_product(x, y):
    n = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _assert_canonical(m: IntMatrix):
    # a kernel result must be indistinguishable from a validated matrix
    rebuilt = IntMatrix([list(r) for r in m.rows])
    assert m == rebuilt and hash(m) == hash(rebuilt)
    assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)


def _kernel_matrices(n):
    # sparse (mostly zero, zero rows likely) and dense entries in [-3, 3]
    sparse = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3))
    dense = st.integers(-3, 3)
    entries = st.one_of(sparse, dense)
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


_KERNEL_PAIRS = st.integers(1, 5).flatmap(lambda n: st.tuples(_kernel_matrices(n), _kernel_matrices(n)))


@settings(max_examples=200, deadline=None)
@given(_KERNEL_PAIRS)
def test_intmatrix_product_matches_triple_loop(pair):
    x, y = pair
    prod = IntMatrix(x) @ IntMatrix(y)
    assert [list(r) for r in prod.rows] == _triple_loop_product(x, y)
    _assert_canonical(prod)
    shifted = IntMatrix(x).add_scalar_identity(-2)
    assert [list(r) for r in shifted.rows] == [
        [v - 2 if i == j else v for j, v in enumerate(r)] for i, r in enumerate(x)
    ]
    _assert_canonical(shifted)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(_kernel_matrices))
def test_intmatrix_rows_view_is_the_dense_input(rows):
    # the nonzeros are stored against the diagonal; rows rebuilds every entry
    m = IntMatrix(rows)
    assert m.rows == tuple(map(tuple, rows))
    assert all(type(x) is int for r in m.rows for x in r)


@st.composite
def _hessenberg_matrices(draw):
    # zero below the subdiagonal; zero subdiagonal entries split the recurrence
    n = draw(st.integers(1, 5))
    rows = draw(_kernel_matrices(n))
    return [[v if i <= j + 1 else 0 for j, v in enumerate(r)] for i, r in enumerate(rows)]


@st.composite
def _matrices_needing_a_fraction_reduction(draw):
    # column 0 is zero on the subdiagonal, so the reduction swaps a lower row up,
    # and that pivot is not a unit, so clearing the row below it divides
    n = draw(st.integers(4, 5))
    rows = draw(_kernel_matrices(n))
    rows[1][0] = 0
    rows[2][0] = draw(st.sampled_from((2, -2, 3, -3)))
    rows[3][0] = draw(st.sampled_from((1, -1, 2, 3, -3)))
    return rows


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(1, 5).flatmap(_kernel_matrices),
        _hessenberg_matrices(),
        _matrices_needing_a_fraction_reduction(),
    )
)
def test_intmatrix_charpoly_matches_leibniz(rows):
    coeffs = IntMatrix(rows).charpoly()
    assert len(coeffs) == len(rows) + 1 and coeffs[-1] == 1
    assert all(type(v) is int for v in coeffs)
    for x in range(len(rows) + 1):
        shifted = [[(x if i == j else 0) - v for j, v in enumerate(r)] for i, r in enumerate(rows)]
        assert sum(c * x**k for k, c in enumerate(coeffs)) == _leibniz_det(shifted)


@pytest.mark.parametrize("p", odd_primes_upto(97))
def test_holonomy_block_charpolys_and_ranks(p):
    c_p, j_p = IntMatrix(_block_rows("C", p)), IntMatrix(_block_rows("J", p))
    assert c_p.charpoly() == (1,) * p  # Phi_p
    assert j_p.charpoly() == (-1,) + (0,) * (p - 1) + (1,)  # x^p - 1
    assert c_p.add_scalar_identity(-1).rank() == p - 1
    assert j_p.add_scalar_identity(-1).rank() == p - 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(_kernel_matrices), st.integers(0, 5))
def test_intmatrix_power_matches_repeated_product(rows, k):
    expected = [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]
    for _ in range(k):
        expected = _triple_loop_product(expected, rows)
    got = IntMatrix(rows).power(k)
    assert [list(r) for r in got.rows] == expected
    _assert_canonical(got)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _poly_pow(a, k):
    out = (1,)
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def test_poly_helpers():
    assert _poly_mul((1, 1, 1), (-1, 1)) == (-1, 0, 0, 1)
    assert _poly_pow((-1, 1), 2) == (1, -2, 1)
    assert _poly_pow((1, 1), 0) == (1,)


def _block_rows(kind: str, p: int):
    """C_p (companion of Phi_p), J_p (cyclic shift) or the 1 x 1 block 1."""
    if kind == "C":
        return [[int(j == i - 1) - int(j == p - 2) for j in range(p - 1)] for i in range(p - 1)]
    if kind == "J":
        return [[int(j == (i - 1) % p) for j in range(p)] for i in range(p)]
    return [[1]]


def _block_diagonal_rows(blocks):
    """The block-diagonal matrix of the given blocks, and each block's first index."""
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    starts = []
    off = 0
    for blk in blocks:
        starts.append(off)
        for i, r in enumerate(blk):
            rows[off + i][off : off + len(r)] = r
        off += len(blk)
    return rows, starts


@st.composite
def _block_diagonal(draw):
    """(matrix rows, p, the a, b, c to test against, the true a, b, c).

    Blocks C_p, J_p and 1 in any order; some are linked to the next block
    by an entry above the diagonal (one merged component, same charpoly
    product), and one diagonal entry may be perturbed (a different
    charpoly, often with a factor other than Phi_p and x - 1).
    """
    p = draw(st.sampled_from((3, 5, 7)))
    kinds = draw(st.lists(st.sampled_from("CJ1"), min_size=1, max_size=5))
    blocks = [_block_rows(k, p) for k in kinds]
    rows, starts = _block_diagonal_rows(blocks)
    n = len(rows)
    for k in range(len(blocks) - 1):
        if draw(st.integers(0, 3)) == 0:
            rows[starts[k]][starts[k + 1]] = draw(st.sampled_from((1, -2)))
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, n - 1))
        rows[i][i] += draw(st.sampled_from((1, -1)))
    true_abc = (kinds.count("C"), kinds.count("J"), kinds.count("1"))
    claimed = tuple(max(0, v + draw(st.sampled_from((0, 0, 0, 1, -1)))) for v in true_abc)
    return rows, p, claimed, true_abc


def _full_product_test(charpolys, p, a, b, c):
    product = (1,)
    for cp in charpolys:
        product = _poly_mul(product, cp)
    x_p = (-1,) + (0,) * (p - 1) + (1,)
    expected = _poly_mul(
        _poly_pow((1,) * p, a), _poly_mul(_poly_pow(x_p, b), _poly_pow((-1, 1), c))
    )
    return product == expected


def _exponents_by_search(cp, p):
    """The (e, f) with Phi_p^e (x - 1)^f == cp, by trying every split of the degree."""
    deg = len(cp) - 1
    for e in range(deg // (p - 1) + 1):
        f = deg - e * (p - 1)
        if _poly_mul(_poly_pow((1,) * p, e), _poly_pow((-1, 1), f)) == cp:
            return e, f
    return None


@settings(max_examples=300, deadline=None)
@given(_block_diagonal())
def test_charpoly_factor_count_matches_the_full_product(case):
    rows, p, (a, b, c), _ = case
    subs = [
        IntMatrix(r[start:stop] for r in rows[start:stop])
        for start, stop in manifold._diagonal_blocks(IntMatrix(rows).entries)
    ]
    charpolys = [sub.charpoly() for sub in subs]
    exponents = [manifold._component_analysis(sub, p)[3] for sub in subs]
    assert exponents == [_exponents_by_search(cp, p) for cp in charpolys]
    # unique factorisation: the exponent sums decide the full product test
    by_count = None not in exponents and (
        sum(e for e, _ in exponents) == a + b and sum(f for _, f in exponents) == b + c
    )
    assert by_count == _full_product_test(charpolys, p, a, b, c)


@settings(max_examples=100, deadline=None)
@given(_block_diagonal())
def test_holonomy_charpoly_ok_matches_the_full_product(case):
    rows, p, _, (a, b, c) = case
    m = IntMatrix(rows)
    params = _Claimed(p, a, b, c)
    report = holonomy_checks(m, params)
    assert report.charpoly_ok == _full_product_test([m.charpoly()], p, a, b, c)
    assert ("charpoly" in report.failures) == (not report.charpoly_ok)


@settings(max_examples=100, deadline=None)
@given(_block_diagonal())
def test_holonomy_checks_of_repeated_blocks_match_the_whole_matrix(case):
    # each distinct block is analysed once and weighted by its count
    rows, p, _, (a, b, c) = case
    m = IntMatrix(rows)
    report = holonomy_checks(m, _Claimed(p, a, b, c))
    assert report.fixed_space_dim == m.n - m.add_scalar_identity(-1).rank()
    assert report.det_one == ((-1) ** m.n * m.charpoly()[0] == 1)
    identity = IntMatrix.identity(m.n)
    assert report.power_identity == (m.power(p) == identity)
    assert report.order_exact == (report.power_identity and m != identity)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(_kernel_matrices))
def test_diagonal_blocks_match_their_definition(rows):
    # the sparse strategy often leaves a nonzero in one direction only
    n = len(rows)
    blocks = manifold._diagonal_blocks(IntMatrix(rows).entries)
    # the blocks tile 0..n in order
    assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
    assert blocks[-1][1] == n and all(start < stop for start, stop in blocks)
    # a cut falls after k exactly when no nonzero (i, j) spans k
    spanned = {
        k for i in range(n) for j in range(n) if rows[i][j] for k in range(min(i, j), max(i, j))
    }
    assert [stop - 1 for _, stop in blocks] == [k for k in range(n) if k not in spanned]
    # so every nonzero lies in a diagonal block
    block_of = [b for b, (start, stop) in enumerate(blocks) for _ in range(start, stop)]
    assert all(block_of[i] == block_of[j] for i in range(n) for j in range(n) if rows[i][j])


def _blocks_from_every_nonzero(rows):
    """The finest contiguous block split, with every nonzero (i, j) marking
    the span min(i, j) <= k < max(i, j) as uncut."""
    n = len(rows)
    reach = list(range(n))
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                lo, hi = min(i, j), max(i, j)
                reach[lo] = max(reach[lo], hi)
    stops = [k + 1 for k, end in enumerate(itertools.accumulate(reach, max)) if end == k]
    return list(zip([0] + stops[:-1], stops))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(_kernel_matrices))
@example([[0, 0, 0], [0, 0, 0], [0, 0, 0]])  # zero rows only: every k is a cut
@example([[0, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [1, 0, 3, 0]])  # left of the diagonal only
@example([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [5, 0, 0, 1]])  # the (n - 1, 0) corner
@example([[0, 0, 0, 0], [0, 1, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])  # zero rows around one span
def test_diagonal_blocks_read_first_and_last_nonzero_like_every_nonzero(rows):
    # each row's inner nonzeros span parts of its first's and last's spans
    assert manifold._diagonal_blocks(IntMatrix(rows).entries) == _blocks_from_every_nonzero(rows)


@settings(max_examples=100, deadline=None)
@given(_block_diagonal(), st.randoms(use_true_random=False))
def test_holonomy_checks_invariant_under_conjugation_by_a_permutation(case, rnd):
    # P M P^T interleaves the blocks, so a contiguous block may hold several
    rows, p, _, (a, b, c) = case
    sigma = list(range(len(rows)))
    rnd.shuffle(sigma)
    permuted = [[rows[i][j] for j in sigma] for i in sigma]
    params = _Claimed(p, a, b, c)
    report = holonomy_checks(IntMatrix(rows), params)
    assert holonomy_checks(IntMatrix(permuted), params).to_dict() == report.to_dict()


def _literal_order(rows, p):
    m, ident = IntMatrix(rows), IntMatrix.identity(len(rows))
    return 1 if m == ident else p if m.power(p) == ident else 0


@settings(max_examples=300, deadline=None)
@given(_block_diagonal(), st.randoms(use_true_random=False))
def test_component_order_matches_the_literal_power(case, rnd):
    # the permuted matrix interleaves blocks, so its components can hold
    # Phi_p^e with e >= 2 and reach the literal M^p = I fallback
    rows, p, _, _ = case
    sigma = list(range(len(rows)))
    rnd.shuffle(sigma)
    permuted = [[rows[i][j] for j in sigma] for i in sigma]
    for m in (rows, permuted):
        for start, stop in manifold._diagonal_blocks(IntMatrix(m).entries):
            block = [r[start:stop] for r in m[start:stop]]
            got = manifold._component_analysis(IntMatrix(block), p)[0]
            assert got == _literal_order(block, p), block


def _shear_conjugate_of_two_c3():
    """S (C_3 + C_3) S^-1 for the shear S = I + E_02: charpoly Phi_3^2, order 3."""
    c = _block_rows("C", 3)
    m = IntMatrix(_block_diagonal_rows([c, c])[0])
    shear = [[int(i == j) + int((i, j) == (0, 2)) for j in range(4)] for i in range(4)]
    unshear = [[int(i == j) - int((i, j) == (0, 2)) for j in range(4)] for i in range(4)]
    return [list(r) for r in (IntMatrix(shear) @ m @ IntMatrix(unshear)).rows]


@pytest.mark.parametrize(
    "rows, order",
    [
        (_shear_conjugate_of_two_c3(), 3),  # e = 2, semisimple: the M^p fallback
        ([[0, -1, 1, 0], [1, -1, 0, 1], [0, 0, 0, -1], [0, 0, 1, -1]], 0),  # [[C_3, I], [0, C_3]]
        ([[1, 1], [0, 1]], 0),  # a Jordan block at 1: ker 1 < f = 2
        ([[1, 0], [0, 1]], 1),
    ],
)
def test_component_order_examples(rows, order):
    assert _literal_order(rows, 3) == order
    assert manifold._component_analysis(IntMatrix(rows), 3)[0] == order


@pytest.mark.parametrize(
    "rows, ker",
    [
        ([[1, 1], [0, 1]], 1),  # f = 2, one Jordan block at 1
        ([[1, 0], [0, 1]], 2),  # f = 2, semisimple
        ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 2),  # f = 3
        ([[0, -1], [1, -1]], 0),  # C_3: f = 0
        ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 1),  # J_3: f = 1
    ],
)
def test_component_fixed_space_examples(rows, ker):
    # ker is the exponent f of x - 1 when f <= 1, else n - rank(M - I)
    m = IntMatrix(rows)
    assert manifold._component_analysis(m, 3)[2] == ker
    assert m.n - m.add_scalar_identity(-1).rank() == ker


def test_holonomy_checks_never_raise_a_block_to_the_pth_power(monkeypatch):
    # every block of build_holonomy has e <= 1, so its order follows from the charpoly
    def refuse(self, k):
        raise AssertionError(f"power({k}) called on a {self.n} x {self.n} block")

    manifold._component_analysis.cache_clear()  # a cached block would skip the analysis
    monkeypatch.setattr(IntMatrix, "power", refuse)
    for params in [validate(97, 3, 2, 1), *enumerate_params(13, 40)]:
        assert holonomy_checks(build_holonomy(params), params).all_ok


def test_holonomy_checks_never_eliminate_a_block(monkeypatch):
    # every block of build_holonomy has f <= 1, so its fixed space is f
    def refuse(self):
        raise AssertionError(f"rank() called on a {self.n} x {self.n} block")

    manifold._component_analysis.cache_clear()  # a cached block would skip the analysis
    monkeypatch.setattr(IntMatrix, "rank", refuse)
    for params in [validate(97, 3, 2, 1), *enumerate_params(13, 40)]:
        assert holonomy_checks(build_holonomy(params), params).all_ok


def _planted(*blocks):
    """The block-diagonal IntMatrix of the given square blocks."""
    return IntMatrix(_block_diagonal_rows(blocks)[0])


_C3 = [[0, -1], [1, -1]]
# (matrix, params, failures): one planted fault per case, each failing a different set
PLANTED = {
    "correct": (_planted(_C3, [[1]]), (3, 1, 0, 1), ()),
    "det -1": (
        _planted([[0, 1], [1, 1]], [[1]]),  # x^2 - x - 1: det -1, so order 0 and charpoly
        (3, 1, 0, 1),
        ("power_identity", "order_exact", "det_one", "charpoly"),
    ),
    "order-0 block": (
        _planted([[0, -1, 1, 0], [1, -1, 0, 1], [0, 0, 0, -1], [0, 0, 1, -1]], [[1]]),
        (3, 2, 0, 1),  # [[C_3, I], [0, C_3]]: charpoly Phi_3^2, but not of order 3
        ("power_identity", "order_exact"),
    ),
    "wrong fixed space": (
        _planted(_C3, [[1, 1], [0, 1]]),  # a Jordan block at 1: ker 1, not b + c = 2
        (3, 1, 0, 2),
        ("power_identity", "order_exact", "fixed_space"),
    ),
    "foreign charpoly factor": (
        _planted([[1]], [[-1]], [[-1]]),  # (x - 1)(x + 1)^2
        (3, 1, 0, 1),
        ("power_identity", "order_exact", "charpoly"),
    ),
    "order 1": (
        IntMatrix.identity(3),
        (3, 1, 0, 1),
        ("order_exact", "fixed_space", "charpoly"),
    ),
}
REPORT_KEYS = [
    "params", "power_identity", "order_exact", "det_one", "fixed_space_dim",
    "fixed_space_ok", "charpoly_ok", "failures",
]


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_holonomy_failures_are_the_false_checks_in_field_order(case):
    m, key, failures = PLANTED[case]
    params = ZpParams(*key)
    report = holonomy_checks(m, params)
    assert report.failures == failures
    checks = {
        "power_identity": report.power_identity,
        "order_exact": report.order_exact,
        "det_one": report.det_one,
        "fixed_space": report.fixed_space_ok,
        "charpoly": report.charpoly_ok,
    }
    assert report.failures == tuple(name for name, ok in checks.items() if not ok)
    assert report.all_ok == (failures == ())
    as_dict = report.to_dict()
    assert list(as_dict) == REPORT_KEYS
    assert as_dict["params"] == str(params) and as_dict["failures"] == list(failures)
    assert json.loads(json.dumps(as_dict)) == as_dict  # plain JSON values only


def test_holonomy_report_stores_no_failure_list():
    params = validate(5, 1, 1, 2)
    report = holonomy_checks(build_holonomy(params), params)
    assert list(vars(report)) == REPORT_KEYS[:-1]


def test_charpoly_of_merged_blocks_and_of_the_identity():
    # two C_3 blocks linked into one component with charpoly Phi_3^2
    merged = [list(r) for r in build_holonomy(validate(3, 2, 0, 1)).rows]
    merged[0][2] = 1
    assert holonomy_checks(IntMatrix(merged), validate(3, 2, 0, 1)).charpoly_ok
    # three x - 1 factors against Phi_3 (x - 1)
    report = holonomy_checks(IntMatrix.identity(3), validate(3, 1, 0, 1))
    assert not report.charpoly_ok and "charpoly" in report.failures


@pytest.mark.parametrize(
    "bounds, name", [((13, None), "n_max"), ((13.0, 40), "p_max"), ((13, True), "n_max")]
)
def test_enumerate_params_refuses_a_bound_that_is_not_an_int(bounds, name):
    # (13, None) raised TypeError from inside the loop
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        enumerate_params(*bounds)


def test_enumerate_params_ordering_and_validity():
    sweep = enumerate_params(5, 20)
    assert sweep == sorted(sweep, key=lambda q: q.key())
    assert len(set(sweep)) == len(sweep)
    for params in sweep:
        assert params.a + params.b > 0
        assert params.c >= 1
        assert params.p <= 5 and params.n <= 20
        assert params.beta1 % 2 == 1
    # exactly the odd-n records, in key order; 5,275 at the acceptance bounds
    assert sweep == [q for q in _params_with_even_n(5, 20) if q.n_odd]
    full = enumerate_params(13, 60)
    assert len(full) == 5275 and full == [q for q in _params_with_even_n(13, 60) if q.n_odd]
