import hashlib
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zpeta import eta
from zpeta.eta import (
    DomainError,
    EtaClosedForm,
    FailureEntry,
    Report,
    eta_invariant,
    eta_invariant_via_series,
    eta_series_closed_form,
    eta_series_eval,
    eta_spectral_partial,
    hurwitz_zeta,
    structure_classes,
    structure_records,
    untwisted_closed_form,
    verify_integrality,
    verify_parity,
    verify_untwisted,
)
from zpeta.exact import rational_str, reduce_mod_Z
from zpeta.manifold import (
    EvenDimensionError,
    SpinStructure,
    ZpParams,
    enumerate_params,
    validate,
)
from zpeta.numtheory import NotPrimeError, S_direct, as_prime, class_number, odd_primes_upto
from zpeta.spectrum import dim_ker

TRICOSM = validate(3, 1, 0, 1)

# references computed independently (40-digit Hurwitz zeta, then rounded)
HURWITZ_REFS = {
    (2.0, Fraction(1)): 1.6449340668482264,       # pi^2/6
    (2.0, Fraction(1, 2)): 4.9348022005446793,    # pi^2/2
    (4.0, Fraction(1, 3)): 81.36396942396904,
    (3.0, Fraction(2, 7)): 43.49174113167315,
    (2.0, Fraction(1, 26)): 677.5570460174779,
    (6.0, Fraction(1)): 1.0173430619844491,
}


def test_hurwitz_zeta_reference_values():
    for (s, alpha), want in HURWITZ_REFS.items():
        assert hurwitz_zeta(s, alpha) == pytest.approx(want, abs=1e-10)


def test_hurwitz_zeta_against_direct_sum_oracle():
    # direct summation of 200000 terms plus an integral tail bracket
    for s, alpha in ((2.5, Fraction(1, 3)), (4.0, Fraction(5, 6)), (9.0, Fraction(1, 2))):
        n_terms = 200_000
        a = float(alpha)
        partial = sum((n + a) ** -s for n in range(n_terms))
        lo = partial + (n_terms + a) ** (1 - s) / (s - 1)
        hi = partial + (n_terms - 1 + a) ** (1 - s) / (s - 1)
        got = hurwitz_zeta(s, alpha)
        assert lo - 1e-12 <= got <= hi + 1e-12


def test_hurwitz_zeta_domain():
    with pytest.raises(DomainError):
        hurwitz_zeta(1.0, Fraction(1, 2))
    with pytest.raises(DomainError):
        hurwitz_zeta(0.5, Fraction(1, 2))
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, Fraction(3, 2))


def test_closed_form_tricosm_h1_l0():
    form = eta_series_closed_form(TRICOSM, 1, 0)
    assert form == EtaClosedForm(3, 1, ((Fraction(1, 3), -2), (Fraction(2, 3), 2)))
    assert form.at_zero() == Fraction(-2, 3)


# one case of every branch the closed form had before it was read off one period
# of mult_diff_by_index: (p, a, h, ell) -> (scale, {alpha: sign * coeff}), recorded
# with the branch code, where a sign of -1 multiplied every coefficient
CLOSED_FORM_BRANCHES = {
    (3, 2, 1, 1): (3, {"1/3": -1, "2/3": 1}),  # a even, h = 1
    (5, 2, 2, 1): (5, {"7/10": 1, "3/10": -1}),  # a even, h = 2, ell <= q
    (3, 2, 2, 2): (3, {"1/6": -1, "5/6": 1}),  # a even, h = 2, ell > q
    (5, 3, 1, 1): (5, {"1/5": 1, "2/5": 2, "3/5": -2, "4/5": -1}),  # a odd, h = 1, p = 1 (4)
    (13, 1, 2, 3): (1, {"5/26": -2, "7/26": -1, "9/26": -2, "11/26": 2,
                        "15/26": -2, "17/26": 2, "19/26": 1, "21/26": 2}),  # h = 2, p = 1 (4)
    (7, 3, 1, 2): (7, {"1/7": -2, "2/7": 1, "5/7": -1, "6/7": 2}),  # a odd, h = 1, p = 3 (4)
    (7, 1, 2, 5): (1, {"3/14": 1, "5/14": -2, "9/14": 2, "11/14": -1}),  # h = 2, p = 3 (4)
    (5, 2, 1, 0): (1, {}),  # a even, ell = 0: the zero form
    (5, 1, 1, 0): (1, {}),  # a odd, p = 1 (4), ell = 0: every coefficient cancels
}


@pytest.mark.parametrize("p, a, h, ell", sorted(CLOSED_FORM_BRANCHES))
def test_closed_form_keeps_every_branch_value(p, a, h, ell):
    form = eta_series_closed_form(validate(p, a, 0, 1), h, ell)
    scale, coeffs = CLOSED_FORM_BRANCHES[p, a, h, ell]
    assert (form.p, form.scale) == (p, scale)
    assert {str(alpha): coeff for alpha, coeff in form.terms} == coeffs


def test_closed_form_of_a_nonexceptional_or_nonprime_manifold():
    assert eta_series_closed_form(validate(5, 1, 1, 2), 1, 1) == EtaClosedForm(5, 1, ())
    # p = 9 is refused (by the record itself), not read as a zero form
    with pytest.raises(NotPrimeError, match="p must be prime, got 9"):
        eta_series_closed_form(ZpParams(9, 1, 1, 2), 1, 1)
    with pytest.raises(NotPrimeError, match="p must be prime, got 9"):
        eta_spectral_partial(ZpParams(9, 1, 1, 2), 1, 1, 4.0, 100)


def test_eta_invariant_of_a_nonprime_manifold_is_refused():
    # the non-exceptional early return came before the prime and gave 0
    with pytest.raises(NotPrimeError, match="p must be prime, got 9"):
        eta_invariant(ZpParams(9, 1, 1, 2), 1, 1)


def test_structure_records_of_a_nonprime_manifold_are_refused():
    # the non-trivial structure reads no kernel formula, and dim_ker gave 0
    with pytest.raises(NotPrimeError, match="p must be prime, got 9"):
        structure_records(ZpParams(9, 1, 1, 2), SpinStructure((1, 1), 2))



@pytest.mark.parametrize(
    "key, deltas",
    [((5, 1, 0, 1), (1, 1)), ((5, 1, 1, 2), ()), ((3, 2, 1, 2), (1, -1, 1)), ((7, 1, 2, 1), (1,))],
)
def test_a_foreign_structure_is_refused_with_one_message(monkeypatch, key, deltas):
    # ZpParams.check_structure decides; structure_records asks before any eta
    params = validate(*key)
    message = f"structure has {len(deltas)} delta signs, expected {params.beta1 - 1}"

    def no_eta(*args):
        raise AssertionError("an eta was computed for a foreign structure")

    monkeypatch.setattr(eta, "eta_invariant", no_eta)
    for h in (1, 2):
        structure = SpinStructure(deltas, h)
        for refuse in (
            lambda: params.check_structure(structure),
            lambda: dim_ker(params, structure, 0),
            lambda: structure_records(params, structure),
            lambda: untwisted_closed_form(params, structure),
        ):
            with pytest.raises(ValueError) as info:
                refuse()
            assert type(info.value) is ValueError and str(info.value) == message

def test_closed_form_zero_cases():
    assert eta_series_closed_form(validate(5, 1, 1, 2), 1, 2).is_zero
    assert eta_series_closed_form(validate(5, 2, 0, 1), 1, 0).is_zero
    assert eta_series_closed_form(validate(5, 2, 0, 1), 2, 0).is_zero
    # a odd, p = 1 mod 4, untwisted: all coefficients cancel
    assert eta_series_closed_form(validate(5, 1, 0, 1), 1, 0).is_zero


def test_closed_form_alpha_denominators_divide_2p():
    for p, a in ((3, 1), (5, 2), (7, 1), (11, 3)):
        params = validate(p, a, 0, 1)
        for h in (1, 2):
            for ell in range(p):
                form = eta_series_closed_form(params, h, ell)
                for alpha, coeff in form.terms:
                    assert (2 * p) % alpha.denominator == 0
                    assert coeff != 0


def test_series_eval_frozen_values():
    form = eta_series_closed_form(TRICOSM, 1, 0)
    assert eta_series_eval(form, 4.0) == pytest.approx(-0.0012062858698540141, rel=1e-12)
    form = eta_series_closed_form(validate(7, 1, 0, 1), 2, 3)
    assert eta_series_eval(form, 4.0) == pytest.approx(-0.010518108793697568, rel=1e-12)
    assert eta_series_eval(EtaClosedForm.zero(5), 7.3) == 0.0
    assert eta_series_eval(EtaClosedForm.zero(5), 0.1) == 0.0  # zero form at any s


def test_series_eval_domain():
    form = eta_series_closed_form(TRICOSM, 1, 0)
    with pytest.raises(DomainError):
        eta_series_eval(form, 1.0)


def test_spectral_partial_matches_closed_form():
    n_terms = 10_000
    for p, a in ((3, 1), (7, 1)):
        params = validate(p, a, 0, 1)
        tail = 2 * p ** (a / 2) / (3 * math.pi**4 * (2 * n_terms - 1) ** 3)
        for h in (1, 2):
            for ell in range(p):
                closed = eta_series_eval(eta_series_closed_form(params, h, ell), 4.0)
                partial = eta_spectral_partial(params, h, ell, 4.0, n_terms)
                assert abs(closed - partial) < 1e-6 + tail, (p, h, ell)


def test_spectral_partial_nonexceptional_and_domain():
    assert eta_spectral_partial(validate(5, 1, 1, 2), 1, 1, 4.0, 100) == 0.0
    with pytest.raises(DomainError):
        eta_spectral_partial(TRICOSM, 1, 1, 0.5, 100)


_NOT_ABOVE_ONE = st.one_of(st.sampled_from((math.nan, math.inf)), st.floats(max_value=1.0))


@given(_NOT_ABOVE_ONE, st.sampled_from((1, 2)), st.integers(0, 2))
def test_series_functions_refuse_s_outside_the_domain(s, h, ell):
    # nan fails every comparison, so a plain s <= 1 test let it through
    form = eta_series_closed_form(TRICOSM, h, ell)
    with pytest.raises(DomainError):
        hurwitz_zeta(s, Fraction(1, 2))
    with pytest.raises(DomainError):
        eta_series_eval(form, s)
    with pytest.raises(DomainError):
        eta_spectral_partial(TRICOSM, h, ell, s, 100)


@pytest.mark.parametrize("bad", ("0.5", "3", b"1", True, False, None))
def test_series_functions_refuse_a_non_number(bad):
    # float("0.5") and True read as numbers; "3" as s raised TypeError
    form = eta_series_closed_form(TRICOSM, 1, 1)
    with pytest.raises(ValueError, match="must be a real number, got "):
        hurwitz_zeta(2, bad)
    for call in (
        lambda: hurwitz_zeta(bad, 0.5),
        lambda: eta_series_eval(form, bad),
        lambda: eta_series_eval(EtaClosedForm.zero(5), bad),  # 0 at any real s only
        lambda: eta_spectral_partial(TRICOSM, 1, 1, bad, 100),
    ):
        with pytest.raises(ValueError, match="needs s to be an int or float, got "):
            call()


@given(st.floats(min_value=400.0, allow_infinity=False), st.sampled_from((1, 2)), st.integers(0, 2))
def test_series_functions_refuse_s_that_overflows(s, h, ell):
    # 6^s and (2c - [h=2])^s for c >= 4 leave the range of a double
    with pytest.raises(DomainError, match="overflows"):
        hurwitz_zeta(s, Fraction(1, 6))
    with pytest.raises(DomainError, match="overflows"):
        eta_spectral_partial(TRICOSM, h, ell, s, 100)


def test_series_functions_refuse_an_overflow_between_finite_powers():
    # alpha = 1 keeps every power finite, but s^3 in the Bernoulli term does not
    assert hurwitz_zeta(1e100, 1) == 1.0
    with pytest.raises(DomainError, match="overflows"):
        hurwitz_zeta(1e200, 1)
    # zeta(s, 1/6) is finite, but the closed form's -2 zeta(s, 1/6) is not
    assert math.isfinite(hurwitz_zeta(396.1, Fraction(1, 6)))
    with pytest.raises(DomainError, match="overflows"):
        eta_series_eval(eta_series_closed_form(TRICOSM, 2, 0), 396.1)


def test_series_eval_refuses_a_subnormal_factor():
    # (6 pi)^(-s) is the last normal double power at s = 241
    form = eta_series_closed_form(TRICOSM, 1, 0)
    assert (6 * math.pi) ** -241.0 >= sys.float_info.min > (6 * math.pi) ** -242.0
    assert abs(eta_series_eval(form, 241.0)) >= sys.float_info.min
    for s in (242.0, 250.0, 300.0, 600.0):
        with pytest.raises(DomainError, match="underflows"):
            eta_series_eval(form, s)


@given(st.integers(max_value=0))
def test_spectral_partial_refuses_no_terms(terms):
    with pytest.raises(ValueError, match="terms"):
        eta_spectral_partial(TRICOSM, 1, 0, 4.0, terms)


_ETA_ENTRY_POINTS = {
    "eta_invariant": lambda h, ell: eta_invariant(TRICOSM, h, ell),
    "eta_series_closed_form": lambda h, ell: eta_series_closed_form(TRICOSM, h, ell),
    "eta_spectral_partial": lambda h, ell: eta_spectral_partial(TRICOSM, h, ell, 4.0, 3),
}


@pytest.mark.parametrize("bad", (True, 1.0, "1", Fraction(1)), ids=repr)
@pytest.mark.parametrize("position", ("h", "ell"))
@pytest.mark.parametrize("name", sorted(_ETA_ENTRY_POINTS))
def test_eta_entry_points_refuse_an_h_or_ell_that_is_not_an_int(name, position, bad):
    # "h in (1, 2)" alone lets True and 1.0 through as h = 1, and ell %= p turns True into 1
    call = _ETA_ENTRY_POINTS[name]
    args = {"h": 1, "ell": 0, position: bad}
    with pytest.raises(ValueError, match=f"{position} must be an int"):
        call(**args)
    call(1, 0)  # the same call with ints is fine


# each record constructor with one argument left open, the name it is refused under,
# and an int that the constructor accepts there
_RECORD_ARGUMENTS = {
    "SpinStructure-h": (lambda x: SpinStructure((), x), "h", 2),
    "SpinStructure-delta": (lambda x: SpinStructure((1, x), 1), "delta", -1),
    "EtaClosedForm-p": (lambda x: EtaClosedForm(x, 1, ()), "p", 7),
    "EtaClosedForm-scale": (lambda x: EtaClosedForm(7, x, ()), "scale", 3),
}


@pytest.mark.parametrize("bad", (True, 1.0, -1.0), ids=repr)
@pytest.mark.parametrize("argument", sorted(_RECORD_ARGUMENTS))
def test_structure_and_closed_form_refuse_values_that_are_not_ints(argument, bad):
    # "h in (1, 2)" alone lets True and 1.0 through
    make, name, good = _RECORD_ARGUMENTS[argument]
    with pytest.raises(ValueError, match=f"{name} must be an int, got {bad!r}"):
        make(bad)
    make(good)  # the same call with an int is fine


@pytest.mark.parametrize("terms, message", [
    (((0.5, 1),), "alpha must be a Fraction, got 0.5"),
    (((Fraction(1, 7), 1.5),), "coeff must be an int, got 1.5"),
    (((Fraction(1, 7), True),), "coeff must be an int, got True"),
    ([(Fraction(1, 7), 1)], "terms must be a tuple, got \\[\\(Fraction\\(1, 7\\), 1\\)\\]"),
    (([Fraction(1, 7), 1],), "each term must be an \\(alpha, coeff\\) tuple"),
], ids=("float-alpha", "float-coeff", "bool-coeff", "list-terms", "list-term"))
def test_closed_form_refuses_terms_that_are_not_fraction_and_int(terms, message):
    # a float alpha raised AttributeError on .denominator, and a float or bool
    # coefficient made at_zero inexact (1.5 gave 4825285315039817/9007199254740992);
    # a list of terms, or a list as a term, made hash() of the record raise TypeError
    with pytest.raises(ValueError, match=message):
        EtaClosedForm(7, 1, terms)
    assert EtaClosedForm(7, 1, ((Fraction(1, 7), 3),)).at_zero() == Fraction(15, 14)


@pytest.mark.parametrize("p, alpha, message", [
    (-3, Fraction(1, 6), "p must be prime, got -3"),
    (4, Fraction(1, 8), "p must be prime, got 4"),
    (9, Fraction(1, 18), "p must be prime, got 9"),
])
def test_closed_form_refuses_a_p_that_is_not_an_odd_prime(p, alpha, message):
    # each constructed, and eta_series_eval read the first two as 0.01027 at s = 4
    with pytest.raises(NotPrimeError, match=message):
        EtaClosedForm(p, 1, ((alpha, 1),))


@pytest.mark.parametrize("alpha, message", [
    (Fraction(0), "alpha out of \\(0, 1\\]: 0"),
    (Fraction(-1, 14), "alpha out of \\(0, 1\\]: -1/14"),
    (Fraction(15, 14), "alpha out of \\(0, 1\\]: 15/14"),
    (Fraction(1, 4), "alpha denominator must divide 2p: 1/4"),
    (Fraction(1, 21), "alpha denominator must divide 2p: 1/21"),
], ids=str)
def test_closed_form_refuses_an_alpha_off_the_grid_of_2p_in_0_1(alpha, message):
    with pytest.raises(ValueError, match=message):
        EtaClosedForm(7, 1, ((alpha, 1),))
    # both ends of the grid are accepted
    assert EtaClosedForm(7, 1, ((Fraction(1), 1), (Fraction(1, 14), 1))).at_zero() == Fraction(-1, 14)


def test_closed_form_terms_depend_on_a_only_through_its_parity():
    # the alphas, and the coefficients up to one sign, are those at a = 1 or 2:
    # what lets `series` refuse a scale far past a double before building it
    for p in odd_primes_upto(23):
        for a in range(1, 9):
            for h in (1, 2):
                for ell in range(p):
                    terms = eta_series_closed_form(validate(p, a, 0, 1), h, ell).terms
                    base = eta_series_closed_form(validate(p, 2 - a % 2, 0, 1), h, ell).terms
                    assert [alpha for alpha, _ in terms] == [alpha for alpha, _ in base]
                    signs = {c // b for (_, c), (_, b) in zip(terms, base)}
                    assert signs in (set(), {1}, {-1})


@pytest.mark.parametrize("p, a", ((3, 1294), (3, 5000), (97, 401)))
def test_series_eval_refuses_a_scale_beyond_a_double(p, a):
    # p^{[a/2]} is an int too large for a double: int * float raised OverflowError
    form = eta_series_closed_form(validate(p, a, 0, 1), 1, 1)
    assert form.scale > sys.float_info.max
    with pytest.raises(DomainError, match="eta series evaluation overflows a double at s = 4.0"):
        eta_series_eval(form, 4.0)


@pytest.mark.parametrize("h", [0, 3, -1])
def test_eta_invariant_refuses_a_type_index_other_than_1_or_2(h):
    with pytest.raises(ValueError, match=f"h must be 1 or 2, got {h}"):
        eta_invariant(validate(3, 1, 0, 1), h, 0)


def test_eta_invariant_tricosm():
    assert [eta_invariant(TRICOSM, 1, ell) for ell in range(3)] == [
        Fraction(-2, 3),
        Fraction(1, 3),
        Fraction(1, 3),
    ]
    # h = 2: 4/3 untwisted; the twisted values land at -2/3 (same 1/3 class
    # mod Z), which is what both evaluation paths and the spectral sums give
    assert [eta_invariant(TRICOSM, 2, ell) for ell in range(3)] == [
        Fraction(4, 3),
        Fraction(-2, 3),
        Fraction(-2, 3),
    ]


def test_eta_invariant_examples():
    p71 = validate(7, 1, 0, 1)
    assert eta_invariant(p71, 1, 0) == -2
    assert eta_invariant(p71, 2, 0) == 0
    assert eta_invariant(validate(5, 2, 0, 1), 1, 1) == 3
    assert eta_invariant(validate(5, 1, 0, 1), 1, 1) == 1
    # zero for non-exceptional manifolds, all twists and both types
    for h in (1, 2):
        for ell in range(5):
            assert eta_invariant(validate(5, 1, 1, 2), h, ell) == 0


def test_eta_invariant_twist_reduction():
    assert eta_invariant(TRICOSM, 1, 4) == eta_invariant(TRICOSM, 1, 1)
    assert eta_invariant(TRICOSM, 2, -1) == eta_invariant(TRICOSM, 2, 2)


def test_eta_invariant_twist_sum_rule():
    # the twists ell = 0..p-1 add up to the regular representation of Z_p, so
    # their sum is the eta invariant of the covering flat torus, which is 0
    for p in odd_primes_upto(31):
        for a in range(1, 6):
            params = validate(p, a, 0, 1)
            for h in (1, 2):
                assert sum(eta_invariant(params, h, ell) for ell in range(p)) == 0, (p, a, h)


def test_eta_invariant_conjugate_twist_symmetry():
    # ell -> p - ell conjugates the twist: equal values at n = 3 mod 4
    # (quaternionic), opposite values at n = 1 mod 4
    for p in odd_primes_upto(31):
        for a in range(1, 6):
            params = validate(p, a, 0, 1)
            sign = (-1) ** ((params.n + 1) // 2)
            for h in (1, 2):
                for ell in range(p):
                    assert eta_invariant(params, h, p - ell) == sign * eta_invariant(
                        params, h, ell
                    ), (p, a, h, ell)


# SHA-256 of the exceptional eta table below, recorded while eta_invariant
# still spelled out its four odd-a split-sum branches
ETA_TABLE_SHA256 = "b337423b66481c8f8339688cb5ed16a9e4310c93c02f2bae5b85a37c4d4b304b"


def test_eta_invariant_table_is_byte_identical():
    lines = []
    for p in odd_primes_upto(97):
        for a in (1, 3, 5, 7):
            params = validate(p, a, 0, 1)
            for h in (1, 2):
                lines += [
                    f"{p} {a} {h} {ell} {rational_str(eta_invariant(params, h, ell))}\n"
                    for ell in range(p)
                ]
    assert len(lines) == 8464
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == ETA_TABLE_SHA256


def test_odd_a_eta_is_the_literal_difference_sum():
    # eta_{ell,h} = (-1)^{sigma_h + r + 1} p^{(a-3)/2} S_h(ell) with sigma_1 = t,
    # sigma_2 = q and r = [n/4], S_h read by literal summation
    for p in odd_primes_upto(61):
        P = as_prime(p)
        for a in (1, 3, 5, 7):
            params = validate(p, a, 0, 1)
            scale = Fraction(p) ** ((a - 3) // 2)
            for h, sigma in ((1, P.t), (2, P.q)):
                sgn = (-1) ** (sigma + params.n // 4 + 1)
                for ell in range(p):
                    want = sgn * scale * S_direct(h, ell, P)
                    assert eta_invariant(params, h, ell) == want, (p, a, h, ell)


def test_dual_path_equality():
    for p in odd_primes_upto(13):
        for a in range(1, 6):
            params = validate(p, a, 0, 1)
            for h in (1, 2):
                for ell in range(p):
                    assert eta_invariant(params, h, ell) == eta_invariant_via_series(
                        params, h, ell
                    ), (p, a, h, ell)


def test_eta_invariant_via_series_examples():
    assert eta_invariant_via_series(validate(5, 1, 0, 1), 1, 1) == 1
    assert eta_invariant_via_series(validate(5, 1, 1, 2), 1, 3) == 0


def test_reduced_eta_examples():
    triv = structure_classes(TRICOSM)[0]
    rec = structure_records(TRICOSM, triv)[0]
    assert rec.eta_bar == Fraction(-1, 3)
    assert rec.eta_bar_mod_Z.value == Fraction(2, 3)
    assert rec.relative_mod_Z.is_zero()

    p51 = validate(5, 1, 0, 1)
    rec = structure_records(p51, structure_classes(p51)[0])[1]
    assert rec.eta == 1 and rec.dim_ker == 1
    assert rec.eta_bar == 1 and rec.eta_bar_mod_Z.is_zero()

    p512 = validate(5, 1, 1, 2)
    rec = structure_records(p512, structure_classes(p512)[0])[0]
    assert rec.eta_bar == 4


def test_reduced_eta_consistency():
    for params in (TRICOSM, validate(7, 1, 0, 1), validate(5, 1, 1, 2)):
        for structure in structure_classes(params):
            for rec in structure_records(params, structure):
                assert rec.eta_bar == (rec.eta + rec.dim_ker) / 2


def test_reduced_eta_rejects_even_dimension():
    params = validate(5, 1, 1, 1)
    for h in (1, 2):
        with pytest.raises(EvenDimensionError):
            structure_records(params, SpinStructure((1,), h))


EXCEPTIONAL_UP_TO_31 = [validate(p, a, 0, 1) for p in odd_primes_upto(31) for a in range(1, 6)]


def test_structure_records_match_reduced_eta():
    # the record at index ell is eta and dim ker at the twist ell, reduced on
    # its own; on the exceptional manifolds eta varies and repeats across ell,
    # and p = 3 has the non-integral 2W/p term
    for params in enumerate_params(7, 30) + EXCEPTIONAL_UP_TO_31:
        for structure in structure_classes(params):
            records = structure_records(params, structure)
            assert len(records) == params.p
            if not params.exceptional:  # eta is 0 at every twist: one record from ell = 1 on
                assert all(records[ell] is records[1] for ell in range(2, params.p))
            bar_0 = records[0].eta_bar
            for ell, rec in enumerate(records):
                assert rec.eta == eta_invariant(params, structure.h, ell)
                assert rec.dim_ker == dim_ker(params, structure, ell)
                assert rec.eta_bar == (rec.eta + rec.dim_ker) / 2
                assert rec.eta_bar_mod_Z == reduce_mod_Z(rec.eta_bar)
                assert rec.relative_mod_Z == reduce_mod_Z(rec.eta_bar - bar_0)


def test_a_nonexceptional_manifold_builds_two_records_by_arithmetic(monkeypatch):
    # eta is 0 at every twist, so the twists from ell = 2 on hold the record of ell = 1
    built, record = [], eta._record

    def counted(*values):
        built.append(record(*values))
        return built[-1]

    monkeypatch.setattr(eta, "_record", counted)
    params = validate(13, 1, 1, 2)
    for structure in structure_classes(params):
        built.clear()
        records = structure_records(params, structure)
        assert len(built) == 2 and len(records) == 13
        assert records[0] is built[0] and all(rec is built[1] for rec in records[1:])


def test_a_record_is_its_five_invariants():
    # the twist and the structure are where the record sits, not fields of it
    fields = ["eta", "dim_ker", "eta_bar", "eta_bar_mod_Z", "relative_mod_Z"]
    record = structure_records(validate(3, 1, 0, 1), SpinStructure((), 1))[1]
    assert list(vars(record)) == fields
    # == compares every field
    for name in fields:
        other = eta.InvariantRecord(*vars(record).values())
        assert other == record
        other.__dict__[name] = None
        assert other != record


def _bar_inputs(p):
    dens = st.sampled_from((1, 2, 3, 2 * p))
    return st.builds(Fraction, st.integers(-(10**6), 10**6), dens)


@given(
    st.sampled_from(odd_primes_upto(31)).flatmap(lambda p: st.tuples(*[_bar_inputs(p)] * 2)),
    st.integers(0, 2**240),
)
def test_integer_record_helpers_are_the_fraction_arithmetic(xs, d):
    x, x_0 = xs
    bar, bar_0 = eta._half_sum(x, d), eta._half_sum(x_0, d)
    assert bar == (x + d) / 2 and type(bar) is Fraction
    assert reduce_mod_Z(x).value == x % 1
    assert eta._relative(bar, bar_0).value == (bar - bar_0) % 1


def test_untwisted_closed_form_examples():
    p512 = validate(5, 1, 1, 2)
    assert untwisted_closed_form(p512, structure_classes(p512)[0]) == 4
    p71 = validate(7, 1, 0, 1)
    assert untwisted_closed_form(p71, structure_classes(p71)[0]) == 0
    assert untwisted_closed_form(p71, structure_classes(p71)[1]) == 0
    # p = 3 mod 8 turns on the h = 2 class number term
    p11 = validate(11, 1, 0, 1)
    assert untwisted_closed_form(p11, structure_classes(p11)[1]) == 2 * class_number(11)


def test_untwisted_closed_form_refuses_even_dimension():
    params = validate(3, 1, 0, 2)  # n = 4
    with pytest.raises(EvenDimensionError, match="needs odd n, got n = 4"):
        untwisted_closed_form(params, SpinStructure((1,), 1))


def test_untwisted_matches_assembled_etabar():
    report = verify_untwisted(enumerate_params(11, 40))
    assert report.ok, report.failures[:3]


def test_verify_integrality_small_sweep():
    report = verify_integrality(enumerate_params(7, 30))
    assert report.ok, report.failures[:3]
    # the p = n = 3 manifold is the unique expected exception, residue 2/3
    assert len(report.expected_exceptions) == 6
    assert all(e["residue"] == "2/3" for e in report.expected_exceptions)
    assert all(e["params"] == "(3,1,0,1)" for e in report.expected_exceptions)


def test_verify_integrality_relative_residues_vanish():
    report = verify_integrality([TRICOSM])
    assert report.ok
    assert report.cases == 2 * 2 * 3  # structures x ell x (residue, relative)


def test_verify_parity_small_sweep():
    report = verify_parity(enumerate_params(11, 40))
    assert report.ok, report.failures[:3]
    assert report.cases > 0


def test_parity_spot_values():
    p52 = validate(5, 2, 0, 1)
    assert eta_invariant(p52, 1, 1) == 3       # odd
    assert eta_invariant(p52, 1, 0) == 0       # even
    assert eta_invariant(validate(7, 1, 0, 1), 1, 0) == -2  # even


def test_report_json_schema():
    report = verify_integrality(enumerate_params(5, 12))
    payload = json.loads(json.dumps(report.to_dict()))
    assert set(payload) == {"suite", "cases", "passed", "failures", "expected_exceptions"}
    assert payload["suite"] == "integrality"
    assert payload["cases"] == payload["passed"] + len(payload["failures"])


class _Unprintable:
    def __str__(self):
        raise AssertionError("a passing check built a string")


def test_report_check_counts_each_case_and_builds_an_entry_only_on_failure():
    report = Report("x")
    report.check(True, "(5,1,1,2)", "h=1", 0, _Unprintable(), _Unprintable())
    assert (report.cases, report.passed, report.failures) == (1, 1, [])
    report.check(False, "(5,1,1,2)", "h=2", 3, Fraction(1, 3), reduce_mod_Z(Fraction(-4, 3)))
    assert (report.cases, report.passed, report.ok) == (2, 1, False)
    assert report.failures == [FailureEntry("(5,1,1,2)", "h=2", 3, "1/3", "2/3")]


FAILURE_KEYS = ("params", "structure", "ell", "expected", "got")


def _wrong_eta_cell(monkeypatch, cell, shift):
    right = eta.eta_invariant

    def wrong_at_one_cell(params, h, ell):
        value = right(params, h, ell)
        return value + shift if (params.key(), h, ell % params.p) == cell else value

    monkeypatch.setattr(eta, "eta_invariant", wrong_at_one_cell)


def test_integrality_reports_a_wrong_eta_cell(monkeypatch):
    # etabar moves by 1/2: the cell's residue and its relative residue both fail
    _wrong_eta_cell(monkeypatch, ((3, 1, 0, 1), 2, 1), 1)
    report = verify_integrality(enumerate_params(5, 12))
    assert report.cases == 2 * sum(2 * q.p for q in enumerate_params(5, 12))
    assert [f.to_dict() for f in report.failures] == [
        dict(zip(FAILURE_KEYS, ("(3,1,0,1)", "nontrivial,h=2", 1, "2/3", "1/6"))),
        dict(zip(FAILURE_KEYS, ("(3,1,0,1)", "nontrivial,h=2", 1, "0", "1/2"))),
    ]
    assert len(report.expected_exceptions) == 5


def test_integrality_reports_a_dim_ker_fault_at_a_later_manifold_of_its_key(monkeypatch):
    # off the exceptional set the records depend on (p, a + b, b + c) alone, and
    # (5,1,1,2) is not the first manifold of its key (5, 2, 3): a reuse keyed by
    # that label, not by the values, would pass it with (5,0,2,1)'s records
    sweep = enumerate_params(7, 30)
    same_key = [q for q in sweep if (q.p, q.a + q.b, q.beta1) == (5, 2, 3)]
    assert [q.key() for q in same_key[:2]] == [(5, 0, 2, 1), (5, 1, 1, 2)]
    right = eta.dim_ker

    def planted(params, structure, ell):
        d = right(params, structure, ell)
        hit = (params.key(), structure.trivial_type, ell % params.p) == ((5, 1, 1, 2), True, 0)
        return d + 1 if hit else d

    monkeypatch.setattr(eta, "dim_ker", planted)
    report = verify_integrality(sweep)
    # etabar_0 moves by 1/2: its residue, and the relative residue of every other twist
    assert [f.to_dict() for f in report.failures] == [
        dict(zip(FAILURE_KEYS, ("(5,1,1,2)", "trivial,h=1,deltas=++", ell, "0", "1/2")))
        for ell in range(5)
    ]


def test_integrality_replays_a_shared_faulty_verdict_under_each_manifolds_name(monkeypatch):
    # the three manifolds of the key (5, 2, 3) share one value tuple, so one
    # verdict, decided at the first: each replays its five entries under its own name
    sweep = enumerate_params(7, 30)
    same_key = [q.key() for q in sweep if (q.p, q.a + q.b, q.beta1) == (5, 2, 3)]
    assert same_key == [(5, 0, 2, 1), (5, 1, 1, 2), (5, 2, 0, 3)]
    right = eta.dim_ker

    def planted(params, structure, ell):
        d = right(params, structure, ell)
        hit = params.key() in same_key and structure.trivial_type and ell % params.p == 0
        return d + 1 if hit else d

    monkeypatch.setattr(eta, "dim_ker", planted)
    report = verify_integrality(sweep)
    assert report.cases == 2 * sum(2 * q.p for q in sweep)
    assert [f.to_dict() for f in report.failures] == [
        dict(zip(FAILURE_KEYS, (name, "trivial,h=1,deltas=++", ell, "0", "1/2")))
        for name in ("(5,0,2,1)", "(5,1,1,2)", "(5,2,0,3)")
        for ell in range(5)
    ]


def test_integrality_builds_records_once_per_distinct_value_tuple(monkeypatch):
    sweep = enumerate_params(7, 30)
    values = {
        (tuple(eta_invariant(q, s.h, ell) for ell in range(q.p)), dim_ker(q, s, 0), dim_ker(q, s, 1))
        for q in sweep
        for s in structure_classes(q)
    }
    calls, real = [], eta._records_from

    def counted(etas, d_0, d_1):
        calls.append((tuple(etas), d_0, d_1))
        return real(etas, d_0, d_1)

    monkeypatch.setattr(eta, "_records_from", counted)
    report = verify_integrality(sweep)
    assert report.ok and report.cases == 2 * sum(2 * q.p for q in sweep)
    assert len(calls) == len(set(calls)) == len(values) == 212
    assert set(calls) == values


def test_structure_classes_are_built_once_per_b_plus_c_in_a_fresh_list():
    first, second = validate(5, 1, 1, 2), validate(7, 2, 0, 3)
    classes = structure_classes(first)
    classes.append(None)  # a caller's list is its own
    again = structure_classes(second)
    assert again == [SpinStructure((1, 1), 1), SpinStructure((1, 1), 2)]
    assert all(x is y for x, y in zip(again, classes))


@pytest.mark.parametrize(
    "cell, shift, entry",
    (
        (((5, 2, 0, 1), 1, 1), 1, ("(5,2,0,1)", "h=1", 1, "odd integer", "4")),
        (((7, 1, 0, 1), 2, 3), Fraction(1, 2), ("(7,1,0,1)", "h=2", 3, "integer", "-3/2")),
    ),
)
def test_parity_reports_a_wrong_eta_cell(monkeypatch, cell, shift, entry):
    _wrong_eta_cell(monkeypatch, cell, shift)
    report = verify_parity(enumerate_params(7, 30))
    assert [f.to_dict() for f in report.failures] == [dict(zip(FAILURE_KEYS, entry))]


def test_untwisted_reports_a_wrong_closed_form(monkeypatch):
    right = eta.untwisted_closed_form

    def wrong_at_one_cell(params, structure):
        value = right(params, structure)
        wrong = (params.key(), structure.h) == ((5, 1, 1, 2), 1)
        return value + Fraction(1, 3) if wrong else value

    monkeypatch.setattr(eta, "untwisted_closed_form", wrong_at_one_cell)
    report = verify_untwisted(enumerate_params(7, 30))
    assert [f.to_dict() for f in report.failures] == [
        dict(zip(FAILURE_KEYS, ("(5,1,1,2)", "trivial,h=1,deltas=++", 0, "4", "13/3")))
    ]
