import cmath
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpeta import charsums, numtheory
from zpeta.charsums import (
    CHI0,
    CHIP,
    CharacterChoice,
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
from zpeta.exact import UNIT_I, UNIT_ONE, CyclotomicRing, RadicalValue, cyclotomic_ring
from zpeta.numtheory import OddPrime, as_prime, odd_primes_upto

ORACLE_PRIMES = odd_primes_upto(19)


def ring(p):
    return cyclotomic_ring(as_prime(p))


def at_zeta(x, p):
    """A packed element of the ring of p evaluated at z = e^{i pi / 2p}."""
    coords = ring(p).unpack(x)
    return sum(c * cmath.exp(1j * math.pi * e / (2 * p)) for e, c in enumerate(coords))


def literal(terms, p):
    """sum of c z^e over (e, c) in terms, packed in the ring of p."""
    vec = {}
    for e, c in terms:
        vec[e % (4 * p)] = vec.get(e % (4 * p), 0) + c
    return ring(p).pack(ring(p).reduce(vec))


def test_gauss_G_examples():
    # h = 1 is the quadratic Gauss sum G(l) = delta(p) (l/p) sqrt(p)
    assert G_h_chip(1, 1, 5) == RadicalValue(Fraction(1), UNIT_ONE, 5)
    assert G_h_chip(1, 1, 3) == RadicalValue(Fraction(1), UNIT_I, 3)
    assert G_h_chip(1, 5, 5).is_zero()
    assert G_h_chip(1, 2, 5) == RadicalValue(Fraction(-1), UNIT_ONE, 5)


def test_gauss_direct_examples():
    # a rational integer packs as itself
    assert gauss_direct(1, CHI0, 0, 7) == 6
    assert gauss_direct(1, CHIP, 1, 5) == ring(5).embed(RadicalValue(Fraction(1), UNIT_ONE, 5))
    assert at_zeta(gauss_direct(1, CHIP, 1, 5), 5) == pytest.approx(2.2360679774997896)
    assert gauss_direct(2, CHI0, 3, 7) == 6


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
    # F_direct is 2i F: 2i * (5/2) i = -5, and 2i * (1/2) i sqrt(5) = -sqrt(5)
    assert F_direct(1, CHI0, 2, 2, 5) == -5
    assert F_direct(1, CHIP, 1, 1, 5) == ring(5).embed(RadicalValue(Fraction(-1), UNIT_ONE, 5))
    assert at_zeta(F_direct(1, CHIP, 1, 1, 5), 5) / 2j == pytest.approx(1.118033988749895j)
    assert F_direct(1, CHI0, 1, 2, 5) == 0


def _F_scalar_loop(h, chi, l, c, p):
    """2i F_h(l, c), one k at a time: e^{2 pi i lk/p} 2i sin(pi k m/p) =
    z^{4lk} (z^{2km} - z^{-2km}), m = 2c + [h=2]."""
    m = 2 * c + (h == 2)
    terms = []
    for k in range(1, p):
        sign = -1 if (h == 2 and k % 2 == 1) else 1
        char = 1 if chi is CHI0 else as_prime(p).legendre(k)
        terms += [(4 * l * k + 2 * k * m, sign * char), (4 * l * k - 2 * k * m, -sign * char)]
    return literal(terms, p)


@pytest.mark.parametrize("h", (1, 2))
@pytest.mark.parametrize("chi", (CHI0, CHIP))
def test_F_direct_is_bitwise_the_ascending_k_loop(h, chi):
    # negative l, l >= p and c >= p read the same table as their residues
    for p in odd_primes_upto(43):
        for l in range(-1, p + 2):
            for c in range(1, 2 * p + 2):
                assert F_direct(h, chi, l, c, p) == _F_scalar_loop(h, chi, l, c, p), (p, l, c)


@pytest.mark.parametrize("p", odd_primes_upto(131))  # 64-bit slots to p = 113, then 128
def test_tables_match_an_entry_by_entry_build_at_every_index(p):
    # D_h(u) = sum_k (-1)^{k(h+1)} chi(k) z^{2ku} at every u mod 2p, read
    # from the one table of chi at u + p [h=2]; the product T(k) = prod_j
    # (z^{2jk} + s z^{-2jk}) at every k mod 2p, as the image of T(1) under
    # the ring map z -> z^k (x -> x^k maps Z[x]/(x^{4p} - 1) to itself).
    # Each entry is summed here on its own: only the ring's canonical form
    # (``literal``) is shared with the tables, none of their orbit fill
    P, n = as_prime(p), 4 * p
    for chi in (CHI0, CHIP):
        table = charsums._gauss_terms(chi is CHIP, p)
        assert len(table) == 2 * p
        chars = [0] + [1 if chi is CHI0 else P.legendre(k) for k in range(1, p)]
        for h in (1, 2):
            for u in range(2 * p):
                terms = [(2 * k * u, (-1) ** (k * (h + 1)) * chars[k]) for k in range(1, p)]
                assert table[(u + p * (h == 2)) % (2 * p)] == literal(terms, p), (chi, h, u)
    for kind, s in (("sin", -1), ("cos", 1)):
        table = charsums._trig_literals(p)[kind]
        assert len(table) == 2 * p
        prod = {0: 1}
        for j in range(1, P.q + 1):
            step = {}
            for e, c in prod.items():
                for f, w in ((2 * j, 1), (-2 * j, s)):
                    step[(e + f) % n] = step.get((e + f) % n, 0) + w * c
            prod = step
        for k in range(2 * p):
            assert table[k] == literal([(e * k, c) for e, c in prod.items()], p), (kind, k)


def _float_loops(p):
    """The literal sums in floating point, one term at a time: (G_h(l), F_h(l, c),
    prod sin, prod cos) by their arguments."""
    P = as_prime(p)
    for h in (1, 2):
        for chi in (CHI0, CHIP):
            chars = [0] + [1 if chi is CHI0 else P.legendre(k) for k in range(1, p)]
            signs = [-1 if (h == 2 and k % 2) else 1 for k in range(p)]
            for l in range(p):
                g = sum(
                    signs[k] * chars[k] * cmath.exp(1j * math.pi * k * (2 * l + (h == 2)) / p)
                    for k in range(1, p)
                )
                yield gauss_direct(h, chi, l, p), 1, g
                for c in range(1, 2 * p + 1):
                    f = sum(
                        signs[k] * chars[k] * cmath.exp(2j * math.pi * l * k / p)
                        * math.sin(math.pi * k * (2 * c + (h == 2)) / p)
                        for k in range(1, p)
                    )
                    yield F_direct(h, chi, l, c, p), 2j, f
    for kind, fn, unit in (("sin", math.sin, 2j), ("cos", math.cos, 2)):
        for k in range(1, 3 * p + 1):
            prod = math.prod(fn(j * k * math.pi / p) for j in range(1, P.q + 1))
            yield trig_prod_direct(kind, k, p), unit**P.q, prod


@pytest.mark.parametrize("p", odd_primes_upto(13))
def test_direct_sums_at_zeta_match_the_float_loops(p):
    # each ring value, evaluated at z = e^{i pi/2p} and divided by its scale
    cells = 0
    for packed, scale, want in _float_loops(p):
        assert abs(at_zeta(packed, p) / scale - want) < 1e-9, (p, packed, want)
        cells += 1
    assert cells == 2 * 2 * p * (1 + 2 * p) + 6 * p


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
        wrong = (h, l, c, as_prime(p).p) == (2, 3, 4, 5)
        return RadicalValue(-value.coeff, value.unit, value.radicand) if wrong else value

    monkeypatch.setattr(charsums, "F_h_chip", wrong_at_one_cell)
    report = suite_appendix(5)
    assert report.cases == 500
    assert [f.to_dict() for f in report.failures] == [
        {
            "params": "p=5",
            "structure": "sine-quadratic(h=2,l=3,c=4)",
            "ell": None,
            "expected": "1 +2*z^4 -2*z^6",  # 2i F in Z[z], z = e^{i pi/10}
            "got": "-1 -2*z^4 +2*z^6",
        }
    ]


def test_appendix_reports_a_wrong_legendre_sum(monkeypatch):
    right = numtheory.S_direct

    def wrong_at_one_cell(which, ell, p):
        value = right(which, ell, p)
        return value + 1 if (which, ell, as_prime(p).p) == (2, 3, 5) else value

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


@pytest.mark.parametrize(
    "name, family",
    [
        ("sum_legendre_odd_shift", "odd-shifted-sum"),
        ("odd_weighted_legendre_sum", "odd-weighted-sum"),
    ],
)
def test_appendix_reports_a_wrong_odd_index_legendre_sum(monkeypatch, name, family):
    # one wrong cell at (ell, sign) = (3, -1), p = 5: one entry, the count unchanged
    cases = suite_appendix(5).cases
    right = getattr(numtheory, name)

    def wrong_at_one_cell(ell, sign, p):
        value = right(ell, sign, p)
        return value + 1 if (ell, sign, as_prime(p).p) == (3, -1, 5) else value

    monkeypatch.setattr(numtheory, name, wrong_at_one_cell)
    report = suite_appendix(5)
    value = right(3, -1, 5)
    assert report.cases == cases == 500
    assert [f.to_dict() for f in report.failures] == [
        {"params": "p=5", "structure": family, "ell": 3, "expected": str(value),
         "got": str(value + 1)},
    ]


def test_a_wrong_weighted_split_fails_the_checker_and_S_split(monkeypatch):
    # the appendix checker and S_split read one split form: a wrong value at
    # base 2, sign -1 fails the weighted-sum cells at factor*ell = 2 (mod 5)
    # and the difference sums whose D(b) reads base 2, i.e. ell = 2 for S_1
    # and ell = 1, 2 for S_2 = D(2 ell) - (2/p) D(ell)
    right = numtheory.weighted_split

    def wrong_at_one_cell(base, sign, p):
        value = right(base, sign, p)
        q = as_prime(p).p
        return value + 1 if (base % q, sign, q) == (2, -1, 5) else value

    monkeypatch.setattr(numtheory, "weighted_split", wrong_at_one_cell)
    report = suite_appendix(5)
    assert report.cases == 500
    assert [(f.structure, f.ell) for f in report.failures] == [
        ("weighted-sum(factor=2)", 1),
        ("difference-sum-2", 1),
        ("weighted-sum(factor=1)", 2),
        ("difference-sum-1", 2),
        ("difference-sum-2", 2),
    ]
    literal = numtheory.weighted_legendre_sum(2, 1, -1, 5)
    assert (report.failures[2].expected, report.failures[2].got) == (
        str(literal + 1),
        str(literal),
    )


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


def test_a_poisoned_literal_weight_fails_the_weighted_checks_at_ell_0(monkeypatch):
    # the literal sum's cell ("weighted", 0, +1) is W = sum_j (j/p) j; the
    # split form takes W from the partial sums, so the weighted-sum checks
    # at ell = 0, sign +1 (both factors) compare two sources, not one cell
    P = as_prime(7)
    right = P.weighted_sum()
    monkeypatch.setitem(P._sums, ("weighted", 0, 1), right + 1)
    report = _appendix_for_prime((7, None))
    assert [(f.structure, f.ell, f.expected, f.got) for f in report.failures] == [
        ("weighted-sum(factor=1)", 0, str(right), str(right + 1)),
        ("weighted-sum(factor=2)", 0, str(right), str(right + 1)),
        ("difference-sum-1", 0, str(numtheory.S_split(1, 0, P)), str(-2 * right - 1)),
    ]


def test_appendix_checks_pass_past_64_bit_coordinates():
    # p = 127 is the first prime whose cosine product 2^q at p | k needs 128-bit slots
    p = 127
    report = _appendix_for_prime((p, None))
    assert report.failures == []
    legendre = p * (2 * (p + 4) + 2)
    assert report.cases == legendre + 2 * p * (2 + 4 * p) + 2 * 3 * p


@pytest.mark.parametrize("h", (1, 2))
@pytest.mark.parametrize("chi", (CHI0, CHIP))
def test_gauss_closed_forms_match_direct_sums(h, chi):
    for p in ORACLE_PRIMES:
        for l in range(-p, 2 * p):  # past one period on both sides
            closed = G_h_chi0(h, l, p) if chi is CHI0 else G_h_chip(h, l, p)
            assert gauss_direct(h, chi, l, p) == ring(p).embed(closed), (p, h, chi, l)


@pytest.mark.parametrize("h", (1, 2))
@pytest.mark.parametrize("chi", (CHI0, CHIP))
def test_F_closed_forms_match_direct_sums(h, chi):
    fn = F_h_chi0 if chi is CHI0 else F_h_chip
    for p in ORACLE_PRIMES:
        for l in range(-p, 2 * p):  # past one period on both sides
            for c in range(1, 3 * p + 1):
                closed = ring(p).embed(fn(h, l, c, p), 2, 1)  # F_direct is 2i F
                assert F_direct(h, chi, l, c, p) == closed, (p, h, chi, l, c)


def test_trig_prod_examples():
    assert trig_prod("sin", 3, 3).is_zero()
    assert trig_prod("sin", 2, 5) == RadicalValue(Fraction(1, 4), UNIT_ONE, 5)
    assert trig_prod("cos", 1, 5) == RadicalValue(Fraction(1, 4), UNIT_ONE, 1)
    assert trig_prod("cos", 5, 5) == RadicalValue(Fraction(-1), UNIT_ONE, 1)
    assert trig_prod("sin", 3, 5) == RadicalValue(Fraction(-1, 4), UNIT_ONE, 5)


def test_trig_prod_direct_examples():
    # the literal products are (2i)^q prod sin and 2^q prod cos
    assert at_zeta(trig_prod_direct("sin", 1, 3), 3) / 2j == pytest.approx(0.8660254037844386)
    assert trig_prod_direct("cos", 5, 5) == -4
    assert trig_prod_direct("sin", 3, 3) == 0
    assert at_zeta(trig_prod_direct("sin", 2, 5), 5) / -4 == pytest.approx(0.5590169943749474)


def test_trig_prod_matches_direct():
    # from p = 127 (q = 63) the cosine product 2^q at p | k needs 128-bit slots
    for p in odd_primes_upto(97) + [127, 131]:
        P = as_prime(p)
        for kind, i_pow in (("sin", P.q), ("cos", 0)):
            for k in range(1, 3 * p + 1):
                closed = ring(p).embed(trig_prod(kind, k, p), 2**P.q, i_pow)
                assert trig_prod_direct(kind, k, p) == closed, (p, kind, k)


def test_argument_validation():
    with pytest.raises(ValueError):
        trig_prod("tan", 1, 5)
    with pytest.raises(ValueError):
        trig_prod("sin", 0, 5)
    with pytest.raises(ValueError):
        F_h_chi0(1, 1, 0, 5)
    with pytest.raises(ValueError):
        gauss_direct(3, CHI0, 1, 5)


def _plant(monkeypatch, name, wrong_at):
    right = getattr(charsums, name)

    def planted(*args):
        value = right(*args)
        return wrong_at(value) if args[:-1] + (as_prime(args[-1]).p,) == wrong_at.cell else value

    monkeypatch.setattr(charsums, name, planted)


def _planted_failures(monkeypatch, name, wrong_at):
    _plant(monkeypatch, name, wrong_at)
    return [f.to_dict() for f in suite_appendix(5).failures]


def test_appendix_reports_charsum_failures_in_check_order(monkeypatch):
    # one negated value per closed form, all at h = 1, l = 2 (and c = 2), planted
    # in reverse: at each (h, l) the Gauss sums come before the sine sums, and
    # the trivial character before the quadratic one
    for name, cell in (
        ("F_h_chip", (1, 2, 2, 5)),
        ("F_h_chi0", (1, 2, 2, 5)),
        ("G_h_chip", (1, 2, 5)),
        ("G_h_chi0", (1, 2, 5)),
    ):
        def wrong_at(value):
            if isinstance(value, int):
                return -value
            return RadicalValue(-value.coeff, value.unit, value.radicand)

        wrong_at.cell = cell
        _plant(monkeypatch, name, wrong_at)
    report = suite_appendix(5)
    assert report.cases == 500
    assert [f.structure for f in report.failures] == [
        "gauss-trivial(h=1,l=2)",
        "gauss-quadratic(h=1,l=2)",
        "sine-trivial(h=1,l=2,c=2)",
        "sine-quadratic(h=1,l=2,c=2)",
    ]


def test_appendix_reports_a_wrong_cosine_product_sign(monkeypatch):
    def wrong_at(value):
        return RadicalValue(-value.coeff, value.unit, value.radicand)

    wrong_at.cell = ("cos", 7, 5)
    assert _planted_failures(monkeypatch, "trig_prod", wrong_at) == [
        {"params": "p=5", "structure": "trig-product(cos,k=7)", "ell": None,
         "expected": "-1", "got": "1"},
    ]


def test_appendix_reports_a_wrong_gauss_sum_unit(monkeypatch):
    def wrong_at(value):
        return RadicalValue(value.coeff, UNIT_I, value.radicand)  # i sqrt(5), not sqrt(5)

    wrong_at.cell = (1, 1, 5)
    assert _planted_failures(monkeypatch, "G_h_chip", wrong_at) == [
        {"params": "p=5", "structure": "gauss-quadratic(h=1,l=1)", "ell": None,
         "expected": "2*z^3 -1*z^5 +2*z^7", "got": "1 +2*z^4 -2*z^6"},
    ]


def test_a_closed_form_that_raises_is_a_failed_case_at_each_prime(monkeypatch):
    # the closed form is called inside the check: a ValueError or OverflowError
    # it raises is one failure entry per prime, in check order, its text the
    # expected side, and the suite goes on
    right_G, right_F = charsums.G_h_chip, charsums.F_h_chip

    def G(h, l, p):
        if (h, l) == (1, 2):
            raise OverflowError("planted overflow")
        return right_G(h, l, p)

    def F(h, l, c, p):
        if (h, l, c) == (1, 2, 3):
            raise ValueError("planted refusal")
        return right_F(h, l, c, p)

    monkeypatch.setattr(charsums, "G_h_chip", G)
    monkeypatch.setattr(charsums, "F_h_chip", F)
    report = suite_appendix(5)
    assert report.cases == 500
    gauss, sine = "gauss-quadratic(h=1,l=2)", "sine-quadratic(h=1,l=2,c=3)"
    assert [(f.params, f.structure, f.ell, f.expected, f.got) for f in report.failures] == [
        ("p=3", gauss, None, "planted overflow", "1 -2*z^2"),
        ("p=3", sine, None, "planted refusal", "0"),
        ("p=5", gauss, None, "planted overflow", "-1 -2*z^4 +2*z^6"),
        ("p=5", sine, None, "planted refusal", "-1 -2*z^4 +2*z^6"),
    ]


def test_appendix_calls_every_closed_form_per_cell_and_embeds_each_object_once(monkeypatch):
    # each cell calls its closed form once; embed runs once per distinct
    # (object, scale, i_pow) of a prime, as the forms' outputs determine
    calls, returned, embedded = Counter(), [], []

    def count(name, scale_and_i_pow):
        right = getattr(charsums, name)

        def closed(*args):
            P = as_prime(args[-1])
            value = right(*args)
            calls[name, P.p] += 1
            # the value is kept, so no two objects of the run share an id
            returned.append(((P.p, id(value), *scale_and_i_pow(args[0], P)), value))
            return value

        monkeypatch.setattr(charsums, name, closed)

    for name in ("G_h_chi0", "G_h_chip"):
        count(name, lambda h, P: (1, 0))
    for name in ("F_h_chi0", "F_h_chip"):
        count(name, lambda h, P: (2, 1))  # F_direct is 2i F
    count("trig_prod", lambda kind, P: (2**P.q, P.q if kind == "sin" else 0))
    right_embed = CyclotomicRing.embed

    def embed(self, value, scale=1, i_pow=0):
        embedded.append((self.p, id(value), scale, i_pow))
        return right_embed(self, value, scale, i_pow)

    monkeypatch.setattr(CyclotomicRing, "embed", embed)
    report = suite_appendix(7)
    assert report.ok
    for p in (3, 5, 7):
        for name in ("G_h_chi0", "G_h_chip"):
            assert calls[name, p] == 2 * p
        for name in ("F_h_chi0", "F_h_chip"):
            assert calls[name, p] == 2 * p * 2 * p
        assert calls["trig_prod", p] == 2 * 3 * p
    assert len(embedded) == len(set(embedded))
    assert set(embedded) == {key for key, _ in returned}


def test_a_wrong_shared_closed_form_object_fails_only_its_cell(monkeypatch):
    # F_h_chip returns one of five shared objects; at (h, l, c) = (2, 3, 4),
    # p = 5, it returns the negated one, after both were embedded at earlier
    # cells: the memo is keyed by the object, so only that cell fails
    right = charsums.F_h_chip
    shared = charsums._half_root_multiples(5)
    earlier = []

    def planted(h, l, c, p):
        value = right(h, l, c, p)
        if as_prime(p).p != 5:
            return value
        if (h, l, c) == (2, 3, 4):
            index = next(i for i, v in enumerate(shared) if v is value)
            planted.cell = value, shared[4 - index]  # -diff for diff
            return planted.cell[1]
        earlier.append(value)
        return value

    monkeypatch.setattr(charsums, "F_h_chip", planted)
    report = suite_appendix(5)
    value, wrong = planted.cell
    assert wrong is not value and not wrong.is_zero()
    assert any(v is value for v in earlier) and any(v is wrong for v in earlier)
    assert report.cases == 500
    assert [f.to_dict() for f in report.failures] == [
        {
            "params": "p=5",
            "structure": "sine-quadratic(h=2,l=3,c=4)",
            "ell": None,
            "expected": "1 +2*z^4 -2*z^6",
            "got": "-1 -2*z^4 +2*z^6",
        }
    ]
    assert report.failures[0].expected == ring(5).to_str(ring(5).embed(wrong, 2, 1))


@pytest.mark.parametrize("keyword", ("tol", "trig_tol"))
@pytest.mark.parametrize(
    "bad", ("x", b"1", None, True, False, [1e-8], 1j, 0, -1e-8, float("nan"), -math.inf)
)
def test_suite_appendix_refuses_a_tolerance_that_is_not_a_positive_real(keyword, bad):
    # a str or None raised TypeError from the comparison, and True passed it
    with pytest.raises(ValueError, match=f"^{keyword} must be a positive real number, got "):
        suite_appendix(3, **{keyword: bad})


def test_suite_appendix_takes_any_positive_real_tolerance():
    for tol in (1e-8, 1, Fraction(1, 10**8), math.inf):
        assert suite_appendix(3, tol=tol, trig_tol=tol).cases == 150


NOT_AN_INT = st.one_of(
    st.sampled_from((1.0, 3.0, True, False, Fraction(1), Fraction(3), "1", None)),
    st.floats(allow_nan=True),
    st.fractions(),
    st.text(max_size=3),
)
NOT_A_CHARACTER = st.one_of(
    st.sampled_from(("chi0", "chip", 0, 1, None, CharacterChoice)), st.text(max_size=4)
)

# each entry point with arguments that read a table when called on a prime
CHARSUM_ENTRY_POINTS = (
    (gauss_direct, ("h", "chi", "l"), (1, CHIP, 3)),
    (G_h_chi0, ("h", "l"), (1, 3)),
    (G_h_chip, ("h", "l"), (2, 3)),
    (F_h_chi0, ("h", "l", "c"), (1, 3, 2)),
    (F_h_chip, ("h", "l", "c"), (2, 3, 2)),
    (F_direct, ("h", "chi", "l", "c"), (1, CHIP, 3, 2)),
    (trig_prod, ("kind", "k"), ("cos", 3)),
    (trig_prod_direct, ("kind", "k"), ("sin", 3)),
)
CHARSUM_CACHES = (
    charsums._gauss_terms,
    charsums._half_root_multiples,
    charsums._trig_literals,
)


@settings(deadline=None, max_examples=60)
@given(NOT_AN_INT, NOT_A_CHARACTER, st.sampled_from((7, 11, 13)))
def test_charsums_refuse_anything_but_ints_and_characters_cold_and_warm(bad, bad_chi, p):
    for cache in CHARSUM_CACHES:
        cache.cache_clear()
    cold, warm = OddPrime(p), OddPrime(p)
    for func, _, args in CHARSUM_ENTRY_POINTS[:-2]:  # the trig products read no character
        func(*args, warm)
    for func, names, args in CHARSUM_ENTRY_POINTS:
        for i, name in enumerate(names):
            if name == "kind":
                continue
            if name == "chi":
                wrong, message = bad_chi, "chi must be a CharacterChoice, got "
            else:
                wrong, message = bad, f"{name} must be an int, got "
            for P in (cold, warm):
                with pytest.raises(ValueError, match=message):
                    func(*args[:i], wrong, *args[i + 1 :], P)
    assert cold._table is None
    for func, _, args in CHARSUM_ENTRY_POINTS[-2:]:
        assert func(*args, warm) is not None


@pytest.mark.parametrize(
    "kind, p, message",
    [
        ("tan", as_prime(7), "kind must be 'sin' or 'cos', got 'tan'"),  # was KeyError
        ("cos", 9, "p must be prime, got 9"),
        ("cos", 7.0, "p must be an int, got 7.0"),
    ],
)
def test_half_period_product_refuses_a_bad_kind_or_prime(kind, p, message):
    with pytest.raises(ValueError, match=message):
        charsums.half_period_product(kind, p)


def test_half_period_product_takes_a_prime_as_an_int():
    # an int p raised AttributeError on p.p
    assert charsums.half_period_product("cos", 7) == charsums.half_period_product(
        "cos", as_prime(7)
    )


def test_charsums_wrong_types_that_used_to_pass():
    with pytest.raises(ValueError, match="chi must be a CharacterChoice, got 'chi0'"):
        gauss_direct(1, "chi0", 0, 7)
    with pytest.raises(ValueError, match="l must be an int, got 1.5"):
        G_h_chi0(1, 1.5, 7)
    with pytest.raises(ValueError, match="l must be an int, got 1.5"):
        F_h_chi0(1, 1.5, 1, 7)
    with pytest.raises(ValueError, match="k must be an int, got 1.5"):
        trig_prod_direct("sin", 1.5, 7)
    with pytest.raises(ValueError, match="k must be an int, got True"):
        trig_prod("cos", True, 7)
