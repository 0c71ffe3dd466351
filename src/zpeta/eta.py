"""Eta series, eta invariants, reduced invariants, and verification suites.

Only exceptional manifolds ((b, c) = (0, 1), dimension n = a(p-1) + 1)
have an asymmetric twisted Dirac spectrum; everywhere else the eta
series vanishes identically.  The series is pi^{-s} sum_c d_c (2c - [h=2])^{-s}
over the p-periodic multiplicity differences d_c = mult_diff_by_index,
so one period, regrouped, is a finite combination of Hurwitz zeta values

    eta_{ell,h}(s) = (2 pi p)^{-s} sum_{r=1}^{p} d_r zeta(s, (2r - [h=2])/2p),

an EtaClosedForm (p, scale, terms) with scale p^{[a/2]}.  Evaluating at
s = 0 via zeta(0, alpha) = 1/2 - alpha turns the series into the exact
eta invariant, and this evaluation must coincide with the independent
split-sum closed forms; both paths are implemented and the equality is
part of the test contract.

The reduced invariant is etabar = (eta + dim ker) / 2.  Its residue
mod Z vanishes for every manifold in the family except the
three-dimensional one with p = 3, where the residue is 2/3.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from numbers import Real

from .exact import ResidueModZ, reduce_mod_Z
from .manifold import EvenDimensionError, SpinStructure, ZpParams
from .numtheory import S_split, check_ints, class_number
from .spectrum import dim_ker, mult_diff_by_index


class DomainError(ValueError):
    """Numeric evaluation requested outside the supported domain."""


_EM_TERMS = 50  # leading direct terms before the Euler-Maclaurin tail


def _check_s_type(s: float, what: str) -> None:
    # a str, bytes or None would fail the comparison with TypeError, a bool pass it
    if not isinstance(s, (int, float)) or isinstance(s, bool):
        raise ValueError(f"{what} needs s to be an int or float, got {s!r}")


def _check_s(s: float, what: str) -> None:
    _check_s_type(s, what)
    # nan fails every comparison, so this also refuses it
    if not 1 < s < math.inf:
        raise DomainError(f"{what} needs finite s > 1, got s = {s}")


def hurwitz_zeta(s: float, alpha) -> float:
    """zeta(s, alpha) = sum_{n>=0} (n + alpha)^{-s} for real s > 1.

    Direct summation of the first 50 terms plus the Euler-Maclaurin
    tail: integral, half-term, and the first two Bernoulli corrections.
    Absolute error is far below 1e-10 for 2 <= s <= 10.  An s so large
    that a term leaves the range of a double is a DomainError.
    """
    _check_s(s, "hurwitz_zeta")
    # float() would read "0.5" and b"1", and True as 1
    if not isinstance(alpha, Real) or isinstance(alpha, bool):
        raise ValueError(f"alpha must be a real number, got {alpha!r}")
    a = float(alpha)
    if not 0 < a <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    try:
        total = 0.0
        for n in range(_EM_TERMS):
            total += (n + a) ** -s
        x = _EM_TERMS + a
        total += x ** (1.0 - s) / (s - 1.0)
        total += 0.5 * x**-s
        total += (s / 12.0) * x ** (-s - 1.0)
        total -= (s * (s + 1.0) * (s + 2.0) / 720.0) * x ** (-s - 3.0)
    except OverflowError:  # raised by **; * and + overflow to inf or nan instead
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"hurwitz_zeta overflows a double at s = {s}")
    return total


@dataclass(frozen=True)
class EtaClosedForm:
    """Finite Hurwitz-zeta combination representing one eta series.

    Value at s: scale * (2 pi p)^{-s} * sum coeff * zeta(s, alpha), with
    each alpha a Fraction in (0, 1] whose denominator divides 2p and each
    coeff an int.  The zero series has an empty term list.
    """

    p: int
    scale: int
    terms: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        check_ints("p scale", self.p, self.scale)
        for alpha, coeff in self.terms:
            if not isinstance(alpha, Fraction):
                raise ValueError(f"alpha must be a Fraction, got {alpha!r}")
            check_ints("coeff", coeff)
            if not 0 < alpha <= 1:
                raise ValueError(f"alpha out of (0, 1]: {alpha}")
            if (2 * self.p) % alpha.denominator != 0:
                raise ValueError(f"alpha denominator must divide 2p: {alpha}")

    @classmethod
    def zero(cls, p: int) -> "EtaClosedForm":
        return cls(p, 1, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def at_zero(self) -> Fraction:
        """Exact value at s = 0 via zeta(0, alpha) = 1/2 - alpha."""
        acc = sum((Fraction(1, 2) - alpha) * coeff for alpha, coeff in self.terms)
        return self.scale * Fraction(acc)


def _period(params: ZpParams, h: int, ell: int) -> list[int]:
    """d_1, ..., d_p of mult_diff_by_index: one period in the series index c."""
    return [mult_diff_by_index(params, h, ell, c) for c in range(1, params.p + 1)]


def eta_series_closed_form(params: ZpParams, h: int, ell: int) -> EtaClosedForm:
    """Hurwitz-zeta closed form of the twisted eta series.

    The spectral terms c = r + kp, k >= 0, of one residue r share d_r, and
    sum_k (2(r + kp) - [h=2])^{-s} = (2p)^{-s} zeta(s, (2r - [h=2])/2p).
    The terms are the nonzero d_r over the scale p^{[a/2]}.  The zero form
    when every d_r is 0: on every non-exceptional manifold (symmetric
    spectrum), for even a with ell = 0, and for odd a, p = 1 (4), ell = 0.
    """
    period = _period(params, h, ell)
    if not any(period):  # before the scale, which has millions of digits at a = 10^7
        return EtaClosedForm.zero(params.p)
    p, scale = params.p, params.p ** (params.a // 2)
    delta = 1 if h == 2 else 0
    terms = tuple(
        (Fraction(2 * r - delta, 2 * p), d // scale) for r, d in enumerate(period, 1) if d
    )
    return EtaClosedForm(p, scale, terms)


def eta_series_eval(form: EtaClosedForm, s: float) -> float:
    """Numeric value of a closed form at finite real s > 1.

    An s so large that the value overflows, or that it or (2 pi p)^{-s}
    is below the smallest normal double (too few bits left), is a
    DomainError; so is a scale beyond the largest double.
    """
    if form.is_zero:  # 0 at any real s, but s must still be a number
        _check_s_type(s, "eta series evaluation")
        return 0.0
    _check_s(s, "eta series evaluation")
    acc = sum(coeff * hurwitz_zeta(s, alpha) for alpha, coeff in form.terms)
    factor = (2.0 * math.pi * form.p) ** (-s)
    try:
        value = form.scale * factor * acc
    except OverflowError:  # raised by int -> float of the scale
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"eta series evaluation overflows a double at s = {s}")
    if factor < sys.float_info.min or abs(value) < sys.float_info.min:
        raise DomainError(f"eta series evaluation underflows a double at s = {s}")
    return value


def eta_spectral_partial(params: ZpParams, h: int, ell: int, s: float, terms: int) -> float:
    """Truncated spectral eta sum (1/pi^s) sum_c (d+ - d-) / (2c - [h=2])^s.

    The first `terms` (at least 1) admissible eigenvalue parameters in
    ascending order, d_c read from one period; identically 0 for
    non-exceptional manifolds.  An s so large that (2c - [h=2])^s or pi^s
    overflows a double is a DomainError.
    """
    _check_s(s, "spectral partial sum")
    if type(terms) is not int or terms < 1:
        raise ValueError(f"terms must be a positive integer, got {terms!r}")
    period = _period(params, h, ell)
    if not params.exceptional:
        return 0.0
    p = params.p
    delta = 1 if h == 2 else 0
    total = 0.0
    try:
        for c in range(1, terms + 1):
            d = period[(c - 1) % p]
            if d:
                total += d / float(2 * c - delta) ** s
        return total / math.pi**s
    except OverflowError:
        raise DomainError(f"spectral partial sum overflows a double at s = {s}") from None


_ZERO = Fraction(0)  # immutable, so every vanishing eta can be this one object


def eta_invariant(params: ZpParams, h: int, ell: int) -> Fraction:
    """Exact twisted eta invariant; 0 for non-exceptional manifolds.

    With r = [n/4], q = (p-1)/2, t = [p/4] and the difference sums S_h of
    numtheory.S_split:

      a even:  0 at ell = 0, else
               h=1: (-1)^r p^{a/2-1} (p - 2 ell)
               h=2: (-1)^r p^{a/2-1} 2 ([2 ell/p] p - ell)
      a odd:   (-1)^{sigma+r+1} p^{(a-3)/2} S_h(ell), sigma = t (h=1), q (h=2)
    """
    if not type(h) is type(ell) is int:  # skips a call per twist
        check_ints("h ell", h, ell)
    if h not in (1, 2):
        raise ValueError(f"h must be 1 or 2, got {h}")
    if not params.exceptional:
        return _ZERO
    P = params.prime
    p, a = P.p, params.a
    ell %= p
    r = params.n // 4
    if a % 2 == 0:
        if ell == 0:
            return _ZERO
        sgn = -1 if r % 2 else 1
        scale = p ** (a // 2 - 1)
        if h == 1:
            return Fraction(sgn * scale * (p - 2 * ell))
        return Fraction(sgn * scale * 2 * ((2 * ell) // p * p - ell))
    sgn = -1 if ((P.t if h == 1 else P.q) + r + 1) % 2 else 1
    return Fraction(sgn * p ** ((a - 1) // 2) * S_split(h, ell, P), p)


def eta_invariant_via_series(params: ZpParams, h: int, ell: int) -> Fraction:
    """Exact eta invariant from the series closed form at s = 0: the sum
    over one period of d_r (1/2 - alpha_r)."""
    return eta_series_closed_form(params, h, ell).at_zero()


@dataclass(frozen=True)
class InvariantRecord:
    """The invariants of one (structure, twist) pair.  The pair is where the
    record sits: at index ell of ``structure_records(params, structure)``."""

    eta: Fraction
    dim_ker: int
    eta_bar: Fraction
    eta_bar_mod_Z: ResidueModZ
    relative_mod_Z: ResidueModZ


def _half_sum(eta: Fraction, d: int) -> Fraction:
    """(eta + d)/2 on numerator and denominator: one normalising Fraction."""
    den = eta.denominator
    return Fraction(eta.numerator + d * den, 2 * den)


def _relative(bar: Fraction, bar_0: Fraction) -> ResidueModZ:
    """(bar - bar_0) mod Z on numerators and denominators: one normalising
    Fraction."""
    den, den_0 = bar.denominator, bar_0.denominator
    den_r = den * den_0
    return ResidueModZ(Fraction((bar.numerator * den_0 - bar_0.numerator * den) % den_r, den_r))


def _record(eta_l: Fraction, d_l: int, bar_l: Fraction, bar_0: Fraction) -> InvariantRecord:
    return InvariantRecord(eta_l, d_l, bar_l, reduce_mod_Z(bar_l), _relative(bar_l, bar_0))


def _record_inputs(
    params: ZpParams, structure: SpinStructure
) -> tuple[list[Fraction], int, int]:
    """The closed-form values the records of one structure read, evaluated
    at this manifold: eta at every twist ell = 0, ..., p - 1, and dim ker
    at ell = 0 and ell = 1 (it depends on ell only through whether p
    divides ell).  Needs odd n and one of the record's own structures:
    dim ker is taken first, so ``dim_ker`` refuses a foreign structure
    before any eta is computed."""
    if not params.n_odd:
        raise EvenDimensionError(f"invariants need odd n (b + c odd), got even n = {params.n}")
    d_0, d_1 = dim_ker(params, structure, 0), dim_ker(params, structure, 1)
    h = structure.h
    return [eta_invariant(params, h, ell) for ell in range(params.p)], d_0, d_1


def _records_from(etas: list[Fraction], d_0: int, d_1: int) -> list[InvariantRecord]:
    """The records of ``_record_inputs``' values: pure arithmetic.

    etabar_0 is computed once, and for ell >= 2 a twist whose eta equals
    the previous twist's holds that same record, with no arithmetic.
    """
    eta_0 = etas[0]
    bar_0 = _half_sum(eta_0, d_0)
    records = [_record(eta_0, d_0, bar_0, bar_0)]
    for ell in range(1, len(etas)):
        eta_l = etas[ell]
        last = records[-1]
        if ell == 1 or eta_l != last.eta:
            last = _record(eta_l, d_1, _half_sum(eta_l, d_1), bar_0)
        records.append(last)
    return records


def structure_records(params: ZpParams, structure: SpinStructure) -> list[InvariantRecord]:
    """The invariants of one structure at the twists ell = 0, ..., p - 1.

    Record ell holds eta, dim ker, etabar = (eta + dim ker)/2, its
    residue mod Z, and relative_mod_Z, the residue of etabar_ell -
    etabar_0 for the same structure.

    The closed forms are evaluated here (``_record_inputs``) and the
    records built from their values alone (``_records_from``): a
    non-exceptional structure has 2 record objects.  Needs odd n and one
    of the record's own structures, checked before any eta is computed.
    """
    return _records_from(*_record_inputs(params, structure))


def untwisted_closed_form(params: ZpParams, structure: SpinStructure) -> Fraction:
    """Closed form for etabar at ell = 0, bypassing the series machinery.

    Trivial structure, non-exceptional:
        (1/p) 2^{(b+c-3)/2} (2^{(a+b)(p-1)/2} + (2/p)^{a+b} (p-1))
    Trivial structure, exceptional:
        (1/2p) (2^{(n-1)/2} + (2/p)^a (p-1)) - C
    Non-trivial structures: (1 - (2/p)) C for h = 2, 0 for h = 1.
    The class-number term C is (-1)^{(a-1)/2} 2 p^{(a-1)/2} h(-p)/w(-p)
    on an exceptional manifold with a odd and p = 3 (4), else 0.  Needs
    odd n and one of the record's own structures.
    """
    if not params.n_odd:
        raise EvenDimensionError(f"untwisted closed form needs odd n, got n = {params.n}")
    params.check_structure(structure)
    P = params.prime
    p, a = P.p, params.a
    l2 = P.legendre(2)
    class_term = Fraction(0)
    if params.exceptional and a % 2 == 1 and p % 4 == 3:
        sgn = -1 if ((a - 1) // 2) % 2 else 1
        omega = 6 if p == 3 else 2
        class_term = sgn * 2 * p ** ((a - 1) // 2) * Fraction(class_number(P), omega)
    if not structure.trivial_type:
        return (1 - l2) * class_term if structure.h == 2 else Fraction(0)
    if params.exceptional:
        return Fraction(2 ** ((params.n - 1) // 2) + l2**a * (p - 1), 2 * p) - class_term
    ab = params.a + params.b
    num = 2 ** ((params.beta1 - 3) // 2) * (2 ** (ab * P.q) + l2**ab * (p - 1))
    return Fraction(num, p)


# ---------------------------------------------------------------------------
# verification suites


@dataclass(frozen=True)
class FailureEntry:
    params: str
    structure: str
    ell: int | None
    expected: str
    got: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    """Certificate report for one verification suite."""

    suite: str
    cases: int = 0
    failures: list[FailureEntry] = field(default_factory=list)
    expected_exceptions: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def passed(self) -> int:
        return self.cases - len(self.failures)

    def check(self, ok: bool, params: str, structure: str, ell: int | None, expected, got) -> None:
        """Count one comparison.  expected and got go through str (for a
        Fraction that is its rational_str) only when the check fails."""
        self.cases += 1
        if not ok:
            self.failures.append(FailureEntry(params, structure, ell, str(expected), str(got)))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "failures": [f.to_dict() for f in self.failures],
            "expected_exceptions": self.expected_exceptions,
        }


def _structure_desc(s: SpinStructure) -> str:
    kind = "trivial" if s.trivial_type else "nontrivial"
    desc = f"{kind},h={s.h}"
    if s.deltas:
        desc += f",deltas={s.label}"
    return desc


def structure_classes(params: ZpParams) -> list[SpinStructure]:
    """One representative of each structure class: the trivial type
    (all-plus, h = 1), then the rest (all-plus, h = 2).

    dim ker reads only whether a structure has the trivial type, and eta
    only h, and that only on the exceptional manifolds (the series vanishes
    elsewhere), whose two structures these are.  So every structure has the
    invariants of its class representative: no sweep needs 2^{b+c} labels.
    The two structures are built once per b + c; the list is fresh.
    """
    return list(_class_representatives(params.beta1))


@lru_cache(maxsize=256)
def _class_representatives(beta1: int) -> tuple[SpinStructure, SpinStructure]:
    deltas = (1,) * (beta1 - 1)
    return SpinStructure(deltas, 1), SpinStructure(deltas, 2)


_TRICOSM_KEY = (3, 1, 0, 1)


def verify_integrality(sweep: list[ZpParams]) -> Report:
    """Check etabar mod Z = 0 (2/3 for the p = n = 3 manifold) and the
    vanishing of every relative residue etabar_ell - etabar_0.

    The records read nothing but the values of ``_record_inputs``, so
    those are evaluated at every manifold, and the verdict of their
    records (``_integrality_verdict``) is decided once per distinct value
    tuple in this sweep.  The reuse is keyed by the values, never by the
    manifold's label: each (manifold, structure) counts its 2p cases and
    replays the verdict under its own name.
    """
    report = Report("integrality")
    verdicts = {}  # the key of the values -> _integrality_verdict of their records
    for params in sorted(sweep, key=ZpParams.key):
        is_tricosm = params.key() == _TRICOSM_KEY
        for structure in structure_classes(params):
            etas, d_0, d_1 = _record_inputs(params, structure)
            # is_tricosm picks the expected residue; each eta as (numerator,
            # denominator), since Fraction.__hash__ runs in Python
            key = (is_tricosm, d_0, d_1, *[(e.numerator, e.denominator) for e in etas])
            if key not in verdicts:
                verdicts[key] = _integrality_verdict(_records_from(etas, d_0, d_1), is_tricosm)
            failed, exceptions = verdicts[key]
            report.cases += 2 * params.p  # (residue, relative) at each twist
            if failed or exceptions:
                name, desc = str(params), _structure_desc(structure)
                report.failures.extend(FailureEntry(name, desc, *f) for f in failed)
                report.expected_exceptions.extend(
                    {"params": name, "structure": desc, **tail} for tail in exceptions
                )
    return report


def _integrality_verdict(
    records: list[InvariantRecord], is_tricosm: bool
) -> tuple[list[tuple[int, str, str]], list[dict]]:
    """The failed comparisons of the records, as (ell, expected, got), the
    residue before the relative residue at each ell; and the expected
    exceptions of the p = n = 3 manifold (residue 2/3), as the ell,
    residue and note of their entries."""
    expected = Fraction(2, 3) if is_tricosm else _ZERO
    failed, exceptions = [], []
    for ell, rec in enumerate(records):
        if rec.eta_bar_mod_Z.value != expected:
            failed.append((ell, str(expected), str(rec.eta_bar_mod_Z)))
        elif is_tricosm:
            exceptions.append(
                {"ell": ell, "residue": str(rec.eta_bar_mod_Z), "note": "expected-exception"}
            )
        if not rec.relative_mod_Z.is_zero():
            failed.append((ell, "0", str(rec.relative_mod_Z)))
    return failed, exceptions


def verify_parity(sweep: list[ZpParams]) -> Report:
    """Exceptional manifolds with (p, a) != (3, 1): eta is an integer,
    even at ell = 0, odd for h = 1 / even for h = 2 at ell != 0."""
    report = Report("parity")
    for params in sorted(sweep, key=ZpParams.key):
        if not params.exceptional or (params.p, params.a) == (3, 1):
            continue
        name = str(params)
        for h in (1, 2):
            desc = f"h={h}"
            for ell in range(params.p):
                eta = eta_invariant(params, h, ell)
                if eta.denominator != 1:
                    ok = False
                    expected = "integer"
                elif ell == 0 or h == 2:
                    ok = eta.numerator % 2 == 0
                    expected = "even integer"
                else:
                    ok = eta.numerator % 2 == 1
                    expected = "odd integer"
                report.check(ok, name, desc, ell, expected, eta)
    return report


def verify_untwisted(sweep: list[ZpParams]) -> Report:
    """untwisted_closed_form must equal the assembled etabar at ell = 0."""
    report = Report("untwisted")
    for params in sorted(sweep, key=ZpParams.key):
        for structure in structure_classes(params):
            closed = untwisted_closed_form(params, structure)
            eta_0 = eta_invariant(params, structure.h, 0)
            assembled = _half_sum(eta_0, dim_ker(params, structure, 0))
            report.check(
                closed == assembled, str(params), _structure_desc(structure), 0, assembled, closed
            )
    return report
