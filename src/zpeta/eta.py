"""Eta series, eta invariants, reduced invariants, and verification suites.

Only exceptional manifolds ((b, c) = (0, 1), dimension n = a(p-1) + 1)
have an asymmetric twisted Dirac spectrum; everywhere else the eta
series vanishes identically.  In the exceptional case the series is a
finite combination of Hurwitz zeta values

    eta_{ell,h}(s) = sign * scale * (2 pi p)^{-s}
                     * sum_j coeff_j * zeta(s, alpha_j),

with every alpha_j a rational in (0, 1] of denominator dividing 2p.
Evaluating at s = 0 via zeta(0, alpha) = 1/2 - alpha turns the series
into the exact eta invariant, and this evaluation must coincide with
the independent split-sum closed forms; both paths are implemented and
the equality is part of the test contract.

The reduced invariant is etabar = (eta + dim ker) / 2.  Its residue
mod Z vanishes for every manifold in the family except the
three-dimensional one with p = 3, where the residue is 2/3.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import ResidueModZ, reduce_mod_Z
from .manifold import (
    EvenDimensionError,
    SpinStructure,
    ZpParams,
    nontrivial_structure,
    trivial_structure,
)
from .numtheory import S_h_pm, as_prime, class_number
from .spectrum import dim_ker, mult_diff_by_index


class DomainError(ValueError):
    """Numeric evaluation requested outside the supported domain."""


_EM_TERMS = 50  # leading direct terms before the Euler-Maclaurin tail


def _check_s(s: float, what: str) -> None:
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

    Value at s: sign * scale * (2 pi p)^{-s} * sum coeff * zeta(s, alpha).
    The zero series has an empty term list.
    """

    p: int
    sign: int
    scale: int
    terms: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        for alpha, _ in self.terms:
            if not 0 < alpha <= 1:
                raise ValueError(f"alpha out of (0, 1]: {alpha}")
            if (2 * self.p) % alpha.denominator != 0:
                raise ValueError(f"alpha denominator must divide 2p: {alpha}")

    @classmethod
    def zero(cls, p: int) -> "EtaClosedForm":
        return cls(p, 1, 1, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def at_zero(self) -> Fraction:
        """Exact value at s = 0 via zeta(0, alpha) = 1/2 - alpha."""
        acc = sum((Fraction(1, 2) - alpha) * coeff for alpha, coeff in self.terms)
        return self.sign * self.scale * Fraction(acc)


def eta_series_closed_form(params: ZpParams, h: int, ell: int) -> EtaClosedForm:
    """Hurwitz-zeta closed form of the twisted eta series.

    The zero form for every non-exceptional manifold (symmetric
    spectrum) and for even a with ell = 0.
    """
    if h not in (1, 2):
        raise ValueError(f"h must be 1 or 2, got {h}")
    P = as_prime(params.p)
    p = P.p
    if not params.exceptional:
        return EtaClosedForm.zero(p)
    a = params.a
    ell %= p
    r = params.n // 4
    if a % 2 == 0:
        if ell == 0:
            return EtaClosedForm.zero(p)
        sign = -1 if r % 2 else 1
        scale = p ** (a // 2)
        if h == 1:
            terms = ((Fraction(ell, p), 1), (Fraction(p - ell, p), -1))
        elif ell <= P.q:
            terms = ((Fraction(p + 2 * ell, 2 * p), 1), (Fraction(p - 2 * ell, 2 * p), -1))
        else:
            terms = ((Fraction(2 * ell - p, 2 * p), 1), (Fraction(3 * p - 2 * ell, 2 * p), -1))
        return EtaClosedForm(p, sign, scale, terms)
    scale = p ** ((a - 1) // 2)
    if h == 1:
        sign = -1 if (P.t + r) % 2 else 1
        terms = tuple(
            (Fraction(j, p), coeff)
            for j in range(1, p)
            if (coeff := P.legendre(ell - j) - P.legendre(ell + j)) != 0
        )
    else:
        sign = -1 if (P.q + r) % 2 else 1
        terms = tuple(
            (Fraction(2 * j + 1, 2 * p), coeff)
            for j in range(p)
            if (coeff := P.legendre(2 * ell - (2 * j + 1)) - P.legendre(2 * ell + (2 * j + 1)))
            != 0
        )
    if not terms:
        return EtaClosedForm.zero(p)
    return EtaClosedForm(p, sign, scale, terms)


def eta_series_eval(form: EtaClosedForm, s: float) -> float:
    """Numeric value of a closed form at finite real s > 1.

    An s so large that the value overflows, or that it or (2 pi p)^{-s}
    is below the smallest normal double (too few bits left), is a DomainError.
    """
    if form.is_zero:
        return 0.0
    _check_s(s, "eta series evaluation")
    acc = sum(coeff * hurwitz_zeta(s, alpha) for alpha, coeff in form.terms)
    factor = (2.0 * math.pi * form.p) ** (-s)
    value = form.sign * form.scale * factor * acc
    if not math.isfinite(value):
        raise DomainError(f"eta series evaluation overflows a double at s = {s}")
    if factor < sys.float_info.min or abs(value) < sys.float_info.min:
        raise DomainError(f"eta series evaluation underflows a double at s = {s}")
    return value


def eta_spectral_partial(params: ZpParams, h: int, ell: int, s: float, terms: int) -> float:
    """Truncated spectral eta sum (1/pi^s) sum_c (d+ - d-) / (2c - [h=2])^s.

    The first `terms` (at least 1) admissible eigenvalue parameters in
    ascending order; identically 0 for non-exceptional manifolds.  An s
    so large that (2c - [h=2])^s or pi^s overflows a double is a
    DomainError.
    """
    if h not in (1, 2):
        raise ValueError(f"h must be 1 or 2, got {h}")
    _check_s(s, "spectral partial sum")
    if type(terms) is not int or terms < 1:
        raise ValueError(f"terms must be a positive integer, got {terms!r}")
    if not params.exceptional:
        return 0.0
    delta = 1 if h == 2 else 0
    total = 0.0
    try:
        for c in range(1, terms + 1):
            d = mult_diff_by_index(params, h, ell, c)
            if d:
                total += d / float(2 * c - delta) ** s
        return total / math.pi**s
    except OverflowError:
        raise DomainError(f"spectral partial sum overflows a double at s = {s}") from None


def _weighted_over_p(P) -> Fraction:
    """(1/p) sum_j (j/p) j as an exact rational (integral iff p >= 5)."""
    return Fraction(P.weighted_sum(), P.p)


def eta_invariant(params: ZpParams, h: int, ell: int) -> Fraction:
    """Exact twisted eta invariant; 0 for non-exceptional manifolds.

    Split-sum closed forms, with q = (p-1)/2, t = [p/4], r = [n/4] and
    W = sum_j (j/p) j:

      a even:  0 at ell = 0, else
               h=1: (-1)^r p^{a/2-1} (p - 2 ell)
               h=2: (-1)^r p^{a/2-1} 2 ([2 ell/p] p - ell)
      a odd, p = 1 (4):
               h=1: (-1)^{t+r+1} p^{(a-1)/2} S_1^-
               h=2: (-1)^{q+r+1} p^{(a-1)/2} (S_2^- - (2/p) S_1^-)
      a odd, p = 3 (4):
               h=1: (-1)^{t+r}  p^{(a-1)/2} (S_1^+ + 2W/p)
               h=2: (-1)^{q+r}  p^{(a-1)/2} (S_2^+ - (2/p) S_1^+ + (1 - (2/p)) 2W/p)
    """
    if h not in (1, 2):
        raise ValueError(f"h must be 1 or 2, got {h}")
    if not params.exceptional:
        return Fraction(0)
    P = as_prime(params.p)
    p, a = P.p, params.a
    ell %= p
    r = params.n // 4
    if a % 2 == 0:
        if ell == 0:
            return Fraction(0)
        sgn = -1 if r % 2 else 1
        scale = p ** (a // 2 - 1)
        if h == 1:
            return Fraction(sgn * scale * (p - 2 * ell))
        return Fraction(sgn * scale * 2 * ((2 * ell) // p * p - ell))
    scale = p ** ((a - 1) // 2)
    two_w_over_p = 2 * _weighted_over_p(P)
    if h == 1:
        if p % 4 == 1:
            sgn = -1 if (P.t + r + 1) % 2 else 1
            return Fraction(sgn * scale * S_h_pm(1, -1, ell, P))
        sgn = -1 if (P.t + r) % 2 else 1
        return sgn * scale * (S_h_pm(1, 1, ell, P) + two_w_over_p)
    two_p = P.legendre(2)
    if p % 4 == 1:
        sgn = -1 if (P.q + r + 1) % 2 else 1
        return Fraction(sgn * scale * (S_h_pm(2, -1, ell, P) - two_p * S_h_pm(1, -1, ell, P)))
    sgn = -1 if (P.q + r) % 2 else 1
    split = S_h_pm(2, 1, ell, P) - two_p * S_h_pm(1, 1, ell, P)
    return sgn * scale * (split + (1 - two_p) * two_w_over_p)


def eta_invariant_via_series(params: ZpParams, h: int, ell: int) -> Fraction:
    """Exact eta invariant by evaluating the series closed form at s = 0."""
    return eta_series_closed_form(params, h, ell).at_zero()


@dataclass(frozen=True)
class InvariantRecord:
    """All invariants of one (structure, twist) pair."""

    ell: int
    structure: SpinStructure
    eta: Fraction
    dim_ker: int
    eta_bar: Fraction
    eta_bar_mod_Z: ResidueModZ
    relative_mod_Z: ResidueModZ


def _need_odd(params: ZpParams) -> None:
    if not params.n_odd:
        raise EvenDimensionError(f"invariants need odd n, got n = {params.n}")


def _eta_bar(
    params: ZpParams, structure: SpinStructure, ell: int
) -> tuple[Fraction, int, Fraction]:
    """(eta, dim ker, etabar = (eta + dim ker)/2) at the twist ell."""
    eta_l = eta_invariant(params, structure.h, ell)
    d_l = dim_ker(params, structure, ell)
    return eta_l, d_l, (eta_l + d_l) / 2


def _record(
    structure: SpinStructure, ell: int, eta_l: Fraction, d_l: int, bar_l: Fraction, bar_0: Fraction
) -> InvariantRecord:
    return InvariantRecord(
        ell=ell,
        structure=structure,
        eta=eta_l,
        dim_ker=d_l,
        eta_bar=bar_l,
        eta_bar_mod_Z=reduce_mod_Z(bar_l),
        relative_mod_Z=reduce_mod_Z(bar_l - bar_0),
    )


def reduced_eta(params: ZpParams, structure: SpinStructure, ell: int) -> InvariantRecord:
    """eta, dim ker, etabar = (eta + dim ker)/2, and the mod-Z residues.

    relative_mod_Z is the residue of etabar_ell - etabar_0 for the same
    structure.  Needs odd n.
    """
    _need_odd(params)
    ell %= params.p
    bar_0 = _eta_bar(params, structure, 0)[2]
    return _record(structure, ell, *_eta_bar(params, structure, ell), bar_0)


def structure_records(params: ZpParams, structure: SpinStructure) -> list[InvariantRecord]:
    """reduced_eta(params, structure, ell) for ell = 0, ..., p - 1.

    etabar_0 is computed once, and dim ker twice: it depends on ell only
    through whether p divides ell.  Needs odd n.
    """
    _need_odd(params)
    eta_0, d_0, bar_0 = _eta_bar(params, structure, 0)
    records = [_record(structure, 0, eta_0, d_0, bar_0, bar_0)]
    d_1 = dim_ker(params, structure, 1)
    for ell in range(1, params.p):
        eta_l = eta_invariant(params, structure.h, ell)
        records.append(_record(structure, ell, eta_l, d_1, (eta_l + d_1) / 2, bar_0))
    return records


def untwisted_closed_form(params: ZpParams, structure: SpinStructure) -> Fraction:
    """Closed form for etabar at ell = 0, bypassing the series machinery.

    Trivial structure, non-exceptional:
        (1/p) 2^{(b+c-3)/2} (2^{(a+b)(p-1)/2} + (-1)^{((p^2-1)/8)(a+b)} (p-1))
    Trivial structure, exceptional:
        (1/2p) (2^{(n-1)/2} + (-1)^{((p^2-1)/8) a} (p-1))
        plus, for a odd and p = 3 (4), the class-number term
        (-1)^{(a-1)/2} * (-2) p^{(a-1)/2} h(-p)/w(-p).
    Non-trivial structures: 0, except the exceptional h = 2 case with
    a odd, p = 3 (4), which is
        (-1)^{(a-1)/2} (1 - (2/p)) 2 p^{(a-1)/2} h(-p)/w(-p).
    """
    if not params.n_odd:
        raise EvenDimensionError(f"untwisted closed form needs odd n, got n = {params.n}")
    P = as_prime(params.p)
    p, a = P.p, params.a
    eps = (p * p - 1) // 8
    omega = 6 if p == 3 else 2
    class_term_applies = params.exceptional and a % 2 == 1 and p % 4 == 3
    if not structure.trivial_type:
        if class_term_applies and structure.h == 2:
            sgn = -1 if ((a - 1) // 2) % 2 else 1
            return (
                sgn
                * (1 - P.legendre(2))
                * 2
                * p ** ((a - 1) // 2)
                * Fraction(class_number(P), omega)
            )
        return Fraction(0)
    if params.exceptional:
        sgn_a = -1 if (eps * a) % 2 else 1
        value = Fraction(2 ** ((params.n - 1) // 2) + sgn_a * (p - 1), 2 * p)
        if class_term_applies:
            sgn = -1 if ((a - 1) // 2) % 2 else 1
            value += sgn * -2 * p ** ((a - 1) // 2) * Fraction(class_number(P), omega)
        return value
    ab = params.a + params.b
    sgn_ab = -1 if (eps * ab) % 2 else 1
    num = 2 ** ((params.beta1 - 3) // 2) * (2 ** (ab * P.q) + sgn_ab * (p - 1))
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
        return {
            "params": self.params,
            "structure": self.structure,
            "ell": self.ell,
            "expected": self.expected,
            "got": self.got,
        }


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

    def record(self, ok: bool, entry: FailureEntry | None = None) -> None:
        """Count one case; a failed case must come with its FailureEntry."""
        if not ok:
            if entry is None:
                raise ValueError("a failed case needs a FailureEntry")
            self.failures.append(entry)
        self.cases += 1

    def check(self, ok: bool, params: str, structure: str, ell: int | None, expected, got) -> None:
        """Record one comparison.  expected and got go through str (for a
        Fraction that is its rational_str) only when the check fails."""
        if ok:
            self.record(True)
        else:
            self.record(False, FailureEntry(params, structure, ell, str(expected), str(got)))

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
    """The two invariant-distinguishing structure classes.

    Invariants depend only on trivial-type vs not (and on h for the
    exceptional manifolds, where these two classes are the only
    structures), so sweeps never need all 2^{b+c} sign labels.
    """
    return [trivial_structure(params), nontrivial_structure(params)]


_TRICOSM_KEY = (3, 1, 0, 1)


def verify_integrality(sweep: list[ZpParams]) -> Report:
    """Check etabar mod Z = 0 (2/3 for the p = n = 3 manifold) and the
    vanishing of every relative residue etabar_ell - etabar_0."""
    report = Report("integrality")
    for params in sorted(sweep, key=ZpParams.key):
        name = str(params)
        is_tricosm = params.key() == _TRICOSM_KEY
        expected = Fraction(2, 3) if is_tricosm else Fraction(0)
        for structure in structure_classes(params):
            desc = _structure_desc(structure)
            for rec in structure_records(params, structure):
                residue_ok = rec.eta_bar_mod_Z.value == expected
                if is_tricosm and residue_ok:
                    report.expected_exceptions.append(
                        {
                            "params": name,
                            "structure": desc,
                            "ell": rec.ell,
                            "residue": str(rec.eta_bar_mod_Z),
                            "note": "expected-exception",
                        }
                    )
                report.check(residue_ok, name, desc, rec.ell, expected, rec.eta_bar_mod_Z)
                relative = rec.relative_mod_Z
                report.check(relative.is_zero(), name, desc, rec.ell, 0, relative)
    return report


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
            assembled = _eta_bar(params, structure, 0)[2]
            report.check(
                closed == assembled, str(params), _structure_desc(structure), 0, assembled, closed
            )
    return report
