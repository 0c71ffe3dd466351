"""Command-line front end: invariant tables, verification sweeps, series
numerics, holonomy matrices, class numbers.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import charsums, eta, numtheory, spectrum
from .eta import DomainError, FailureEntry, Report
from .exact import rational_str
from .manifold import (
    EvenDimensionError,
    NotOddError,
    NotPrimeError,
    TorsionViolationError,
    UnsupportedIdealError,
    ZeroHolonomyBlockError,
    ZpParams,
    build_holonomy,
    enumerate_params,
    enumerate_spin_structures,
    holonomy_checks,
    validate,
)

_USAGE_ERRORS = (
    NotPrimeError,
    NotOddError,
    ZeroHolonomyBlockError,
    TorsionViolationError,
    UnsupportedIdealError,
    EvenDimensionError,
    DomainError,
    ValueError,
)


# ---------------------------------------------------------------------------
# verification suites beyond the eta module's own


def _tol_fail(name: str, where: str, expected, got, tol: float) -> FailureEntry | None:
    return FailureEntry(where, name, None, f"{expected}", f"{got} (tol {tol})")


def _appendix_legendre_checks(report: Report, p: int) -> None:
    P = numtheory.as_prime(p)
    tab = P.legendre_table()
    w = P.weighted_sum()
    l2 = tab[2 % p]
    lm1 = tab[(p - 1) % p]
    prefix = [0] * p  # prefix[u] = sum_{j=1}^{u} (j/p)
    for j in range(1, p):
        prefix[j] = prefix[j - 1] + tab[j]

    for ell in range(p):
        for sign in (1, -1):
            for k in range(1, p + 1):
                got = numtheory.sum_legendre_shift(ell, k, sign, P)
                want = -tab[(k * ell) % p]
                report.record(
                    got == want,
                    FailureEntry(f"p={p}", "shifted-sum", ell, str(want), str(got)),
                )
            got = numtheory.sum_legendre_odd_shift(ell, sign, P)
            report.record(
                got == 0, FailureEntry(f"p={p}", "odd-shifted-sum", ell, "0", str(got))
            )

            # weighted sums against their split closed forms (empty prefix = 0)
            fold = (2 * ell) // p * p
            closed = {
                (1, 1): p * prefix[max(ell - 1, 0)] + w,
                (1, -1): lm1 * (p * prefix[p - ell - 1] + w),
                (2, 1): p * prefix[max(2 * ell - fold - 1, 0)] + w,
                (2, -1): lm1 * (p * prefix[max(p + fold - 2 * ell - 1, 0)] + w),
            }
            for factor in (1, 2):
                got = numtheory.weighted_legendre_sum(ell, factor, sign, P)
                want = closed[(factor, sign)]
                report.record(
                    got == want,
                    FailureEntry(
                        f"p={p}", f"weighted-sum(factor={factor})", ell, str(want), str(got)
                    ),
                )
            # odd-index weighted identity
            got = sum(tab[(2 * ell + sign * (2 * j + 1)) % p] * j for j in range(p))
            want = numtheory.weighted_legendre_sum(ell, 2, sign, P) - l2 * (
                numtheory.weighted_legendre_sum(ell, 1, sign, P)
            )
            report.record(
                got == want,
                FailureEntry(f"p={p}", "odd-weighted-sum", ell, str(want), str(got)),
            )

        # difference sums against the split forms
        s1 = numtheory.S_direct(1, ell, P)
        s2 = numtheory.S_direct(2, ell, P)
        if p % 4 == 1:
            want1 = p * numtheory.S_h_pm(1, -1, ell, P)
            want2 = p * (
                numtheory.S_h_pm(2, -1, ell, P) - l2 * numtheory.S_h_pm(1, -1, ell, P)
            )
        else:
            want1 = -p * numtheory.S_h_pm(1, 1, ell, P) - 2 * w
            want2 = (
                -p
                * (numtheory.S_h_pm(2, 1, ell, P) - l2 * numtheory.S_h_pm(1, 1, ell, P))
                + 2 * (l2 - 1) * w
            )
        report.record(
            s1 == want1, FailureEntry(f"p={p}", "difference-sum-1", ell, str(want1), str(s1))
        )
        report.record(
            s2 == want2, FailureEntry(f"p={p}", "difference-sum-2", ell, str(want2), str(s2))
        )


def _appendix_charsum_checks(report: Report, p: int, tol: float, trig_tol: float) -> None:
    P = numtheory.as_prime(p)
    for h in (1, 2):
        for l in range(p):
            direct = charsums.gauss_direct(h, charsums.CHI0, l, P)
            closed = complex(charsums.G_h_chi0(h, l, P))
            report.record(
                abs(direct - closed) < tol,
                _tol_fail(f"gauss-trivial(h={h},l={l})", f"p={p}", closed, direct, tol),
            )
            direct = charsums.gauss_direct(h, charsums.CHIP, l, P)
            closed = charsums.G_h_chip(h, l, P).to_complex()
            report.record(
                abs(direct - closed) < tol,
                _tol_fail(f"gauss-quadratic(h={h},l={l})", f"p={p}", closed, direct, tol),
            )
            for c in range(1, 2 * p + 1):
                direct = charsums.F_direct(h, charsums.CHI0, l, c, P)
                closed = charsums.F_h_chi0(h, l, c, P).to_complex()
                report.record(
                    abs(direct - closed) < tol,
                    _tol_fail(f"sine-trivial(h={h},l={l},c={c})", f"p={p}", closed, direct, tol),
                )
                direct = charsums.F_direct(h, charsums.CHIP, l, c, P)
                closed = charsums.F_h_chip(h, l, c, P).to_complex()
                report.record(
                    abs(direct - closed) < tol,
                    _tol_fail(
                        f"sine-quadratic(h={h},l={l},c={c})", f"p={p}", closed, direct, tol
                    ),
                )
    for kind in ("sin", "cos"):
        for k in range(1, 3 * p + 1):
            direct = charsums.trig_prod_direct(kind, k, P)
            closed = charsums.trig_prod(kind, k, P).to_complex().real
            report.record(
                abs(direct - closed) < trig_tol,
                _tol_fail(f"trig-product({kind},k={k})", f"p={p}", closed, direct, trig_tol),
            )


def _appendix_for_prime(args: tuple[int, float, float]) -> Report:
    p, tol, trig_tol = args
    report = Report("appendix")
    _appendix_legendre_checks(report, p)
    _appendix_charsum_checks(report, p, tol, trig_tol)
    return report


def suite_appendix(p_max: int = 97, jobs: int = 1, tol: float = 1e-8, trig_tol: float = 1e-9) -> Report:
    """Every auxiliary identity: trig products, twisted Gauss sums, and
    Legendre-weighted sums, closed forms against direct summation."""
    primes = numtheory.odd_primes_upto(p_max)
    work = [(p, tol, trig_tol) for p in primes]
    return _merge_reports("appendix", _pmap(_appendix_for_prime, work, jobs))


def _oracles_for_prime(args: tuple[int, int]) -> Report:
    p, n_max = args
    report = Report("oracles")
    # multiplicity differences, exceptional manifolds, a <= 5
    for a in range(1, 6):
        params = ZpParams(p, a, 0, 1)
        for h in (1, 2):
            for ell in range(p):
                for c in range(1, 3 * p + 1):
                    exact = spectrum.mult_diff_by_index(params, h, ell, c)
                    mu = Fraction(2 * c - (1 if h == 2 else 0), 2)
                    approx = spectrum.mult_diff_oracle(params, h, ell, mu)
                    report.record(
                        abs(exact - approx) < 1e-6,
                        FailureEntry(
                            str(params), f"mult-diff(h={h},c={c})", ell, str(exact), str(approx)
                        ),
                    )
    # kernel dimensions across the sweep restricted to this prime
    for params in enumerate_params(p, n_max):
        if params.p != p:
            continue
        triv = eta.structure_classes(params)[0]
        for ell in range(p):
            exact = spectrum.dim_ker(params, triv, ell)
            approx = spectrum.dim_ker_oracle(params, ell)
            report.record(
                abs(exact - approx) < 1e-6,
                FailureEntry(str(params), "dim-ker", ell, str(exact), str(approx)),
            )
    return report


def suite_oracles(p_max: int = 31, n_max: int = 60, jobs: int = 1) -> Report:
    """Exact spectral quantities against their floating character-sum oracles."""
    primes = numtheory.odd_primes_upto(p_max)
    work = [(p, n_max) for p in primes]
    return _merge_reports("oracles", _pmap(_oracles_for_prime, work, jobs))


def _integrality_chunk(params: list[ZpParams]) -> Report:
    return eta.verify_integrality(params)


def _parity_chunk(params: list[ZpParams]) -> Report:
    return eta.verify_parity(params)


def _untwisted_chunk(params: list[ZpParams]) -> Report:
    return eta.verify_untwisted(params)


_SWEEP_SUITES = {
    "integrality": (_integrality_chunk, 13, 60),
    "parity": (_parity_chunk, 13, 60),
    "untwisted": (_untwisted_chunk, 13, 60),
}


def _chunks(items: list, count: int) -> list[list]:
    if count <= 1 or len(items) <= 1:
        return [items]
    size = max(1, (len(items) + count - 1) // count)
    return [items[i : i + size] for i in range(0, len(items), size)]


def _pmap(fn, work: list, jobs: int) -> list:
    if jobs <= 1:
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, work))


def _merge_reports(suite: str, parts: list[Report]) -> Report:
    merged = Report(suite)
    for part in parts:
        merged.cases += part.cases
        merged.passed += part.passed
        merged.failures.extend(part.failures)
        merged.expected_exceptions.extend(part.expected_exceptions)
    return merged


def run_suite(suite: str, p_max: int | None, n_max: int | None, jobs: int = 1) -> Report:
    if suite in _SWEEP_SUITES:
        fn, def_p, def_n = _SWEEP_SUITES[suite]
        sweep = enumerate_params(
            def_p if p_max is None else p_max, def_n if n_max is None else n_max
        )
        parts = _pmap(fn, _chunks(sweep, jobs), jobs)
        return _merge_reports(suite, parts)
    if suite == "appendix":
        return suite_appendix(97 if p_max is None else p_max, jobs=jobs)
    if suite == "oracles":
        return suite_oracles(
            31 if p_max is None else p_max, 60 if n_max is None else n_max, jobs=jobs
        )
    raise ValueError(f"unknown suite {suite!r}")


# ---------------------------------------------------------------------------
# invariant tables

_CSV_HEADER = [
    "p", "a", "b", "c", "n", "exceptional", "structure", "h", "ell",
    "eta", "dim_ker", "eta_bar", "eta_bar_mod_Z", "relative_mod_Z",
]


def invariant_rows(params: ZpParams) -> list[dict]:
    """One row per (structure, ell), structures in enumeration order."""
    rows = []
    for structure in enumerate_spin_structures(params):
        for ell in range(params.p):
            rec = eta.reduced_eta(params, structure, ell)
            rows.append(
                {
                    "p": params.p,
                    "a": params.a,
                    "b": params.b,
                    "c": params.c,
                    "n": params.n,
                    "exceptional": params.exceptional,
                    "structure": structure.label,
                    "h": structure.h,
                    "ell": ell,
                    "eta": rational_str(rec.eta),
                    "dim_ker": str(rec.dim_ker),
                    "eta_bar": rational_str(rec.eta_bar),
                    "eta_bar_mod_Z": str(rec.eta_bar_mod_Z),
                    "relative_mod_Z": str(rec.relative_mod_Z),
                }
            )
    return rows


def render_rows(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for row in rows:
            writer.writerow(
                [str(row[k]).lower() if k == "exceptional" else row[k] for k in _CSV_HEADER]
            )
        return buf.getvalue()
    if fmt == "table":
        widths = {k: max(len(k), *(len(str(r[k])) for r in rows)) for k in _CSV_HEADER}
        lines = ["  ".join(k.ljust(widths[k]) for k in _CSV_HEADER)]
        for row in rows:
            lines.append("  ".join(str(row[k]).ljust(widths[k]) for k in _CSV_HEADER))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# commands


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_invariants(args) -> int:
    params = validate(args.p, args.a, args.b, args.c, args.ideal)
    if not params.n_odd:
        print(
            "error: even dimension (b + c even): eta vanishes identically and the "
            "kernel formula does not apply",
            file=sys.stderr,
        )
        return 2
    _emit(render_rows(invariant_rows(params), args.format), args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.p_max, args.n_max, args.jobs)
    if report.cases == 0:
        print(f"error: suite {args.suite} checked no cases; widen --p-max or --n-max",
              file=sys.stderr)
        return 2
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    return 0 if report.ok else 1


def cmd_series(args) -> int:
    params = validate(args.p, args.a, args.b, args.c)
    if not params.exceptional:
        print("error: series comparison needs an exceptional manifold ((b,c) = (0,1))",
              file=sys.stderr)
        return 2
    form = eta.eta_series_closed_form(params, args.h, args.ell)
    closed = eta.eta_series_eval(form, args.s)
    partial = eta.eta_spectral_partial(params, args.h, args.ell, args.s, args.terms)
    delta = abs(closed - partial)
    print(f"closed-form   {closed:.12g}")
    print(f"spectral-sum  {partial:.12g}")
    print(f"difference    {delta:.12g}")
    return 0


def cmd_holonomy(args) -> int:
    params = validate(args.p, args.a, args.b, args.c, args.ideal)
    matrix = build_holonomy(params)
    report = holonomy_checks(matrix, params)
    payload = {
        "p": params.p,
        "params": {"p": params.p, "a": params.a, "b": params.b, "c": params.c},
        "blocks": [f"C{params.p}"] * params.a
        + [f"J{params.p}"] * params.b
        + ["1"] * params.c,
        "matrix": matrix.to_lists(),
        "checks": report.to_dict(),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if report.all_ok else 1


def cmd_classnumber(args) -> int:
    print(numtheory.class_number(args.p))
    return 0


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpeta",
        description="Exact eta invariants and spin geometry of flat manifolds "
        "with odd-prime cyclic holonomy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("invariants", help="invariant table for one manifold")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--ideal", default="principal")
    sp.add_argument("--format", choices=("table", "json", "csv"), default="table")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument(
        "--suite",
        required=True,
        choices=("integrality", "parity", "appendix", "oracles", "untwisted"),
    )
    sp.add_argument("--p-max", dest="p_max", type=int)
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.add_argument("--jobs", type=_jobs, default=1)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("series", help="closed form vs truncated spectral sum")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, default=0)
    sp.add_argument("--c", type=int, default=1)
    sp.add_argument("--h", type=int, required=True, choices=(1, 2))
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--terms", type=int, default=10000)
    sp.set_defaults(func=cmd_series)

    sp = sub.add_parser("holonomy", help="integral holonomy matrix with checks")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--ideal", default="principal")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_holonomy)

    sp = sub.add_parser("classnumber", help="class number of Q(sqrt(-p))")
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_classnumber)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
