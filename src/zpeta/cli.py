"""Command-line front end: invariant tables, verification sweeps, series
numerics, holonomy matrices, class numbers.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import charsums, eta, numtheory, spectrum
from .eta import DomainError, Report
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

# closed form against direct float summation: character sums, trig products
_TOL, _TRIG_TOL = 1e-8, 1e-9


def _check_close(report: Report, p: int, tol: float, direct, closed, name: str, *name_args) -> None:
    """Record |direct - closed| < tol.  The failure entry, named by
    name.format(*name_args), is built only when the check fails."""
    if abs(direct - closed) < tol:
        report.record(True)
    else:
        name = name.format(*name_args)
        report.check(False, f"p={p}", name, None, closed, f"{direct} (tol {tol})")


def _appendix_legendre_checks(report: Report, p: int) -> None:
    P = numtheory.as_prime(p)
    tab = P.legendre_table()
    w = P.weighted_sum()
    l2 = tab[2 % p]
    lm1 = tab[(p - 1) % p]
    prefix = [0] * p  # prefix[u] = sum_{j=1}^{u} (j/p)
    for j in range(1, p):
        prefix[j] = prefix[j - 1] + tab[j]
    desc = f"p={p}"

    for ell in range(p):
        for sign in (1, -1):
            for k in range(1, p + 1):
                got = numtheory.sum_legendre_shift(ell, k, sign, P)
                want = -tab[(k * ell) % p]
                report.check(got == want, desc, "shifted-sum", ell, want, got)
            got = numtheory.sum_legendre_odd_shift(ell, sign, P)
            report.check(got == 0, desc, "odd-shifted-sum", ell, 0, got)

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
                report.check(got == want, desc, f"weighted-sum(factor={factor})", ell, want, got)
            # odd-index weighted identity
            got = sum(tab[(2 * ell + sign * (2 * j + 1)) % p] * j for j in range(p))
            want = numtheory.weighted_legendre_sum(ell, 2, sign, P) - l2 * (
                numtheory.weighted_legendre_sum(ell, 1, sign, P)
            )
            report.check(got == want, desc, "odd-weighted-sum", ell, want, got)

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
        report.check(s1 == want1, desc, "difference-sum-1", ell, want1, s1)
        report.check(s2 == want2, desc, "difference-sum-2", ell, want2, s2)


def _appendix_charsum_checks(report: Report, p: int, tol: float, trig_tol: float) -> None:
    P = numtheory.as_prime(p)
    for h in (1, 2):
        for l in range(p):
            direct = charsums.gauss_direct(h, charsums.CHI0, l, P)
            closed = complex(charsums.G_h_chi0(h, l, P))
            _check_close(report, p, tol, direct, closed, "gauss-trivial(h={},l={})", h, l)
            direct = charsums.gauss_direct(h, charsums.CHIP, l, P)
            closed = charsums.G_h_chip(h, l, P).to_complex()
            _check_close(report, p, tol, direct, closed, "gauss-quadratic(h={},l={})", h, l)
            for c in range(1, 2 * p + 1):
                direct = charsums.F_direct(h, charsums.CHI0, l, c, P)
                closed = charsums.F_h_chi0(h, l, c, P).to_complex()
                _check_close(
                    report, p, tol, direct, closed, "sine-trivial(h={},l={},c={})", h, l, c
                )
                direct = charsums.F_direct(h, charsums.CHIP, l, c, P)
                closed = charsums.F_h_chip(h, l, c, P).to_complex()
                _check_close(
                    report, p, tol, direct, closed, "sine-quadratic(h={},l={},c={})", h, l, c
                )
    for kind in ("sin", "cos"):
        for k in range(1, 3 * p + 1):
            direct = charsums.trig_prod_direct(kind, k, P)
            closed = charsums.trig_prod(kind, k, P).to_complex().real
            _check_close(report, p, trig_tol, direct, closed, "trig-product({},k={})", kind, k)


def _appendix_for_prime(item: tuple, tol: float = _TOL, trig_tol: float = _TRIG_TOL) -> Report:
    """The appendix identities at the prime of the work item (p, n_max)."""
    p = item[0]
    report = Report("appendix")
    _appendix_legendre_checks(report, p)
    _appendix_charsum_checks(report, p, tol, trig_tol)
    return report


def suite_appendix(p_max: int, tol: float = _TOL, trig_tol: float = _TRIG_TOL) -> Report:
    """Every auxiliary identity up to p_max, serially: trig products, twisted
    Gauss sums and Legendre-weighted sums, closed forms against direct summation."""
    primes = numtheory.odd_primes_upto(p_max)
    parts = [_appendix_for_prime((p, None), tol, trig_tol) for p in primes]
    return _merge_reports("appendix", parts)


def _oracles_for_prime(item: tuple[int, int]) -> Report:
    """The spectral oracles at the prime of the work item (p, n_max)."""
    p, n_max = item
    report = Report("oracles")
    # (mu, failure name) once per (h, c), so a passing case builds and formats nothing
    cases = {
        h: [(Fraction(2 * c + 1 - h, 2), f"mult-diff(h={h},c={c})") for c in range(1, 3 * p + 1)]
        for h in (1, 2)
    }
    # multiplicity differences, exceptional manifolds, a <= 5
    for a in range(1, 6):
        params = ZpParams(p, a, 0, 1)
        desc = str(params)
        for h in (1, 2):
            for ell in range(p):
                for c, (mu, name) in enumerate(cases[h], 1):
                    exact = spectrum.mult_diff_by_index(params, h, ell, c)
                    approx = spectrum.mult_diff_oracle(params, h, ell, mu)
                    report.check(abs(exact - approx) < 1e-6, desc, name, ell, exact, approx)
    # kernel dimensions across the sweep restricted to this prime
    for params in enumerate_params(p, n_max):
        if params.p != p:
            continue
        desc = str(params)
        triv = eta.structure_classes(params)[0]
        for ell in range(p):
            exact = spectrum.dim_ker(params, triv, ell)
            approx = spectrum.dim_ker_oracle(params, ell)
            report.check(abs(exact - approx) < 1e-6, desc, "dim-ker", ell, exact, approx)
    return report


def _twists(params: ZpParams) -> int:
    return params.p


def _one(params: ZpParams) -> int:
    return 1


# suite: (checker of one work item, default p_max, default n_max, cost of one
# manifold).  A cost of None makes one item (p, n_max) per odd prime; else the
# items are chunks of enumerate_params(p_max, n_max) cut by that cost.  The eta
# checkers look up cli.eta when they run: the pool pickles only _run_item and
# the suite name, and a rebound cli.eta (the benchmark's tracing proxy, a
# monkeypatch) must reach every worker.
_SUITES = {
    "integrality": (lambda chunk: eta.verify_integrality(chunk), 13, 60, _twists),
    "parity": (lambda chunk: eta.verify_parity(chunk), 13, 60, _twists),
    "appendix": (_appendix_for_prime, 97, None, None),
    "oracles": (_oracles_for_prime, 31, 60, None),
    "untwisted": (lambda chunk: eta.verify_untwisted(chunk), 13, 60, _one),
}


def _run_item(task: tuple[str, object]) -> Report:
    """One pool task: the checker of the suite on one work item."""
    suite, item = task
    return _SUITES[suite][0](item)


def _chunks(items: list[ZpParams], count: int, cost) -> list[list[ZpParams]]:
    """At most count contiguous chunks of the sweep, cut by cumulative cost.

    Chunk k ends at the first item whose running cost reaches k/count of
    the total, so no chunk costs more than sum(cost)/count + max(cost).
    The chunks stay in sweep order because the merge concatenates them.
    """
    if count <= 1 or len(items) <= 1:
        return [items]
    weights = [cost(q) for q in items]
    total = sum(weights)
    out, start, acc, cut = [], 0, 0, 1
    for i, w in enumerate(weights, 1):
        acc += w
        if cut < count and acc * count >= cut * total and i < len(items):
            out.append(items[start:i])
            start, cut = i, cut + 1
    out.append(items[start:])
    return out


def _workers(jobs: int, items: int) -> int:
    """Worker processes for a sweep of items: --jobs, capped by the CPUs and the items.

    The fork-based pool starts all its workers on the first submit, so an
    uncapped --jobs would fork that many processes.
    """
    return max(1, min(jobs, os.cpu_count() or 1, items))


def _pmap(fn, work: list, jobs: int) -> list:
    jobs = _workers(jobs, len(work))
    if jobs == 1:
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, work))


def _merge_reports(suite: str, parts: list[Report]) -> Report:
    merged = Report(suite)
    for part in parts:
        merged.cases += part.cases
        merged.failures.extend(part.failures)
        merged.expected_exceptions.extend(part.expected_exceptions)
    return merged


def run_suite(suite: str, p_max: int | None, n_max: int | None, jobs: int = 1) -> Report:
    _, default_p, default_n, cost = _SUITES[suite]
    p_max = default_p if p_max is None else p_max
    n_max = default_n if n_max is None else n_max
    if cost is None:
        items = [(p, n_max) for p in numtheory.odd_primes_upto(p_max)]
    else:
        sweep = enumerate_params(p_max, n_max)
        items = _chunks(sweep, _workers(jobs, len(sweep)), cost)
    parts = _pmap(_run_item, [(suite, item) for item in items], jobs)
    return _merge_reports(suite, parts)


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
        for rec in eta.structure_records(params, structure):
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
                    "ell": rec.ell,
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
    """Write text to the file out, or to stdout when out is not given.

    An unwritable out is a usage error (exit 2), not a traceback.
    """
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


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
        choices=tuple(_SUITES),
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
