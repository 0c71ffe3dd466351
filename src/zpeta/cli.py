"""Command-line front end: invariant tables, verification sweeps, series
numerics, holonomy matrices, class numbers.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error,
an unwritable stdout or ``--out`` included, whether or not stderr can take
the error line.  Every command, and ``--help``, writes through ``_emit`` and
raises every refusal as a ValueError, which ``main`` alone turns into one
``error:`` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from json.encoder import encode_basestring_ascii as _quote
from numbers import Real
from types import SimpleNamespace

from . import charsums, eta, numtheory, spectrum
from .eta import DomainError, Report
from .exact import cyclotomic_ring, rational_str
from .manifold import (
    IntMatrix,
    ZpParams,
    build_holonomy,
    enumerate_spin_structures,
    holonomy_checks,
    prime_sweep,
    sweep_keys,
    validate,
)


# ---------------------------------------------------------------------------
# verification suites beyond the eta module's own

def _appendix_legendre_checks(report: Report, p: int) -> None:
    """Every Legendre-sum identity at p against its literal or split form,
    cell by cell.  Passing cells are counted locally and a failure entry
    is built only on a mismatch, in check order."""
    P = numtheory.as_prime(p)
    tab = P.legendre_table()
    l2 = tab[2 % p]
    desc = f"p={p}"
    passed = 0
    # read from numtheory once per prime, so a patched sum is checked
    shift, odd_shift = numtheory.sum_legendre_shift, numtheory.sum_legendre_odd_shift
    weighted, odd_weighted = numtheory.weighted_legendre_sum, numtheory.odd_weighted_legendre_sum
    split, S_direct, S_split = numtheory.weighted_split, numtheory.S_direct, numtheory.S_split

    for ell in range(p):
        for sign in (1, -1):
            for k in range(1, p + 1):
                got, want = shift(ell, k, sign, P), -tab[(k * ell) % p]
                if got == want:
                    passed += 1
                else:
                    report.check(False, desc, "shifted-sum", ell, want, got)
            got = odd_shift(ell, sign, P)
            if got == 0:
                passed += 1
            else:
                report.check(False, desc, "odd-shifted-sum", ell, 0, got)

            # weighted sums against their split form at the base factor*ell
            for factor in (1, 2):
                got, want = weighted(ell, factor, sign, P), split(factor * ell, sign, P)
                if got == want:
                    passed += 1
                else:
                    report.check(False, desc, f"weighted-sum(factor={factor})", ell, want, got)
            # odd-index weighted identity
            got = odd_weighted(ell, sign, P)
            want = weighted(ell, 2, sign, P) - l2 * weighted(ell, 1, sign, P)
            if got == want:
                passed += 1
            else:
                report.check(False, desc, "odd-weighted-sum", ell, want, got)

        # difference sums against the split forms
        for which, name in ((1, "difference-sum-1"), (2, "difference-sum-2")):
            got, want = S_direct(which, ell, P), S_split(which, ell, P)
            if got == want:
                passed += 1
            else:
                report.check(False, desc, name, ell, want, got)
    report.cases += passed


# what embed raises for a closed form outside the ring or past its slots; a
# closed form that raises one of these is a failed case too
_REFUSED = (ValueError, OverflowError)


def _ring_failure(report: Report, ring, direct: int, closed, name: str) -> None:
    """Record a failed check of a closed form against its literal sum, both
    sides as polynomials in z = zeta_4p.  closed may be the error with which
    the closed form or ``embed`` refused it: its text is the expected side."""
    want = str(closed) if isinstance(closed, Exception) else ring.to_str(closed)
    report.check(False, f"p={ring.p}", name, None, want, ring.to_str(direct))


def _appendix_charsum_checks(report: Report, p: int) -> None:
    """Every closed form of charsums against its literal sum at p, cell by
    cell.  Each cell calls its closed form, but a closed-form object is
    embedded once per (scale, i_pow): the forms return a few shared values
    per prime (``charsums._closed_values``).  The memo is keyed by identity,
    not equality (a RadicalValue hashes through Fraction), and holds the
    value so that its id is not reused; a refused embedding is not kept,
    so it fails at every cell.  The sine cells, 8p^2 of the 8p^2 + 10p,
    read the memo inline.  Passing cells are counted locally and a failure
    entry is built only on a mismatch, in check order."""
    P = numtheory.as_prime(p)
    ring = cyclotomic_ring(P)
    embedded = {}  # (id(value), scale, i_pow) -> (value, packed)

    def embed(value, scale: int, i_pow: int) -> int:
        """value embedded at scale * i^i_pow, through the memo."""
        key = (id(value), scale, i_pow)
        hit = embedded.get(key)
        if hit is None:
            hit = embedded[key] = (value, ring.embed(value, scale, i_pow))
        return hit[1]

    passed = 0
    # read from charsums once per prime, so a patched closed form is checked
    gauss_direct, F_direct = charsums.gauss_direct, charsums.F_direct
    characters = (
        (charsums.CHI0, charsums.G_h_chi0, charsums.F_h_chi0, "trivial"),
        (charsums.CHIP, charsums.G_h_chip, charsums.F_h_chip, "quadratic"),
    )
    # a closed form is called inside the try, so one that raises fails its cell
    for h in (1, 2):
        for l in range(p):
            # G_h(l), then 2i F_h(l, c) for c >= 1 (F_direct is 2i F)
            for chi, G, _, label in characters:
                direct = gauss_direct(h, chi, l, P)
                try:
                    closed = embed(G(h, l, P), 1, 0)
                except _REFUSED as exc:
                    closed = exc
                if direct == closed:
                    passed += 1
                else:
                    _ring_failure(report, ring, direct, closed, f"gauss-{label}(h={h},l={l})")
            for c in range(1, 2 * p + 1):
                for chi, _, F, label in characters:
                    direct = F_direct(h, chi, l, c, P)
                    try:
                        value = F(h, l, c, P)
                        hit = embedded.get((id(value), 2, 1))
                        closed = embed(value, 2, 1) if hit is None else hit[1]
                    except _REFUSED as exc:
                        closed = exc
                    if direct == closed:
                        passed += 1
                    else:
                        name = f"sine-{label}(h={h},l={l},c={c})"
                        _ring_failure(report, ring, direct, closed, name)
    # the literal products are (2i)^q prod sin and 2^q prod cos
    trig_prod, trig_prod_direct, scale = charsums.trig_prod, charsums.trig_prod_direct, 2**P.q
    for kind, i_pow in (("sin", P.q), ("cos", 0)):
        for k in range(1, 3 * p + 1):
            direct = trig_prod_direct(kind, k, P)
            try:
                closed = embed(trig_prod(kind, k, P), scale, i_pow)
            except _REFUSED as exc:
                closed = exc
            if direct == closed:
                passed += 1
            else:
                _ring_failure(report, ring, direct, closed, f"trig-product({kind},k={k})")
    report.cases += passed


def _appendix_for_prime(item: tuple) -> Report:
    """The appendix identities at the prime of the work item (p, n_max)."""
    p = item[0]
    report = Report("appendix")
    _appendix_legendre_checks(report, p)
    _appendix_charsum_checks(report, p)
    return report


def suite_appendix(p_max: int, tol: float = 1e-8, trig_tol: float = 1e-9) -> Report:
    """Every auxiliary identity up to p_max, serially: trig products, twisted
    Gauss sums and Legendre-weighted sums, closed forms against direct summation.

    Every comparison is an exact == in the oracle ring, which implies
    agreement within any tolerance; tol and trig_tol stay for the callers
    that pass one, and must be positive real numbers.
    """
    for name, value in (("tol", tol), ("trig_tol", trig_tol)):
        # a str or None would fail the comparison with TypeError, a bool pass it
        if not isinstance(value, Real) or isinstance(value, bool) or not value > 0:
            raise ValueError(f"{name} must be a positive real number, got {value!r}")
    return run_suite("appendix", p_max, None)


def _oracles_for_prime(item: tuple[int, int]) -> Report:
    """The spectral oracles at the prime of the work item (p, n_max).
    Passing cells are counted locally and a failure entry is built only on
    a mismatch, in check order."""
    p, n_max = item
    report = Report("oracles")
    passed = 0
    # read from spectrum once per prime, so a patched oracle is checked
    mult_diff_by_index, mult_diff_oracle = spectrum.mult_diff_by_index, spectrum.mult_diff_oracle
    dim_ker, dim_ker_oracle = spectrum.dim_ker, spectrum.dim_ker_oracle
    # failure name once per (h, c), so a passing case formats nothing
    names = {h: [f"mult-diff(h={h},c={c})" for c in range(1, 3 * p + 1)] for h in (1, 2)}
    # multiplicity differences, exceptional manifolds, a <= 5
    for a in range(1, 6):
        params = ZpParams(p, a, 0, 1)
        for h in (1, 2):
            for ell in range(p):
                for c, name in enumerate(names[h], 1):
                    exact = mult_diff_by_index(params, h, ell, c)
                    approx = mult_diff_oracle(params, h, ell, c)
                    if exact == approx:
                        passed += 1
                    else:
                        report.check(False, str(params), name, ell, exact, approx)
    # kernel dimensions across the sweep restricted to this prime
    for params in prime_sweep(p, n_max):
        triv = eta.structure_classes(params)[0]
        for ell in range(p):
            exact = dim_ker(params, triv, ell)
            approx = dim_ker_oracle(params, ell)
            if exact == approx:
                passed += 1
            else:
                report.check(False, str(params), "dim-ker", ell, exact, approx)
    report.cases += passed
    return report


# suite: (checker of one work item, default p_max, default n_max, sweep).
# A sweep suite's items are contiguous slices of sweep_keys(p_max, n_max),
# one per worker (_chunks): plain (p, a, b, c) tuples, which _run_item
# builds into records in the process that checks them.  Any other suite
# has one item (p, n_max) per odd prime.  The eta checkers look up cli.eta
# when they run: the pool pickles only _run_item and the suite name, and a
# rebound cli.eta (the benchmark's tracing proxy, a monkeypatch) must
# reach every worker.
_SUITES = {
    "integrality": (lambda chunk: eta.verify_integrality(chunk), 13, 60, True),
    "parity": (lambda chunk: eta.verify_parity(chunk), 13, 60, True),
    "appendix": (_appendix_for_prime, 97, None, False),
    "oracles": (_oracles_for_prime, 31, 60, False),
    "untwisted": (lambda chunk: eta.verify_untwisted(chunk), 13, 60, True),
}


def _run_item(task: tuple[str, object]) -> Report:
    """One pool task: the checker of the suite on one work item.  A sweep
    item's keys become records here, each through the checked ``ZpParams``
    constructor, so a worker builds only the records it checks."""
    suite, item = task
    check, _, _, sweep = _SUITES[suite]
    return check([ZpParams(*key) for key in item] if sweep else item)


def _chunks(items: list, count: int) -> list[list]:
    """count contiguous slices of items, in order, lengths differing by at
    most one: slice k ends at ceil((k + 1) len(items) / count).  A sweep
    cuts its keys, not its records, so a slice pickles as plain int tuples.
    The merge concatenates the reports in this order."""
    ends = [-(-k * len(items) // count) for k in range(count + 1)]
    return [items[start:end] for start, end in zip(ends, ends[1:])]


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
    _, default_p, default_n, sweep = _SUITES[suite]
    p_max = default_p if p_max is None else p_max
    n_max = default_n if n_max is None else n_max
    if sweep:
        keys = sweep_keys(p_max, n_max)
        items = _chunks(keys, _workers(jobs, len(keys)))
    else:
        items = [(p, n_max) for p in numtheory.odd_primes_upto(p_max)]
    parts = _pmap(_run_item, [(suite, item) for item in items], jobs)
    return _merge_reports(suite, parts)


# ---------------------------------------------------------------------------
# invariant tables

_HEAD = ("p", "a", "b", "c", "n", "exceptional")
_CSV_HEADER = [
    *_HEAD, "structure", "h", "ell",
    "eta", "dim_ker", "eta_bar", "eta_bar_mod_Z", "relative_mod_Z",
]
# p 2^{b+c} rows; `zpeta invariants` holds the 2p class rows and one label
# per structure, not the rows.  The largest table under the bound, (7,1,16,1)
# with 917,504 rows, took 1.4-1.8 s and peaked at 64-79 MB of RSS in each
# format (--out /dev/null, Python 3.11, 2-vCPU VM)
MAX_INVARIANT_ROWS = 2**20


def _class_tables(params: ZpParams) -> dict[bool, list[dict]]:
    """The value columns (ell, then the invariants as strings) of each
    structure class, keyed by its representative's ``trivial_type``.

    Every structure has the invariants of its class representative in
    ``eta.structure_classes``, so a table of p·2^{b+c} rows has only these
    2p distinct value rows, built from one ``structure_records`` call per
    representative.

    Raises DomainError before any structure is built above MAX_INVARIANT_ROWS
    rows, and when a value has more digits than the interpreter converts to
    a string (``sys.get_int_max_str_digits()``, 0 for no limit): before any
    record is built when a lower bound on the digits of dim ker at ell = 0
    is already past the limit, and otherwise at its conversion.
    """
    # b + c is capped first, so that 2^{b+c} is never built (p >= 3)
    if params.p << min(params.beta1, MAX_INVARIANT_ROWS.bit_length()) > MAX_INVARIANT_ROWS:
        raise DomainError(
            f"the invariant table of {params} would have more than {MAX_INVARIANT_ROWS} "
            "rows (p 2^(b+c))"
        )
    # 0 is no limit, as on an interpreter without get_int_max_str_digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = (
        f"an invariant of {params} has more than {limit} digits, the interpreter's "
        "limit for printing an integer"
    )
    # at odd n (even n is structure_records' EvenDimensionError), dim ker at
    # ell = 0 is 2^((b+c-1)/2) (2^((a+b)q) +- (p - 1)) / p, above 2^bits once
    # 2^((a+b)q) >= 2p, which holds wherever the test below is true (b + c
    # <= 18 here and a limit is at least 640); its margin of a digit leaves
    # the conversion below to decide near the limit
    bits = (params.beta1 - 1) // 2 + (params.a + params.b) * params.prime.q
    bits -= params.p.bit_length() + 1
    if limit and params.n_odd and bits * math.log10(2) > limit + 1:
        raise DomainError(too_long)
    tables = {}
    for structure in eta.structure_classes(params):
        records = eta.structure_records(params, structure)
        try:
            tables[structure.trivial_type] = [
                {
                    "ell": ell,
                    "eta": rational_str(rec.eta),
                    "dim_ker": str(rec.dim_ker),
                    "eta_bar": rational_str(rec.eta_bar),
                    "eta_bar_mod_Z": str(rec.eta_bar_mod_Z),
                    "relative_mod_Z": str(rec.relative_mod_Z),
                }
                for ell, rec in enumerate(records)
            ]
        except ValueError:  # only int -> str raises here, beyond the digit limit
            raise DomainError(too_long) from None
    return tables


def _head(params: ZpParams) -> dict:
    return {key: getattr(params, key) for key in _HEAD}


def _label(structure) -> dict:
    return {"structure": structure.label, "h": structure.h}


def invariant_rows(params: ZpParams) -> list[dict]:
    """One row per (structure, ell), structures in enumeration order: the
    class tables of ``_class_tables`` expanded, each structure's p rows
    under its own ``structure`` label and ``h``.

    ``zpeta invariants`` does not build these rows; it renders the same
    pieces once each (``_invariant_chunks``).
    """
    tables = _class_tables(params)
    head = _head(params)
    rows = []
    for structure in enumerate_spin_structures(params):
        label = _label(structure)
        rows.extend({**head, **label, **values} for values in tables[structure.trivial_type])
    return rows


def _invariant_chunks(params: ZpParams, fmt: str) -> Iterator[str]:
    """The ``invariants`` certificate in fmt, as an iterator of chunks: a
    header, one chunk per spin structure holding its p rows, and a closing.

    A row is head + label + class row, and each of these pieces is
    rendered once: the head (p, a, b, c, n, exceptional), each structure's
    label (structure, h) and each of the 2p class rows.  A piece's columns
    are joined by the format's column separator, so the rows are those of
    the whole-row renderings byte for byte: ``json.dumps(rows, indent=2)``,
    one ``csv.writer`` row per piece (quoting is per field), and a table
    whose widths are the widest piece of each column.  Every piece is a
    string before this returns, so a DomainError writes nothing.
    """
    tables = _class_tables(params)
    head = _head(params)
    header = dict(zip(_CSV_HEADER, _CSV_HEADER))  # csv and table: the column names
    structures = enumerate_spin_structures(params)
    if fmt == "json":
        row_open, col_sep, row_close = "{\n    ", ",\n    ", "\n  }"
        opening, row_sep, closing = "[\n  ", ",\n  ", "\n]\n"

        def piece(cols: dict) -> str:
            return col_sep.join([_quote(k) + ": " + _json(v) for k, v in cols.items()])

    elif fmt == "csv":
        row_open, col_sep, row_close = "", ",", "\n"
        lines: list[str] = []  # csv.writer makes one write call per row
        writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="")

        def piece(cols: dict) -> str:
            writer.writerow([str(v).lower() if k == "exceptional" else v for k, v in cols.items()])
            return lines.pop()

    elif fmt == "table":
        row_open, col_sep, row_close = "", "  ", "\n"
        widths = dict.fromkeys(_CSV_HEADER, 0)
        for cols in itertools.chain([header, head], map(_label, structures), *tables.values()):
            for k, v in cols.items():
                widths[k] = max(widths[k], len(str(v)))

        def piece(cols: dict) -> str:
            return col_sep.join([str(v).ljust(widths[k]) for k, v in cols.items()])

    else:
        raise ValueError(f"unknown format {fmt!r}")
    if fmt != "json":
        opening, row_sep, closing = piece(header) + "\n", "", ""
    head_piece = row_open + piece(head) + col_sep
    class_rows = {
        key: [piece(values) + row_close for values in table] for key, table in tables.items()
    }
    # each structure's rows are its start (head + label) + a class row
    starts = [
        (head_piece + piece(_label(s)) + col_sep, class_rows[s.trivial_type]) for s in structures
    ]
    leads = itertools.chain([""], itertools.repeat(row_sep))  # row_sep also separates chunks
    chunks = (
        lead + row_sep.join([start + row for row in rows])
        for lead, (start, rows) in zip(leads, starts)
    )
    return itertools.chain([opening], chunks, [closing])


# ---------------------------------------------------------------------------
# commands

_LITERALS = {True: "true", False: "false", None: "null"}


def _matrix_rows(matrix: IntMatrix, newline: str) -> list[str]:
    """``json.dumps(row, indent=2)`` of each row of matrix, nested at newline,
    written from its stored nonzeros: each run of zeros is one repetition of
    ``"0," + inner`` and only the nonzeros go through ``int.__repr__``, the
    digits ``json`` writes, so a row costs Python steps per nonzero, not
    per entry."""
    inner = newline + "  "
    sep = "," + inner
    zero, n, out = "0" + sep, matrix.n, []
    for i, pairs in enumerate(matrix.entries):
        parts, start = [], 0
        for d, v in pairs:  # the nonzero v at column i + d
            parts += (zero * (i + d - start), repr(v), sep)
            start = i + d + 1
        parts.append(zero * (n - start))  # sep follows every item, the last one too
        out.append("[" + inner + "".join(parts)[: -len(sep)] + newline + "]")
    return out


def _json(obj, newline: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2)``, without its pure-Python encoder,
    an ``IntMatrix`` written as the list of its rows.

    With an indent, ``json.dumps`` renders every item through Python-level
    generators; here strings go through the C quoting function, and an
    object whose type is ``IntMatrix`` (the class guarantees its entries
    are ints) has its rows written by ``_matrix_rows`` from its stored
    nonzeros, without looking at the type of an entry.  Any list or tuple
    is written item by item, so a bool in it is ``true``/``false``.  Keys
    must be str: any other key raises TypeError.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if type(obj) is int:
        return repr(obj)
    if obj is None or obj is True or obj is False:
        return _LITERALS[obj]
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("certificate keys must be str")
        items = (_quote(key) + ": " + _json(value, inner) for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(obj) is IntMatrix:  # the class checked every entry: no type scan
        items = _matrix_rows(obj, inner)
    elif isinstance(obj, (list, tuple)):
        items = [_json(item, inner) for item in obj]
    else:
        return json.dumps(obj)  # floats, and the TypeError of anything else
    return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"


def _to_devnull(stream) -> None:
    """Point the file descriptor of stream, one of the process's own
    standard streams, at os.devnull after a write to it failed: the
    interpreter's last flush of what is left in its buffer then fails no
    more, and adds no exit code 120."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks to the file out, or to stdout (flushed) when out is
    not given: the one writer of every command's output.

    The file is opened only here, so a command that raises before its
    call creates no file.  An unwritable out or stdout (a full device, a
    closed pipe) is a usage error (exit 2), not a traceback; a failed
    process stdout is pointed at os.devnull (``_to_devnull``).
    """
    try:
        if out:
            with open(out, "w") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if not out and sys.stdout is sys.__stdout__:
            _to_devnull(sys.stdout)
        raise ValueError(f"cannot write {out or 'stdout'}: {exc.strerror or exc}") from None


def cmd_invariants(args) -> int:
    params = validate(args.p, args.a, args.b, args.c, args.ideal)
    _emit(_invariant_chunks(params, args.format), args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.p_max, args.n_max, args.jobs)
    if report.cases == 0:
        raise ValueError(f"suite {args.suite} checked no cases; widen --p-max or --n-max")
    _emit((_json(report.to_dict()), "\n"), args.out)
    return 0 if report.ok else 1


# series and classnumber build tables of size p (at p = 2,000,003 classnumber
# took 1.4 s and 97 MB, series 23 s and 226 MB); the scale of MAX_INVARIANT_ROWS
MAX_TABLE_P = 2**20


def _table_prime(p: int) -> numtheory.OddPrime:
    """p as an OddPrime, refused above MAX_TABLE_P after the primality errors."""
    P = numtheory.as_prime(p)
    if p > MAX_TABLE_P:
        raise ValueError(f"p = {p} is above {MAX_TABLE_P}: this command builds tables of size p")
    return P


def _refuse_a_scale_past_a_double(params: ZpParams, h: int, ell: int, s: float) -> None:
    """Raise what ``eta_series_eval`` raises on a nonzero closed form of params
    whose scale p^[a/2] is more than two bits past a double, before any power
    p^[a/2] is built; nearer the boundary the closed form itself decides.

    The form's alphas, so also whether it is zero, depend on a only through
    a mod 2 (its coefficients only in sign), so the form at a = 1 or 2 with a
    scale past a double fails its evaluation the same way: an invalid s, then
    a Hurwitz term that overflows, then the scale.
    """
    if params.a // 2 * math.log2(params.p) <= sys.float_info.max_exp + 2:
        return
    form = eta.eta_series_closed_form(validate(params.p, 2 - params.a % 2, 0, 1), h, ell)
    if not form.is_zero:
        eta.eta_series_eval(eta.EtaClosedForm(form.p, 1 << sys.float_info.max_exp, form.terms), s)


def cmd_series(args) -> int:
    _table_prime(args.p)
    params = validate(args.p, args.a, 0, 1)  # the exceptional manifold of (p, a)
    _refuse_a_scale_past_a_double(params, args.h, args.ell, args.s)
    form = eta.eta_series_closed_form(params, args.h, args.ell)
    closed = eta.eta_series_eval(form, args.s)
    partial = eta.eta_spectral_partial(params, args.h, args.ell, args.s, args.terms)
    lines = (
        f"closed-form   {closed:.12g}\n",
        f"spectral-sum  {partial:.12g}\n",
        f"difference    {abs(closed - partial):.12g}\n",
    )
    _emit(lines, None)
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
        "matrix": matrix,
        "checks": report.to_dict(),
    }
    _emit((_json(payload), "\n"), args.out)
    return 0 if report.all_ok else 1


def cmd_classnumber(args) -> int:
    _emit((f"{numtheory.class_number(_table_prime(args.p))}\n",), None)
    return 0


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _manifold_flags(sp: argparse.ArgumentParser) -> None:
    """The manifold of ``invariants`` and ``holonomy``: --p --a --b --c --ideal."""
    for flag in ("--p", "--a", "--b", "--c"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--ideal", default="principal")


class _Parser(argparse.ArgumentParser):
    """Sends its help text (and its subparsers') to stdout through ``_emit``:
    argparse's own writer drops a write error, which ``--help`` must report."""

    def print_help(self, file=None) -> None:
        if file is None:
            _emit((self.format_help(),), None)
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zpeta",
        description="Exact eta invariants and spin geometry of flat manifolds "
        "with odd-prime cyclic holonomy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("invariants", help="invariant table for one manifold")
    _manifold_flags(sp)
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
    sp.add_argument("--h", type=int, required=True, choices=(1, 2))
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--terms", type=int, default=10000)
    sp.set_defaults(func=cmd_series)

    sp = sub.add_parser("holonomy", help="integral holonomy matrix with checks")
    _manifold_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_holonomy)

    sp = sub.add_parser("classnumber", help="class number of Q(sqrt(-p))")
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_classnumber)

    return parser


# built by the first main call and reused: the argparse tree costs about a
# millisecond, and an import of zpeta.cli builds none
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)  # --help writes through _emit, then exits 0
        return args.func(args)
    except SystemExit as exc:  # raised only by argparse
        return 2 if exc.code else 0
    except ValueError as exc:  # every validation and domain error is one
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:  # an unwritable stderr: the exit code alone reports it
            if sys.stderr is sys.__stderr__:
                _to_devnull(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
