import csv
import hashlib
import inspect
import io
import json
import math
import os
import pickle
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import zpeta
from zpeta import charsums, cli, eta, spectrum
from zpeta.cli import invariant_rows, main, run_suite
from zpeta.exact import cyclotomic_ring, rational_str
from zpeta.manifold import (
    MAX_HOLONOMY_N,
    IntMatrix,
    ZpParams,
    enumerate_params,
    enumerate_spin_structures,
    prime_sweep,
    sweep_keys,
    validate,
)
from zpeta.numtheory import as_prime, is_prime, odd_primes_upto


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def render_rows(rows: list[dict], fmt: str) -> str:
    """The certificate rendered row by row from the dict rows: the oracle
    of ``cli._invariant_chunks``, which renders each distinct piece once."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cli._CSV_HEADER)
        for row in rows:
            writer.writerow(
                [str(row[k]).lower() if k == "exceptional" else row[k] for k in cli._CSV_HEADER]
            )
        return buf.getvalue()
    assert fmt == "table"
    widths = {k: max(len(k), *(len(str(r[k])) for r in rows)) for k in cli._CSV_HEADER}
    lines = ["  ".join(k.ljust(widths[k]) for k in cli._CSV_HEADER)]
    for row in rows:
        lines.append("  ".join(str(row[k]).ljust(widths[k]) for k in cli._CSV_HEADER))
    return "\n".join(lines) + "\n"


def render(params, fmt: str) -> str:
    return "".join(cli._invariant_chunks(params, fmt))


def test_invariants_tricosm_table(capsys):
    code, out, _ = run(capsys, "invariants", "--p", "3", "--a", "1", "--b", "0", "--c", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # header + 2 structures x 3 twists
    assert "-2/3" in out and "2/3" in out


def test_invariants_row_count_nonexceptional():
    rows = invariant_rows(validate(5, 1, 1, 2))
    assert len(rows) == 40  # 8 structures x 5 twists
    assert all(row["eta"] == "0" for row in rows)


def test_invariants_validation_failure(capsys):
    code, _, err = run(capsys, "invariants", "--p", "4", "--a", "1", "--b", "0", "--c", "1")
    assert code == 2
    assert "prime" in err


def test_invariants_even_dimension_rejected(capsys):
    code, _, err = run(capsys, "invariants", "--p", "5", "--a", "1", "--b", "1", "--c", "1")
    assert code == 2
    assert "even" in err


def test_csv_and_json_share_rational_strings():
    rows = invariant_rows(validate(3, 1, 0, 1))
    as_json = json.loads(render_rows(rows, "json"))
    reader = csv.DictReader(io.StringIO(render_rows(rows, "csv")))
    for json_row, csv_row in zip(as_json, reader, strict=True):
        for key in ("eta", "eta_bar", "eta_bar_mod_Z", "relative_mod_Z", "dim_ker"):
            assert str(json_row[key]) == csv_row[key]


def test_renderings_are_deterministic():
    for fmt in ("table", "json", "csv"):
        assert render(validate(5, 1, 0, 1), fmt) == render(validate(5, 1, 0, 1), fmt)


def _rows_structure_by_structure(params):
    """Every row from its own structure's records, as before the per-class tables."""
    head = {
        "p": params.p, "a": params.a, "b": params.b, "c": params.c, "n": params.n,
        "exceptional": params.exceptional,
    }
    return [
        {
            **head,
            "structure": structure.label,
            "h": structure.h,
            "ell": ell,
            "eta": rational_str(rec.eta),
            "dim_ker": str(rec.dim_ker),
            "eta_bar": rational_str(rec.eta_bar),
            "eta_bar_mod_Z": str(rec.eta_bar_mod_Z),
            "relative_mod_Z": str(rec.relative_mod_Z),
        }
        for structure in enumerate_spin_structures(params)
        for ell, rec in enumerate(eta.structure_records(params, structure))
    ]


def test_invariant_rows_match_a_table_per_structure():
    # b + c <= 7 keeps the sweep at 274 manifolds and 59,250 rows; (3,1,0,29) has 2^29 structures
    sweep = [q for q in enumerate_params(7, 30) if q.beta1 <= 7]
    for params in sweep + [validate(5, 1, 2, 3), validate(3, 1, 8, 3)]:
        rows = invariant_rows(params)
        assert rows == _rows_structure_by_structure(params), params
        assert [list(row) for row in rows] == [cli._CSV_HEADER] * len(rows), params


def test_invariant_pieces_render_the_dict_rows_byte_for_byte():
    # the sweep above plus the golden manifolds; json.dumps is the json oracle
    sweep = [q for q in enumerate_params(7, 30) if q.beta1 <= 7]
    for params in sweep + [validate(53, 3, 2, 1), validate(3, 1, 8, 3)]:
        rows = invariant_rows(params)
        for fmt in ("json", "csv", "table"):
            assert render(params, fmt) == render_rows(rows, fmt), (params, fmt)


@pytest.mark.parametrize("fmt", ("json", "csv", "table"))
def test_invariants_command_never_builds_the_dict_rows(capsys, monkeypatch, fmt):
    params = validate(53, 3, 2, 1)
    want = render_rows(invariant_rows(params), fmt)

    def unreachable(params):
        raise LookupError(f"invariant_rows ran for {params}")

    monkeypatch.setattr(cli, "invariant_rows", unreachable)
    code, out, err = run(
        capsys, "invariants", "--p", "53", "--a", "3", "--b", "2", "--c", "1", "--format", fmt
    )
    assert (code, out, err) == (0, want, "")


@pytest.mark.parametrize("fmt", ("json", "csv", "table"))
@pytest.mark.parametrize("params", [validate(5, 1, 2, 1), validate(3, 1, 0, 1)], ids=str)
def test_invariants_stream_one_chunk_per_spin_structure(capsys, monkeypatch, params, fmt):
    written = []
    monkeypatch.setattr(cli, "_emit", lambda chunks, out: written.append(list(chunks)))
    argv = ("--p", params.p, "--a", params.a, "--b", params.b, "--c", params.c, "--format", fmt)
    assert main(["invariants", *map(str, argv)]) == 0
    [chunks] = written
    structures = enumerate_spin_structures(params)
    rows = invariant_rows(params)
    assert len(chunks) == 1 + len(structures) + 1  # header, one per structure, closing
    lines = render_rows(rows, fmt).splitlines(keepends=True)
    for k, chunk in enumerate(chunks[1:-1]):
        own = rows[k * params.p : (k + 1) * params.p]
        assert {row["structure"] for row in own} == {structures[k].label}
        if fmt == "json":  # every chunk but the first leads with the row separator
            assert json.loads("[" + chunk.removeprefix(",") + "]") == own
        else:  # the header line, then one line per row
            assert chunk == "".join(lines[1 + k * params.p : 1 + (k + 1) * params.p])
    assert "".join(chunks) == render_rows(rows, fmt)


@pytest.mark.parametrize(
    "params", [validate(53, 3, 2, 1), validate(3, 1, 8, 3), validate(7, 2, 0, 1)], ids=str
)
def test_invariant_rows_read_one_record_list_per_structure_class(monkeypatch, params):
    # one record list per representative of eta.structure_classes, and no other
    calls = []
    real = eta.structure_records

    def counted(params, structure):
        calls.append(structure)
        return real(params, structure)

    monkeypatch.setattr(eta, "structure_records", counted)
    invariant_rows(params)
    assert calls == eta.structure_classes(params)


# stdout SHA-256 recorded with one structure_records call per structure;
# the per-class tables must not change it
INVARIANTS_SHA256 = {
    ("53", "3", "2", "1", "json"): "cc6c8e00b231ae18da1148aa4398f6fbaf670ffe894d42027fac3504ca6a0fc3",
    ("53", "3", "2", "1", "csv"): "dd2b8e109c6fea20e0e25493a7aaa4600c42b75fe55834abe6f699a1e31b990c",
    ("53", "3", "2", "1", "table"): "1eca3a90027433af6fb09054300e91be74d3f70b767dd8bbb3ec0efa642be13f",
    ("3", "1", "8", "3", "csv"): "aa5dabfe99e41cae614e6769fb793c4a9eda4b24d6b4ac77091d07f7267b81fe",
}


@pytest.mark.parametrize("p, a, b, c, fmt", sorted(INVARIANTS_SHA256))
def test_invariants_certificate_is_byte_identical(capsys, p, a, b, c, fmt):
    code, out, err = run(
        capsys, "invariants", "--p", p, "--a", a, "--b", b, "--c", c, "--format", fmt
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == INVARIANTS_SHA256[p, a, b, c, fmt]


def test_verify_integrality_cli(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "integrality", "--p-max", "5", "--n-max", "16"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "integrality"
    assert not payload["failures"]
    assert len(payload["expected_exceptions"]) == 6


def test_verify_report_byte_identical_across_runs(capsys):
    args = ("verify", "--suite", "untwisted", "--p-max", "5", "--n-max", "16")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_jobs_matches_serial():
    serial = run_suite("integrality", 5, 16, jobs=1)
    parallel = run_suite("integrality", 5, 16, jobs=2)
    assert serial.to_dict() == parallel.to_dict()


# stdout SHA-256 recorded with the scalar F_direct loop; the grid must not change it
APPENDIX_P13_SHA256 = "f667fa8f10044b28aa654cd238c17207d57bed664d741dcb4052f54b8e0b6fdb"


@pytest.mark.parametrize("jobs", ("1", "2"))
def test_verify_appendix_certificate_is_byte_identical(capsys, jobs):
    code, out, _ = run(capsys, "verify", "--suite", "appendix", "--p-max", "13", "--jobs", jobs)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == APPENDIX_P13_SHA256


# stdout SHA-256 of the sweep certificates, recorded before the per-structure
# eta records and the lazy failure entries; they must not change it
SWEEP_SHA256 = {
    ("integrality", "7", "30"): "116794de7708110c6508406bf0520845f108630ca70e3a7c960cbf1f28f58eb4",
    ("parity", "7", "30"): "4eb3737a0d1f99f878ba1b7aebe5be985ec775184e87cc121ac74cfbe6856f44",
    ("untwisted", "7", "30"): "8bb32fe4942538c7d8ff946d962aed5db1f70bc441d13db42c3788ad45121241",
    ("oracles", "7", "20"): "b961df49c5740413b6dd97531d7902c7ffba1f0084548d495d4526d7e8aed4a9",
}


@pytest.mark.parametrize("jobs", ("1", "2", "3"))
@pytest.mark.parametrize("suite, p_max, n_max", sorted(SWEEP_SHA256))
def test_verify_sweep_certificate_is_byte_identical(capsys, monkeypatch, suite, p_max, n_max, jobs):
    # four CPUs on any machine, so --jobs 3 cuts a sweep into three slices
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--p-max", p_max, "--n-max", n_max, "--jobs", jobs
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[suite, p_max, n_max]


# stdout SHA-256 of the two suites that build eta records, past their defaults,
# recorded before the records were reused by their closed-form values
LARGE_SWEEP_SHA256 = {
    "integrality": "c0958c54da113c102fa0606e6b6abb74edc618f7c129b07e4358a85d68775ac9",
    "untwisted": "9eea28184627ca13c1d76ee7c0a4107230981fda71f3d42a7b396686d753d0c8",
}


@pytest.mark.parametrize("jobs", ("1", "2"))
@pytest.mark.parametrize("suite", sorted(LARGE_SWEEP_SHA256))
def test_verify_sweep_past_the_defaults_is_byte_identical(capsys, monkeypatch, suite, jobs):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)  # --jobs 2 runs two slices anywhere
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--p-max", "31", "--n-max", "80", "--jobs", jobs
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_SWEEP_SHA256[suite]


# stdout SHA-256 recorded with the det/rank eliminations and the product
# charpoly test; the charpoly-only certificate must not change it
HOLONOMY_53_3_2_1_SHA256 = "3375bf4fcd683200b824eea3d540d8d79b7c1a118f30f904c09dc5e133abcff5"


def test_holonomy_certificate_is_byte_identical(capsys):
    code, out, err = run(capsys, "holonomy", "--p", "53", "--a", "3", "--b", "2", "--c", "1")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HOLONOMY_53_3_2_1_SHA256


def test_oracles_report_a_wrong_multiplicity_oracle(monkeypatch):
    right = spectrum.mult_diff_oracle

    def wrong_at_one_cell(params, h, ell, c):
        value = right(params, h, ell, c)
        wrong = (params.key(), h, ell, c) == ((5, 3, 0, 1), 2, 4, 4)
        return value + 0.5 if wrong else value

    monkeypatch.setattr(spectrum, "mult_diff_oracle", wrong_at_one_cell)
    report = run_suite("oracles", 5, 12)
    assert [f.to_dict() for f in report.failures] == [
        {
            "params": "(5,3,0,1)",
            "structure": "mult-diff(h=2,c=4)",
            "ell": 4,
            "expected": "-5",
            "got": "-4.5",
        }
    ]


def test_oracles_report_a_wrong_kernel_oracle(monkeypatch):
    right = spectrum.dim_ker_oracle

    def wrong_at_one_cell(params, ell):
        value = right(params, ell)
        return value - 1e-3 if (params.key(), ell) == ((3, 2, 1, 2), 1) else value

    monkeypatch.setattr(spectrum, "dim_ker_oracle", wrong_at_one_cell)
    report = run_suite("oracles", 5, 12)
    assert [f.to_dict() for f in report.failures] == [
        {"params": "(3,2,1,2)", "structure": "dim-ker", "ell": 1, "expected": "6", "got": "5.999"},
    ]



def _verify(capsys, suite, p_max, jobs, *more):
    """Exit code and certificate of one verify run, which writes no stderr."""
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--p-max", str(p_max), "--jobs", str(jobs), *more
    )
    assert err == ""
    return code, json.loads(out)


def _weights_one_exponent_off(kind, p, blocks):
    """The literal product of ``charsums.product_weights``, summed here
    term by term, with one exponent off: the first block's factor
    x^1 -+ x^{-1} is x^2 -+ x^{-1}."""
    sign, n = {"sin": -1, "cos": 1}[kind], 2 * p
    vec = {0: 1}
    for block in range(blocks):
        for j in range(1, (p - 1) // 2 + 1):
            up = j + 1 if (block, j) == (0, 1) else j
            step = {}
            for v, c in vec.items():
                for e, w in (((v + up) % n, c), ((v - j) % n, sign * c)):
                    step[e] = step.get(e, 0) + w
            vec = step
    return tuple(vec.get(v, 0) for v in range(n))


def _plant_weights_fault(monkeypatch, faulty_kind: str) -> None:
    """The oracles read ``faulty_kind``'s weights at p = 7 one exponent off."""
    right = spectrum.product_weights

    def planted(kind, p, blocks):
        if (kind, p) == (faulty_kind, 7):
            return _weights_one_exponent_off(kind, p, blocks)
        return right(kind, p, blocks)

    monkeypatch.setattr(spectrum, "product_weights", planted)


ORACLE_CASES_11_30 = 9071


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize(
    "kind, family, failed", [("cos", "dim-ker", 470), ("sin", "mult-diff", 1080)], ids=("U", "W")
)
def test_a_fault_in_the_weights_fails_only_the_cells_that_read_them(
    capsys, monkeypatch, jobs, kind, family, failed
):
    # U is read by the kernel cells only, W by the multiplicity cells only,
    # and only at the prime of the fault; each failure names the closed
    # form and the oracle's value on the faulty weights
    assert run_suite("oracles", 11, 30).cases == ORACLE_CASES_11_30
    _plant_weights_fault(monkeypatch, kind)
    code, report = _verify(capsys, "oracles", 11, jobs, "--n-max", "30")
    if family == "dim-ker":
        cells = [
            (q, "dim-ker", ell, spectrum.dim_ker(q, eta.structure_classes(q)[0], ell),
             spectrum.dim_ker_oracle(q, ell))
            for q in prime_sweep(7, 30)
            for ell in range(7)
        ]
    else:
        cells = [
            (q, f"mult-diff(h={h},c={c})", ell, spectrum.mult_diff_by_index(q, h, ell, c),
             spectrum.mult_diff_oracle(q, h, ell, c))
            for q in (validate(7, a, 0, 1) for a in range(1, 6))
            for h in (1, 2)
            for ell in range(7)
            for c in range(1, 22)
        ]
    want = [
        {"params": str(q), "structure": name, "ell": ell, "expected": str(e), "got": str(g)}
        for q, name, ell, e, g in cells
        if e != g
    ]
    assert code == 1 and report["cases"] == ORACLE_CASES_11_30
    assert report["failures"] == want and len(want) == failed


@pytest.mark.parametrize("jobs", (1, 2))
def test_a_phase_without_the_structure_fails_only_the_h_2_cells(capsys, monkeypatch, jobs):
    # sigma read without [h=2]: the h = 2 structure's circle phase loses its
    # half turn, and every failure is an h = 2 multiplicity cell
    source = inspect.getsource(spectrum.mult_diff_oracle)
    planted = source.replace("// 2 + delta) % 2 * p", "// 2) % 2 * p")
    assert planted != source
    namespace = dict(vars(spectrum))
    exec(planted, namespace)
    monkeypatch.setattr(spectrum, "mult_diff_oracle", namespace["mult_diff_oracle"])
    code, report = _verify(capsys, "oracles", 13, jobs, "--n-max", "20")
    assert code == 1 and report["cases"] == run_suite("oracles", 13, 20).cases
    assert len(report["failures"]) == 2370
    assert all(f["structure"].startswith("mult-diff(h=2,") for f in report["failures"])


def test_a_kernel_oracle_off_the_integers_builds_each_table_once(capsys, monkeypatch):
    # serially, so the weights cache is this process's: the planted oracle
    # reads the real weights, so every cell fails and each key is built once
    right = spectrum.dim_ker_oracle
    monkeypatch.setattr(
        spectrum, "dim_ker_oracle", lambda params, ell: right(params, ell) + Fraction(1, 2)
    )
    charsums.product_weights.cache_clear()
    try:
        code, report = _verify(capsys, "oracles", 3, 1, "--n-max", "10")
        misses = charsums.product_weights.cache_info().misses
    finally:
        charsums.product_weights.cache_clear()
    sweep = prime_sweep(3, 10)
    keys = {("cos", q.a + q.b) for q in sweep} | {("sin", a) for a in range(1, 6)}
    assert code == 1 and len(report["failures"]) == 3 * len(sweep)
    assert all(f["structure"] == "dim-ker" for f in report["failures"])
    assert misses == len(keys) < len(report["failures"])


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize(
    "planted, refusal",
    [
        (Fraction(1, 3), "1 * 1/3 is not in Z[zeta_{}]"),
        (10**60, "1 * " + "1" + "0" * 60 + " does not fit a {}-bit slot"),
    ],
    ids=("not-integral", "past-the-slots"),
)
def test_a_closed_form_outside_the_ring_is_a_failed_case(
    capsys, monkeypatch, jobs, planted, refusal
):
    # embed refuses the closed form (ValueError, OverflowError): one failure
    # entry per cell, naming the family and p, and the certificate is written
    right = charsums.G_h_chi0
    monkeypatch.setattr(
        charsums, "G_h_chi0", lambda h, l, p: planted if l == 1 else right(h, l, p)
    )
    code, report = _verify(capsys, "appendix", 5, jobs)
    failures = []
    for p in (3, 5):
        ring = cyclotomic_ring(as_prime(p))
        slot = 4 * p if planted == Fraction(1, 3) else ring.bits
        for h in (1, 2):
            failures.append({
                "params": f"p={p}",
                "structure": f"gauss-trivial(h={h},l=1)",
                "ell": None,
                "expected": refusal.format(slot),
                "got": ring.to_str(charsums.gauss_direct(h, charsums.CHI0, 1, p)),
            })
    assert code == 1 and report["cases"] == run_suite("appendix", 5, None).cases
    assert report["failures"] == failures


def test_a_trig_product_outside_the_ring_is_a_failed_case(capsys, monkeypatch):
    right = charsums.trig_prod
    monkeypatch.setattr(
        charsums, "trig_prod", lambda kind, k, p: Fraction(1, 3) if k == 1 else right(kind, k, p)
    )
    code, report = _verify(capsys, "appendix", 3, 1)
    ring = cyclotomic_ring(as_prime(3))
    assert code == 1
    assert report["failures"] == [
        {
            "params": "p=3",
            "structure": f"trig-product({kind},k=1)",
            "ell": None,
            "expected": "2 * 1/3 is not in Z[zeta_12]",
            "got": ring.to_str(charsums.trig_prod_direct(kind, 1, 3)),
        }
        for kind in ("sin", "cos")
    ]

SUITES = ("integrality", "parity", "appendix", "oracles", "untwisted")


def _capture_work(monkeypatch) -> dict:
    """Replace the pool by a recorder: suite -> the work items of its tasks."""
    work = {}

    def capture(fn, tasks, jobs):
        assert fn is cli._run_item
        for suite, item in tasks:
            work.setdefault(suite, []).append(item)
        return []

    monkeypatch.setattr(cli, "_pmap", capture)
    return work


SWEEP_SUITES = ("integrality", "parity", "untwisted")


# the sweeps that check every twist ell of a manifold, and the one that
# checks only ell = 0: both are cut by count alike
@pytest.mark.parametrize(
    "suites",
    (
        pytest.param(("integrality", "parity"), id="_twists"),
        pytest.param(("untwisted",), id="_one"),
    ),
)
@pytest.mark.parametrize("p_max, n_max", ((3, 3), (7, 13), (13, 40), (31, 60)))
@pytest.mark.parametrize("jobs", (1, 2, 3, 4, 5))
def test_sweep_chunks_are_contiguous_and_balanced(monkeypatch, suites, p_max, n_max, jobs):
    work = _capture_work(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)  # four workers at most, on any machine
    for suite in suites:
        run_suite(suite, p_max, n_max, jobs)
    sweep = sweep_keys(p_max, n_max)
    for suite in suites:
        chunks = work[suite]
        assert [q for chunk in chunks for q in chunk] == sweep
        assert len(chunks) == min(jobs, 4, len(sweep))
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1
        assert chunks == cli._chunks(sweep, len(chunks))


def test_run_suite_cuts_every_sweep_by_count(monkeypatch):
    work = _capture_work(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # two workers on any machine
    for suite in SWEEP_SUITES:
        run_suite(suite, 13, 40, jobs=2)
    sweep = sweep_keys(13, 40)
    assert work["integrality"] == work["parity"] == work["untwisted"] == [sweep[:821], sweep[821:]]


def test_run_suite_defaults_give_the_documented_work(monkeypatch):
    work = _capture_work(monkeypatch)
    assert tuple(cli._SUITES) == SUITES
    for suite in SUITES:
        run_suite(suite, None, None)
    sweep = sweep_keys(13, 60)
    assert work == {
        "integrality": [sweep],
        "parity": [sweep],
        "appendix": [(p, None) for p in odd_primes_upto(97)],
        "oracles": [(p, 60) for p in odd_primes_upto(31)],
        "untwisted": [sweep],
    }


@pytest.mark.parametrize("suite", SWEEP_SUITES)
def test_a_sweep_sends_keys_and_the_parent_builds_no_record(monkeypatch, suite):
    work = _capture_work(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)  # --jobs 2 runs two slices anywhere
    built = []
    init = ZpParams.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(self.key())

    monkeypatch.setattr(ZpParams, "__init__", counted)
    run_suite(suite, 13, 40, jobs=2)
    assert built == []
    items = work[suite]
    assert len(items) == 2
    for item in items:
        assert type(item) is list
        for key in item:
            assert type(key) is tuple and len(key) == 4
            assert all(type(x) is int for x in key)
    assert [key for item in items for key in item] == sweep_keys(13, 40)
    validate(3, 1, 0, 1)  # the counter sees a construction
    assert built == [(3, 1, 0, 1)]


# one exceptional manifold, checked by all three sweeps, in each half of
# the (13, 40) sweep
_FAULT_KEYS = ((3, 3, 0, 1), (7, 2, 0, 1))


@pytest.mark.parametrize("suite", SWEEP_SUITES)
def test_a_fault_in_each_slice_is_reported_alike_at_any_jobs(monkeypatch, suite):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)  # --jobs 2 runs two slices anywhere
    halves = cli._chunks(sweep_keys(13, 40), 2)
    assert all(key in half for key, half in zip(_FAULT_KEYS, halves))
    right = eta.eta_invariant

    def planted(params, h, ell):
        value = right(params, h, ell)
        return value + Fraction(1, 3) if ell == 0 and params.key() in _FAULT_KEYS else value

    monkeypatch.setattr(eta, "eta_invariant", planted)
    serial, pooled = (run_suite(suite, 13, 40, jobs).to_dict() for jobs in (1, 2))
    assert pooled == serial
    names = [entry["params"] for entry in serial["failures"]]
    faults = [str(validate(*key)) for key in _FAULT_KEYS]
    assert set(names) == set(faults)
    assert names == sorted(names, key=faults.index)  # sweep order


@pytest.mark.parametrize("suite", SUITES)
def test_a_pool_task_of_every_suite_pickles(monkeypatch, suite):
    work = _capture_work(monkeypatch)
    run_suite(suite, 5, 9)
    task = (suite, work[suite][0])
    sent = pickle.loads(pickle.dumps(task))
    assert sent == task
    assert pickle.loads(pickle.dumps(cli._run_item)) is cli._run_item
    assert cli._run_item(sent).to_dict() == cli._run_item(task).to_dict()


def test_invalid_suite_message(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "verify", "--suite", "nope")
    assert (code, out) == (2, "")
    assert err == (
        "usage: zpeta verify [-h] --suite\n"
        "                    {integrality,parity,appendix,oracles,untwisted}\n"
        "                    [--p-max P_MAX] [--n-max N_MAX] [--jobs JOBS] [--out OUT]\n"
        "zpeta verify: error: argument --suite: invalid choice: 'nope' (choose from "
        "'integrality', 'parity', 'appendix', 'oracles', 'untwisted')\n"
    )


def test_sweep_chunks_split_by_count():
    # slice k ends at ceil((k + 1) len / count): the longer slices come first
    assert cli._chunks(list("abcdefg"), 3) == [list("abc"), list("de"), list("fg")]
    assert cli._chunks(list("abcdef"), 4) == [list("ab"), ["c"], list("de"), ["f"]]
    assert cli._chunks(list("abc"), 3) == [["a"], ["b"], ["c"]]
    assert cli._chunks([], 1) == [[]]
    sweep = enumerate_params(13, 40)
    assert [len(half) for half in cli._chunks(sweep, 2)] == [821, 820]
    assert cli._chunks(sweep, 1) == [sweep]


def test_series_command(capsys):
    code, out, _ = run(
        capsys, "series", "--p", "3", "--a", "1", "--h", "1", "--ell", "0",
        "--s", "4", "--terms", "10000",
    )
    assert code == 0
    lines = out.strip().splitlines()
    delta = float(lines[-1].split()[-1])
    assert delta < 1e-6


def test_series_rejects_nonexceptional(capsys):
    # series takes the exceptional manifold (b, c) = (0, 1) of (p, a): it has
    # no --b or --c, so naming either, even at its one valid value, is a usage error
    for flags in (("--b", "1", "--c", "2"), ("--b", "0"), ("--c", "1")):
        code, out, err = run(
            capsys, "series", "--p", "5", "--a", "1", *flags, "--h", "1", "--ell", "0",
            "--s", "4",
        )
        assert (code, out) == (2, "")
        assert err.endswith(f"zpeta: error: unrecognized arguments: {' '.join(flags)}\n")


def test_series_rejects_bad_s(capsys):
    code, _, err = run(
        capsys, "series", "--p", "3", "--a", "1", "--h", "1", "--ell", "0", "--s", "0.5"
    )
    assert code == 2


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(
        st.tuples(
            st.one_of(
                st.sampled_from((float("nan"), float("inf"), float("-inf"))),
                st.floats(max_value=1.0),
                st.floats(min_value=400.0),
            ),
            st.just(10000),
        ),
        st.tuples(st.just(4.0), st.integers(max_value=0)),
    ),
    st.sampled_from(("1", "2")),
)
def test_series_rejects_s_and_terms_outside_the_domain(capsys, case, h):
    s, terms = case
    code, out, err = run(
        capsys, "series", "--p", "3", "--a", "1", "--h", h, "--ell", "0",
        f"--s={s!r}", f"--terms={terms}",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


_SERIES_P3 = ("--p", "3", "--a", "1", "--h", "1", "--ell", "0", "--terms", "3")
_SERIES_P97 = ("--p", "97", "--a", "1", "--h", "1", "--ell", "1", "--terms", "3")


@pytest.mark.parametrize("args, s", [
    (_SERIES_P3, "250"), (_SERIES_P3, "300"), (_SERIES_P97, "115"), (_SERIES_P97, "130"),
])
def test_series_rejects_s_whose_closed_form_underflows(capsys, args, s):
    # (2 pi p)^(-s) is subnormal: the closed form lost digits (s = 250, 115)
    # or read -0 (s = 300, 130) while the spectral sum was still normal
    code, out, err = run(capsys, "series", *args, "--s", s)
    assert (code, out) == (2, "")
    assert err == f"error: eta series evaluation underflows a double at s = {float(s)}\n"


@pytest.mark.parametrize("args", [
    ("--p", "3", "--a", "1294", "--h", "1", "--ell", "1", "--s", "4", "--terms", "5"),
    ("--p", "97", "--a", "401", "--h", "1", "--ell", "1", "--s", "2", "--terms", "10"),
])
def test_series_rejects_a_closed_form_scale_beyond_a_double(capsys, args):
    # p^{[a/2]} does not convert to a double: an uncaught OverflowError exited 1
    code, out, err = run(capsys, "series", *args)
    assert (code, out) == (2, "")
    assert err == f"error: eta series evaluation overflows a double at s = {float(args[-3])}\n"


_ZERO_SERIES = "closed-form   0\nspectral-sum  0\ndifference    0\n"
_SCALE_OVERFLOW = "error: eta series evaluation overflows a double at s = 4.0\n"


@pytest.mark.parametrize("p, a, ell, want", [
    ("3", "10000001", "1", (2, "", _SCALE_OVERFLOW)),  # 6.1 s with the powers built
    ("5", "10000001", "0", (0, _ZERO_SERIES, "")),  # 28.5 s
    ("3", "10000000", "0", (0, _ZERO_SERIES, "")),  # 1.8 s
])
def test_series_far_past_a_double_builds_no_big_power(capsys, p, a, ell, want):
    # the nonzero form is refused before p^[a/2] is built, and a zero form never builds it
    start = time.perf_counter()
    got = run(capsys, "series", "--p", p, "--a", a, "--h", "1", "--ell", ell, "--s", "4")
    assert time.perf_counter() - start < 1.0
    assert got == want


# stdout of `series --p 3 --a A --h 1 --ell 1 --s 4` by [A/2], recorded before the
# early refusal: 3^647 is the first power of 3 past a double (A = 1294)
_SERIES_BOUNDARY = {
    644: "closed-form   1.11303362439e+304\nspectral-sum  1.11303362439e+304\n"
    "difference    1.46179710171e+289\n",
    645: "closed-form   -3.33910087316e+304\nspectral-sum  -3.33910087316e+304\n"
    "difference    6.82171980798e+289\n",
    646: "closed-form   1.00173026195e+305\nspectral-sum  1.00173026195e+305\n"
    "difference    1.94906280228e+289\n",
}


@pytest.mark.parametrize("a", range(1288, 1299))
def test_series_across_the_scale_boundary_is_unchanged(capsys, a):
    # 1294 and 1295 overflow on the closed form's own scale, 1296 to 1298 on the early refusal
    got = run(capsys, "series", "--p", "3", "--a", str(a), "--h", "1", "--ell", "1", "--s", "4")
    if a // 2 in _SERIES_BOUNDARY:
        assert got == (0, _SERIES_BOUNDARY[a // 2], "")
    else:
        assert got == (2, "", _SCALE_OVERFLOW)


# SHA-256 of the concatenated stdout over the grid below, recorded with the
# closed form's own branches on a, h and p mod 4; the closed form read off one
# period of the multiplicity differences must not change it
SERIES_GRID_SHA256 = "11f6ebb49148fd4c1991984b8eb71719e527baee2ec0ca47b8266d26a443c774"


def test_series_output_is_byte_identical_over_a_grid(capsys):
    out = []
    for p in (3, 7, 13):
        for a in range(1, 5):
            for h in ("1", "2"):
                for ell in (0, 1, p - 1):
                    for s in ("1.5", "4"):
                        code, text, err = run(
                            capsys, "series", "--p", str(p), "--a", str(a), "--h", h,
                            "--ell", str(ell), "--s", s, "--terms", "2000",
                        )
                        assert (code, err) == (0, "")
                        out.append(text)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == SERIES_GRID_SHA256


@pytest.mark.parametrize("args, s", [(_SERIES_P3, "240"), (_SERIES_P97, "110")])
def test_series_keeps_s_whose_factor_is_normal(capsys, args, s):
    code, out, _ = run(capsys, "series", *args, "--s", s)
    assert code == 0
    closed, partial = (float(line.split()[-1]) for line in out.splitlines()[:2])
    assert closed != 0 and abs(closed - partial) <= 1e-11 * abs(partial)  # 12 digits printed


@pytest.mark.parametrize("command", (
    ("invariants", "--p", "3", "--a", "1", "--b", "0", "--c", "1"),
    ("holonomy", "--p", "3", "--a", "1", "--b", "0", "--c", "1"),
    ("verify", "--suite", "parity", "--p-max", "5", "--n-max", "9"),
))
@pytest.mark.parametrize("target", ("", "missing/x"))
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, command, target):
    # the directory itself, or a file in a directory that does not exist
    code, out, err = run(capsys, *command, "--out", str(tmp_path / target))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "suite, p_max, n_max, jobs, cpus, pools",
    (
        ("appendix", "5", "9", 10**6, 64, [(2, 2)]),  # capped by the two primes
        ("parity", "7", "13", 10**6, 3, [(3, 3)]),  # capped by the CPUs, before chunking
        ("parity", "7", "13", 10**6, None, []),  # CPU count unknown: serial
        ("oracles", "3", "9", 10**6, 64, []),  # one prime: serial
        ("untwisted", "7", "13", 2, 64, [(2, 2)]),  # --jobs below both caps stands
    ),
)
def test_verify_caps_the_worker_count(capsys, monkeypatch, suite, p_max, n_max, jobs, cpus, pools):
    started = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records the worker and task counts, runs serially."""

        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            work = list(work)
            started.append((self.max_workers, len(work)))
            return map(fn, work)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, out, _ = run(
        capsys, "verify", "--suite", suite, "--p-max", p_max, "--n-max", n_max, "--jobs", str(jobs)
    )
    assert code == 0
    assert started == pools
    serial = run(capsys, "verify", "--suite", suite, "--p-max", p_max, "--n-max", n_max)
    assert serial[1] == out


def test_holonomy_command(capsys):
    code, out, _ = run(capsys, "holonomy", "--p", "3", "--a", "1", "--b", "0", "--c", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 3
    assert payload["blocks"] == ["C3", "1"]
    assert payload["matrix"] == [[0, -1, 0], [1, -1, 0], [0, 0, 1]]
    assert payload["checks"]["failures"] == []


SRC_DIR = os.path.dirname(os.path.dirname(zpeta.__file__))


def test_holonomy_refuses_a_matrix_above_the_size_bound():
    # n = 90,003: a dense matrix would need tens of GB, so the refusal must
    # come before anything is built; the child runs under a 1 GB address-space
    # limit and a short timeout, so a regression fails here instead of swapping
    assert MAX_HOLONOMY_N >= 483  # the (97,3,2,1) reference size
    limit = 1024**3
    proc = subprocess.run(
        [sys.executable, "-m", "zpeta.cli", "holonomy", "--p", "3", "--a", "1", "--b", "30000",
         "--c", "1"],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": SRC_DIR},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"limited to {MAX_HOLONOMY_N}" in proc.stderr


def test_classnumber_command(capsys):
    code, out, _ = run(capsys, "classnumber", "--p", "23")
    assert code == 0 and out.strip() == "3"
    code, _, err = run(capsys, "classnumber", "--p", "13")
    assert code == 2
    assert "3 mod 4" in err


@pytest.mark.parametrize(
    "argv",
    (
        ("classnumber", "--p", "1048583"),
        ("series", "--p", "1048583", "--a", "1", "--h", "1", "--ell", "1", "--s", "4"),
    ),
)
def test_a_prime_above_the_table_bound_is_refused_before_any_table(capsys, argv):
    # 1048583 is the least prime above 2^20; at p = 2,000,003 classnumber took
    # 1.4 s and 97 MB, series 23 s and 226 MB
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    bound = cli.MAX_TABLE_P
    assert err == f"error: p = 1048583 is above {bound}: this command builds tables of size p\n"


def test_classnumber_at_the_largest_prime_under_the_table_bound(capsys):
    # 1048571 = 3 (mod 4) is the largest such prime below 2^20
    assert run(capsys, "classnumber", "--p", "1048571") == (0, "567\n", "")


@pytest.mark.parametrize(
    "p, message",
    (
        ("318665857834031151167461", "must be prime"),  # psi_12 = 399165290221 * 798330580441
        ("3317044064679887385961981", "certified only below"),  # psi_13
    ),
)
def test_classnumber_rejects_a_strong_pseudoprime(capsys, p, message):
    code, out, err = run(capsys, "classnumber", "--p", p)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["invariants"]) == 2  # missing required flags


def test_sweep_spec_enumeration():
    params = enumerate_params(5, 12)
    assert params == sorted(params, key=lambda q: q.key())
    assert all(q.p <= 5 and q.n <= 12 and q.beta1 % 2 == 1 for q in params)
    # every valid odd-n key of the bounds, and no even-n one
    want = [
        (p, a, b, c)
        for p in (3, 5) for a in range(7) for b in range(5) for c in range(1, 13)
        if a + b and (b + c) % 2 and a * (p - 1) + b * p + c <= 12
    ]
    assert [q.key() for q in params] == want


@pytest.mark.parametrize(
    "bounds",
    (
        ("--suite", "parity", "--p-max", "0", "--n-max", "9"),  # not the default p <= 13
        ("--suite", "integrality", "--p-max", "2"),  # no odd prime
        ("--suite", "untwisted", "--n-max", "0"),
        ("--suite", "appendix", "--p-max", "2"),
    ),
)
def test_verify_empty_sweep_is_a_usage_error(capsys, bounds):
    code, out, err = run(capsys, "verify", *bounds)
    assert code == 2
    assert out == ""
    assert "checked no cases" in err


@pytest.mark.parametrize("jobs", ("0", "-3", "two"))
def test_verify_rejects_jobs_below_one(capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    code, out, err = run(
        capsys, "verify", "--suite", "parity", "--p-max", "3", "--n-max", "3", "--jobs", jobs
    )
    assert code == 2
    assert out == ""
    assert "--jobs" in err


# ---------------------------------------------------------------------------
# the certificate writer: json.dumps(obj, indent=2) is its oracle

_json_keys = st.text()  # any code point but surrogates: non-ASCII and control characters
_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**256),
    st.integers(max_value=-1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
    st.lists(st.one_of(st.integers(), st.booleans())),  # int rows, some with a bool
    # sparse int rows (matrix rows): runs of zeros between nonzeros, which may
    # lead, trail or be adjacent, and be negative or above 2^64
    st.tuples(
        st.lists(
            st.tuples(
                st.integers(0, 8),
                st.one_of(st.integers(), st.integers(2**64, 2**256), st.integers(max_value=-1))
                .filter(bool),
            ),
            max_size=6,
        ),
        st.integers(0, 8),
    ).map(lambda runs: [x for gap, v in runs[0] for x in (*[0] * gap, v)] + [0] * runs[1]),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_json_keys, inner, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example([1, True])
@example([0])
@example([0, 0])
@example([5, 0, 0])
@example([0, 0, -7])
@example([0, True])  # a bool takes the generic path, not the int row
@example([[], {}, [[]], {"": {}}])
@example({"é\x00\x1f ": ["\x7f", "퟿\U0001f600", -0.0, 1e300, None]})
@example((2**64, -(2**64), 0))
def test_writer_is_json_dumps_indent_2(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2)


_matrix_entries = st.one_of(
    st.just(0),  # zero runs, as in a holonomy matrix
    st.integers(-9, 9),
    st.integers(),  # negative and multi-digit
    st.sampled_from((2**64, -(2**64), 2**64 - 1, 1 - 2**64)),
)


@st.composite
def _int_matrices(draw):
    n = draw(st.integers(1, 6))
    return [draw(st.lists(_matrix_entries, min_size=n, max_size=n)) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(_int_matrices())
@example([])  # n = 0 has no row
def test_writer_of_intmatrix_rows_is_json_dumps_indent_2(rows):
    # an IntMatrix is written as its rows, without a type scan; the bytes are json.dumps's
    matrix = IntMatrix(rows)
    assert cli._json(matrix) == json.dumps(rows, indent=2)
    payload = {"p": 3, "blocks": ["C3"], "matrix": matrix, "checks": {"ok": True}}
    assert cli._json(payload) == json.dumps(dict(payload, matrix=rows), indent=2)


@pytest.mark.parametrize(
    "rows",
    (
        ((0, True), (1, 0)),  # a bool is written true, not as the int 1
        ((True, 0), (0, False)),
        ((0, 0.0), (1, 0)),  # 0.0 is written, not skipped as a zero
        ((0.0,),),
    ),
)
def test_writer_scans_a_plain_tuple_of_tuples(rows):
    assert type(rows) is tuple
    assert cli._json(rows) == json.dumps(rows, indent=2)
    assert cli._json({"matrix": rows}) == json.dumps({"matrix": rows}, indent=2)


@pytest.mark.parametrize("key", (1, 1.5, True, None, (1, 2)))
def test_writer_refuses_a_non_str_key(key):
    # json.dumps writes int, float, bool and None keys as strings; no
    # certificate has one, so the writer raises TypeError rather than match
    with pytest.raises(TypeError):
        cli._json({"ok": 0, key: 0})


def test_holonomy_p97_is_json_dumps_of_its_payload(capsys, monkeypatch):
    payloads = []
    writer = cli._json

    def recording(obj, *indent):  # nested values come back through cli._json too
        payloads.append(obj)
        return writer(obj, *indent)

    monkeypatch.setattr(cli, "_json", recording)
    code, out, err = run(capsys, "holonomy", "--p", "97", "--a", "3", "--b", "2", "--c", "1")
    assert (code, err) == (0, "")
    matrix = payloads[0]["matrix"]
    assert type(matrix) is IntMatrix and matrix.n == 483
    assert out == json.dumps(dict(payloads[0], matrix=matrix.rows), indent=2) + "\n"


# ---------------------------------------------------------------------------
# inputs refused at the boundary


@pytest.mark.parametrize("command", ("invariants", "holonomy"))
def test_nonprincipal_ideal_is_a_usage_error(capsys, command):
    code, out, err = run(
        capsys, command, "--p", "3", "--a", "1", "--b", "0", "--c", "1", "--ideal", "foo"
    )
    assert (code, out) == (2, "")
    assert err == "error: no matrix model for ideal class 'foo'\n"


def test_invariants_past_the_row_bound_refuse_before_building_a_structure(capsys, monkeypatch):
    # p 2^(b+c) rows: (3,1,14,1) peaked at 122 MB, and (3,1,10^9,1) built 10^9 deltas
    assert cli.MAX_INVARIANT_ROWS == 2**20

    def unreachable(params):
        raise LookupError(f"structure_classes ran for {params}")

    monkeypatch.setattr(eta, "structure_classes", unreachable)
    # 524287 * 2 = 2^20 - 2 rows is admitted, the next prime 524309 is not.
    # The admitted table's dim ker has about 79,000 digits, so the digit
    # bound refuses it first, also before any structure; with no digit
    # limit it reaches the structures
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        with pytest.raises(eta.DomainError, match=r"^an invariant of \(524287,1,0,1\) has more"):
            invariant_rows(validate(524287, 1, 0, 1))
        sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(LookupError, match="structure_classes ran"):
            invariant_rows(validate(524287, 1, 0, 1))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    for p, b in (("524309", "0"), ("3", "18"), ("3", "1000000000")):
        code, out, err = run(capsys, "invariants", "--p", p, "--a", "1", "--b", b, "--c", "1")
        assert (code, out) == (2, "")
        assert err == (
            f"error: the invariant table of ({p},1,{b},1) would have more than "
            "1048576 rows (p 2^(b+c))\n"
        )


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)  # as in a fresh process
    argv = ("holonomy", "--p", "5", "--a", "1", "--b", "1", "--c", "1")
    first = run(capsys, *argv)
    usage = run(capsys, "holonomy", "--p", "5")
    helped = run(capsys, "--help")
    last = run(capsys, *argv)
    assert len(built) == 1
    assert first[0] == 0 and first[1].startswith("{")
    assert last == first
    assert usage[:2] == (2, "") and "required" in usage[2]
    assert helped == (0, build().format_help(), "")
    # a direct call still builds a fresh, working parser
    parser = build()
    assert parser is not cli._parser
    assert parser.parse_args(list(argv)).func is cli.cmd_holonomy


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_library_example_runs_and_cli_lines_parse():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = [line.split() for line in text.splitlines() if line.startswith("zpeta ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])  # a renamed flag or subcommand exits 2


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no digit limit"
)
@pytest.mark.parametrize("a, fmt", (("100000", "table"), ("20001", "json")))
def test_invariants_beyond_the_digit_limit_is_a_domain_error(capsys, a, fmt):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(
        capsys, "invariants", "--p", "3", "--a", a, "--b", "0", "--c", "1", "--format", fmt
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: an invariant of (3,{a},0,1) has more than {limit} digits, "
        "the interpreter's limit for printing an integer\n"
    )
    assert sys.get_int_max_str_digits() == limit



@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no digit limit"
)
def test_invariants_far_past_the_digit_limit_refuse_before_any_record(capsys, monkeypatch):
    # the refusal was the str() of computed values: 3.3 s of big-integer work at a = 10^7 + 1
    argv = ("invariants", "--p", "3", "--a", "10000001", "--b", "0", "--c", "1")
    line = (
        f"error: an invariant of (3,10000001,0,1) has more than "
        f"{sys.get_int_max_str_digits()} digits, the interpreter's limit for printing an integer\n"
    )
    start = time.perf_counter()
    assert run(capsys, *argv, "--out", os.devnull) == (2, "", line)
    assert time.perf_counter() - start < 0.5

    def unreachable(params, structure):
        raise LookupError(f"structure_records ran for {params}")

    monkeypatch.setattr(eta, "structure_records", unreachable)
    assert run(capsys, *argv) == (2, "", line)


def _printable(params) -> bool:
    """Whether every value of the invariant table converts to a string."""
    try:
        for structure in eta.structure_classes(params):
            for rec in eta.structure_records(params, structure):
                str((rec.eta, rec.dim_ker, rec.eta_bar, rec.eta_bar_mod_Z, rec.relative_mod_Z))
    except ValueError:
        return False
    return True


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no digit limit"
)
@pytest.mark.parametrize("p, b, c", ((3, 0, 1), (3, 2, 1), (5, 1, 2), (7, 0, 3), (13, 3, 2)))
def test_the_early_digit_refusal_refuses_only_unprintable_tables(monkeypatch, p, b, c):
    # the lower bound refuses before any record; str() decides near the limit
    built = []
    records = eta.structure_records

    def counting(params, structure):
        built.append(params)
        return records(params, structure)

    centre = round(sys.get_int_max_str_digits() / math.log10(2) / ((p - 1) // 2))
    outcomes = set()
    for ab in range(centre - 10, centre + 25):
        params = validate(p, ab - b, b, c)
        printable = _printable(params)
        monkeypatch.setattr(eta, "structure_records", counting)
        built.clear()
        try:
            cli._class_tables(params)
            refused = None
        except eta.DomainError:
            refused = "late" if built else "early"
        monkeypatch.undo()
        assert (refused is None) == printable, params
        outcomes.add(refused)
    assert outcomes == {None, "late", "early"}

@pytest.mark.parametrize("a, b, fmt", (("20001", "0", "json"), ("1", "18", "csv")))
def test_invariants_refused_before_output_create_no_file(capsys, tmp_path, a, b, fmt):
    # the digit limit (when the interpreter has one) and the row bound
    if b == "0" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("interpreter has no digit limit")
    target = tmp_path / "table"
    code, out, err = run(
        capsys, "invariants", "--p", "3", "--a", a, "--b", b, "--c", "1", "--format", fmt,
        "--out", str(target),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_python_dash_m_zpeta_is_the_cli(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "zpeta", "classnumber", "--p", "23"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
    )
    code, out, _ = run(capsys, "classnumber", "--p", "23")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
    assert code == 0


# ---------------------------------------------------------------------------
# an unwritable stdout: exit 2 and one error line, from every subcommand

_EVERY_SUBCOMMAND = (
    ("invariants", "--p", "3", "--a", "1", "--b", "0", "--c", "1"),
    ("verify", "--suite", "parity", "--p-max", "5", "--n-max", "9"),
    ("series", "--p", "3", "--a", "1", "--h", "1", "--ell", "0", "--s", "4"),
    ("holonomy", "--p", "3", "--a", "1", "--b", "0", "--c", "1"),
    ("classnumber", "--p", "23"),
)
# argparse writes help itself and drops a write error; zpeta sends it through _emit
_EVERY_HELP = (("--help",), *((command[0], "--help") for command in _EVERY_SUBCOMMAND))


def _command_id(command) -> str:
    return " ".join(command) if command[-1] == "--help" else command[0]


def _assert_one_stdout_error(returncode: int, stderr: str) -> None:
    assert returncode == 2, stderr
    assert stderr.startswith("error: cannot write stdout") and stderr.count("\n") == 1, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ("", "1"), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("command", _EVERY_SUBCOMMAND + _EVERY_HELP, ids=_command_id)
def test_a_full_stdout_is_a_usage_error(command, unbuffered):
    # buffered, the error surfaces only when the output is flushed
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "zpeta", *command],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONUNBUFFERED": unbuffered},
        )
    _assert_one_stdout_error(proc.returncode, proc.stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ("", "1"), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize(
    "command, stdout_full",
    [
        (("invariants", "--p", "3", "--a", "0", "--b", "0", "--c", "1"), False),
        (("verify", "--suite", "parity", "--p-max", "5", "--n-max", "9"), True),
    ],
    ids=("refusal", "verify-stdout-and-stderr-full"),
)
def test_a_full_stderr_is_still_a_usage_error(command, stdout_full, unbuffered):
    # the error line is lost, so the exit code alone reports it: 2, not the
    # 1 of a failed verification, nor the 120 of a failed last flush
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "zpeta", *command],
            stdout=full if stdout_full else subprocess.PIPE,
            stderr=full,
            timeout=60,
            env={**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONUNBUFFERED": unbuffered},
        )
    assert proc.returncode == 2
    assert stdout_full or proc.stdout == b""


def test_a_stdout_pipe_closed_early_is_a_usage_error():
    # the (97,3,2,1) certificate is about 2 MB, far past a pipe's buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "zpeta", "holonomy", "--p", "97", "--a", "3", "--b", "2",
         "--c", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONUNBUFFERED": ""},
    )
    assert proc.stdout.read(10) == b'{\n  "p": 9'
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    _assert_one_stdout_error(proc.wait(timeout=60), stderr)


@pytest.mark.parametrize("command", _EVERY_HELP, ids=_command_id)
def test_help_into_a_pipe_closed_before_reading_is_a_usage_error(command):
    # the help text fits in a pipe's buffer, so the reader is gone before it starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zpeta", *command],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONUNBUFFERED": ""},
        )
    finally:
        os.close(write_end)
    _assert_one_stdout_error(proc.returncode, proc.stderr)


class _FailingStdout(io.StringIO):
    def write(self, text):
        raise OSError("stdout refused")


@pytest.mark.parametrize("command", _EVERY_SUBCOMMAND + _EVERY_HELP, ids=_command_id)
def test_a_failing_sys_stdout_in_process_leaves_fd_1_alone(capsys, monkeypatch, command):
    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", _FailingStdout())
    code = main(list(command))
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == "error: cannot write stdout: stdout refused\n"
    assert os.path.samestat(os.fstat(1), before)


# ---------------------------------------------------------------------------
# every invalid input of a subcommand: exit 2, nothing on stdout, one error line

_NOT_INT_TEXT = st.sampled_from(("", "x", "1.5", "3.0", "1e3", "0x3", "seven", "2/3"))
_NOT_ODD_PRIME = st.integers(-10, 5000).filter(lambda n: n < 3 or not is_prime(n))
_NEGATIVE = st.integers(-(10**6), -1)


def _one_break(base: dict, breaks: dict):
    """base with one flag replaced (a value of its strategy), or dropped (None)."""

    def apply(pair):
        flag, value = pair
        argv = dict(base, **{flag: value})
        return [x for k, v in argv.items() if v is not None for x in (f"--{k}", str(v))]

    return st.one_of(*(st.tuples(st.just(k), v) for k, v in breaks.items())).map(apply)


def _int_breaks(base, required):
    # every int flag: text that is no int; every required flag: left out
    return {k: st.one_of(_NOT_INT_TEXT, st.just(None) if k in required else _NOT_INT_TEXT)
            for k in base}


_MANIFOLD = {"p": 3, "a": 1, "b": 0, "c": 1}
_MANIFOLD_BREAKS = {
    "p": _NOT_ODD_PRIME, "a": _NEGATIVE, "b": _NEGATIVE, "c": st.integers(-50, 0),
    "ideal": st.text(min_size=1).filter(lambda t: t != "principal" and not t.startswith("-")),
}
_INVALID = {
    "invariants": st.one_of(
        _one_break(_MANIFOLD, {**_int_breaks(_MANIFOLD, _MANIFOLD), **_MANIFOLD_BREAKS}),
        _one_break(_MANIFOLD, {"b": st.sampled_from((1, 3))}),  # even dimension
        _one_break(dict(_MANIFOLD, a=0), {"b": st.just(0)}),  # a + b = 0
        # more than MAX_INVARIANT_ROWS rows, p 2^(b+c)
        _one_break(_MANIFOLD, {"b": st.integers(10, 10**9).map(lambda k: 2 * k)}),
        _one_break(_MANIFOLD, {"format": st.sampled_from(("xml", "", "JSON"))}),
    ),
    "holonomy": st.one_of(
        _one_break(_MANIFOLD, {**_int_breaks(_MANIFOLD, _MANIFOLD), **_MANIFOLD_BREAKS}),
        _one_break(_MANIFOLD, {"a": st.integers(1000, 10**6)}),  # n > 2000
    ),
    "series": st.one_of(
        _one_break(
            {"p": 3, "a": 1, "h": 1, "ell": 1, "s": 4},
            {
                **_int_breaks({"p": 3, "a": 1, "ell": 1, "terms": 9}, ("p", "a", "ell")),
                "p": _NOT_ODD_PRIME, "a": _NEGATIVE,
                "h": st.one_of(st.integers(-9, 9).filter(lambda h: h not in (1, 2)), _NOT_INT_TEXT),
                "s": st.one_of(st.floats(-100, 1), st.sampled_from(("nan", "inf", "x", None))),
                "terms": st.integers(-100, 0),
            },
        ),
        _one_break({"p": 3, "a": 1, "h": 1, "ell": 1, "s": 4}, {"a": st.integers(1294, 5000)}),
    ),
    "verify": _one_break(
        {"suite": "parity", "p-max": 3, "n-max": 3},
        {
            "suite": st.text(max_size=8).filter(lambda t: t not in cli._SUITES and t[:1] != "-"),
            "p-max": st.one_of(st.integers(-9, 2), _NOT_INT_TEXT),
            "n-max": st.one_of(st.integers(-9, 2), _NOT_INT_TEXT),
            "jobs": st.one_of(st.integers(-9, 0), _NOT_INT_TEXT),
        },
    ),
    "classnumber": _one_break(
        {"p": 3},
        {"p": st.one_of(
            _NOT_ODD_PRIME,
            st.sampled_from(odd_primes_upto(200)).filter(lambda p: p % 4 == 1),
            _NOT_INT_TEXT,
            st.just(None),
            st.integers(3317044064679887385961981, 10**30),
        )},
    ),
}


@pytest.mark.parametrize("command", sorted(_INVALID))
def test_every_invalid_input_exits_2_with_one_error_line(capsys, command):
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(_INVALID[command])
    def check(argv):
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, ""), (argv, err)
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)

    check()
