import csv
import hashlib
import io
import json
import os
import pickle
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import zpeta
from zpeta import cli, eta, spectrum
from zpeta.cli import invariant_rows, main, render_rows, run_suite
from zpeta.exact import rational_str
from zpeta.manifold import (
    MAX_HOLONOMY_N,
    enumerate_params,
    enumerate_spin_structures,
    validate,
)
from zpeta.numtheory import is_prime, odd_primes_upto


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    rows1 = invariant_rows(validate(5, 1, 0, 1))
    rows2 = invariant_rows(validate(5, 1, 0, 1))
    for fmt in ("table", "json", "csv"):
        assert render_rows(rows1, fmt) == render_rows(rows2, fmt)


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
            "ell": rec.ell,
            "eta": rational_str(rec.eta),
            "dim_ker": str(rec.dim_ker),
            "eta_bar": rational_str(rec.eta_bar),
            "eta_bar_mod_Z": str(rec.eta_bar_mod_Z),
            "relative_mod_Z": str(rec.relative_mod_Z),
        }
        for structure in enumerate_spin_structures(params)
        for rec in eta.structure_records(params, structure)
    ]


def test_invariant_rows_match_a_table_per_structure():
    # b + c <= 7 keeps the sweep at 274 manifolds and 59,250 rows; (3,1,0,29) has 2^29 structures
    sweep = [q for q in enumerate_params(7, 30) if q.beta1 <= 7]
    for params in sweep + [validate(5, 1, 2, 3), validate(3, 1, 8, 3)]:
        rows = invariant_rows(params)
        assert rows == _rows_structure_by_structure(params), params
        assert [list(row) for row in rows] == [cli._CSV_HEADER] * len(rows), params


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


@pytest.mark.parametrize("jobs", ("1", "2"))
@pytest.mark.parametrize("suite, p_max, n_max", sorted(SWEEP_SHA256))
def test_verify_sweep_certificate_is_byte_identical(capsys, suite, p_max, n_max, jobs):
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--p-max", p_max, "--n-max", n_max, "--jobs", jobs
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[suite, p_max, n_max]


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


@pytest.mark.parametrize("cost", (cli._twists, cli._one))
@pytest.mark.parametrize("p_max, n_max", ((3, 3), (7, 13), (13, 40), (31, 60)))
@pytest.mark.parametrize("jobs", (2, 3, 5))
def test_sweep_chunks_are_contiguous_and_balanced(cost, p_max, n_max, jobs):
    sweep = enumerate_params(p_max, n_max)
    chunks = cli._chunks(sweep, jobs, cost)
    assert [q for chunk in chunks for q in chunk] == sweep
    assert all(chunks) and len(chunks) <= jobs
    if len(sweep) >= 2 * jobs:
        assert len(chunks) == jobs
    weights = [cost(q) for q in sweep]
    bound = sum(weights) / jobs + max(weights)
    assert all(sum(cost(q) for q in chunk) <= bound for chunk in chunks)


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


def test_run_suite_cuts_each_sweep_by_its_own_cost(monkeypatch):
    work = _capture_work(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # two workers on any machine
    sweep = enumerate_params(13, 40)
    by_p, by_count = cli._chunks(sweep, 2, cli._twists), cli._chunks(sweep, 2, cli._one)
    assert by_p != by_count
    for suite in ("integrality", "parity", "untwisted"):
        run_suite(suite, 13, 40, jobs=2)
    assert work["integrality"] == work["parity"] == by_p
    assert work["untwisted"] == by_count


def test_run_suite_defaults_give_the_documented_work(monkeypatch):
    work = _capture_work(monkeypatch)
    assert tuple(cli._SUITES) == SUITES
    for suite in SUITES:
        run_suite(suite, None, None)
    sweep = enumerate_params(13, 60)
    assert work == {
        "integrality": [sweep],
        "parity": [sweep],
        "appendix": [(p, None) for p in odd_primes_upto(97)],
        "oracles": [(p, 60) for p in odd_primes_upto(31)],
        "untwisted": [sweep],
    }


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


def test_sweep_chunks_around_a_heavy_item():
    def heavy(at):
        return lambda q: 10 if q == at else 1

    assert cli._chunks(list("abcdef"), 3, heavy("f")) == [list("abcde"), ["f"]]
    assert cli._chunks(list("abcdef"), 3, heavy("a")) == [["a"], ["b"], list("cdef")]
    assert cli._chunks(list("abcdef"), 3, heavy("c")) == [list("abc"), ["d"], list("ef")]


def test_sweep_chunks_split_by_cumulative_p():
    sweep = enumerate_params(13, 40)
    halves = cli._chunks(sweep, 2, cli._twists)
    assert [sum(q.p for q in half) for half in halves] == [3697, 3696]
    assert [len(half) for half in cli._chunks(sweep, 2, cli._one)] == [821, 820]
    assert cli._chunks(sweep, 1, cli._twists) == [sweep]


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
    code, _, err = run(
        capsys, "series", "--p", "5", "--a", "1", "--b", "1", "--c", "2",
        "--h", "1", "--ell", "0", "--s", "4",
    )
    assert code == 2
    assert "exceptional" in err


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
    assert enumerate_params(5, 12, include_even_n=True) != params


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
@example([[], {}, [[]], {"": {}}])
@example({"é\x00\x1f ": ["\x7f", "퟿\U0001f600", -0.0, 1e300, None]})
@example((2**64, -(2**64), 0))
def test_writer_is_json_dumps_indent_2(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2)


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
    assert len(payloads[0]["matrix"]) == 483
    assert out == json.dumps(payloads[0], indent=2) + "\n"


# ---------------------------------------------------------------------------
# inputs refused at the boundary


@pytest.mark.parametrize("command", ("invariants", "holonomy"))
def test_nonprincipal_ideal_is_a_usage_error(capsys, command):
    code, out, err = run(
        capsys, command, "--p", "3", "--a", "1", "--b", "0", "--c", "1", "--ideal", "foo"
    )
    assert (code, out) == (2, "")
    assert err == "error: no matrix model for ideal class 'foo'\n"


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
                "p": _NOT_ODD_PRIME, "a": _NEGATIVE, "b": st.integers(1, 9),
                "c": st.integers(2, 9),
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
