import csv
import hashlib
import io
import json
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zpeta import cli, spectrum
from zpeta.cli import invariant_rows, main, render_rows, run_suite
from zpeta.manifold import enumerate_params, validate
from zpeta.numtheory import odd_primes_upto


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

    def wrong_at_one_cell(params, h, ell, mu):
        value = right(params, h, ell, mu)
        wrong = (params.key(), h, ell, mu) == ((5, 3, 0, 1), 2, 4, 7 / 2)
        return value + 0.5 if wrong else value

    monkeypatch.setattr(spectrum, "mult_diff_oracle", wrong_at_one_cell)
    report = run_suite("oracles", 5, 12)
    assert [f.to_dict() for f in report.failures] == [
        {
            "params": "(5,3,0,1)",
            "structure": "mult-diff(h=2,c=4)",
            "ell": 4,
            "expected": "-5",
            "got": "-4.500000000000001",
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
