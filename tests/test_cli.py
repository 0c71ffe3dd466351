import csv
import io
import json

import pytest

from zpeta import cli
from zpeta.cli import invariant_rows, main, render_rows, run_suite
from zpeta.manifold import enumerate_params, validate


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
