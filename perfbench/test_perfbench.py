"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Op, OpResult, check, run_op  # noqa: E402

zpeta, API = run.load_zpeta()


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        ("cli.main", -1, 0.0, 10.0),
        ("eta.verify_parity", 0, 1.0, 4.0),
        ("numtheory.as_prime", 1, 2.0, 3.0),
        ("exact.rational_str", 0, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_takes_the_union_of_overlapping_remote_children():
    spans = [
        ("cli.main", -1, 0.0, 10.0),
        (tracing.REMOTE, 0, 1.0, 6.0),
        (tracing.REMOTE, 0, 2.0, 8.0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)
    assert tracing.summarize(spans) == {"cli.main": [1, pytest.approx(3.0)]}


def test_self_time_clips_children_to_the_parent():
    spans = [("cli.main", -1, 0.0, 4.0), (tracing.REMOTE, 0, 3.0, 9.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_summarize_adds_calls_and_self_time_per_name():
    spans = [
        ("cli.main", -1, 0.0, 5.0),
        ("numtheory.as_prime", 0, 1.0, 2.0),
        ("numtheory.as_prime", 0, 3.0, 3.5),
    ]
    summary = tracing.summarize(spans)
    assert summary["numtheory.as_prime"] == [2, pytest.approx(1.5)]
    assert summary["cli.main"] == [1, pytest.approx(3.5)]


# -- statistics -----------------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, med, q3 = run.quartiles(values)
    expected = statistics.quantiles(values, n=4)
    assert (q1, med, q3) == (expected[0], expected[1], expected[2])
    assert med == statistics.median(values)


def test_quartiles_of_one_value():
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_hit_ratio_and_imbalance():
    caches = {"a": (3, 1), "b": (6, 0)}
    assert run.hit_ratio(caches, ("a", "b")) == pytest.approx(0.9)
    assert run.hit_ratio(caches, ("missing",)) == 0.0
    assert run.imbalance({101: 3.0, 102: 1.0}, 2) == (3.0, 2.0)
    assert run.imbalance({101: 4.0}, 2) == (4.0, 2.0)  # one slot idle


def test_reference_speed_scaling():
    ref = run.CALIBRATION_REF_S
    assert run.at_reference_speed(2.0, ref, ref) == pytest.approx(2.0)
    assert run.at_reference_speed(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)


# -- failure counting -----------------------------------------------------------


def _fake_api(outputs):
    """A cli.main stand-in: argv[1] picks (exit code, stdout) or an exception."""

    def main(argv):
        outcome = outputs[argv[1]]
        if isinstance(outcome, Exception):
            raise outcome
        code, text = outcome
        sys.stdout.write(text)
        return code

    return SimpleNamespace(main=main)


def test_failures_are_counted_per_operation():
    good = json.dumps({"cases": 3})
    api = _fake_api(
        {
            "ok": (0, good),
            "exit": (1, good),
            "raises": RuntimeError("boom"),
            "differs": (0, json.dumps({"cases": 4})),
            "unrecorded": (0, good),
        }
    )
    names = ("ok", "exit", "raises", "differs", "unrecorded")
    ops = [Op(("verify", name)) for name in names]
    digest = OpResult("", 0.0, 0, good).sha256
    references = {f"verify {name}": {"sha256": digest, "exit": 0, "cases": 3} for name in names[:4]}
    tally = run.Tally()
    stats = run.run_pass(ops, api, 1, random.Random(0), {}, references, tally)
    assert tally.attempted == 5
    failed = sorted(reason.split(":")[0] for reason in tally.failures)
    assert failed == ["verify differs", "verify exit", "verify raises", "verify unrecorded"]
    assert stats.cases == 3  # only the passing operation counts its cases


def test_wrong_reference_hash_is_a_failure():
    op = Op(("invariants", "--p", "3", "--a", "1", "--b", "0", "--c", "1", "--format", "json"))
    result = run_op(op, API, 1, random.Random(0))
    reference = {"sha256": result.sha256, "exit": 0, "cases": 6}
    assert check(op, result, reference) is None
    flipped = ("0" if reference["sha256"][0] != "0" else "1") + reference["sha256"][1:]
    assert "differs" in check(op, result, dict(reference, sha256=flipped))


def test_recorded_references_cover_every_operation():
    from workloads import WORKLOADS

    recorded = json.loads(run.REFERENCES.read_text())["operations"]
    for workload in WORKLOADS.values():
        for op in workload.ops:
            assert op.key in recorded


# -- boundary tracing -------------------------------------------------------------


def test_tracing_wraps_only_cross_module_calls(tmp_path):
    tracer = tracing.Tracer(zpeta, tmp_path)
    tracer.install()
    try:
        assert zpeta.cli.charsums is not zpeta.charsums
        # numtheory's own calls keep the original binding
        assert zpeta.numtheory.as_prime is not zpeta.charsums.as_prime
        code = tracer.wrap("cli.main", zpeta.cli.main)(
            ["verify", "--suite", "appendix", "--p-max", "5"]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    assert zpeta.cli.charsums is zpeta.charsums
    assert zpeta.charsums.as_prime is zpeta.numtheory.as_prime
    summary = tracing.summarize(tracer.take_spans())
    assert summary["cli.main"][0] == 1
    assert summary["charsums.gauss_direct"][0] == 2 * 2 * (3 + 5)  # h, chi, l
    assert "numtheory.sum_legendre_shift" in summary
    assert not any(name.startswith("numtheory.OddPrime") for name in summary)


def test_worker_spans_reach_the_parent(tmp_path):
    tracer = tracing.Tracer(zpeta, tmp_path)
    tracer.install()
    try:
        code = tracer.wrap("cli.main", zpeta.cli.main)(
            ["verify", "--suite", "parity", "--p-max", "7", "--n-max", "13", "--jobs", "2"]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    records = tracer.collect_worker_records()
    assert len(records) == 2  # one per chunk
    for rec in records:
        assert rec["pid"] != tracer.pid
        assert rec["summary"]["cli.pool_task"][0] == 1
        assert rec["summary"]["eta.verify_parity"][0] == 1
        start, end = rec["task"]
        assert start < end
    assert not list(tmp_path.iterdir())
