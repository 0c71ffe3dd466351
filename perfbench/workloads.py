"""The benchmark's workloads: fixed operations on zpeta's public API.

Every input is a fixed parameter tuple.  The seed only permutes the order
of the operations in a pass and the order of the manifolds inside the
library sweep, so every seed does the same work and produces the same
outputs.  Sizes are the ROADMAP reference sizes scaled down so that one
pass takes a few seconds and a run holds several passes; the reference
sizes are given next to each workload.

Each operation starts from cold caches, as a fresh ``zpeta`` process
would: every functools cache in the package is cleared before it runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One operation: a CLI command, or holonomy checks over a sweep.

    ``key`` names the operation and its recorded reference output.  A
    parallel command gets ``--jobs`` appended at run time; its output does
    not depend on the job count, so the key leaves it out.
    """

    argv: tuple[str, ...] = ()
    parallel: bool = False
    sweep: tuple[int, int] | None = None  # (p_max, n_max) of enumerate_params

    @property
    def key(self) -> str:
        if self.sweep is not None:
            return "holonomy_checks enumerate_params({}, {})".format(*self.sweep)
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]

    @property
    def has_parallel_ops(self) -> bool:
        return any(op.parallel for op in self.ops)


_HOLONOMY_LARGE = ("--p", "53", "--a", "3", "--b", "2", "--c", "1")

WORKLOADS = {
    w.name: w
    for w in (
        # Reference size: --p-max 97 (679,080 identities, 23.6 s serial).
        Workload(
            "appendix-identities",
            "float character-sum and trig-product oracles against closed forms, "
            "serial; never touches manifold, eta or the pool: the single-process baseline",
            (Op(("verify", "--suite", "appendix", "--p-max", "43")),),
        ),
        # Reference size: the suites' defaults (p <= 13, n <= 60; oracles
        # p <= 31) and the 5,275 manifolds of enumerate_params(13, 60).
        Workload(
            "family-sweep",
            "many tiny manifolds through eta, spectrum, exact and manifold with a hot "
            "component cache; the only workload on the --jobs scheduler",
            (
                Op(("verify", "--suite", "integrality", "--p-max", "13", "--n-max", "40"), True),
                Op(("verify", "--suite", "parity", "--p-max", "13", "--n-max", "40"), True),
                Op(("verify", "--suite", "untwisted", "--p-max", "13", "--n-max", "40"), True),
                Op(("verify", "--suite", "oracles", "--p-max", "19", "--n-max", "40"), True),
                Op(sweep=(13, 40)),
            ),
        ),
        # Reference size: p = 97 (n = 483, 10.7 s, 2.1 MB of JSON).
        Workload(
            "holonomy-large",
            "one large manifold: dense IntMatrix power and charpoly with no cache reuse, "
            "and CLI rendering over all 2^(b+c) spin structures",
            (
                Op(("holonomy",) + _HOLONOMY_LARGE),
                Op(("invariants",) + _HOLONOMY_LARGE + ("--format", "json")),
                Op(("invariants",) + _HOLONOMY_LARGE + ("--format", "csv")),
                Op(("invariants",) + _HOLONOMY_LARGE + ("--format", "table")),
            ),
        ),
    )
}


@dataclass
class OpResult:
    key: str
    seconds: float
    exit_code: int | None
    text: str
    error: str | None = None

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def count_cases(op: Op, text: str) -> int:
    """Certificate cases an operation checked or rendered.

    verify: the report's cases; holonomy: its 5 structural checks per
    matrix; invariants: the rows rendered.
    """
    if op.sweep is not None:
        return 5 * len(json.loads(text))
    command = op.argv[0]
    if command == "verify":
        return json.loads(text)["cases"]
    if command == "holonomy":
        return 5
    if command == "invariants":
        if "json" in op.argv:
            return len(json.loads(text))
        return text.count("\n") - 1  # csv and table: one header line
    raise ValueError(f"no case count for {op.key!r}")


def clear_caches(caches: dict[str, object]) -> None:
    for cache in caches.values():
        cache.cache_clear()


def run_op(op: Op, api, jobs: int, rng: random.Random) -> OpResult:
    """Run one operation through ``api`` and time only the call itself.

    ``api`` provides ``main`` (``zpeta.cli.main``), ``enumerate_params``,
    ``build_holonomy`` and ``holonomy_checks``, traced or not.
    """
    try:
        if op.sweep is not None:
            t0 = time.perf_counter()
            sweep = api.enumerate_params(*op.sweep)
            rng.shuffle(sweep)
            reports = [api.holonomy_checks(api.build_holonomy(q), q) for q in sweep]
            seconds = time.perf_counter() - t0
            reports.sort(key=lambda r: r.params.key())
            text = json.dumps([r.to_dict() for r in reports], indent=1) + "\n"
            code = 0 if all(r.all_ok for r in reports) else 1
            return OpResult(op.key, seconds, code, text)
        argv = list(op.argv) + (["--jobs", str(jobs)] if op.parallel else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = api.main(argv)
            seconds = time.perf_counter() - t0
        return OpResult(op.key, seconds, code, out.getvalue())
    except Exception:  # a failing operation is counted, the run goes on
        return OpResult(op.key, 0.0, None, "", traceback.format_exc())


def check(op: Op, result: OpResult, reference: dict | None) -> str | None:
    """Why ``result`` fails, or None when it matches its reference.

    An operation fails on an exception, a nonzero exit (which is how
    verify and holonomy report failures), a missing reference, or an
    exit code, output digest or case count that differs from it.
    """
    if result.error is not None:
        return f"exception: {result.error.strip().splitlines()[-1]}"
    if result.exit_code != 0:
        return f"exit code {result.exit_code}"
    if reference is None:
        return "no recorded reference"
    if result.exit_code != reference["exit"]:
        return f"exit code {result.exit_code}, reference {reference['exit']}"
    if result.sha256 != reference["sha256"]:
        return "stdout differs from the reference (sha256)"
    cases = count_cases(op, result.text)
    if cases != reference["cases"]:
        return f"{cases} cases, reference {reference['cases']}"
    return None
