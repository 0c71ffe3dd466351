"""Run one zpeta benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in this process against ``src/`` of the checkout the
script sits in, in passes: one untimed warm-up pass, then timed passes
until ``--seconds`` have gone by (at least three untraced).  A pass runs every operation of the workload once
in an order drawn from the seed, and checks each output against the
reference recorded in ``references.json``.

``--trace 0`` reports the end-to-end metrics (medians over passes): wall
time of a pass, certificate cases checked per second, max RSS, and the
set-up time of a fresh interpreter importing zpeta (median of several
spawns).  Times are scaled to a reference machine speed; see
CALIBRATION_REF_S.  ``--trace 1`` alternates untraced and traced passes (and, for a
workload with ``--jobs`` commands, serial passes of those commands) and
reports the per-layer metrics; see ``tracing.py``.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Without a
``src/zpeta`` package next to this directory the script exits with code
2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS, check, clear_caches, count_cases, run_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCES = HERE / "references.json"

MIN_PASSES = 3
SETUP_SPAWNS = 9
MAX_JOBS = 2
# The benchmark's own calls into zpeta, and the layer each belongs to.
API_LAYERS = (
    ("main", "cli"),
    ("enumerate_params", "manifold"),
    ("build_holonomy", "manifold"),
    ("holonomy_checks", "manifold"),
)

# The speed of the machine drifts by a third or more within minutes, in
# process CPU time as much as in wall time, because neighbours share the
# host.  Every end-to-end time is therefore scaled to a reference speed:
# a fixed pure-Python loop is timed before and after each operation, and
# the operation's time is multiplied by CALIBRATION_REF_S over the mean of
# the two.  CALIBRATION_REF_S is what the loop takes on the machine the
# benchmark was defined on (2-vCPU Intel Xeon VM, Python 3.11) at full
# speed, so reference-speed times read as seconds on that machine.
CALIBRATION_LOOP = 500_000
CALIBRATION_REF_S = 0.030

# The direct character sums and the spectrum oracles are the literal
# floating-point summations; every other charsums function is a closed form.
CHARSUMS_DIRECT = ("charsums.gauss_direct", "charsums.F_direct", "charsums.trig_prod_direct")
SPECTRUM_ORACLES = ("spectrum.mult_diff_oracle", "spectrum.dim_ker_oracle")
CACHE_GROUPS = {
    "charsums.table_hit_ratio": ("charsums._phase_table", "charsums._sine_table"),
    "numtheory.prime_cache_hit_ratio": ("numtheory._prime_cache",),
    "spectrum.table_hit_ratio": (
        "spectrum._sin2_table",
        "spectrum._exp2_table",
        "spectrum._cos_prod_table",
    ),
    "manifold.component_cache_hit_ratio": ("manifold._component_analysis",),
}
UNITS = {
    "wall_s": "s",
    "cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "charsums.direct_calls": "count",
    "charsums.direct_self_s": "s",
    "charsums.closed_self_s": "s",
    "charsums.table_hit_ratio": "ratio",
    "numtheory.calls": "count",
    "numtheory.self_s": "s",
    "numtheory.prime_cache_hit_ratio": "ratio",
    "exact.calls": "count",
    "exact.self_s": "s",
    "spectrum.calls": "count",
    "spectrum.self_s": "s",
    "spectrum.oracle_calls": "count",
    "spectrum.oracle_self_s": "s",
    "spectrum.table_hit_ratio": "ratio",
    "eta.calls": "count",
    "eta.self_s": "s",
    "manifold.calls": "count",
    "manifold.self_s": "s",
    "manifold.matmul_calls": "count",
    "manifold.matmul_mults": "count",
    "manifold.charpoly_s": "s",
    "manifold.component_cache_hit_ratio": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.jobs2_speedup": "ratio",
    "cli.chunk_imbalance": "ratio",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# arithmetic


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, calib_before: float, calib_after: float) -> float:
    return seconds * CALIBRATION_REF_S * 2 / (calib_before + calib_after)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them; a single value is all three."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def hit_ratio(caches: dict[str, tuple[int, int]], names) -> float:
    """hits / lookups over the named caches; 0.0 when there were none."""
    hits = sum(caches.get(n, (0, 0))[0] for n in names)
    lookups = hits + sum(caches.get(n, (0, 0))[1] for n in names)
    return hits / lookups if lookups else 0.0


def imbalance(busy_by_worker: dict, workers: int) -> tuple[float, float]:
    """(max, mean) busy time over ``workers`` pool slots; an idle slot counts 0."""
    busy = list(busy_by_worker.values())
    return (max(busy) if busy else 0.0), sum(busy) / workers


def layer_metrics(summary: dict, caches: dict, counters: dict, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass."""

    def total(prefix=None, names=()):
        picked = [v for k, v in summary.items() if k in names or (prefix and k.startswith(prefix))]
        return sum(v[0] for v in picked), sum(v[1] for v in picked)

    out = {}
    direct_calls, direct_self = total(names=CHARSUMS_DIRECT)
    _, charsums_self = total("charsums.")
    out["charsums.direct_calls"] = direct_calls
    out["charsums.direct_self_s"] = direct_self
    out["charsums.closed_self_s"] = charsums_self - direct_self
    for layer in ("numtheory", "exact", "spectrum", "eta", "manifold"):
        out[f"{layer}.calls"], out[f"{layer}.self_s"] = total(f"{layer}.")
    out["spectrum.oracle_calls"], out["spectrum.oracle_self_s"] = total(names=SPECTRUM_ORACLES)
    out["manifold.matmul_calls"] = counters["matmul_calls"]
    out["manifold.matmul_mults"] = counters["matmul_mults"]
    out["manifold.charpoly_s"] = counters["charpoly_s"]
    _, out["cli.self_s"] = total("cli.")
    out["cli.output_bytes"] = output_bytes
    for metric, names in CACHE_GROUPS.items():
        out[metric] = hit_ratio(caches, names)
    return out


# ---------------------------------------------------------------------------
# environment


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from .git; None without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int, jobs: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": src_digest(SRC),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "jobs": jobs,
    }


# ---------------------------------------------------------------------------
# set-up time


def measure_setup(count: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning an interpreter until ``import zpeta`` returns,
    raw and at reference speed.

    The child reads the same system-wide monotonic clock as this process.
    It runs with one OpenBLAS thread: importing numpy otherwise starts a
    thread pool whose start-up waits on the other vCPU, and that wait
    swung between about 5 and 60 ms for minutes at a time on the machine
    the benchmark was defined on, up to a third of the whole set-up time.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import time, zpeta; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    raw, scaled = [], []
    before = calibrate()
    for _ in range(count):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        raw.append(float(proc.stdout) - t0)
        after = calibrate()
        scaled.append(at_reference_speed(raw[-1], before, after))
        before = after
    return raw, scaled


# ---------------------------------------------------------------------------
# passes


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


@dataclass
class PassStats:
    raw_wall_s: float = 0.0
    wall_s: float = 0.0  # at reference speed
    cases: int = 0
    output_bytes: int = 0
    parallel_s: float = 0.0  # at reference speed, in the operations that take --jobs
    layers: dict = field(default_factory=dict)
    chunk_max_s: float = 0.0
    chunk_mean_s: float = 0.0
    ops: list = field(default_factory=list)


def run_pass(ops, api, jobs, rng, caches, references, tally, observe=None) -> PassStats:
    """Run ``ops`` once each in an order drawn from ``rng``, each from cold caches.

    Only the operations are timed; the calibration loop runs between them.
    """
    stats = PassStats()
    before = calibrate()
    for op in rng.sample(ops, len(ops)):
        clear_caches(caches)
        result = run_op(op, api, jobs, rng)
        after = calibrate()
        seconds = at_reference_speed(result.seconds, before, after)
        before = after
        if observe is not None:
            observe(op, result, stats)
        tally.attempted += 1
        reason = check(op, result, references.get(op.key))
        if reason is None:
            stats.cases += count_cases(op, result.text)
        else:
            tally.failures.append(f"{op.key}: {reason}")
        stats.raw_wall_s += result.seconds
        stats.wall_s += seconds
        stats.output_bytes += len(result.text.encode())
        if op.parallel:
            stats.parallel_s += seconds
    return stats


class TraceObserver:
    """Collects one traced pass: parent spans, worker spills, caches, counters."""

    def __init__(self, tracer, jobs: int):
        self.tracer = tracer
        self.jobs = jobs
        self.summary: dict = {}
        self.caches: dict = {}
        self.worker_rss_kb = 0

    def start_pass(self) -> None:
        self.summary, self.caches = {}, {}
        self.tracer.reset_counters()

    def __call__(self, op, result, stats: PassStats) -> None:
        spans = self.tracer.take_spans()
        records = self.tracer.collect_worker_records()
        caches = tracing.cache_counts(self.tracer.package)  # cleared before the op
        busy: dict[int, float] = {}
        roots = [i for i, s in enumerate(spans) if s[1] == -1]
        for rec in records:
            start, end = rec["task"]
            parent = next((i for i in roots if spans[i][2] <= start <= spans[i][3]), -1)
            spans.append([tracing.REMOTE, parent, start, end])
            busy[rec["pid"]] = busy.get(rec["pid"], 0.0) + (end - start)
            tracing.merge_summary(self.summary, rec["summary"])
            for name, (hits, misses) in rec["caches"].items():
                h, m = caches.get(name, (0, 0))
                caches[name] = (h + hits, m + misses)
            for name, value in rec["counters"].items():
                self.tracer.counters[name] += value
            self.worker_rss_kb = max(self.worker_rss_kb, rec["maxrss_kb"])
        tracing.merge_summary(self.summary, tracing.summarize(spans))
        for name, (hits, misses) in caches.items():
            h, m = self.caches.get(name, (0, 0))
            self.caches[name] = (h + hits, m + misses)
        if op.parallel:
            top, mean = imbalance(busy, self.jobs)
            stats.chunk_max_s += top
            stats.chunk_mean_s += mean
        stats.ops.append(
            {
                "op": op.key,
                "seconds": result.seconds,
                "spans": [s for s in spans if s[1] == -1 or s[0] is tracing.REMOTE],
            }
        )

    def finish_pass(self, stats: PassStats) -> None:
        stats.layers = layer_metrics(
            self.summary, self.caches, dict(self.tracer.counters), stats.output_bytes
        )
        stats.layers["cli.chunk_imbalance"] = (
            stats.chunk_max_s / stats.chunk_mean_s if stats.chunk_mean_s else 1.0
        )


# ---------------------------------------------------------------------------
# reporting


def report_line(name: str, values, unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"  {name:<36} {med:>14.6g} {unit:<6} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def load_zpeta():
    """Import zpeta from the checkout's ``src/``; return it and the calls
    the workloads make (see API_LAYERS)."""
    sys.path.insert(0, str(SRC))
    import zpeta
    import zpeta.cli

    api = SimpleNamespace(
        main=zpeta.cli.main,
        enumerate_params=zpeta.enumerate_params,
        build_holonomy=zpeta.build_holonomy,
        holonomy_checks=zpeta.holonomy_checks,
    )
    return zpeta, api


def measure_end_to_end(workload, api, jobs, rng, caches, references, tally, seconds):
    """Untraced passes until ``seconds`` are up, then the set-up spawns."""
    run_pass(workload.ops, api, jobs, rng, caches, references, tally)  # warm-up, untimed
    deadline = time.perf_counter() + seconds
    passes: list[PassStats] = []
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(workload.ops, api, jobs, rng, caches, references, tally))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    raw_setup, setup = measure_setup(SETUP_SPAWNS)
    series = {
        "wall_s": [p.wall_s for p in passes],
        "cases_per_s": [p.cases / p.wall_s for p in passes],
        "setup_s": setup,
        "peak_rss_mb": [peak_rss_mb],
    }
    lines = [
        report_line("raw wall_s (not at reference speed)", [p.raw_wall_s for p in passes], "s"),
        report_line("raw setup_s (not at reference speed)", raw_setup, "s"),
    ]
    if workload.has_parallel_ops:
        lines.append(f"  {'largest pool worker max RSS':<36} {worker_rss_mb:>14.6g} MB")
    return series, lines


def measure_layers(workload, package, api, jobs, rng, caches, references, tally, seconds, env):
    """Cycles of an untraced, a traced and (for --jobs workloads) a serial
    pass until ``seconds`` are up; writes the trace file."""
    BUILD.mkdir(parents=True, exist_ok=True)
    spool = BUILD / f"spool-{os.getpid()}"
    spool.mkdir()
    tracer = tracing.Tracer(package, spool)
    observer = TraceObserver(tracer, jobs)
    traced_api = SimpleNamespace(
        **{name: tracer.wrap(f"{layer}.{name}", getattr(api, name)) for name, layer in API_LAYERS}
    )
    ops = workload.ops
    parallel_ops = [op for op in ops if op.parallel]
    run_pass(ops, api, jobs, rng, caches, references, tally)  # warm-up, untimed
    deadline = time.perf_counter() + seconds
    plain: list[PassStats] = []
    traced: list[PassStats] = []
    serial: list[PassStats] = []
    try:
        while not traced or time.perf_counter() < deadline:
            plain.append(run_pass(ops, api, jobs, rng, caches, references, tally))
            observer.start_pass()
            tracer.install()
            try:
                stats = run_pass(ops, traced_api, jobs, rng, caches, references, tally, observer)
            finally:
                tracer.uninstall()
            observer.finish_pass(stats)
            traced.append(stats)
            if parallel_ops:
                serial.append(run_pass(parallel_ops, api, 1, rng, caches, references, tally))
    finally:
        shutil.rmtree(spool, ignore_errors=True)

    series = {name: [p.layers[name] for p in traced] for name in traced[0].layers}
    if serial:
        series["cli.jobs2_speedup"] = [s.parallel_s / p.parallel_s for s, p in zip(serial, plain)]
    else:  # one worker runs everything
        series["cli.jobs2_speedup"] = [1.0]
    series["trace.overhead_s"] = [
        quartiles([p.wall_s for p in traced])[1] - quartiles([p.wall_s for p in plain])[1]
    ]
    trace_file = BUILD / f"trace-{workload.name}-seed{env['seed']}.json"
    trace_file.write_text(json.dumps(
        {
            "env": env,
            "workload": workload.name,
            "passes": [{"wall_s": p.wall_s, "layers": p.layers, "ops": p.ops} for p in traced],
        },
        indent=1,
    ))
    lines = []
    if parallel_ops:
        lines.append(f"  {'largest pool worker max RSS (traced)':<36} "
                     f"{observer.worker_rss_kb / 1024:>14.6g} MB")
    lines.append(f"  trace written to {trace_file.relative_to(ROOT)}")
    return series, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zpeta" / "__init__.py").is_file():
        print(f"error: no zpeta package under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    zpeta, api = load_zpeta()
    workload = WORKLOADS[args.workload]
    references = json.loads(REFERENCES.read_text())["operations"]
    jobs = min(MAX_JOBS, nproc())
    rng = random.Random(args.seed)
    caches = tracing.lru_caches(zpeta)
    env = environment(args.seed, jobs)
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  why: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))

    tally = Tally()
    common = (jobs, rng, caches, references, tally, args.seconds)
    if args.trace == 0:
        series, extra = measure_end_to_end(workload, api, *common)
    else:
        series, extra = measure_layers(workload, zpeta, api, *common, env)
    metrics = {name: quartiles(values)[1] for name, values in series.items()}

    failed = len(tally.failures)
    print("metrics (median over passes; quartiles; sample count):")
    for name in series:
        print(report_line(name, series[name], UNITS[name]))
    print("\n".join(extra))
    print(f"  {'failed_frac':<36} {failed / tally.attempted:>14.6g}        "
          f"({failed} of {tally.attempted} operations)")
    for reason in tally.failures:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
