"""Record the reference output of every benchmark operation.

    python3 perfbench/record_references.py

Runs each operation of every workload once, serially and from cold
caches, and writes the SHA-256 of its stdout, its exit code and its case
count to ``references.json``.  The benchmark counts any operation whose
output differs from these as failed, so record only from a commit whose
outputs are the accepted ones; the file says which sources it came from.
"""

from __future__ import annotations

import json
import random
import sys

import run


def main() -> int:
    zpeta, api = run.load_zpeta()
    caches = run.tracing.lru_caches(zpeta)
    operations = {}
    for workload in run.WORKLOADS.values():
        for op in workload.ops:
            run.clear_caches(caches)
            result = run.run_op(op, api, 1, random.Random(0))
            if result.error is not None or result.exit_code != 0:
                print(f"error: {op.key} did not succeed:\n{result.error or result.exit_code}",
                      file=sys.stderr)
                return 1
            operations[op.key] = {
                "sha256": result.sha256,
                "exit": result.exit_code,
                "cases": run.count_cases(op, result.text),
                "bytes": len(result.text.encode()),
            }
            print(f"{result.seconds:8.3f} s  {op.key}")
    payload = {"src_sha256": run.src_digest(run.SRC), "operations": operations}
    run.REFERENCES.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
