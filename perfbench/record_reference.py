"""Re-record ``reference.json``: the exact stdout and exit code of every
fixed-input invocation (cold-tables and warm-analysis).

    python3 perfbench/record_reference.py

The references pin the CLI's byte-identical, 12-significant-digit output
contract, so record them only from a commit whose outputs are known good.
"""

from __future__ import annotations

import json
import shutil
import time

import run

FIXED = ("cold-tables", "warm-analysis")


def main() -> None:
    deadline = time.perf_counter() + 600
    reference = {}
    for name in FIXED:
        workload = run.WORKLOADS[name]
        run_dir = run.WORK / "runs" / f"reference-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        prefill = run.ensure_prefill(deadline) if workload.prefill else None
        inputs = run_dir / "inputs"
        run.setup(workload, 0, inputs, prefill, deadline)
        seq = run.run_sequence(workload, inputs, False, deadline)
        reference[name] = {
            " ".join(inv.args): {"exit": outcome.code, "stdout": seq.stdout(i).decode()}
            for i, (inv, outcome) in enumerate(zip(workload.invocations, seq.outcomes))}
        shutil.rmtree(run_dir)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
