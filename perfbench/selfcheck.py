#!/usr/bin/env python3
"""Self-check of the benchmark at toy size.

    python3 perfbench/selfcheck.py   # about two minutes

Runs every workload of ``perfbench/workloads.json`` with ``--trace 0`` and
``--trace 1`` and checks that:

- each run exits 0 and its last line names exactly the metrics of
  ``BENCHMARK.json`` for that mode, each with its unit;
- the output check passed (``correct``, no failed CLI invocation), and the
  human-readable lines name every metric, ``failed_frac`` and, in traced
  runs, the metrics that are printed only (``tracing.UNLISTED``);
- the traced runs confirm why each workload exists: the flow solve is at
  least 90% of ``intensity.series_s`` on ``vga-ref``, only ``qvga-pyr3``
  calls the pyramid warp, and region reduction is at least 20% of
  ``intensity.series_s`` on ``qqvga-cells24``;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import UNLISTED

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

REASONS = {
    "vga-ref": lambda m: m["flow.share"] >= 0.9 and m["flow.warp_calls"] == 0,
    "qvga-pyr3": lambda m: m["flow.warp_calls"] > 0,
    "qqvga-cells24": lambda m: m["intensity.reduce_share"] >= 0.2 and m["flow.warp_calls"] == 0,
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(workload: str, trace: int, bench: dict) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: output check failed: {lines[-1][:300]}")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} != BENCHMARK.json {expected}")
    human = "\n".join(lines[:-1])
    for name, unit in [*expected.items(), ("failed_frac", "1"), *(UNLISTED.items() if trace else ())]:
        if not any(line.split()[:1] == [name] and f" {unit} " in f"{line} " for line in human.splitlines()):
            problems.append(f"{where}: no human-readable line for {name} [{unit}]")
    if trace:
        saved = json.loads((ROOT / ".perfbench_work" / workload / "result.json").read_text("utf-8"))
        if not REASONS[workload]({k: statistics.median(v) for k, v in saved["samples"].items()}):
            problems.append(f"{where}: traced run does not confirm the workload's reason")
    print(f"{where}: {'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def check_bare_directory(workload: str) -> list[str]:
    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last[0][:200]!r}"]
    print("bare directory: ok (exit {})".format(proc.returncode), flush=True)
    return []


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    problems = check_bare_directory(bench["workloads"][0]["name"])
    for entry in bench["workloads"]:
        for trace in (0, 1):
            problems += check_run(entry["name"], trace, bench)
    for problem in problems:
        print(f"FAILED {problem}")
    print("self-check " + ("passed" if not problems else "failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
