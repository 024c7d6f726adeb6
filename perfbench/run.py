#!/usr/bin/env python3
"""End-to-end benchmark of the faceflow CLI on synth-generated inputs.

    python3 perfbench/run.py --workload vga-ref --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The faceflow package is run from the checkout's ``src/`` through PYTHONPATH,
one CLI child at a time (a closed loop with one client). Workloads are defined
in ``perfbench/workloads.json``; metric names, units and bounds come from
``BENCHMARK.json`` at the root of the checkout.

With ``--trace 0`` a run:

1. runs ``synth`` three times to make two inputs of the workload's size:
   one from ``--seed`` (twice) and one from the pinned ``CALIBRATION_SEED``
   (``setup_s`` is the median of the three);
2. runs ``series`` -> ``analyze --series`` -> ``plot`` once on the pinned
   input, then repeats it on the seeded input until ``--seconds`` have passed
   since the pinned run began (at least three times), and reports medians of
   ``pipeline_s``, ``pairs_per_s`` and ``peak_rss_mb`` over all these runs
   (the work does not depend on the texture);
3. checks every invocation: exit 0, no traceback, byte-identical outputs
   across repetitions on one input, the series error under the workload's
   ceiling, and the report's dominant and deformed regions and its
   onset/apex/offset frames against the synth ground truth;
4. reports ``series_err_rel`` of the pinned input (see ``Workload``).

With ``--trace 1`` the per-layer metrics come from the separate traced run in
``perfbench/tracing.py``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the share of failed CLI invocations
(``failed_frac``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_RUNS = 3  # synth runs, cycling through the inputs
MIN_REPS = 3  # pipeline runs on the seeded input
CALIBRATION_SEED = 0  # texture of the pinned input that series_err_rel is read from
CHILD_TIMEOUT_S = 150.0
EVENT_TOL = 5  # frames, onset and offset
APEX_TOL = 2  # frames, reference mode only
OUTPUTS = {"series": "series.csv", "analyze": "report.json", "plot": "plot.svg"}


def load_workloads() -> dict:
    return json.loads((BENCH_DIR / "workloads.json").read_text("utf-8"))


def load_spec(name: str, toy: bool) -> dict:
    spec = dict(load_workloads()[name])
    if toy:
        spec.update(spec["toy"])
    return spec


def flag(args: list[str], name: str, default):
    """Value of ``name`` in a flat CLI argument list, or ``default``."""
    return args[args.index(name) + 1] if name in args else default


def region_text(spec: dict) -> str:
    from faceflow.regions import default_region_text

    return (BENCH_DIR / spec["regions"]).read_text("utf-8") if spec["regions"] else default_region_text()


def region_args(spec: dict) -> list[str]:
    return ["--regions", str(BENCH_DIR / spec["regions"])] if spec["regions"] else []


def synth_args(spec: dict, seed: int, out: Path) -> list[str]:
    args = ["synth", "--out", str(out), "--width", str(spec["width"]),
            "--height", str(spec["height"]), "--count", str(spec["frames"]),
            "--seed", str(seed)]
    for motion in spec["active"]:
        args += ["--active", motion]
    return args + region_args(spec)


# --------------------------------------------------------------------------
# CLI children


@dataclass
class Child:
    command: str
    start: float
    end: float
    rss_mb: float
    ok: bool = True

    @property
    def wall(self) -> float:
        return self.end - self.start


class Runner:
    """Runs faceflow CLI children one at a time and counts failed invocations."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))

    def cli(self, args: list[str]) -> Child:
        """Run ``python -m faceflow.cli <args>``; wall time and peak RSS from wait4."""
        self.attempted += 1
        log = self.work / "logs"
        log.mkdir(parents=True, exist_ok=True)
        stem = f"{self.attempted:04d}-{args[0].lstrip('-')}"
        with open(log / f"{stem}.out", "wb") as out, open(log / f"{stem}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "faceflow.cli", *args],
                                    cwd=ROOT, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = (log / f"{stem}.err").read_text("utf-8", errors="replace")
        child = Child(args[0], start, end, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            self.reject(child, f"exit {proc.returncode}: {stderr.strip()[-300:]}")
        elif "Traceback (most recent call last)" in stderr:
            self.reject(child, "traceback on stderr")
        return child

    def reject(self, child: Child, why: str) -> None:
        """Count a child as failed (once) because it or its output is wrong."""
        self.problems.append(f"{child.command}: {why}")
        if child.ok:
            child.ok = False
            self.failed += 1


# --------------------------------------------------------------------------
# Ground truth and output checks


@dataclass
class Truth:
    regions: tuple[str, ...]
    series: np.ndarray  # (frames - 1, regions), pixels
    profiles: dict
    motions: list
    diag: float


def compute_truth(spec: dict) -> Truth:
    """Region means of the exact synth displacement, as the series should read.

    The displacement depends on the regions and motions only, not on the
    texture seed, so one truth serves every input of a workload.
    """
    from faceflow.regions import make_grid, parse_region_map, region_mask
    from faceflow.synth import RegionMotion, synth_expression

    width, height, n = spec["width"], spec["height"], spec["frames"]
    grid = make_grid(width, height)
    region_map = parse_region_map(region_text(spec))
    motions = []
    for motion in spec["active"]:
        name, amplitude, onset, apex, offset = motion.split(":")
        motions.append(RegionMotion(name, float(amplitude), int(onset), int(apex), int(offset)))
    _, truth = synth_expression(width, height, grid, region_map, motions, n, CALIBRATION_SEED)

    names = region_map.names()
    labels = np.full((height, width), len(names), dtype=np.intp)
    for j, name in enumerate(names):
        labels[region_mask(grid, region_map, name)] = j
    area = np.bincount(labels.ravel(), minlength=len(names) + 1)[: len(names)]
    consecutive = flag(spec["series_args"], "--mode", "reference") == "consecutive"
    series = np.zeros((n - 1, len(names)))
    previous = truth.field(0)
    for t in range(1, n):
        du, dv = truth.field(t)
        if consecutive:
            magnitude = np.hypot(du - previous[0], dv - previous[1])
            previous = (du, dv)
        else:
            magnitude = np.hypot(du, dv)
        sums = np.bincount(labels.ravel(), weights=magnitude.ravel(), minlength=len(names) + 1)
        series[t - 1] = sums[: len(names)] / area
    return Truth(names, series, truth.profiles, motions, float(np.hypot(width, height)))


def check_synth_output(frames_dir: Path, spec: dict, truth: Truth) -> str | None:
    count = len(list(frames_dir.glob("frame_*.pgm")))
    if count != spec["frames"]:
        return f"wrote {count} frames, expected {spec['frames']}"
    rows = (frames_dir / "ground_truth.csv").read_text("utf-8").splitlines()
    if rows[0] != "frame,region,amplitude" or len(rows) != 1 + spec["frames"] * len(truth.motions):
        return "ground_truth.csv has the wrong header or row count"
    for row in rows[1:]:
        frame, region, amplitude = row.split(",")
        want = float(truth.profiles[region][int(frame)])
        if abs(float(amplitude) - want) > 1e-8 * abs(want) + 1e-12:
            return f"ground_truth.csv frame {frame} {region}: {amplitude} != {want!r}"
    return None


def read_series_pixels(path: Path, truth: Truth):
    """series.csv as a (frames - 1, regions) array in pixels; checks its layout."""
    lines = path.read_text("utf-8").splitlines()
    if tuple(lines[0].split(",")[1:]) != truth.regions:
        raise ValueError(f"series.csv header {lines[0]!r} does not list {truth.regions}")
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if table.shape != (truth.series.shape[0], 1 + len(truth.regions)):
        raise ValueError(f"series.csv is {table.shape}, expected {truth.series.shape} plus a frame column")
    if not np.array_equal(table[:, 0], np.arange(1, table.shape[0] + 1)):
        raise ValueError("series.csv frame column is not 1..N-1")
    return table[:, 1:] * truth.diag  # default units: normalized by the diagonal


def series_err_rel(measured: np.ndarray, truth: Truth) -> float:
    return float(np.abs(measured - truth.series).sum() / truth.series.sum())


def check_report(report: dict, truth: Truth, reference_mode: bool) -> str | None:
    """Dominant/deformed regions and event frames against the ground truth."""
    active = {m.region for m in truth.motions}
    dominant = max(truth.motions, key=lambda m: m.amplitude).region
    if report["dominant_region"] != dominant:
        return f"dominant_region {report['dominant_region']!r}, expected {dominant!r}"
    if sorted(report["deformed_regions"]) != sorted(active):
        return f"deformed_regions {report['deformed_regions']}, expected {sorted(active)}"
    theta = report["parameters"]["theta"]
    for name in sorted(active):
        column = truth.series[:, truth.regions.index(name)]
        above = np.flatnonzero(column > theta * column.max()) + 1  # row i is frame i + 1
        want = {"onset": int(above[0]), "offset": int(above[-1]),
                "apex": int(np.argmax(column)) + 1}
        tolerances = {"onset": EVENT_TOL, "offset": EVENT_TOL}
        if reference_mode:
            tolerances["apex"] = APEX_TOL
        got = report["regions"][name]
        for event, tol in tolerances.items():
            if got[event] is None or abs(got[event] - want[event]) > tol:
                return f"{name} {event} {got[event]}, truth {want[event]} +/- {tol}"
    return None


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


# --------------------------------------------------------------------------
# Workload runs


@dataclass
class Input:
    """One synth sequence of a workload, its ground truth and its output digests."""

    label: str
    seed: int
    frames_dir: Path
    out_dir: Path
    truth: Truth
    digests: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    err: float = float("nan")


class Workload:
    """A workload's inputs: one made from ``--seed``, plus the pinned calibration one.

    The end-to-end run repeats the pipeline on the seeded input. Its
    ``series_err_rel`` depends on the texture far more than on the code, so
    the gated error is read from the pinned input, run once: two versions of
    the program are then compared on the same frames.
    """

    def __init__(self, name: str, seed: int, toy: bool, pinned: bool):
        self.spec = load_spec(name, toy)
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.runner = Runner(self.work)
        self.region_text = region_text(self.spec)
        self.reference_mode = self.flag("--mode", "reference") == "reference"
        seeds = {"seeded": seed}
        if pinned:
            seeds["pinned"] = CALIBRATION_SEED
        truth = compute_truth(self.spec)
        self.inputs = [
            Input(label, s, self.work / f"{label}_frames", self.work / f"{label}_out", truth)
            for label, s in seeds.items()
        ]

    def flag(self, name: str, default):
        return flag(self.spec["series_args"], name, default)

    def setup(self, runs: int) -> list[float]:
        """Run ``synth`` ``runs`` times, cycling through the inputs; its wall times."""
        times = []
        for i in range(runs):
            inp = self.inputs[i % len(self.inputs)]
            shutil.rmtree(inp.frames_dir, ignore_errors=True)
            child = self.runner.cli(synth_args(self.spec, inp.seed, inp.frames_dir))
            times.append(child.wall)
            if child.ok:
                try:
                    problem = check_synth_output(inp.frames_dir, self.spec, inp.truth)
                except (ValueError, KeyError, IndexError, OSError) as exc:
                    problem = f"synth output: {exc!r}"
                if problem:
                    self.runner.reject(child, problem)
        return times

    def pipeline(self, inp: Input) -> dict[str, Child]:
        """series -> analyze --series -> plot on one input, then the output checks."""
        shutil.rmtree(inp.out_dir, ignore_errors=True)
        out, csv = str(inp.out_dir), str(inp.out_dir / "series.csv")
        children = {
            "series": self.runner.cli(["series", "--frames", str(inp.frames_dir), "--out", out,
                                       *region_args(self.spec), *self.spec["series_args"]]),
            "analyze": self.runner.cli(["analyze", "--series", csv, "--out", out]),
            "plot": self.runner.cli(["plot", "--series", csv, "--out", out]),
        }
        for command, child in children.items():
            if child.ok:
                problem = self.check_output(inp, command, inp.out_dir / OUTPUTS[command])
                if problem:
                    self.runner.reject(child, problem)
        return children

    def check_output(self, inp: Input, command: str, path: Path) -> str | None:
        sha = digest(path)
        if sha != inp.digests.setdefault(command, sha):
            return f"{path.name} differs from the first repetition on the {inp.label} input"
        if sha not in inp.verdicts:
            inp.verdicts[sha] = self.judge(inp, command, path)
        return inp.verdicts[sha]

    def judge(self, inp: Input, command: str, path: Path) -> str | None:
        if not path.is_file():
            return f"{path.name} was not written"
        try:
            if command == "series":
                inp.err = series_err_rel(read_series_pixels(path, inp.truth), inp.truth)
                if not inp.err <= self.spec["max_err_rel"]:
                    return f"series_err_rel {inp.err:.4g} > {self.spec['max_err_rel']} on the {inp.label} input"
            elif command == "analyze":
                return check_report(json.loads(path.read_text("utf-8")), inp.truth, self.reference_mode)
            elif not path.read_text("utf-8").rstrip().endswith("</svg>"):
                return "plot.svg is not a complete SVG document"
        except (ValueError, KeyError, IndexError) as exc:
            return f"{path.name}: {exc!r}"
        return None


def timed_reps(run_once, seconds: float, minimum: int) -> list:
    """Call ``run_once(i)`` for ``seconds``, at least ``minimum`` times; start one only if it fits."""
    results, durations = [], []
    start = time.perf_counter()
    while len(results) < minimum or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        results.append(run_once(len(results)))
        durations.append(time.perf_counter() - t0)
    return results


def run_end_to_end(wl: Workload, seconds: float) -> tuple[dict, dict]:
    wl.runner.cli(["--help"])  # warm the bytecode and file caches before timing
    setup = wl.setup(SETUP_RUNS)
    seeded, pinned = wl.inputs
    start = time.perf_counter()
    reps = [wl.pipeline(pinned)]
    reps += timed_reps(lambda i: wl.pipeline(seeded), seconds - (time.perf_counter() - start),
                       MIN_REPS)
    pairs = wl.spec["frames"] - 1
    samples = {
        "setup_s": setup,
        "pipeline_s": [sum(c.wall for c in rep.values()) for rep in reps],
        "pairs_per_s": [pairs / rep["series"].wall for rep in reps],
        "peak_rss_mb": [rep["series"].rss_mb for rep in reps],
        "series_err_rel": [pinned.err],
    }
    extra = {"series_err_rel on the seeded input": seeded.err,
             "calibration seed": pinned.seed}
    return samples, extra


# --------------------------------------------------------------------------
# Reporting


def environment() -> dict:
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "faceflow_from": "src/ via PYTHONPATH, run as python -m faceflow.cli",
    }


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(values)
    q = (100 * (n - 10)) // n if n else 0
    return (q, tracing.nearest_rank(values, q / 100)) if q >= 50 else None


def describe(name: str, values: list[float], unit: str) -> str:
    text = f"  {name:<24} {statistics.median(values):12.6g} {unit:<6}"
    if len(values) < 2:
        return text
    q1, _, q3 = statistics.quantiles(values, n=4)
    tail = tail_percentile(values)
    return (text + f" median of {len(values)}: p25 {q1:.6g} p75 {q3:.6g} min {min(values):.6g}"
            f" max {max(values):.6g}" + (f" p{tail[0]} {tail[1]:.6g}" if tail else " (n < 20: no tail percentile)"))


def metric_table(section: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))[section]


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    wl = Workload(name, seed, toy, pinned=not trace)
    if trace:
        samples, extra = tracing.run_traced(wl, seconds, timed_reps)
        section = "per_layer"
    else:
        samples, extra = run_end_to_end(wl, seconds)
        section = "end_to_end"
    metrics = {}
    print(f"{name} (seed {seed}, {'traced per-layer' if trace else 'end-to-end'} run)")
    for entry in metric_table(section):
        values = samples[entry["name"]]
        print(describe(entry["name"], values, entry["unit"]))
        metrics[entry["name"]] = {"value": statistics.median(values), "unit": entry["unit"]}
    for name, unit in tracing.UNLISTED.items():
        if name in samples:
            print(describe(name, samples[name], unit) + " (printed only; 0 off the pyramid)")
    for key, value in extra.items():
        print(f"  {key:<24} {value}")
    failed_frac = wl.runner.failed / wl.runner.attempted
    print(f"  {'failed_frac':<24} {failed_frac:12.6g} 1      "
          f"({wl.runner.failed} of {wl.runner.attempted} CLI invocations)")
    for problem in wl.runner.problems:
        print(f"  FAILED {problem}")
    result = {
        "workload": name, "seed": seed, "trace": trace, "toy": toy,
        "attempted": wl.runner.attempted, "failed": wl.runner.failed,
        "problems": wl.runner.problems, "samples": samples, "extra": extra,
        "metrics": metrics, "environment": environment(),
    }
    (wl.work / "result.json").write_text(json.dumps(result, indent=2) + "\n", "utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="use each workload's toy size (a handful of frames)")
    args = parser.parse_args()

    if not (SRC / "faceflow" / "cli.py").is_file():
        print(f"error: no faceflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(load_workloads()) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in load_workloads()]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2

    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.toy) for n in names]
    print("environment: " + json.dumps(results[0]["environment"]))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
