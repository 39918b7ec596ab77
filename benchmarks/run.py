"""dl-lab benchmark: `verify` wall time, set-up time and peak memory per workload.

Run from anywhere; it measures the `src/dl_lab` next to this directory.

    python3 benchmarks/run.py --workload corpus --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --all [--seed N] [--seconds S] [--save BENCH_x.json]
    python3 benchmarks/run.py --compare BENCH_a.json BENCH_b.json
    python3 benchmarks/run.py --write-reference

One workload run (`--workload`) prints the machine block and every metric, and
as its last line one JSON object: correct, attempted, failed and metrics.
With `--trace 0` the metrics are the end-to-end ones, medians over the
repetitions made in `--seconds` (at least one): `wall_s`, the time of the
workload's `verify` calls in a fresh process; `setup_s`, the time a fresh
interpreter takes to import `dl_lab.cli`; `peak_rss_mb`.  With `--trace 1` one
untraced and one traced process run the workload and the metrics are the
per-layer ones of layers.py.  Each `verify` call is one attempted operation;
it fails when it exits non-zero, when `overall_pass` is false or when its
report differs from reference.json.

`--all` runs every workload both ways and prints every metric by name with
its unit; `--save` writes the results, machine block included, to a file that
`--compare` reads.  `--write-reference` rewrites reference.json from the
current code.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from layers import METRIC_UNITS, layer_metrics
from workloads import (REFERENCE_PATH, WORKLOADS, load_reference, reference_entry,
                       report_mismatches)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
SCRATCH = os.path.join(ROOT, ".bench_run")

# Two BLAS threads, or fewer where fewer cores are usable: the dense workload
# moves by about 20 % between one and two threads, so the count is pinned.
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not take its measurement."""


class Runner:
    """Starts measurement processes, one at a time, within a shared deadline."""

    def __init__(self, workdir: str, deadline: float | None):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.env.pop("DL_LAB_MAX_DIM", None)

    def child(self, *args: str, trace: bool = False) -> dict:
        out = tempfile.mkdtemp(prefix="child-", dir=self.workdir)
        try:
            cmd = [sys.executable, CHILD, "--src", SRC, "--out", out, *args]
            if trace:
                cmd.append("--trace")
            timeout = None if self.deadline is None else self.deadline - time.monotonic()
            if timeout is not None and timeout <= 0:
                raise BenchError("out of time before the next measurement")
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                      text=True, timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"measurement process timed out: {' '.join(args)}") from exc
            if proc.returncode != 0:
                raise BenchError(f"measurement process exited {proc.returncode}:\n"
                                 f"{proc.stderr[-4000:]}")
            with open(os.path.join(out, "result.json"), "r", encoding="utf-8") as handle:
                result = json.load(handle)
            if trace:
                with open(os.path.join(out, "spans.json"), "r", encoding="utf-8") as handle:
                    result["spans"] = json.load(handle)
            return result
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def workload(self, name: str, seed: int, trace: bool = False) -> dict:
        return self.child("--workload", name, "--seed", str(seed), trace=trace)


def check_runs(workload: str, runs, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every verify call of the runs."""
    attempted = failed = 0
    problems = []
    for run in runs:
        for index, verify in enumerate(run["verifies"]):
            attempted += 1
            report = verify["report"]
            if verify["status"] != 0 or report is None or not report["overall_pass"]:
                issues = [f"{workload} #{index}: exit status {verify['status']}, "
                          f"overall_pass {None if report is None else report['overall_pass']}"]
            else:
                issues = report_mismatches(report, reference[workload][index])
            if issues:
                failed += 1
                problems.extend(issues)
    return attempted, failed, problems


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool,
            reference: dict) -> dict:
    """One benchmark run of one workload; returns the result object and the machine block."""
    if trace:
        plain = runner.workload(workload, seed)
        traced = runner.workload(workload, seed, trace=True)
        runs = [plain, traced]
        values = layer_metrics(traced["spans"])
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        values["trace.missing_targets"] = float(len(traced["missing_targets"]))
        for path in traced["missing_targets"]:
            print(f"trace target missing: {path}")
        units = METRIC_UNITS
    else:
        runner.child()  # warm-up: bytecode compilation and file cache
        setup = [runner.child()["import_s"] for _ in range(SETUP_SAMPLES)]
        runs = []
        start = time.monotonic()
        while not runs or time.monotonic() - start < seconds:
            runs.append(runner.workload(workload, seed))
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        units = dict(END_TO_END)
        print("wall_s samples: " + " ".join(f"{r['wall_s']:.4f}" for r in runs))
        print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup))
    attempted, failed, problems = check_runs(workload, runs, reference)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        },
        "machine": runs[-1]["machine"],
    }


def print_metrics(workload: str, metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"{workload:17s} {name:45s} {metric['value']:>16.6g} {metric['unit']}")


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_one(runner: Runner, args, reference: dict) -> int:
    measured = measure(runner, args.workload, args.seed, args.seconds, bool(args.trace),
                       reference)
    print("machine: " + json.dumps(measured["machine"], sort_keys=True))
    print_metrics(args.workload, measured["result"]["metrics"])
    print(json.dumps(measured["result"]))
    return 0


def run_all(runner: Runner, args, reference: dict) -> int:
    results = {}
    machine = None
    for workload in WORKLOADS:
        end_to_end = measure(runner, workload, args.seed, args.seconds, False, reference)
        per_layer = measure(runner, workload, args.seed, args.seconds, True, reference)
        machine = end_to_end["machine"]
        results[workload] = {
            key: end_to_end["result"][key] + per_layer["result"][key]
            for key in ("attempted", "failed")
        }
        results[workload]["metrics"] = (end_to_end["result"]["metrics"]
                                        | per_layer["result"]["metrics"])
    print("machine: " + json.dumps(machine, sort_keys=True))
    for workload, result in results.items():
        print(f"{workload}: {result['attempted']} verify calls, {result['failed']} failed")
        print_metrics(workload, result["metrics"])
    if args.save:
        document = {"machine": machine, "seed": args.seed, "seconds": args.seconds,
                    "blas_threads": BLAS_THREADS, "workloads": results}
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.save}")
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


def compare(base_path: str, new_path: str) -> int:
    """Print new/base for every metric both result files hold, per workload."""
    with open(base_path, "r", encoding="utf-8") as handle:
        base = json.load(handle)
    with open(new_path, "r", encoding="utf-8") as handle:
        new = json.load(handle)
    for label, doc in (("base", base), ("new", new)):
        print(f"{label}: " + json.dumps(doc["machine"], sort_keys=True))
    print(f"{'workload':17s} {'metric':45s} {'base':>12s} {'new':>12s} {'new/base':>9s} unit")
    for workload, result in new["workloads"].items():
        old = base["workloads"].get(workload)
        if old is None:
            print(f"{workload:17s} (not in {base_path})")
            continue
        for name, metric in result["metrics"].items():
            if name not in old["metrics"]:
                continue
            a, b = old["metrics"][name]["value"], metric["value"]
            ratio = f"{b / a:9.3f}" if a else f"{'-':>9s}"
            print(f"{workload:17s} {name:45s} {a:12.6g} {b:12.6g} {ratio} {metric['unit']}")
    return 0


def write_reference(runner: Runner, seed: int) -> int:
    reference = {}
    for workload in WORKLOADS:
        run = runner.workload(workload, seed)
        for verify in run["verifies"]:
            if verify["status"] != 0 or not verify["report"]["overall_pass"]:
                raise BenchError(f"{workload}: verify did not pass; no reference written")
        reference[workload] = [reference_entry(v["report"]) for v in run["verifies"]]
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    mode.add_argument("--write-reference", action="store_true")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed; the config seed is this modulo 2**32")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure repetitions for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="with --all: write the results here")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "dl_lab")):
        print(f"error: no dl_lab package under {SRC}", file=sys.stderr)
        return 2
    args.seed %= 2 ** 32
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    # a single workload run ends within three minutes; the other modes may take longer
    runner = Runner(workdir, time.monotonic() + DEADLINE_S if args.workload else None)
    try:
        if args.write_reference:
            return write_reference(runner, args.seed)
        reference = load_reference()
        if args.all:
            return run_all(runner, args, reference)
        return run_one(runner, args, reference)
    except (BenchError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
