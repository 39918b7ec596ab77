"""One measurement in a fresh interpreter; run.py starts it, one process per run.

    python3 benchmarks/child.py --src SRC --out DIR                      # set-up only
    python3 benchmarks/child.py --src SRC --out DIR --workload W --seed N [--trace]

It times `import dl_lab.cli`, then runs the workload's `verify` calls through
`dl_lab.cli.main` and writes DIR/result.json (and DIR/spans.json when traced).
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import dl_lab.cli
    import_s = time.perf_counter() - start
    src = os.path.realpath(args.src)
    if os.path.commonpath([os.path.realpath(dl_lab.cli.__file__), src]) != src:
        print(f"dl_lab was imported from {dl_lab.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"import_s": import_s}
    if args.workload is not None:
        result.update(run_workload(args.workload, args.seed, args.out, args.trace))
        result["machine"] = machine()
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def run_workload(workload: str, seed: int, out: str, trace: bool) -> dict:
    import dl_lab.cli
    from workloads import WORKLOADS, run_config

    recorder = None
    installed = contextlib.nullcontext([])
    if trace:
        from layers import TARGETS, VERIFY
        from spans import Recorder, install

        recorder = Recorder()
        installed = install(recorder, TARGETS)
    verifies = []
    with installed as missing:
        for run_id, (name, parameters) in enumerate(WORKLOADS[workload]):
            model_dir = os.path.join(out, f"model{run_id}")
            os.makedirs(model_dir)
            config_path = os.path.join(model_dir, "config.json")
            with open(config_path, "w", encoding="utf-8") as handle:
                json.dump(run_config(name, parameters, seed, model_dir), handle)
            argv = ["verify", "--config", config_path, "--format", "csv", "--quiet"]
            start = time.perf_counter()
            if recorder is None:
                status = dl_lab.cli.main(argv)
            else:
                recorder.run_id = run_id
                with recorder.span(VERIFY):
                    status = dl_lab.cli.main(argv)
            wall_s = time.perf_counter() - start
            report_path = os.path.join(model_dir, "report.json")
            report = None
            if os.path.exists(report_path):
                with open(report_path, "r", encoding="utf-8") as handle:
                    report = json.load(handle)
            verifies.append({"status": status, "wall_s": wall_s, "report": report})
    if recorder is not None:
        with open(os.path.join(out, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(recorder.spans, handle)
    return {
        "wall_s": sum(v["wall_s"] for v in verifies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verifies": verifies,
        "missing_targets": missing,
    }


def machine() -> dict:
    """Where the numbers were taken: hardware, BLAS and package versions."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2 ** 20,
        "blas": blas_name,
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS library reports, by file name."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return {}
    threads = {}
    for path in sorted(p for p in paths if p.endswith(".so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return threads


if __name__ == "__main__":
    sys.exit(main())
