"""sleeptrend benchmark: the research path (`crossval`) and the bedside
path (`infer` on one 3 h recording at a time).

Run from the root of a sleeptrend checkout:

    python3 perfbench/run.py --workload crossval --seed 1 --seconds 30 --trace 0

Each repeat runs in a fresh worker process (worker.py) with `src` on the
import path. With `--trace 0` the last line of standard output holds the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run. The line before it holds the details: the environment, every
operation, the tail percentile used, the tracing overhead and the
computed kernel counts. The benchmark sets no thread variables; BLAS and
OpenMP run as the environment configures them.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import SIZES, WORKERS, WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s.tail": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
}
TAIL_BEYOND = 10        # samples the tail percentile leaves above it
WORKER_TIMEOUT_S = 300


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples): the highest whole percentile, by
    nearest rank, with at least TAIL_BEYOND samples above it. Below
    2 * TAIL_BEYOND samples that percentile would fall under the median,
    so the maximum is reported instead, as percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100, n
    p = 100 * (n - TAIL_BEYOND) // n
    return xs[math.ceil(p * n / 100) - 1], p, n


def median_known(values) -> float | None:
    """The median of the values that are not None; None if none is."""
    known = [v for v in values if v is not None]
    return statistics.median(known) if known else None


# ---------------------------------------------------------------------------
# environment

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src" / "sleeptrend"),
        "seed": seed,
    }


def host_probe() -> dict:
    """The machine's speed at one moment, so that a slower host can be
    told from a slower program: the median of 7 copies of a 32 MB array
    (memory bandwidth) and of 7 products of two 256 x 256 matrices."""
    import numpy
    src = numpy.ones(4 << 20)
    dst = numpy.empty_like(src)
    mat = numpy.ones((256, 256))
    numpy.copyto(dst, src)  # warm: page faults, BLAS threads
    mat @ mat
    copy, gemm = [], []
    for _ in range(7):
        t0 = time.perf_counter()
        numpy.copyto(dst, src)
        t1 = time.perf_counter()
        mat @ mat
        t2 = time.perf_counter()
        copy.append(t1 - t0)
        gemm.append(t2 - t1)
    return {"copy_gb_per_s": 2 * src.nbytes / statistics.median(copy) / 1e9,
            "gemm_gflop_per_s": 2 * 256 ** 3 / statistics.median(gemm) / 1e9}


# ---------------------------------------------------------------------------
# workers

def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a worker's process group and wait until
    the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_worker(root: Path, work: Path, args, index: int, seconds: float,
               traced_ops: str) -> dict | None:
    """One worker process; its record, or None when it failed."""
    work.mkdir(parents=True)
    record = work / "record.json"
    log = work / "worker.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--size", args.size,
           "--index", str(index), "--traced-ops", traced_ops,
           "--workdir", str(work / "w"), "--record", str(record)]
    with open(log, "w") as out:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = None
        _stop_group(proc.pid)
        proc.wait()
    if rc == 0 and record.is_file():
        return json.loads(record.read_text())
    print(f"perfbench: worker {index} exited {rc}; log tail:\n"
          + "\n".join(log.read_text().splitlines()[-30:]), file=sys.stderr)
    return None


def measure(root: Path, work: Path, args) -> tuple[dict, dict] | None:
    trace = args.trace == 1
    spec = WORKLOADS[args.workload]
    probes = [host_probe()]
    records: list[dict] = []
    failed_workers = 0
    measured = 0.0
    crossval = spec["command"] == "crossval"
    while len(records) + failed_workers < WORKERS \
            or (crossval and measured < args.seconds and not failed_workers):
        index = len(records) + failed_workers
        if crossval:
            # one command per process, as a batch job runs; with tracing
            # on, every second process is traced
            seconds = args.seconds
            traced_ops = "all" if trace and index % 2 else "none"
        else:
            # one client at a time; every second recording is traced
            seconds = args.seconds / WORKERS
            traced_ops = "odd" if trace else "none"
        record = run_worker(root, work / f"worker{index}", args, index,
                            seconds, traced_ops)
        if record is None:
            failed_workers += 1
            continue
        records.append(record)
        measured += sum(op["wall_s"] for op in record["ops"])
    setups = [r["setup_s"] for r in records]
    probes.append(host_probe())

    ops = [op for r in records for op in r["ops"]]
    for op in ops[1:]:
        if "outputs" in op and not op["problems"] \
                and op["outputs"] != ops[0]["outputs"]:
            op["problems"].append("outputs differ from the first run's")
    for record in records[1:]:
        if record.get("checkpoint_sha256") \
                != records[0].get("checkpoint_sha256"):
            record["ops"][0]["problems"].append(
                "checkpoint differs from the first worker's")
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    scored = sum(op["scored"] for op in ops)
    if not untraced or not setups or not scored \
            or (trace and not traced):
        print("perfbench: no operation completed", file=sys.stderr)
        return None

    attempted = len(ops) + failed_workers
    failed = sum(bool(op["problems"]) for op in ops) + failed_workers
    walls = [op["wall_s"] for op in untraced]
    tail_s, tail_p, n = tail(walls)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "wall_s.tail": tail_s,
        "cpu_s": statistics.median(op["cpu_s"] for op in untraced),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"]
                                         for op in untraced),
        "accuracy": sum(op["matching"] for op in ops) / scored,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]}
               for k, v in end_to_end.items()}
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size,
        "environment": environment(root, args.seed),
        "host_probe": {"start": probes[0], "end": probes[1]},
        "end_to_end": metrics,
        "wall_s.tail": {"percentile": tail_p, "samples": n},
        "error_rate": failed / attempted,
        "setup_s_samples": setups,
        "ops": [{k: op[k] for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                    "traced")}
                | {"failed": bool(op["problems"])} for op in ops],
        "problems": [p for op in ops for p in op["problems"]],
    }
    if WORKLOADS[args.workload]["command"] == "infer":
        details["infer_ms.p50"] = {"value": end_to_end["wall_s"] * 1e3,
                                   "unit": "ms"}
        details["infer_ms.tail"] = {"value": tail_s * 1e3, "unit": "ms",
                                    "percentile": tail_p, "samples": n}
    if trace:
        layer_runs = [r for r in records if "per_layer" in r]
        metrics = {
            name: {"value": median_known(r["per_layer"][name]["value"]
                                         for r in layer_runs),
                   "unit": entry["unit"]}
            for name, entry in layer_runs[0]["per_layer"].items()}
        details["layer_details"] = layer_runs[0]["layer_details"]
        untraced_s = end_to_end["wall_s"]
        traced_s = statistics.median(op["wall_s"] for op in traced)
        details["trace_overhead"] = {
            "wall_s_untraced": untraced_s, "wall_s_traced": traced_s,
            "overhead_s": traced_s - untraced_s,
            "overhead_frac": (traced_s - untraced_s) / untraced_s}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least two operations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sleeptrend" / "cli.py").is_file():
        print("perfbench: run from the root of a sleeptrend checkout; "
              "src/sleeptrend is missing", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    try:
        measured = measure(root, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if measured is None:
        return 1
    details, result = measured
    for problem in details["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
