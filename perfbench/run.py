"""Benchmark of causalgame as its users drive it: scoring, certifying, searching, CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,certify,search,cli,all} --seed N --seconds S --trace {0,1}

Each run times several fresh-interpreter set-ups (their median is
``setup_s``), then one worker process runs the workload's seeded ops for
S seconds in a single-threaded closed loop and checks every output.
End-to-end times are scaled to a reference host speed (calibrate.py). With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full
record, with the versions and settings in effect, goes to
.perfbench_out/. ``--workload all`` runs the four workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep", "certify", "search", "cli")
SETUPS = 7
# A p90 needs ten samples beyond it, so it is printed only for runs with this many ops.
MIN_OPS_FOR_P90 = 100
TIME_LIMIT_S = 170.0
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One caller, one thread: the matrices are 16x16, so BLAS threads only add noise.
    for var in BLAS_THREADS:
        env[var] = "1"
    return env


def _start_worker(env: dict, deadline: float, args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up seconds (until it printed
    READY) at reference host speed. The speed comes from the kernel timed
    here just before the start and in the worker just after its set-up."""
    calibrate.kernel()  # this process sat idle while the last worker ran
    kernel_ms = [calibrate.sample_ms()]
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready = perf_counter() - start
    kernel = proc.stdout.readline().split()
    if line.strip() != "READY" or kernel[:1] != ["KERNEL"]:
        _finish(proc, deadline)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    kernel_ms += map(float, kernel[1:])
    return proc, ready * calibrate.REFERENCE_MS / statistics.median(kernel_ms)


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + TIME_LIMIT_S
    env = _env()
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    for _ in range(0 if trace else SETUPS - 1):
        proc, setup = _start_worker(env, deadline, [*args, "--setup-only"])
        _finish(proc, deadline)
        setups.append(setup)
    proc, setup = _start_worker(env, deadline, args)
    setups.append(setup)
    result = json.loads(_finish(proc, deadline).strip().splitlines()[-1])

    metrics = result["metrics"]
    units = worker.PER_LAYER_UNITS if trace else END_TO_END
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
    p90 = metrics.pop("op_p90_ms", None)
    layer_times = {name: metrics.pop(name) for name in worker.LAYER_TIMES if name in metrics}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"worker did not report {sorted(missing)}")
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in BLAS_THREADS},
        "untraced_ops": result["untraced_ops"],
        "duration_s": result["duration_s"],
        "setup_samples_s": setups,
        "host_kernel_ms": result["host_kernel_ms"],
        "unscaled": result["raw"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "errors": result["errors"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if result["search_reach"]:
        record["search_reach"] = result["search_reach"]
    if p90 is not None and result["untraced_ops"] >= MIN_OPS_FOR_P90:
        record["op_p90_ms"] = p90
    if trace:
        record["layer_times_ms"] = {name: value for name, value in layer_times.items() if value > 0}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _print(record: dict) -> None:
    print(
        f"# {record['workload']}: seed {record['seed']}, "
        f"{record['attempted']} ops in {record['duration_s']:.1f} s, "
        f"failed_frac {record['failed_frac']:.4f} ({record['failed']}/{record['attempted']}), "
        f"git {record['git_sha'][:12]}, python {record['python']}, numpy {record['numpy']}, "
        f"nproc {record['nproc']}, OPENBLAS_NUM_THREADS={record['blas_threads']['OPENBLAS_NUM_THREADS']}"
    )
    for error in record["errors"]:
        print(f"#   failed: {error}")
    if "search_reach" in record:
        reach = record["search_reach"]
        print(
            f"# search reach: hit_frac {reach['hit_frac']:.4f} of {reach['searches']} searches within 1e-4 "
            f"of the optimum; worst shortfall {reach['worst_shortfall']:.3e} at {reach['worst_item']}"
        )
    if "op_p90_ms" in record:
        print(f"# op_p90_ms {record['op_p90_ms']:.6g} ms over {record['untraced_ops']} ops")
    for name, value in record.get("layer_times_ms", {}).items():
        print(f"# {record['workload']:8s} {name:44s} {value:14.6g} ms")
    if "layer_times_ms" in record:
        absent = [name for name in worker.LAYER_TIMES if name not in record["layer_times_ms"]]
        print(f"# not reached on {record['workload']}: {', '.join(absent) or 'none'}")
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:8s} {name:44s} {metric['value']:14.6g} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "causalgame" / "__init__.py").is_file():
        print(f"error: no causalgame package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_one(name, args.seed, args.seconds, args.trace)
            _print(record)
            records.append(record)
    except (BenchError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
