"""One benchmark process: set up a workload, then run its timed closed loop.

run.py starts this from the repository root with src on PYTHONPATH:

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 10 --trace 0 [--setup-only]

It prints READY when set-up is done; the parent times a fresh interpreter
up to that line. Then it prints KERNEL and three timings (ms) of the
host-speed kernel (see calibrate.py), by which the parent scales that
set-up time. Unless --setup-only, it then runs whole blocks of ops until
--seconds have passed and prints one JSON line of measurements. With
--trace 1 every block runs twice, untraced and then traced, so the
per-layer numbers and the tracing overhead come from the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from itertools import cycle
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
PROBES = 5

# Layers timed per op. Every workload reaches the ones in ALWAYS; the
# others read 0 where a workload never calls them.
CALLS = (
    "tensor.pauli_decompose",
    "tensor.hermitian_eigenvalues",
    "tensor.partial_trace",
    "processes.validate",
    "processes.build",
    "formats.parse_process",
    "formats.write",
    "instruments.build",
    "instruments.instrument_validate",
    "game.joint_distribution",
    "game.born",
    "oracle.oracle_bound",
    "oracle.is_causal",
    "simplex.phase_one",
)
ALWAYS = (
    "tensor.hermitian_eigenvalues",
    "tensor.partial_trace",
    "instruments.build",
    "instruments.instrument_validate",
    "game.joint_distribution",
    "game.born",
)
SEARCHES = ("optimizer.maximize_instruments", "optimizer.maximize_ansatz")
CLI_KINDS = ("validate", "game", "sweep-beta", "oracle", "witness", "decompose", "validate_file")

# The per-layer metrics of the result line. Counts may read 0, times never
# do: a time of a layer that only some workloads reach is reported beside
# the result line, as one of LAYER_TIMES, on the workloads that reach it.
PER_LAYER_UNITS = {
    **{f"{name}.calls_per_op": "count" for name in CALLS},
    **{f"{name}.self_ms_per_op": "ms" for name in ALWAYS},
    "oracle.is_causal.member_frac": "1",
    "simplex.phase_one.pivots_per_call": "count",
    **{f"{name}.iters_per_call": "count" for name in SEARCHES},
    "optimizer.hit_frac": "1",
    "oracle.vertex_table_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_frac": "1",
}
LAYER_TIMES = (
    *(f"{name}.self_ms_per_op" for name in (*CALLS, *SEARCHES) if name not in ALWAYS),
    *(f"cli.{kind}.p50_ms" for kind in CLI_KINDS),
)

IMPORT_PROBE = "import time; t = time.perf_counter(); import causalgame; print(time.perf_counter() - t)"
VERTEX_PROBE = (
    "import time, causalgame as cg; s = cg.GameSpec(0.6, 0.7)\n"
    "t = time.perf_counter(); cg.oracle_bound(s); cold = time.perf_counter() - t\n"
    "t = time.perf_counter(); cg.oracle_bound(s); print(cold - (time.perf_counter() - t))"
)


class Op(NamedTuple):
    kind: str
    start: float
    seconds: float
    error: str | None  # why the op failed, None when its output is right
    item: dict
    misses: tuple = ()  # per search: shortfall below its analytic optimum


def run_block(workload, items, tracer=None, clock=None) -> list[Op]:
    ops = []
    for item in items:
        start = perf_counter()
        try:
            out = workload.op(item) if tracer is None else workload.op_traced(item, tracer)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        misses = ()
        if error is None:
            try:
                error = workload.check(item, out)
                if hasattr(workload, "misses"):
                    misses = tuple(workload.misses(item, out))
            except Exception as exc:  # output of the wrong shape
                error = f"check raised {type(exc).__name__}: {exc}"
        ops.append(Op(item["kind"], start, seconds, error, item, misses))
        if clock is not None:
            clock.after_op()
    return ops


def run_loop(workload, seconds: float, clock, tracer=None) -> tuple[list, list]:
    """Whole blocks until ``seconds`` have passed; with a tracer each block
    also runs traced. Returns the untraced and the traced blocks."""
    blocks = [workload.items[i : i + workload.block] for i in range(0, len(workload.items), workload.block)]
    plain, traced = [], []
    deadline = perf_counter() + seconds
    for items in cycle(blocks):
        plain.append(run_block(workload, items, clock=clock))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_block(workload, items, tracer))
            finally:
                tracer.uninstall()
        if perf_counter() >= deadline:
            clock.sample()
            return plain, traced


def _seconds(blocks: list, clock=None) -> list[float]:
    """Op seconds, at reference host speed when a clock is given."""
    ops = [op for b in blocks for op in b]
    if clock is None:
        return [op.seconds for op in ops]
    return [op.seconds * clock.factor(op.start, op.start + op.seconds) for op in ops]


def _p90_ms(seconds: list[float]) -> float:
    return (statistics.quantiles(seconds, n=10)[8] if len(seconds) > 1 else seconds[0]) * 1e3


def _probe(code: str) -> float:
    samples = []
    for _ in range(PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        samples.append(float(done.stdout) * 1e3)
    return statistics.median(samples)


def end_to_end(workload, plain: list, clock=None) -> dict:
    """Throughput, latency and memory; times at reference host speed when
    a clock is given."""
    seconds = _seconds(plain, clock)
    failed = sum(op.error is not None for b in plain for op in b)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {
        "ops_per_s": len(seconds) / sum(seconds),
        "op_p50_ms": statistics.median(seconds) * 1e3,
        "op_p90_ms": _p90_ms(seconds),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(seconds),
    }


def per_layer(plain: list, traced: list, tracer) -> dict:
    ops = sum(len(b) for b in traced)
    stats = tracer.stats
    zero = [0, 0.0, 0]
    metrics = {}
    for name in CALLS:
        calls, self_s, _ = stats.get(name, zero)
        metrics[f"{name}.calls_per_op"] = calls / ops
        metrics[f"{name}.self_ms_per_op"] = self_s * 1e3 / ops
    calls, _, members = stats.get("oracle.is_causal", zero)
    metrics["oracle.is_causal.member_frac"] = members / calls if calls else 0.0
    calls, _, pivots = stats.get("simplex.phase_one", zero)
    metrics["simplex.phase_one.pivots_per_call"] = pivots / calls if calls else 0.0
    for name in SEARCHES:
        calls, self_s, iters = stats.get(name, zero)
        metrics[f"{name}.self_ms_per_op"] = self_s * 1e3 / ops
        metrics[f"{name}.iters_per_call"] = iters / calls if calls else 0.0
    from workloads import reach

    metrics["optimizer.hit_frac"] = reach(op for b in plain + traced for op in b).get("hit_frac", 0.0)
    metrics["oracle.vertex_table_ms"] = _probe(VERTEX_PROBE)
    metrics["cli.import_ms"] = _probe(IMPORT_PROBE)
    for kind in CLI_KINDS:
        seconds = [op.seconds for b in plain for op in b if op.kind == kind]
        metrics[f"cli.{kind}.p50_ms"] = statistics.median(seconds) * 1e3 if seconds else 0.0
    untraced, with_spans = _seconds(plain), _seconds(traced)
    per_op = (sum(with_spans) / len(with_spans)) / (sum(untraced) / len(untraced))
    metrics["trace.overhead_frac"] = per_op - 1.0
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    workdir = OUT / f"tmp-{os.getpid()}"
    workload = workloads.create(args.workload, args.seed, workdir, dict(os.environ))
    workload.warm_up()
    print("READY", flush=True)
    import calibrate

    calibrate.kernel()  # first-call costs
    print("KERNEL", *(calibrate.sample_ms() for _ in range(3)), flush=True)
    if args.setup_only:
        workload.close()
        return 0

    import numpy

    workload.prepare_checks()
    clock = calibrate.HostClock()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    start = perf_counter()
    try:
        plain, traced = run_loop(workload, args.seconds, clock, tracer)
    finally:
        duration = perf_counter() - start
        workload.close()
    ops = [op for b in plain + traced for op in b]
    result = {
        "numpy": numpy.__version__,
        "duration_s": duration,
        "attempted": len(ops),
        "failed": sum(op.error is not None for op in ops),
        "untraced_ops": sum(len(b) for b in plain),
        "errors": [f"{op.kind}: {op.error}" for op in ops if op.error is not None][:10],
        "host_kernel_ms": statistics.median(clock.samples),
        "search_reach": workloads.reach(ops),
        "raw": end_to_end(workload, plain),
    }
    if tracer is None:
        result["metrics"] = end_to_end(workload, plain, clock)
    else:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        result["traced_ops"] = sum(len(b) for b in traced)
        result["metrics"] = per_layer(plain, traced, tracer)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
