"""Self-tests of the benchmark itself.

Usage, from the repository root:

    python3 perfbench/selftest.py

1. Smoke: runs run.py for a few ops of every workload, untraced and
   traced, and checks the last line's keys and every metric name and unit
   against BENCHMARK.json.
2. Tamper: feeds each workload's checks answers that were altered after
   the op returned (a shifted score, a flipped verdict, LP weights that no
   longer sum to 1, an empty certificate, a search value above its proven
   optimum, a family point that no longer scores its reported value, CLI
   output off in a printed digit or a written file) and asserts that every
   altered op is counted as failed.
3. README: the CLI checks accept the README's printed values.
4. Bare directory: run.py exits non-zero, printing no result, where only
   BENCHMARK.json and the benchmark's own files exist.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


import run  # noqa: E402
import truth  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"], spec["command"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for workload in run.WORKLOADS:
            argv = [*spec["command"], "--workload", workload, "--seed", "3", "--seconds", "0.5"]
            argv += ["--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
            last = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
            assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1, last
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            assert got == expected, f"{workload} trace {trace}: {set(got) ^ set(expected)}"
            for name, m in last["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
                if trace == 0:
                    assert m["value"] > 0, (workload, name, m)
            print(f"smoke ok: {workload} trace {trace}, {last['attempted']} ops")


class Tampered:
    """A workload whose op answers are altered before they are checked."""

    def __init__(self, inner, alter):
        self.inner = inner
        self.alter = alter

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def op(self, item):
        return self.alter(item, self.inner.op(item))


def _sweep(item, out):
    report, p_succ, bound = out
    if p_succ is None:
        return dataclasses.replace(report, is_valid=True), p_succ, bound
    return report, p_succ + 1e-6, bound


def _certify(item, out):
    table, decision = out
    if decision.is_causal:
        return table, dataclasses.replace(decision, weights=decision.weights * 0.999)
    return table, dataclasses.replace(decision, functional=decision.functional * 0.0)


def _search(item, out):
    instruments, family = out
    return dataclasses.replace(instruments, value=instruments.value + 1e-3), family


def _search_point(item, out):
    instruments, family = out
    shrunk = tuple(0.9 * c for c in family.coefficients)
    return instruments, dataclasses.replace(family, coefficients=shrunk)


_NUMBER = re.compile(r"-?\d+\.\d+(?:e-?\d+)?")


def _shift_last_number(text: str) -> str:
    last = list(_NUMBER.finditer(text))[-1]
    return text[: last.start()] + repr(float(last.group()) + 1e-3) + text[last.end() :]


def _cli(item, out):
    code, stdout, stderr = out
    if item["kind"] == "decompose":
        path = item["path"]
        path.write_text(_shift_last_number(path.read_text()))
        return out
    if item["kind"].startswith("validate"):
        return code, "INVALID\n", stderr
    return code, _shift_last_number(stdout), stderr


def _errors(ops: list) -> list[str]:
    return [op.error for op in ops if op.error is not None]


ALTER = {"sweep": (_sweep,), "certify": (_certify,), "search": (_search, _search_point), "cli": (_cli,)}


def tamper() -> None:
    env = run._env()
    workdir = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    for name in run.WORKLOADS:
        workload = workloads.create(name, 5, workdir, env)
        try:
            workload.warm_up()
            workload.prepare_checks()
            items = workload.items[: workload.block]
            honest = _errors(worker.run_block(workload, items))
            assert not honest, honest
            for alter in ALTER[name]:
                altered = _errors(worker.run_block(Tampered(workload, alter), items))
                assert len(altered) == len(items), (name, alter.__name__, len(altered), len(items))
        finally:
            workload.close()
        print(f"tamper ok: {name}, {len(ALTER[name])} alteration(s), each counted as failed on all {len(items)} ops")


def readme() -> None:
    assert f"{truth.causal_bound(0.6, 0.7):.9g}" == "0.88"
    assert f"{truth.witness(truth.w_beta_terms(0.5)):.7f}" == "-0.4142136"
    env = run._env()
    workload = workloads.create("cli", 0, ROOT / ".perfbench_out" / f"readme-{os.getpid()}", env)
    try:
        items = [
            {"kind": "oracle", "args": ["oracle", "--alpha", "0.6", "--beta", "0.7"], "value": 0.88},
            {
                "kind": "witness",
                "args": ["witness", "--process", "w_beta@0.5"],
                "value": 1.0 - math.sqrt(2.0),
            },
            {"kind": "validate", "args": ["validate", "w_beta@0.75"]},
        ]
        for item in items:
            out = workload.op(item)
            assert workload.check(item, out) is None, (item["args"], out)
            assert workload.check(item, _cli(item, out)) is not None, item["args"]
    finally:
        workload.close()
    print("readme ok: oracle 0.88, witness -0.4142136, validate w_beta@0.75")


def bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        argv = ["python3", "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"]
        argv += ["--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0, done.stdout
        assert "correct" not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare)
    print(f"bare directory ok: exit {done.returncode}, no result printed")


if __name__ == "__main__":
    tamper()
    readme()
    bare_directory()
    smoke()
    print("selftest passed")
