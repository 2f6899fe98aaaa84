"""The benchmark's four workloads: seeded inputs, one op, and its output check.

Each workload is driven by one single-threaded closed-loop caller. Inputs
come only from the workload seed. An op's output is checked against the
ground truth in ``truth``, never against causalgame itself, and inputs are
never filtered by whether the code under test gets them right.

Ops are grouped in blocks of fixed composition: every block holds the same
mix of input kinds, and a run always ends on a whole block, so runs of
different lengths or seeds time the same mix.

Library calls go through the ``cg`` package attribute at call time, so the
traced run's wrappers see them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import causalgame as cg
import truth

HERE = Path(__file__).resolve().parent
TRACED_CLI = HERE / "traced_cli.py"

BORN_ATOL = 1e-9
CLI_ATOL = 1e-8
LP_ATOL = 1e-7
SEARCH_BELOW = 1e-4  # the library's own acceptance margin for a search
SEARCH_ABOVE = 1e-7


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class Workload:
    name = ""
    block = 1  # ops per block; every block has the same mix of kinds

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.items: list = []

    def warm_up(self) -> None:
        """Cache fills a user pays once per process, done inside set-up."""

    def prepare_checks(self) -> None:
        """Reference data for the checks, built after set-up is timed."""

    def op(self, item):
        raise NotImplementedError

    def op_traced(self, item, tracer):
        return tracer.call("op", self.op, (item,))

    def check(self, item, out) -> str | None:
        """None when the output is right, else the reason it is wrong."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Sweep(Workload):
    """Read a process from text, validate it, build its Born table, score it.

    Inputs alternate between Pauli text and dense JSON; one in eight
    carries a forbidden term that ``validate`` must reject.
    """

    name = "sweep"
    block = 48
    BLOCKS = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        for i in range(self.block * self.BLOCKS):
            family = ("w_beta", "mixture", "ansatz")[i % 3]
            if family == "w_beta":
                terms = truth.w_beta_terms(float(rng.uniform(0.5, 0.95)))
            elif family == "mixture":
                terms = truth.mixture_terms(float(rng.uniform(0.0, 1.0)))
            else:
                coeffs = rng.normal(size=6)
                coeffs *= rng.uniform(0.2, 0.9) / np.abs(coeffs).sum()  # W >= (1 - sum|c|) / 4
                terms = truth.ansatz_terms(coeffs)
            forbidden = None
            if i % 8 == 7:
                forbidden = truth.FORBIDDEN_WORDS[int(rng.integers(len(truth.FORBIDDEN_WORDS)))]
                terms = dict(terms, **{forbidden: float(rng.choice((-1, 1)) * rng.uniform(0.02, 0.08))})
            alpha = float(rng.uniform(0.5, 0.95))
            beta = float(rng.uniform(0.5, 0.95))
            axis = _unit(rng)
            tag = f"{family}-{i}"
            text = truth.pauli_text(terms, tag) if i % 2 == 0 else truth.dense_text(terms, tag)
            self.items.append(
                {
                    "kind": "invalid" if forbidden else family,
                    "text": text,
                    "forbidden": forbidden,
                    "alpha": alpha,
                    "beta": beta,
                    "axis": axis,
                    "success": truth.success(terms, alpha, beta, axis),
                    "bound": truth.causal_bound(alpha, beta),
                }
            )

    def warm_up(self) -> None:
        self.op(self.items[0])

    def op(self, item):
        w = cg.parse_process(item["text"])
        report = cg.validate(w)
        if not report.is_valid:
            return report, None, None
        spec = cg.GameSpec(item["alpha"], item["beta"])
        axis = item["axis"]
        dist = cg.joint_distribution(w, cg.alice_z, lambda y, b, bp: cg.bob_branch(y, b, bp, t=axis))
        return report, cg.success_probability(dist, spec), cg.causal_bound(spec)

    def check(self, item, out) -> str | None:
        report, p_succ, bound = out
        if item["forbidden"]:
            if report.is_valid:
                return f"forbidden term {item['forbidden']} accepted"
            words = {"".join("IXYZ"[i] for i in word) for word, _ in report.forbidden_terms}
            if item["forbidden"] not in words:
                return f"forbidden term {item['forbidden']} not reported: {sorted(words)}"
            return None
        if not report.is_valid:
            return "valid process rejected: " + "; ".join(report.failures)
        if not abs(p_succ - item["success"]) <= BORN_ATOL:
            return f"success {p_succ!r} != closed form {item['success']!r}"
        if not abs(bound - item["bound"]) <= BORN_ATOL:
            return f"causal bound {bound!r} != {item['bound']!r}"
        return None


class Certify(Workload):
    """Build a correlation table and decide whether it is causal.

    Members: ordered processes and their mixtures played with seeded
    general instruments (a causal process gives a causal table).
    Non-members: w_ocb and w_beta played with the built-in strategy,
    whose closed-form score exceeds the causal bound.
    """

    name = "certify"
    block = 16
    BLOCKS = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        for i in range(self.block * self.BLOCKS):
            if i % 2 == 0:
                q = {0: 0.0, 2: 1.0}.get(i % 16)  # one of each pure order per block
                q = float(rng.uniform(0.0, 1.0)) if q is None else q
                self.items.append(
                    {
                        "kind": "member",
                        "q": q,
                        "alice": {"measure": _unit(rng), "encode": _unit(rng)},
                        "bob": {"measure": _unit(rng), "encode": _unit(rng), "relay": _unit(rng)},
                    }
                )
            else:
                beta = 0.5 if i % 16 == 1 else float(rng.uniform(0.5, 0.9))
                self.items.append({"kind": "nonmember", "beta": beta, "ocb": i % 16 == 1})

    def warm_up(self) -> None:
        cg.oracle_bound(cg.GameSpec(0.5, 0.5))  # the vertex table
        self.op(self.items[0])

    def prepare_checks(self) -> None:
        strategies = cg.enumerate_strategies()
        self.vertices = np.stack([s.correlation_table().reshape(32) for s in strategies], axis=1)

    def _process(self, item):
        if item["kind"] == "member":
            return cg.causal_mixture(
                cg.ordered_identity_channel_process("b_to_a"),
                cg.ordered_identity_channel_process("a_to_b"),
                item["q"],
            )
        return cg.w_ocb() if item["ocb"] else cg.w_beta(item["beta"])

    def op(self, item):
        w = self._process(item)
        if item["kind"] == "member":
            alice = cg.ObservableSpec(**item["alice"])
            bob = cg.ObservableSpec(**item["bob"])
            dist = cg.joint_distribution(
                w,
                lambda x, a: cg.alice_general(x, a, alice),
                lambda y, b, bp: cg.bob_general(y, b, bp, bob),
            )
        else:
            dist = cg.joint_distribution(w, cg.alice_z, cg.bob_branch)
        return dist.table, cg.is_causal(dist)

    def check(self, item, out) -> str | None:
        table, decision = out
        p = np.asarray(table, dtype=float).reshape(32)
        if item["kind"] == "member":
            if not decision.is_causal:
                return f"causal table (q={item['q']!r}) rejected, residual {decision.residual!r}"
            weights = np.asarray(decision.weights, dtype=float)
            if weights.shape != (self.vertices.shape[1],):
                return f"weights have shape {weights.shape}"
            if weights.min() < -LP_ATOL or abs(weights.sum() - 1.0) > LP_ATOL:
                return f"weights not convex: min {weights.min()!r}, sum {weights.sum()!r}"
            gap = float(np.abs(self.vertices @ weights - p).max())
            if gap > LP_ATOL:
                return f"weights reproduce the table only to {gap:.3e}"
            return None
        beta = item["beta"]
        closed = truth.analytic_max_dbit(beta)
        p_succ = truth.table_success(table, 0.5, beta)
        if abs(p_succ - closed) > BORN_ATOL:
            return f"table scores {p_succ!r}, closed form {closed!r}"
        if decision.is_causal:
            return f"non-causal table (beta={beta!r}) accepted"
        functional = np.asarray(decision.functional, dtype=float).reshape(32)
        value = float(functional @ p)
        ceiling = float((functional @ self.vertices).max())
        if not value > ceiling + LP_ATOL:
            return f"certificate does not separate: value {value!r}, vertex max {ceiling!r}"
        return None


class Search(Workload):
    """One instrument search on w_beta and one process-family search.

    Both use OptimizerConfig(restarts=16), the configuration ``threshold``
    runs 18 times; each op draws its own beta, alpha and optimizer seed.

    The searches are random-restart ascents that report the best point
    found, so the check holds each result to what is true of any such
    point: never above the proven optimum, feasible, a non-decreasing
    trace that ends at the value, and for the family search a value equal
    to the closed-form score of its own coefficients and axis at a
    positive semidefinite process. How close a search comes to the
    optimum is measured, not checked: see ``misses`` and ``reach``.
    """

    name = "search"
    block = 2
    OPS = 64

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        for _ in range(self.OPS):
            self.items.append(
                {
                    "kind": "search",
                    "beta": float(rng.uniform(0.5, 0.9)),
                    "alpha": float(rng.uniform(0.5, 0.7)),
                    "seed": int(rng.integers(2**31)),
                }
            )

    def op(self, item):
        config = cg.OptimizerConfig(restarts=16, seed=item["seed"])
        instruments = cg.maximize_instruments(cg.w_beta(item["beta"]), item["beta"], config)
        family = cg.maximize_ansatz(item["alpha"], config)
        return instruments, family

    @staticmethod
    def misses(item, out) -> list[float]:
        """Shortfall of each search below its analytic optimum."""
        instruments, family = out
        return [
            truth.analytic_max_dbit(item["beta"]) - instruments.value,
            truth.ANSATZ_CEILING - family.value,
        ]

    def check(self, item, out) -> str | None:
        for result, shortfall in zip(out, self.misses(item, out)):
            if shortfall < -SEARCH_ABOVE:
                return f"search value {result.value!r} is {-shortfall:.3e} above its proven optimum"
            if not result.feasible:
                return "search reported an infeasible point"
            trace = np.asarray(result.trace, dtype=float)
            if np.any(np.diff(trace) < -BORN_ATOL):
                return "search trace decreases"
            if abs(trace[-1] - result.value) > BORN_ATOL:
                return f"trace ends at {trace[-1]!r}, value {result.value!r}"
        family = out[1]
        terms = truth.ansatz_terms(family.coefficients)
        lowest = float(np.linalg.eigvalsh(truth.matrix(terms)).min())
        if lowest < -BORN_ATOL:
            return f"family point is not positive: eigenvalue {lowest!r}"
        score = truth.success(terms, item["alpha"], 0.5, family.axis)
        if abs(score - family.value) > BORN_ATOL:
            return f"family value {family.value!r}, closed-form score of its point {score!r}"
        return None


def reach(ops) -> dict:
    """How close the searches came to their optima: the share within the
    acceptance tests' margin, and the worst shortfall with its op."""
    shortfalls = [(miss, op.item) for op in ops for miss in op.misses]
    if not shortfalls:
        return {}
    worst, item = max(shortfalls, key=lambda pair: pair[0])
    return {
        "searches": len(shortfalls),
        "hit_frac": sum(miss <= SEARCH_BELOW for miss, _ in shortfalls) / len(shortfalls),
        "worst_shortfall": worst,
        "worst_item": {key: item[key] for key in ("beta", "alpha", "seed")},
    }


class Cli(Workload):
    """One fresh ``python -m causalgame.cli`` process per op, one at a time.

    A block is the README's sub-second commands in order: validate, game,
    sweep-beta, oracle, witness, decompose to a file, validate that file.
    """

    name = "cli"
    block = 7
    BLOCKS = 16

    def __init__(self, seed: int, workdir: Path, env: dict):
        super().__init__(seed)
        self.workdir = workdir
        self.env = env
        self.trace_count = 0
        rng = self.rng
        for n in range(self.BLOCKS):
            token, terms = self._process(rng)
            alpha = float(rng.uniform(0.5, 0.95))
            beta = float(rng.uniform(0.5, 0.95))
            axis = _unit(rng)
            lo = float(rng.uniform(0.5, 0.7))
            hi = float(rng.uniform(0.75, 0.99))
            form = ("pauli", "dense")[n % 2]
            path = workdir / f"process-{n}.{'txt' if form == 'pauli' else 'json'}"
            game_token, game_terms = self._process(rng, pick=n % 2)  # w_beta or a mixture
            self.items += [
                {"kind": "validate", "args": ["validate", token]},
                {
                    "kind": "game",
                    "args": ["game", "--process", game_token, "--alpha", repr(alpha), "--beta", repr(beta)]
                    + ["--t-vector", *(repr(float(v)) for v in axis)],
                    "success": truth.success(game_terms, alpha, beta, axis),
                    "bound": truth.causal_bound(alpha, beta),
                },
                {
                    "kind": "sweep-beta",
                    "args": ["sweep-beta", "--from", repr(lo), "--to", repr(hi), "--steps", "50"],
                    "lo": lo,
                    "hi": hi,
                },
                {
                    "kind": "oracle",
                    "args": ["oracle", "--alpha", repr(alpha), "--beta", repr(beta)],
                    "value": truth.causal_bound(alpha, beta),
                },
                {"kind": "witness", "args": ["witness", "--process", token], "value": truth.witness(terms)},
                {
                    "kind": "decompose",
                    "args": ["decompose", "--process", token, "--form", form, "--out", str(path)],
                    "path": path,
                    "form": form,
                    "terms": terms,
                },
                {"kind": "validate_file", "args": ["validate", str(path)]},
            ]

    @staticmethod
    def _process(rng, pick=None):
        choice = int(rng.integers(5)) if pick is None else pick
        if choice == 0:
            beta = float(rng.uniform(0.5, 0.95))
            return f"w_beta@{beta!r}", truth.w_beta_terms(beta)
        if choice == 1:
            q = float(rng.uniform(0.0, 1.0))
            return f"mix@{q!r}", truth.mixture_terms(q)
        if choice == 2:
            return "w_ocb", truth.w_beta_terms(0.5)
        direction = ("a_to_b", "b_to_a")[choice - 3]
        return ("ordered_ab", "ordered_ba")[choice - 3], truth.ordered_terms(direction)

    def _run(self, argv):
        done = subprocess.run(argv, capture_output=True, text=True, env=self.env, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def op(self, item):
        return self._run([sys.executable, "-m", "causalgame.cli", *item["args"]])

    def op_traced(self, item, tracer):
        self.trace_count += 1
        summary = self.workdir / f"trace-{self.trace_count}.json"
        out = tracer.call("op", self._run, ([sys.executable, str(TRACED_CLI), str(summary), *item["args"]],))
        tracer.merge_file(summary)
        return out

    def check(self, item, out) -> str | None:
        code, stdout, stderr = out
        if code != 0:
            return f"{item['kind']} exited {code}: {stderr.strip()[-200:]}"
        kind = item["kind"]
        if kind in ("validate", "validate_file"):
            return None if stdout == "valid\n" else f"validate printed {stdout!r}"
        if kind in ("oracle", "witness"):
            return _close(stdout, item["value"])
        if kind == "game":
            lines = stdout.splitlines()
            if len(lines) != 35 or lines[0] != "x,y,a,b,bprime,p":
                return f"game printed {len(lines)} lines"
            names = [line.split(" ")[0] for line in lines[-2:]]
            if names != ["success_probability", "causal_bound"]:
                return f"game footer {names}"
            success, bound = (line.split(" ")[1] for line in lines[-2:])
            return _close(success, item["success"]) or _close(bound, item["bound"])
        if kind == "sweep-beta":
            return _check_sweep(stdout, item["lo"], item["hi"])
        if kind == "decompose":
            if stdout:
                return f"decompose --out printed {stdout!r}"
            return _check_file(item["path"], item["form"], item["terms"])
        return f"unknown kind {kind}"

    def close(self) -> None:
        for path in self.workdir.glob("*"):
            path.unlink()
        self.workdir.rmdir()


def _close(text: str, expected: float) -> str | None:
    try:
        value = float(text)
    except ValueError:
        return f"printed {text!r}, expected {expected!r}"
    return None if abs(value - expected) <= CLI_ATOL else f"printed {text.strip()}, expected {expected!r}"


def _check_sweep(stdout: str, lo: float, hi: float) -> str | None:
    lines = stdout.splitlines()
    if lines[:1] != ["beta,p_succ_w_beta,causal_bound,analytic_max,gap"] or len(lines) != 51:
        return f"sweep-beta printed {len(lines)} lines"
    for beta, line in zip(np.linspace(lo, hi, 50), lines[1:]):
        beta = float(beta)
        best = truth.analytic_max_dbit(beta)
        bound = truth.causal_bound(0.5, beta)
        for cell, expected in zip(line.split(","), (beta, best, bound, best, best - bound)):
            problem = _close(cell, expected)
            if problem:
                return f"sweep-beta row at beta={beta!r}: {problem}"
    return None


def _check_file(path: Path, form: str, terms: dict) -> str | None:
    text = path.read_text(encoding="utf-8")
    if form == "dense":
        document = json.loads(text)
        entries = np.array(document["entries"], dtype=float)
        got = entries[:, 0] + 1j * entries[:, 1]
        gap = float(np.abs(got - truth.matrix(terms).ravel()).max())
        return None if gap <= 1e-12 else f"dense file is {gap:.3e} from the closed form"
    got = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            word, value = line.split()
            got[word] = float(value)
    if set(got) != set(terms):
        return f"pauli file lists {sorted(got)}, expected {sorted(terms)}"
    gap = max(abs(got[word] - value) for word, value in terms.items())
    return None if gap <= 1e-12 else f"pauli file is {gap:.3e} from the closed form"


def create(name: str, seed: int, workdir: Path, env: dict) -> Workload:
    if name == "sweep":
        return Sweep(seed)
    if name == "certify":
        return Certify(seed)
    if name == "search":
        return Search(seed)
    if name == "cli":
        workdir.mkdir(parents=True, exist_ok=True)
        return Cli(seed, workdir, env)
    raise ValueError(f"unknown workload {name!r}")

