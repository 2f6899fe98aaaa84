"""Spans around causalgame's public functions, installed from outside the package.

``install`` replaces each public function of the traced modules at every
name a causalgame module (or the package itself) binds it to, so a call
through ``causalgame.oracle.phase_one`` or ``causalgame.game.born`` lands
in a wrapper. Spans stay in memory; per-name call counts and self time
(a span minus its traced children) are aggregated as calls return, and
the first spans are kept whole for writing out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

MODULES = ("tensor", "processes", "formats", "instruments", "game", "oracle", "simplex", "optimizer", "cli")

# Functions reported together under one name; every other public function
# is reported as module.function.
GROUPS = {
    "processes.w_beta": "processes.build",
    "processes.w_ocb": "processes.build",
    "processes.w_ansatz": "processes.build",
    "processes.causal_mixture": "processes.build",
    "processes.ordered_identity_channel_process": "processes.build",
    "formats.pauli_text": "formats.write",
    "formats.dense_text": "formats.write",
    "instruments.alice_z": "instruments.build",
    "instruments.bob_branch": "instruments.build",
    "instruments.alice_general": "instruments.build",
    "instruments.bob_general": "instruments.build",
}

# Work counts read off a traced call's return value.
OBSERVE = {
    "simplex.phase_one": lambda result: result.iterations,
    "oracle.is_causal": lambda result: int(result.is_causal),
    "optimizer.maximize_instruments": lambda result: len(result.trace) - 1,
    "optimizer.maximize_ansatz": lambda result: len(result.trace) - 1,
}

KEEP_SPANS = 20000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds, observed count]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] | None = None  # (module, name, function, wrapper)

    def call(self, name: str, fn, args=(), kwargs=None):
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        self._next_id += 1
        frame = [0.0, self._next_id]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            elapsed = end - start
            if stack:
                stack[-1][0] += elapsed
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = [0, 0.0, 0]
            stat[0] += 1
            stat[1] += elapsed - frame[0]
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((frame[1], parent, name, start, end))
        observe = OBSERVE.get(name)
        if observe is not None:
            stat[2] += observe(result)
        return result

    def install(self) -> None:
        """Wrap every public function of MODULES wherever causalgame binds it."""
        if self._patches is None:
            self._patches = self._find_patches()
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn, _ in self._patches or ():
            setattr(holder, key, fn)

    def _find_patches(self) -> list[tuple]:
        for short in MODULES:
            __import__(f"causalgame.{short}")
        holders = [m for key, m in sys.modules.items() if key.split(".")[0] == "causalgame"]
        patches = []
        for short in MODULES:
            module = sys.modules[f"causalgame.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(GROUPS.get(name, name), fn)
                for holder in holders:
                    bound = [key for key, value in vars(holder).items() if value is fn]
                    patches.extend((holder, key, fn, wrapper) for key in bound)
        return patches

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def summary(self) -> dict:
        return {name: list(stat) for name, stat in self.stats.items()}

    def merge_file(self, path: Path) -> None:
        """Add the summary another process wrote to ``path``, then delete it."""
        for name, (calls, self_s, observed) in json.loads(path.read_text()).items():
            stat = self.stats.setdefault(name, [0, 0.0, 0])
            stat[0] += calls
            stat[1] += self_s
            stat[2] += observed
        path.unlink()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_s", "end_s"],
                    "spans": self.spans,
                    "summary": self.summary(),
                },
                handle,
            )
