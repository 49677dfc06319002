"""Spans and counts at the layer boundaries of hexcontact, recorded from
outside the package.

:meth:`Tracer.installed` replaces every public function of the modules
``lattice``, ``contact``, ``search``, ``bounds`` and ``cli`` by a wrapper,
under every name any hexcontact module binds it to, so calls between the
modules pass through the wrappers too.  A wrapper records one span: its
name, start, end, the span that called it, and the trace it belongs to (the
outermost span, normally one ``cli.main`` call).  Spans are kept in memory
and written out by :meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("lattice", "contact", "search", "bounds", "cli")


def _greedy_sweep_work(args):
    runs = len(args["grids"]) * (args["restarts"] + 1)
    return {"runs": runs, "steps": runs * (args["n_max"] - 1)}


def _verify_pairs(args):
    n = len(args["config"].balls)
    return {"pairs": n * (n - 1) // 2}


def _exhaustive_call(args):
    return {"replay": (args["lattice"], args["window"], args["n"], args["all_max"])}


# Counts taken from a call's arguments, for the spans that need a base.
COUNTED = {
    "search.greedy_sweep": _greedy_sweep_work,
    "contact.verify": _verify_pairs,
    "search.exhaustive": _exhaustive_call,
}


class Tracer:
    def __init__(self) -> None:
        # span: [id, parent id, trace id, name, start ns, end ns, outermost of its name]
        self.spans: list[list] = []
        # (span id, name, counts) for the names in COUNTED
        self.counts: list[tuple[int, str, dict]] = []
        self._stack: list[int] = []
        self._depth: collections.Counter[str] = collections.Counter()

    def _wrap(self, name: str, fn):
        count = COUNTED.get(name)
        signature = inspect.signature(fn) if count else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            trace = self.spans[self._stack[0]][2] if self._stack else sid
            span = [sid, parent, trace, name, 0, 0, self._depth[name] == 0]
            self.spans.append(span)
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.append((sid, name, count(bound.arguments)))
            self._stack.append(sid)
            self._depth[name] += 1
            span[4] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = clock()
                self._stack.pop()
                self._depth[name] -= 1

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the public functions of the loaded hexcontact modules."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"hexcontact.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hexcontact" and not mod_name.startswith("hexcontact."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, obj))
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def summary(self, first_span: int, first_count: int) -> dict[str, float]:
        """Busy time per function, counts, and the cli layer's self time,
        over the spans recorded since the given positions."""
        spans = self.spans[first_span:]
        busy: collections.Counter[str] = collections.Counter()
        children = collections.defaultdict(list)
        for s in spans:
            if s[6]:
                busy[s[3]] += (s[5] - s[4]) / 1e9
            if s[1] is not None:
                children[s[1]].append(s)
        out = {f"{name}.busy_s": seconds for name, seconds in busy.items()}
        totals: collections.Counter[str] = collections.Counter()
        for _, name, counts in self.counts[first_count:]:
            for key, value in counts.items():
                if key != "replay":
                    totals[f"{name}.{key}"] += value
        out.update(totals)
        # The cli layer's self time: cli spans minus the time their nearest
        # non-cli descendants cover.
        cli_self = 0.0
        for s in spans:
            if s[3] == "cli.main" and s[6]:
                covered, todo = 0, list(children[s[0]])
                while todo:
                    child = todo.pop()
                    if child[3].startswith("cli."):
                        todo.extend(children[child[0]])
                    else:
                        covered += child[5] - child[4]
                cli_self += (s[5] - s[4] - covered) / 1e9
        out["cli.main.self_s"] = cli_self
        return out

    def replays(self, name: str, first_count: int, last_count: int) -> list[tuple]:
        return [c["replay"] for _, n, c in self.counts[first_count:last_count] if n == name]

    def write(self, path: str, header: dict) -> None:
        keys = ("id", "parent", "trace", "name", "start_ns", "end_ns")
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s[:6]))) + "\n")
