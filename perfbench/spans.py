"""Spans around calls into the library's layers, recorded from outside.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` and
rebinds the wrapper in every ``weq`` module that holds the original under
that name: a module that imports ``build`` by name calls ``build`` through
its own global, so ``weq.periodicity.build``, ``weq.hunt.build`` and
``weq.cli.build`` all need the wrapper.  Each call records a span (name,
start, end, parent); the spans stay in memory until ``write`` puts them in a
file at the end of the run.  A layer's self time is its spans' durations
minus their children's.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import sys
from array import array
from pathlib import Path

# layer -> (module, wrapped public functions, the end-to-end metrics the
# layer's numbers should move, as "metric@workload")
LAYERS = {
    "semigroup": ("weq.semigroup", ("is_dlg", "green", "stab_L"),
                  ["ops_per_s@battery", "ops_per_s@hunt", "~0@pump"]),
    "solution_graph": ("weq.solution_graph", ("build", "enumerate_solutions"),
                       ["op_p50_ms@hard", "op_tail_ms@hard", "peak_rss_mb@hard",
                        "ops_per_s@battery", "~0@pump"]),
    "periodicity": ("weq.periodicity",
                    ("pumping_certificate", "simple_cycles", "instantiate", "load_certificate"),
                    ["op_tail_ms@hard", "fail_ratio@hard", "ops_per_s@hunt",
                     "op_p50_ms@pump (instantiate)"]),
    "equations": ("weq.equations", ("exp_word", "parse_instance", "verify_solution"),
                  ["op_p50_ms@pump (exp_word)", "~0@hard (exp_word)", "~0@hunt (exp_word)",
                   "setup_s (parse_instance)"]),
    "oracle": ("weq.oracle", ("brute_solutions",),
               ["ops_per_s@battery", "0 calls@hunt", "0 calls@hard"]),
    "hunt": ("weq.hunt", ("sweep_instances", "canonical_key", "classify"),
             ["ops_per_s@hunt", "nothing elsewhere"]),
    "cli": ("weq.cli", ("main",), ["op_p50_ms@pump"]),
}
ROOT = "bench.op"  # the benchmark's own span around one operation


def _count_target(c, args, result):
    c["semigroup.targets"].add(args[0])


def _count_graph(c, args, result):
    c["solution_graph.states_kept"] += result.state_count
    c["solution_graph.transitions_kept"] += result.transition_count
    c["solution_graph.cyclic_sccs"] += sum(result.scc.has_transition)


def _count_cycles(c, args, result):
    c["periodicity.cycles_enumerated"] += len(result)


def _count_tokens(c, args, result):
    c["equations.exp_word.tokens"] += len(args[0])


def _count_solutions(c, args, result):
    c["oracle.solutions"] += len(result.solutions)


def _count_instance(c, args, item):
    c["hunt.instances"] += 1


# counters read off the arguments and result of a call, by wrapped function;
# a generator's counter runs once per item it yields
COUNTERS = {
    "semigroup.is_dlg": _count_target,
    "semigroup.green": _count_target,
    "semigroup.stab_L": _count_target,
    "solution_graph.build": _count_graph,
    "periodicity.simple_cycles": _count_cycles,
    "equations.exp_word": _count_tokens,
    "oracle.brute_solutions": _count_solutions,
    "hunt.sweep_instances": _count_instance,
}


class Tracer:
    def __init__(self, now) -> None:
        self.now = now
        self.on = False
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters = {
            "semigroup.targets": set(),  # distinct semigroups passed in
            "solution_graph.states_kept": 0,
            "solution_graph.transitions_kept": 0,
            "solution_graph.cyclic_sccs": 0,
            "periodicity.cycles_enumerated": 0,
            "equations.exp_word.tokens": 0,
            "oracle.solutions": 0,
            "hunt.instances": 0,
        }
        self._saved: list[tuple[object, str, object]] = []
        self._root = self._name_id(ROOT)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid: int) -> tuple[int, int]:
        idx = len(self.start)
        parent = self.current
        self.name_of.append(nid)
        self.parent.append(parent)
        self.end.append(0.0)
        self.current = idx
        self.start.append(self.now())
        return idx, parent

    def _close(self, idx: int, parent: int) -> None:
        self.end[idx] = self.now()
        self.current = parent

    @contextlib.contextmanager
    def op(self):
        """The benchmark's span around one operation."""
        token = self._open(self._root)
        try:
            yield
        finally:
            self._close(*token)

    def _wrap(self, qualname: str, fn):
        tracer = self
        nid = self._name_id(qualname)
        count = COUNTERS.get(qualname)

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                # one span per item: the time spent producing it
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.on:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        yield item
                        continue
                    idx, parent = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx, parent)
                    if count:
                        count(tracer.counters, args, item)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx, parent = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent)
            if count:
                count(tracer.counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        weq_modules = [m for name, m in sys.modules.items()
                       if m is not None and (name == "weq" or name.startswith("weq."))]
        for layer, (modname, functions, _) in LAYERS.items():
            module = sys.modules[modname]
            for fname in functions:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in weq_modules:
                    if getattr(mod, fname, None) is original:
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float | int]:
        """Calls and self time of every wrapped function, the counters, and
        ``semigroup.is_dlg.calls_per_target``."""
        n = len(self.start)
        parent, start, end, name_of = self.parent, self.start, self.end, self.name_of
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[name_of[i]] += 1
            self_s[name_of[i]] += end[i] - start[i] - child[i]
        out: dict[str, float | int] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        for key, value in self.counters.items():
            out[key] = len(value) if isinstance(value, set) else value
        targets = out["semigroup.targets"]
        out["semigroup.is_dlg.calls_per_target"] = (
            out["semigroup.is_dlg.calls"] / targets if targets else 0.0)
        out["trace.spans"] = n
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped tab-separated lines: id, name, parent, start, end
        (seconds on the run's clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name_of[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\n")
