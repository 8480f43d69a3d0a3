"""Span tracing for the traced benchmark run, installed from outside the
package.

`Tracer.install` wraps every public function of the package's modules and
puts the wrapper wherever a module of the package looks the function up (its
own namespace, the modules that imported it by name, and the package), so
calls between modules and within a module are both recorded. A span is
(name, start, end, parent); spans stay in memory in flat arrays until the run
writes them out. A generator function gets one span per item it yields.
Spans recorded inside `multiprocessing` workers stay in those workers and are
not collected.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("graph", "canon", "spectral", "minors", "cdv", "search", "cli")
CONSTRUCTORS = ("graph.construct_kr_extremal", "graph.construct_kst_extremal",
                "graph.construct_cdv_extremal", "graph.path")
H_LABELS = ("K4", "K2_3", "K5", "K3_3", "K6fam")
CLI_COMMANDS = ("search", "mu", "minor", "dy", "report-problems")
COMMAND_SPAN = "cli.command."


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    m = [
        ("graph.parse_graph6.calls", "count", "lower"),
        ("graph.parse_graph6.s", "s", "lower"),
        ("graph.encode_graph6.s", "s", "lower"),
        ("graph.construct.s", "s", "lower"),
        ("canon.canonical_key.calls", "count", "lower"),
        ("canon.canonical_key.s", "s", "lower"),
        ("canon.cache_hit_ratio", "ratio", "higher"),
        ("search.enumerate_graphs.s", "s", "lower"),
        ("search.scan_family.self_s", "s", "lower"),
        ("search.family_filter.member.calls", "count", "lower"),
        ("search.family_filter.nonmember.calls", "count", "lower"),
    ]
    for h in H_LABELS:
        for answer in ("yes", "no"):
            m.append((f"minors.has_minor.{h}.{answer}.calls", "count", "lower"))
            m.append((f"minors.has_minor.{h}.{answer}.s", "s", "lower"))
    m += [
        ("minors.verify_witness.s", "s", "lower"),
        ("minors.delta_y_closure.s", "s", "lower"),
        ("cdv.classify_mu.calls", "count", "lower"),
        ("cdv.classify_mu.s", "s", "lower"),
    ]
    m += [(f"cdv.classify_mu.class{k}.calls", "count", "lower") for k in range(1, 6)]
    m += [
        ("spectral.spectral_radius.calls", "count", "lower"),
        ("spectral.spectral_radius.s", "s", "lower"),
        ("spectral.spectral_radius.iterations", "count", "lower"),
    ]
    m += [(f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS]
    m.append(("trace.overhead_s", "s", "lower"))
    return m


def _minor_label(h) -> str:
    """Which obstruction H is, from its order, size and degrees."""
    n = h.n
    degs = sorted(r.bit_count() for r in h.rows)
    e = sum(degs) // 2
    if n == 4 and e == 6:
        return "K4"
    if n == 5 and e == 10:
        return "K5"
    if n == 5 and degs == [2, 2, 2, 3, 3]:
        return "K2_3"
    if n == 6 and degs == [3] * 6 and not any(
            h.rows[u] & h.rows[v] for u in range(6) for v in range(6) if h.rows[u] >> v & 1):
        return "K3_3"
    if 6 <= n <= 10 and e == 15:
        return "K6fam"
    return "other"


# What each tagged function's result adds to its span.
TAGS = {
    "minors.has_minor": lambda args, out: [_minor_label(args[0]), out is not None],
    "search.family_filter": lambda args, out: bool(out),
    "cdv.classify_mu": lambda args, out: out.value,
    "spectral.spectral_radius": lambda args, out: out.iterations,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, object] = {}
        self.originals: dict[str, object] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return idx

    def _wrap(self, qualname: str, fn):
        nid = self._id(qualname)
        tag = TAGS.get(qualname)
        stack, names, parents, starts, ends = (
            self._stack, self.name, self.parent, self.start, self.end)

        def open_span() -> int:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            return idx

        def close_span(idx: int):
            ends[idx] = perf_counter()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield item
            return gen

        @functools.wraps(fn)
        def call(*args, **kwargs):
            idx = open_span()
            try:
                out = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if tag is not None:
                self.tags[idx] = tag(args, out)
            return out
        return call

    def install(self):
        """Wrap the public functions of every layer module."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"spectralminors.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                qualname = f"{layer}.{attr}"
                self.originals[qualname] = obj
                wrapped[id(obj)] = (obj, self._wrap(qualname, obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != "spectralminors":
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # -- persistence and merging ------------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "tags": [[i, t] for i, t in self.tags.items()],
        }

    def merge(self, data: dict, parent: int):
        """Append spans dumped by another process (perf_counter is a
        system-wide monotonic clock here), rooting them under `parent`."""
        base = len(self.start)
        ids = [self._id(n) for n in data["names"]]
        for nid, p, s, e in zip(data["name"], data["parent"], data["start"], data["end"]):
            self.name.append(ids[nid])
            self.parent.append(parent if p < 0 else base + p)
            self.start.append(s)
            self.end.append(e)
        for i, t in data["tags"]:
            self.tags[base + i] = t

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.dump(), fh)

    # -- per-layer metrics --------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans. `.s` is inclusive time
        (none of the named functions calls itself); `self_s` subtracts the
        time covered by child spans."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            total[nid] += dur[i]
            self_s[nid] += dur[i] - child[i]

        def get(name, arr):
            nid = self._ids.get(name)
            return arr[nid] if nid is not None else 0

        # Constructors nest (the path construction calls path); count only
        # the outermost constructor span.
        group = {self._ids[c] for c in CONSTRUCTORS if c in self._ids}
        inside = [False] * n
        construct_s = 0.0
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            inside[i] = p >= 0 and (inside[p] or self.name[p] in group)
            if nid in group and not inside[i]:
                construct_s += dur[i]

        out = {
            "graph.parse_graph6.calls": get("graph.parse_graph6", calls),
            "graph.parse_graph6.s": get("graph.parse_graph6", total),
            "graph.encode_graph6.s": get("graph.encode_graph6", total),
            "graph.construct.s": construct_s,
            "canon.canonical_key.calls": get("canon.canonical_key", calls),
            "canon.canonical_key.s": get("canon.canonical_key", total),
            "canon.cache_hit_ratio":
                self.cache_hits / max(1, self.cache_hits + self.cache_misses),
            "search.enumerate_graphs.s": get("search.enumerate_graphs", total),
            "search.scan_family.self_s": get("search.scan_family", self_s),
            "minors.verify_witness.s": get("minors.verify_witness", total),
            "minors.delta_y_closure.s": get("minors.delta_y_closure", total),
            "cdv.classify_mu.calls": get("cdv.classify_mu", calls),
            "cdv.classify_mu.s": get("cdv.classify_mu", total),
            "spectral.spectral_radius.calls": get("spectral.spectral_radius", calls),
            "spectral.spectral_radius.s": get("spectral.spectral_radius", total),
            "spectral.spectral_radius.iterations": 0,
            "search.family_filter.member.calls": 0,
            "search.family_filter.nonmember.calls": 0,
            "trace.overhead_s": overhead_s,
        }
        for h in H_LABELS:
            for answer in ("yes", "no"):
                out[f"minors.has_minor.{h}.{answer}.calls"] = 0
                out[f"minors.has_minor.{h}.{answer}.s"] = 0.0
        for k in range(1, 6):
            out[f"cdv.classify_mu.class{k}.calls"] = 0
        for c in CLI_COMMANDS:
            out[f"cli.{c}.s"] = get(COMMAND_SPAN + c, total)
        for i, tag in self.tags.items():
            name = self.names[self.name[i]]
            if name == "minors.has_minor":
                label, yes = tag
                if label in H_LABELS:
                    key = f"minors.has_minor.{label}.{'yes' if yes else 'no'}"
                    out[key + ".calls"] += 1
                    out[key + ".s"] += dur[i]
            elif name == "search.family_filter":
                out[f"search.family_filter.{'member' if tag else 'nonmember'}.calls"] += 1
            elif name == "cdv.classify_mu":
                out[f"cdv.classify_mu.class{tag}.calls"] += 1
            elif name == "spectral.spectral_radius":
                out["spectral.spectral_radius.iterations"] += tag
        return out
