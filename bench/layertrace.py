"""Per-layer tracing from outside the library.

``Tracer.install`` replaces public functions of the layer modules with
wrappers that record one span per call: name, start, end, parent span
and case id.  Modules call each other, and themselves, through module
globals, so a wrapper installed as a module attribute sees every call,
recursive ones included.  Spans live in flat arrays while the run lasts
and are written out when it ends; self time is computed from them
afterwards.  Nothing is installed unless the run is traced.
"""

from __future__ import annotations

import gc
import gzip
import time
from array import array
from contextlib import contextmanager

from slat import conlat, corpus, expr, freedist, freepairs, pairs

# (module, function, extra statistics); every layer also gets calls and self_s.
LAYERS = (
    (pairs, "join", ()),
    (pairs, "leq", ()),
    (freedist, "join", ("hit_ratio", "entries", "swapped_misses")),
    (freedist, "leq", ("hit_ratio", "entries")),
    (freedist, "step1", ("fired",)),
    (freedist, "phi", ()),
    (freedist, "step2", ("fired",)),
    (freedist, "psi", ()),
    (freedist, "join_with_order", ()),
    (freedist, "validate", ("hit_ratio",)),
    (freedist, "serialize", ("hit_ratio",)),
    (freedist, "rank", ("hit_ratio",)),
    (freedist, "make_node", ()),
    (freedist, "bowtie", ()),
    (freedist, "map_elem", ()),
    (expr, "serialize", ()),
    (expr, "deserialize", ()),
    (freepairs, "support", ()),
    (freepairs, "check_evaporation", ()),
    (freepairs, "check_cancellation", ()),
    (freepairs, "all_rank1", ()),
    (freepairs, "evaporation_side_universe", ()),
    (conlat, "check_congruence_compatible", ()),
    (conlat, "is_compatible", ()),
    (conlat, "erosion", ()),
    (conlat, "conc_sub", ("hit_ratio",)),
    (conlat, "part_meet", ("hit_ratio",)),
    (conlat, "part_join", ("hit_ratio", "entries")),
    (conlat, "theta", ("hit_ratio", "entries", "redundant_misses")),
    (conlat, "all_congruences", ()),
    (conlat, "conc", ()),
    (corpus, "product", ()),
    (corpus, "lattice_from_covers", ()),
)

# Memo tables summed into <module>.cache_entries.
CACHE_GROUPS = {
    "freedist": (freedist, ("rank", "serialize", "leq", "join", "validate")),
    "conlat": (conlat, ("theta", "part_join", "part_meet", "all_congruences", "conc_sub")),
}

UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "entries": ("count", "lower"),
    "swapped_misses": ("count", "lower"),
    "redundant_misses": ("count", "lower"),
    "fired": ("count", "lower"),
}

# Memo tables whose misses are checked against the swapped argument pair
# (f(a, y, x) already cached when f(a, x, y) misses).
SWAP_COUNTERS = {"freedist.join": "swapped_misses", "conlat.theta": "redundant_misses"}


def layer_name(module, fn):
    return f"{module.__name__.rsplit('.', 1)[-1]}.{fn}"


def metric_names():
    """Every per-layer metric name with its unit and direction, in order."""
    out = []
    for module, fn, extra in LAYERS:
        for stat in ("calls", "self_s") + extra:
            out.append((f"{layer_name(module, fn)}.{stat}",) + UNITS[stat])
    out += [
        ("freedist.cache_entries", "count", "lower"),
        ("conlat.cache_entries", "count", "lower"),
        ("import.slat_s", "s", "lower"),
        ("runtime.gc.collections", "count", "lower"),
        ("runtime.gc.pause_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


def memo_table(fn):
    """The lru_cache behind fn, looking through a tracing wrapper."""
    for candidate in (fn, getattr(fn, "__wrapped__", None)):
        if hasattr(candidate, "cache_info"):
            return candidate
    return None


def cache_snapshot():
    """cache_info() of every memo table, keyed by layer name."""
    out = {}
    for module in (freedist, conlat):
        for attr, fn in vars(module).items():
            table = memo_table(fn)
            if table is not None:
                out[layer_name(module, attr)] = table.cache_info()
    return out


class GcWatch:
    """Counts collector runs and their pauses through gc.callbacks."""

    def __init__(self):
        self.collections = 0
        self.pause_s = 0.0
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.case = -1
        self.stack = []
        self.counts = {}
        self.originals = []

    @contextmanager
    def span(self, name):
        """A span the benchmark itself opens (set-up, each case)."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_case.append(self.case)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, layer, fn, extra):
        name_id = self._name_id(layer)
        open_, close = self._open, self._close
        if "fired" in extra:
            counts = self.counts.setdefault(layer, {"fired": 0})

            def wrapper(*args):
                idx = open_(name_id)
                try:
                    out = fn(*args)
                finally:
                    close(idx)
                if out is not None:
                    counts["fired"] += 1
                return out

        elif layer in SWAP_COUNTERS:
            counts = self.counts.setdefault(layer, {SWAP_COUNTERS[layer]: 0})
            stat = SWAP_COUNTERS[layer]
            # A call misses the unbounded memo table exactly when it was
            # never returned from with the same arguments.
            seen = set()

            def wrapper(*args):
                if args not in seen and (args[0], args[2], args[1]) in seen:
                    counts[stat] += 1
                idx = open_(name_id)
                try:
                    out = fn(*args)
                finally:
                    close(idx)
                seen.add(args)
                return out

        else:

            def wrapper(*args, **kwargs):
                idx = open_(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module, fn, extra in LAYERS:
            orig = getattr(module, fn)
            self.originals.append((module, fn, orig))
            setattr(module, fn, self._wrap(layer_name(module, fn), orig, extra))

    def uninstall(self):
        for module, fn, orig in reversed(self.originals):
            setattr(module, fn, orig)
        self.originals.clear()

    def self_times(self):
        """Per name: (calls, self seconds), computed from the spans."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + dur[i] - child[i])
        return out

    def write(self, path):
        """Spans as gzip'd tab-separated lines: id name start end parent case."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_s\tend_s\tparent\tcase\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i] - t0:.9f}\t"
                    f"{self.span_end[i] - t0:.9f}\t{self.span_parent[i]}\t{self.span_case[i]}\n"
                )


def layer_metrics(tracer, before, after, import_s, gc_watch, overhead_ratio):
    """The per-layer metrics of a traced run, keyed by metric name."""
    self_times = tracer.self_times()
    out = {}
    for module, fn, extra in LAYERS:
        layer = layer_name(module, fn)
        calls, self_s = self_times.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        counts = tracer.counts.get(layer, {})
        for stat in extra:
            if stat == "hit_ratio":
                hits = after[layer].hits - before[layer].hits
                lookups = hits + after[layer].misses - before[layer].misses
                out[f"{layer}.hit_ratio"] = hits / lookups if lookups else 0.0
            elif stat == "entries":
                out[f"{layer}.entries"] = after[layer].currsize
            else:
                out[f"{layer}.{stat}"] = counts[stat]
    for group, (module, attrs) in CACHE_GROUPS.items():
        out[f"{group}.cache_entries"] = sum(
            after[layer_name(module, a)].currsize for a in attrs
        )
    out["import.slat_s"] = import_s
    out["runtime.gc.collections"] = gc_watch.collections
    out["runtime.gc.pause_s"] = gc_watch.pause_s
    out["trace.overhead_ratio"] = overhead_ratio
    return out
