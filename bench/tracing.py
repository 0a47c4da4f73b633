"""Per-layer spans and counts, recorded from outside the program.

``Tracer.installed()`` replaces each probed tclq function with a timing
wrapper at every place it is bound: its defining module, every tclq
module that imported it by name (``solver_pmc``, ``solver_dp`` and
``cli`` all import ``lawler_table``), and the package namespace.  On
exit the originals are put back.  A probed function that no longer
exists is skipped, so its metrics read zero instead of failing the run.

A layer's time is self time: each span's duration minus the durations
of the spans it encloses.  Time inside the operation that no span
covers is ``cli.other_s``, so the layer times plus ``cli.other_s`` add
up to the traced operation time exactly.
"""

import contextlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Optional


def _count_lawler(c, args, kwargs, result):
    c["cover.tables"] += 1
    c["cover.table_entries"] += len(result.values)


def _count_vcc(c, args, kwargs, result):
    c["cover.vcc_calls"] += 1


def _count_ie(c, args, kwargs, result):
    c["cover.ie_partition_calls"] += 1


def _count_is_pmc(c, args, kwargs, result):
    c["graph.is_pmc_calls"] += 1
    c["graph.pmc_hits"] += bool(result)


def _count_minseps(c, args, kwargs, result):
    c["graph.minseps"] += len(result)


def _count_catalog(c, args, kwargs, result):
    c["solver_pmc.pmcs"] += len(result[0].pmcs)


def _count_decide(c, args, kwargs, result):
    c["solver_dp.decide_calls"] += 1
    entries = args[3] if len(args) > 3 else kwargs.get("entries")
    c["solver_dp.block_entries"] += len(entries or ())


def _give_entries(fn, args, kwargs):
    """Pass an entries dict, so the block entries can be counted."""
    if "entries" in inspect.signature(fn).parameters and len(args) <= 3 \
            and kwargs.get("entries") is None:
        kwargs = dict(kwargs, entries={})
    return args, kwargs


def _count_sanitize(c, args, kwargs, result):
    c["decomposition.witness_nodes"] += result.num_nodes


def _count_scanlines(c, args, kwargs, result):
    c["permutation.scanline_nodes"] += len(result.nodes)


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str  # a function, or Class.method
    layer: str  # the time metric is layer + "_s"
    count: Optional[Callable] = None  # (counts, args, kwargs, result), outermost calls only
    prepare: Optional[Callable] = None  # (fn, args, kwargs) -> (args, kwargs)


PROBES = (
    Probe("tclq.cover", "lawler_table", "cover.lawler", _count_lawler),
    Probe("tclq.cover", "CoverTable.partition", "cover.partition"),
    Probe("tclq.cover", "vcc", "cover.vcc", _count_vcc),
    Probe("tclq.cover", "ie_chromatic_with_construction", "cover.ie"),
    Probe("tclq.cover", "ie_count_partitions", "cover.ie", _count_ie),
    Probe("tclq.graph", "is_pmc", "graph.is_pmc", _count_is_pmc),
    Probe("tclq.graph", "enumerate_minimal_separators", "graph.minsep", _count_minseps),
    Probe("tclq.solver_pmc", "build_catalog", "solver_pmc.catalog", _count_catalog),
    Probe("tclq.solver_pmc", "tcl_via_pmc", "solver_pmc.dp"),
    Probe("tclq.solver_dp", "decide_tcl_at_most_k", "solver_dp.decide", _count_decide,
          _give_entries),
    Probe("tclq.decomposition", "sanitize", "decomposition.sanitize", _count_sanitize),
    Probe("tclq.decomposition", "validate", "decomposition.validate"),
    Probe("tclq.permutation", "decide_tcl_at_most_k", "permutation.decide"),
    Probe("tclq.permutation", "build_scanline_graph", "permutation.scanline",
          _count_scanlines),
    Probe("tclq.cograph", "parse_and_binarize", "cograph.parse"),
    Probe("tclq.cograph", "compute_tcl", "cograph.fold"),
    Probe("tclq.cograph", "compute_ecc", "cograph.fold"),
    Probe("tclq.io", "parse_graph", "io.parse"),
    Probe("tclq.io", "parse_permutation", "io.parse"),
    Probe("tclq.io", "parse_decomposition", "io.parse"),
    Probe("tclq.io", "serialize_decomposition", "io.serialize"),
)

TIME_LAYERS = tuple(dict.fromkeys(p.layer for p in PROBES))
COUNTS = ("cover.table_entries", "cover.tables", "cover.vcc_calls",
          "cover.ie_partition_calls", "graph.is_pmc_calls", "graph.minseps",
          "solver_pmc.pmcs", "solver_dp.decide_calls", "solver_dp.block_entries",
          "decomposition.witness_nodes", "permutation.scanline_nodes")


class Tracer:
    """Self times and counts of one traced region."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.covered_s = 0.0  # summed duration of the outermost spans
        self._stack = []  # [start, child seconds] per open span
        self._active: Dict[int, int] = defaultdict(int)

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        tracer, key = self, id(probe)

        def wrapper(*args, **kwargs):
            if probe.prepare is not None:
                args, kwargs = probe.prepare(fn, args, kwargs)
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            tracer._active[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                tracer._active[key] -= 1
                tracer._stack.pop()
                tracer.self_s[probe.layer] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                else:
                    tracer.covered_s += dur
            if probe.count is not None and not tracer._active[key]:
                probe.count(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every probed function; restore on exit."""
        undo = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tclq" or name.startswith("tclq."))]
        try:
            for probe in PROBES:
                owner = sys.modules.get(probe.module)
                if owner is None:
                    continue
                cls_name, _, meth = probe.attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name, None)
                    fn = cls.__dict__.get(meth) if cls is not None else None
                    if fn is not None:
                        undo.append((cls, meth, fn))
                        setattr(cls, meth, self._wrap(fn, probe))
                    continue
                fn = getattr(owner, probe.attr, None)
                if fn is None:
                    continue
                wrapped = self._wrap(fn, probe)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            undo.append((m, name, fn))
                            setattr(m, name, wrapped)
            yield self
        finally:
            for target, name, fn in reversed(undo):
                setattr(target, name, fn)
