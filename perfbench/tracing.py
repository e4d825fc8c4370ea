"""Spans around calls into holant's layers, recorded from outside.

install() replaces module attributes where callers look names up (for
example holant.spans.enumerate_gadgets) with wrappers that open a span
per call, or per next() for generators.  Spans stay in memory with a
link to the span that was open when they started; self time is a span's
duration minus its children's.  No holant source is changed.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from holant import homgraphs, simsim, spans, transforms

# boundary name -> (is a generator, [(owner, attribute), ...])
BOUNDARIES = {
    "grids.enumerate": (True, [
        (transforms, "enumerate_grids"),
        (spans, "enumerate_grids"),
        (spans, "enumerate_gadgets"),
    ]),
    "grids.contract": (False, [
        (transforms, "holant_eval_contracted"),
        (spans, "holant_eval_contracted"),
        (spans, "gadget_signature"),
        (homgraphs, "holant_eval_contracted"),
    ]),
    "transforms.act": (False, [(transforms.HoloTransform, "act")]),
    "transforms.verify": (False, [(transforms, "verify_holant_theorem")]),
    "spans.basis": (False, [(spans, "build_span")]),
    "spans.gram": (False, [(spans, "gram_nondegenerate")]),
    "spans.covanishing": (False, [(spans, "check_covanishing")]),
    "simsim.trace_words": (False, [(simsim, "trace_words_equal")]),
    "simsim.closure": (False, [(simsim, "algebra_closure")]),
    "simsim.nonvanishing": (False, [(simsim, "is_11_nonvanishing")]),
    "simsim.paired": (False, [(simsim, "build_paired_algebra")]),
    "simsim.recover": (False, [(simsim, "recover_transform")]),
    "homgraphs.canonical": (False, [(homgraphs, "canonical_code")]),
    "homgraphs.census": (False, [(homgraphs, "enumerate_connected_graphs")]),
    "homgraphs.hom": (False, [(homgraphs, "hom_count")]),
}

class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.contracted: set = set()
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def observe(self, name, args, result):
        if name == "grids.contract":
            self.contracted.add(args[0])  # grids carry q, so this keys (grid, q)
        elif name == "spans.basis":
            self.counts["span_dim"] += result.dim
            self.counts["span_gadgets"] += result.gadgets_enumerated
        elif name == "simsim.trace_words":
            self.counts["words"] += result.words_checked
        elif name == "homgraphs.census":
            self.counts["classes"] += len(result)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.observe(name, args, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.counts["structures"] += 1
                yield item

        return traced

    def install(self):
        for name, (generator, sites) in BOUNDARIES.items():
            for owner, attr in sites:
                fn = getattr(owner, attr)
                wrapped = self.wrap_generator(name, fn) if generator else self.wrap(name, fn)
                setattr(owner, attr, wrapped)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and span count per boundary name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        entered: dict[str, int] = defaultdict(int)
        for (name, _, start, end), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            entered[name] += 1
        return self_s, entered

    def layer_metrics(self, expected: set[str]) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of the traced pass, and the names of those gone missing.

        A metric is missing when one of its boundaries is in expected but
        was never entered; it is then left out rather than read as 0.  A
        boundary the workload does not enter by design reads 0, and so
        does a ratio over its zero calls.
        """
        self_s, entered = self.self_times()
        calls = entered["grids.contract"]
        canonical = entered["homgraphs.canonical"]
        gadgets = self.counts["span_gadgets"]
        rows = [  # (metric, the boundaries it is computed from, value)
            ("grids.enumerate.self_s", ("grids.enumerate",), self_s["grids.enumerate"]),
            ("grids.enumerate.structures", ("grids.enumerate",), self.counts["structures"]),
            ("grids.contract.self_s", ("grids.contract",), self_s["grids.contract"]),
            ("grids.contract.calls", ("grids.contract",), calls),
            ("grids.contract.us_per_call", ("grids.contract",),
             1e6 * self_s["grids.contract"] / calls if calls else 0.0),
            ("grids.contract.distinct_frac", ("grids.contract",),
             len(self.contracted) / calls if calls else 0.0),
            ("transforms.self_s", ("transforms.act", "transforms.verify"),
             self_s["transforms.act"] + self_s["transforms.verify"]),
            ("spans.basis.self_s", ("spans.basis",), self_s["spans.basis"]),
            ("spans.gram.self_s", ("spans.gram",), self_s["spans.gram"]),
            ("spans.covanishing.self_s", ("spans.covanishing",), self_s["spans.covanishing"]),
            ("spans.span_yield", ("spans.basis",),
             self.counts["span_dim"] / gadgets if gadgets else 0.0),
            ("simsim.trace_words.self_s", ("simsim.trace_words",), self_s["simsim.trace_words"]),
            ("simsim.trace_words.words", ("simsim.trace_words",), self.counts["words"]),
            ("simsim.closure.self_s", ("simsim.closure",), self_s["simsim.closure"]),
            ("simsim.closure.calls", ("simsim.closure",), entered["simsim.closure"]),
            ("simsim.nonvanishing.self_s", ("simsim.nonvanishing",), self_s["simsim.nonvanishing"]),
            ("simsim.paired.self_s", ("simsim.paired",), self_s["simsim.paired"]),
            ("simsim.recover.self_s", ("simsim.recover",), self_s["simsim.recover"]),
            ("homgraphs.canonical.self_s", ("homgraphs.canonical",), self_s["homgraphs.canonical"]),
            ("homgraphs.canonical.calls", ("homgraphs.canonical",), canonical),
            ("homgraphs.census.self_s", ("homgraphs.census",), self_s["homgraphs.census"]),
            ("homgraphs.census.dedup_frac", ("homgraphs.census", "homgraphs.canonical"),
             self.counts["classes"] / canonical if canonical else 0.0),
            ("homgraphs.hom.self_s", ("homgraphs.hom",), self_s["homgraphs.hom"]),
        ]
        lost = {name for name in expected if entered[name] == 0}
        metrics = {m: value for m, needs, value in rows if not lost.intersection(needs)}
        missing = [m for m, needs, _ in rows if lost.intersection(needs)]
        metrics["layer_self_s"] = sum(self_s.values())
        return metrics, missing

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for idx, (name, parent, start, end) in enumerate(self.spans):
                out.write(json.dumps([idx, parent, name, start, end]) + "\n")
