"""One pass of one workload, in a fresh interpreter.

Usage: worker.py WORKLOAD SEED TRACE SPANS_PATH

Builds the inputs and oracle references, times each query between
samples of a fixed reference kernel, checks the answers afterwards and
prints one JSON object.  With TRACE=1 the layer
wrappers are installed after the inputs are built and the spans are
written to SPANS_PATH.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from collections import defaultdict


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


# samples of the reference kernel at each of REFERENCE_POINTS + 1 evenly
# spaced points of a pass, from before the first query to after the last
REFERENCE_SAMPLES = 2
REFERENCE_POINTS = 8


def reference_s() -> float:
    """Time of a fixed kernel that runs no holant code.

    It mixes the two kinds of work the workloads spend their time on,
    Python dict and tuple handling and small complex tensor products, so
    a slow spell of the host slows it about as much as it slows a query.
    """
    import numpy as np

    a = np.arange(27, dtype=complex).reshape(3, 3, 3)
    b = np.arange(9, dtype=complex).reshape(3, 3)
    start = time.perf_counter()
    seen: dict[tuple, int] = {}
    for i in range(20000):
        key = (i % 97, i % 89, i & 7)
        seen[key] = seen.get(key, 0) + len(sorted(key))
    for _ in range(1500):
        np.tensordot(a, b, axes=([2], [0])).sum()
    return time.perf_counter() - start


def limit_known_defects(queries, failures) -> None:
    """Unmark a known defect that fails more often than its documented share."""
    carriers = defaultdict(list)  # defect name -> the queries that carry it
    for query in queries:
        if query.known_defect is not None:
            carriers[query.known_defect.name].append(query)
    for name, carrying in carriers.items():
        hits = [f for f in failures if f["known_defect"] == name]
        allowed = math.ceil(carrying[0].known_defect.max_share * len(carrying))
        if len(hits) > allowed:
            for failure in hits:
                failure["known_defect"] = None
                failure["reason"] += (
                    f" ({len(hits)} of {len(carrying)} such queries, at most {allowed} allowed)"
                )


def main(argv: list[str]) -> int:
    name, seed, trace, spans_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    import holant

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(holant.__file__).startswith(src + os.sep):
        print(f"holant was imported from {holant.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    queries = workloads.build(name, seed)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()

    points = {round(j * len(queries) / REFERENCE_POINTS) for j in range(REFERENCE_POINTS + 1)}
    reference, runs = [], []
    for i, query in enumerate(queries):
        if i in points:
            reference += [reference_s() for _ in range(REFERENCE_SAMPLES)]
        start = time.perf_counter()
        try:
            answer, error = query.run(), None
        except Exception as exc:  # a raising query is a failed query, not a crash
            answer, error = None, f"{type(exc).__name__}: {exc}"
        runs.append((start, time.perf_counter(), answer, error))
    reference += [reference_s() for _ in range(REFERENCE_SAMPLES)]
    wall_s = sum(end - start for start, end, _, _ in runs)

    failures = []
    for i, (query, (_, _, answer, error)) in enumerate(zip(queries, runs)):
        reason = error or query.check(answer)
        if reason is not None:
            defect = query.known_defect
            known = error is None and defect is not None and defect.matches(answer)
            failures.append({
                "index": i, "kind": query.kind, "reason": reason,
                "known_defect": defect.name if known else None,
            })
    limit_known_defects(queries, failures)
    out = {
        "wall_s": wall_s,
        "query_s": [end - start for start, end, _, _ in runs],
        "attempted": len(queries),
        "failures": failures,
        "reference_s": reference,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": versions(),
    }
    if tracer is not None:
        out["layers"], out["missing"] = tracer.layer_metrics(workloads.EXPECTED_BOUNDARIES[name])
        tracer.write_spans(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
