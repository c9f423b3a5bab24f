"""One index build in a fresh process: edge list -> v3 index file.

Usage: ``python3 perfbench/build_child.py EDGES OUT [--trace]``

Reads the edge list with ``read_edge_list``, builds with
``HopDoublingIndex.build`` (hybrid strategy, array engine), saves with
``save(format="v3")``, and prints one JSON line: the clock reading once
the graph is in memory, the read and build times, file size, label
entries, peak RSS and the per-round counters.
With ``--trace`` the layer wrappers are installed first and the spans
are included.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from common import require_program


def main(argv: list[str]) -> int:
    edges, out = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    require_program()
    import repro.graphs.io as gio
    from repro import HopDoublingIndex

    tracer = None
    if traced:
        from tracing import Tracer, install, wrapper_cost_s

        tracer = Tracer()
        install(tracer, {"graphs", "build", "store"})

    t0 = time.perf_counter()
    graph = gio.read_edge_list(edges, directed=False)
    t1 = time.perf_counter()
    index = HopDoublingIndex.build(graph, strategy="hybrid", engine="array")
    index.save(out, format="v3")
    t2 = time.perf_counter()

    result = {
        # perf_counter reads the system-wide monotonic clock on Linux, so
        # the parent can time from its spawn call to the graph in memory.
        "t_graph": t1,
        "read_s": t1 - t0,
        "build_s": t2 - t1,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "index_bytes": os.path.getsize(out),
        "label_entries": index.stats().total_entries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iterations": [
            {
                "iteration": it.iteration,
                "mode": it.mode,
                "raw": it.raw_generated,
                "candidates": it.distinct_generated,
                "admitted": it.admitted,
                "pruned": it.pruned,
                "survived": it.survived,
            }
            for it in index.build_result.iterations
        ],
    }
    if tracer is not None:
        result["spans"] = tracer.collect()
        result["wrapper_cost_s"] = wrapper_cost_s()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
