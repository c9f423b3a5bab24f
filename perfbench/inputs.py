"""Seeded inputs: the graph, the held-out edge stream, the query pairs.

Everything here is a pure function of the seed and the scale, so the
same seed gives the same inputs on any commit.  The program only ever
sees the files and requests generated from these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is what the benchmark reports on."""

    vertices: int
    held_out: int  # late edges replayed by update-mixed
    update_batch: int  # edges per insert_edges batch
    update_queries: int  # fixed query set re-run after each batch
    small_rate: float  # serve-small open-loop rate (req/s)
    bulk_pairs: int  # pairs per serve-bulk request
    check_pairs: int  # sampled pairs for BFS answer checks
    suite_graphs: int  # graphs every workload runs over


FULL = Scale(
    vertices=10_000,
    held_out=2_000,
    update_batch=200,
    update_queries=20_000,
    small_rate=150.0,
    bulk_pairs=2048,
    check_pairs=200,
    suite_graphs=3,
)

TINY = Scale(
    vertices=400,
    held_out=60,
    update_batch=20,
    update_queries=500,
    small_rate=200.0,
    bulk_pairs=64,
    check_pairs=40,
    suite_graphs=2,
)

SCALES = {"full": FULL, "tiny": TINY}

#: Barabási–Albert attachment edges per new vertex.
BA_M = 2


@dataclass
class GraphInput:
    n: int
    base_edges: list  # (u, v), u < v, generation order
    held_edges: list  # (u, v), replay order


def make_graph(seed: int, scale: Scale) -> GraphInput:
    """A BA graph minus the late edges that update-mixed replays.

    Every vertex from ``n - held_out`` on arrived with ``BA_M`` edges;
    its last one is held out, so the base graph keeps every vertex
    connected and the held-out stream is the tail of the generator's
    growth.  Edges keep generation order, which also makes the edge
    list's first-seen vertex numbering the identity.
    """
    from repro.graphs.generators import ba_graph

    n = scale.vertices
    graph = ba_graph(n, m=BA_M, seed=seed)
    ordered = sorted((max(u, v), min(u, v)) for u, v, _ in graph.edges())
    base, held = [], []
    seen_hi = {}
    for hi, lo in ordered:
        k = seen_hi.get(hi, 0)
        seen_hi[hi] = k + 1
        if hi >= n - scale.held_out and k == BA_M - 1:
            held.append((lo, hi))
        else:
            base.append((lo, hi))
    return GraphInput(n=n, base_edges=base, held_edges=held)


def suite_seeds(seed: int, count: int) -> list:
    """Graph seeds of the suite; the first is the run's own seed."""
    return [seed + 1_000_000 * i for i in range(count)]


def write_edge_list(edges, path: Path) -> None:
    with open(path, "w") as handle:
        handle.write("# perfbench BA graph, generation order\n")
        handle.writelines(f"{u} {v}\n" for u, v in edges)


def uniform_pairs(rng: random.Random, n: int, count: int) -> list:
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def small_request_sizes(rng: random.Random, count: int) -> list:
    """Interactive mix: half single-pair lookups, half sets of 1-32 pairs."""
    return [1 if rng.random() < 0.5 else rng.randint(1, 32) for _ in range(count)]
