"""Consumer communication topology, doubly stochastic mixing weights, and the
asynchronous gossip event stream.

Nodes are 0-based in memory; the edge-list file format is 1-based
(one "n k" pair per line), matching the other on-disk formats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np


class GossipEvent(NamedTuple):
    """One tick of the virtual gossip clock: `initiator` contacts `contact`."""

    t: int
    initiator: int
    contact: int


@dataclass(frozen=True)
class CommGraph:
    """Undirected, connected consumer graph; construction rejects self-loops,
    out-of-range nodes, and disconnected edge sets.

    `cols` and `starts` are the graph's slot table, built once: row i's
    slots are `cols[starts[i]:starts[i + 1]]` (the last row runs to the
    end), node i itself and then its neighbours in ascending order, N + 2|E|
    slots in all. Mixing weights live on these slots; only this module reads
    the table's layout.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    _neighbors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    cols: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("graph needs at least two nodes")
        edges = set()
        for n, k in self.edges:
            if n == k:
                raise ValueError(f"self-loop on node {n} not allowed")
            edges.add((min(n, k), max(n, k)))
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for n, k in edges:
            if not (0 <= n and k < self.n):
                raise ValueError(f"edge ({n}, {k}) outside node range 0..{self.n - 1}")
            adj[n].append(k)
            adj[k].append(n)
        neighbors = tuple(tuple(sorted(lst)) for lst in adj)
        # breadth-first from node 0; the queue grows while it is read
        seen = {0}
        queue = [0]
        for node in queue:
            for other in neighbors[node]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        if len(seen) < self.n:
            raise ValueError("graph is not connected")
        sizes = np.array([1 + len(nbrs) for nbrs in neighbors])
        starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
        cols = np.fromiter(
            (k for i, nbrs in enumerate(neighbors) for k in (i, *nbrs)),
            dtype=np.intp,
            count=int(sizes.sum()),
        )
        object.__setattr__(self, "edges", frozenset(edges))
        object.__setattr__(self, "_neighbors", neighbors)
        for name, arr in (("starts", starts), ("cols", cols)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._neighbors[node]


def build_weights(graph: CommGraph, tau: float) -> np.ndarray:
    """Doubly stochastic mixing weights, one per slot of `graph`'s table:
    tau / max-degree on each neighbour slot, the complementary mass on each
    node's own slot."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau={tau:g} must lie strictly in (0, 1)")
    degrees = np.diff(graph.starts, append=graph.cols.size) - 1
    off = tau / degrees.max()
    w = np.full(graph.cols.size, off)
    w[graph.starts] = 1.0 - degrees * off
    return w


def check_weights(graph: CommGraph, weights) -> np.ndarray:
    """The weights as one float per slot of `graph`'s table, refused unless
    they are finite, nonnegative and doubly stochastic within 1e-12."""
    w = np.asarray(weights, dtype=float)
    if w.shape != graph.cols.shape:
        raise ValueError(
            f"weights must hold one value per graph slot, N + 2|E| = "
            f"{graph.cols.size}; got shape {w.shape}"
        )
    if not np.isfinite(w).all():
        raise ValueError("weights contain non-finite entries")
    tol = 1e-12
    if w.min() < -tol:
        raise ValueError(f"weights have a negative entry below -{tol:g}")
    rows = np.add.reduceat(w, graph.starts)
    columns = np.bincount(graph.cols, weights=w, minlength=graph.n)
    if max(np.max(np.abs(rows - 1.0)), np.max(np.abs(columns - 1.0))) > tol:
        raise ValueError(f"weights are not doubly stochastic within {tol:g}")
    return w


def mix(graph: CommGraph, weights: np.ndarray, values: np.ndarray, buf: np.ndarray):
    """Mix the rows of the (N, H) `values`: row i of the result is the sum
    over row i's slots s of `weights[s] * values[cols[s]]`, added in slot
    order. `buf` is (N + 2|E|, H) scratch space. Elementwise products and
    in-order sums only, so the bits do not depend on the BLAS build or the
    CPU dispatch."""
    # cols is in range by construction; with out=, mode="raise" would copy
    # through a temporary first
    values.take(graph.cols, axis=0, out=buf, mode="clip")
    buf *= weights[:, None]
    return np.add.reduceat(buf, graph.starts, axis=0)


def gossip_stream(
    graph: CommGraph, rng: np.random.Generator, count: int
) -> Iterator[GossipEvent]:
    """Yield `count` gossip events under the single-virtual-clock model:
    initiators i.i.d. uniform over nodes, contacts uniform over neighbors."""
    if count < 1:
        raise ValueError("count must be at least 1")
    for t in range(1, count + 1):
        initiator = int(rng.integers(graph.n))
        nbrs = graph.neighbors(initiator)
        contact = int(nbrs[rng.integers(len(nbrs))])
        yield GossipEvent(t, initiator, contact)


def generate_topology(
    n: int, target_degree: float, rng: np.random.Generator
) -> CommGraph:
    """Random connected graph: a uniform random attachment tree for
    connectivity, then extra random edges until the mean degree reaches
    `target_degree` (or the graph completes)."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 0 < target_degree < np.inf:
        raise ValueError(
            f"target degree must be positive and finite, got {target_degree}"
        )
    order = rng.permutation(n).tolist()
    edges = set()
    for idx in range(1, n):
        attach = order[int(rng.integers(idx))]
        node = order[idx]
        edges.add((min(node, attach), max(node, attach)))
    # non-edges as positions in the lexicographic (a < b) pair order; row a
    # starts at row_start[a]. Shuffling this index array draws exactly what
    # shuffling the list of pair tuples would, and leaves rng in the same state.
    row_start = np.arange(n) * (2 * n - np.arange(n) - 1) // 2
    is_free = np.ones(n * (n - 1) // 2, dtype=bool)
    a, b = np.array(list(edges)).T
    is_free[row_start[a] + (b - a - 1)] = False
    non_edges = np.flatnonzero(is_free)
    rng.shuffle(non_edges)
    extra = 0
    while extra < non_edges.size and 2.0 * (len(edges) + extra) / n < target_degree:
        extra += 1
    picked = non_edges[non_edges.size - extra:]
    rows = np.searchsorted(row_start, picked, side="right") - 1
    cols = picked - row_start[rows] + rows + 1
    edges.update(zip(rows.tolist(), cols.tolist()))
    return CommGraph(n, frozenset(edges))


def save_edge_list(graph: CommGraph, path) -> None:
    """Write the 1-based "n k" edge-list text format."""
    lines = [f"{n + 1} {k + 1}" for n, k in sorted(graph.edges)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edge_list(path, n_nodes: int) -> CommGraph:
    """Read a 1-based edge-list file of a graph on `n_nodes` nodes."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two node ids, got {line!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer node id in {line!r}") from exc
            if a < 1 or b < 1:
                raise ValueError(f"{path}:{lineno}: node ids are 1-based, got {line!r}")
            if a == b:
                raise ValueError(f"{path}:{lineno}: self-loop on node {parts[0]}")
            for typed, node in zip(parts, (a, b)):
                if node > n_nodes:
                    raise ValueError(f"{path}:{lineno}: node id {typed} outside 1..{n_nodes}")
            edges.append((a - 1, b - 1))
    if not edges:
        raise ValueError(f"{path}: no edges found")
    try:
        return CommGraph(n_nodes, frozenset(edges))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
