"""Directed-graph model and the deterministic synchronous message fabric.

The fabric simulates a lockstep network: a message sent in round m is
delivered in round m+1, deliveries within a round are ordered by sender id,
and sends along non-edges are rejected.  Each send is checked in O(1) against
its sender's out-neighbour set, built once per digraph, so a round costs O(1)
per node and per message: O(E) for a broadcast.  The consensus counter ladder,
leader election and token passes run on it; the linear ratio iterate is one
product per round instead (``ftcc.consensus``).  Every run is bit-for-bit
reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .exceptions import InvalidInputError, ProtocolViolationError
from .linalg import as_matrix


@dataclass(frozen=True)
class Digraph:
    """A directed graph on nodes 0..N-1 with no self-loops, equal by its edges.

    ``edges`` may be given as (tail, head) pairs or as an (E, 2) array; it is
    stored as sorted pairs of Python ints.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    _out: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.node_count
        if n < 1:
            raise InvalidInputError("digraph needs at least one node")
        try:
            ends = np.array(self.edges)
        except ValueError:   # ragged pairs
            ends = None
        if ends is None or (ends.shape != (0,) and ends.shape[1:] != (2,)):
            raise InvalidInputError("edges must be (tail, head) pairs")
        ends = ends.reshape(-1, 2)
        ends = ends[np.lexsort(ends.T[::-1])]
        tails, heads = ends.T
        # an edge's faults in the order they are reported; the first faulty edge raises
        out_of_range = (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n)
        loop = tails == heads
        repeat = np.zeros(len(tails), dtype=bool)
        repeat[1:] = (tails[1:] == tails[:-1]) & (heads[1:] == heads[:-1])
        faulty = out_of_range | loop | repeat
        if faulty.any():
            k = int(np.argmax(faulty))
            a, b = ends[k].tolist()
            if out_of_range[k]:
                raise InvalidInputError(f"edge ({a}, {b}) out of range")
            if loop[k]:
                raise InvalidInputError(f"self-loop ({a}, {b}) not allowed")
            raise InvalidInputError(f"duplicate edge ({a}, {b})")
        if ends.size and ends.dtype.kind not in "biu":
            raise InvalidInputError(f"edges must be pairs of integer node ids, got {ends.dtype}")
        tails, heads = tails.astype(np.intp), heads.astype(np.intp).tolist()
        starts = np.searchsorted(tails, range(n + 1)).tolist()   # the out-lists' row splits
        object.__setattr__(self, "edges", tuple(zip(tails.tolist(), heads)))
        object.__setattr__(
            self, "_out", tuple(tuple(heads[s:e]) for s, e in zip(starts, starts[1:]))
        )

    def out_neighbors(self, j: int) -> tuple[int, ...]:
        """Out-neighbours of node j in ascending order."""
        return self._out[j]

    @cached_property
    def out_sets(self) -> tuple[frozenset[int], ...]:
        """Each node's out-neighbours as a set, for O(1) edge checks."""
        return tuple(map(frozenset, self._out))

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only (N, N) booleans, True at [a, b] for each edge a -> b."""
        ends = np.fromiter(itertools.chain.from_iterable(self.edges), np.intp, 2 * len(self.edges))
        adj = np.zeros((self.node_count,) * 2, dtype=bool)
        adj[ends[0::2], ends[1::2]] = True
        adj.flags.writeable = False
        return adj


def digraph_from_weight_matrix(p) -> Digraph:
    """Recover the digraph from the support of a weight matrix.

    An off-diagonal entry p[l, j] > 0 encodes the directed edge j -> l.
    """
    m = as_matrix(p, "weight matrix")
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError("weight matrix must be square")
    return Digraph(m.shape[0], np.argwhere((m.T > 0) & ~np.eye(len(m), dtype=bool)))


def out_weight_matrix(g: Digraph) -> np.ndarray:
    """Column-stochastic weights: p[l, j] = 1/(1 + outdeg(j)) on out(j) and self."""
    support = g.adjacency.T | np.eye(g.node_count, dtype=bool)
    return support / support.sum(axis=0)


def is_strongly_connected(g: Digraph) -> bool:
    """True iff node 0 reaches every node and every node reaches node 0.

    ``reach`` marks the pairs joined by a path of at most 2^k hops, and one
    product squares it, so about log2(diameter) products decide.
    """
    reach = g.adjacency | np.eye(g.node_count, dtype=bool)
    while not (reach[0].all() and reach[:, 0].all()):
        hops = reach.astype(np.float32)   # counts up to N: exact
        longer = hops @ hops > 0
        if np.array_equal(longer, reach):
            return False
        reach = longer
    return True


def bfs_distances(g: Digraph, source: int) -> list[int]:
    """Directed hop distances from source; unreachable nodes get -1."""
    dist = [-1] * g.node_count
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.out_neighbors(u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def diameter(g: Digraph) -> int:
    """Exact directed diameter (max over all pairs of shortest-path length)."""
    best = 0
    for s in range(g.node_count):
        d = bfs_distances(g, s)
        if any(v < 0 for v in d):
            raise InvalidInputError("diameter undefined: graph not strongly connected")
        best = max(best, max(d))
    return best


@dataclass
class SyncFabric:
    """Round and message counters of the synchronous network on one digraph."""

    graph: Digraph
    round_index: int = 0
    sent_count: int = 0
    delivered_count: int = 0


def round_exchange(
    fabric: SyncFabric,
    send: Callable[[int], Iterable[tuple[int, object]]],
    receive: Callable[[int, list[tuple[int, object]]], None],
) -> None:
    """Advance one synchronous round.

    ``send(j)`` yields (destination, payload) pairs for node j; every message
    is delivered exactly once via ``receive(j, inbox)`` in the next round.
    Senders are asked in ascending id order, so each inbox is ordered by
    sender id and, within one sender, by send order.
    """
    out_sets = fabric.graph.out_sets
    inboxes: list[list[tuple[int, object]]] = [[] for _ in out_sets]
    for j, outs in enumerate(out_sets):
        for dst, payload in send(j) or ():
            try:
                legal = dst in outs
            except TypeError:   # unhashable, so no node id
                legal = False
            if not legal:
                raise ProtocolViolationError(
                    f"node {j} attempted to send to non-neighbor {dst}"
                )
            inboxes[dst].append((j, payload))
    fabric.sent_count += sum(map(len, inboxes))
    fabric.round_index += 1
    for j, inbox in enumerate(inboxes):
        fabric.delivered_count += len(inbox)
        receive(j, inbox)
