from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter

import numpy as np
import pytest

# random_strongly_connected is re-exported so that the tests draw the same
# digraphs as acceptance criterion 6
from ftcc.acceptance import AcceptanceContext, random_strongly_connected  # noqa: F401
from ftcc.consensus import (
    DEFAULT_REL_TOL,
    agreement_maps,
    exact_average_fixed_rounds,
    finite_time_average,
    in_arithmetic,
)
from ftcc.exceptions import InvalidInputError
from ftcc.graph import Digraph, out_weight_matrix, round_exchange
from ftcc.plant import LtiSystem, joint_rank_checks
from ftcc.scenario import load_scenario


@pytest.fixture(scope="session")
def paper_scenario():
    return load_scenario("paper-4node")


@pytest.fixture(scope="session")
def paper_init(paper_scenario):
    from ftcc.runtime import initialize

    return initialize(paper_scenario)


@pytest.fixture(scope="session")
def acceptance_ctx():
    """The acceptance context (initialization plus three traces), built once."""
    return AcceptanceContext.build()


def complete_digraph(n: int) -> Digraph:
    """Every ordered pair of distinct nodes is an edge."""
    return Digraph(n, tuple((a, b) for a in range(n) for b in range(n) if a != b))


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


def message_max_round(fabric, values: list) -> list:
    """One max-consensus round sent message by message on the fabric: each node
    sends its value to its out-neighbours and keeps the largest of its own and
    those it received."""
    kept = [None] * len(values)

    def send(j):
        return zip(fabric.graph.out_neighbors(j), repeat(values[j]))

    def receive(j, inbox):
        kept[j] = max(chain((values[j],), map(itemgetter(1), inbox)))

    round_exchange(fabric, send, receive)
    return kept


def stored_kernels(g, weights=None):
    """Each node's Hankel kernel from a bootstrap run on the node ids."""
    ids = np.arange(g.node_count, dtype=float)
    return finite_time_average(g, ids, weights=weights).kernels


def agreement_for(g, rounds, kernels, dtype=float, weights=None):
    """The Agreement as the closed loop builds it: agreement_maps over P in ``dtype``."""
    p = out_weight_matrix(g) if weights is None else weights
    return agreement_maps(in_arithmetic(p, dtype), rounds, kernels, DEFAULT_REL_TOL)


def agree(g, values, rounds, kernels, weights=None):
    """One agreement, prepared for the values' arithmetic (ints count as float)."""
    dtype = np.result_type(np.asarray(values).dtype, float)
    return exact_average_fixed_rounds(agreement_for(g, rounds, kernels, dtype, weights), values)


def random_joint_system(rng, n_agents: int, n: int, unstable: bool = True) -> LtiSystem:
    """Random plant that is jointly controllable and observable.

    Draws until the Kalman checks pass; generic draws almost always do.
    """
    for _ in range(50):
        a = rng.normal(size=(n, n))
        if unstable:
            a *= 1.3 / max(1.0, np.max(np.abs(np.linalg.eigvals(a))))
        dims_in = rng.multinomial(n, np.ones(n_agents) / n_agents) + 1
        dims_out = rng.multinomial(n, np.ones(n_agents) / n_agents) + 1
        b_list = tuple(rng.normal(size=(n, int(q))) for q in dims_in)
        c_list = tuple(rng.normal(size=(int(p), n)) for p in dims_out)
        sys = LtiSystem(a=a, b_list=b_list, c_list=c_list)
        ctrl, obsv = joint_rank_checks(sys)
        if ctrl and obsv:
            return sys
    raise AssertionError("failed to draw a jointly controllable/observable system")


def targets_for_spectrum(rng, a: np.ndarray) -> list[complex]:
    """A conjugate-closed full target set matching the spectrum's kinds."""
    eigs = np.linalg.eigvals(a)
    out: list[complex] = []
    for lam in eigs:
        if lam.imag > 1e-9:
            t = complex(rng.uniform(-0.55, 0.55), rng.uniform(0.05, 0.55))
            out += [t, t.conjugate()]
        elif abs(lam.imag) <= 1e-9:
            out.append(complex(rng.uniform(-0.85, 0.85)))
    return out
