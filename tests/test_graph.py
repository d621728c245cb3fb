import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ftcc
from ftcc.exceptions import InvalidInputError, ProtocolViolationError
from ftcc.graph import (
    Digraph,
    SyncFabric,
    digraph_from_weight_matrix,
    is_strongly_connected,
    out_weight_matrix,
    round_exchange,
)

from conftest import bfs_distances, complete_digraph, random_strongly_connected

FOURNODE_P = np.array(
    [
        [1 / 3, 0, 1 / 4, 1 / 3],
        [1 / 3, 1 / 2, 1 / 4, 0],
        [0, 1 / 2, 1 / 4, 1 / 3],
        [1 / 3, 0, 1 / 4, 1 / 3],
    ]
)


class TestDigraph:
    @pytest.mark.parametrize(
        "edges, message",
        [
            (((0, 1), (0, 1), (5, 5)), "duplicate edge (0, 1)"),
            (((2, -1), (0, 0)), "self-loop (0, 0) not allowed"),
            (((1, 0), (0, 3), (0, 3), (0, 1)), "edge (0, 3) out of range"),
            (((1, 2), (0, 10**20)), "edge (0, 100000000000000000000) out of range"),
        ],
    )
    def test_names_the_first_faulty_edge_in_sorted_order(self, edges, message):
        with pytest.raises(InvalidInputError) as err:
            Digraph(3, edges)
        assert str(err.value) == message

    def test_no_nodes_or_float_ends_rejected(self):
        with pytest.raises(InvalidInputError, match="^digraph needs at least one node$"):
            Digraph(0, ())
        with pytest.raises(InvalidInputError, match="^edges must be pairs of integer node ids, got float64$"):
            Digraph(3, ((0.0, 1.0),))
        # a bool is no node id, alone or beside an int that numpy promotes it to
        with pytest.raises(InvalidInputError, match="^edges must be pairs of integer node ids, got bool$"):
            Digraph(2, np.array([[True, False]]))
        with pytest.raises(InvalidInputError, match="^edges must be pairs of integer node ids, got a bool$"):
            Digraph(3, [(True, 2), (2, 0)])
        for count in (2.5, "3", True):
            message = f"^node count must be an integer, got {count!r}$"
            with pytest.raises(InvalidInputError, match=message):
                Digraph(count, ((0, 1),))

    def test_edges_are_python_ints(self):
        g = Digraph(3, tuple(map(tuple, np.array([[2, 0], [0, 1], [1, 2]]))))
        assert g.edges == ((0, 1), (1, 2), (2, 0))
        assert all(type(v) is int for edge in g.edges for v in edge)
        assert all(type(v) is int for j in range(3) for v in g.out_neighbors(j))

    def test_an_edge_array_reads_as_its_pairs(self):
        pairs = ((2, 0), (0, 1), (1, 2))
        g = Digraph(3, np.array(pairs))
        assert g == Digraph(3, pairs)
        assert all(type(v) is int for edge in g.edges for v in edge)
        assert Digraph(2, np.zeros((0, 2), dtype=int)) == Digraph(2, ())

    @pytest.mark.parametrize(
        "edges", [((0, 1), (1, 2, 0)), ((0,),), ((), ()), (0, 1), np.zeros((2, 3), dtype=int)]
    )
    def test_edges_that_are_not_pairs_are_named(self, edges):
        with pytest.raises(InvalidInputError, match=r"^edges must be \(tail, head\) pairs$"):
            Digraph(3, edges)

    def test_neighborhoods(self):
        g = Digraph(3, ((0, 1), (2, 1), (1, 0)))
        assert [g.out_neighbors(j) for j in range(3)] == [(1,), (0,), (1,)]
        assert g.out_sets == ({1}, {0}, {1})

    def test_edge_order_does_not_matter(self):
        edges = ((2, 0), (0, 2), (1, 2), (0, 1))
        shuffled, ordered = Digraph(3, edges), Digraph(3, tuple(sorted(edges)))
        assert shuffled == ordered
        assert hash(shuffled) == hash(ordered)
        assert repr(shuffled) == "Digraph(node_count=3, edges=((0, 1), (0, 2), (1, 2), (2, 0)))"
        assert shuffled.out_neighbors(0) == (1, 2)

    def test_adjacency(self):
        g = Digraph(3, ((0, 1), (2, 1), (1, 0)))
        assert g.adjacency.tolist() == [[False, True, False], [True, False, False], [False, True, False]]
        with pytest.raises(ValueError):
            g.adjacency[0, 2] = True   # shared by every reader, so read-only
        assert g == Digraph(3, ((1, 0), (0, 1), (2, 1)))   # the cache is no field
        assert Digraph(1, ()).adjacency.tolist() == [[False]]


class TestWeights:
    def test_fournode_topology(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        assert np.allclose(out_weight_matrix(g), FOURNODE_P)
        with pytest.raises(InvalidInputError, match="^weight matrix must be square$"):
            digraph_from_weight_matrix(FOURNODE_P[:3])

    def test_column_stochastic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            edges = {
                (int(a), int(b))
                for a, b in rng.integers(0, n, size=(2 * n, 2))
                if a != b
            }
            p = out_weight_matrix(Digraph(n, tuple(edges)))
            assert np.max(np.abs(p.sum(axis=0) - 1.0)) < 1e-15


class TestConnectivity:
    @pytest.mark.parametrize(
        "g",
        [
            Digraph(4, ((0, 1), (1, 2), (2, 3))),                   # one-way path
            Digraph(3, ((0, 1), (1, 0), (0, 2), (1, 2))),           # sink node 2
            Digraph(4, ((0, 1), (1, 0), (2, 3), (3, 2))),           # two 2-cycles
        ],
        ids=["path", "sink", "two-cycles"],
    )
    def test_not_strong(self, g):
        assert not is_strongly_connected(g)

    def test_agrees_with_all_pairs_reachability(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            edges = {(int(a), int(b)) for a, b in rng.integers(0, n, (2 * n, 2)) if a != b}
            g = Digraph(n, tuple(edges))
            every_pair = all(min(bfs_distances(g, s)) >= 0 for s in range(n))
            assert is_strongly_connected(g) == every_pair

    def test_a_quad_run_leaves_scipy_and_mpmath_out(self):
        # quad is the standard library's decimal: not even a quad run imports mpmath
        code = (
            "import dataclasses, sys, ftcc"
            "; from ftcc.runtime import initialize, run_closed_loop"
            "; from ftcc.scenario import load_scenario"
            "; cfg = dataclasses.replace(load_scenario('paper-4node'), horizon=1)"
            "; assert cfg.precision == 'quad'"
            "; assert len(run_closed_loop(cfg, initialize(cfg)).x) == 2"
            "; print(sorted({'scipy', 'mpmath'} & set(sys.modules)))"
        )
        src = str(Path(ftcc.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "[]"


def tuple_scan_round_exchange(fabric, send, receive):
    """The fabric round before the per-node out-sets: each destination is
    checked by a scan of the sender's out-neighbour tuple."""
    g = fabric.graph
    inboxes = [[] for _ in range(g.node_count)]
    for j in range(g.node_count):
        outs = g.out_neighbors(j)
        for dst, payload in send(j) or ():
            if dst not in outs:
                raise ProtocolViolationError(
                    f"node {j} attempted to send to non-neighbor {dst}"
                )
            inboxes[dst].append((j, payload))
    fabric.sent_count += sum(map(len, inboxes))
    fabric.round_index += 1
    for j, inbox in enumerate(inboxes):
        fabric.delivered_count += len(inbox)
        receive(j, inbox)


class TestFabricOracle:
    """round_exchange against the tuple-scan round on the same send plans."""

    @staticmethod
    def send_plan(rng, g, legal):
        """Each sender's (destination, payload) list; a sender may be absent.

        Unless ``legal``, a few sends go to the sender itself, to a
        non-neighbour, to -1, to N or to an unhashable list.  Some
        destinations are numpy integers.
        """
        n, plan = g.node_count, {}
        for j in map(int, rng.permutation(n)[: int(rng.integers(n // 2, n + 1))]):
            outs = g.out_neighbors(j)
            picks = rng.integers(0, len(outs), int(rng.integers(0, 2 * len(outs) + 1)))
            plan[j] = [
                (np.int64(outs[i]) if rng.random() < 0.2 else outs[i], (j, k))
                for k, i in enumerate(picks)
            ]
        for _ in range(0 if legal else int(rng.integers(1, 4))):
            j = int(rng.integers(0, n))
            strangers = sorted(set(range(n)) - set(g.out_neighbors(j)) - {j})
            bad = [j, -1, n, np.intp(j), [j]] + strangers[:1]
            msgs = plan.setdefault(j, [])
            msgs.insert(int(rng.integers(0, len(msgs) + 1)), (bad[rng.integers(0, len(bad))], "bad"))
        return plan

    @staticmethod
    def play(exchange, g, plans):
        """Every plan as one round on one fabric: inboxes or error, then counters."""
        fabric, log = SyncFabric(g), []
        for plan in plans:
            inboxes = {}
            try:
                exchange(fabric, plan.get, inboxes.__setitem__)
                outcome = inboxes
            except ProtocolViolationError as exc:
                outcome = str(exc)
            log.append((outcome, fabric.round_index, fabric.sent_count, fabric.delivered_count))
        return log

    def test_matches_the_tuple_scan(self):
        rng = np.random.default_rng(13)
        graphs = [random_strongly_connected(rng, int(rng.integers(2, 25))) for _ in range(50)]
        graphs += [complete_digraph(n) for n in (2, 8, 48)]
        raised = 0
        for g in graphs:
            plans = [self.send_plan(rng, g, legal=rng.random() < 0.5) for _ in range(6)]
            expected = self.play(tuple_scan_round_exchange, g, plans)
            assert self.play(round_exchange, g, plans) == expected
            raised += sum(isinstance(outcome, str) for outcome, *_ in expected)
        assert 50 < raised < 250   # both kinds of round are drawn often
