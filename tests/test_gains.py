import numpy as np
import pytest

from ftcc.exceptions import (
    InsufficientTargetsError,
    InvalidInputError,
    ProtocolFailureError,
    UncontrollableDirectionError,
)
from ftcc.gains import (
    PlacementTargets,
    conjugate_closed,
    elect_leader,
    place_for_agent,
    place_single,
    run_token_protocol,
)
from ftcc.graph import Digraph, digraph_from_weight_matrix
from ftcc.linalg import eigen_left, is_schur_stable
from ftcc.plant import LtiSystem

from conftest import random_joint_system, random_strongly_connected, targets_for_spectrum

FOURNODE_P = np.array(
    [
        [1 / 3, 0, 1 / 4, 1 / 3],
        [1 / 3, 1 / 2, 1 / 4, 0],
        [0, 1 / 2, 1 / 4, 1 / 3],
        [1 / 3, 0, 1 / 4, 1 / 3],
    ]
)


class TestTargets:
    def test_conjugate_closure_required(self):
        with pytest.raises(InvalidInputError):
            PlacementTargets((0.5, 0.1 + 0.2j))
        assert conjugate_closed((0.1 + 0.2j, 0.1 - 0.2j, 0.3))

    def test_take_real_in_order(self):
        t = PlacementTargets((0.5, 0.6, 0.7))
        assert t.take_real() == 0.5
        assert t.take_real() == 0.6
        assert t.remaining() == 1

    def test_take_conjugate_pair(self):
        t = PlacementTargets((0.5, 0.1 + 0.2j, 0.1 - 0.2j))
        plus, minus = t.take_conjugate_pair()
        assert plus == 0.1 + 0.2j and minus == 0.1 - 0.2j
        assert t.remaining() == 1

    def test_pair_falls_back_to_doubled_real(self):
        t = PlacementTargets((0.5, 0.6))
        plus, minus = t.take_conjugate_pair()
        assert plus == minus == 0.5
        assert t.all_consumed


class TestPlaceSingle:
    def test_diagonal_case(self):
        k = place_single(np.diag([2.0, 0.5]), [1.0, 0.0], 2.0, 0.6, [1.0, 0.0])
        assert np.allclose(k.real, [[-1.4, 0.0]])
        closed = np.diag([2.0, 0.5]) + np.array([[1.0], [0.0]]) @ k.real
        assert np.allclose(sorted(np.linalg.eigvals(closed).real), [0.5, 0.6])

    def test_noop_placement(self):
        k = place_single(np.diag([2.0, 0.5]), [1.0, 0.0], 2.0, 2.0, [1.0, 0.0])
        assert np.allclose(k, 0.0)

    def test_uncontrollable_direction(self):
        with pytest.raises(UncontrollableDirectionError):
            place_single(np.diag([2.0, 0.5]), [1.0, 0.0], 0.5, 0.1, [0.0, 1.0])

    def test_random_spectrum_check(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=4)
            pairs = [p for p in eigen_left(a) if abs(p.value.imag) < 1e-12]
            pairs = [p for p in pairs if abs(p.left_vector @ b) > 1e-2]
            if not pairs:
                continue
            p = pairs[0]
            target = rng.uniform(-0.8, 0.8)
            row = place_single(a, b, p.value, target, p.left_vector).real
            closed = a + np.outer(b, row)
            got = sorted(np.linalg.eigvals(closed), key=lambda z: (z.real, z.imag))
            want = sorted(
                [complex(target)]
                + [q.value for q in eigen_left(a) if abs(q.value - p.value) > 1e-12],
                key=lambda z: (z.real, z.imag),
            )
            assert max(abs(x - y) for x, y in zip(got, want)) < 1e-6


class TestPlaceForAgent:
    def test_already_schur_stabilize_policy(self):
        targets = PlacementTargets((0.1, 0.2))
        k = place_for_agent(np.diag([0.5, -0.3]), np.eye(2), targets)
        assert np.allclose(k, 0.0)
        assert targets.remaining() == 2

    def test_agent_blind_to_unstable_mode(self):
        # b excites only the stable mode; stabilize policy places nothing
        targets = PlacementTargets((0.1,))
        k = place_for_agent(
            np.diag([1.5, 0.5]), np.array([[0.0], [1.0]]), targets
        )
        assert np.allclose(k, 0.0)

    def test_stabilize_policy_moves_only_unstable(self):
        a = np.diag([1.5, 0.5, -0.2])
        targets = PlacementTargets((0.1, 0.2, 0.3))
        k = place_for_agent(a, np.ones((3, 1)), targets)
        closed = a + np.ones((3, 1)) @ k
        got = sorted(np.linalg.eigvals(closed).real)
        assert np.allclose(got, sorted([0.1, 0.5, -0.2]), atol=1e-8)
        assert targets.consumed == [True, False, False]

    def test_all_policy_places_everything(self):
        a = np.diag([1.5, 0.5, -0.2])
        targets = PlacementTargets((0.1, 0.2, 0.3))
        k = place_for_agent(a, np.ones((3, 1)), targets, policy="all")
        closed = a + np.ones((3, 1)) @ k
        assert np.allclose(sorted(np.linalg.eigvals(closed).real), [0.1, 0.2, 0.3], atol=1e-8)

    def test_insufficient_targets(self):
        a = np.diag([1.5, 2.5])
        with pytest.raises(InsufficientTargetsError):
            place_for_agent(a, np.eye(2), PlacementTargets((0.1,)))

    def test_conjugate_pair_realness(self):
        # rotation scaled outside the unit circle: complex unstable pair
        rot = 1.3 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        targets = PlacementTargets((0.3 + 0.2j, 0.3 - 0.2j))
        k = place_for_agent(rot, np.array([[1.0], [0.4]]), targets, policy="all")
        assert k.dtype.kind == "f"
        closed = rot + np.array([[1.0], [0.4]]) @ k
        got = sorted(np.linalg.eigvals(closed), key=lambda z: z.imag)
        assert abs(got[0] - (0.3 - 0.2j)) < 1e-8
        assert abs(got[1] - (0.3 + 0.2j)) < 1e-8

    def test_multi_column_stacking(self):
        a = np.diag([1.5, 1.2, 0.5])
        b = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        targets = PlacementTargets((0.1, 0.2))
        k = place_for_agent(a, b, targets)
        assert k.shape == (2, 3)
        closed = a + b @ k
        assert np.allclose(sorted(np.linalg.eigvals(closed).real), [0.1, 0.2, 0.5], atol=1e-8)


class TestElection:
    def test_single_node(self):
        assert elect_leader(Digraph(1, ()), 1) == 0

    def test_fournode_topology_max_id(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        assert elect_leader(g, 2) == 3

    def test_custom_values_pick_node_zero(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        assert elect_leader(g, 2, values=[4.0, 3.0, 2.0, 1.0]) == 0

    def test_permutation_invariant_winner(self):
        g = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        vals = [5.0, 9.0, 1.0]
        assert elect_leader(g, 3, values=vals) == 1
        assert elect_leader(g, 3, values=[vals[i] for i in (1, 2, 0)]) == 0

    def test_insufficient_rounds_detected(self):
        g = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        with pytest.raises(ProtocolFailureError):
            elect_leader(g, 0, values=[1.0, 2.0, 3.0])


class TestTokenProtocol:
    def test_already_schur_immediate_read_only(self):
        g = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        sys = LtiSystem(
            a=np.diag([0.5, -0.3, 0.2]),
            b_list=tuple(np.eye(3)[:, [i]] for i in range(3)),
            c_list=tuple(np.eye(3)[[i], :] for i in range(3)),
        )
        res = run_token_protocol(g, sys, [], leader=0)
        assert res.hop_count == 0
        assert all(np.allclose(k, 0.0) for k in res.gains)
        assert res.declared_by == 0
        assert res.flood_count <= len(g.edges)

    def test_fournode_zero_gain_pattern(self, paper_scenario, paper_init):
        assert np.allclose(paper_init.k_gains[3], 0.0)
        assert np.allclose(paper_init.l_gains[2], 0.0)
        assert paper_init.control_token.visit_order == [0, 1, 2]
        assert paper_init.observer_token.visit_order == [0, 1, 2, 3]

    def test_random_protocol_correctness(self):
        rng = np.random.default_rng(77)
        for trial in range(25):
            n_agents = int(rng.integers(2, 9))
            n = int(rng.integers(2, 7))
            g = random_strongly_connected(rng, n_agents)
            sys = random_joint_system(rng, n_agents, n)
            targets = targets_for_spectrum(rng, sys.a)
            res = run_token_protocol(g, sys, targets, mode="control")
            closed = sys.a + res.f
            assert is_schur_stable(closed, 0.0), f"trial {trial} not Schur"
            base = np.linalg.eigvals(sys.a)
            for lam in np.linalg.eigvals(closed):
                if min(abs(lam - mu) for mu in base) > 1e-6:
                    assert min(abs(lam - complex(t)) for t in targets) < 1e-6
            assert np.max(np.abs(res.f - sum(
                b @ k for b, k in zip(sys.b_list, res.gains)
            ))) < 1e-12
            assert res.flood_count <= len(g.edges)
            assert res.hop_count <= (n_agents - 1) ** 2 + n_agents

    def test_observer_mode_duality(self):
        rng = np.random.default_rng(13)
        n_agents, n = 4, 5
        g = random_strongly_connected(rng, n_agents)
        sys = random_joint_system(rng, n_agents, n)
        targets = targets_for_spectrum(rng, sys.a)
        res = run_token_protocol(g, sys, targets, mode="observer")
        obs = sys.a - sum(l @ c for l, c in zip(res.gains, sys.c_list)) / n_agents
        assert is_schur_stable(obs, 0.0)
        for l, c in zip(res.gains, sys.c_list):
            assert l.shape == (n, c.shape[0])

    def test_insufficient_targets_raises(self):
        g = Digraph(2, ((0, 1), (1, 0)))
        sys = LtiSystem(
            a=np.diag([1.5, 1.6]),
            b_list=(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])),
            c_list=(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
        )
        with pytest.raises(InsufficientTargetsError):
            run_token_protocol(g, sys, [0.5], leader=0)

    def test_defective_unstable_rejected(self):
        g = Digraph(2, ((0, 1), (1, 0)))
        jordan = np.array([[1.5, 1.0], [0.0, 1.5]])
        sys = LtiSystem(
            a=jordan,
            b_list=(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])),
            c_list=(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
        )
        with pytest.raises(InvalidInputError):
            run_token_protocol(g, sys, [0.1, 0.2], leader=0)

    @pytest.mark.parametrize("leader", [3, 99, -1])
    def test_leader_out_of_range_rejected(self, leader):
        g = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        sys = LtiSystem(
            a=np.diag([0.5, -0.3, 0.2]),
            b_list=tuple(np.eye(3)[:, [i]] for i in range(3)),
            c_list=tuple(np.eye(3)[[i], :] for i in range(3)),
        )
        with pytest.raises(InvalidInputError, match=f"leader {leader} is not a node id"):
            run_token_protocol(g, sys, [], leader=leader)

    def test_read_only_flood_reaches_everyone(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n_agents = int(rng.integers(3, 8))
            g = random_strongly_connected(rng, n_agents)
            sys = random_joint_system(rng, n_agents, 4)
            targets = targets_for_spectrum(rng, sys.a)
            res = run_token_protocol(g, sys, targets, mode="control")
            # the run only returns once every node got the read-only message
            assert res.flood_count <= len(g.edges)
            assert 0 < res.flood_count
