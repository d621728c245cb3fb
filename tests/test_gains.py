import warnings

import numpy as np
import pytest

from ftcc.consensus import elect_leader
from ftcc.exceptions import (
    InsufficientTargetsError,
    InvalidInputError,
    ProtocolFailureError,
    UncontrollableDirectionError,
)
from ftcc.gains import (
    PlacementTargets,
    conjugate_closed,
    place_for_agent,
    place_pair,
    place_single,
    run_token_protocol,
)
from ftcc.graph import Digraph, digraph_from_weight_matrix
from ftcc.linalg import eigen_left, is_schur_stable
from ftcc.plant import LtiSystem

from conftest import (
    bfs_distances,
    diameter,
    random_joint_system,
    random_strongly_connected,
    targets_for_spectrum,
)


def rotation(radius: float, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return radius * np.array([[c, -s], [s, c]])


def worst_target_miss(closed, consumed) -> float:
    """Largest relative miss, each target matched to its own nearest eigenvalue."""
    free = list(np.linalg.eigvals(closed))
    worst = 0.0
    for t in consumed:
        k = min(range(len(free)), key=lambda i: abs(free[i] - t))
        worst = max(worst, abs(free.pop(k) - t) / max(1.0, abs(t)))
    return worst


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
        t = PlacementTargets((0.5, 0.1 + 0.2j, 0.1 - 0.2j, 0.6, 0.7))
        assert t.take(2.0) == (0.5,)
        assert t.take(-1.1) == (0.6,)
        assert t.consumed == [True, False, False, True, False]

    def test_take_conjugate_pair(self):
        # the -Im member stored first and 1e-13 off: the pair comes back +Im
        # first, as exact conjugates
        minus = complex(0.1, -0.2 + 1e-13)
        t = PlacementTargets((0.5, minus, 0.1 + 0.2j))
        plus, conj = t.take(1.2 + 0.3j)
        assert plus == 0.1 + 0.2j and conj == plus.conjugate()
        assert t.consumed == [False, True, True]

    def test_pair_takes_two_reals(self):
        t = PlacementTargets((0.5, 0.6, 0.7))
        assert t.take(1.2 - 0.3j) == (0.5, 0.6)
        assert t.consumed == [True, True, False]

    def test_pair_needs_two_targets(self):
        t = PlacementTargets((0.5,))
        assert t.take(1.2 + 0.3j) is None
        assert t.consumed == [False]
        t = PlacementTargets((0.1 + 0.2j, 0.1 - 0.2j))
        assert t.take(2.0) is None   # a real eigenvalue never takes a complex target
        assert t.consumed == [False, False]

    def test_covers_only_consumed_targets_within_the_relative_tolerance(self):
        t = PlacementTargets((10.0, 0.5))
        assert not t.covers(10.0)
        t.take(2.0)
        assert t.covers(10.0 + 5e-6) and not t.covers(10.0 + 2e-5)   # 1e-6 of |10|
        assert not t.covers(0.5)


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

    def test_zero_column_is_uncontrollable(self):
        with pytest.raises(UncontrollableDirectionError):
            place_single(np.diag([2.0, 0.5]), [0.0, 0.0], 2.0, 0.6, [1.0, 0.0])

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


class TestPlacePair:
    def test_random_spectrum_check(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 25:
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            pairs = [p for p in eigen_left(a) if p.value.imag > 0]
            pairs = [p for p in pairs if abs(p.left_vector @ b) > 1e-2]
            if not pairs:
                continue
            p = pairs[0]
            if rng.random() < 0.5:
                t = complex(rng.uniform(-0.7, 0.7), rng.uniform(0.05, 0.7))
                pair = (t, t.conjugate())
            else:
                pair = tuple(complex(v) for v in rng.uniform(-0.9, 0.9, 2))
            row = place_pair(a, b, p.value, pair, p.left_vector)
            assert row.shape == (1, n) and row.dtype.kind == "f"
            moved = (p.value, p.value.conjugate())
            kept = [q.value for q in eigen_left(a) if q.value not in moved]
            assert len(kept) == n - 2
            assert worst_target_miss(a + np.outer(b, row), list(pair) + kept) < 1e-6
            checked += 1

    def test_uncontrollable_direction(self):
        a = np.zeros((3, 3))
        a[:2, :2] = rotation(1.3, 0.7)
        a[2, 2] = 0.5
        p = next(q for q in eigen_left(a) if q.value.imag > 0)
        with pytest.raises(UncontrollableDirectionError):
            place_pair(a, [0.0, 0.0, 1.0], p.value, (0.1, 0.2), p.left_vector)

    def test_real_eigenvalue_rejected(self):
        with pytest.raises(InvalidInputError, match="complex eigenvalue"):
            place_pair(np.diag([2.0, 0.5]), [1.0, 1.0], 2.0, (0.1, 0.2), [1.0, 0.0])

    def test_targets_must_make_a_real_polynomial(self):
        rot = rotation(1.3, 0.7)
        p = next(q for q in eigen_left(rot) if q.value.imag > 0)
        with pytest.raises(InvalidInputError, match="neither a conjugate pair"):
            place_pair(rot, [1.0, 0.4], p.value, (0.1 + 0.2j, 0.3), p.left_vector)


class TestPlaceForAgent:
    def test_all_policy_places_everything(self):
        a = np.diag([1.5, 0.5, -0.2])
        targets = PlacementTargets((0.1, 0.2, 0.3))
        k = place_for_agent(a, np.ones((3, 1)), targets)
        closed = a + np.ones((3, 1)) @ k
        assert np.allclose(sorted(np.linalg.eigvals(closed).real), [0.1, 0.2, 0.3], atol=1e-8)

    def test_consumed_targets_left_alone(self):
        # a second agent on the same ledger sees the first one's placements
        # as consumed and moves only what is left
        a = np.diag([1.5, 0.5, -0.2])
        targets = PlacementTargets((0.1, 0.2, 0.3, 0.4))
        b1, b2 = np.array([[1.0], [0.0], [0.0]]), np.ones((3, 1))
        closed = a + b1 @ place_for_agent(a, b1, targets)
        assert targets.consumed == [True, False, False, False]
        closed = closed + b2 @ place_for_agent(closed, b2, targets)
        assert targets.consumed == [True, True, True, False]
        assert np.allclose(sorted(np.linalg.eigvals(closed).real), [0.1, 0.2, 0.3], atol=1e-8)

    def test_insufficient_targets(self):
        a = np.diag([1.5, 2.5])
        with pytest.raises(InsufficientTargetsError):
            place_for_agent(a, np.eye(2), PlacementTargets((0.1,)))

    def test_conjugate_pair_realness(self):
        # rotation scaled outside the unit circle: complex unstable pair
        rot = 1.3 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        targets = PlacementTargets((0.3 + 0.2j, 0.3 - 0.2j))
        k = place_for_agent(rot, np.array([[1.0], [0.4]]), targets)
        assert k.dtype.kind == "f"
        closed = rot + np.array([[1.0], [0.4]]) @ k
        got = sorted(np.linalg.eigvals(closed), key=lambda z: z.imag)
        assert abs(got[0] - (0.3 - 0.2j)) < 1e-8
        assert abs(got[1] - (0.3 + 0.2j)) < 1e-8

    def test_conjugate_pair_onto_two_real_targets(self):
        # no complex target left: the pair takes the two reals, one each
        rot = rotation(1.3, 0.7)
        targets = PlacementTargets((0.5, 0.6))
        k = place_for_agent(rot, np.array([[1.0], [0.4]]), targets)
        assert k.dtype.kind == "f"
        closed = rot + np.array([[1.0], [0.4]]) @ k
        got = sorted(np.linalg.eigvals(closed), key=lambda z: z.real)
        assert abs(got[0] - 0.5) < 1e-8
        assert abs(got[1] - 0.6) < 1e-8
        assert targets.all_consumed

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_raise_before_any_round(self, bad, monkeypatch):
        def no_round(g, values):
            raise AssertionError("a max round ran")

        monkeypatch.setattr("ftcc.consensus._max_round", no_round)
        g = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        for at in range(3):
            values = [1.0, 0.5, 0.25]
            values[at] = bad
            with pytest.raises(InvalidInputError, match="election values must be finite"):
                elect_leader(g, 3, values)

    def test_largest_pair_wins_once_it_reaches_every_node(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            g = random_strongly_connected(rng, int(rng.integers(2, 25)))
            n = g.node_count
            values = (rng.integers(-2, 3, n) / 2).tolist()   # ties are common
            winner = max(zip(values, range(n)))[1]
            reach = max(bfs_distances(g, winner))   # the winner's out-eccentricity
            assert elect_leader(g, diameter(g), values) == winner
            assert elect_leader(g, reach, values) == winner
            with pytest.raises(ProtocolFailureError):
                elect_leader(g, int(rng.integers(0, reach)), values)


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

    def test_hops_and_floods_are_the_fabric_messages(self, paper_scenario, paper_init, monkeypatch):
        import ftcc.gains as gains_module

        exchange, sent = gains_module.round_exchange, []

        def counting(fabric, send, receive):
            def counted(j):
                batch = list(send(j) or ())
                sent[-1] += len(batch)
                return batch

            exchange(fabric, counted, receive)

        monkeypatch.setattr(gains_module, "round_exchange", counting)
        cfg = paper_scenario
        for mode, targets in (
            ("control", cfg.controller_targets),
            ("observer", cfg.observer_targets),
        ):
            sent.append(0)
            res = run_token_protocol(
                cfg.graph,
                cfg.plant,
                list(targets),
                mode=mode,
                priorities=cfg.priorities,
                stability_margin=cfg.stability_margin,
                leader=paper_init.leader,
            )
            assert res.hop_count + res.flood_count == sent[-1]
            assert res.flood_count <= len(cfg.graph.edges)

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
            assert is_schur_stable(closed), f"trial {trial} not Schur"
            base = np.linalg.eigvals(sys.a)
            for lam in np.linalg.eigvals(closed):
                if min(abs(lam - mu) for mu in base) > 1e-6:
                    assert min(abs(lam - complex(t)) for t in targets) < 1e-6
            assert np.max(np.abs(res.f - sum(
                b @ k for b, k in zip(sys.b_list, res.gains)
            ))) < 1e-12
            assert res.flood_count <= len(g.edges)
            assert res.hop_count <= (n_agents - 1) ** 2 + n_agents

    def test_walk_reaches_the_next_node_within_the_diameter(self):
        # every agent must place its own unstable mode, so the walk visits
        # every node; each hop routed through visited nodes brings the token
        # one step closer to the nearest unvisited one, so the walk takes at
        # most D hops per new node, plus one after the last
        rng = np.random.default_rng(18)
        routed = 0
        for n_agents in range(3, 13):
            e = np.eye(n_agents)
            for _ in range(10):
                g = random_strongly_connected(rng, n_agents)
                sys = LtiSystem(
                    a=np.diag(rng.uniform(1.05, 1.6, n_agents)),
                    b_list=tuple(e[:, [i]] for i in range(n_agents)),
                    c_list=tuple(e[[i], :] for i in range(n_agents)),
                )
                priorities = {
                    j: [int(v) for v in rng.permutation(g.out_neighbors(j))]
                    for j in range(n_agents)
                }
                res = run_token_protocol(
                    g,
                    sys,
                    rng.uniform(-0.9, 0.9, n_agents).tolist(),
                    priorities=priorities,
                    leader=int(rng.integers(n_agents)),
                )
                assert len(res.visit_order) == n_agents
                assert res.hop_count <= (n_agents - 1) * diameter(g) + 1
                # hops beyond one per new node and the last: through visited nodes
                routed += res.hop_count - n_agents
        assert routed > 0

    @pytest.mark.parametrize("n", [16, 20, 24])
    def test_large_plants_land_or_raise_a_named_error(self, n):
        # the sizes where single-column placement runs out of conditioning
        rng = np.random.default_rng(600 + n)
        g = digraph_from_weight_matrix(FOURNODE_P)
        landed = 0
        for _ in range(3):
            sys = random_joint_system(rng, 4, n)
            for mode, base in (("control", sys.a), ("observer", sys.a.T)):
                targets = targets_for_spectrum(rng, sys.a)
                try:
                    res = run_token_protocol(g, sys, targets, mode=mode)
                except (
                    ProtocolFailureError,
                    InsufficientTargetsError,
                    UncontrollableDirectionError,
                ):
                    continue
                # a pass returns only once every target is consumed
                assert worst_target_miss(base + res.f, targets) <= 1e-6
                landed += 1
        assert landed >= 3

    def test_missed_target_raises(self, monkeypatch):
        import ftcc.gains as gains_module

        def off_by_1e3(a_eff, b, lam, pair, w):
            return place_pair(a_eff, b, lam, tuple(t + 1e-3 for t in pair), w)

        monkeypatch.setattr(gains_module, "place_pair", off_by_1e3)
        g = Digraph(2, ((0, 1), (1, 0)))
        sys = LtiSystem(
            a=rotation(1.3, 0.7),
            b_list=(np.array([[1.0], [0.4]]), np.array([[0.0], [1.0]])),
            c_list=(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
        )
        with pytest.raises(ProtocolFailureError, match="control pass missed target 0.3"):
            run_token_protocol(g, sys, [0.3 + 0.2j, 0.3 - 0.2j], leader=0)

    def test_unfinishable_pass_names_what_is_left(self):
        # a stable pair and one real target: no agent can consume it, and
        # once both nodes have placed, F can no longer change
        g = Digraph(2, ((0, 1), (1, 0)))
        sys = LtiSystem(
            a=rotation(0.5, 0.7),
            b_list=tuple(np.eye(2)[:, [i]] for i in range(2)),
            c_list=tuple(np.eye(2)[[i], :] for i in range(2)),
        )
        with pytest.raises(ProtocolFailureError, match=r"targets \[0\.3\]") as err:
            run_token_protocol(g, sys, [0.3])
        assert "every node in 2 hops" in str(err.value)
        assert "[0.382421+0.322109j, 0.382421-0.322109j]" in str(err.value)

    def test_walk_with_no_way_to_an_unvisited_node_raises(self):
        # no edge enters node 2, so once nodes 0 and 1 have placed, node 1
        # cannot route the token anywhere new
        e = np.eye(3)
        g = Digraph(3, ((0, 1), (1, 0), (2, 0)))
        sys = LtiSystem(
            a=np.diag([1.5, 0.5, 0.2]),
            b_list=(e[:, [1]], e[:, [2]], e[:, [0]]),
            c_list=tuple(e[[i], :] for i in range(3)),
        )
        with pytest.raises(ProtocolFailureError, match=r"node 1 leads to an unvisited node \[2\]"):
            run_token_protocol(g, sys, [0.1, 0.2, 0.3], leader=0)

    def test_zero_input_columns_place_nothing(self):
        g = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        zero = np.zeros((3, 1))
        sys = LtiSystem(
            a=np.diag([1.5, 0.5, 0.2]),
            b_list=(zero, zero, np.ones((3, 1))),
            c_list=tuple(np.eye(3)[[i], :] for i in range(3)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_token_protocol(g, sys, [0.1, 0.3, 0.4], leader=0)
        assert res.visit_order == [0, 1, 2]
        assert not np.any(res.gains[0]) and not np.any(res.gains[1])
        assert worst_target_miss(sys.a + res.f, [0.1, 0.3, 0.4]) < 1e-9

    def test_observer_mode_duality(self):
        rng = np.random.default_rng(13)
        n_agents, n = 4, 5
        g = random_strongly_connected(rng, n_agents)
        sys = random_joint_system(rng, n_agents, n)
        targets = targets_for_spectrum(rng, sys.a)
        res = run_token_protocol(g, sys, targets, mode="observer")
        obs = sys.a - sum(l @ c for l, c in zip(res.gains, sys.c_list)) / n_agents
        assert is_schur_stable(obs)
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

    def test_walk_starts_at_the_last_node_without_a_leader(self):
        rng = np.random.default_rng(77)
        g = random_strongly_connected(rng, 5)
        sys = random_joint_system(rng, 5, 3)
        targets = targets_for_spectrum(rng, sys.a)
        res = run_token_protocol(g, sys, targets)
        assert res.visit_order[0] == 4
        assert res.visit_order == run_token_protocol(g, sys, targets, leader=4).visit_order
        assert run_token_protocol(g, sys, targets, leader=0).visit_order[0] == 0

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

    def test_flood_that_cannot_reach_every_node_raises(self):
        # the path 0 -> 1 -> 2 is not strongly connected: from node 1 the
        # read-only F reaches node 2 and can never reach node 0
        g = Digraph(3, ((0, 1), (1, 2)))
        sys = LtiSystem(
            a=np.diag([0.5, -0.3, 0.2]),
            b_list=tuple(np.eye(3)[:, [i]] for i in range(3)),
            c_list=tuple(np.eye(3)[[i], :] for i in range(3)),
        )
        with pytest.raises(
            ProtocolFailureError, match="flood from node 1 reached only 2 of 3 nodes"
        ):
            run_token_protocol(g, sys, [], leader=1)
