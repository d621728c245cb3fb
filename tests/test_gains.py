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
    _check_unstable_diagonalizable,
    _route,
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
    complete_digraph,
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
        # and stored +Im first
        assert PlacementTargets((0.1 + 0.2j, 0.1 - 0.2j)).take(1.2 + 0.3j) == (0.1 + 0.2j, 0.1 - 0.2j)

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

    @pytest.mark.parametrize("b, w", [([1.0, 0.0, 0.0], [1.0, 0.0]), ([1.0, 0.0], [1.0])])
    def test_b_and_w_of_another_size_rejected(self, b, w):
        with pytest.raises(InvalidInputError, match="^b and w must match the state dimension$"):
            place_single(np.diag([2.0, 0.5]), b, 2.0, 0.6, w)


class TestPlacePair:
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
        # e_1 cannot move 2.5, and its placement of 1.5 uses the last target
        a = np.diag([1.5, 2.5])
        with pytest.raises(InsufficientTargetsError, match=r"exhausted with unstable eigenvalues \[\(2\.5"):
            place_for_agent(a, np.eye(2), PlacementTargets((0.1,)))
        with pytest.raises(InsufficientTargetsError, match="^no real target left for unstable eigenvalue 1.5$"):
            place_for_agent(a[:1, :1], np.ones((1, 1)), PlacementTargets((0.1 + 0.2j, 0.1 - 0.2j)))

    @pytest.mark.parametrize(
        "place",
        [
            lambda a: place_single(a, [1.0, 0.0], 2.0, 0.6, [1.0, 0.0]),
            lambda a: place_pair(a, [1.0, 0.0], 1 + 1j, (0.1, 0.2), [1.0, 1j]),
            lambda a: place_for_agent(a, np.ones((2, 1)), PlacementTargets((0.1,))),
        ],
        ids=["place_single", "place_pair", "place_for_agent"],
    )
    def test_a_non_square_a_eff_rejected(self, place):
        with pytest.raises(InvalidInputError, match=r"^A_eff must be square, got \(2, 3\)$"):
            place(np.zeros((2, 3)))

    def test_no_columns_place_nothing(self):
        assert place_for_agent(np.diag([1.5, 0.5]), np.zeros((2, 0)), PlacementTargets((0.1,))).shape == (0, 2)

    def test_a_column_that_moves_nothing_stops_after_2n_tries(self, monkeypatch):
        import ftcc.gains as gains_module

        monkeypatch.setattr(gains_module, "place_single", lambda a, b, lam, t, w: np.zeros((1, 1)))
        with pytest.raises(ProtocolFailureError, match="^placement loop failed to converge$"):
            place_for_agent(np.array([[2.0]]), np.ones((1, 1)), PlacementTargets((0.1, 0.2, 0.3)))

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
    def test_fournode_topology_max_id(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        assert elect_leader(g, 2) == 3

    def test_one_value_per_node(self):
        with pytest.raises(InvalidInputError, match="^need one election value per node$"):
            elect_leader(Digraph(3, ((0, 1), (1, 2), (2, 0))), 3, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "1", 1j, True])
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

    def test_rounds_and_floods_follow_from_the_hops_and_the_declaring_node(
        self, paper_scenario, paper_init
    ):
        # one round per hop, then one per flood round: the flood reaches the
        # nodes at distance r from the declaring node in round r, and every
        # node nearer than the farthest sends F to all its out-neighbors once
        passes = [(paper_scenario.graph, paper_init.control_token),
                  (paper_scenario.graph, paper_init.observer_token)]
        rng = np.random.default_rng(29)
        for n_agents in range(1, 11):
            e = np.eye(n_agents)
            g = random_strongly_connected(rng, n_agents) if n_agents > 1 else Digraph(1, ())
            sys = LtiSystem(
                a=np.diag(rng.uniform(0.5, 1.6, n_agents)),
                b_list=tuple(e[:, [i]] for i in range(n_agents)),
                c_list=tuple(e[[i], :] for i in range(n_agents)),
            )
            targets = rng.uniform(-0.9, 0.9, n_agents).tolist()
            leader = int(rng.integers(n_agents))
            passes += [(g, run_token_protocol(g, sys, targets, leader=leader, mode=mode))
                       for mode in ("control", "observer")]
        for g, res in passes:
            d = bfs_distances(g, res.declared_by)
            ecc = max(d)
            assert res.rounds == res.hop_count + ecc
            assert res.flood_count == sum(
                len(g.out_neighbors(v)) for v in range(g.node_count) if d[v] < ecc
            )
            assert res.flood_count <= len(g.edges)

    def test_random_protocol_correctness(self):
        rng = np.random.default_rng(77)
        for trial in range(25):
            n_agents = int(rng.integers(2, 9))
            n = int(rng.integers(2, 7))
            g = random_strongly_connected(rng, n_agents)
            sys = random_joint_system(rng, n_agents, n)
            targets = targets_for_spectrum(rng, sys.a)
            res = run_token_protocol(g, sys, targets, leader=n_agents - 1)
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
                res = run_token_protocol(
                    g,
                    sys,
                    rng.uniform(-0.9, 0.9, n_agents).tolist(),
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
                    res = run_token_protocol(g, sys, targets, leader=3, mode=mode)
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
            run_token_protocol(g, sys, [0.3], leader=1)
        assert "every node in 2 hops" in str(err.value)
        assert "[0.382421+0.322109j, 0.382421-0.322109j]" in str(err.value)
        # agent 0 moves 1.5 onto 0.3, and no agent reaches 0.5: only 0.5 is listed
        e = np.eye(2)
        sys = LtiSystem(np.diag([1.5, 0.5]), (e[:, [0]], e[:, [0]]), (e[[0]], e[[1]]))
        with pytest.raises(ProtocolFailureError, match=r"targets \[0\.4\]; .* target \[0\.5\]$"):
            run_token_protocol(g, sys, [0.3, 0.4], leader=0)

    def test_an_unknown_mode_or_agent_count_rejected(self):
        e = np.eye(2)
        sys = LtiSystem(np.diag([1.5, 0.5]), (e[:, [0]], e[:, [1]]), (e[[0]], e[[1]]))
        with pytest.raises(InvalidInputError, match="^unknown mode 'sideways'$"):
            run_token_protocol(
                Digraph(2, ((0, 1), (1, 0))), sys, [0.3, 0.4], leader=0, mode="sideways"
            )
        with pytest.raises(InvalidInputError, match="^one agent per graph node required$"):
            run_token_protocol(Digraph(3, ((0, 1), (1, 2), (2, 0))), sys, [0.3, 0.4], leader=0)

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

    def test_a_node_without_out_neighbors_cannot_route(self):
        with pytest.raises(ProtocolFailureError, match="^node 1 has no out-neighbors$"):
            _route(Digraph(2, ((0, 1),)), [0], 1)

    @pytest.mark.parametrize(
        "g, visited, j, hop",
        [
            (complete_digraph(4), [3], 3, 0),
            (complete_digraph(4), [0, 2], 2, 1),
            # 0's out-neighbours 1 and 2 are visited and both one step from node 3
            (Digraph(4, ((0, 1), (0, 2), (1, 3), (2, 3), (3, 0))), [0, 1, 2], 0, 1),
            # node 4 is two steps ahead through 1 and one through 2
            (Digraph(5, ((0, 1), (0, 2), (1, 3), (3, 4), (2, 4), (4, 0))), [0, 1, 2, 3], 0, 2),
            (Digraph(5, ((0, 1), (0, 2), (1, 3), (3, 4), (2, 4), (4, 0))), [0, 1, 2, 3, 4], 0, 1),
        ],
        ids=[
            "an unvisited out-neighbor", "the smallest unvisited id", "a tie to the smallest id",
            "the nearer before the smaller id", "every node visited",
        ],
    )
    def test_route(self, g, visited, j, hop):
        assert _route(g, visited, j) == hop

    @pytest.mark.parametrize("leader, order", [(0, [0, 1, 2]), (1, [1, 0, 2]), (2, [2, 0, 1])])
    def test_the_walk_takes_the_smallest_unvisited_id(self, leader, order):
        e = np.eye(3)
        sys = LtiSystem(np.diag([1.5, 1.6, 1.7]), [e[:, [i]] for i in range(3)], [e[[i]] for i in range(3)])
        res = run_token_protocol(complete_digraph(3), sys, [0.1, 0.2, 0.3], leader=leader)
        assert res.visit_order == order

    @pytest.mark.parametrize("n", range(3, 9))
    def test_the_ring_walk_goes_once_round_in_ascending_id(self, n):
        # criterion 10's ring and plant: every node owns an unstable mode, and
        # node 0 takes out-neighbour 1 before n - 1, so each hop reaches a new
        # node and the last one hands the token back to 0, which declares F
        ring = [(i, (i + 1) % n) for i in range(n)]
        g, e = Digraph(n, ring + [(b, a) for a, b in ring]), np.eye(n)
        sys = LtiSystem(
            np.diag(1.1 + 0.1 * np.arange(n)),
            tuple(e[:, [i]] for i in range(n)),
            tuple(e[[i], :] for i in range(n)),
        )
        for mode in ("control", "observer"):
            res = run_token_protocol(g, sys, [0.1] * n, leader=0, mode=mode)
            assert res.visit_order == list(range(n))
            assert (res.hop_count, res.declared_by) == (n, 0)

    def test_only_an_unstable_eigenvalue_must_be_diagonalizable(self):
        # a stable Jordan block passes; an unstable one is rejected (test_defective_unstable_rejected)
        assert _check_unstable_diagonalizable(np.array([[0.5, 1.0], [0.0, 0.5]])) is None

    @pytest.mark.parametrize("leader", range(4))
    def test_walk_starts_at_the_leader(self, leader):
        # every agent owns one unstable mode, so the token goes round the
        # whole cycle from whichever node holds it first
        e = np.eye(4)
        sys = LtiSystem(
            np.diag([1.5, 1.4, 1.3, 1.2]),
            tuple(e[:, [i]] for i in range(4)),
            tuple(e[[i], :] for i in range(4)),
        )
        g = Digraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        for mode in ("control", "observer"):
            res = run_token_protocol(g, sys, [0.1, 0.2, 0.3, 0.4], leader=leader, mode=mode)
            assert res.visit_order == [(leader + k) % 4 for k in range(4)]

    @pytest.mark.parametrize("leader", [3, 99, -1, 1.5, True])
    def test_leader_out_of_range_rejected(self, leader):
        g = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        sys = LtiSystem(
            a=np.diag([0.5, -0.3, 0.2]),
            b_list=tuple(np.eye(3)[:, [i]] for i in range(3)),
            c_list=tuple(np.eye(3)[[i], :] for i in range(3)),
        )
        with pytest.raises(InvalidInputError, match=rf"^leader {leader} is not a node id \(0\.\.2\)$"):
            run_token_protocol(g, sys, [], leader=leader)

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
