import dataclasses
import decimal
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcc.consensus import (
    DEFAULT_REL_TOL,
    _deficient,
    _first_defective,
    _ladder,
    _max_round,
    _ratio_history,
    _rows,
    diameter_upper_bound,
    elect_leader,
    exact_average_fixed_rounds,
    finite_time_average,
    in_arithmetic,
    m_bar,
    validate_weights,
)
from ftcc.exceptions import DegenerateInitializationError, InvalidInputError, ProtocolFailureError
from ftcc.graph import (
    Digraph,
    SyncFabric,
    digraph_from_weight_matrix,
    out_weight_matrix,
)
from ftcc.runtime import QUAD_DIGITS
from ftcc.scenario import PRECISIONS

from conftest import (
    agree,
    agreement_for,
    complete_digraph,
    diameter,
    message_max_round,
    random_strongly_connected,
    stored_kernels,
)
from hankel_reference import _is_defective, _live_difference_stack

FOURNODE_P = np.array(
    [
        [1 / 3, 0, 1 / 4, 1 / 3],
        [1 / 3, 1 / 2, 1 / 4, 0],
        [0, 1 / 2, 1 / 4, 1 / 3],
        [1 / 3, 0, 1 / 4, 1 / 3],
    ]
)


def three_cycle():
    return Digraph(3, ((0, 1), (1, 2), (2, 0)))


def ratio_rounds(p, alpha, rounds: int = 1):
    """Run ``rounds`` rounds of ratio consensus from pi = 1.

    Returns the stacked (N, n) numerators and the (N,) denominators.
    """
    g = digraph_from_weight_matrix(p)
    rows = _ratio_history(p, _rows(g, alpha)[0], rounds)[-1]   # [alpha | pi] per node
    return rows[:, :-1], rows[:, -1]


class TestRatioStep:
    def test_consensus_already_reached(self):
        p = out_weight_matrix(three_cycle())
        a2, p2 = ratio_rounds(p, np.full(3, 7.5))
        assert np.allclose(a2[:, 0] / p2, 7.5)

    def test_two_node_hand_computed(self):
        p = np.full((2, 2), 0.5)
        a2, p2 = ratio_rounds(p, np.array([0.0, 2.0]))
        assert np.allclose(a2[:, 0], [1.0, 1.0])
        assert np.allclose(a2[:, 0] / p2, [1.0, 1.0])

    def test_mass_conservation_fournode(self):
        rng = np.random.default_rng(0)
        alpha = rng.normal(size=(4, 3))
        total = alpha.sum(axis=0)
        alpha, pi = ratio_rounds(FOURNODE_P, alpha, 50)
        assert np.max(np.abs(alpha.sum(axis=0) - total)) < 1e-12
        assert abs(pi.sum() - 4.0) < 1e-12

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_mass_conservation_random(self, seed):
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(rng, int(rng.integers(2, 8)))
        alpha = rng.normal(size=g.node_count)
        total = alpha.sum()
        alpha, pi = ratio_rounds(out_weight_matrix(g), alpha, 30)
        assert abs(alpha.sum() - total) < 1e-12 * max(1.0, abs(total))
        assert np.all(pi > 0)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            ratio_rounds(np.full((2, 2), 0.5), np.zeros(3))


def inbox_sum_history(g, p, rows, rounds: int) -> np.ndarray:
    """The message-by-message round the history product replaced.

    Each node adds its own weighted row first, then what its in-neighbours
    send, in ascending sender order.
    """
    hist = [rows]
    for _ in range(rounds):
        prev = hist[-1]
        new = []
        for j in range(g.node_count):
            acc = p[j, j] * prev[j]
            for l in range(g.node_count):
                if j in g.out_neighbors(l):
                    acc = acc + p[j, l] * prev[l]
            new.append(acc)
        hist.append(np.stack(new))
    return np.stack(hist)


class TestHistoryOracle:
    """The one-product history against the per-message inbox sums.

    Only the summation order differs, so the two agree to a few units of
    roundoff of the arithmetic (at most 1.7 measured); the stated bound is
    16 units relative to the largest iterate: 3.6e-15 in double, 1.7e-18 in
    80-bit extended, 1.6e-35 in 37-digit decimal quad.
    """

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_matches_the_inbox_sum(self, precision):
        rng = np.random.default_rng(31)
        dtype = PRECISIONS[precision]
        with decimal.localcontext(decimal.Context(prec=QUAD_DIGITS)):
            eps = 10.0 ** (1 - QUAD_DIGITS) if dtype == object else np.finfo(dtype).eps
            for _ in range(6):
                g = random_strongly_connected(rng, int(rng.integers(2, 9)))
                w = (out_weight_matrix(g) > 0) * rng.uniform(0.1, 1.0, (g.node_count,) * 2)
                p = validate_weights(g, w / w.sum(axis=0))
                rows = _rows(g, in_arithmetic(rng.normal(size=(g.node_count, 3)), dtype))[0]
                rounds = 3 * g.node_count
                pw = in_arithmetic(p, dtype)
                new = _ratio_history(pw, rows, rounds)
                old = inbox_sum_history(g, pw, rows, rounds)
                assert new.dtype == old.dtype and new.shape == old.shape
                gap = float(np.max(np.abs(new - old)))
                assert gap <= 16 * eps * float(np.max(np.abs(old)))


def window_quotient(view, beta, lag: int = 0):
    """One node's kernel quotient over its latest window, or ``lag`` rounds before it."""
    width = len(beta)
    s0 = len(view) - width - lag
    win = view[s0 : s0 + width]   # (width, n+1)
    a_win = np.ascontiguousarray(win[:, :-1])
    p_win = np.ascontiguousarray(win[:, -1])
    return (a_win.T @ beta) / (p_win @ beta)


def agreement_by_node(g, values, rounds, kernels, rel_tol=DEFAULT_REL_TOL, weights=None):
    """The node-order agreement the batched one replaced.

    [alpha | pi] advance together, then each node in turn forms its two
    quotients and runs its window check, so the first failure raised is the
    lowest-indexed failing node's.
    """
    rows = _rows(g, values)[0]
    p = out_weight_matrix(g) if weights is None else weights
    hist = _ratio_history(in_arithmetic(p, rows.dtype), rows, max(rounds, 0))
    tol = rel_tol * float(np.max(np.abs(rows[:, :-1])))
    mu = []
    for j, beta in zip(range(g.node_count), kernels, strict=True):
        if rounds <= len(beta):
            fault = f"{rounds} rounds leave no earlier window"
        else:
            beta = in_arithmetic(beta, rows.dtype)
            mu.append(window_quotient(hist[:, j], beta))
            gap = float(np.max(np.abs(mu[-1] - window_quotient(hist[:, j], beta, lag=1))))
            fault = None if gap <= tol else f"consecutive windows differ by {gap:.3e}"
        if fault:
            raise DegenerateInitializationError(
                f"node {j}, stored width-{len(beta)} kernel: {fault}",
                history=hist[:, :, :-1].swapaxes(0, 1),
            )
    return np.stack(mu)


# stored kernel widths 4, 4, 5, 5, 4: two width groups, neither a prefix of the nodes
MIXED_WIDTHS = Digraph(
    5, ((0, 2), (0, 3), (1, 2), (2, 1), (2, 4), (3, 1), (3, 4), (4, 0), (4, 3))
)


class TestBatchedAgreement:
    """The prepared quotient maps against the node-order loop they replaced.

    Both compute the same quotients; the maps fold P^k, the kernel and the
    denominator into one N x N matrix before the inputs arrive, so the
    roundoff differs: measured at most 1.07 units in double, 1.23 in
    extended and 0.40 in quad; the stated bound is 8 units relative to the
    largest input.
    """

    def cases(self, paper_scenario, paper_init):
        boot = finite_time_average(MIXED_WIDTHS, np.arange(5, dtype=float))
        assert [len(beta) for beta in boot.kernels] == [4, 4, 5, 5, 4]
        return [
            (paper_scenario.graph, paper_scenario.weights, paper_init.m_bar, paper_init.kernels),
            (MIXED_WIDTHS, None, boot.m_bar, boot.kernels),
        ]

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_matches_the_node_loop(self, precision, paper_scenario, paper_init):
        rng = np.random.default_rng(41)
        dtype = PRECISIONS[precision]
        with decimal.localcontext(decimal.Context(prec=QUAD_DIGITS)):
            eps = 10.0 ** (1 - QUAD_DIGITS) if dtype == object else np.finfo(dtype).eps
            for g, weights, rounds, kernels in self.cases(paper_scenario, paper_init):
                agreement = agreement_for(g, rounds, kernels, dtype, weights=weights)
                for _ in range(5):
                    xhat = rng.normal(size=(g.node_count, 3))
                    vals = in_arithmetic(xhat * 10.0 ** rng.uniform(-6, 6, xhat.shape), dtype)
                    new = exact_average_fixed_rounds(agreement, vals)
                    old = agreement_by_node(g, vals, rounds, kernels, weights=weights)
                    assert new.dtype == old.dtype and new.shape == old.shape
                    gap = float(np.max(np.abs(new - old)))
                    assert gap <= 8 * eps * float(np.max(np.abs(vals)))

    def test_a_passing_agreement_replays_no_rounds(self, monkeypatch, paper_scenario, paper_init):
        import ftcc.consensus as consensus

        cfg = paper_scenario
        agreement = agreement_for(
            cfg.graph, paper_init.m_bar, paper_init.kernels, weights=cfg.weights
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("a passing agreement replayed its rounds")

        monkeypatch.setattr(consensus, "_ratio_history", forbidden)
        mu = exact_average_fixed_rounds(agreement, np.arange(8.0).reshape(4, 2))
        assert np.allclose(mu, [3.0, 4.0], atol=1e-12)

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_map_rows_sum_to_one(self, precision, paper_scenario, paper_init):
        # measured at most 0.5 ulp in double, 1.0 in extended and 0.1 in quad
        dtype = PRECISIONS[precision]
        with decimal.localcontext(decimal.Context(prec=QUAD_DIGITS)):
            eps = 10.0 ** (1 - QUAD_DIGITS) if dtype == object else np.finfo(dtype).eps
            for g, weights, rounds, kernels in self.cases(paper_scenario, paper_init):
                agreement = agreement_for(g, rounds, kernels, dtype, weights=weights)
                for m in (agreement.w, agreement.w_lag):
                    assert float(np.max(np.abs(m.sum(axis=1) - 1))) <= 8 * eps

    def test_maps_are_the_average_in_double(self, paper_scenario, paper_init):
        # measured at most 8.2e-15 from J/N, and row sums within 1 ulp
        rng = np.random.default_rng(7)
        cfg = paper_scenario
        cases = [(cfg.graph, cfg.weights, paper_init.m_bar, paper_init.kernels)]
        for _ in range(30):
            g = random_strongly_connected(rng, int(rng.integers(2, 11)))
            boot = finite_time_average(g, np.arange(g.node_count, dtype=float))
            cases.append((g, None, boot.m_bar, boot.kernels))
        for g, weights, rounds, kernels in cases:
            agreement = agreement_for(g, rounds, kernels, weights=weights)
            for m in (agreement.w, agreement.w_lag):
                assert np.max(np.abs(m - 1 / g.node_count)) <= 1e-12
                assert np.max(np.abs(m.sum(axis=1) - 1)) <= 8 * np.finfo(float).eps

    def test_quad_maps_are_as_exact_as_the_float64_kernels(self, paper_scenario, paper_init):
        """The float64-kernel envelope: paper-4node's quad map is 1.8e-17 from J/N.

        The stored kernels are float64 (beta_1 = -0.41666666666666{56, 474,
        7146, 56}, not -5/12), so 37 digits of arithmetic cannot bring the
        map closer; exact kernels would, and would move this figure.
        """
        cfg = paper_scenario
        with decimal.localcontext(decimal.Context(prec=QUAD_DIGITS)):
            agreement = agreement_for(
                cfg.graph, paper_init.m_bar, paper_init.kernels, object, weights=cfg.weights
            )
            dist = float(np.max(np.abs(agreement.w - Decimal(1) / 4)))
        assert 1e-18 < dist <= 3e-17

    def test_names_the_lowest_failing_node(self):
        # width groups run 4 then 5; node 4 (width 4) and node 3 (width 5,
        # second in its group) fail, so the message must name node 3
        boot = finite_time_average(MIXED_WIDTHS, np.arange(5, dtype=float))
        kernels = [beta.copy() for beta in boot.kernels]
        for j in (3, 4):
            kernels[j][0] += 0.5
        vals = np.random.default_rng(3).normal(size=(5, 2))
        with pytest.raises(DegenerateInitializationError) as old:
            agreement_by_node(MIXED_WIDTHS, vals, boot.m_bar, kernels)
        agreement = agreement_for(MIXED_WIDTHS, boot.m_bar, kernels)
        with pytest.raises(DegenerateInitializationError, match="node 3, stored width-5") as err:
            exact_average_fixed_rounds(agreement, vals)
        assert str(err.value).split(" by ")[0] == str(old.value).split(" by ")[0]
        assert err.value.history.shape == (5, boot.m_bar + 1, 2)   # (N, rounds+1, n)
        assert np.array_equal(err.value.history, old.value.history)

    def test_values_in_another_arithmetic_rejected(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        agreement = agreement_for(g, 11, stored_kernels(g, FOURNODE_P), weights=FOURNODE_P)
        with pytest.raises(InvalidInputError, match="agreement prepared for float64"):
            exact_average_fixed_rounds(agreement, np.ones(4, dtype=np.longdouble))

    def test_one_kernel_per_node(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        with pytest.raises(InvalidInputError, match="one stored kernel per node"):
            agreement_for(g, 11, stored_kernels(g, FOURNODE_P)[:3], weights=FOURNODE_P)


def precision_eps(dtype) -> float:
    """The unit of ``dtype``'s arithmetic, quad at QUAD_DIGITS digits."""
    return 10.0 ** (1 - QUAD_DIGITS) if dtype == object else float(np.finfo(dtype).eps)


def window_bounds(agreement, dtype) -> np.ndarray:
    """b_j = |W_j - W_lag,j|_1 + N eps (|W_j|_1 + |W_lag,j|_1), in float64, for each node."""
    w, lag = agreement.w, agreement.w_lag
    gap, latest, lagged = (np.abs(m).astype(float).sum(axis=1) for m in (w - lag, w, lag))
    return gap + len(w) * precision_eps(dtype) * (latest + lagged)


def kernels_with_bounds(g, weights, rounds, kernels, targets):
    """``kernels`` with beta_j[0] moved so that b_j sits near targets[j] * DEFAULT_REL_TOL.

    b_j grows linearly with a small move of one kernel coefficient, so one
    trial move of 1e-6 sizes each node's; a node whose target is None keeps
    its kernel.
    """
    def moved(steps):
        return [beta if t is None else beta + np.eye(len(beta))[0] * s
                for beta, t, s in zip(kernels, targets, steps)]

    trial = [1e-6] * len(kernels)
    b = window_bounds(agreement_for(g, rounds, moved(trial), weights=weights), float)
    return moved([s * (t or 0) * DEFAULT_REL_TOL / bj for s, t, bj in zip(trial, targets, b)])


def outcome(average):
    """(mu, None) when ``average()`` returns, (None, error) when the window check raises."""
    try:
        return average(), None
    except DegenerateInitializationError as err:
        return None, err


class TestCheckedNodes:
    """The window check compares only the nodes whose bound b_j cannot clear it.

    A node with 2 b_j <= rel_tol has a gap of at most half the tolerance for
    every input, so leaving it uncompared changes no outcome.
    """

    # b_j / rel_tol for each node; None keeps the bootstrap kernel (b_j ~ 1e-15)
    TARGETS = {"mixed widths": (0.1, 0.4, 0.6, 1.0, 10.0), "paper-4node": (0.6, 10.0, None, 0.4)}

    def cases(self, paper_scenario, paper_init):
        boot = finite_time_average(MIXED_WIDTHS, np.arange(5, dtype=float))
        return {
            "mixed widths": (MIXED_WIDTHS, None, boot.m_bar, boot.kernels),
            "paper-4node": (
                paper_scenario.graph, paper_scenario.weights, paper_init.m_bar, paper_init.kernels
            ),
        }

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    @pytest.mark.parametrize("case", ["mixed widths", "paper-4node"])
    def test_matches_the_node_loop_that_checks_every_node(
        self, case, precision, paper_scenario, paper_init
    ):
        g, weights, rounds, kernels = self.cases(paper_scenario, paper_init)[case]
        targets = self.TARGETS[case]
        kernels = kernels_with_bounds(g, weights, rounds, kernels, targets)
        dtype, n_nodes = PRECISIONS[precision], g.node_count
        rng = np.random.default_rng(43)
        with decimal.localcontext(decimal.Context(prec=QUAD_DIGITS)):
            agreement = agreement_for(g, rounds, kernels, dtype, weights=weights)
            b = window_bounds(agreement, dtype) / DEFAULT_REL_TOL
            for bj, t in zip(b, targets):
                assert bj < 1e-5 if t is None else 0.8 * t < bj < 1.25 * t
            # cleared and checked nodes share the agreement
            assert agreement.checked.tolist() == [j for j, t in enumerate(targets) if (t or 0) > 0.5]
            inputs = [np.zeros((n_nodes, 3)), np.tile(rng.normal(size=3), (n_nodes, 1))]
            for _ in range(12):
                xhat = rng.normal(size=(n_nodes, 3))
                inputs.append(xhat * 10.0 ** rng.uniform(-6, 6, xhat.shape))
            failed = 0
            for vals in map(lambda v: in_arithmetic(v, dtype), inputs):
                mu, err = outcome(lambda: exact_average_fixed_rounds(agreement, vals))
                _, old = outcome(lambda: agreement_by_node(g, vals, rounds, kernels, weights=weights))
                if old is None:
                    assert err is None
                    assert mu.dtype == vals.dtype and np.array_equal(mu, agreement.w @ vals)
                else:
                    failed += 1
                    assert err is not None
                    assert str(err).split(" by ")[0] == str(old).split(" by ")[0]
                    assert np.array_equal(err.history, old.history)
            assert 0 < failed < len(inputs)   # the node loop both passes and raises

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_none_on_paper_4node(self, precision, paper_scenario, paper_init):
        cfg = paper_scenario
        with decimal.localcontext(decimal.Context(prec=QUAD_DIGITS)):
            agreement = agreement_for(
                cfg.graph, paper_init.m_bar, paper_init.kernels, PRECISIONS[precision],
                weights=cfg.weights,
            )
        assert agreement.checked.tolist() == []

    def test_none_on_the_complete_48_node_bootstrap(self, monkeypatch):
        import ftcc.consensus as consensus

        prepared = []

        def kept(*args, _fn=consensus.agreement_maps):
            prepared.append(_fn(*args))
            return prepared[-1]

        monkeypatch.setattr(consensus, "agreement_maps", kept)
        finite_time_average(complete_digraph(48), np.arange(48, dtype=float))
        assert len(prepared) == 1 and prepared[0].checked.tolist() == []

    def test_every_node_with_unit_kernels(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        agreement = agreement_for(g, 11, [np.ones(1)] * 4, weights=FOURNODE_P)
        assert agreement.checked.tolist() == [0, 1, 2, 3]

    def test_every_node_without_an_earlier_window(self):
        # widths 4, 4, 5, 5, 4: 5 rounds leave the width-5 nodes no earlier window, 4 leave none any
        boot = finite_time_average(MIXED_WIDTHS, np.arange(5, dtype=float))
        for rounds, checked in ((5, [2, 3]), (4, [0, 1, 2, 3, 4])):
            agreement = agreement_for(MIXED_WIDTHS, rounds, boot.kernels)
            assert agreement.checked.tolist() == checked

    def test_a_cleared_agreement_never_reads_the_earlier_map(self, paper_scenario, paper_init):
        cfg = paper_scenario
        agreement = agreement_for(
            cfg.graph, paper_init.m_bar, paper_init.kernels, weights=cfg.weights
        )
        vals = np.random.default_rng(8).normal(size=(4, 8))
        mu = exact_average_fixed_rounds(agreement, vals)
        unread = dataclasses.replace(agreement, w_lag=None)
        assert np.array_equal(exact_average_fixed_rounds(unread, vals), mu)

    def test_inputs_outside_the_normal_range_check_every_node(self, paper_scenario, paper_init):
        # underflow or overflow adds more than the bound allows, so there every
        # node is checked.  On paper-4node, integer multiples of the smallest
        # subnormal fail the check, which the bound alone would clear
        cfg = paper_scenario
        agreement = agreement_for(
            cfg.graph, paper_init.m_bar, paper_init.kernels, weights=cfg.weights
        )
        tiny = np.arange(1.0, 5.0)[:, None] * 5e-324
        with pytest.raises(DegenerateInitializationError, match="consecutive windows differ"):
            exact_average_fixed_rounds(agreement, tiny)
        # and on MIXED_WIDTHS, whose rows sum to 1 + 1 ulp, the largest float64
        # overflows an earlier quotient
        boot = finite_time_average(MIXED_WIDTHS, np.arange(5, dtype=float))
        mixed = agreement_for(MIXED_WIDTHS, boot.m_bar, boot.kernels)
        assert mixed.checked.tolist() == []
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DegenerateInitializationError, match="node 0, .* differ by inf"
        ):
            exact_average_fixed_rounds(mixed, np.full((5, 1), np.finfo(float).max))
        # with an earlier map that fails every node, the check shows where it runs
        failing = dataclasses.replace(agreement, w_lag=agreement.w + 0.1)
        for scale in (1e-299, 1e307):   # tolerance normal, no product near overflow
            exact_average_fixed_rounds(failing, np.full((4, 1), scale))
        for scale in (1e-301, 1e308):
            with pytest.raises(DegenerateInitializationError, match="node 0, .* differ"):
                exact_average_fixed_rounds(failing, np.full((4, 1), scale))


class TestValidateWeights:
    def _graph_and_weights(self):
        g = three_cycle()
        return g, out_weight_matrix(g)

    def test_accepts_matching_weights(self):
        g, p = self._graph_and_weights()
        assert np.array_equal(validate_weights(g, p), p)

    def test_rejects_an_extra_edge(self):
        g, _ = self._graph_and_weights()
        p = out_weight_matrix(Digraph(3, g.edges + ((0, 2),)))
        with pytest.raises(InvalidInputError, match="does not match the graph"):
            validate_weights(g, p)

    def test_rejects_a_missing_edge(self):
        g, p = self._graph_and_weights()
        with pytest.raises(InvalidInputError, match="does not match the graph"):
            validate_weights(Digraph(3, g.edges + ((0, 2),)), p)

    def test_rejects_a_negative_entry(self):
        g, p = self._graph_and_weights()
        p[0, 0], p[1, 0] = -0.5, 1.5   # the column still sums to 1
        with pytest.raises(InvalidInputError, match="nonnegative"):
            validate_weights(g, p)

    def test_rejects_a_column_off_one(self):
        g, p = self._graph_and_weights()
        p[0, 0] = 0.6
        with pytest.raises(InvalidInputError, match="column-stochastic"):
            validate_weights(g, p)


class TestFormulas:
    @pytest.mark.parametrize(
        "degrees,expected",
        [((0,), 3), ((2, 2, 1, 2), 11), ((1, 1), 7)],
    )
    def test_m_bar(self, degrees, expected):
        assert m_bar(degrees) == expected

    @pytest.mark.parametrize(
        "degrees,expected", [((0,), 0), ((2, 2, 1, 2), 2), ((3, 1), 3)]
    )
    def test_diameter_bound(self, degrees, expected):
        assert diameter_upper_bound(degrees) == expected

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            m_bar(())


def state_machine_bootstrap(g, x0, rel_tol=DEFAULT_REL_TOL):
    """The per-node state machine the bootstrap ran before detection and the
    ladder were separated: counters, rank monitors and stop rule interleaved
    round by round.  Returns (rounds_used, done_rounds, phi_done, degrees,
    distance_degrees)."""
    n, cap = g.node_count, 4 * g.node_count + 2
    hist = _ratio_history(out_weight_matrix(g), _rows(g, x0)[0], cap)
    c, r, phi = [0] * n, [0] * n, [0] * n
    deg, dist, c0, done, phi_done = ([None] * n for _ in range(5))
    for k in range(1, cap + 1):
        tops = [max(phi[l], c[l]) for l in range(n)]
        heard = [
            max((tops[l] for l in range(n) if j in g.out_neighbors(l)), default=0)
            for j in range(n)
        ]
        shift, width = 1 - k % 2, (k + 1) // 2
        for j in range(n):
            if c0[j] is None:
                c[j] += 1
            if (deg if shift else dist)[j] is None and _is_defective(
                _live_difference_stack(hist[: k + 1, j], width, shift),
                rel_tol,
            ):
                if shift:
                    deg[j], c0[j], c[j] = width - 1, 2 * width, 2 * width
                else:
                    dist[j] = width - 1
        for j in range(n):
            top = max(phi[j], c[j], heard[j])
            r[j] = r[j] + 1 if top == phi[j] else 1
            phi[j] = top
            if done[j] is None and c0[j] is not None:
                if r[j] >= c0[j] or k >= 2 * phi[j] - 1:
                    done[j], phi_done[j] = k, phi[j]
        if None not in done and None not in dist:
            return k, done, phi_done, deg, dist
    raise AssertionError("the state machine did not finish")


class TestTerminationMechanics:
    """The counter ladder: each node's counter is min(round, c0_j)."""

    # 0 -> 1 -> 2 -> 0 with c0 = 4, 5, 3: node 1's frozen 5 reaches node 2 at
    # round 6 and node 0 at round 7, after node 0's own phi = 4 held rounds 4-6
    LATE_MAX = (Digraph(3, ((0, 1), (1, 2), (2, 0))), [4, 5, 3])

    def test_all_zero_stays_zero(self):
        assert _max_round(three_cycle(), [0, 0, 0]) == [0, 0, 0]

    def test_max_propagates_within_diameter_rounds(self):
        g, tops = three_cycle(), [1, 5, 3]
        for _ in range(diameter(g)):
            tops = _max_round(g, tops)
        assert tops == [5, 5, 5]

    @pytest.mark.parametrize("seed", range(6))
    def test_max_round_keeps_the_max_over_the_closed_in_neighbourhood(self, seed):
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(rng, int(rng.integers(2, 13)))
        n, adj = g.node_count, g.adjacency   # adj[i, j]: edge i -> j

        def kept(values):
            return [max(values[i] for i in range(n) if i == j or adj[i, j]) for j in range(n)]

        for _ in range(2):
            ints = rng.integers(-2, 3, n).tolist()   # ties are common
            assert _max_round(g, ints) == kept(ints)
            # the election's (value, id) pairs: one round leaves these draws'
            # views split, and the error lists them
            pairs = list(zip(rng.integers(-2, 3, n).astype(float).tolist(), range(n)))
            views = kept(pairs)
            assert len({j for _, j in views}) > 1
            with pytest.raises(ProtocolFailureError, match=re.escape(f"views {views}")):
                elect_leader(g, 1, [v for v, _ in pairs])

    def test_quiet_rounds_accumulate_to_done(self):
        # node 2 holds phi = 5 for c0 = 3 rounds (6-8) and stops before 2 * 5 - 1
        g, c0 = self.LATE_MAX
        _, done, phi_done = _ladder(g, c0, 0, 30)
        assert (done[2], phi_done[2]) == (8, 5)

    def test_change_resets_the_held_count(self):
        # node 0's phi = 4 held rounds 4-6; without the restart at round 7 it
        # would stop there with phi 4
        g, c0 = self.LATE_MAX
        _, done, phi_done = _ladder(g, c0, 0, 30)
        assert (done[0], phi_done[0]) == (9, 5)

    def test_local_budget_cap_terminates(self):
        # node 0 stops at 2 * 5 - 1 = 9 with phi 5 held for 3 rounds only
        g, c0 = self.LATE_MAX
        rounds, done, _ = _ladder(g, c0, 0, 30)
        assert done == [9, 9, 8] and rounds == 9

    def test_waits_for_the_last_distance_degree(self):
        g, c0 = self.LATE_MAX
        rounds, done, _ = _ladder(g, c0, 13, 30)
        assert done == [9, 9, 8] and rounds == 13

    def test_round_cap_ends_the_ladder(self):
        g, c0 = self.LATE_MAX
        assert _ladder(g, c0, 0, 8) is None

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the held-count stop rule lets a node with a small c0 stop before a "
        "larger counter reaches it, certifying a phi below the network maximum",
    )
    @pytest.mark.parametrize("case", ["two_cycle", "criterion_6_draw_94"])
    def test_every_node_certifies_the_largest_counter(self, case):
        if case == "two_cycle":
            c0 = [2, 6]
            _, _, phi_done = _ladder(Digraph(2, ((0, 1), (1, 0))), c0, 0, 30)
        else:
            rng = np.random.default_rng(2024)
            for trial in range(95):
                g = random_strongly_connected(rng, int(rng.integers(2, 11)))
                x0 = rng.normal(size=(g.node_count, 3 if trial % 3 == 0 else 1))
            res = finite_time_average(g, x0)
            c0, phi_done = res.detection_rounds, res.phi_done
        assert phi_done == [max(c0)] * len(c0)

    def test_a_width_counts_from_the_round_it_completes(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        res = finite_time_average(g, np.arange(4.0), weights=FOURNODE_P)
        hist = _ratio_history(FOURNODE_P, _rows(g, np.arange(4.0))[0], 4 * 4 + 2)

        def degree(rounds, shift, j):
            # node j's entry of the batched search over the iterates up to ``rounds``
            part = hist[: rounds + 1]
            found = _first_defective(lambda r: part[: r + 1], shift, DEFAULT_REL_TOL)[j]
            return None if found is None else found[0] - 1

        for j in range(4):
            for shift, m in ((1, res.degrees[j]), (0, res.distance_degrees[j])):
                done = 2 * (m + 1) - 1 + shift
                assert degree(len(hist) - 1, shift, j) == m
                assert degree(done, shift, j) == m
                assert degree(done - 1, shift, j) is None

    def test_matches_the_state_machine(self):
        # the draws of acceptance criterion 6 stop at N = 10; the complete
        # 48-node digraph and a 16-node draw follow them
        rng = np.random.default_rng(2024)
        inputs = []
        for trial in range(100):
            g = random_strongly_connected(rng, int(rng.integers(2, 11)))
            inputs.append((g, rng.normal(size=(g.node_count, 3 if trial % 3 == 0 else 1))))
        for g in (complete_digraph(48), random_strongly_connected(rng, 16)):
            inputs.append((g, rng.normal(size=(g.node_count, 1))))
        for g, x0 in inputs:
            res = finite_time_average(g, x0)
            assert state_machine_bootstrap(g, x0) == (
                res.rounds_used, res.done_rounds, res.phi_done, res.degrees,
                res.distance_degrees,
            )
            assert res.detection_rounds == [2 * (m + 1) for m in res.degrees]


class TestArrayMaxRound:
    """``_max_round`` as one masked max against the round sent message by message."""

    def test_matches_the_message_round(self):
        rng = np.random.default_rng(19)
        graphs = [random_strongly_connected(rng, n) for n in range(2, 49)]
        for g in graphs + [complete_digraph(48)]:
            fabric = SyncFabric(g)
            for k in range(1, 4):
                values = rng.integers(-2, 3, g.node_count).tolist()   # ties are common
                assert _max_round(g, values) == message_max_round(fabric, values)
                assert (fabric.round_index, fabric.sent_count, fabric.delivered_count) == (
                    k, k * len(g.edges), k * len(g.edges)
                )

    @staticmethod
    def outcome(run):
        try:
            return run()
        except ProtocolFailureError as exc:
            return str(exc)

    def test_ladder_and_election_match_the_message_round(self, monkeypatch):
        rng = np.random.default_rng(6)
        draws = []
        for _ in range(200):
            g = random_strongly_connected(rng, int(rng.integers(2, 25)))
            n = g.node_count
            c0 = rng.integers(1, 2 * n + 1, n).tolist()
            last, cap = int(rng.integers(0, 2 * n)), int(rng.integers(1, 6 * n))
            values = (rng.integers(-2, 3, n) / 2).tolist()
            draws.append((g, c0, last, cap, values, int(rng.integers(0, n + 1))))

        def run_all():
            runs = []
            for g, c0, last, cap, values, d_prime in draws:
                runs.append(_ladder(g, c0, last, cap))
                runs.append(self.outcome(lambda: elect_leader(g, d_prime, values)))
            return runs

        fabrics = {}

        def oracle(g, values):   # the message round, on one fabric per draw's digraph
            return message_max_round(fabrics.setdefault(id(g), SyncFabric(g)), values)

        fast = run_all()
        monkeypatch.setattr("ftcc.consensus._max_round", oracle)
        slow = run_all()
        assert fast == slow
        # the ladder's rounds and the election's D' rounds send E messages each
        for (g, _, _, cap, _, d_prime), ladder in zip(draws, fast[0::2]):
            rounds = (cap if ladder is None else ladder[0]) + d_prime
            fabric = fabrics[id(g)]
            assert fabric.round_index == rounds
            assert fabric.sent_count == fabric.delivered_count == rounds * len(g.edges)
        # both stop kinds, and both election outcomes, are exercised
        ladders, elections = fast[0::2], fast[1::2]
        assert {lad is None for lad in ladders} == {True, False}
        assert {type(e) for e in elections} == {int, str}


class TestFiniteTimeAverage:
    def test_single_node(self):
        # the general path: the lone node's differences vanish at once (M = 0),
        # and its ladder runs the 3 rounds its budget m_bar = 3 implies
        g = Digraph(1, ())
        res = finite_time_average(g, [42.0])
        assert res.mu[0, 0] == 42.0
        assert res.m_bar == 3
        assert res.rounds_used == 3
        assert res.done_rounds == [3]

    def test_three_cycle_mean(self):
        res = finite_time_average(three_cycle(), [0.0, 3.0, 6.0])
        assert np.allclose(res.mu[:, 0], 3.0, atol=1e-10)
        assert res.degrees == [2, 2, 2]
        assert res.m_bar == 11
        assert max(res.done_rounds) <= res.m_bar

    def test_fournode_budget(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        res = finite_time_average(g, [0.0, 1.0, 2.0, 3.0], weights=FOURNODE_P)
        assert max(2 * (m + 1) for m in res.degrees) == 6
        assert res.m_bar == 11
        assert max(res.done_rounds) <= 11
        assert np.allclose(res.mu[:, 0], 1.5, atol=1e-10)

    def test_vector_payload(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(4, 5))
        res = finite_time_average(g, vals, weights=FOURNODE_P)
        for j in range(4):
            assert np.allclose(res.mu[j], vals.mean(axis=0), atol=1e-9)

    def check_result_relations(self, res):
        assert res.detection_rounds == [2 * (m + 1) for m in res.degrees]
        assert max(res.done_rounds) <= res.m_bar
        # no node done before its own exact value is computable
        assert all(
            d >= det for d, det in zip(res.done_rounds, res.detection_rounds)
        )
        # the network maximum counter is certified by every node whose
        # detected degree genuinely bounds its in-eccentricity; nodes with
        # degenerate weight rows may under-certify, so only the max view
        # is asserted here
        assert max(res.phi_done) == max(res.detection_rounds)

    def test_exactness_and_termination_random(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            g = random_strongly_connected(rng, int(rng.integers(2, 11)))
            x0 = rng.normal(size=g.node_count)
            res = finite_time_average(g, x0)
            scale = max(1.0, abs(x0.mean()))
            assert np.max(np.abs(res.mu[:, 0] - x0.mean())) <= 1e-8 * scale
            self.check_result_relations(res)

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_single_node_result_relations(self, precision):
        # the same relations hold at N = 1: c0 = 2(M + 1) = 2, certified by phi
        with decimal.localcontext(decimal.Context(prec=QUAD_DIGITS)):
            x0 = in_arithmetic([[42.0, -3.5]], PRECISIONS[precision])
            res = finite_time_average(Digraph(1, ()), x0)
        assert np.array_equal(res.mu, x0) and res.mu.dtype == x0.dtype
        assert res.degrees == res.distance_degrees == [0] and res.diameter_bound == 0
        assert res.detection_rounds == [2] and res.phi_done == [2]
        self.check_result_relations(res)

    def test_diameter_bound_dominates_true_diameter(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            g = random_strongly_connected(rng, int(rng.integers(2, 9)))
            res = finite_time_average(g, rng.normal(size=g.node_count))
            assert res.diameter_bound >= diameter(g)

    def test_path_with_back_edge_bound(self):
        g = Digraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        res = finite_time_average(g, [1.0, -1.0, 2.0, 0.5])
        assert res.diameter_bound >= diameter(g)

    def test_round_cap_raises(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        with pytest.raises(DegenerateInitializationError) as err:
            finite_time_average(g, [0.0, 1.0, 2.0, 3.0], round_cap=3)
        assert err.value.history is not None
        assert err.value.history.shape == (4, 4, 1)   # (N, rounds+1, n)


    def test_wrong_average_raises(self):
        # on this near-ring digraph the float rank monitors stop short of the
        # ids' true degree; the unchecked quotient was off by 2.61
        g = random_strongly_connected(np.random.default_rng(24021), 24)
        with pytest.raises(DegenerateInitializationError, match="consecutive windows") as err:
            finite_time_average(g, np.arange(24.0))
        # the error carries the bootstrap's own numerator history
        rounds = err.value.history.shape[1] - 1
        hist = _ratio_history(out_weight_matrix(g), _rows(g, np.arange(24.0))[0], rounds)
        assert np.array_equal(err.value.history, hist[..., :-1].swapaxes(0, 1))


class TestGrownHistory:
    """The bootstrap grows its history only as far as detection and the ladder read it."""

    def test_detection_equals_one_search_on_the_capped_history(self):
        rng, checked = np.random.default_rng(31), 0
        for _ in range(24):
            g = random_strongly_connected(rng, int(rng.integers(3, 25)))
            n = g.node_count
            x0 = np.arange(n, dtype=float) if rng.integers(2) else rng.normal(size=n)
            try:
                res = finite_time_average(g, x0)
            except DegenerateInitializationError:
                continue   # a missed mode: the window check raises
            hist = _ratio_history(out_weight_matrix(g), _rows(g, x0)[0], 4 * n + 2)
            for shift, degrees in ((1, res.degrees), (0, res.distance_degrees)):
                found = _first_defective(lambda r: hist[: r + 1], shift, DEFAULT_REL_TOL)
                assert degrees == [f[0] - 1 for f in found]
            checked += 1
        assert checked >= 20

    def test_each_width_is_tested_once_per_node(self, monkeypatch):
        import ftcc.consensus as consensus

        passes, tested = [], []

        def first(history, shift, rel_tol):
            passes.append(shift)
            return _first_defective(history, shift, rel_tol)

        def deficient(hist, shift, w, nodes, rel_tol):
            tested.extend((len(passes), w, j) for j in nodes.tolist())
            return _deficient(hist, shift, w, nodes, rel_tol)

        monkeypatch.setattr(consensus, "_first_defective", first)
        monkeypatch.setattr(consensus, "_deficient", deficient)
        g = random_strongly_connected(np.random.default_rng(7), 16)
        res = finite_time_average(g, np.arange(16.0))
        # two square searches (shift 1, then 0), then the kernel pass
        assert passes == [1, 0, 1]
        assert len(tested) == len(set(tested))
        for search, degrees in ((1, res.degrees), (2, res.distance_degrees)):
            for j, m in enumerate(degrees):
                # node j is tested at every width up to its first defective one, and no further
                widths = sorted(w for s, w, i in tested if (s, i) == (search, j))
                assert widths == list(range(1, m + 2))

    @pytest.mark.parametrize("cap", [3, 7, 8, 10])
    def test_a_degenerate_error_carries_the_history_to_the_cap(self, cap):
        # cap 3 stops detection; from cap 7 on detection ends and the ladder passes the cap
        g = digraph_from_weight_matrix(FOURNODE_P)
        x0 = [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(DegenerateInitializationError, match=f"within {cap} rounds") as err:
            finite_time_average(g, x0, weights=FOURNODE_P, round_cap=cap)
        hist = _ratio_history(FOURNODE_P, _rows(g, x0)[0], cap)[..., :-1].swapaxes(0, 1)
        assert err.value.history.shape == (4, cap + 1, 1)
        assert err.value.history.tobytes() == hist.tobytes()

    def test_complete48_builds_a_few_rounds(self, monkeypatch):
        import ftcc.consensus as consensus

        built = []

        def counted(pw, rows, rounds):
            built.append(rounds)
            return _ratio_history(pw, rows, rounds)

        monkeypatch.setattr(consensus, "_ratio_history", counted)
        res = finite_time_average(complete_digraph(48), np.arange(48.0))
        assert res.rounds_used == 3
        assert sum(built) <= 8   # the cap is 4 * 48 + 2 = 194 rounds


class TestFixedRounds:
    def test_all_equal_estimates(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        vals = np.tile([1.0, -2.0], (4, 1))
        kernels = stored_kernels(g, FOURNODE_P)
        mu = agree(g, vals, 11, kernels, weights=FOURNODE_P)
        assert np.allclose(mu, [1.0, -2.0], atol=1e-12)

    def test_three_cycle_scalar(self):
        g = three_cycle()
        mu = agree(g, [0.0, 3.0, 6.0], 11, stored_kernels(g))
        assert np.allclose(mu[:, 0], 3.0, atol=1e-10)

    def test_all_zero_estimates(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        kernels = stored_kernels(g, FOURNODE_P)
        mu = agree(
            g, np.zeros((4, 2)), 11, kernels, weights=FOURNODE_P
        )
        assert np.allclose(mu, 0.0)

    def test_insufficient_rounds_raise(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        kernels = stored_kernels(g, FOURNODE_P)
        with pytest.raises(DegenerateInitializationError):
            agree(
                g, [0.0, 1.0, 2.0, 3.0], 3, kernels, weights=FOURNODE_P
            )


both_averages = pytest.mark.parametrize(
    "average",
    [
        lambda g, vals: finite_time_average(g, vals, weights=FOURNODE_P),
        lambda g, vals: agree(g, vals, 11, stored_kernels(g, FOURNODE_P), weights=FOURNODE_P),
    ],
    ids=["finite_time_average", "exact_average_fixed_rounds"],
)


@both_averages
def test_zero_width_payload_rejected(average):
    g = digraph_from_weight_matrix(FOURNODE_P)
    with pytest.raises(InvalidInputError, match="at least one entry per node"):
        average(g, np.zeros((4, 0)))


@both_averages
def test_row_count_is_named(average):
    g = digraph_from_weight_matrix(FOURNODE_P)
    with pytest.raises(InvalidInputError, match="^need one initial value per node, got 3 for N=4$"):
        average(g, np.zeros((3, 1)))


class TestStoredKernels:
    """Agreements reuse the bootstrap kernels under a window post-condition."""

    def test_matches_the_mean_on_random_digraphs(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = random_strongly_connected(rng, int(rng.integers(2, 11)))
            boot = finite_time_average(g, np.arange(g.node_count, dtype=float))
            signs = rng.choice([-1.0, 1.0], size=(g.node_count, 3))
            xhat = signs * 10.0 ** rng.uniform(-6, 6, size=(g.node_count, 3))
            mu = agree(g, xhat, boot.m_bar, boot.kernels)
            err = np.max(np.abs(mu - xhat.mean(axis=0)))
            assert err <= 1e-9 * np.max(np.abs(xhat))

    def test_no_rank_test_runs(self, monkeypatch):
        import ftcc.consensus as consensus

        g = digraph_from_weight_matrix(FOURNODE_P)
        kernels = stored_kernels(g, FOURNODE_P)

        def forbidden(*args, **kwargs):
            raise AssertionError("an agreement ran a rank test")

        for name in ("_first_defective", "_deficient", "common_kernel_vector"):
            monkeypatch.setattr(consensus, name, forbidden)
        monkeypatch.setattr(np.linalg, "svd", forbidden)   # every rank test is an SVD
        mu = agree(
            g, [0.0, 1.0, 2.0, 3.0], 11, kernels, weights=FOURNODE_P
        )
        assert np.allclose(mu, 1.5, atol=1e-12)

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_paper_4node_in_every_precision(self, precision, paper_scenario, paper_init):
        cfg = paper_scenario
        rng = np.random.default_rng(5)
        xhat = rng.normal(size=(4, 8)) * 10.0 ** rng.uniform(-6, 6, size=(4, 8))
        vals = in_arithmetic(xhat, PRECISIONS[precision])
        mu = agree(
            cfg.graph, vals, paper_init.m_bar, paper_init.kernels, weights=cfg.weights
        )
        assert all(
            isinstance(v, TestPrecision.ELEMENT_TYPE[precision]) for v in mu.ravel()
        )
        err = np.max(np.abs(mu.astype(float) - xhat.mean(axis=0)))
        assert err <= 1e-9 * np.max(np.abs(xhat))

    def test_missed_mode_raises_instead_of_a_wrong_average(self):
        # on this 6-cycle the node ids have no component along the
        # 0.75 +- 0.43i eigenvector pair, so the bootstrap kernels miss it
        g = Digraph(6, ((0, 4), (4, 2), (2, 3), (3, 1), (1, 5), (5, 0)))
        boot = finite_time_average(g, np.arange(6, dtype=float))
        assert [len(beta) for beta in boot.kernels] == [3] * 6
        xhat = np.random.default_rng(0).normal(size=6)
        with pytest.raises(DegenerateInitializationError, match="consecutive windows"):
            agree(g, xhat, boot.m_bar, boot.kernels)

    def test_width_one_kernel_raises(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        with pytest.raises(DegenerateInitializationError, match="node 0") as err:
            agree(
                g, [0.0, 1.0, 2.0, 3.0], 11, [np.ones(1)] * 4, weights=FOURNODE_P
            )
        assert err.value.history is not None

    def test_error_carries_every_numerator_history(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        vals = np.arange(8.0).reshape(4, 2)
        with pytest.raises(DegenerateInitializationError) as err:
            agree(g, vals, 11, [np.ones(1)] * 4, weights=FOURNODE_P)
        history = err.value.history
        assert history.shape == (4, 12, 2)   # (N, rounds+1, n)
        assert np.array_equal(history[:, 0], vals)
        assert np.allclose(history[:, 1], FOURNODE_P @ vals)

    def test_budget_without_an_earlier_window_raises(self):
        g = digraph_from_weight_matrix(FOURNODE_P)
        kernels = [np.array([0.5, -1.5, 1.0])] * 4
        with pytest.raises(DegenerateInitializationError, match="no earlier window"):
            agree(
                g, [0.0, 1.0, 2.0, 3.0], 3, kernels, weights=FOURNODE_P
            )


class TestPrecision:
    """Consensus computes in the arithmetic of the values it is given."""

    ELEMENT_TYPE = {"double": np.float64, "extended": np.longdouble, "quad": Decimal}

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_non_finite_estimate_rejected(self, precision):
        g = digraph_from_weight_matrix(FOURNODE_P)
        vals = in_arithmetic([0.0, np.nan, 2.0, 3.0], PRECISIONS[precision])
        kernels = stored_kernels(g, FOURNODE_P)
        with pytest.raises(InvalidInputError):
            agree(g, vals, 11, kernels, weights=FOURNODE_P)

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_estimate_rejected(self, precision, value):
        g = digraph_from_weight_matrix(FOURNODE_P)
        rows = [[0.0, 1.0], [value, 2.0], [2.0, 3.0], [3.0, 4.0]]
        vals = in_arithmetic(rows, PRECISIONS[precision])
        kernels = stored_kernels(g, FOURNODE_P)
        with pytest.raises(InvalidInputError, match="finite"):
            agree(g, vals, 11, kernels, weights=FOURNODE_P)

    @pytest.mark.parametrize("precision", ["extended", "quad"])
    def test_values_past_the_float_range_rejected(self, precision):
        # the rank monitor reads the iterates in float, where 1e400 is inf
        g = three_cycle()
        if precision == "extended":
            vals = np.array(["1e400", "-1e400", "3"], dtype=np.longdouble)
        else:
            vals = np.array([Decimal("1e400"), Decimal("-1e400"), Decimal(3)], dtype=object)
        with pytest.raises(InvalidInputError, match="finite"):
            finite_time_average(g, vals)
        with pytest.raises(InvalidInputError, match="finite"):
            agree(g, vals, 5, stored_kernels(g))

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_averages_keep_the_input_arithmetic(self, precision):
        g = digraph_from_weight_matrix(FOURNODE_P)
        rows = [[0.0, 1.0], [1.0, -2.0], [2.0, 0.5], [3.0, 4.0]]
        vals = in_arithmetic(rows, PRECISIONS[precision])
        kernels = stored_kernels(g, FOURNODE_P)
        mu = agree(g, vals, 11, kernels, weights=FOURNODE_P)
        assert mu.shape == (4, 2)
        assert all(isinstance(v, self.ELEMENT_TYPE[precision]) for v in mu.ravel())
        assert np.allclose(mu.astype(float), [1.5, 0.875], atol=1e-10)
