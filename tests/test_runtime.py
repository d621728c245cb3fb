import collections
import dataclasses
import decimal

import numpy as np
import pytest

from ftcc import consensus, plant, runtime
from ftcc.consensus import in_arithmetic
from ftcc.exceptions import DegenerateInitializationError, InvalidInputError
from ftcc.graph import Digraph, out_weight_matrix
from ftcc.linalg import is_schur_stable
from ftcc.plant import LtiSystem
from ftcc.runtime import _estimate_and_control, _step_matrices, initialize, run_closed_loop
from ftcc.scenario import PRECISIONS, ScenarioConfig, load_scenario

from conftest import (
    agree,
    random_joint_system,
    random_strongly_connected,
    stored_kernels,
    targets_for_spectrum,
)


def random_scenario(seed: int, n_agents: int = 5, n: int = 5) -> ScenarioConfig:
    rng = np.random.default_rng(seed)
    g = random_strongly_connected(rng, n_agents)
    sys = random_joint_system(rng, n_agents, n)
    return ScenarioConfig(
        name=f"random-{seed}",
        graph=g,
        weights=out_weight_matrix(g),
        plant=sys,
        controller_targets=tuple(targets_for_spectrum(rng, sys.a)),
        observer_targets=tuple(targets_for_spectrum(rng, sys.a)),
        x0=rng.normal(size=n),
        horizon=20,
        taus=(1.0,),
        precision="double",
    )


class TestInitialize:
    def test_fournode_scenario(self, paper_scenario, paper_init):
        assert paper_init.m_bar == 11
        # distance-valid bound: covers the true diameter 2 (the weight matrix
        # carries a dead-beat mode, so the unshifted degree is 3)
        assert paper_init.d_prime == 3
        assert paper_init.leader == 0
        assert np.allclose(
            sorted(paper_init.controller_spectrum.real),
            [0.60, 0.61, 0.62, 0.63, 0.64, 0.65, 0.66, 0.67],
            atol=1e-6,
        )
        assert np.allclose(
            sorted(paper_init.observer_spectrum.real),
            [0.20, 0.21, 0.22, 0.23, 0.24, 0.25, 0.26, 0.27],
            atol=1e-6,
        )

    def test_single_node_degenerate_pass(self):
        sys = LtiSystem(
            a=np.array([[1.5, 1.0], [0.0, 0.5]]),
            b_list=(np.eye(2),),
            c_list=(np.eye(2),),
        )
        g = Digraph(1, ())
        cfg = ScenarioConfig(
            name="solo",
            graph=g,
            weights=out_weight_matrix(g),
            plant=sys,
            controller_targets=(0.1, 0.2),
            observer_targets=(0.3, 0.4),
            horizon=5,
            taus=(1.0,),
        )
        init = initialize(cfg)
        assert init.leader == 0
        assert init.m_bar == 3
        assert is_schur_stable(sys.a + init.f_control)

    def test_random_scenarios_both_schur(self):
        for seed in (1, 2, 3):
            cfg = random_scenario(seed)
            init = initialize(cfg)
            a = cfg.plant.a
            n_agents = cfg.graph.node_count
            assert is_schur_stable(a + init.f_control)
            obs = a - sum(
                l @ c for l, c in zip(init.l_gains, cfg.plant.c_list)
            ) / n_agents
            assert is_schur_stable(obs)

    def test_token_f_matches_gain_sums(self, paper_scenario, paper_init):
        # the token's accumulated matrix is exactly the sum of contributions
        sys = paper_scenario.plant
        f_ctrl = sum(b @ k for b, k in zip(sys.b_list, paper_init.k_gains))
        assert np.array_equal(paper_init.f_control, f_ctrl)
        summand = sum(
            l @ c for l, c in zip(paper_init.l_gains, sys.c_list)
        ) / paper_scenario.graph.node_count
        # (1/N) sum_i L_i C_i is recoverable from the dual token's F
        assert np.allclose(-paper_init.observer_token.f.T, summand, atol=1e-14)


class TestAgreementPhase:
    """One agreement of the closed loop: a fixed budget of m_bar rounds."""

    def test_equal_estimates(self, paper_scenario):
        cfg = paper_scenario
        xhat = np.tile([2.0, -1.0], (4, 1))
        kernels = stored_kernels(cfg.graph, cfg.weights)
        mu = agree(cfg.graph, xhat, 11, kernels, weights=cfg.weights)
        assert np.allclose(mu, [2.0, -1.0], atol=1e-12)

    def test_three_cycle_scalar(self):
        g = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        p = out_weight_matrix(g)
        mu = agree(
            g, np.array([[0.0], [3.0], [6.0]]), 11, stored_kernels(g, p), weights=p
        )
        assert np.allclose(mu, 3.0, atol=1e-10)

    def test_agreement_spread_invariant(self, paper_scenario):
        rng = np.random.default_rng(2)
        cfg = paper_scenario
        xhat = rng.normal(size=(4, 8))
        kernels = stored_kernels(cfg.graph, cfg.weights)
        mu = agree(cfg.graph, xhat, 11, kernels, weights=cfg.weights)
        mean = xhat.mean(axis=0)
        scale = max(1.0, float(np.linalg.norm(mean)))
        for j in range(4):
            assert np.linalg.norm(mu[j] - mean) <= 1e-8 * scale


class TestStep:
    """The loop's estimation-control update, with the designed gains."""

    def test_error_recursion_identities(self, paper_scenario, paper_init):
        cfg, init = paper_scenario, paper_init
        sys = cfg.plant
        rng = np.random.default_rng(3)
        x = rng.normal(size=8)
        xbar = rng.normal(size=8)           # common agreed average
        matrices = _step_matrices(sys, init.k_gains, init.l_gains, init.f_control, float)
        x2, xhat2 = _estimate_and_control(*matrices, x, np.tile(xbar, (4, 1)))
        ebar = x - xbar
        n_agents = 4
        m_avg = sys.a - sum(
            l @ c for l, c in zip(init.l_gains, sys.c_list)
        ) / n_agents
        ebar_next = x2 - np.mean(xhat2, axis=0)
        assert np.linalg.norm(ebar_next - m_avg @ ebar) <= 1e-10 * max(
            1.0, np.linalg.norm(ebar)
        )
        for i in range(n_agents):
            m_i = sys.a - init.l_gains[i] @ sys.c_list[i]
            assert np.linalg.norm((x2 - xhat2[i]) - m_i @ ebar) <= 1e-10 * max(
                1.0, np.linalg.norm(ebar)
            )

    def test_perfect_agreement_zero_error(self, paper_scenario, paper_init):
        cfg, init = paper_scenario, paper_init
        sys = cfg.plant
        rng = np.random.default_rng(4)
        x = rng.normal(size=8)
        matrices = _step_matrices(sys, init.k_gains, init.l_gains, init.f_control, float)
        x2, xhat2 = _estimate_and_control(*matrices, x, np.tile(x, (4, 1)))   # agreement = truth
        for xh in xhat2:
            assert np.linalg.norm(x2 - xh) < 1e-12 * max(1.0, np.linalg.norm(x2))


def update_by_agent(a, b_list, c_list, k_gains, l_gains, f_control, x, xbar_nodes):
    """The agent-by-agent update the batched one replaced.

    u_i = K_i xbar_i; x' = A x + sum_i B_i u_i; and with y_i = C_i x,
    xhat'_i = A xbar_i + L_i (y_i - C_i xbar_i) + F xbar_i.
    """
    n_agents = len(k_gains)
    ys = [c @ x for c in c_list]
    us = [k_gains[i] @ xbar_nodes[i] for i in range(n_agents)]
    x_next = a @ x
    for b, u in zip(b_list, us):
        x_next = x_next + b @ u
    xhat_next = []
    for i in range(n_agents):
        innovation = ys[i] - c_list[i] @ xbar_nodes[i]
        xhat_next.append(
            a @ xbar_nodes[i] + l_gains[i] @ innovation + f_control @ xbar_nodes[i]
        )
    return x_next, np.stack(xhat_next)


class TestBatchedStep:
    """The batched update against the agent-by-agent one, in every precision.

    The two differ in association only (B_i K_i and L_i C_i formed once,
    A + F summed once), so each entry agrees to a few units of roundoff of
    the sum of its terms' magnitudes: measured at most 1.6 units; the
    stated bound is 8.
    """

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_matches_the_agent_loop(self, precision, paper_scenario, paper_init):
        sys, init = paper_scenario.plant, paper_init
        dtype = PRECISIONS[precision]
        rng = np.random.default_rng(12)
        mags = np.abs
        with decimal.localcontext(decimal.Context(prec=runtime.QUAD_DIGITS)):
            eps = 10.0 ** (1 - runtime.QUAD_DIGITS) if dtype == object else np.finfo(dtype).eps

            def cast(m):
                return in_arithmetic(m, dtype)

            matrices = _step_matrices(sys, init.k_gains, init.l_gains, init.f_control, dtype)
            cast_sys = (
                cast(sys.a), [cast(b) for b in sys.b_list], [cast(c) for c in sys.c_list],
                [cast(k) for k in init.k_gains], [cast(l) for l in init.l_gains],
                cast(init.f_control),
            )
            for _ in range(5):
                x = rng.normal(size=8) * 10.0 ** rng.uniform(-3, 3)
                xbar = x + rng.normal(size=(4, 8)) * 10.0 ** rng.uniform(-6, 0)
                new = _estimate_and_control(*matrices, cast(x), cast(xbar))
                old = update_by_agent(*cast_sys, cast(x), cast(xbar))
                # |terms|: the roundoff scale of each entry of the two sums
                x_terms = mags(sys.a) @ mags(x) + sum(
                    mags(b) @ mags(k) @ mags(xb)
                    for b, k, xb in zip(sys.b_list, init.k_gains, xbar)
                )
                xhat_terms = np.stack([
                    (mags(sys.a) + mags(init.f_control)) @ mags(xb)
                    + mags(l) @ mags(c) @ (mags(x) + mags(xb))
                    for l, c, xb in zip(init.l_gains, sys.c_list, xbar)
                ])
                for got, want, terms in zip(new, old, (x_terms, xhat_terms)):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert np.all(np.abs(got - want).astype(float) <= 8 * eps * terms)


class TestPreparedOnce:
    """Per-run work (P's validation, every conversion into the loop
    arithmetic) is done once per run, whatever the horizon."""

    def test_counts_do_not_grow_with_the_horizon(self, monkeypatch, paper_scenario, paper_init):
        calls = collections.Counter()
        targets = (
            (consensus, "validate_weights"),
            (consensus, "in_arithmetic"),
            (runtime, "in_arithmetic"),
            (runtime, "exact_average_fixed_rounds"),
        )
        for module, name in targets:
            def counted(*args, _fn=getattr(module, name), _key=(module.__name__, name), **kw):
                calls[_key] += 1
                return _fn(*args, **kw)

            monkeypatch.setattr(module, name, counted)
        per_horizon = {}
        for horizon in (5, 1):
            calls.clear()
            run_closed_loop(paper_scenario, paper_init, horizon=horizon)
            # one traced consensus.agree span per step
            assert calls.pop(("ftcc.runtime", "exact_average_fixed_rounds")) == horizon + 1
            per_horizon[horizon] = dict(calls)
        assert per_horizon[5][("ftcc.consensus", "validate_weights")] == 1
        assert per_horizon[5] == per_horizon[1]

    def test_the_plant_is_checked_once(self, monkeypatch):
        # at construction: initialize and the loop take a ScenarioConfig as valid
        calls = []

        def counted(*args, _fn=plant.joint_rank_checks, **kw):
            calls.append(args)
            return _fn(*args, **kw)

        monkeypatch.setattr(plant, "joint_rank_checks", counted)
        cfg = load_scenario("paper-4node")
        run_closed_loop(cfg, initialize(cfg), horizon=2)
        assert len(calls) == 1


class TestClosedLoop:
    def test_horizon_zero_single_row(self, paper_scenario, paper_init):
        trace = run_closed_loop(paper_scenario, paper_init, horizon=0, tau=1.0)
        assert trace.steps == [0]
        assert trace.times == [0.0]

    def test_normalized_time_and_rounds(self, paper_scenario, paper_init):
        trace = run_closed_loop(paper_scenario, paper_init, horizon=3, tau=0.5)
        assert trace.times == [k * (11 * 0.5 + 1.0) for k in range(4)]
        # the widest stored kernel has width 3: its square Hankel completes at 6
        assert trace.rounds_used == [6] * 4

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_tau_must_be_positive_and_finite(self, tau, paper_scenario, paper_init):
        with pytest.raises(InvalidInputError, match="tau must be positive and finite"):
            run_closed_loop(paper_scenario, paper_init, horizon=3, tau=tau)

    @pytest.mark.parametrize(
        "setting, message",
        [({"tau": -1.0}, "tau must be positive"), ({"horizon": -1}, "horizon must be")],
    )
    def test_settings_are_checked_before_set_up(
        self, setting, message, paper_scenario, monkeypatch
    ):
        def no_set_up(cfg):
            raise AssertionError("initialize ran")

        monkeypatch.setattr(runtime, "initialize", no_set_up)
        with pytest.raises(InvalidInputError, match=message):
            run_closed_loop(paper_scenario, None, **setting)

    def test_tau_only_rescales_time(self, paper_scenario, paper_init):
        t1 = run_closed_loop(paper_scenario, paper_init, horizon=5, tau=0.1)
        t2 = run_closed_loop(paper_scenario, paper_init, horizon=5, tau=10.0)
        for k in range(6):
            assert np.array_equal(t1.x[k], t2.x[k])
            assert np.array_equal(t1.ebar[k], t2.ebar[k])
        assert t1.times != t2.times

    def test_determinism(self):
        cfg = random_scenario(11)
        a = run_closed_loop(cfg, horizon=8, tau=1.0)
        b = run_closed_loop(cfg, horizon=8, tau=1.0)
        for k in range(9):
            assert np.array_equal(a.x[k], b.x[k])
            assert np.array_equal(a.xhat[k], b.xhat[k])

    def test_ebar_equals_mean_error(self, paper_scenario, paper_init):
        trace = run_closed_loop(paper_scenario, paper_init, horizon=10, tau=1.0)
        for k in range(11):
            mean_err = trace.errors[k].mean(axis=0)
            assert np.linalg.norm(trace.ebar[k] - mean_err) <= 1e-12 * max(
                1.0, np.linalg.norm(mean_err)
            )

    def test_errors_are_the_recorded_differences(self, paper_scenario, paper_init):
        # in double the loop arithmetic is float64, so each error row is the
        # difference of the recorded rows, bit for bit
        cfg = dataclasses.replace(paper_scenario, precision="double")
        trace = run_closed_loop(cfg, paper_init, horizon=10, tau=1.0)
        assert np.array_equal(trace.ebar, trace.x - trace.xbar_nodes[:, 0])
        assert np.array_equal(trace.errors, trace.x[:, None] - trace.xhat)

    def test_separation_state_and_error_decay(self):
        cfg = random_scenario(21)
        trace = run_closed_loop(cfg, horizon=60, tau=1.0)
        assert trace.norm_x[-1] < 1e-4 * max(1.0, trace.norm_x[0])
        assert trace.norm_ebar[-1] < 1e-6 * max(1.0, trace.norm_ebar[0])

    def test_precision_backends_agree(self, paper_scenario, paper_init):
        import dataclasses

        traces = {}
        for precision in ("double", "extended", "quad"):
            cfg = dataclasses.replace(paper_scenario, precision=precision)
            traces[precision] = run_closed_loop(cfg, paper_init, horizon=6, tau=1.0)
        for k in range(7):
            for precision in ("extended", "quad"):
                dev = np.max(
                    np.abs(traces[precision].x[k] - traces["double"].x[k])
                )
                assert dev <= 1e-9 * max(1.0, np.max(np.abs(traces["double"].x[k])))


class TestQuadArithmetic:
    """Quad is the standard library's decimal at QUAD_DIGITS significant digits."""

    def test_trace_matches_sixty_digits(self, paper_scenario, paper_init, monkeypatch):
        # measured 9.3e-36; mpmath at 120 against 200 bits gave 2.1e-35
        quad = run_closed_loop(paper_scenario, paper_init)
        monkeypatch.setattr(runtime, "QUAD_DIGITS", 60)
        wide = run_closed_loop(paper_scenario, paper_init)
        for k in quad.steps:
            gap = np.max(np.abs(quad.ebar[k] - wide.ebar[k]))
            assert gap <= 1e-34 * np.max(np.abs(wide.x[k]))

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    @pytest.mark.parametrize("caller_prec", [None, 50])
    def test_caller_context_is_left_alone(self, paper_scenario, paper_init, caller_prec, precision):
        # every precision runs in the local context; unit kernels fail the
        # agreement's window check inside the loop
        cfg = dataclasses.replace(paper_scenario, precision=precision)
        bad = dataclasses.replace(paper_init, kernels=[np.ones(1)] * 4)
        with decimal.localcontext() as ctx:
            ctx.prec = caller_prec or ctx.prec
            before = decimal.getcontext().prec
            run_closed_loop(cfg, paper_init, horizon=1)
            assert decimal.getcontext().prec == before
            with pytest.raises(DegenerateInitializationError, match="consecutive windows differ"):
                run_closed_loop(cfg, bad, horizon=1)
            assert decimal.getcontext().prec == before
