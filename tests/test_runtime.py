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


def lone_node_scenario(precision: str = "double") -> ScenarioConfig:
    """One agent that actuates and senses both states of an unstable plant."""
    g = Digraph(1, ())
    return ScenarioConfig(
        name="solo",
        graph=g,
        weights=out_weight_matrix(g),
        plant=LtiSystem(
            a=np.array([[1.5, 1.0], [0.0, 0.5]]), b_list=(np.eye(2),), c_list=(np.eye(2),)
        ),
        controller_targets=(0.1, 0.2),
        observer_targets=(0.3, 0.4),
        horizon=5,
        taus=(1.0,),
        precision=precision,
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
        cfg = lone_node_scenario()
        init = initialize(cfg)
        assert init.leader == 0
        assert init.m_bar == 3
        assert is_schur_stable(cfg.plant.a + init.f_control)

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


def update_inputs(case, sys, init):
    """The update's fixed inputs for ``case``: an empty row in a map, or an agent with no input.

    "paper" has a zero gain row already: K_4 = 0, so u_4 is a row of G1 with
    no entry (and L_3 = 0, so no output reads y_3).  "unactuated agent"
    gives agent 2 a B_2 of shape (n, 0) and no u_2.  "zero A row" zeros
    row 6 of A, an unactuated state, so x'_6 and agent 3's xhat'_3,6
    (F_6 = 0 and L_3 = 0) are rows of G2 with no entry.
    """
    a, b_list, k_gains = sys.a, list(sys.b_list), list(init.k_gains)
    if case == "unactuated agent":
        b_list[1], k_gains[1] = b_list[1][:, :0], k_gains[1][:0]
    if case == "zero A row":
        a = a.copy()
        a[6] = 0
    return LtiSystem(a, b_list, sys.c_list), k_gains, init.l_gains, init.f_control


class TestBatchedStep:
    """The batched update against the agent-by-agent one, in every precision.

    The two differ in association only (A + F summed once, and x' summing
    the A terms before the B terms), so each entry agrees to a few units of
    roundoff of the sum of its terms' magnitudes: measured at most 1.1
    units; the stated bound is 8.  A row with no terms must come out 0.
    """

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_matches_the_agent_loop(self, precision, paper_scenario, paper_init):
        dtype = PRECISIONS[precision]
        mags = np.abs
        with decimal.localcontext(decimal.Context(prec=runtime.QUAD_DIGITS)):
            eps = 10.0 ** (1 - runtime.QUAD_DIGITS) if dtype == object else np.finfo(dtype).eps

            def cast(m):
                return in_arithmetic(m, dtype)

            for case in ("paper", "unactuated agent", "zero A row"):
                sys, k_gains, l_gains, f_control = update_inputs(
                    case, paper_scenario.plant, paper_init
                )
                matrices = _step_matrices(sys, k_gains, l_gains, f_control, dtype)
                cast_sys = (
                    cast(sys.a), [cast(b) for b in sys.b_list], [cast(c) for c in sys.c_list],
                    [cast(k) for k in k_gains], [cast(l) for l in l_gains], cast(f_control),
                )
                rng = np.random.default_rng(12)
                for _ in range(5):
                    x = rng.normal(size=8) * 10.0 ** rng.uniform(-3, 3)
                    xbar = x + rng.normal(size=(4, 8)) * 10.0 ** rng.uniform(-6, 0)
                    new = _estimate_and_control(*matrices, cast(x), cast(xbar))
                    old = update_by_agent(*cast_sys, cast(x), cast(xbar))
                    # |terms|: the roundoff scale of each entry of the two sums
                    x_terms = mags(sys.a) @ mags(x) + sum(
                        mags(b) @ mags(k) @ mags(xb) for b, k, xb in zip(sys.b_list, k_gains, xbar)
                    )
                    xhat_terms = np.stack([
                        (mags(sys.a) + mags(f_control)) @ mags(xb)
                        + mags(l) @ mags(c) @ (mags(x) + mags(xb))
                        for l, c, xb in zip(l_gains, sys.c_list, xbar)
                    ])
                    for got, want, terms in zip(new, old, (x_terms, xhat_terms)):
                        assert got.dtype == want.dtype and got.shape == want.shape
                        assert np.all(np.abs(got - want).astype(float) <= 8 * eps * terms)

    def test_the_maps_hold_only_nonzero_factors(self, paper_scenario, paper_init):
        # G1 holds K_i and C_i; G2 holds A, B_i, L_i and N copies of A + F.  Each
        # keeps only their nonzero entries, plus one zero filler per row that
        # nothing else reaches (u_4, as K_4 = 0): 29 and 190 Decimal products
        # per step, where the dense blocks took 832
        sys, init = paper_scenario.plant, paper_init
        with decimal.localcontext(decimal.Context(prec=runtime.QUAD_DIGITS)):
            maps = _step_matrices(sys, init.k_gains, init.l_gains, init.f_control, object)
        fillers = 0
        for _, values, starts in maps:
            lone = np.diff([*starts, len(values)]) == 1
            zeros = np.count_nonzero(values == 0)
            assert zeros == np.count_nonzero(values[starts[lone]] == 0)   # each alone in its row
            fillers += zeros
        factors = [*init.k_gains, *sys.c_list, sys.a, *sys.b_list, *init.l_gains]
        nonzero = sum(map(np.count_nonzero, factors))
        nonzero += 4 * np.count_nonzero(sys.a + init.f_control)
        assert [len(values) for _, values, _ in maps] == [29, 190]
        assert fillers == 1 and 29 + 190 == nonzero + fillers


def with_agreement(cfg, init, rounds=None, dtype=float, kernels=None, rel_tol=None, weights=None):
    """``init`` holding an Agreement prepared for the given changes to its own."""
    agreement = consensus.agreement_maps(
        in_arithmetic(cfg.weights if weights is None else weights, dtype),
        init.m_bar if rounds is None else rounds,
        init.kernels if kernels is None else kernels,
        cfg.rank_rel_tol if rel_tol is None else rel_tol,
    )
    return dataclasses.replace(init, agreement=agreement)


def counting(monkeypatch, module, name) -> list:
    """Count the calls of ``module.name`` made through ``module``."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestPreparedOnce:
    """Per-run work (every conversion into the loop arithmetic) is done once
    per run, whatever the horizon; P, checked by the config, is not checked again.
    The agreement's maps are the bootstrap's unless they are not for the loop's
    arithmetic, P, tolerance and m_bar rounds."""

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
        assert per_horizon[5].get(("ftcc.consensus", "validate_weights"), 0) == 0
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

    @pytest.mark.parametrize("horizon", [1, 5])
    @pytest.mark.parametrize(
        "precision, maps_built", [("double", 0), ("extended", 1), ("quad", 1)]
    )
    def test_preparation_calls(self, monkeypatch, paper_scenario, paper_init, precision,
                               maps_built, horizon):
        cfg = dataclasses.replace(paper_scenario, precision=precision)
        maps = counting(monkeypatch, runtime, "agreement_maps")
        steps = counting(monkeypatch, runtime, "_step_matrices")
        run_closed_loop(cfg, paper_init, horizon=horizon)
        assert (len(maps), len(steps)) == (maps_built, 1)

    @pytest.mark.parametrize(
        "change",
        [
            lambda cfg, init: {"rounds": init.m_bar + 2},   # a ladder that stopped off m_bar
            lambda cfg, init: {"dtype": np.longdouble},
            lambda cfg, init: {"rel_tol": cfg.rank_rel_tol / 10},
            lambda cfg, init: {"weights": (cfg.weights + np.eye(len(cfg.weights))) / 2},
        ],
        ids=["m_bar + 2 rounds", "long double", "another rel_tol", "another P"],
    )
    def test_another_agreement_is_rebuilt(self, monkeypatch, paper_scenario, paper_init, change):
        # the loop builds its own maps, so the trace is the normal run's, bit for bit
        cfg = dataclasses.replace(paper_scenario, precision="double")
        want = run_closed_loop(cfg, paper_init, horizon=5)
        other = with_agreement(cfg, paper_init, **change(cfg, paper_init))
        maps = counting(monkeypatch, runtime, "agreement_maps")
        got = run_closed_loop(cfg, other, horizon=5)
        assert len(maps) == 1
        for field in ("x", "xbar_nodes", "xhat", "ebar", "errors"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got.rounds_used == want.rounds_used


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
        [
            ({"tau": -1.0}, "tau must be positive"),
            ({"horizon": -1}, "horizon must be"),
            # the scenario's number rules: no bool, string, complex or fraction
            ({"horizon": True}, "horizon must be a whole number"),
            ({"horizon": 2.5}, "horizon must be a whole number"),
            ({"horizon": "2"}, "horizon must be a whole number"),
            ({"tau": True}, "tau must be a number"),
            ({"tau": "1"}, "tau must be a number"),
            ({"tau": 1 + 0j}, "tau must be a number"),
        ],
    )
    def test_settings_are_checked_before_set_up(
        self, setting, message, paper_scenario, monkeypatch
    ):
        def no_set_up(cfg):
            raise AssertionError("initialize ran")

        monkeypatch.setattr(runtime, "initialize", no_set_up)
        with pytest.raises(InvalidInputError, match=message):
            run_closed_loop(paper_scenario, None, **setting)

    def test_whole_float_horizon_is_an_int(self, paper_scenario, paper_init):
        # as in a scenario file, where "horizon": 60.0 is 60
        trace = run_closed_loop(paper_scenario, paper_init, horizon=2.0, tau=1)
        assert trace.steps == [0, 1, 2] and trace.times == [0.0, 12.0, 24.0]

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_single_node_end_to_end(self, precision):
        cfg = lone_node_scenario(precision)
        init = initialize(cfg)
        assert (init.m_bar, init.d_prime) == (3, 0)
        trace = run_closed_loop(cfg, init)
        assert len(trace.x) == cfg.horizon + 1
        assert trace.rounds_used == [2] * (cfg.horizon + 1)   # the lone kernel has width 1

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


def recorded_by_array(cfg, init, horizon):
    """The loop's five trace arrays, each step's five arrays converted one by one.

    The reference for the record: the same set-up, agreement and update,
    then ``np.asarray(v, float)`` on each array and one stack each.
    """
    dtype = PRECISIONS[cfg.precision]
    n_agents, n = cfg.graph.node_count, cfg.plant.n
    with decimal.localcontext(decimal.Context(prec=runtime.QUAD_DIGITS)):
        x = in_arithmetic(np.ones(n) if cfg.x0 is None else cfg.x0, dtype)
        xhat = in_arithmetic(np.zeros((n_agents, n)) if cfg.xhat0 is None else cfg.xhat0, dtype)
        matrices = _step_matrices(cfg.plant, init.k_gains, init.l_gains, init.f_control, dtype)
        agreement = consensus.agreement_maps(
            in_arithmetic(cfg.weights, dtype), init.m_bar, init.kernels, cfg.rank_rel_tol
        )
        rows = []
        for k in range(horizon + 1):
            xbar = consensus.exact_average_fixed_rounds(agreement, xhat)
            rows.append([np.asarray(v, float) for v in (x, xbar, xhat, x - xbar[0], x - xhat)])
            if k < horizon:
                x, xhat = _estimate_and_control(*matrices, x, xbar)
    return [np.stack(arrays) for arrays in zip(*rows)]


class TestRecordLayout:
    """Each step is written into row k of one float64 record whose slices
    [x | xbar | xhat | x - xbar_0 | x - xhat] are the trace's arrays."""

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    @pytest.mark.parametrize("case", ["paper-4node", "3 agents, n = 5"])
    def test_matches_the_per_array_conversion(self, case, precision, paper_scenario, paper_init):
        # n != N on the random plant, so a slice of the record on the wrong size shows
        if case == "paper-4node":
            cfg, init = paper_scenario, paper_init
        else:
            cfg = random_scenario(1, n_agents=3, n=5)
            init = initialize(cfg)
        cfg = dataclasses.replace(cfg, precision=precision)
        trace = run_closed_loop(cfg, init, horizon=8)
        got = (trace.x, trace.xbar_nodes, trace.xhat, trace.ebar, trace.errors)
        for array, want in zip(got, recorded_by_array(cfg, init, 8), strict=True):
            assert array.dtype == want.dtype == np.float64 and array.shape == want.shape
            assert np.array_equal(array, want)


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
        bad = with_agreement(cfg, paper_init, kernels=[np.ones(1)] * 4)
        with decimal.localcontext() as ctx:
            ctx.prec = caller_prec or ctx.prec
            before = decimal.getcontext().prec
            run_closed_loop(cfg, paper_init, horizon=1)
            assert decimal.getcontext().prec == before
            with pytest.raises(DegenerateInitializationError, match="consecutive windows differ"):
                run_closed_loop(cfg, bad, horizon=1)
            assert decimal.getcontext().prec == before
