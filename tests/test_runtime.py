import dataclasses
import decimal

import numpy as np
import pytest

from ftcc import consensus, plant, runtime
from ftcc.consensus import in_arithmetic
from ftcc.exceptions import DegenerateInitializationError, InvalidInputError
from ftcc.graph import Digraph, out_weight_matrix
from ftcc.plant import LtiSystem
from ftcc.runtime import _estimate_and_control, _step_matrices, initialize, run_closed_loop
from ftcc.scenario import PRECISIONS, ScenarioConfig, load_scenario

from conftest import random_joint_system, random_strongly_connected, targets_for_spectrum


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


def with_agreement(cfg, init, rounds=None, dtype=float, kernels=None, weights=None):
    """``init`` holding an Agreement prepared for the given changes to its own."""
    agreement = consensus.agreement_maps(
        in_arithmetic(cfg.weights if weights is None else weights, dtype),
        init.m_bar if rounds is None else rounds,
        init.agreement.kernels if kernels is None else kernels,
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

    def test_the_plant_is_checked_once(self, monkeypatch):
        # at construction: initialize and the loop take a ScenarioConfig as valid
        calls = []

        def counted(*args, _fn=plant.joint_rank_checks, **kw):
            calls.append(args)
            return _fn(*args, **kw)

        monkeypatch.setattr(plant, "joint_rank_checks", counted)
        cfg = load_scenario("paper-4node")
        run_closed_loop(cfg, initialize(cfg))
        assert len(calls) == 1

    @pytest.mark.parametrize("horizon", [1, 5])
    @pytest.mark.parametrize(
        "precision, maps_built", [("double", 0), ("extended", 1), ("quad", 1)]
    )
    def test_preparation_calls(self, monkeypatch, paper_scenario, paper_init, precision,
                               maps_built, horizon):
        # a run of `horizon` steps makes the calls of a run of none, plus one agreement a step
        cfgs = [dataclasses.replace(paper_scenario, precision=precision, horizon=steps)
                for steps in (0, horizon)]
        targets = [(runtime, "agreement_maps"), (runtime, "_step_matrices"),
                   (consensus, "validate_weights"), (runtime, "exact_average_fixed_rounds"),
                   (consensus, "in_arithmetic"), (runtime, "in_arithmetic")]
        calls = [counting(monkeypatch, module, name) for module, name in targets]
        per_run = []
        for cfg in cfgs:
            run_closed_loop(cfg, paper_init)
            per_run.append([len(c) for c in calls])
            for c in calls:
                c.clear()
        idle, ran = per_run
        assert idle[:4] == [maps_built, 1, 0, 1]   # maps, step matrices, P checks, agreements
        assert ran == idle[:3] + [horizon + 1] + idle[4:]   # and the same conversions

    @pytest.mark.parametrize(
        "change",
        [
            lambda cfg, init: {"rounds": init.m_bar + 2},   # a ladder that stopped off m_bar
            lambda cfg, init: {"dtype": np.longdouble},
            lambda cfg, init: {"weights": (cfg.weights + np.eye(len(cfg.weights))) / 2},
        ],
        ids=["m_bar + 2 rounds", "long double", "another P"],
    )
    def test_another_agreement_is_rebuilt(self, monkeypatch, paper_scenario, paper_init, change):
        # the loop builds its own maps, so the trace is the normal run's, bit for bit
        cfg = dataclasses.replace(paper_scenario, precision="double", horizon=5)
        want = run_closed_loop(cfg, paper_init)
        other = with_agreement(cfg, paper_init, **change(cfg, paper_init))
        maps = counting(monkeypatch, runtime, "agreement_maps")
        got = run_closed_loop(cfg, other)
        assert len(maps) == 1
        for field in ("x", "xbar_nodes", "xhat", "ebar", "errors"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got.rounds_used == want.rounds_used


class TestClosedLoop:
    def test_horizon_zero_single_row(self, paper_scenario, paper_init):
        cfg = dataclasses.replace(paper_scenario, horizon=0, taus=(1.0,))
        trace = run_closed_loop(cfg, paper_init)
        assert trace.steps == [0]
        assert trace.times == [0.0]

    def test_normalized_time_and_rounds(self, paper_scenario, paper_init):
        cfg = dataclasses.replace(paper_scenario, horizon=3, taus=(0.5,))
        trace = run_closed_loop(cfg, paper_init)
        assert trace.times == [k * (11 * 0.5 + 1.0) for k in range(4)]
        # the widest stored kernel has width 3: its square Hankel completes at 6
        assert trace.rounds_used == [6] * 4

    def test_whole_float_horizon_is_an_int(self, paper_scenario, paper_init):
        # the scenario's rule, as in a file, where "horizon": 60.0 is 60
        cfg = dataclasses.replace(paper_scenario, horizon=2.0, taus=(1,))
        trace = run_closed_loop(cfg, paper_init)
        assert trace.steps == [0, 1, 2] and trace.times == [0.0, 12.0, 24.0]

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_single_node_end_to_end(self, precision):
        cfg = lone_node_scenario(precision)
        init = initialize(cfg)
        assert (init.m_bar, init.d_prime) == (3, 0)
        trace = run_closed_loop(cfg, init)
        assert len(trace.x) == cfg.horizon + 1
        assert trace.rounds_used == [2] * (cfg.horizon + 1)   # the lone kernel has width 1

    @pytest.mark.parametrize("precision", ["double", "extended", "quad"])
    def test_every_estimate_starts_at_zero(self, precision, paper_scenario, paper_init):
        # so every agent's first error is the whole state, x0
        cfg = dataclasses.replace(paper_scenario, precision=precision, horizon=1)
        trace = run_closed_loop(cfg, paper_init)
        assert not trace.xhat[0].any() and not trace.xbar_nodes[0].any()
        assert np.array_equal(trace.x[0], cfg.x0)
        assert np.array_equal(trace.errors[0], np.tile(cfg.x0, (4, 1)))
        assert trace.xhat[1].any()

    def test_errors_are_the_recorded_differences(self, paper_scenario, paper_init):
        # in double the loop arithmetic is float64, so each error row is the
        # difference of the recorded rows, bit for bit
        cfg = dataclasses.replace(paper_scenario, precision="double", horizon=10)
        trace = run_closed_loop(cfg, paper_init)
        assert np.array_equal(trace.ebar, trace.x - trace.xbar_nodes[:, 0])
        assert np.array_equal(trace.errors, trace.x[:, None] - trace.xhat)
        # and the CSV's norm_e_i is agent i's error norm at each step
        norms = [[np.linalg.norm(e) for e in step] for step in trace.errors]
        assert np.shape(trace.norm_errors) == (11, 4) and np.allclose(trace.norm_errors, norms)

    def test_separation_state_and_error_decay(self):
        cfg = dataclasses.replace(random_scenario(21), horizon=60)
        trace = run_closed_loop(cfg, initialize(cfg))
        assert trace.norm_x[-1] < 1e-4 * max(1.0, trace.norm_x[0])
        assert trace.norm_ebar[-1] < 1e-6 * max(1.0, trace.norm_ebar[0])


def recorded_by_array(cfg, init, horizon):
    """The loop's five trace arrays, each step's five arrays converted one by one.

    The reference for the record: the same set-up, agreement and update,
    then ``np.asarray(v, float)`` on each array and one stack each.
    """
    dtype = PRECISIONS[cfg.precision]
    n_agents, n = cfg.graph.node_count, cfg.plant.n
    with decimal.localcontext(decimal.Context(prec=runtime.QUAD_DIGITS)):
        x = in_arithmetic(np.ones(n) if cfg.x0 is None else cfg.x0, dtype)
        xhat = in_arithmetic(np.zeros((n_agents, n)), dtype)
        matrices = _step_matrices(cfg.plant, init.k_gains, init.l_gains, init.f_control, dtype)
        agreement = consensus.agreement_maps(
            in_arithmetic(cfg.weights, dtype), init.m_bar, init.agreement.kernels
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
        cfg = dataclasses.replace(cfg, precision=precision, horizon=8)
        trace = run_closed_loop(cfg, init)
        got = (trace.x, trace.xbar_nodes, trace.xhat, trace.ebar, trace.errors)
        for array, want in zip(got, recorded_by_array(cfg, init, 8), strict=True):
            assert array.dtype == want.dtype == np.float64 and array.shape == want.shape
            assert np.array_equal(array, want)
        if precision != "double":
            # and the wider arithmetics' trace is the double one's to 1e-9 of |x_k|
            double = run_closed_loop(dataclasses.replace(cfg, precision="double"), init)
            scale = 1e-9 * np.maximum(1.0, np.abs(double.x).max(axis=1))
            for array, want in zip(got, (double.x, double.xbar_nodes, double.xhat,
                                         double.ebar, double.errors)):
                assert np.all(np.abs(array - want).reshape(9, -1).max(axis=1) <= scale)


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
        cfg = dataclasses.replace(paper_scenario, precision=precision, horizon=1)
        bad = with_agreement(cfg, paper_init, kernels=[np.ones(1)] * 4)
        with decimal.localcontext() as ctx:
            ctx.prec = caller_prec or ctx.prec
            before = decimal.getcontext().prec
            run_closed_loop(cfg, paper_init)
            assert decimal.getcontext().prec == before
            with pytest.raises(DegenerateInitializationError, match="consecutive windows differ"):
                run_closed_loop(cfg, bad)
            assert decimal.getcontext().prec == before
