"""The closed-loop schedule: initialization, agreement, estimation, control.

Initialization runs three consecutive stages on the fabric: a bootstrap run
of finite-time averaging (yielding the diameter bound D' and the round
budget m_bar), a max-consensus leader election over D' rounds, and two token
passes choosing the control gains K_i and then the observer gains L_i.

Each closed-loop step k then grants exactly m_bar consensus rounds in which
the nodes agree on the average of their state estimates, applies the local
control u_i = K_i xbar, and updates the estimates with the network-wide
feedback sum learned during initialization.

The simulation arithmetic runs at a configurable precision.  The agreed
average is representable only to one ulp of the state scale, so in plain
double precision the measured average error ||x - xbar|| floors near
1e-15 * ||x||; the "quad" backend (mpmath, 120-bit) keeps the error curve
clean over the horizons the diagnostics look at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpf

from .consensus import exact_average_fixed_rounds, finite_time_average
from .exceptions import InvalidInputError
from .gains import TokenResult, elect_leader, run_token_protocol
from .linalg import eigenvalues
from .plant import require_jointly_controllable_observable
from .scenario import ScenarioConfig

QUAD_PRECISION_BITS = 120


def _dtype_for(precision: str):
    if precision == "double":
        return float
    if precision == "extended":
        return np.longdouble
    if precision == "quad":
        return object
    raise InvalidInputError(f"unknown precision {precision!r}")


def _cast(a, dtype):
    arr = np.asarray(a, dtype=float)
    if dtype == object:
        flat = [mpf(v) for v in arr.ravel()]
        return np.array(flat, dtype=object).reshape(arr.shape)
    return arr.astype(dtype)


def _to_float(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.dtype == object:
        return np.array([float(v) for v in arr.ravel()]).reshape(arr.shape)
    return arr.astype(float)


@dataclass
class InitializationResult:
    """Everything the nodes hold after procedures P1-P3."""

    m_bar: int
    d_prime: int
    leader: int
    k_gains: list[np.ndarray]
    l_gains: list[np.ndarray]
    f_control: np.ndarray            # network-wide sum B_j K_j
    control_token: TokenResult
    observer_token: TokenResult
    bootstrap_degrees: list[int]
    controller_spectrum: np.ndarray
    observer_spectrum: np.ndarray


def initialize(cfg: ScenarioConfig) -> InitializationResult:
    """Run P1 (bootstrap consensus), P2 (election), P3 (token passes).

    The bootstrap consensus averages the node ids.  Both the diameter bound
    D' and the round budget m_bar come from that one run: a second run on
    the same ids would repeat it exactly.
    """
    g, sys = cfg.graph, cfg.plant
    require_jointly_controllable_observable(sys)
    ids = np.arange(g.node_count, dtype=float)
    bootstrap = finite_time_average(
        g, ids, rel_tol=cfg.rank_rel_tol, weights=cfg.weights
    )
    d_prime = bootstrap.diameter_bound

    leader = elect_leader(g, max(d_prime, 1), cfg.election_values)

    control = run_token_protocol(
        g,
        sys,
        list(cfg.controller_targets),
        mode="control",
        priorities=cfg.priorities,
        stability_margin=cfg.stability_margin,
        leader=leader,
    )
    observer = run_token_protocol(
        g,
        sys,
        list(cfg.observer_targets),
        mode="observer",
        priorities=cfg.priorities,
        stability_margin=cfg.stability_margin,
        leader=leader,
    )
    n_agents = g.node_count
    obs_matrix = sys.a - sum(
        l @ c for l, c in zip(observer.gains, sys.c_list)
    ) / n_agents
    return InitializationResult(
        m_bar=bootstrap.m_bar,
        d_prime=d_prime,
        leader=leader,
        k_gains=control.gains,
        l_gains=observer.gains,
        f_control=control.f,
        control_token=control,
        observer_token=observer,
        bootstrap_degrees=bootstrap.degrees,
        controller_spectrum=eigenvalues(sys.a + control.f),
        observer_spectrum=eigenvalues(obs_matrix),
    )


def _estimate_and_control(a, b_list, c_list, k_gains, l_gains, f_control, x, xbar_nodes):
    """One estimation-control update after agreement.

    Inputs u_i = K_i xbar_i feed the plant; each estimate refreshes from the
    agreed average, the local output innovation, and the network-wide
    feedback sum (known to every node after initialization).  Outputs are
    measured at the pre-update state.
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
    return x_next, xhat_next, us


@dataclass
class ClosedLoopTrace:
    """Per-step records of one closed-loop run (all values float64 copies)."""

    m_bar: int
    tau: float
    steps: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    x: list[np.ndarray] = field(default_factory=list)
    xbar: list[np.ndarray] = field(default_factory=list)
    xbar_nodes: list[np.ndarray] = field(default_factory=list)
    xhat: list[np.ndarray] = field(default_factory=list)
    ebar: list[np.ndarray] = field(default_factory=list)
    errors: list[np.ndarray] = field(default_factory=list)      # (N, n) per step
    norm_x: list[float] = field(default_factory=list)
    norm_ebar: list[float] = field(default_factory=list)
    norm_errors: list[list[float]] = field(default_factory=list)
    rounds_used: list[int] = field(default_factory=list)

    def csv_rows(self):
        """Rows matching the fixed trace schema."""
        n_agents = len(self.norm_errors[0]) if self.norm_errors else 0
        header = ["k", "t", "norm_x", "norm_ebar"]
        header += [f"norm_e_{i + 1}" for i in range(n_agents)]
        header += ["rounds_used"]
        yield header
        for i, k in enumerate(self.steps):
            row = [k, self.times[i], self.norm_x[i], self.norm_ebar[i]]
            row += list(self.norm_errors[i])
            row += [self.rounds_used[i]]
            yield row


def run_closed_loop(
    cfg: ScenarioConfig,
    init: InitializationResult | None = None,
    horizon: int | None = None,
    tau: float | None = None,
) -> ClosedLoopTrace:
    """Alternate agreement and estimation-control for ``horizon`` steps.

    The trace has horizon + 1 rows; row k carries the normalized time
    t = k * (m_bar * tau + 1), charging one unit per estimation-control
    update and tau per consensus round.
    """
    if init is None:
        init = initialize(cfg)
    horizon = cfg.horizon if horizon is None else horizon
    tau = cfg.taus[0] if tau is None else tau
    if horizon < 0:
        raise InvalidInputError("horizon must be nonnegative")
    if cfg.precision == "quad":
        with mp.workprec(QUAD_PRECISION_BITS):
            return _run_loop(cfg, init, horizon, tau)
    return _run_loop(cfg, init, horizon, tau)


def _run_loop(
    cfg: ScenarioConfig, init: InitializationResult, horizon: int, tau: float
) -> ClosedLoopTrace:
    g, sys = cfg.graph, cfg.plant
    dtype = _dtype_for(cfg.precision)
    n_agents = g.node_count

    x0 = cfg.x0 if cfg.x0 is not None else np.ones(sys.n)
    xhat0 = cfg.xhat0 if cfg.xhat0 is not None else np.zeros((n_agents, sys.n))
    x = _cast(x0, dtype)
    xhat = _cast(xhat0, dtype)
    a_cast = _cast(sys.a, dtype)
    b_cast = [_cast(b, dtype) for b in sys.b_list]
    c_cast = [_cast(c, dtype) for c in sys.c_list]
    k_cast = [_cast(k, dtype) for k in init.k_gains]
    l_cast = [_cast(l, dtype) for l in init.l_gains]
    f_cast = _cast(init.f_control, dtype)

    trace = ClosedLoopTrace(m_bar=init.m_bar, tau=tau)
    for k in range(horizon + 1):
        xbar_nodes, detect_round = exact_average_fixed_rounds(
            g, xhat, init.m_bar, rel_tol=cfg.rank_rel_tol, weights=cfg.weights,
            dtype=dtype,
        )
        xbar = xbar_nodes[0]
        ebar = x - xbar
        errs = np.stack([_to_float(x - xhat[i]) for i in range(n_agents)])
        trace.steps.append(k)
        trace.times.append(k * (init.m_bar * tau + 1.0))
        trace.x.append(_to_float(x))
        trace.xbar.append(_to_float(xbar))
        trace.xbar_nodes.append(
            np.stack([_to_float(xbar_nodes[i]) for i in range(n_agents)])
        )
        trace.xhat.append(np.stack([_to_float(xhat[i]) for i in range(n_agents)]))
        trace.ebar.append(_to_float(ebar))
        trace.errors.append(errs)
        trace.norm_x.append(float(np.linalg.norm(_to_float(x))))
        trace.norm_ebar.append(float(np.linalg.norm(_to_float(ebar))))
        trace.norm_errors.append(
            [float(np.linalg.norm(errs[i])) for i in range(n_agents)]
        )
        trace.rounds_used.append(detect_round)
        if k == horizon:
            break
        x_next, new_xhat, _ = _estimate_and_control(
            a_cast, b_cast, c_cast, k_cast, l_cast, f_cast, x, xbar_nodes
        )
        xhat = np.stack(new_xhat) if dtype != object else np.array(
            new_xhat, dtype=object
        )
        x = x_next
    return trace
