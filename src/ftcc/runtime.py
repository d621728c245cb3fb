"""The closed-loop schedule: initialization, agreement, estimation, control.

Initialization runs three consecutive stages: a bootstrap run of
finite-time averaging (yielding the diameter bound D' and the round budget
m_bar), a max-consensus leader election over D' rounds, and two token passes
on the synchronous fabric choosing the control gains K_i, then the observer gains L_i.

Each closed-loop step k then grants exactly m_bar consensus rounds, after
which every node reads the average of the state estimates off the Hankel
kernel it stored at bootstrap, applies the local control u_i = K_i xbar, and
updates its estimate with the network-wide feedback sum from initialization.
What does not change between steps is prepared once per run_closed_loop,
in the loop arithmetic: the agreement's N x N maps (consensus.prepare_agreement)
and the matrices B_i K_i, L_i C_i and A + F.  A step is then one agreement
(two products) and two updates batched over the nodes,
x' = A x + sum_i B_i K_i xbar_i and xhat'_i = (A + F) xbar_i + L_i C_i (x - xbar_i).

The simulation arithmetic runs at a configurable precision, chosen here
once: the loop casts its inputs to that arithmetic and the consensus layer
computes in whatever arithmetic it receives.  One pass serves all three:
the set-up and the loop run inside one local decimal context of QUAD_DIGITS
digits (the caller's is left as it was), which only "quad"'s Decimals read,
and the trace is recorded in float64.  The agreed average is
representable only to one ulp of the state scale, so in plain double
precision the measured average error ||x - xbar|| floors near
1e-15 * ||x||; "quad", the standard library's decimal, keeps the error
curve clean over the horizons the diagnostics look at.
"""

from __future__ import annotations

import decimal
import itertools
from dataclasses import dataclass

import numpy as np

from .consensus import elect_leader, exact_average_fixed_rounds, finite_time_average
from .consensus import in_arithmetic, prepare_agreement
from .exceptions import InvalidInputError
from .gains import TokenResult, run_token_protocol
from .linalg import eigenvalues
from .scenario import PRECISIONS, ScenarioConfig

QUAD_DIGITS = 37


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
    kernels: list[np.ndarray]        # each node's Hankel kernel, reused every step
    controller_spectrum: np.ndarray
    observer_spectrum: np.ndarray


def initialize(cfg: ScenarioConfig) -> InitializationResult:
    """Run P1 (bootstrap consensus), P2 (election), P3 (token passes).

    The bootstrap consensus averages the node ids.  Both the diameter bound
    D' and the round budget m_bar come from that one run: a second run on
    the same ids would repeat it exactly.  A ScenarioConfig is checked on
    construction, the plant's joint rank among the rest, so none is redone here.
    """
    g, sys = cfg.graph, cfg.plant
    ids = np.arange(g.node_count, dtype=float)
    bootstrap = finite_time_average(
        g, ids, rel_tol=cfg.rank_rel_tol, weights=cfg.weights
    )
    d_prime = bootstrap.diameter_bound

    leader = elect_leader(g, max(d_prime, 1), cfg.election_values)

    control, observer = [
        run_token_protocol(
            g,
            sys,
            list(targets),
            mode=mode,
            priorities=cfg.priorities,
            stability_margin=cfg.stability_margin,
            leader=leader,
        )
        for mode, targets in (
            ("control", cfg.controller_targets),
            ("observer", cfg.observer_targets),
        )
    ]
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
        kernels=bootstrap.kernels,
        controller_spectrum=eigenvalues(sys.a + control.f),
        observer_spectrum=eigenvalues(obs_matrix),
    )


def _products(lefts, rights, dtype) -> list[np.ndarray]:
    """Each l_i @ r_i in ``dtype``, every side converted once as one concatenation."""
    left, right = in_arithmetic(np.hstack(lefts), dtype), in_arithmetic(np.vstack(rights), dtype)
    cols = itertools.pairwise([0, *itertools.accumulate(l.shape[1] for l in lefts)])
    rows = itertools.pairwise([0, *itertools.accumulate(r.shape[0] for r in rights)])
    return [left[:, a:b] @ right[c:d] for (a, b), (c, d) in zip(cols, rows, strict=True)]


def _step_matrices(sys, k_gains, l_gains, f_control, dtype):
    """The update's fixed matrices in ``dtype``, each formed there (never cast from float64).

    A, [B_1 K_1 | ... | B_N K_N] (n, N*n), A + F, and the stack L_i C_i (N, n, n).
    """
    a = in_arithmetic(sys.a, dtype)
    hk = np.hstack(_products(sys.b_list, k_gains, dtype))
    lc = np.stack(_products(l_gains, sys.c_list, dtype))
    return a, hk, a + in_arithmetic(f_control, dtype), lc


def _estimate_and_control(a, hk, af, lc, x, xbar):
    """One estimation-control update after agreement, batched over the nodes.

    The plant takes u_i = K_i xbar_i: x' = A x + sum_i B_i K_i xbar_i.  Each
    estimate refreshes from the agreed average, the network-wide feedback
    sum F (known to every node after initialization) and the local output
    innovation y_i - C_i xbar_i = C_i (x - xbar_i), measured at the
    pre-update state: xhat'_i = (A + F) xbar_i + L_i C_i (x - xbar_i).
    ``xbar`` is (N, n); returns x' and the (N, n) estimates.
    """
    x_next = a @ x + hk @ xbar.ravel()
    xhat_next = xbar @ af.T + (lc @ (x - xbar)[:, :, None])[:, :, 0]
    return x_next, xhat_next


@dataclass
class ClosedLoopTrace:
    """Per-step records of one closed-loop run: float64 arrays, row k for step k."""

    m_bar: int
    tau: float
    x: np.ndarray                     # (steps, n)
    xbar_nodes: np.ndarray            # (steps, N, n)
    xhat: np.ndarray                  # (steps, N, n)
    ebar: np.ndarray                  # (steps, n)
    errors: np.ndarray                # (steps, N, n)
    rounds_used: list[int]

    @property
    def steps(self) -> list[int]:
        return list(range(len(self.x)))

    @property
    def times(self) -> list[float]:
        return [k * (self.m_bar * self.tau + 1.0) for k in self.steps]

    @property
    def norm_x(self) -> list[float]:
        return [float(np.linalg.norm(v)) for v in self.x]

    @property
    def norm_ebar(self) -> list[float]:
        return [float(np.linalg.norm(v)) for v in self.ebar]

    @property
    def norm_errors(self) -> list[list[float]]:
        return [[float(np.linalg.norm(e)) for e in row] for row in self.errors]

    def csv_rows(self):
        """Rows matching the fixed trace schema."""
        header = ["k", "t", "norm_x", "norm_ebar"]
        header += [f"norm_e_{i + 1}" for i in range(self.errors.shape[1])]
        header += ["rounds_used"]
        yield header
        columns = zip(
            self.steps, self.times, self.norm_x, self.norm_ebar,
            self.norm_errors, self.rounds_used,
        )
        for k, t, nx, ne, errs, rounds in columns:
            yield [k, t, nx, ne, *errs, rounds]


def loop_settings(cfg: ScenarioConfig, horizon: int | None, tau: float | None):
    """The run's (horizon, tau): each given value, else the scenario's, checked."""
    horizon = cfg.horizon if horizon is None else horizon
    tau = cfg.taus[0] if tau is None else tau
    if horizon < 0:
        raise InvalidInputError("horizon must be nonnegative")
    if not 0 < tau < np.inf:   # a NaN fails too
        raise InvalidInputError(f"tau must be positive and finite, got {tau}")
    return horizon, tau


def run_closed_loop(
    cfg: ScenarioConfig,
    init: InitializationResult | None = None,
    horizon: int | None = None,
    tau: float | None = None,
) -> ClosedLoopTrace:
    """Alternate agreement and estimation-control for ``horizon`` steps.

    The trace has horizon + 1 rows; row k carries the normalized time
    t = k * (m_bar * tau + 1), charging one unit per estimation-control
    update and tau per consensus round.  Each step's five rows (x, xbar,
    xhat, x - xbar_0, x - xhat) are formed in the loop arithmetic and
    converted to float64 as they are recorded, so no Decimal or long double
    iterate outlives its step.
    """
    horizon, tau = loop_settings(cfg, horizon, tau)
    if init is None:
        init = initialize(cfg)
    g, sys = cfg.graph, cfg.plant
    dtype = PRECISIONS[cfg.precision]
    x0 = cfg.x0 if cfg.x0 is not None else np.ones(sys.n)
    xhat0 = cfg.xhat0 if cfg.xhat0 is not None else np.zeros((g.node_count, sys.n))
    rows = []
    # only Decimal arithmetic reads the context, so every precision enters it
    with decimal.localcontext(decimal.Context(prec=QUAD_DIGITS)):
        x, xhat = in_arithmetic(x0, dtype), in_arithmetic(xhat0, dtype)
        matrices = _step_matrices(sys, init.k_gains, init.l_gains, init.f_control, dtype)
        agreement = prepare_agreement(
            g, init.m_bar, init.kernels, dtype, rel_tol=cfg.rank_rel_tol, weights=cfg.weights
        )
        for k in range(horizon + 1):
            xbar = exact_average_fixed_rounds(agreement, xhat)
            rows.append([np.asarray(v, float) for v in (x, xbar, xhat, x - xbar[0], x - xhat)])
            if k < horizon:
                x, xhat = _estimate_and_control(*matrices, x, xbar)
    # rounds_used: the round at which the widest stored kernel's square Hankel completes
    rounds_used = 2 * max(len(beta) for beta in init.kernels)
    return ClosedLoopTrace(
        init.m_bar, tau, *map(np.stack, zip(*rows)), rounds_used=[rounds_used] * (horizon + 1)
    )
