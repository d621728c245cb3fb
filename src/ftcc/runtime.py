"""The closed-loop schedule: initialization, agreement, estimation, control.

Initialization runs three consecutive stages: a bootstrap run of
finite-time averaging (yielding the diameter bound D' and the round budget
m_bar), a max-consensus leader election over D' rounds, and two token passes
choosing the control gains K_i, then the observer gains L_i, each a walk
whose read-only F is then flooded over the synchronous fabric.

Each closed-loop step k then grants exactly m_bar consensus rounds, after
which every node reads the average of the state estimates off the Hankel
kernel it stored at bootstrap, applies the local control u_i = K_i xbar, and
updates its estimate with the network-wide feedback sum from initialization.
What does not change between steps is ready before the loop, in the loop
arithmetic: the agreement's N x N maps and two linear maps over the nonzero
entries of the agents' factors, which run_closed_loop prepares.  The
agreement is the bootstrap's own (InitializationResult.agreement) when the
loop runs in its float64 and P for its rounds, which are m_bar whenever its
ladder stopped there; otherwise, in long double or Decimal or for another
round count, run_closed_loop prepares one too (consensus.agreement_maps).
A step is then one agreement (one product with the latest-window map, while
every node's window check is cleared by its bound) and the two maps,
u_i = K_i xbar_i and y_i = C_i (x - xbar_i), then x' = A x + sum_i B_i u_i
and xhat'_i = (A + F) xbar_i + L_i y_i, and its record: the run's float64
trace is allocated once, and each step's five arrays are written straight
into their slices of it, each value converted once.

The loop's settings are the scenario's own: it runs ``cfg.horizon`` steps
and times them with the first of ``cfg.taus``.  Other settings are another
config, ``dataclasses.replace(cfg, horizon=..., taus=(tau,))``, checked by
the scenario's field table as the values of a file are.

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
from dataclasses import dataclass

import numpy as np

from .consensus import elect_leader, exact_average_fixed_rounds, finite_time_average
from .consensus import Agreement, agreement_maps, in_arithmetic
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
    agreement: Agreement             # the bootstrap's, in float64: the kernels and their maps
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
    bootstrap = finite_time_average(g, ids, weights=cfg.weights)
    d_prime = bootstrap.diameter_bound

    leader = elect_leader(g, max(d_prime, 1), cfg.election_values)

    control, observer = [
        run_token_protocol(
            g,
            sys,
            list(targets),
            mode=mode,
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
        agreement=bootstrap.agreement,
        controller_spectrum=eigenvalues(sys.a + control.f),
        observer_spectrum=eigenvalues(obs_matrix),
    )


def _fixed_map(rows: int, *blocks):
    """A linear map's (columns, values, starts) from blocks of (output, input, value) entries."""
    out, inp, val = map(np.concatenate, zip(*blocks))
    # one zero entry per output that none reaches: np.add.reduceat would return z[start] there
    empty = np.flatnonzero(np.bincount(out, minlength=rows) == 0)
    out, inp = np.concatenate([out, empty]), np.concatenate([inp, empty * 0])
    val = np.concatenate([val, in_arithmetic(empty * 0, val.dtype)])
    order = np.argsort(out, kind="stable")   # block order within an output
    return inp[order], val[order], np.searchsorted(out[order], np.arange(rows))


def _step_matrices(sys, k_gains, l_gains, f_control, dtype):
    """The update's two maps in ``dtype`` over the nonzero entries of its factors, each exact.

    G1 maps [xbar; x - xbar] to [u; y], G2 maps [x; u; y; xbar] to [x'; xhat'],
    each (N, n) array flattened; A + F is summed in ``dtype``.
    """
    kc = np.concatenate([*k_gains, *sys.c_list])       # the rows of G1
    ab = np.concatenate([sys.a, *sys.b_list], axis=1)  # the rows of x'
    lc = np.concatenate(l_gains, axis=1)
    n, agents, nu, ny = sys.n, len(k_gains), ab.shape[1] - sys.n, lc.shape[1]
    # the agent of each row of K, and N + the agent of each row of C (column of L)
    owner = np.repeat(np.arange(2 * agents), list(map(len, (*k_gains, *sys.c_list))))
    r, j = np.nonzero(kc)
    g1 = _fixed_map(len(kc), (r, owner[r] * n + j, in_arithmetic(kc[r, j], dtype)))
    r, j = np.nonzero(ab)
    ra, ja = np.nonzero(sys.a + f_control)   # zero in float64 exactly where zero in dtype
    af = in_arithmetic(sys.a[ra, ja], dtype) + in_arithmetic(f_control[ra, ja], dtype)
    rl, jl = np.nonzero(lc)
    xhat_i = n * np.arange(1, agents + 1)[:, None]   # where xhat'_i starts in the output
    return g1, _fixed_map(
        n * (agents + 1),
        (r, j, in_arithmetic(ab[r, j], dtype)),
        ((xhat_i + ra).ravel(), (xhat_i + nu + ny + ja).ravel(), np.tile(af, agents)),
        ((owner[nu:][jl] - agents + 1) * n + rl, n + nu + jl, in_arithmetic(lc[rl, jl], dtype)),
    )


def _estimate_and_control(g1, g2, x, xbar):
    """One estimation-control update after agreement, two fixed maps (``_step_matrices``).

    The plant takes u_i = K_i xbar_i: x' = A x + sum_i B_i u_i.  Each
    estimate refreshes from the agreed average, the network-wide feedback
    sum F (known to every node after initialization) and the local output
    innovation y_i - C_i xbar_i = C_i (x - xbar_i), measured at the
    pre-update state: xhat'_i = (A + F) xbar_i + L_i y_i.
    ``xbar`` is (N, n); returns x' and the (N, n) estimates.
    """
    (c1, v1, s1), (c2, v2, s2) = g1, g2
    uy = np.add.reduceat(np.concatenate([xbar, x - xbar]).ravel()[c1] * v1, s1)
    out = np.add.reduceat(np.concatenate([x, uy, xbar.ravel()])[c2] * v2, s2)
    return out[: len(x)], out[len(x):].reshape(xbar.shape)


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
        return np.linalg.norm(self.x, axis=-1).tolist()

    @property
    def norm_ebar(self) -> list[float]:
        return np.linalg.norm(self.ebar, axis=-1).tolist()

    @property
    def norm_errors(self) -> list[list[float]]:
        return np.linalg.norm(self.errors, axis=-1).tolist()

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


def run_closed_loop(cfg: ScenarioConfig, init: InitializationResult) -> ClosedLoopTrace:
    """Alternate agreement and estimation-control for the scenario's horizon of steps.

    The trace has horizon + 1 rows; row k carries the normalized time
    t = k * (m_bar * tau + 1) for the scenario's first tau, charging one
    unit per estimation-control update and tau per consensus round.  Each
    step's five arrays (x, xbar, xhat, x - xbar_0, x - xhat) are formed in
    the loop arithmetic and written into row k of one float64 record, each
    value converted once, so no Decimal or long double iterate outlives its
    step; the trace's arrays are views of that record.  The state starts at
    the scenario's x0 (ones when omitted), every estimate at zero.
    """
    sys, horizon, dtype = cfg.plant, cfg.horizon, PRECISIONS[cfg.precision]
    n, agents = sys.n, cfg.graph.node_count
    # each row [x | xbar | xhat | x - xbar_0 | x - xhat], n entries a block
    record = np.empty((horizon + 1, 3 * agents + 2, n))
    views = (
        record[:, 0], record[:, 1 : agents + 1], record[:, agents + 1 : 2 * agents + 1],
        record[:, 2 * agents + 1], record[:, 2 * agents + 2 :],
    )
    # only Decimal arithmetic reads the context, so every precision enters it
    with decimal.localcontext(decimal.Context(prec=QUAD_DIGITS)):
        x = in_arithmetic(np.ones(n) if cfg.x0 is None else cfg.x0, dtype)
        xhat = in_arithmetic(np.zeros((agents, n)), dtype)
        matrices = _step_matrices(sys, init.k_gains, init.l_gains, init.f_control, dtype)
        agreement = init.agreement
        # the bootstrap's maps serve only the agreement they were prepared for
        if not (
            agreement.p.dtype == dtype
            and agreement.rounds == init.m_bar
            and np.array_equal(agreement.p, cfg.weights)
        ):   # the config checked its P on construction
            pw = in_arithmetic(cfg.weights, dtype)
            agreement = agreement_maps(pw, init.m_bar, agreement.kernels)
        for k in range(horizon + 1):
            xbar = exact_average_fixed_rounds(agreement, xhat)
            for view, part in zip(views, (x, xbar, xhat, x - xbar[0], x - xhat)):
                view[k] = part
            if k < horizon:
                x, xhat = _estimate_and_control(*matrices, x, xbar)
    # rounds_used: the round at which the widest stored kernel's square Hankel completes
    rounds_used = [2 * max(len(beta) for beta in agreement.kernels)] * (horizon + 1)
    return ClosedLoopTrace(init.m_bar, cfg.taus[0], *views, rounds_used=rounds_used)
