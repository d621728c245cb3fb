"""Ratio consensus, minimum-time exact averaging, and distributed termination.

Each node iterates one row [alpha | pi] (numerators and denominator) with
column-stochastic weights P: x(k+1) = P x(k), one product per round on a
single (rounds+1, N, n+1) history.  P is supported on the edges
(validate_weights), so a product moves values only along them.  Node j reads
only hist[:, j]: it watches the Hankel matrices of its iterate differences
for rank loss and recovers the exact network average from the defective
Hankel kernel, in the arithmetic of the initial values (float64, longdouble
or Decimal at the caller's context precision).  A max-consensus ladder over
step counters, sent on the fabric, lets all nodes agree on when to stop and,
as a byproduct, yields the round budget m_bar and a diameter upper bound D'.

The closed loop's agreements reuse what the bootstrap fixed: an Agreement,
prepared once per run, holds P (validated and converted), the stored kernels
grouped by width as (G, w) arrays, and the pi-window denominators, since
pi = P^k 1 carries no data.  Each agreement then advances only the N x n
numerators and forms every width group's quotients in a few array sums.

Two indexing conventions matter and are easy to get wrong:

* Two difference windows are monitored, because two different quantities are
  extracted.  The round budget uses differences taken from the first
  *updated* iterate onward (dropping alpha[1] - alpha[0]): weight matrices
  built from out-degrees routinely carry dead-beat modes (zero eigenvalues)
  whose transient pollutes the leading difference, and with the shifted
  window the size-(M+1) Hankel completes exactly at round 2(M+1), which is
  where the counter freeze value c0 = 2(M+1) and the budget formula come
  from.  The diameter bound, by contrast, must count those dead-beat modes
  (information from a node at distance d cannot arrive before round d), so
  D' is taken from the unshifted window's degree, which dominates every
  node's in-eccentricity.
* A node may also stop at round 2*phi - 1 once its max-consensus value phi
  has settled: phi then equals the largest frozen counter network-wide, so
  2*phi - 1 is the common budget m_bar and waiting longer is pointless.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInitializationError, InvalidInputError
from .graph import Digraph, SyncFabric, out_weight_matrix, round_exchange, support_edges
from .linalg import as_matrix, common_kernel_vector, numerical_rank

DEFAULT_REL_TOL = 1e-8


def m_bar(m_values) -> int:
    """Network round budget: 2 * max_j(2 * (M_j + 1)) - 1."""
    ms = list(m_values)
    if not ms or any(m < 0 for m in ms):
        raise InvalidInputError("m_bar needs at least one nonnegative degree")
    return 2 * max(2 * (m + 1) for m in ms) - 1


def diameter_upper_bound(m_values) -> int:
    """Diameter bound obtained from termination: D' = max_j M_j."""
    ms = list(m_values)
    if not ms or any(m < 0 for m in ms):
        raise InvalidInputError("diameter bound needs nonnegative degrees")
    return max(ms)


def validate_weights(g: Digraph, p) -> np.ndarray:
    """Check that P is column-stochastic and supported exactly on g."""
    pm = as_matrix(p, "P")
    n = g.node_count
    if pm.shape != (n, n):
        raise InvalidInputError(f"P must be {n}x{n}, got {pm.shape}")
    if np.any(pm < 0):
        raise InvalidInputError("P must be nonnegative")
    colsum = pm.sum(axis=0)
    if np.max(np.abs(colsum - 1.0)) > 1e-12:
        raise InvalidInputError("P must be column-stochastic")
    if support_edges(pm) != g.edges:
        raise InvalidInputError("off-diagonal support of P does not match the graph")
    return pm


@dataclass
class RatioNodeState:
    """Per-node counters and detection results for one consensus run."""

    c: int = 0                        # step counter, frozen at c0 after detection
    r: int = 0                        # rounds the max-consensus value has held
    phi: int = 0                      # max-consensus value
    M: int | None = None              # detected degree, shifted window (budget)
    distance_degree: int | None = None  # detected degree, unshifted window (D')
    c0: int | None = None             # frozen counter value 2*(M+1)
    detection_round: int | None = None
    done_round: int | None = None
    phi_done: int | None = None       # max-consensus value certified at termination

    @property
    def done(self) -> bool:
        return self.done_round is not None


def _window_rows(seq: np.ndarray, width: int) -> np.ndarray:
    return np.array([seq[i : i + width] for i in range(len(seq) - width + 1)])


def _dtype_eps(dtype) -> float:
    if dtype == object:
        return 10.0 ** (1 - decimal.getcontext().prec)
    return float(np.finfo(np.dtype(dtype)).eps)


def in_arithmetic(a, dtype) -> np.ndarray:
    """``a`` as float64, longdouble or (object) Decimal: exact, each holds every double."""
    arr = np.asarray(a, dtype=float)
    if dtype == object:   # Decimal does not mix with float: convert entry by entry
        return np.frompyfunc(decimal.Decimal, 1, 1)(arr)
    return arr.astype(dtype)


def _live_difference_stack(
    view: np.ndarray, width: int, square: bool, shift: int = 1
) -> np.ndarray | None:
    """Row-normalized Hankel blocks of the sequences that still carry signal.

    ``view`` is one node's iterates, shape (rounds+1, n+1).  Each scalar
    sequence (every column of [alpha | pi]) gets its own noise floor, 64 eps
    times the largest iterate magnitude it ever reached: a node whose
    sequence is constant up to arithmetic noise (for example when its row of
    the weight matrix is already proportional to the consensus functional)
    would otherwise present pure rounding noise as a full-rank Hankel.
    Converged blocks impose no kernel constraint; live blocks are scaled by
    their own difference magnitude so the rank test compares like with
    like.  Returns None when every sequence has converged.

    ``square`` restricts each block to its first ``width`` windows (the
    minimal square Hankel the round-by-round monitor can afford); otherwise
    every available window contributes a row, which conditions the kernel
    better.
    """
    diffs = np.diff(view, axis=0)[shift:]
    eps = _dtype_eps(view.dtype)
    take = 2 * width - 1 if square else len(diffs)
    blocks = []
    for r in range(view.shape[1]):
        seq_scale = float(np.max(np.abs(view[:, r])))
        d = np.asarray(diffs[:take, r], dtype=float)
        d_scale = float(np.max(np.abs(d))) if len(d) else 0.0
        if d_scale <= 64.0 * eps * max(seq_scale, 1e-300):
            continue
        blocks.append(_window_rows(d / d_scale, width))
    if not blocks:
        return None
    return np.vstack(blocks)


def _is_defective(stack: np.ndarray | None, rel_tol: float) -> bool:
    return stack is None or numerical_rank(stack, rel_tol) < stack.shape[1]


def _kernel(view: np.ndarray, rel_tol: float) -> np.ndarray | None:
    """The node's Hankel kernel beta, normalized so beta[-1] == 1.

    Rather than trusting the minimal square Hankel that triggered detection
    (which can look singular out of sheer ill-conditioning), the kernel
    width is re-established on the full difference history: every available
    window contributes a row, and the first width whose stack is genuinely
    rank-deficient wins.  Sequences that all converged within arithmetic
    noise give degree zero, beta = [1]; None when no width is rank-deficient.
    """
    for width in range(1, (len(view) - 1) // 2 + 1):
        stack = _live_difference_stack(view, width, square=False)
        if stack is None:
            return np.ones(1)
        if _is_defective(stack, rel_tol):
            return common_kernel_vector(stack, rel_tol)
    return None


def _window_sum(hist: np.ndarray, nodes: np.ndarray, beta: np.ndarray, lag: int = 0):
    """(G, k): sum_t beta[:, t] hist[s0 + t, nodes], each node's kernel (a row of
    ``beta``, in the history's arithmetic) over its latest complete window,
    which suppresses residual-mode contamination, or the one ``lag`` rounds before.
    """
    width = beta.shape[1]
    s0 = len(hist) - width - lag   # callers keep s0 >= 1, past the inputs
    acc = beta[:, :1] * hist[s0, nodes]
    for t in range(1, width):
        acc = acc + beta[:, t : t + 1] * hist[s0 + t, nodes]
    return acc


def _by_width(kernels, dtype) -> list[tuple[np.ndarray, np.ndarray]]:
    """(nodes ascending, their kernels as one (G, w) array in ``dtype``) per kernel width."""
    widths = np.array([len(beta) for beta in kernels])
    return [
        (nodes, in_arithmetic([kernels[j] for j in nodes], dtype))
        for nodes in (np.flatnonzero(widths == w) for w in sorted(set(widths)))
    ]


def termination_update(state: RatioNodeState, new_phi: int, round_index: int) -> None:
    """Update the agreement counter and the done flag for one node.

    ``r`` counts how many consecutive rounds phi has held its current value,
    the attainment round included.  A node terminates once it has detected
    defectiveness and either phi has held for c0 rounds or the local budget
    2*phi - 1 has elapsed (at that point phi equals the largest frozen
    counter, so the node knows no information is still in flight).
    """
    state.r = state.r + 1 if new_phi == state.phi else 1
    state.phi = new_phi
    if state.done_round is None and state.c0 is not None:
        if state.r >= state.c0 or round_index >= 2 * state.phi - 1:
            state.done_round = round_index
            state.phi_done = state.phi


@dataclass
class AverageResult:
    """Outcome of one finite-time averaging run."""

    mu: np.ndarray                    # (N, n) per-node exact averages
    degrees: list[int]                # budget degrees M_j (shifted window)
    rounds_used: int
    detection_rounds: list[int]
    done_rounds: list[int]
    m_bar: int
    diameter_bound: int               # max over unshifted-window degrees
    kernels: list[np.ndarray]         # float64 Hankel kernel beta_j per node
    distance_degrees: list[int] | None = None
    phi_done: list[int] | None = None  # certified counter maximum per node


def _values(node_count: int, initial_values) -> np.ndarray:
    """(N, n) initial values, n >= 1, in their own arithmetic (ints become float), checked finite."""
    vals = np.asarray(initial_values)
    vals = vals.astype(np.result_type(vals.dtype, float), copy=False)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != node_count:
        raise InvalidInputError(
            f"need one initial value per node, got {vals.shape[0]} for N={node_count}"
        )
    if vals.shape[1] == 0:
        raise InvalidInputError("initial values need at least one entry per node")
    # == and != are the comparisons a Decimal NaN answers without signalling
    if not (np.all(vals == vals) and np.all(np.abs(vals) != np.inf)):
        raise InvalidInputError("initial values must be finite")
    return vals


def _rows(g: Digraph, initial_values) -> np.ndarray:
    """(N, n+1) rows [alpha | 1] in the initial values' arithmetic."""
    vals = _values(g.node_count, initial_values)
    return np.hstack([vals, vals[:, :1] * 0 + 1])


def _ratio_history(pw: np.ndarray, rows: np.ndarray, rounds: int) -> np.ndarray:
    """The iterates hist[k+1] = P hist[k] from hist[0] = rows, P already in their arithmetic."""
    hist = np.empty((rounds + 1, *rows.shape), dtype=rows.dtype)
    hist[0] = rows
    for k in range(rounds):
        hist[k + 1] = pw @ hist[k]
    return hist


def _degenerate(message: str, numerators: np.ndarray) -> DegenerateInitializationError:
    """The error, carrying every node's numerator history (N, rounds+1, n)."""
    return DegenerateInitializationError(message, history=numerators.swapaxes(0, 1))


def _counter_round(fabric: SyncFabric, states: list[RatioNodeState]) -> list[int]:
    """One lockstep exchange of max(phi, c); each node's largest value heard (0: none)."""
    heard = [0] * len(states)

    def send(j):
        top = max(states[j].phi, states[j].c)
        return [(l, top) for l in fabric.graph.out_neighbors(j)]

    def receive(j, inbox):
        heard[j] = max((top for _, top in inbox), default=0)

    round_exchange(fabric, send, receive)
    return heard


def _detect(
    hist: np.ndarray, states: list[RatioNodeState], round_index: int, rel_tol: float
) -> None:
    """Run the rank monitors on hist[: round_index + 1] as new square Hankels complete.

    The shifted window (budget degree M, counter freeze) gains a new square
    at even rounds; the unshifted window (distance degree for D') gains one
    at odd rounds.
    """
    shift, width = 1 - round_index % 2, (round_index + 1) // 2
    for j, st in enumerate(states):
        if (st.M if shift else st.distance_degree) is not None:
            continue
        stack = _live_difference_stack(hist[:, j], width, square=True, shift=shift)
        if not _is_defective(stack, rel_tol):
            continue
        if shift:
            st.M, st.c0, st.c = width - 1, 2 * width, 2 * width
            st.detection_round = round_index
        else:
            st.distance_degree = width - 1


def finite_time_average(
    g: Digraph,
    initial_values,
    rel_tol: float = DEFAULT_REL_TOL,
    weights=None,
    round_cap: int | None = None,
) -> AverageResult:
    """Run ratio consensus with distributed termination until every node stops.

    Returns the per-node exact averages together with the detected degrees,
    from which the round budget m_bar and the diameter bound D' follow.
    Raises DegenerateInitializationError if defectiveness never shows up
    within the round cap (initial values on the measure-zero bad set).
    """
    rows = _rows(g, initial_values)
    if g.node_count == 1:
        return AverageResult(
            mu=rows[:, :-1],
            degrees=[0],
            rounds_used=0,
            detection_rounds=[0],
            done_rounds=[0],
            m_bar=m_bar([0]),
            diameter_bound=0,
            kernels=[np.ones(1)],
            distance_degrees=[0],
        )
    p = out_weight_matrix(g) if weights is None else validate_weights(g, weights)
    if round_cap is None:
        round_cap = 4 * g.node_count + 2
    # the iterates ignore the counters: one chain to the cap, round m reads hist[: m + 1]
    hist = _ratio_history(in_arithmetic(p, rows.dtype), rows, max(round_cap, 0))
    states = [RatioNodeState() for _ in range(g.node_count)]
    fabric = SyncFabric(g)
    for round_index in range(1, round_cap + 1):
        heard = _counter_round(fabric, states)
        for st in states:
            if st.c0 is None:
                st.c += 1
        _detect(hist[: round_index + 1], states, round_index, rel_tol)
        for st, top in zip(states, heard):
            # phi and c of the in-neighbours arrive from before this round
            termination_update(st, max(st.phi, st.c, top), round_index)
        if all(st.done for st in states) and all(
            st.distance_degree is not None for st in states
        ):
            break
    else:
        raise _degenerate(
            f"no Hankel defectiveness within {round_cap} rounds; "
            "perturb the initial values and retry",
            hist[..., :-1],
        )
    hist = hist[: fabric.round_index + 1]
    kernels = [_kernel(hist[:, j], rel_tol) for j in range(g.node_count)]
    missing = [j for j, beta in enumerate(kernels) if beta is None]
    if missing:
        raise _degenerate(f"nodes {missing}: no rank-deficient Hankel width", hist[..., :-1])
    alpha, pi = hist[..., :-1], hist[..., -1:]
    mu = np.empty_like(rows[:, :-1])
    for nodes, beta in _by_width(kernels, rows.dtype):
        mu[nodes] = _window_sum(alpha, nodes, beta) / _window_sum(pi, nodes, beta)
    degrees = [st.M for st in states]
    distance_degrees = [st.distance_degree for st in states]
    return AverageResult(
        mu=mu,
        degrees=degrees,
        rounds_used=fabric.round_index,
        detection_rounds=[st.detection_round for st in states],
        done_rounds=[st.done_round for st in states],
        m_bar=m_bar(degrees),
        diameter_bound=diameter_upper_bound(distance_degrees),
        kernels=kernels,
        distance_degrees=distance_degrees,
        phi_done=[st.phi_done for st in states],
    )


@dataclass(frozen=True)
class Agreement:
    """What every agreement of a run reuses, fixed once, in the loop arithmetic.

    ``groups`` holds per stored-kernel width the nodes (ascending), their
    kernels (G, w) and the latest and lag-1 pi-window denominators
    p_win @ beta (G, 1), or None twice when ``rounds`` leaves no earlier window.
    """

    rounds: int
    rel_tol: float
    p: np.ndarray
    groups: tuple


def prepare_agreement(
    g: Digraph, rounds: int, kernels, dtype=float, rel_tol=DEFAULT_REL_TOL, weights=None
) -> Agreement:
    """Validate and convert P, group the stored kernels, and fix the denominators.

    pi evolves as P^k 1 whatever the data, so its windows are computed here,
    once; ``dtype`` is the arithmetic of the values the agreements will get.
    """
    if len(kernels) != g.node_count:
        raise InvalidInputError(f"need one stored kernel per node, got {len(kernels)}")
    p = out_weight_matrix(g) if weights is None else validate_weights(g, weights)
    pw = in_arithmetic(p, dtype)
    pi = _ratio_history(pw, in_arithmetic(np.ones((g.node_count, 1)), dtype), max(rounds, 0))
    groups = []
    for nodes, beta in _by_width(kernels, dtype):
        earlier = rounds > beta.shape[1]   # else the agreements raise, with the history
        dens = [_window_sum(pi, nodes, beta, lag) if earlier else None for lag in (0, 1)]
        groups.append((nodes, beta, *dens))
    return Agreement(rounds, rel_tol, pw, tuple(groups))


def exact_average_fixed_rounds(agreement: Agreement, initial_values) -> np.ndarray:
    """Agreement phase: ``rounds`` products, then one quotient per node.

    For fixed weights node j's iterates satisfy one recurrence whatever the
    data, so the bootstrap kernel beta_j (``AverageResult.kernels``) serves
    every agreement and no rank test runs; the products carry the
    numerators only.  Returns the (N, n) averages.  Each node checks its
    quotient against the one a window earlier, equal in exact arithmetic
    unless beta_j misses a mode: a gap above rel_tol times the largest
    input, or no earlier window, raises DegenerateInitializationError
    naming the lowest-indexed failing node.
    """
    pw, rounds = agreement.p, agreement.rounds
    vals = _values(len(pw), initial_values)
    if vals.dtype != pw.dtype:
        raise InvalidInputError(f"values in {vals.dtype}, agreement prepared for {pw.dtype}")
    hist = _ratio_history(pw, vals, max(rounds, 0))
    mu, gaps, widths = np.empty_like(vals), np.full(len(pw), np.inf), np.empty(len(pw), int)
    for nodes, beta, den, den_lag in agreement.groups:
        widths[nodes] = beta.shape[1]
        if den is not None:
            mu[nodes] = quotients = _window_sum(hist, nodes, beta) / den
            lagged = _window_sum(hist, nodes, beta, lag=1) / den_lag
            gaps[nodes] = np.max(np.abs(quotients - lagged), axis=1)
    tol = agreement.rel_tol * float(np.max(np.abs(vals)))
    bad = np.flatnonzero(~(gaps <= tol))   # a NaN gap fails too
    if len(bad):
        j = bad[0]
        fault = (
            f"consecutive windows differ by {gaps[j]:.3e}" if rounds > widths[j]
            else f"{rounds} rounds leave no earlier window"
        )
        raise _degenerate(f"node {j}, stored width-{widths[j]} kernel: {fault}", hist)
    return mu
