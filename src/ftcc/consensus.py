"""Ratio consensus, minimum-time exact averaging, and distributed termination.

Each node iterates one row [alpha | pi] (numerators and denominator) with
column-stochastic weights P: x(k+1) = P x(k), one product per round on a
single (rounds+1, N, n+1) history.  P is supported on the edges
(validate_weights), so a product moves values only along them; node j reads
only hist[:, j], in the arithmetic of the initial values (float64, longdouble
or Decimal at the caller's context precision).  The iterates ignore the
counters, so the bootstrap builds its history to the round cap once and then
runs three steps:

1. Detect: ``_first_defective`` finds each node's first rank-deficient
   square Hankel of iterate differences, in each of two windows (below), as
   one batched rank test per width over the nodes still searching, grouped
   by live-column mask; each node's test still reads only hist[:, j].
2. Terminate: a max-consensus ladder over step counters, sent on the fabric,
   tells every node when to stop and yields m_bar and a diameter bound D'.
3. Check: ``_checked_average`` forms each node's kernel quotient on its
   latest window and raises unless it matches the one a window earlier.

With P and the kernels fixed, a node's quotient is a fixed linear functional
of the inputs, so an Agreement, prepared once per run from one history of the
identity, holds them as two N x N maps (latest window, one window earlier);
the check, in the bootstrap and in every agreement, is two products with them.

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
from itertools import repeat
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import DegenerateInitializationError, InvalidInputError
from .graph import Digraph, SyncFabric, out_weight_matrix, round_exchange
from .linalg import as_matrix, common_kernel_vector

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
    if not np.array_equal((pm.T > 0) & ~np.eye(n, dtype=bool), g.adjacency):
        raise InvalidInputError("off-diagonal support of P does not match the graph")
    return pm


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


def _first_defective(hist: np.ndarray, shift: int, rel_tol: float, square: bool = True) -> list:
    """Each node's first rank-deficient Hankel stack of its iterate differences, all nodes at once.

    Node j's differences hist[k+1, j] - hist[k, j] from k = ``shift`` on, taken
    in the history's arithmetic and cast to float, give one scalar sequence
    per column of [alpha | pi].  Width w reads the iterates up to round
    2w - 1 + shift when ``square`` (its square Hankel completes then), else the
    whole history; every window of the differences read gives a row.  A
    column is live while its largest difference exceeds 64 eps times its
    largest iterate magnitude, both over the rounds read: below that it is
    constant up to arithmetic noise, which would otherwise show as a
    full-rank Hankel, and imposes no constraint.  Each live column is scaled
    by its largest difference, so the rank test compares like with like, and
    the blocks of a node's live columns are stacked.  The nodes still
    searching are grouped by their live-column mask, one batched SVD per
    group; a stack has rank below w when its smallest singular value is at
    most rel_tol times its largest.  Entry j is (w, stack) for node j's
    first width whose stack has rank below w, stack None when every column
    has converged; None when no width up to (len(hist) - shift) // 2 is.
    """
    eps = _dtype_eps(hist.dtype)
    diffs = np.diff(hist, axis=0)[shift:].astype(float, copy=False)
    sizes = np.abs(hist).astype(float, copy=False)
    found, searching = [None] * hist.shape[1], np.arange(hist.shape[1])
    for w in range(1, (len(hist) - shift) // 2 + 1):
        end = 2 * w - 1 if square else len(diffs)   # the differences width w reads
        scale = np.max(np.abs(diffs[:end, searching]), axis=0)
        top = np.max(sizes[: end + shift + 1, searching], axis=0)
        live = ~(scale <= 64.0 * eps * np.maximum(top, 1e-300))
        if np.isinf(scale[live]).any():   # differences past the float range: inf / inf
            raise InvalidInputError("matrix contains non-finite entries")
        z = diffs[:end, searching] / np.where(live, scale, 1.0)
        windows = sliding_window_view(z, w, axis=0).transpose(1, 2, 0, 3)   # (k, c, rows, w)
        groups = {}
        for i, mask in enumerate(map(tuple, live.tolist())):
            groups.setdefault(mask, []).append(i)
        for mask, at in groups.items():
            at, cols = np.array(at), np.flatnonzero(mask)
            if not len(cols):   # every column converged
                hits = zip(at, repeat(None))
            else:
                stacks = windows[at[:, None], cols].reshape(len(at), -1, w)
                sv = np.linalg.svd(stacks, compute_uv=False)
                deficient = ~np.all(sv > rel_tol * sv[:, :1], axis=1)
                hits = zip(at[deficient], stacks[deficient])
            for i, stack in hits:
                found[searching[i]] = (w, stack)
        searching = np.array([j for j in searching if found[j] is None], dtype=np.intp)
        if not len(searching):
            break
    return found


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


def _counter_round(fabric: SyncFabric, tops: list[int]) -> list[int]:
    """One lockstep exchange of each node's max(phi, c); the largest value each heard (0: none)."""
    heard = [0] * len(tops)

    def send(j):
        return zip(fabric.graph.out_neighbors(j), repeat(tops[j]))

    def receive(j, inbox):
        heard[j] = max(map(itemgetter(1), inbox), default=0)

    round_exchange(fabric, send, receive)
    return heard


def _ladder(fabric: SyncFabric, c0: list[int], last: int, round_cap: int):
    """Each node's (done round, phi at done), or None when the ladder passes ``round_cap``.

    Node j's counter min(round, c0_j) freezes at its detection round c0_j.
    phi_j takes the max of itself, the counter and what the in-neighbours sent
    a round before.  From round c0_j on, node j stops once phi_j has held for
    c0_j rounds (the attainment round included) or round 2*phi_j - 1 has come.
    The ladder ends once every node has stopped and round ``last`` has come.
    """
    n = len(c0)
    phi, held, done, phi_done = [0] * n, [0] * n, [None] * n, [None] * n
    for k in range(1, round_cap + 1):
        heard = _counter_round(fabric, [max(phi[j], min(k - 1, c0[j])) for j in range(n)])
        for j in range(n):
            top = max(phi[j], min(k, c0[j]), heard[j])
            held[j] = held[j] + 1 if top == phi[j] else 1
            phi[j] = top
            if done[j] is None and k >= c0[j] and (held[j] >= c0[j] or k >= 2 * top - 1):
                done[j], phi_done[j] = k, top
        if k >= last and None not in done:
            return done, phi_done
    return None


@dataclass(frozen=True)
class Agreement:
    """What every agreement of a run reuses, fixed once, in the loop arithmetic.

    Row j of ``w`` (``w_lag``) maps the inputs to node j's kernel quotient on
    its latest window (one window earlier); both rows are zero where ``rounds``
    leaves node j's width-``widths[j]`` kernel no earlier window (``earlier``).
    """

    rounds: int
    rel_tol: float
    p: np.ndarray
    w: np.ndarray
    w_lag: np.ndarray
    widths: np.ndarray
    earlier: np.ndarray


def _agreement(pw: np.ndarray, rounds: int, kernels, rel_tol: float) -> Agreement:
    """The quotient maps, from one history of the identity under P (already in the arithmetic).

    A node's kernel sums over its latest complete window, which suppresses
    residual-mode contamination, give its numerator coefficients; pi = P^k 1
    is the row sum of P^k, so their sum is its denominator.
    """
    hist = _ratio_history(pw, in_arithmetic(np.eye(len(pw)), pw.dtype), max(rounds, 0))
    widths = np.array([len(beta) for beta in kernels])
    earlier = widths < rounds   # else the check raises, with the history
    maps = (hist[0] * 0, hist[0] * 0)
    for w in sorted(set(widths[earlier])):
        nodes = np.flatnonzero(widths == w)
        beta = in_arithmetic([kernels[j] for j in nodes], pw.dtype)
        for m, lag in zip(maps, (0, 1)):
            s0 = rounds + 1 - w - lag   # >= 1: the window starts past the inputs
            sums = sum(beta[:, t : t + 1] * hist[s0 + t, nodes] for t in range(w))
            m[nodes] = sums / sums.sum(axis=1, keepdims=True)
    return Agreement(rounds, rel_tol, pw, *maps, widths, earlier)


def _checked_average(agreement: Agreement, vals: np.ndarray, hist=None) -> np.ndarray:
    """The (N, n) quotients on each node's latest window, two products with the inputs.

    Each node checks its quotient against the one a window earlier, equal in
    exact arithmetic unless beta_j misses a mode: a gap above rel_tol times
    the largest input, or no earlier window, raises
    DegenerateInitializationError naming the lowest-indexed failing node and
    carrying the numerator history, ``hist`` or else rebuilt from ``vals``.
    """
    mu, earlier = agreement.w @ vals, agreement.earlier
    gaps = np.full(len(mu), np.inf)
    gaps[earlier] = np.max(np.abs(mu - agreement.w_lag @ vals), axis=1)[earlier]
    tol = agreement.rel_tol * float(np.max(np.abs(vals)))
    bad = np.flatnonzero(~(gaps <= tol))   # a NaN gap fails too
    if len(bad):
        j, widths = bad[0], agreement.widths
        fault = (
            f"consecutive windows differ by {gaps[j]:.3e}" if earlier[j]
            else f"{agreement.rounds} rounds leave no earlier window"
        )
        hist = _ratio_history(agreement.p, vals, max(agreement.rounds, 0)) if hist is None else hist
        raise _degenerate(f"node {j}, stored width-{widths[j]} kernel: {fault}", hist)
    return mu


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
    Raises DegenerateInitializationError if defectiveness never shows up or
    the ladder does not end within the round cap (initial values on the
    measure-zero bad set), or if a kernel fails the window check.
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
    if rel_tol <= 0:
        raise InvalidInputError("rel_tol must be positive")
    pw = in_arithmetic(p, rows.dtype)
    hist = _ratio_history(pw, rows, max(round_cap, 0))
    degrees, distance_degrees = (
        [None if f is None else f[0] - 1 for f in _first_defective(hist, shift, rel_tol)]
        for shift in (1, 0)
    )
    fabric, ladder = SyncFabric(g), None
    if None not in degrees + distance_degrees:
        c0 = [2 * (m + 1) for m in degrees]
        ladder = _ladder(fabric, c0, 2 * max(distance_degrees) + 1, round_cap)
    if ladder is None:
        raise _degenerate(
            f"no Hankel defectiveness within {round_cap} rounds; "
            "perturb the initial values and retry",
            hist[..., :-1],
        )
    rounds = fabric.round_index
    hist = hist[: rounds + 1]
    kernels = [
        None if f is None else np.ones(1) if f[1] is None else common_kernel_vector(f[1], rel_tol)
        for f in _first_defective(hist, 1, rel_tol, square=False)
    ]
    missing = [j for j, beta in enumerate(kernels) if beta is None]
    if missing:
        raise _degenerate(f"nodes {missing}: no rank-deficient Hankel width", hist[..., :-1])
    return AverageResult(
        mu=_checked_average(_agreement(pw, rounds, kernels, rel_tol), rows[:, :-1], hist[..., :-1]),
        degrees=degrees,
        rounds_used=rounds,
        detection_rounds=c0,
        done_rounds=ladder[0],
        m_bar=m_bar(degrees),
        diameter_bound=diameter_upper_bound(distance_degrees),
        kernels=kernels,
        distance_degrees=distance_degrees,
        phi_done=ladder[1],
    )


def prepare_agreement(
    g: Digraph, rounds: int, kernels, dtype=float, rel_tol=DEFAULT_REL_TOL, weights=None
) -> Agreement:
    """Validate and convert P and fix each node's quotient as a map of the inputs, once.

    ``dtype`` is the arithmetic of the values the agreements will get.
    """
    if len(kernels) != g.node_count:
        raise InvalidInputError(f"need one stored kernel per node, got {len(kernels)}")
    p = out_weight_matrix(g) if weights is None else validate_weights(g, weights)
    return _agreement(in_arithmetic(p, dtype), rounds, kernels, rel_tol)


def exact_average_fixed_rounds(agreement: Agreement, initial_values) -> np.ndarray:
    """Agreement phase: ``rounds`` rounds, then one checked quotient per node.

    For fixed weights node j's iterates satisfy one recurrence whatever the
    data, so the bootstrap kernel beta_j (``AverageResult.kernels``) serves
    every agreement and no rank test runs, and the quotients are the
    prepared maps applied to the inputs.  Returns the (N, n) averages, or
    raises DegenerateInitializationError as the bootstrap's check does.
    """
    pw = agreement.p
    vals = _values(len(pw), initial_values)
    if vals.dtype != pw.dtype:
        raise InvalidInputError(f"values in {vals.dtype}, agreement prepared for {pw.dtype}")
    return _checked_average(agreement, vals)
