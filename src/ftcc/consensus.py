"""Ratio consensus, minimum-time exact averaging, and distributed termination.

Each node iterates one row [alpha | pi] (numerators and denominator) with
column-stochastic weights P: x(k+1) = P x(k), one product per round on a
single (rounds+1, N, n+1) history.  P is supported on the edges
(validate_weights), so a product moves values only along them; node j reads
only hist[:, j], in the arithmetic of the initial values (float64, longdouble
or Decimal at the caller's context precision).  The iterates ignore the
counters, so the bootstrap runs three steps, and grows the history only as
far as they read it:

1. Detect: ``_first_defective`` finds each node's first rank-deficient
   square Hankel of iterate differences, in each of two windows (below),
   width by width, as one batched rank test (``_deficient``) over the nodes
   still searching, grouped by live-column mask; each node's test still
   reads only hist[:, j].  Width w reads the rounds up to 2w - 1 + shift,
   and the history grows as the search reads it, doubling up to the round
   cap.
2. Terminate: a max-consensus ladder over step counters tells every node
   when to stop, counts its rounds and yields m_bar and a diameter bound D'.
   Its round, ``_max_round``, one masked max over integer keys, is also the
   leader election's (``elect_leader``, D' rounds over ranked (value, id) pairs).
3. Check: ``_checked_average`` forms each node's kernel quotient on its
   latest window and raises unless it matches the one a window earlier.
   It reads the history cut or continued to the ladder's last round.  When
   detection or the ladder fails, the error carries the history continued
   to the round cap.

With P and the kernels fixed, a node's quotient is a fixed linear functional
of the inputs, so an Agreement, prepared from one history of the identity,
holds the kernels and these functionals as two N x N maps (latest window, one
window earlier).  The bootstrap prepares one in float64 for its own rounds and
returns it (``AverageResult.agreement``); the closed loop reuses it when it
runs in that arithmetic, with that P, for that many rounds, and otherwise
prepares its own (``agreement_maps``).
Their difference is fixed too, and its l1 norm bounds the gap of every input,
so the Agreement also lists the nodes that bound cannot clear.  The check, in
the bootstrap and in every agreement, is one product with the latest map, and
a second with the earlier one only when some node is listed.

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
import math
import numbers
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import DegenerateInitializationError, InvalidInputError, ProtocolFailureError
from .graph import Digraph, out_weight_matrix
from .linalg import as_matrix, common_kernel_vector

# The Hankel rank tolerance: a stack is deficient when its smallest singular
# value is at most this times its largest, and a window check allows this
# times the largest input magnitude
RANK_REL_TOL = 1e-8
# The largest and the smallest normal float64
_FLOAT_MAX, _FLOAT_TINY = np.finfo(float).max, np.finfo(float).tiny


def m_bar(m_values) -> int:
    """Network round budget: 2 * max_j(2 * (M_j + 1)) - 1."""
    ms = list(m_values)
    if not ms or any(m < 0 for m in ms):
        raise InvalidInputError("m_bar needs at least one nonnegative degree")
    return 2 * max(2 * (m + 1) for m in ms) - 1


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


def _deficient(hist: np.ndarray, shift: int, w: int, nodes: np.ndarray) -> list:
    """The (node, stack) pairs of ``nodes`` whose width-``w`` Hankel stack is rank deficient.

    Node j's differences hist[k+1, j] - hist[k, j] from k = ``shift`` on, taken
    in the history's arithmetic and cast to float, give one scalar sequence
    per column of [alpha | pi]; every width-``w`` window of them gives a row.
    A column is live while its largest difference exceeds 64 eps times its
    largest iterate magnitude: below that it is constant up to arithmetic
    noise, which would otherwise show as a full-rank Hankel, and imposes no
    constraint.  Each live column is scaled by its largest difference, so the
    rank test compares like with like, and the blocks of a node's live
    columns are stacked.  The nodes are grouped by their live-column mask,
    one batched SVD per group; a stack has rank below w when its smallest
    singular value is at most RANK_REL_TOL times its largest.  The stack is None
    when every column has converged.
    """
    eps, hist = _dtype_eps(hist.dtype), hist[:, nodes]
    diffs = np.diff(hist[shift:], axis=0).astype(float, copy=False)
    scale = np.max(np.abs(diffs), axis=0)
    top = np.max(np.abs(hist).astype(float, copy=False), axis=0)
    live = ~(scale <= 64.0 * eps * np.maximum(top, 1e-300))
    if np.isinf(scale[live]).any():   # differences past the float range: inf / inf
        raise InvalidInputError("matrix contains non-finite entries")
    z = diffs / np.where(live, scale, 1.0)
    windows = sliding_window_view(z, w, axis=0).transpose(1, 2, 0, 3)   # (k, c, rows, w)
    groups, hits = {}, []
    for i, mask in enumerate(map(tuple, live.tolist())):
        groups.setdefault(mask, []).append(i)
    for mask, at in groups.items():
        at, cols = np.array(at), np.flatnonzero(mask)
        if not len(cols):   # every column converged
            hits += zip(nodes[at], repeat(None))
            continue
        stacks = windows[at[:, None], cols].reshape(len(at), -1, w)
        sv = np.linalg.svd(stacks, compute_uv=False)
        deficient = ~np.all(sv > RANK_REL_TOL * sv[:, :1], axis=1)
        hits += zip(nodes[at[deficient]], stacks[deficient])
    return hits


def _first_defective(history, shift: int) -> list:
    """Each node's first rank-deficient Hankel stack of its iterate differences, all nodes at once.

    ``history(r)`` gives the iterates to round r, or all it has when it ends
    sooner; width w is tested on ``history(2w - 1 + shift)``, on the nodes
    still searching, and the search ends once none is or the history ends
    before that round.  A square Hankel is a history cut at that round, a
    tall one the whole history.  Entry j is (w, stack) for node j's first
    width whose stack has rank below w (``_deficient``), else None.
    """
    found = [None] * history(0).shape[1]
    searching, w = np.arange(len(found)), 1
    while len(searching):
        hist = history(2 * w - 1 + shift)
        if len(hist) < 2 * w + shift:
            break
        for j, stack in _deficient(hist, shift, w, searching):
            found[j] = (w, stack)
        searching = np.array([j for j in searching if found[j] is None], dtype=np.intp)
        w += 1
    return found


@dataclass
class AverageResult:
    """Outcome of one finite-time averaging run."""

    mu: np.ndarray                    # (N, n) per-node exact averages
    degrees: list[int]                # budget degrees M_j (shifted window)
    rounds_used: int
    done_rounds: list[int]
    m_bar: int
    diameter_bound: int               # max over unshifted-window degrees
    agreement: Agreement              # float64, rounds_used rounds: the kernels and their maps
    distance_degrees: list[int]
    phi_done: list[int]               # certified counter maximum per node


def _values(node_count: int, initial_values) -> tuple[np.ndarray, float]:
    """(N, n) initial values, n >= 1, in their own arithmetic (ints become float), within
    float64, and their largest magnitude as a float.  The values are real: one check of
    the dtype's kind rejects a complex, bool or string array; an object array holds Decimals."""
    vals = np.asarray(initial_values)
    if vals.dtype.kind not in "iufO":
        raise InvalidInputError(f"initial values must be real numbers, got dtype {vals.dtype}")
    vals = vals.astype(np.result_type(vals.dtype, float), copy=False)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != node_count:
        raise InvalidInputError(
            f"need one initial value per node, got {vals.shape[0]} for N={node_count}"
        )
    if vals.shape[1] == 0:
        raise InvalidInputError("initial values need at least one entry per node")
    # NaN first, by ==, the one comparison a Decimal NaN answers without
    # signalling; then the float range, which the rank monitor casts to: the
    # largest magnitude must round to a finite float
    if not (np.all(vals == vals) and (top := float(np.max(np.abs(vals)))) <= _FLOAT_MAX):
        raise InvalidInputError("initial values must be finite in float64")
    return vals, top


def _rows(g: Digraph, initial_values) -> tuple[np.ndarray, float]:
    """(N, n+1) rows [alpha | 1] in the initial values' arithmetic, and max |alpha| as a float."""
    vals, top = _values(g.node_count, initial_values)
    return np.hstack([vals, vals[:, :1] * 0 + 1]), top


def _ratio_history(pw: np.ndarray, rows: np.ndarray, rounds: int) -> np.ndarray:
    """The iterates hist[k+1] = P hist[k] from hist[0] = rows, P already in their arithmetic."""
    hist = np.empty((rounds + 1, *rows.shape), dtype=rows.dtype)
    hist[0] = rows
    for k in range(rounds):
        hist[k + 1] = pw @ hist[k]
    return hist


def _grown(pw: np.ndarray, hist: np.ndarray, rounds: int) -> np.ndarray:
    """``hist`` continued by the same products to at least ``rounds`` rounds."""
    if len(hist) > rounds:
        return hist
    return np.concatenate([hist, _ratio_history(pw, hist[-1], rounds + 1 - len(hist))[1:]])


def _degenerate(message: str, numerators: np.ndarray) -> DegenerateInitializationError:
    """The error, carrying every node's numerator history (N, rounds+1, n)."""
    return DegenerateInitializationError(message, history=numerators.swapaxes(0, 1))


def _max_round(g: Digraph, values: list[int]) -> list[int]:
    """One lockstep max-consensus round on integer keys: each node keeps the
    largest key of its closed in-neighbourhood, one masked max over
    ``closed_in``.  A round sends one message per edge, E in all."""
    return np.where(g.closed_in, values, min(values)).max(axis=1).tolist()


def _ladder(g: Digraph, c0: list[int], last: int, round_cap: int):
    """(rounds, each node's done round, its phi at done), or None past ``round_cap``.

    Node j's counter min(round, c0_j) freezes at its detection round c0_j.
    Each round one max round spreads phi, which already covers every counter
    of the round before, and phi_j takes the max of what node j kept and its
    counter.  From round c0_j on, node j stops once phi_j has held for
    c0_j rounds (the attainment round included) or round 2*phi_j - 1 has come.
    The ladder, rounds x E messages, ends once every node has stopped and
    round ``last`` has come.
    """
    n = len(c0)
    phi, held, done, phi_done = [0] * n, [0] * n, [None] * n, [None] * n
    for k in range(1, round_cap + 1):
        kept = _max_round(g, phi)
        for j in range(n):
            top = max(kept[j], min(k, c0[j]))
            held[j] = held[j] + 1 if top == phi[j] else 1
            phi[j] = top
            if done[j] is None and k >= c0[j] and (held[j] >= c0[j] or k >= 2 * top - 1):
                done[j], phi_done[j] = k, top
        if k >= last and None not in done:
            return k, done, phi_done
    return None


def elect_leader(g: Digraph, d_prime: int, values=None) -> int:
    """Max-consensus leader election over per-node values for D' rounds.

    Every node ends up knowing the winning (value, id) pair; ties in value
    resolve to the larger id.  With the default values (node ids) the
    maximum id wins.  A value that is not a finite real number (a bool, a
    string or a complex is none) raises InvalidInputError.
    The pairs are ranked once; the D' rounds, D' x E messages, carry the ranks.
    """
    n = g.node_count
    if values is None:
        values = list(range(n))
    if len(values) != n:
        raise InvalidInputError("need one election value per node")
    if not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
        for v in values
    ):
        raise InvalidInputError("election values must be finite real numbers")
    pairs = [(float(v), j) for j, v in enumerate(values)]
    order = sorted(range(n), key=pairs.__getitem__)   # the node of each rank
    ranks = np.empty(n, dtype=np.intp)
    ranks[order] = range(n)
    for _ in range(max(d_prime, 0)):
        ranks = _max_round(g, ranks)
    best = [pairs[order[r]] for r in ranks]
    winners = {pair[1] for pair in best}
    if len(winners) != 1:
        raise ProtocolFailureError(
            f"leader election did not converge in {d_prime} rounds: views {best}"
        )
    return winners.pop()


@dataclass(frozen=True)
class Agreement:
    """What every agreement with these kernels reuses, fixed once, in the arithmetic of ``p``.

    Row j of ``w`` (``w_lag``) maps the inputs to node j's kernel quotient on
    its latest window (one window earlier) of ``kernels[j]``, the float64
    kernel it was prepared from; both rows are zero where ``rounds`` leaves
    node j's width-``widths[j]`` kernel no earlier window (``earlier``).

    Node j's window gap is (W_j - W_lag,j) v in exact arithmetic, and the
    two products add at most N eps (|W_j|_1 + |W_lag,j|_1) max|v| of
    roundoff, eps the unit of the arithmetic, so for every input v the
    computed gap is at most b_j max|v|, up to a few ulps, with
    b_j = |W_j - W_lag,j|_1 + N eps (|W_j|_1 + |W_lag,j|_1) in float64.  A
    node with 2 b_j <= RANK_REL_TOL thus passes the check whatever the input, with
    a margin of half the tolerance for the ulps; ``checked`` lists, ascending,
    the others: the nodes with no earlier window or a larger (or NaN) b_j.
    The bound holds while the agreements run at the precision the maps were
    prepared in (a Decimal context with fewer digits is outside it) and no
    product leaves float64's normal range; ``reach``, the largest row l1 norm
    of the two maps, bounds every partial sum of a product by reach max|v|.
    """

    rounds: int
    p: np.ndarray
    kernels: tuple[np.ndarray, ...]
    w: np.ndarray
    w_lag: np.ndarray
    widths: np.ndarray
    earlier: np.ndarray
    checked: np.ndarray
    reach: float


def agreement_maps(pw: np.ndarray, rounds: int, kernels) -> Agreement:
    """The quotient maps, from one history of the identity under a checked P in the arithmetic.

    A node's kernel sums over its latest complete window, which suppresses
    residual-mode contamination, give its numerator coefficients; pi = P^k 1
    is the row sum of P^k, so their sum is its denominator.  Each node's
    bound b_j (``Agreement``) is taken once here, from the maps as stored.
    """
    if len(kernels) != len(pw):
        raise InvalidInputError(f"need one stored kernel per node, got {len(kernels)}")
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
    gap, latest, lagged = (
        np.abs(m).astype(float).sum(axis=1) for m in (maps[0] - maps[1], *maps)
    )
    bound = gap + len(pw) * _dtype_eps(pw.dtype) * (latest + lagged)
    checked = np.flatnonzero(~earlier | ~(2 * bound <= RANK_REL_TOL))   # a NaN bound is checked
    reach = float(np.max(np.maximum(latest, lagged)))
    return Agreement(rounds, pw, tuple(kernels), *maps, widths, earlier, checked, reach)


def _checked_average(agreement: Agreement, vals: np.ndarray, top: float, hist=None) -> np.ndarray:
    """The (N, n) quotients on each node's latest window, each checked against the one before.

    The two are equal in exact arithmetic unless beta_j misses a mode: a gap
    above RANK_REL_TOL times ``top``, the largest input magnitude, or no earlier window, raises
    DegenerateInitializationError naming the lowest-indexed failing node and
    carrying the numerator history, ``hist`` or else rebuilt from ``vals``.
    Only the nodes in ``agreement.checked`` need the earlier quotients, and
    with none of them this is one product: every other node's bound keeps
    its gap within half the tolerance.  That takes inputs at the precision
    the maps were prepared in and a tolerance and products in float64's
    normal range; outside the range, where underflow or overflow adds more
    than the bound allows, every node is checked.
    """
    mu, tol, rows = agreement.w @ vals, RANK_REL_TOL * top, agreement.checked
    if not (_FLOAT_TINY <= tol and top * agreement.reach <= _FLOAT_MAX / 2):
        rows = np.arange(len(mu))
    if not len(rows):
        return mu
    earlier = agreement.earlier[rows]
    gaps = np.full(len(rows), np.inf)
    # the whole product: a float64 product of fewer rows may round a row differently
    lagged = (agreement.w_lag @ vals)[rows]
    gaps[earlier] = np.max(np.abs(mu[rows] - lagged), axis=1)[earlier]
    bad = np.flatnonzero(~(gaps <= tol))   # a NaN gap fails too
    if len(bad):
        i, j = bad[0], rows[bad[0]]
        fault = (
            f"consecutive windows differ by {gaps[i]:.3e}" if earlier[i]
            else f"{agreement.rounds} rounds leave no earlier window"
        )
        hist = _ratio_history(agreement.p, vals, max(agreement.rounds, 0)) if hist is None else hist
        raise _degenerate(f"node {j}, stored width-{agreement.widths[j]} kernel: {fault}", hist)
    return mu


def finite_time_average(
    g: Digraph, initial_values, weights=None, round_cap: int | None = None
) -> AverageResult:
    """Run ratio consensus with distributed termination until every node stops.

    Returns the per-node exact averages together with the detected degrees,
    from which the round budget m_bar and the diameter bound D' follow.
    Raises DegenerateInitializationError if defectiveness never shows up or
    the ladder does not end within the round cap (initial values on the
    measure-zero bad set), or if a kernel fails the window check.
    """
    rows, top = _rows(g, initial_values)
    p = out_weight_matrix(g) if weights is None else validate_weights(g, weights)
    if round_cap is None:
        round_cap = 4 * g.node_count + 2
    pw = in_arithmetic(p, rows.dtype)
    hist = rows[None]

    def history(r):   # the iterates to round r, the history doubled as needed up to the cap
        nonlocal hist
        if r >= len(hist):
            hist = _grown(pw, hist, min(max(r, 2 * (len(hist) - 1)), round_cap))
        return hist[: r + 1]

    degrees, distance_degrees = (
        [None if f is None else f[0] - 1 for f in _first_defective(history, shift)]
        for shift in (1, 0)
    )
    ladder = None
    if None not in degrees + distance_degrees:
        c0 = [2 * (m + 1) for m in degrees]
        ladder = _ladder(g, c0, 2 * max(distance_degrees) + 1, round_cap)
    if ladder is None:
        raise _degenerate(
            f"no Hankel defectiveness within {round_cap} rounds; "
            "perturb the initial values and retry",
            _grown(pw, hist, round_cap)[..., :-1],
        )
    rounds, done, phi_done = ladder
    hist = _grown(pw, hist, rounds)[: rounds + 1]
    kernels = [
        None if f is None else np.ones(1) if f[1] is None
        else common_kernel_vector(f[1], RANK_REL_TOL)
        for f in _first_defective(lambda r: hist, 1)
    ]
    missing = [j for j, beta in enumerate(kernels) if beta is None]
    if missing:
        raise _degenerate(f"nodes {missing}: no rank-deficient Hankel width", hist[..., :-1])
    agreement = agreement_maps(pw, rounds, kernels)
    return AverageResult(
        mu=_checked_average(agreement, rows[:, :-1], top, hist[..., :-1]),
        degrees=degrees,
        rounds_used=rounds,
        done_rounds=done,
        m_bar=m_bar(degrees),
        diameter_bound=max(distance_degrees),
        agreement=agreement,
        distance_degrees=distance_degrees,
        phi_done=phi_done,
    )


def exact_average_fixed_rounds(agreement: Agreement, initial_values) -> np.ndarray:
    """Agreement phase: ``rounds`` rounds, then one checked quotient per node.

    For fixed weights node j's iterates satisfy one recurrence whatever the
    data, so the bootstrap kernel beta_j (``Agreement.kernels``) serves
    every agreement and no rank test runs, and the quotients are the
    prepared maps applied to the inputs.  Returns the (N, n) averages, or
    raises DegenerateInitializationError as the bootstrap's check does.
    """
    pw = agreement.p
    vals, top = _values(len(pw), initial_values)
    if vals.dtype != pw.dtype:
        raise InvalidInputError(f"values in {vals.dtype}, agreement prepared for {pw.dtype}")
    return _checked_average(agreement, vals, top)
