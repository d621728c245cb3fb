"""Distributed selection of control and observer gains.

Placement is rank-one per eigenvalue: premultiplying the dynamics by a left
eigenvector isolates one modal direction, so the gain row
((target - lam) / (w^T b)) w^T moves that eigenvalue and provably nothing
else.  Iterating the construction (always against the already-updated
matrix) places several eigenvalues.  A token pass runs in two phases.  In
the walk, a token carrying the accumulated feedback F = sum_j B_j K_j moves
one hop per round, so each agent contributes the placements only it can make
on its first visit; a hop is one point-to-point transmission, counted, not
sent.  Once A + F is Schur stable and every target has been consumed, the
holder declares F read-only and the flood sends it over the synchronous
fabric, round by round, until every node holds the network-wide F.
An eigenvalue with |lam| >= 1 - STABILITY_MARGIN, a constant, is unstable:
it must not be defective, and it must find a target.

Three bookkeeping details:

* The token carries a PlacementTargets ledger of the consumed targets, the
  only placement state of a pass and the one owner of the target policy:
  ``take(lam)`` consumes the targets an eigenvalue moves to, and
  ``covers(value)`` tells whether a value sits within PLACEMENT_TOL of a
  consumed target.  An agent skips covered eigenvalues; without that memory
  a downstream agent would re-place its predecessors' work (the spectra
  overlap whenever agents share controllable modes).  When the pass ends,
  every consumed target must sit within the same tolerance of a distinct
  closed-loop eigenvalue, or the pass raises.
* A conjugate eigenvalue pair is placed in real arithmetic with one 2x2
  solve on its real left-invariant subspace, onto a conjugate pair of
  targets or, when none is left, onto two real targets.
* A holder sends the token to its unvisited out-neighbor of smallest id;
  one whose out-neighbors are all visited sends it one step toward the
  nearest unvisited node (one breadth-first search backwards from the
  unvisited set), so a walk takes at most (N - 1) D + 1 hops.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import compress, repeat

import numpy as np

from .exceptions import (
    InsufficientTargetsError,
    InvalidInputError,
    ProtocolFailureError,
    UncontrollableDirectionError,
)
from .graph import Digraph, SyncFabric, round_exchange
from .linalg import as_matrix, eigen_left, is_schur_stable
from .plant import LtiSystem

STABILITY_MARGIN = 1e-9
CONTROLLABILITY_TOL = 1e-7
# Relative distance within which an eigenvalue counts as sitting on a target:
# the walk skips it, and a finished pass must meet it for every consumed one.
PLACEMENT_TOL = 1e-6


def conjugate_closed(values) -> bool:
    """True iff every complex value has its conjugate in the multiset."""
    counts: dict[complex, int] = {}
    for v in values:
        v = complex(v)
        key = complex(round(v.real, 12), round(v.imag, 12))
        counts[key] = counts.get(key, 0) + 1
    for key, cnt in counts.items():
        if abs(key.imag) > 1e-12 and counts.get(key.conjugate(), 0) != cnt:
            return False
    return True


@dataclass
class PlacementTargets:
    """Ordered eigenvalue targets with consumption flags."""

    values: tuple[complex, ...]
    consumed: list[bool] = field(init=False)

    def __post_init__(self):
        self.values = tuple(complex(v) for v in self.values)
        if not conjugate_closed(self.values):
            raise InvalidInputError("targets must be a conjugate-closed set")
        self.consumed = [False] * len(self.values)

    @property
    def all_consumed(self) -> bool:
        return all(self.consumed)

    def consumed_values(self) -> list[complex]:
        return list(compress(self.values, self.consumed))

    def take(self, lam: complex) -> tuple[complex, ...] | None:
        """Consume the targets that eigenvalue ``lam`` (and its conjugate) move to.

        A real lam takes the earliest free real target.  A complex lam takes
        the earliest free complex target with its conjugate, returned as
        (plus, plus.conjugate()) with plus the positive imaginary member,
        else the two earliest free reals.  None, with nothing consumed, when
        too few targets are left.
        """
        free = [i for i, used in enumerate(self.consumed) if not used]
        reals = [i for i in free if abs(self.values[i].imag) <= 1e-12]
        real = abs(lam.imag) <= 1e-12
        pairs = (
            (i, j)
            for i in free
            if i not in reals
            for j in free
            if j != i and abs(self.values[j] - self.values[i].conjugate()) <= 1e-9
        )
        picks = reals[:1] if real else next(pairs, reals[:2])
        if len(picks) < (1 if real else 2):
            return None
        for i in picks:
            self.consumed[i] = True
        taken = tuple(self.values[i] for i in picks)
        if picks[0] in reals:
            return taken
        plus = taken[0] if taken[0].imag > 0 else taken[1]
        return plus, plus.conjugate()

    def covers(self, value: complex) -> bool:
        """True iff ``value`` sits within PLACEMENT_TOL of a consumed target."""
        return any(
            abs(value - t) <= PLACEMENT_TOL * max(1.0, abs(t))
            for t in compress(self.values, self.consumed)
        )


def _checked_wb(a_eff, bv: np.ndarray, wv: np.ndarray, lam: complex) -> complex:
    """w^T b, after checking shapes and that b can move lam at all."""
    a_eff = as_matrix(a_eff, "A_eff")
    if a_eff.shape[0] != a_eff.shape[1]:
        raise InvalidInputError(f"A_eff must be square, got {a_eff.shape}")
    if len(bv) != a_eff.shape[0] or len(wv) != a_eff.shape[0]:
        raise InvalidInputError("b and w must match the state dimension")
    wb = wv @ bv
    if abs(wb) <= CONTROLLABILITY_TOL * np.linalg.norm(wv) * np.linalg.norm(bv):
        raise UncontrollableDirectionError(
            f"eigenvalue {lam:.6g} is not controllable through this column "
            f"(|w^T b| = {abs(wb):.3e})"
        )
    return wb


def place_single(a_eff, b, lam: complex, lam_new: complex, w) -> np.ndarray:
    """Gain row moving one eigenvalue of A_eff to lam_new along direction b.

    ``w`` must be a left eigenvector of A_eff for ``lam``; the caller is
    responsible for having recomputed it on the current (already updated)
    matrix.  Raises UncontrollableDirectionError when w^T b vanishes.
    """
    wv = np.asarray(w, dtype=complex).reshape(-1)
    wb = _checked_wb(a_eff, np.asarray(b, dtype=complex).reshape(-1), wv, lam)
    return ((complex(lam_new) - complex(lam)) / wb) * wv[None, :]


def place_pair(a_eff, b, lam: complex, pair, w) -> np.ndarray:
    """Real gain row moving the eigenvalues lam, conj(lam) of A_eff onto ``pair``.

    With ``w = u + iv`` a left eigenvector for lam = sigma + i omega
    (omega != 0), W = [u; v] satisfies W A = L W with
    L = [[sigma, -omega], [omega, sigma]].  A row k = g W changes only the
    2x2 block L + (W b) g, and g is the one 2x2 solve that gives this block
    the trace and determinant of (z - t1)(z - t2).  W annihilates the right
    eigenvector of every other eigenvalue, so those stay where they are.
    ``pair`` is a conjugate pair or two reals.  Raises
    UncontrollableDirectionError when w^T b vanishes, as place_single does.
    """
    lam = complex(lam)
    if lam.imag == 0:
        raise InvalidInputError(f"place_pair needs a complex eigenvalue, got {lam:.6g}")
    t1, t2 = (complex(t) for t in pair)
    trace, det = t1 + t2, t1 * t2
    if abs(trace.imag) + abs(det.imag) > 1e-9 * (1.0 + abs(det)):
        raise InvalidInputError(
            f"targets {pair} are neither a conjugate pair nor two reals"
        )
    wv = np.asarray(w, dtype=complex).reshape(-1)
    bv = np.asarray(b, dtype=float).reshape(-1)
    _checked_wb(a_eff, bv, wv, lam)
    basis = np.vstack([wv.real, wv.imag])
    beta = basis @ bv
    # trace(L + beta g) = 2 sigma + g.beta
    # det(L + beta g) = |lam|^2 + g.adj(L) beta
    adj = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
    g = np.linalg.solve(
        np.vstack([beta, adj @ beta]),
        [trace.real - 2.0 * lam.real, det.real - abs(lam) ** 2],
    )
    return (g @ basis)[None, :]


def _fmt(values) -> str:
    return ", ".join(f"{v.real:.6g}" if v.imag == 0 else f"{v:.6g}" for v in values)


def _place_through_column(
    a_base: np.ndarray,
    column: np.ndarray,
    targets: PlacementTargets,
) -> np.ndarray:
    """Place everything this column can; returns its (1, n) gain row."""
    n = a_base.shape[0]
    k_accum = np.zeros((1, n))
    b, floor = column.astype(complex), CONTROLLABILITY_TOL * np.linalg.norm(column)
    for _ in range(2 * n):
        current = a_base + column[:, None] @ k_accum
        for candidate in eigen_left(current):
            lam = candidate.value   # a conjugate pair is placed from its +Im member
            if lam.imag >= -1e-12 and not targets.covers(lam) and (
                abs(candidate.left_vector @ b) > floor
            ):
                break
        else:
            return k_accum
        real = abs(lam.imag) <= 1e-12
        taken = targets.take(lam)
        if taken is None:
            if abs(lam) >= 1.0 - STABILITY_MARGIN:
                raise InsufficientTargetsError(
                    f"no real target left for unstable eigenvalue {lam.real:.6g}"
                    if real
                    else f"no targets left for unstable pair {lam:.6g}"
                )
            return k_accum
        w = candidate.left_vector
        row = place_single(current, column, lam, *taken, w) if real else place_pair(
            current, column, lam, taken, w
        )
        k_accum = k_accum + row.real
        if targets.all_consumed:
            # nothing left to consume; unstable leftovers surface below
            leftovers = [
                p.value
                for p in eigen_left(a_base + column[:, None] @ k_accum)
                if abs(p.value) >= 1.0 - STABILITY_MARGIN and not targets.covers(p.value)
            ]
            if leftovers:
                raise InsufficientTargetsError(
                    f"targets exhausted with unstable eigenvalues {leftovers} left"
                )
            return k_accum
    raise ProtocolFailureError("placement loop failed to converge")


def place_for_agent(
    a_eff,
    b_i,
    targets: PlacementTargets,
) -> np.ndarray:
    """Gain K_i placing what agent i can reach through the columns of B_i.

    Each column walks the spectrum of the already-updated matrix in
    modulus-descending order and moves every eigenvalue it can see onto the
    next free target, so the closed-loop spectrum ends up on the configured
    target set.  Eigenvalues within PLACEMENT_TOL of a target the ledger has
    already consumed are never touched again.
    """
    a = as_matrix(a_eff, "A_eff")
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"A_eff must be square, got {a.shape}")
    b = as_matrix(b_i, "B_i")
    n = a.shape[0]
    if b.shape[1] == 0:
        return np.zeros((0, n))
    rows = []
    a_running = a.astype(float)
    for col in range(b.shape[1]):
        k_col = _place_through_column(a_running, b[:, col].astype(float), targets)
        rows.append(k_col)
        a_running = a_running + b[:, col : col + 1] @ k_col
    return np.vstack(rows)


@dataclass
class TokenResult:
    """Outcome of one token pass (control or observer mode)."""

    gains: list[np.ndarray]          # K_i (q_i x n) or L_i (n x p_i)
    f: np.ndarray                    # accumulated feedback of the dual pair
    hop_count: int                   # point-to-point token transmissions
    flood_count: int                 # read-only copies of F the fabric carried
    visit_order: list[int]
    declared_by: int
    rounds: int                      # one per hop, then one per flood round


def _check_unstable_diagonalizable(a: np.ndarray) -> None:
    """Correctness of the walk requires non-defective unstable eigenvalues."""
    pairs = eigen_left(a)
    values = [p.value for p in pairs]
    used = [False] * len(values)
    n = a.shape[0]
    for i, lam in enumerate(values):
        if used[i] or abs(lam) < 1.0 - STABILITY_MARGIN:
            continue
        group = [j for j, v in enumerate(values) if abs(v - lam) < 1e-7]
        for j in group:
            used[j] = True
        if len(group) > 1:
            geo = n - np.linalg.matrix_rank(
                a.astype(complex) - lam * np.eye(n), tol=1e-9
            )
            if geo < len(group):
                raise InvalidInputError(
                    f"unstable eigenvalue {lam:.6g} is defective "
                    f"(algebraic {len(group)}, geometric {geo})"
                )


def _check_placed(closed: np.ndarray, consumed, mode: str) -> None:
    """Match each consumed target to a distinct eigenvalue of the closed loop."""
    free = list(np.linalg.eigvals(closed))
    for t in consumed:
        dist = np.abs(np.asarray(free) - t)
        k = int(np.argmin(dist))
        if dist[k] > PLACEMENT_TOL * max(1.0, abs(t)):
            raise ProtocolFailureError(
                f"{mode} pass missed target {t:.6g}: nearest free eigenvalue "
                f"is {dist[k]:.3e} away"
            )
        free.pop(k)


def _route(g: Digraph, visited: list[int], j: int) -> int:
    """Next hop from j, the smallest id first: an unvisited out-neighbor, else one step toward one."""
    outs = g.out_neighbors(j)   # ascending
    if not outs:
        raise ProtocolFailureError(f"node {j} has no out-neighbors")
    unvisited_outs = [v for v in outs if v not in visited]
    if unvisited_outs:
        return unvisited_outs[0]
    unvisited = [v for v in range(g.node_count) if v not in visited]
    if not unvisited:
        return outs[0]
    # one BFS backwards from the unvisited set: layer k holds the nodes whose
    # nearest unvisited node is k hops ahead; the first layer holding an
    # out-neighbor names the hop, the smallest id breaking a tie
    near = np.zeros(g.node_count, dtype=bool)
    near[unvisited] = True
    layer = near.copy()
    while layer.any():
        layer = g.adjacency[:, layer].any(axis=1) & ~near
        near |= layer
        ahead = [v for v in outs if layer[v]]
        if ahead:
            return ahead[0]
    raise ProtocolFailureError(
        f"no out-neighbor of node {j} leads to an unvisited node {unvisited}"
    )


def run_token_protocol(
    g: Digraph, sys: LtiSystem, targets, leader: int, mode: str = "control"
) -> TokenResult:
    """Run one full token pass: a walk, then a flood over the synchronous fabric.

    Control mode works on (A, B_i); observer mode runs the identical
    protocol on the dual pairs (A^T, -C_i^T / N) and transposes the
    resulting gains into L_i, so A - (1/N) sum_i L_i C_i inherits the
    placed spectrum.  The pass consumes ``targets``, a conjugate-closed
    sequence, through a PlacementTargets ledger of its own.

    Walk: the token starts at the leader.  Its holder first checks the stop
    condition (A + F Schur stable and no unconsumed targets), places what it
    can on its first visit, and forwards the token in one hop (one round) to
    its unvisited out-neighbor of smallest id, else to the out-neighbor
    closest to the remaining unvisited set.  A holder that fails the stop
    condition after every node's visit raises ProtocolFailureError naming
    what is left, since F can no longer change.  Flood: the node that meets
    the stop condition sends the final F to its out-neighbors, and every
    node sends it on in the round after it first receives it; a flood that
    dies out before reaching every node raises ProtocolFailureError.  The
    finished pass must have every consumed target within PLACEMENT_TOL of a
    distinct eigenvalue of A + F, or it names the miss.
    """
    n_agents = g.node_count
    if mode == "control":
        base = sys.a.astype(float)
        inputs = [b.astype(float) for b in sys.b_list]
    elif mode == "observer":
        base = sys.a.T.astype(float)
        inputs = [-c.T.astype(float) / n_agents for c in sys.c_list]
    else:
        raise InvalidInputError(f"unknown mode {mode!r}")
    if sys.agent_count != n_agents:
        raise InvalidInputError("one agent per graph node required")
    _check_unstable_diagonalizable(base)
    if isinstance(leader, bool) or not (
        isinstance(leader, numbers.Integral) and 0 <= leader < n_agents
    ):
        raise InvalidInputError(f"leader {leader!r} is not a node id (0..{n_agents - 1})")
    targets = PlacementTargets(tuple(targets))
    fabric = SyncFabric(g)
    f = np.zeros((sys.n, sys.n))   # rebound, never written in place: the flood sends it as is
    gains = [np.zeros((b.shape[1], sys.n)) for b in inputs]
    visit_order: list[int] = []
    holder, hops = leader, 0
    while not (targets.all_consumed and is_schur_stable(base + f)):
        if len(visit_order) == n_agents:
            left = [v for v in np.linalg.eigvals(base + f)
                    if abs(v) >= 1.0 or not targets.covers(v)]
            unused = [v for v, used in zip(targets.values, targets.consumed) if not used]
            raise ProtocolFailureError(
                f"{mode} token visited every node in {hops} hops and cannot "
                f"finish: unconsumed targets [{_fmt(unused)}]; eigenvalues of A + F "
                f"unstable or on no consumed target [{_fmt(left)}]"
            )
        if holder not in visit_order:
            visit_order.append(holder)
            gains[holder] = place_for_agent(base + f, inputs[holder], targets)
            f = f + inputs[holder] @ gains[holder]
        if n_agents == 1:
            continue   # a lone node re-checks its own token
        holder = _route(g, visit_order, holder)
        hops += 1

    reached, senders = {holder}, {holder}   # the holder declares F read-only
    while len(reached) < n_agents:
        if not senders:
            raise ProtocolFailureError(
                f"{mode} read-only flood from node {holder} reached only "
                f"{len(reached)} of {n_agents} nodes"
            )
        inboxes = {}
        round_exchange(
            fabric,
            lambda j: zip(g.out_neighbors(j), repeat(f)) if j in senders else (),
            inboxes.__setitem__,
        )
        senders = {j for j, inbox in inboxes.items() if inbox and j not in reached}
        reached.update(senders)

    _check_placed(base + f, targets.consumed_values(), mode)
    if mode == "observer":
        gains = [k.T.copy() for k in gains]
    return TokenResult(
        gains=gains,
        f=f,
        hop_count=hops,
        flood_count=fabric.sent_count,
        visit_order=visit_order,
        declared_by=holder,
        rounds=hops + fabric.round_index,
    )
