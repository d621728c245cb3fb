"""The acceptance suite: one callable per criterion, shared by CLI and tests.

Each criterion returns a CriterionResult with a pass flag and a one-line
detail.  Criterion 5 reproduces a reference counterexample whose recorded
eigenvalues are internally inconsistent with its own matrices; the check is
implemented exactly as stated and is expected to fail (the instability
claim itself holds and is reported in the detail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .consensus import finite_time_average
from .gains import place_pair, place_single, run_token_protocol
from .graph import Digraph
from .linalg import eigen_left, eigenvalues, is_schur_stable
from .plant import LtiSystem, local_indices
from .runtime import InitializationResult, initialize, run_closed_loop
from .scenario import load_scenario

# Reference gain tables for the 4-node benchmark (entry-level agreement is
# reported, not asserted: the eigenvalue-to-target matching is a free choice).
REFERENCE_K = np.array(
    [
        [-1.0916, -1.0114, 0, 0, 31.9630, 32.3204, -0.0350, -0.0247],
        [0, 0, -1.0664, -0.7300, 0, 0, 0, 0],
        [0.0003, 0.0003, 0, 0, -0.8021, -0.5786, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ]
)
REFERENCE_L = np.array(
    [
        [12.5600, 0, 0, 0],
        [-8.1221, 0, 0, 0],
        [0, 6.0400, 0, 0],
        [0, 7.7600, 0, 0],
        [7.0165, 0, 0, 0],
        [7.6708, 0, 0, 0],
        [-0.1299, 0, 0, 3.4800],
        [-5.7761, 0, 0, 8.3680],
    ]
)

# Benchmark for the independent local-design counterexample: two agents pick
# gains in isolation and the summed closed loop goes unstable.
COUNTEREXAMPLE_A = np.array(
    [[1, -2, 0, 0], [0, -1, 0, 0], [0.1, -0.1, 0.5, 0.1], [0.2, -0.1, 0.5, 0.1]]
)
COUNTEREXAMPLE_B1 = np.array([[0.0], [1.0], [0.0], [1.0]])
COUNTEREXAMPLE_B2 = np.array([[1.0], [0.0], [1.0], [0.0]])
COUNTEREXAMPLE_K1 = np.array([[2.7788, -2.0033, 0.0436, 1.5033]])
COUNTEREXAMPLE_K2 = np.array([[-1.7909, 4.0311, -0.1091, -5.0182]])
COUNTEREXAMPLE_EIGS = (
    0.6515 + 2.8137j,
    0.6515 - 2.8137j,
    -2.7102 + 0j,
    0.5073 + 0j,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str = ""
    expected_failure: bool = False

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = " (known benchmark inconsistency)" if self.expected_failure and not self.passed else ""
        return f"[{status}] criterion {self.number:2d}: {self.name}{note} -- {self.detail}"


@dataclass
class AcceptanceContext:
    """Shared fixtures: the 4-node scenario, its initialization, one trace."""

    cfg: object = None
    init: InitializationResult = None
    trace: object = None
    traces_by_tau: dict = field(default_factory=dict)

    @classmethod
    def build(cls) -> "AcceptanceContext":
        ctx = cls()
        ctx.cfg = load_scenario("paper-4node")
        ctx.init = initialize(ctx.cfg)
        for tau in ctx.cfg.taus:
            ctx.traces_by_tau[tau] = run_closed_loop(replace(ctx.cfg, taus=(tau,)), ctx.init)
        ctx.trace = ctx.traces_by_tau[1.0]
        return ctx


def _placed_spectrum(a, closed, targets) -> tuple[bool, float]:
    """Schur stability of ``closed``, and the largest distance from an
    eigenvalue moved off the spectrum of ``a`` to its nearest target."""
    base_eigs = eigenvalues(a)
    moved = [
        lam for lam in eigenvalues(closed) if min(abs(lam - mu) for mu in base_eigs) > 1e-6
    ]
    worst = max((min(abs(lam - complex(t)) for t in targets) for lam in moved), default=0.0)
    return is_schur_stable(closed), worst


def criterion_1(ctx: AcceptanceContext) -> CriterionResult:
    ok = ctx.init.m_bar == 11
    return CriterionResult(
        1,
        "round budget from bootstrap consensus",
        ok,
        f"m_bar = {ctx.init.m_bar} (expected 11), D' = {ctx.init.d_prime}",
    )


def criterion_2(ctx: AcceptanceContext) -> CriterionResult:
    rho, chi = local_indices(ctx.cfg.plant)
    ok = rho == [4, 2, 6, 2] and chi == [4, 2, 2, 6]
    return CriterionResult(
        2, "per-agent structural indices", ok, f"rho = {rho}, chi = {chi}"
    )


def criterion_3(ctx: AcceptanceContext) -> CriterionResult:
    cfg, init = ctx.cfg, ctx.init
    a = cfg.plant.a
    schur, worst = _placed_spectrum(a, a + init.f_control, cfg.controller_targets)
    k4_zero = bool(np.allclose(init.k_gains[3], 0.0))
    diff = float(np.max(np.abs(np.vstack(init.k_gains) - REFERENCE_K)))
    ok = schur and worst <= 1e-6 and k4_zero
    return CriterionResult(
        3,
        "distributed control gain design",
        ok,
        f"Schur={schur}, moved-offset={worst:.2e}, K4=0:{k4_zero}; "
        f"informational max|K - reference| = {diff:.3f}",
    )


def criterion_4(ctx: AcceptanceContext) -> CriterionResult:
    cfg, init = ctx.cfg, ctx.init
    a = cfg.plant.a
    n = cfg.graph.node_count
    obs = a - sum(l @ c for l, c in zip(init.l_gains, cfg.plant.c_list)) / n
    schur, worst = _placed_spectrum(a, obs, cfg.observer_targets)
    l3_zero = bool(np.allclose(init.l_gains[2], 0.0))
    diff = float(np.max(np.abs(np.hstack(init.l_gains) - REFERENCE_L)))
    ok = schur and worst <= 1e-6 and l3_zero
    return CriterionResult(
        4,
        "distributed observer gain design",
        ok,
        f"Schur={schur}, moved-offset={worst:.2e}, L3=0:{l3_zero}; "
        f"informational max|L - reference| = {diff:.3f}",
    )


def criterion_5(ctx: AcceptanceContext) -> CriterionResult:
    closed = (
        COUNTEREXAMPLE_A
        + COUNTEREXAMPLE_B1 @ COUNTEREXAMPLE_K1
        + COUNTEREXAMPLE_B2 @ COUNTEREXAMPLE_K2
    )
    eigs = sorted(np.linalg.eigvals(closed), key=lambda z: (z.real, z.imag))
    expected = sorted(COUNTEREXAMPLE_EIGS, key=lambda z: (z.real, z.imag))
    worst = max(abs(a - b) for a, b in zip(eigs, expected))
    unstable = bool(np.max(np.abs(eigs)) > 1.0)
    ok = worst <= 5e-4
    return CriterionResult(
        5,
        "local-design counterexample eigenvalues",
        ok,
        f"max eigenvalue deviation from recorded values = {worst:.4f}; "
        f"summed closed loop unstable as claimed: {unstable}",
        expected_failure=True,
    )


def random_strongly_connected(rng, n_nodes: int) -> Digraph:
    """Random digraph containing a random Hamiltonian cycle."""
    perm = rng.permutation(n_nodes)
    edges = {(int(perm[i]), int(perm[(i + 1) % n_nodes])) for i in range(n_nodes)}
    extra = int(rng.integers(0, n_nodes * (n_nodes - 1) // 2 + 1))
    for _ in range(extra):
        a, b = (int(v) for v in rng.integers(0, n_nodes, 2))
        if a != b:
            edges.add((a, b))
    return Digraph(n_nodes, tuple(sorted(edges)))


def criterion_6_draws(rng, trials: int = 100) -> list[tuple[Digraph, np.ndarray]]:
    """Criterion 6's trials, (digraph on 2..10 nodes, initial values), drawn from ``rng``."""
    draws = []
    for trial in range(trials):
        g = random_strongly_connected(rng, int(rng.integers(2, 11)))
        width = 3 if trial % 3 == 0 else 1     # mix scalar and vector payloads
        draws.append((g, rng.normal(size=(g.node_count, width))))
    return draws


def criterion_6(ctx: AcceptanceContext, trials: int = 100) -> CriterionResult:
    worst_err, late = 0.0, 0
    for g, x0 in criterion_6_draws(np.random.default_rng(2024), trials):
        res = finite_time_average(g, x0)
        mean = x0.mean(axis=0)
        scale = max(1.0, float(np.max(np.abs(mean))))
        err = float(np.max(np.abs(res.mu - mean))) / scale
        worst_err = max(worst_err, err)
        if max(res.done_rounds) > res.m_bar:
            late += 1
    ok = worst_err <= 1e-8 and late == 0
    return CriterionResult(
        6,
        "finite-time exactness on random digraphs",
        ok,
        f"{trials} trials, worst relative error {worst_err:.2e}, "
        f"late terminations {late}",
    )


def criterion_7(ctx: AcceptanceContext) -> CriterionResult:
    cfg, init, trace = ctx.cfg, ctx.init, ctx.trace
    a = cfg.plant.a
    n = cfg.graph.node_count
    m_avg = a - sum(l @ c for l, c in zip(init.l_gains, cfg.plant.c_list)) / n
    m_local = [a - l @ c for l, c in zip(init.l_gains, cfg.plant.c_list)]
    worst = 0.0
    for k in range(60):
        scale = max(1.0, float(np.linalg.norm(trace.ebar[k])))
        res_avg = np.linalg.norm(trace.ebar[k + 1] - m_avg @ trace.ebar[k])
        worst = max(worst, res_avg / scale)
        for i in range(n):
            res_i = np.linalg.norm(
                trace.errors[k + 1][i] - m_local[i] @ trace.ebar[k]
            )
            worst = max(worst, res_i / scale)
    ok = worst <= 1e-10
    return CriterionResult(
        7,
        "error-recursion identities along the trace",
        ok,
        f"worst scaled residual {worst:.2e} (bound 1e-10)",
    )


def criterion_8(ctx: AcceptanceContext) -> CriterionResult:
    trace = ctx.trace
    ks = np.arange(5, 61)
    ys = np.log(np.array(trace.norm_ebar)[ks])
    slope = float(np.polyfit(ks, ys, 1)[0])
    bound = math.log(0.27 + 0.05)
    ok = slope <= bound
    return CriterionResult(
        8,
        "average-error convergence rate",
        ok,
        f"log-linear slope {slope:.4f} <= {bound:.4f}",
    )


def criterion_9(ctx: AcceptanceContext, trials: int = 100) -> CriterionResult:
    rng = np.random.default_rng(7)
    worst_keep = 0.0
    checked = 0
    while checked < trials:
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, 1))
        pairs = eigen_left(a)
        cand = [p for p in pairs if p.value.imag >= 0]
        p = cand[int(rng.integers(0, len(cand)))]
        wb = p.left_vector @ b[:, 0].astype(complex)
        if abs(wb) < 1e-3:
            continue
        if abs(p.value.imag) < 1e-12:
            target = complex(rng.uniform(-0.9, 0.9))
            row = place_single(a, b[:, 0], p.value, target, p.left_vector).real
            closed = a + b @ row
            expected = [target] + [
                q.value for q in pairs if abs(q.value - p.value) > 1e-12
            ]
        else:
            target = complex(rng.uniform(-0.7, 0.7), rng.uniform(0.05, 0.7))
            pair = (target, target.conjugate())
            closed = a + b @ place_pair(a, b[:, 0], p.value, pair, p.left_vector)
            expected = list(pair) + [
                q.value
                for q in pairs
                if abs(q.value - p.value) > 1e-12
                and abs(q.value - p.value.conjugate()) > 1e-12
            ]
        got = sorted(np.linalg.eigvals(closed), key=lambda z: (z.real, z.imag))
        expected = sorted(expected, key=lambda z: (z.real, z.imag))
        dev = max(abs(x - y) for x, y in zip(got, expected))
        worst_keep = max(worst_keep, dev)
        checked += 1
    ok = worst_keep <= 1e-6
    return CriterionResult(
        9,
        "single-eigenvalue placement invariance",
        ok,
        f"{checked} random systems, worst spectrum deviation {worst_keep:.2e}",
    )


def _ring_scenario(n_nodes: int):
    edges = []
    for i in range(n_nodes):
        edges.append((i, (i + 1) % n_nodes))
        edges.append(((i + 1) % n_nodes, i))
    g = Digraph(n_nodes, tuple(sorted(set(edges))))
    a = np.diag(np.linspace(1.1, 1.1 + 0.1 * (n_nodes - 1), n_nodes))
    b_list = tuple(np.eye(n_nodes)[:, [i]] for i in range(n_nodes))
    c_list = tuple(np.eye(n_nodes)[[i], :] for i in range(n_nodes))
    sys = LtiSystem(a=a, b_list=b_list, c_list=c_list)
    targets = [0.1 + 0.05 * i for i in range(n_nodes)]
    return g, sys, targets


def criterion_10(ctx: AcceptanceContext) -> CriterionResult:
    worst = []
    for n_nodes in range(3, 9):
        g, sys, targets = _ring_scenario(n_nodes)
        res = run_token_protocol(g, sys, targets, mode="control", leader=0)
        hop_ok = res.hop_count <= (n_nodes - 1) ** 2
        flood_ok = res.flood_count <= len(g.edges)
        worst.append((n_nodes, res.hop_count, (n_nodes - 1) ** 2, hop_ok and flood_ok))
    ok = all(w[3] for w in worst)
    detail = ", ".join(f"N={w[0]}:{w[1]}/{w[2]}" for w in worst)
    return CriterionResult(
        10, "token hop and flood complexity on rings", ok, f"hops/bound {detail}"
    )


def criterion_11(ctx: AcceptanceContext) -> CriterionResult:
    taus = sorted(ctx.traces_by_tau)
    ref = ctx.traces_by_tau[taus[0]]
    same = True
    time_ok = True
    for tau in taus:
        tr = ctx.traces_by_tau[tau]
        for k, t in zip(tr.steps, tr.times):
            if not np.array_equal(tr.x[k], ref.x[k]) or not np.array_equal(
                tr.ebar[k], ref.ebar[k]
            ):
                same = False
            if abs(t - k * (tr.m_bar * tau + 1.0)) > 1e-12:
                time_ok = False
    ok = same and time_ok
    return CriterionResult(
        11,
        "normalized-time invariance across tau",
        ok,
        f"taus {taus}: traces identical={same}, time column exact={time_ok}",
    )


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
]


def run_all() -> list[CriterionResult]:
    ctx = AcceptanceContext.build()
    return [fn(ctx) for fn in ALL_CRITERIA]
