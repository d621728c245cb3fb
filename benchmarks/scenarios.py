"""Seeded scenario generators for the benchmark workloads.

These mirror the random constructions of the test suite but live here, so
that editing the tests can never change what the benchmark runs.  Every
generator draws from the ``numpy.random.Generator`` it is handed and nothing
else, so one seed always yields the same scenarios.
"""

from __future__ import annotations

import numpy as np

from ftcc.graph import Digraph, out_weight_matrix
from ftcc.plant import LtiSystem, joint_rank_checks
from ftcc.scenario import ScenarioConfig, load_scenario

INIT16_PLANTS = 40

# The sparse16 digraph is drawn once, from this fixed seed.  Its round
# budget and Hankel widths set the cost of a step, and they vary by a factor
# of two or more between random 16-node digraphs (even relabeling the nodes
# moves the detected degrees, since the bootstrap averages the node ids).
# The workload's seed therefore draws only the plant, the targets and the
# initial state, so every seed measures the same amount of work.
SHAPE_SEED = 0


def random_strongly_connected(rng, n_nodes: int) -> Digraph:
    """A random Hamiltonian cycle plus a random number of random extra edges."""
    perm = rng.permutation(n_nodes)
    edges = {(int(perm[i]), int(perm[(i + 1) % n_nodes])) for i in range(n_nodes)}
    extra = int(rng.integers(0, n_nodes * (n_nodes - 1) // 2 + 1))
    for _ in range(extra):
        a, b = (int(v) for v in rng.integers(0, n_nodes, 2))
        if a != b:
            edges.add((a, b))
    return Digraph(n_nodes, tuple(sorted(edges)))


def complete_digraph(n_nodes: int) -> Digraph:
    return Digraph(
        n_nodes,
        tuple((a, b) for a in range(n_nodes) for b in range(n_nodes) if a != b),
    )


def random_joint_system(rng, n_agents: int, n: int) -> LtiSystem:
    """Unstable random plant, jointly controllable and observable.

    Every agent gets at least one input and one output column; the rest of
    the n columns of each kind are spread at random.
    """
    for _ in range(50):
        a = rng.normal(size=(n, n))
        a *= 1.3 / max(1.0, np.max(np.abs(np.linalg.eigvals(a))))
        dims_in = rng.multinomial(n, np.ones(n_agents) / n_agents) + 1
        dims_out = rng.multinomial(n, np.ones(n_agents) / n_agents) + 1
        b_list = tuple(rng.normal(size=(n, int(q))) for q in dims_in)
        c_list = tuple(rng.normal(size=(int(p), n)) for p in dims_out)
        sys = LtiSystem(a=a, b_list=b_list, c_list=c_list)
        ctrl, obsv = joint_rank_checks(sys)
        if ctrl and obsv:
            return sys
    raise RuntimeError("failed to draw a jointly controllable/observable plant")


def targets_for_spectrum(rng, a: np.ndarray) -> tuple[complex, ...]:
    """A full conjugate-closed target set matching the spectrum's kinds."""
    out: list[complex] = []
    for lam in np.linalg.eigvals(a):
        if lam.imag > 1e-9:
            t = complex(rng.uniform(-0.55, 0.55), rng.uniform(0.05, 0.55))
            out += [t, t.conjugate()]
        elif abs(lam.imag) <= 1e-9:
            out.append(complex(rng.uniform(-0.85, 0.85)))
    return tuple(out)


def random_scenario(rng, name: str, g: Digraph, n: int, horizon: int) -> ScenarioConfig:
    """A double-precision scenario with a random plant on ``g``."""
    sys = random_joint_system(rng, g.node_count, n)
    cfg = ScenarioConfig(
        name=name,
        graph=g,
        weights=out_weight_matrix(g),
        plant=sys,
        controller_targets=targets_for_spectrum(rng, sys.a),
        observer_targets=targets_for_spectrum(rng, sys.a),
        x0=rng.normal(size=n),
        horizon=horizon,
        taus=(1.0,),
        precision="double",
    )
    return cfg.validate()


def build(workload: str, seed: int, tiny: bool = False) -> list[ScenarioConfig]:
    """The scenarios of one pass of ``workload``.

    ``tiny`` shrinks every generated scenario for the smoke test; the paper
    case is small already and stays as shipped.
    """
    rng = np.random.default_rng(seed)
    if workload == "paper4-quad":
        return [load_scenario("paper-4node")]
    if workload == "sparse16":
        g = random_strongly_connected(np.random.default_rng(SHAPE_SEED), 6 if tiny else 16)
        return [random_scenario(rng, workload, g, 3 if tiny else 8, 2 if tiny else 10)]
    if workload == "complete48":
        g = complete_digraph(6 if tiny else 48)
        return [random_scenario(rng, workload, g, 3 if tiny else 4, 2 if tiny else 6)]
    if workload == "init16":
        # one digraph for every plant, so the bootstrap and the loop cost
        # the same from seed to seed and only the placements vary
        g = load_scenario("paper-4node").graph
        return [
            random_scenario(rng, f"{workload}-{i}", g, 6 if tiny else 16, 1 if tiny else 3)
            for i in range(3 if tiny else INIT16_PLANTS)
        ]
    raise ValueError(f"unknown workload {workload!r}")
