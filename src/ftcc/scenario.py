"""Scenario configuration: schema, validation, and the built-in 4-node case.

A scenario is a single JSON document.  Matrices are nested arrays of rows;
complex eigenvalue targets are [re, im] pairs (plain numbers mean real).
Every invariant a run relies on is validated here with a named error, so
failures surface at load time rather than mid-protocol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .consensus import validate_weights
from .exceptions import ConfigError, DisconnectedGraphError, InvalidInputError
from .gains import DEFAULT_STABILITY_MARGIN, conjugate_closed
from .graph import Digraph, digraph_from_weight_matrix, is_strongly_connected, out_weight_matrix
from .plant import LtiSystem, require_jointly_controllable_observable

PRECISIONS = ("double", "extended", "quad")


def _parse_targets(raw) -> tuple[complex, ...]:
    out = []
    for v in raw:
        if isinstance(v, (int, float)):
            out.append(complex(v))
        elif isinstance(v, (list, tuple)) and len(v) == 2:
            out.append(complex(float(v[0]), float(v[1])))
        else:
            raise ValueError("targets must be numbers or [re, im] pairs")
    return tuple(out)


def _numbers(raw) -> list:
    """A JSON array of numbers, as given; a string, a bool or a nested array raises."""
    if not isinstance(raw, (list, tuple)) or not all(type(v) in (int, float) for v in raw):
        raise ValueError(f"must be an array of numbers, got {raw!r}")
    return list(raw)


def _whole(raw) -> int:
    """A JSON number with no fraction, as an int: 60 and 60.0, not true or 2.9."""
    if not (type(raw) is int or type(raw) is float and raw.is_integer()):
        raise ValueError(f"must be a whole number, got {raw!r}")
    return int(raw)


def _targets_to_json(values) -> list:
    out = []
    for v in values:
        v = complex(v)
        out.append(v.real if v.imag == 0 else [v.real, v.imag])
    return out


@dataclass
class ScenarioConfig:
    """Validated inputs for one estimation-and-control scenario."""

    name: str
    graph: Digraph
    weights: np.ndarray
    plant: LtiSystem
    controller_targets: tuple[complex, ...]
    observer_targets: tuple[complex, ...]
    priorities: dict[int, list[int]] = field(default_factory=dict)
    election_values: list[float] | None = None
    stability_margin: float = DEFAULT_STABILITY_MARGIN
    rank_rel_tol: float = 1e-8
    x0: np.ndarray | None = None
    xhat0: np.ndarray | None = None       # (N, n); zeros when omitted
    horizon: int = 60
    taus: tuple[float, ...] = (0.1, 1.0, 10.0)
    precision: str = "double"

    def validate(self) -> "ScenarioConfig":
        g, sys = self.graph, self.plant
        if sys.agent_count != g.node_count:
            raise ConfigError(
                f"{sys.agent_count} agents in plant but {g.node_count} graph nodes"
            )
        if not is_strongly_connected(g):
            raise DisconnectedGraphError("graph is not strongly connected")
        try:
            validate_weights(g, self.weights)
        except InvalidInputError as exc:
            raise ConfigError(f"weights: {exc}") from None
        require_jointly_controllable_observable(sys)
        for nm, targets in (
            ("controller_targets", self.controller_targets),
            ("observer_targets", self.observer_targets),
        ):
            if not conjugate_closed(targets):
                raise ConfigError(f"{nm} must be conjugate-closed")
            if len(targets) > sys.n:
                raise ConfigError(f"{nm}: more targets than eigenvalues ({sys.n})")
            if any(abs(complex(t)) >= 1.0 for t in targets):
                raise ConfigError(f"{nm} must lie strictly inside the unit disk")
        for j, order in self.priorities.items():
            if not 0 <= j < g.node_count:
                raise ConfigError(f"priorities: {j} is not a node id (0..{g.node_count - 1})")
            if not set(order) <= g.out_sets[j]:
                raise ConfigError(f"priorities[{j}] lists non-out-neighbors")
        if self.election_values is not None and len(self.election_values) != g.node_count:
            raise ConfigError("election_values must have one entry per node")
        for nm in ("x0", "xhat0", "election_values"):
            value = getattr(self, nm)
            if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ConfigError(f"{nm} must be finite")
        # the negated comparisons also reject NaN
        if not 0 < self.rank_rel_tol < 1:
            raise ConfigError("rank_rel_tol must lie strictly between 0 and 1")
        if not 0 <= self.stability_margin < np.inf:
            raise ConfigError("stability_margin must be finite and nonnegative")
        if self.x0 is not None and self.x0.shape != (sys.n,):
            raise ConfigError(f"x0 must have length {sys.n}")
        if self.xhat0 is not None and self.xhat0.shape != (g.node_count, sys.n):
            raise ConfigError(f"xhat0 must be {g.node_count} x {sys.n}")
        if self.horizon < 0:
            raise ConfigError("horizon must be nonnegative")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}")
        if not self.taus or not all(0 < t < np.inf for t in self.taus):
            raise ConfigError("taus: need at least one, each positive and finite")
        return self

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "graph": {"weight_matrix": self.weights.tolist()},
            "plant": {
                "a": self.plant.a.tolist(),
                "b": [b.tolist() for b in self.plant.b_list],
                "c": [c.tolist() for c in self.plant.c_list],
            },
            "controller_targets": _targets_to_json(self.controller_targets),
            "observer_targets": _targets_to_json(self.observer_targets),
            "priorities": {str(k): v for k, v in self.priorities.items()},
            "stability_margin": self.stability_margin,
            "rank_rel_tol": self.rank_rel_tol,
            "horizon": self.horizon,
            "taus": list(self.taus),
            "precision": self.precision,
        }
        if self.election_values is not None:
            d["election_values"] = list(self.election_values)
        if self.x0 is not None:
            d["x0"] = self.x0.tolist()
        if self.xhat0 is not None:
            d["xhat0"] = self.xhat0.tolist()
        return d


def _parse_graph(graph_doc) -> tuple[Digraph, np.ndarray]:
    edges = tuple(tuple(e) for e in graph_doc.get("edges", ()))
    if "weight_matrix" in graph_doc:
        weights = np.asarray(graph_doc["weight_matrix"], dtype=float)
        g = digraph_from_weight_matrix(weights)
        n, m = int(graph_doc.get("node_count", g.node_count)), g.node_count
        if n != m:
            raise ConfigError(f"graph: node_count {n} disagrees with the {m}x{m} weight matrix")
        if "edges" in graph_doc and Digraph(n, edges).edges != g.edges:
            raise ConfigError("graph: explicit edges disagree with weight-matrix support")
        return g, weights
    if "edges" in graph_doc:
        g = Digraph(int(graph_doc["node_count"]), edges)
        return g, out_weight_matrix(g)
    raise ConfigError("graph: needs either weight_matrix or edges")


# optional top-level fields and their parsers; absent ones keep their defaults
_FIELDS = {
    "name": str,
    "controller_targets": _parse_targets,
    "observer_targets": _parse_targets,
    "priorities": lambda v: {int(k): list(order) for k, order in v.items()},
    "election_values": _numbers,
    "stability_margin": float,
    "rank_rel_tol": float,
    "x0": lambda v: np.asarray(v, dtype=float),
    "xhat0": lambda v: np.asarray(v, dtype=float),
    "horizon": _whole,
    "taus": lambda v: tuple(map(float, _numbers(v))),
    "precision": str,
}


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Parse and validate a scenario document.

    A malformed value (wrong type, missing key, ragged matrix) raises a
    ConfigError that names the section it was found in.
    """
    fields = {"name": "scenario", "controller_targets": (), "observer_targets": ()}
    section = "scenario"
    try:
        graph_doc, plant_doc = doc["graph"], doc["plant"]
        section = "graph"
        fields["graph"], fields["weights"] = _parse_graph(graph_doc)
        section = "plant"
        fields["plant"] = LtiSystem(
            a=np.asarray(plant_doc["a"], dtype=float),
            b_list=tuple(np.asarray(b, dtype=float) for b in plant_doc["b"]),
            c_list=tuple(np.asarray(c, dtype=float) for c in plant_doc["c"]),
        )
        for section, parse in _FIELDS.items():
            if section in doc:
                fields[section] = parse(doc[section])
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        missing = "missing " if isinstance(exc, KeyError) else ""
        raise ConfigError(f"{section}: {missing}{exc}") from None
    return ScenarioConfig(**fields).validate()


def load_scenario(path_or_name) -> ScenarioConfig:
    """Load a scenario from a JSON file or by built-in name."""
    name = str(path_or_name)
    if name in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name]()
    path = Path(path_or_name)
    if not path.exists():
        raise ConfigError(
            f"no such scenario file {path} (built-ins: {sorted(BUILTIN_SCENARIOS)})"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:   # a directory, no permission, not UTF-8
        raise ConfigError(f"could not read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from None
    return scenario_from_dict(doc)


def save_scenario(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2) + "\n")


def paper_4node() -> ScenarioConfig:
    """The built-in 4-node scenario: weights, plant, and target sets.

    Eight states, one actuated and one sensed state per agent; no agent is
    controllable or observable alone, jointly the system is both.  Token
    order v1 -> v2 -> v3 -> v4 is realized by electing node 0 leader
    (descending election values) and the default ascending-id priorities.
    """
    weights = np.array(
        [
            [1 / 3, 0, 1 / 4, 1 / 3],
            [1 / 3, 1 / 2, 1 / 4, 0],
            [0, 1 / 2, 1 / 4, 1 / 3],
            [1 / 3, 0, 1 / 4, 1 / 3],
        ]
    )
    a = np.array(
        [
            [1, 0.5, 0, 0, 3, 0, 0, 0],
            [0.5, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0.5, 0, 0, 0, 0],
            [0, 0, 0.8, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0.5, 0, 0],
            [0, 0, 0, 0, 0.6, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 0.7, 0.1],
            [1, 0, 0, 0, 0, 0, 0.2, 0.7],
        ],
        dtype=float,
    )
    def unit_col(i):
        v = np.zeros((8, 1))
        v[i, 0] = 1.0
        return v

    def unit_row(i):
        v = np.zeros((1, 8))
        v[0, i] = 1.0
        return v

    b_list = (unit_col(1), unit_col(3), unit_col(5), unit_col(7))
    c_list = (unit_row(0), unit_row(2), unit_row(4), unit_row(6))
    cfg = ScenarioConfig(
        name="paper-4node",
        graph=digraph_from_weight_matrix(weights),
        weights=weights,
        plant=LtiSystem(a=a, b_list=b_list, c_list=c_list),
        controller_targets=tuple(complex(0.60 + 0.01 * i) for i in range(8)),
        observer_targets=tuple(complex(0.20 + 0.01 * i) for i in range(8)),
        election_values=[4.0, 3.0, 2.0, 1.0],   # node 0 wins -> leader v1
        x0=np.array([2.0, -1.0, 1.5, 0.5, -2.0, 1.0, 3.0, -0.5]),
        horizon=60,
        taus=(0.1, 1.0, 10.0),
        precision="quad",
    )
    return cfg.validate()


BUILTIN_SCENARIOS = {"paper-4node": paper_4node}
