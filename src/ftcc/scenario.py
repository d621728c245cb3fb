"""Scenario configuration: one field table, and the built-in 4-node case.

A scenario is a single JSON document.  Matrices are nested arrays of rows;
complex eigenvalue targets are [re, im] pairs (plain numbers mean real).
``_FIELDS`` is the schema: one entry per field of ScenarioConfig, with the
parser of its JSON value and the check of its type, shape and bounds.  A
ScenarioConfig is checked against that table on construction, and again by
``dataclasses.replace``, so a config that exists is valid: a bad value fails
at load time, as a ConfigError whose message starts with the field's name.
The document's keys are the fields but ``weights``, which come in ``graph``:
``{weight_matrix}`` or ``{edges, node_count}``; ``plant`` is ``{a, b, c}``.
Any other key, at any level, is a ConfigError that names it.  The Hankel rank
tolerance is ``consensus.RANK_REL_TOL`` and every estimate starts at zero.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .consensus import validate_weights
from .exceptions import ConfigError, DisconnectedGraphError
from .gains import conjugate_closed
from .graph import Digraph, digraph_from_weight_matrix, is_strongly_connected, out_weight_matrix
from .plant import LtiSystem, require_jointly_controllable_observable

# each precision's array dtype; "quad" holds Decimals in an object array
PRECISIONS = {"double": float, "extended": np.longdouble, "quad": object}
_GRAPH_KEYS = ("weight_matrix", "edges", "node_count")
_PLANT_KEYS = ("a", "b", "c")


def _is_number(v, kind=numbers.Real) -> bool:
    """True for a number of ``kind``; a bool or a numeric string is none."""
    return isinstance(v, kind) and not isinstance(v, bool)


def _whole(v) -> int:
    """A whole number as an int: 60 and 60.0, not true, "60" or 2.9."""
    if not (_is_number(v) and float(v).is_integer()):
        raise ValueError(f"must be a whole number, got {v!r}")
    return int(v)


def _numbers(v) -> tuple[float, ...]:
    """A flat array of numbers as floats; a string, a bool or a nested array raises."""
    if not isinstance(v, (list, tuple, np.ndarray)) or not all(map(_is_number, v)):
        raise ValueError(f"must be an array of numbers, got {v!r}")
    return tuple(map(float, v))


def _matrix(v) -> np.ndarray:
    """A float array made by one asarray: its dtype is checked, not each entry."""
    a = np.asarray(v)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"must be an array of numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def _rule(ok, message: str, convert=lambda v: v, error=ValueError):
    """The check that converts a value and requires ``ok`` of the result."""
    def check(v, cfg):
        v = convert(v)
        if not ok(v):   # each ``ok`` is written so that a NaN fails it
            raise error(message)
        return v
    return check


def _target(v) -> complex:
    if _is_number(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)):
        return complex(*v)
    raise ValueError("targets must be numbers or [re, im] pairs")


def _closed(doc: dict, keys, section: str) -> None:
    """Raise on the first key of ``doc`` that is not one of ``keys``."""
    for key in doc.keys():   # a value that is no JSON object has no keys, and fails here
        if key not in keys:
            raise ValueError(f"{key}: not a {section} field")


def _parse_graph(doc) -> tuple[Digraph, np.ndarray]:
    """The digraph and its weights: a weight matrix, or edges with out-degree weights."""
    _closed(doc, _GRAPH_KEYS, "graph")
    if "weight_matrix" in doc:
        if len(doc) > 1:
            raise ValueError("either weight_matrix or edges with node_count, not both")
        weights = _matrix(doc["weight_matrix"])
        return digraph_from_weight_matrix(weights), weights
    if "edges" not in doc:
        raise ValueError("needs either weight_matrix or edges")
    for e in doc["edges"]:
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                and all(_is_number(v, numbers.Integral) for v in e)):
            raise ValueError(f"edge {e!r} is not a pair of integer node ids")
    try:
        n = _whole(doc["node_count"])
    except ValueError as exc:
        raise ValueError(f"node_count: {exc}") from None
    g = Digraph(n, tuple(map(tuple, doc["edges"])))
    return g, out_weight_matrix(g)


def _parse_plant(doc) -> LtiSystem:
    _closed(doc, _PLANT_KEYS, "plant")
    return LtiSystem(_matrix(doc["a"]), *(map(_matrix, doc[k]) for k in "bc"))


def _joint(plant, cfg) -> LtiSystem:
    if plant.agent_count != cfg.graph.node_count:
        raise ValueError(f"{plant.agent_count} agents but {cfg.graph.node_count} graph nodes")
    require_jointly_controllable_observable(plant)
    return plant


def _targets(v, cfg) -> tuple:
    v = tuple(v)
    if not all(_is_number(t, numbers.Complex) for t in v):
        raise ValueError(f"must be numbers, got {v!r}")
    if not conjugate_closed(v):
        raise ValueError("must be conjugate-closed")
    if len(v) > cfg.plant.n:
        raise ValueError(f"more targets than eigenvalues ({cfg.plant.n})")
    if not all(abs(t) < 1.0 for t in v):
        raise ValueError("must lie strictly inside the unit disk")
    return v


def _array(v, length: int) -> np.ndarray | None:
    """None, or ``v``, ``length`` numbers, as a finite float array."""
    if v is None:
        return None
    a = np.array(_numbers(v))
    if a.shape != (length,):
        raise ValueError(f"must have shape {(length,)}")
    if not np.all(np.isfinite(a)):
        raise ValueError("must be finite")
    return a


# The schema: one entry per field, checked in this order, so a check may read the
# fields above it.  An entry holds the parser of the field's JSON value (None takes
# it as given; the weights come with the graph) and the check of a value, which
# returns it normalised.  Either one's error becomes a ConfigError naming the field.
_FIELDS = {
    "name": (None, _rule(lambda v: isinstance(v, str), "must be a string")),
    "graph": (_parse_graph, _rule(
        is_strongly_connected, "graph is not strongly connected", error=DisconnectedGraphError
    )),
    "weights": (None, lambda v, cfg: validate_weights(cfg.graph, _matrix(v))),
    "plant": (_parse_plant, _joint),
    "controller_targets": (lambda v: tuple(map(_target, v)), _targets),
    "observer_targets": (lambda v: tuple(map(_target, v)), _targets),
    "election_values": (None, lambda v, cfg: _array(v, cfg.graph.node_count)),
    "x0": (None, lambda v, cfg: _array(v, cfg.plant.n)),
    "horizon": (None, _rule(lambda h: h >= 0, "must be nonnegative", _whole)),
    "taus": (None, _rule(
        lambda ts: ts and all(0 < t < np.inf for t in ts),
        "need at least one, each positive and finite", _numbers,
    )),
    "precision": (None, _rule(
        lambda p: isinstance(p, str) and p in PRECISIONS, f"must be one of {tuple(PRECISIONS)}"
    )),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """The inputs of one estimation-and-control scenario, checked on construction."""

    name: str
    graph: Digraph
    weights: np.ndarray
    plant: LtiSystem
    controller_targets: tuple[complex, ...]
    observer_targets: tuple[complex, ...]
    election_values: np.ndarray | None = None
    x0: np.ndarray | None = None
    horizon: int = 60
    taus: tuple[float, ...] = (0.1, 1.0, 10.0)
    precision: str = "double"

    def validate(self) -> "ScenarioConfig":
        """Check and normalise every field through _FIELDS, in its order; return self."""
        for name, (_, check) in _FIELDS.items():
            try:
                object.__setattr__(self, name, check(getattr(self, name), self))
            except (TypeError, ValueError, AttributeError, OverflowError) as exc:
                error = type(exc) if isinstance(exc, ConfigError) else ConfigError
                raise error(str(exc) if str(exc).startswith(name) else f"{name}: {exc}") from None
        return self

    __post_init__ = validate

    def to_dict(self) -> dict:
        """The JSON document: each field that is set, in _FIELDS order, in its JSON form."""
        d = {name: getattr(self, name) for name in _FIELDS if getattr(self, name) is not None}
        d["graph"] = {"weight_matrix": d.pop("weights").tolist()}
        a, b, c = self.plant.a, self.plant.b_list, self.plant.c_list
        d["plant"] = {"a": a.tolist(), "b": [m.tolist() for m in b], "c": [m.tolist() for m in c]}
        for name in ("controller_targets", "observer_targets"):
            d[name] = [t.real if t.imag == 0 else [t.real, t.imag] for t in map(complex, d[name])]
        d["taus"] = list(self.taus)
        d.update({k: d[k].tolist() for k in ("election_values", "x0") if k in d})
        return d


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Parse a scenario document through _FIELDS; the config then checks itself.

    A malformed value or an unknown key raises a ConfigError naming its section.
    """
    fields = {"name": "scenario", "controller_targets": (), "observer_targets": ()}
    section = "scenario"
    try:
        doc["graph"], doc["plant"]   # the two required sections
        for section in doc:   # every field but the weights, which come in the graph
            if section not in _FIELDS or section == "weights":
                raise ValueError("not a scenario field")
        for section, (parse, _) in _FIELDS.items():
            if section in doc:
                fields[section] = doc[section] if parse is None else parse(doc[section])
        fields["graph"], fields["weights"] = fields["graph"]
    except (TypeError, ValueError, KeyError, AttributeError, OverflowError) as exc:
        missing = "missing " if isinstance(exc, KeyError) else ""
        raise ConfigError(f"{section}: {missing}{exc}") from None
    return ScenarioConfig(**fields)


def load_scenario(path_or_name) -> ScenarioConfig:
    """Load a scenario from a JSON file or by built-in name."""
    name = str(path_or_name)
    if name in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name]()
    path = Path(path_or_name)
    if not path.exists():
        raise ConfigError(f"no such scenario file {path} (built-ins: {sorted(BUILTIN_SCENARIOS)})")
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
    (descending election values) and walking to out-neighbours in ascending id.
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
    eye = np.eye(8)   # B_i: unit columns, the actuated states; C_i: unit rows, the sensed ones
    return ScenarioConfig(
        name="paper-4node",
        graph=digraph_from_weight_matrix(weights),
        weights=weights,
        plant=LtiSystem(a, [eye[:, [i]] for i in (1, 3, 5, 7)], [eye[[i]] for i in (0, 2, 4, 6)]),
        controller_targets=tuple(complex(0.60 + 0.01 * i) for i in range(8)),
        observer_targets=tuple(complex(0.20 + 0.01 * i) for i in range(8)),
        election_values=[4.0, 3.0, 2.0, 1.0],   # node 0 wins -> leader v1
        x0=np.array([2.0, -1.0, 1.5, 0.5, -2.0, 1.0, 3.0, -0.5]),
        horizon=60,
        taus=(0.1, 1.0, 10.0),
        precision="quad",
    )


BUILTIN_SCENARIOS = {"paper-4node": paper_4node}
