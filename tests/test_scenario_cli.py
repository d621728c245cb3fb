import csv
import json
import re

import numpy as np
import pytest

from ftcc.acceptance import AcceptanceContext
from ftcc.cli import main
from ftcc.exceptions import ConfigError, DisconnectedGraphError, JointSystemError
from ftcc.scenario import (
    load_scenario,
    paper_4node,
    save_scenario,
    scenario_from_dict,
)


def set_path(doc, path, value):
    """Set doc[path[0]][path[1]]... to value."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# (path into the document, malformed value, section the error must name)
MALFORMED = [
    (("x0",), ["a", 1.0], "x0"),
    (("horizon",), "abc", "horizon"),
    (("taus",), ["x"], "taus"),
    (("graph",), {"edges": [[0]]}, "graph"),
    (("plant", "a"), [[1.5, 0.0], [0.0]], "plant"),
    (("priorities",), 5, "priorities"),
    (("graph",), {"weight_matrix": [[0.5, 0.5], [0.5, 0.5]], "edges": [[0, 1]]}, "graph"),
    (("graph",), {"node_count": 2}, "graph"),
]


def minimal_doc():
    return {
        "name": "tiny",
        "graph": {"edges": [[0, 1], [1, 0]], "node_count": 2},
        "plant": {
            "a": [[1.5, 0.0], [0.0, 0.5]],
            "b": [[[1.0], [0.0]], [[0.0], [1.0]]],
            "c": [[[1.0, 0.0]], [[0.0, 1.0]]],
        },
        "controller_targets": [0.1, 0.2],
        "observer_targets": [0.3, 0.4],
        "horizon": 5,
        "taus": [1.0],
    }


class TestLoading:
    def test_builtin_matrices(self, paper_scenario):
        cfg = paper_scenario
        assert cfg.weights[0, 0] == pytest.approx(1 / 3)
        assert cfg.weights[2, 1] == pytest.approx(1 / 2)
        assert cfg.plant.a[0, 4] == 3.0
        assert cfg.plant.b_list[0][1, 0] == 1.0
        assert cfg.plant.c_list[3][0, 6] == 1.0
        assert len(cfg.controller_targets) == 8

    def test_minimal_doc_loads(self):
        cfg = scenario_from_dict(minimal_doc())
        assert cfg.graph.node_count == 2
        assert cfg.plant.n == 2

    def test_disconnected_graph_rejected(self):
        doc = minimal_doc()
        doc["graph"] = {"edges": [[0, 1]], "node_count": 2}
        with pytest.raises(DisconnectedGraphError):
            scenario_from_dict(doc)

    def test_non_conjugate_targets_rejected(self):
        doc = minimal_doc()
        doc["controller_targets"] = [[0.1, 0.2], 0.3]
        with pytest.raises(ConfigError):
            scenario_from_dict(doc)

    def test_joint_requirement_violation_named(self):
        doc = minimal_doc()
        doc["plant"]["c"] = [[[1.0, 0.0]], [[1.0, 0.0]]]   # second state invisible
        with pytest.raises(JointSystemError):
            scenario_from_dict(doc)

    def test_dimension_mismatch_rejected(self):
        doc = minimal_doc()
        doc["plant"]["b"] = [[[1.0], [0.0], [0.0]], [[0.0], [1.0]]]
        with pytest.raises(ConfigError):
            scenario_from_dict(doc)

    def test_non_stochastic_weights_rejected(self):
        doc = minimal_doc()
        doc["graph"] = {"weight_matrix": [[0.7, 0.5], [0.5, 0.5]]}
        with pytest.raises(ConfigError):
            scenario_from_dict(doc)

    def test_edges_must_match_weight_support(self):
        doc = minimal_doc()
        doc["graph"] = {
            "weight_matrix": [[0.5, 0.5], [0.5, 0.5]],
            "edges": [[0, 1]],
        }
        with pytest.raises(ConfigError):
            scenario_from_dict(doc)

    def test_too_many_targets_rejected(self):
        doc = minimal_doc()
        doc["controller_targets"] = [0.1, 0.2, 0.3]
        with pytest.raises(ConfigError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "field_name, value",
        [
            ("rank_rel_tol", 1.0),
            ("rank_rel_tol", 2.0),
            ("rank_rel_tol", 0.0),
            ("rank_rel_tol", -1.0),
            ("rank_rel_tol", float("nan")),
            ("stability_margin", -0.5),
            ("stability_margin", float("nan")),
            ("taus", [float("nan")]),
            ("x0", [float("nan"), 1.0]),
            ("xhat0", [[float("nan"), 0.0], [0.0, 0.0]]),
            ("election_values", [float("nan"), 1.0]),
        ],
    )
    def test_numeric_field_out_of_range_named(self, field_name, value):
        doc = minimal_doc()
        doc[field_name] = value
        with pytest.raises(ConfigError, match=field_name):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("path, value, section", MALFORMED)
    def test_malformed_value_is_a_config_error(self, path, value, section):
        doc = minimal_doc()
        set_path(doc, path, value)
        with pytest.raises(ConfigError, match=f"^{section}: "):
            scenario_from_dict(doc)

    def test_node_count_must_match_weight_matrix(self, paper_scenario):
        doc = minimal_doc()
        doc["graph"] = {"weight_matrix": paper_scenario.weights.tolist(), "node_count": 5}
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(doc)
        assert str(info.value) == "graph: node_count 5 disagrees with the 4x4 weight matrix"

    @pytest.mark.parametrize("priorities", [{"99": []}, {"99": [1]}, {"2": [0]}, {"-1": [0]}])
    def test_priorities_key_out_of_range_named(self, priorities):
        doc = minimal_doc()
        doc["priorities"] = priorities
        key = next(iter(priorities))
        with pytest.raises(ConfigError, match=f"^priorities: {key} is not a node id"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("order", [[0], [1, 0], [1, 2]])
    def test_priorities_must_be_out_neighbors(self, order):
        doc = minimal_doc()
        doc["priorities"] = {"0": order}
        with pytest.raises(ConfigError, match=r"^priorities\[0\] lists non-out-neighbors$"):
            scenario_from_dict(doc)
        doc["priorities"] = {"0": [1]}
        assert scenario_from_dict(doc).priorities == {0: [1]}

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError):
            load_scenario("no-such-scenario")

    def test_a_file_not_in_utf8_is_a_config_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(minimal_doc()).replace("tiny", "t\u00efny").encode("latin-1"))
        with pytest.raises(ConfigError, match=f"^could not read {re.escape(str(path))}: .*utf-8"):
            load_scenario(path)

    def test_round_trip(self, tmp_path):
        cfg = paper_4node()
        path = tmp_path / "scenario.json"
        save_scenario(cfg, path)
        again = load_scenario(path)
        assert again.to_dict() == cfg.to_dict()
        assert np.array_equal(again.weights, cfg.weights)
        assert again.graph.edges == cfg.graph.edges


class TestCli:
    def test_init_prints_budget(self, capsys, tmp_path):
        out = tmp_path / "gains.json"
        code = main(["init", "--scenario", "paper-4node", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "m_bar         : 11" in captured
        assert "leader        : node 0" in captured
        doc = json.loads(out.read_text())
        assert doc["m_bar"] == 11
        assert np.allclose(doc["k_gains"][3], 0.0)
        assert np.allclose(doc["l_gains"][2], 0.0)

    def test_simulate_writes_csv_with_monotone_time(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "simulate",
                "--scenario",
                "paper-4node",
                "--tau",
                "1",
                "--horizon",
                "12",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert header == [
            "k",
            "t",
            "norm_x",
            "norm_ebar",
            "norm_e_1",
            "norm_e_2",
            "norm_e_3",
            "norm_e_4",
            "rounds_used",
        ]
        assert len(data) == 13
        times = [float(r[1]) for r in data]
        assert times == sorted(times) and times[1] == 12.0
        capsys.readouterr()

    def test_export_requires_out(self, capsys):
        code = main(["export", "--scenario", "paper-4node", "--horizon", "2"])
        assert code == 1
        assert "requires --out" in capsys.readouterr().err

    def test_export_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(
            ["export", "--scenario", "paper-4node", "--horizon", "2", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        capsys.readouterr()

    def test_verify_reports_every_criterion(self, capsys, monkeypatch, acceptance_ctx):
        # every criterion still runs through `ftcc verify`, on the shared context
        monkeypatch.setattr(
            AcceptanceContext, "build", classmethod(lambda cls: acceptance_ctx)
        )
        code = main(["verify", "--scenario", "paper-4node"])
        captured = capsys.readouterr().out
        for i in range(1, 12):
            assert f"criterion {i:2d}" in captured
        # the counterexample benchmark is inconsistent with its recorded
        # eigenvalues, so verify honestly reports one failure
        assert "10/11 criteria passed" in captured
        assert code == 1

    def test_verify_rejects_other_scenarios(self, capsys):
        assert main(["verify", "--scenario", "something-else"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_nan_initial_state_is_a_config_error(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["x0"] = [float("nan"), 1.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", "--scenario", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "x0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("path, value, section", MALFORMED)
    def test_malformed_value_is_an_error_line(self, tmp_path, capsys, path, value, section):
        doc = minimal_doc()
        set_path(doc, path, value)
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(doc))
        code = main(["simulate", "--scenario", str(file)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {section}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("tau", ["-1", "nan"])
    def test_a_bad_tau_is_an_error_line(self, capsys, tau):
        code = main(["simulate", "--tau", tau, "--horizon", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: tau must be positive and finite")
        assert "Traceback" not in err

    def test_a_directory_scenario_is_an_error_line(self, tmp_path, capsys):
        code = main(["init", "--scenario", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: could not read {tmp_path}: ")

    def test_custom_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(minimal_doc()))
        code = main(["simulate", "--scenario", str(path), "--horizon", "4"])
        assert code == 0
        assert "tiny" in capsys.readouterr().out
