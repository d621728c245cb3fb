import csv
import dataclasses
import json
import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcc.acceptance import AcceptanceContext, CriterionResult
from ftcc.cli import _write, main
from ftcc.exceptions import ConfigError, DisconnectedGraphError, FtccError, JointSystemError
from ftcc import scenario
from ftcc.graph import out_weight_matrix
from ftcc.scenario import (
    PRECISIONS,
    ScenarioConfig,
    load_scenario,
    paper_4node,
    save_scenario,
    scenario_from_dict,
)

from conftest import random_joint_system, random_strongly_connected, targets_for_spectrum

README = Path(__file__).resolve().parents[1] / "README.md"


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
    # both graph forms, even where they describe the same digraph
    (("graph",), {"weight_matrix": [[0.5, 0.5], [0.5, 0.5]], "edges": [[0, 1], [1, 0]]}, "graph"),
    (("graph",), {"weight_matrix": [[0.5, 0.5], [0.5, 0.5]], "node_count": 2}, "graph"),
    (("graph",), {"node_count": 2}, "graph"),
    (("election_values",), ["a", 1, 2, 3], "election_values"),
    (("taus",), [], "taus"),
    (("taus",), "12", "taus"),
    (("horizon",), True, "horizon"),
    (("horizon",), 2.9, "horizon"),
    # a bool or a numeric string is not a number, and only a string is a name
    (("controller_targets",), [False, 0.2], "controller_targets"),
    (("plant", "a"), [["1.5", "0"], ["0", "0.5"]], "plant"),
    (("x0",), [True, 1.0], "x0"),
    (("name",), 5, "name"),
    (("graph", "node_count"), "2", "graph"),
    (("graph", "node_count"), 2.7, "graph"),
    (("graph", "edges"), [[0, True], [1, 0]], "graph"),
    (("controller_targets",), [[0.1, 0.2], 0.3], "controller_targets"),   # not conjugate-closed
    (("controller_targets",), [0.1, 0.2, 0.3], "controller_targets"),   # more than n
    (("plant", "b"), [[[1.0], [0.0], [0.0]], [[0.0], [1.0]]], "plant"),   # 3 rows for n = 2
    (("graph",), {"weight_matrix": [[0.7, 0.5], [0.5, 0.5]]}, "weights"),   # a column off one
    # values out of range
    (("taus",), [float("nan")], "taus"),
    (("x0",), [float("nan"), 1.0], "x0"),
    (("election_values",), [float("nan"), 1.0], "election_values"),
    (("horizon",), -1, "horizon"),
    (("precision",), "octuple", "precision"),
    (("precision",), 5, "precision"),
    # wrong shapes and failed section checks
    (("election_values",), [1.0], "election_values"),
    (("observer_targets",), [1.0, 0.2], "observer_targets"),   # on the unit circle
    (("observer_targets",), [[0.1, 0.2]], "observer_targets"),
    (("plant",), {"a": [[1.5, 0.0], [0.0, 0.5]], "b": [[[1.0], [0.0]], [[0.0], [1.0]]]}, "plant"),
    (("plant", "a"), [[1.5, 0.0, 0.0], [0.0, 0.5, 0.0]], "plant"),
    (("plant", "b"), [[[0.0], [0.0]], [[1.0], [0.0]]], "plant"),   # mode 0.5 is not reached
    (("plant", "c"), [[[1.0, 0.0]], [[1.0, 0.0]]], "plant"),   # mode 0.5 is not seen
    (("graph",), {}, "graph"),
    (("graph", "edges"), [[0, 1], [1, 2]], "graph"),
    # a key that is no field, at each level: the weights come only in the graph
    (("horizn",), 5, "horizn"),
    (("weights",), [[0.5, 0.5], [0.5, 0.5]], "weights"),
    (("graph", "edgs"), [[0, 1], [1, 0]], "graph"),
    (("plant", "typo"), 1, "plant"),
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

    def test_joint_requirement_violation_named(self):
        doc = minimal_doc()
        doc["plant"]["c"] = [[[1.0, 0.0]], [[1.0, 0.0]]]   # second state invisible
        with pytest.raises(JointSystemError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("path, value, section", MALFORMED)
    def test_malformed_value_is_a_config_error(self, path, value, section):
        doc = minimal_doc()
        set_path(doc, path, value)
        with pytest.raises(ConfigError, match=f"^{section}: "):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("path, value, message", [
        (("graph", "node_count"), "2", "graph: node_count: must be a whole number, got '2'"),
        (("graph", "edges"), [[0, "1"], [1, 0]],
         "graph: edge [0, '1'] is not a pair of integer node ids"),
        (("graph", "edges"), [[0, 1], [1]], "graph: edge [1] is not a pair of integer node ids"),
        (("controller_targets",), [[0.1], 0.2],
         "controller_targets: targets must be numbers or [re, im] pairs"),
        (("controller_targets",), [1.5, 0.2], "controller_targets: must lie strictly inside the unit disk"),
        (("graph",), {"edges": [[0, 1], [1, 0]]}, "graph: missing 'node_count'"),
        (("plant",), {"a": [[1.5, 0.0], [0.0, 0.5]], "b": [[[1.0], [0.0]]] * 3, "c": [[[1.0, 0.0]]] * 3},
         "plant: 3 agents but 2 graph nodes"),
        (("x0",), [1.0, 2.0, 3.0], "x0: must have shape (2,)"),
        (("precision",), "octuple", "precision: must be one of ('double', 'extended', 'quad')"),
        (("taus",), [0.0], "taus: need at least one, each positive and finite"),
        (("plant", "b"), [[[0.0], [0.0]], [[1.0], [0.0]]], "plant: system is not jointly controllable"),
        (("plant", "c"), [[[1.0, 0.0]], [[1.0, 0.0]]], "plant: system is not jointly observable"),
        (("graph",), {}, "graph: needs either weight_matrix or edges"),
        (("graph", "weight_matrix"), [[0.5, 0.5], [0.5, 0.5]],
         "graph: either weight_matrix or edges with node_count, not both"),
        (("horizn",), 5, "horizn: not a scenario field"),
        (("weights",), [[0.5, 0.5], [0.5, 0.5]], "weights: not a scenario field"),
        (("graph", "edgs"), [[0, 1], [1, 0]], "graph: edgs: not a graph field"),
        (("plant", "typo"), 1, "plant: typo: not a plant field"),
    ])
    def test_message_names_the_key_or_the_value(self, path, value, message):
        doc = minimal_doc()
        set_path(doc, path, value)
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "retired",
        [
            {"stability_margin": 1e-9}, {"priorities": {}},
            {"priorities": {}, "stability_margin": 1e-9},
            {"rank_rel_tol": 1e-8}, {"xhat0": [[0.0] * 8] * 4},
        ],
        ids=["stability_margin", "priorities", "both", "rank_rel_tol", "xhat0"],
    )
    def test_a_retired_setting_fails_by_name(self, retired):
        # a file that still sets one, at the one value it ever had, fails instead of loading
        doc = {**paper_4node().to_dict(), **retired}
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(doc)
        assert str(info.value) == f"{next(iter(retired))}: not a scenario field"

    @pytest.mark.parametrize("section, keys", [
        ("scenario", [key for key in scenario._FIELDS if key != "weights"]),
        ("graph", list(scenario._GRAPH_KEYS)),
        ("plant", list(scenario._PLANT_KEYS)),
    ])
    def test_readme_lists_every_key_the_document_takes(self, section, keys):
        # the README's "Scenario file" table: one row per key, the graph's forms and
        # the plant's keys as JSON objects in their rows
        text = README.read_text(encoding="utf-8").split("\n## Scenario file\n")[1].split("\n## ")[0]
        rows = dict(re.findall(r"^\| `(\w+)` \|[^|]*\|(.*)\|$", text, re.M))
        listed = list(rows) if section == "scenario" else re.findall(r'"(\w+)":', rows[section])
        assert listed == keys

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError, match=r"^no such scenario file no-such-scenario \(built-ins: \['paper-4node'\]\)$"):
            load_scenario("no-such-scenario")

    def test_a_file_not_in_utf8_is_a_config_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(minimal_doc()).replace("tiny", "t\u00efny").encode("latin-1"))
        with pytest.raises(ConfigError, match=f"^could not read {re.escape(str(path))}: .*utf-8"):
            load_scenario(path)
        path.write_text("{not json")
        with pytest.raises(ConfigError, match=f"^could not parse {re.escape(str(path))}: "):
            load_scenario(path)

    def test_round_trip(self, tmp_path):
        cfg = paper_4node()
        path = tmp_path / "scenario.json"
        save_scenario(cfg, path)
        assert path.read_text().startswith('{\n  "name": "paper-4node",\n')
        again = load_scenario(path)
        assert again.to_dict() == cfg.to_dict()
        # a real target is a number, a complex one an [re, im] pair
        doc = minimal_doc()
        doc["controller_targets"] = [[0.1, 0.2], [0.1, -0.2]]
        assert scenario_from_dict(doc).to_dict()["controller_targets"] == [[0.1, 0.2], [0.1, -0.2]]
        assert cfg.to_dict()["controller_targets"][:2] == [0.6, 0.61]
        assert np.array_equal(again.weights, cfg.weights)
        assert again.graph.edges == cfg.graph.edges

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_generated_configs_round_trip(self, seed):
        # dataclass == on the numpy fields is ambiguous, so the documents are compared
        cfg = small_config(np.random.default_rng(seed))
        doc = cfg.to_dict()
        assert scenario_from_dict(json.loads(json.dumps(doc))).to_dict() == doc


def small_config(rng) -> ScenarioConfig:
    """A valid config on 2 or 3 nodes and 1 to 3 states, each optional field set or not."""
    g = random_strongly_connected(rng, int(rng.integers(2, 4)))
    sys = random_joint_system(rng, g.node_count, int(rng.integers(1, 4)))
    optional = {
        "election_values": rng.normal(size=g.node_count),
        "x0": rng.normal(size=sys.n),
        "horizon": int(rng.integers(0, 100)),
        "taus": tuple(rng.uniform(0.1, 10, size=rng.integers(1, 4))),
        "precision": str(rng.choice(list(PRECISIONS))),
    }
    return ScenarioConfig(
        name=f"small-{rng.integers(1000)}",
        graph=g,
        weights=out_weight_matrix(g),
        plant=sys,
        controller_targets=tuple(targets_for_spectrum(rng, sys.a)),
        observer_targets=tuple(targets_for_spectrum(rng, sys.a)) if rng.random() < 0.5 else (),
        **{k: v for k, v in optional.items() if rng.random() < 0.5},
    )


class TestConstruction:
    """A config built in Python is checked as one loaded from JSON is."""

    @pytest.mark.parametrize(
        "field_name, value, message",
        [
            ("election_values", ["a", 1, 2, 3], ""),
            ("horizon", 2.9, ""),
            ("horizon", True, ""),
            ("horizon", "2", "must be a whole number, got '2'$"),
            # the loop's settings: `simulate --tau` sets taus as (tau,)
            ("taus", (-1.0,), "need at least one, each positive and finite$"),
            ("taus", (float("inf"),), "need at least one, each positive and finite$"),
            ("taus", (True,), r"must be an array of numbers, got \(True,\)$"),
            ("taus", ("1",), r"must be an array of numbers, got \('1',\)$"),
            ("taus", (1 + 0j,), r"must be an array of numbers, got \(\(1\+0j\),\)$"),
            ("name", None, ""),
            # a file's parser rejects this before the check does
            ("controller_targets", ("x",), r"must be numbers, got \('x',\)$"),
        ],
    )
    def test_a_bad_value_names_its_field(self, paper_scenario, field_name, value, message):
        with pytest.raises(ConfigError, match=f"^{field_name}: {message}"):
            dataclasses.replace(paper_scenario, **{field_name: value})


class TestCli:
    def test_init_prints_budget(self, capsys, tmp_path):
        out = tmp_path / "gains.json"
        code = main(["init", "--scenario", "paper-4node", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "m_bar         : 11" in captured
        assert "leader        : node 0" in captured
        # each agent's gains by its number from 1, four decimals
        assert "\nK_1 =\n" in captured and "\nL_4 =\n" in captured
        assert "\nL_1 =\n[[12.56  ]\n [-8.1221]\n" in captured
        assert out.read_text().startswith('{\n  "scenario": "paper-4node",\n  "m_bar": 11,\n')
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
        assert capsys.readouterr().out.splitlines()[1] == (
            "final step 12: |x| = 6.222e+02, |ebar| = 1.325e-01, t = 144.0"
        )

    def test_verify_reports_every_criterion(self, capsys, monkeypatch, acceptance_ctx):
        # every criterion still runs through `ftcc verify`, on the shared context
        monkeypatch.setattr(
            AcceptanceContext, "build", classmethod(lambda cls: acceptance_ctx)
        )
        code = main(["verify"])
        lines = capsys.readouterr().out.splitlines()
        assert [line[:21] for line in lines[:11]] == [
            f"[{'FAIL' if i == 5 else 'PASS'}] criterion {i:2d}: " for i in range(1, 12)
        ]
        # the lines that carry no roundoff, whole or up to it
        for line in (
            "round budget from bootstrap consensus -- m_bar = 11 (expected 11), D' = 3",
            "per-agent structural indices -- rho = [4, 2, 6, 2], chi = [4, 2, 2, 6]",
            "local-design counterexample eigenvalues (known benchmark inconsistency) -- max "
            "eigenvalue deviation from recorded values = 5.9689; summed closed loop unstable "
            "as claimed: True",
            "token hop and flood complexity on rings -- hops/bound N=3:3/4, N=4:4/9, N=5:5/16, "
            "N=6:6/25, N=7:7/36, N=8:8/49",
            "normalized-time invariance across tau -- taus [0.1, 1.0, 10.0]: traces "
            "identical=True, time column exact=True",
        ):
            assert any(got[21:] == line for got in lines), line
        assert lines[5][21:].startswith("finite-time exactness on random digraphs -- 100 trials")
        assert lines[8][21:].startswith("single-eigenvalue placement invariance -- 100 random")
        # the counterexample benchmark is inconsistent with its recorded
        # eigenvalues, so verify honestly reports one failure
        assert lines[11:] == ["10/11 criteria passed"]
        assert code == 1

    def test_verify_exits_0_when_every_criterion_passes(self, capsys, monkeypatch):
        monkeypatch.setattr("ftcc.cli.run_all", lambda: [CriterionResult(1, "one", True)])
        assert main(["verify"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1/1 criteria passed"

    @pytest.mark.filterwarnings("ignore:'ftcc.cli' found in sys.modules")
    def test_run_as_a_module_exits_with_mains_code(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["ftcc", "simulate", "--tau", "-1"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("ftcc.cli", run_name="__main__")
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("error: taus: ")

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["export", "--out", "t.csv"], ["verify", "--scenario", "paper-4node"]],
        ids=["export", "verify --scenario"],
    )
    def test_no_second_path_to_a_command(self, argv, capsys):
        # `simulate --out` writes the trace; `verify` runs the built-in suite only
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tau", "-1", "error: taus: need at least one, each positive and finite"),
            ("--tau", "nan", "error: taus: need at least one, each positive and finite"),
            ("--horizon", "-1", "error: horizon: must be nonnegative"),
        ],
    )
    def test_a_bad_loop_setting_fails_before_any_set_up(
        self, capsys, monkeypatch, flag, value, message
    ):
        def no_set_up(cfg):
            raise AssertionError("initialize ran")

        monkeypatch.setattr("ftcc.cli.initialize", no_set_up)
        code = main(["simulate", flag, value])
        assert code == 1
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize(
        "argv",
        [["init"], ["simulate", "--horizon", "2"]],
        ids=["init", "simulate"],
    )
    @pytest.mark.parametrize(
        "out, reason",
        [
            ("missing/out.txt", "No such file or directory"),
            (".", "Is a directory"),
            ("file/out.txt", "Not a directory"),
        ],
        ids=["a-missing-directory", "a-directory", "under-a-file"],
    )
    def test_an_out_that_cannot_be_opened_fails_before_any_set_up(
        self, tmp_path, capsys, monkeypatch, argv, out, reason
    ):
        def no_set_up(cfg):
            raise AssertionError("initialize ran")

        monkeypatch.setattr("ftcc.cli.initialize", no_set_up)
        (tmp_path / "file").write_text("")
        out = tmp_path / out
        code = main([*argv, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: could not write {out}: {reason}\n"

    def test_a_file_with_a_retired_setting_is_an_error_line(self, tmp_path, capsys):
        # a paper-4node file saved while the document still carried both settings
        path = tmp_path / "old.json"
        doc = paper_4node().to_dict()
        doc.update(priorities={}, stability_margin=1e-9)
        path.write_text(json.dumps(doc))
        assert main(["init", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == "error: priorities: not a scenario field\n"

    @pytest.mark.parametrize("key, value", [("rank_rel_tol", 1e-8), ("xhat0", [[0.0] * 8] * 4)])
    def test_a_file_that_sets_a_constant_is_an_error_line(self, tmp_path, capsys, key, value):
        # the Hankel tolerance and the zero start estimates are no longer settings
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**paper_4node().to_dict(), key: value}))
        assert main(["init", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {key}: not a scenario field\n"

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
        # the spectra print to six decimals
        doc = minimal_doc()
        doc["controller_targets"] = [0.1234567, 0.2]
        path.write_text(json.dumps(doc))
        assert main(["init", "--scenario", str(path)]) == 0
        assert "(control) : [0.123457+0.j 0.2     +0.j]" in capsys.readouterr().out

    def test_a_failed_write_names_the_path_and_the_reason(self, tmp_path):
        # the error of an open that fails after the up-front check passed
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(FtccError) as err:
            _write(path, lambda fh: None)
        assert str(err.value) == f"could not write {path}: No such file or directory"
