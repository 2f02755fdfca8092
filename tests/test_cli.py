"""CLI surface: subcommands, flags, environment, instance files."""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math

import pytest

from qcs import DelayModel, bounds, cli, experiments
from qcs.cli import load_federated_instance, load_scheduling_instance, main
from qcs.experiments import ExperimentConfig, RandomGraphSpec, SchedulingUniformInitial


MINIMAL = {
    "mode": "sync",
    "graph": {"random": {"n": 8, "edge_prob": 0.5}},
    "initial": {"explicit": {"y0": [4] * 8, "z0": [1] * 8}},
}


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(MINIMAL), encoding="utf-8")
    return path


def write_scheduling_instance(tmp_path):
    path = tmp_path / "sched.json"
    path.write_text(
        json.dumps(
            {
                "nodes": [
                    {"l": 40, "u": 0, "pi_max": 100},
                    {"l": 40, "u": 0, "pi_max": 300},
                ]
            }
        ),
        encoding="utf-8",
    )
    return path


# a 3-ring edge-list file (D = 2), and configs on it that every trial would fail,
# each with the one error line that `qcs run` and `qcs bounds` print
RING_FILE = "3 3\n0 1\n1 2\n2 0\n"
RING_FAULTS = {
    "generic_lengths": ({"initial": {"generic": {"alpha": [1, 2], "rho": [3, 4, 5]}}},
                        "initial.generic.alpha: 2 values for a graph with 3 nodes"),
    "per_node_pmf_rows": ({"mode": "async", "delay": {"max_delay": 2, "per_node_pmf": [[0.5, 0.5]] * 2}},
                          "delay.per_node_pmf: 2 rows for a graph with 3 nodes"),
    "diameter_bound_below_d": ({"diameter_bound": 1}, "diameter_bound: 1 is below the graph's diameter 2"),
    "window_over_max_steps": ({"mode": "async", "delay": {"max_delay": 3}, "max_steps": 5},
                              "delay.max_delay: one vote window of 6 steps exceeds the step cap of 5"),
}


class TestRunCommand:
    def test_run_writes_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["run", "--config", str(config_file), "--out", str(out), "--workers", "1"]) == 0
        assert (out / "outcomes.csv").exists()
        assert (out / "summary.json").exists()
        assert "converged" in capsys.readouterr().out

    def test_run_trials_and_seed_overrides(self, config_file, tmp_path):
        out = tmp_path / "a"
        main([
            "run", "--config", str(config_file), "--out", str(out),
            "--trials", "3", "--seed", "5", "--workers", "1",
        ])
        lines = (out / "outcomes.csv").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_graph_file_flag(self, config_file, tmp_path):
        import qcs

        g = qcs.generate_random_digraph(8, 0.6, seed=4)
        gpath = tmp_path / "g.txt"
        g.save(gpath)
        out = tmp_path / "o"
        assert main([
            "run", "--config", str(config_file), "--graph-file", str(gpath),
            "--out", str(out), "--workers", "1",
        ]) == 0

    def test_bad_config_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**MINIMAL, "mode": "warp"}), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert "mode" in capsys.readouterr().err

    def test_epsilon_reports_the_fraction_within_the_bound(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MINIMAL, "trials": 2, "epsilon": 0.1}), encoding="utf-8")
        assert main(["run", "--config", str(path), "--workers", "1"]) == 0
        assert "run: fraction within completion bound = 1.000" in capsys.readouterr().out

    def test_format_json(self, config_file, tmp_path):
        out = tmp_path / "j"
        main(["run", "--config", str(config_file), "--out", str(out), "--format", "json", "--workers", "1"])
        assert (out / "outcomes.json").exists()


class TestCleanErrors:
    @pytest.mark.parametrize(
        "case, word",
        [("absent", "cannot read"), ("bad-trials", "trials"), ("no-pi-max", "pi_max")],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, case, word):
        path = tmp_path / f"{case}.json"
        if case == "bad-trials":
            path.write_text(json.dumps({**MINIMAL, "trials": "x"}), encoding="utf-8")
        if case == "no-pi-max":
            path.write_text(json.dumps({"nodes": [{"l": 4, "u": 0}, {"l": 4, "u": 0}]}), encoding="utf-8")
            argv = ["app-scheduling", "--instance", str(path)]
        else:
            argv = ["run", "--config", str(path)]
        assert main(argv) == 2
        assert word in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--sizes", "5", "--delays", "0", "--trials", "1"], "--delays: must be >= 1, got 0"),
            (["sweep", "--delays", "x"], "--delays: expected comma-separated integers, got 'x'"),
            (["sweep", "--sizes", "5,1", "--delays", "2"], "--sizes: must be >= 2, got 1"),
            (["sweep", "--sizes", "5,", "--delays", "2"], "--sizes: expected comma-separated integers"),
            (["app-scheduling", "--instance", "sched.json", "--mode", "async", "--max-delay", "0"],
             "--max-delay: must be >= 1, got 0"),
            (["app-federated", "--instance", "fed.json", "--mode", "async", "--max-delay", "-3"],
             "--max-delay: must be >= 1, got -3"),
            (["bounds", "--config", "cfg.json", "--epsilon", "2"], "--epsilon: must be in (0, 1), got 2.0"),
            (["bounds", "--config", "cfg.json", "--epsilon", "nan"], "--epsilon: must be in (0, 1), got nan"),
            (["app-scheduling", "--instance", "sched.json", "--mode", "async", "--max-delay", "200000"],
             "delay.max_delay: one vote window of 200000 steps exceeds the step cap of 100000"),
            (["fig1", "--trials", "2", "--workers", "-3"], "--workers: must be >= 1, got -3"),
            (["sweep", "--sizes", "5", "--delays", "2", "--trials", "1", "--workers", "0"],
             "--workers: must be >= 1, got 0"),
        ],
    )
    def test_bad_flag_values_exit_2(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        write_scheduling_instance(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(MINIMAL), encoding="utf-8")
        nodes = [{"r_size": 3, "w_local": 10}, {"r_size": 5, "w_local": 20}]
        (tmp_path / "fed.json").write_text(json.dumps({"nodes": nodes}), encoding="utf-8")
        inputs = sorted(tmp_path.iterdir())
        assert main([*argv, "--out", "o"] if argv[0] == "sweep" else argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert sorted(tmp_path.iterdir()) == inputs


    @pytest.mark.parametrize("out", ["F", "F/sub", "F/sub/deeper"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "cfg.json"],
            ["fig1", "--trials", "3"],
            ["sweep", "--sizes", "5", "--delays", "2", "--trials", "1"],
            ["bounds", "--config", "cfg.json", "--epsilon", "0.1"],
        ],
    )
    def test_an_out_under_a_file_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys, argv, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(MINIMAL), encoding="utf-8")
        (tmp_path / "F").write_text("", encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("ran before the --out check")

        monkeypatch.setattr(experiments, "run_trials", refuse)
        monkeypatch.setattr(experiments, "bounds_report", refuse)
        inputs = sorted(tmp_path.iterdir())
        assert main([*argv, "--out", out]) == 2
        assert capsys.readouterr().err == "error: --out: F is not a directory\n"
        assert sorted(tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_a_fig3_mode_directory_that_is_a_file_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                                                          mode):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "O").mkdir()
        (tmp_path / "O" / mode).write_text("", encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("ran before the --out check")

        monkeypatch.setattr(experiments, "run_trials", refuse)
        assert main(["fig3", "--trials", "2", "--workers", "1", "--out", "O"]) == 2
        assert capsys.readouterr().err == f"error: --out: O/{mode} is not a directory\n"
        assert [p.name for p in (tmp_path / "O").iterdir()] == [mode]

    def test_an_unwritable_artifact_exits_2_naming_it(self, config_file, tmp_path, capsys):
        (tmp_path / "o" / "outcomes.csv").mkdir(parents=True)
        assert main(["run", "--config", str(config_file), "--out", str(tmp_path / "o"), "--workers", "1"]) == 2
        named = tmp_path / "o" / "outcomes.csv"
        assert capsys.readouterr().err == f"error: output {named}: cannot write (Is a directory)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "cfg.json"],
            ["bounds", "--config", "cfg.json", "--epsilon", "0.1"],
            ["app-scheduling", "--instance", "sched.json"],
        ],
    )
    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "graph.file g.txt: cannot read (No such file or directory)"),
            ("3 1\n0 1 2\n", "graph.file g.txt: malformed edge line: '0 1 2'"),
        ],
    )
    def test_graph_file_errors_exit_2(self, tmp_path, monkeypatch, capsys, argv, text, message):
        monkeypatch.chdir(tmp_path)
        write_scheduling_instance(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(MINIMAL), encoding="utf-8")
        if text is not None:
            (tmp_path / "g.txt").write_text(text, encoding="utf-8")
        assert main([*argv, "--graph-file", "g.txt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "command, nodes, message",
        [
            ("app-federated", [{"r_size": 0, "w_local": 5}, {"r_size": 3, "w_local": 5}],
             "nodes[0].r_size: must be >= 1, got 0"),
            ("app-scheduling", [{"l": 4, "u": 0, "pi_max": 100}, {"l": "x", "u": 0, "pi_max": 100}],
             "nodes[1].l: expected an integer, got 'x'"),
        ],
    )
    def test_bad_instance_values_named_by_node_key(self, tmp_path, monkeypatch, capsys, command, nodes, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "i.json").write_text(json.dumps({"nodes": nodes}), encoding="utf-8")
        assert main([command, "--instance", "i.json"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: instance file i.json: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "over.json"],
            ["bounds", "--config", "over.json", "--epsilon", "0.1"],
            ["app-scheduling", "--instance", "over_inst.json"],
        ],
    )
    def test_an_over_capacity_scheduling_instance_exits_2_before_any_graph(self, tmp_path, monkeypatch, capsys,
                                                                           argv):
        monkeypatch.chdir(tmp_path)
        nodes = {"workloads": [300, 300], "occupied": [0, 0], "capacity": [100, 300]}
        config = {"mode": "sync", "graph": {"random": {"n": 2, "edge_prob": 1}}, "initial": {"scheduling": nodes}}
        (tmp_path / "over.json").write_text(json.dumps(config), encoding="utf-8")
        instance = {"nodes": [{"l": 300, "u": 0, "pi_max": 100}, {"l": 300, "u": 0, "pi_max": 300}]}
        (tmp_path / "over_inst.json").write_text(json.dumps(instance), encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("built a graph")

        monkeypatch.setattr(experiments, "generate_random_digraph", refuse)
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: initial.scheduling: total demand 600 exceeds available capacity 400\n"

    @pytest.mark.parametrize("argv", [["run", "--config", "cfg.json"], ["bounds", "--config", "cfg.json"]])
    @pytest.mark.parametrize("workloads", [[300, 300, 300], [3, 3, 3]])
    def test_unequal_scheduling_columns_on_a_graph_file_exit_2_before_any_trial(self, tmp_path, monkeypatch,
                                                                               capsys, argv, workloads):
        # the file's n is known before trial 0, so the lengths are checked before capacity is summed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ring.txt").write_text("3 3\n0 1\n1 2\n2 0\n", encoding="utf-8")
        nodes = {"workloads": workloads, "occupied": [0, 0], "capacity": [100, 300]}
        config = {"mode": "sync", "graph": {"file": "ring.txt"}, "initial": {"scheduling": nodes}, "epsilon": 0.1}
        (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("started a trial")

        monkeypatch.setattr(experiments, "build_trial_instance", refuse)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: initial.scheduling.occupied: 2 values for a graph with 3 nodes\n"

    @pytest.mark.parametrize(
        "argv", [["run", "--workers", "1"], ["run", "--workers", "2"], ["bounds", "--epsilon", "0.1"]]
    )
    @pytest.mark.parametrize("fault", sorted(RING_FAULTS))
    def test_a_graph_file_fault_exits_2_before_any_trial_or_pool(self, tmp_path, monkeypatch, capsys, argv, fault):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ring.txt").write_text(RING_FILE, encoding="utf-8")
        override, message = RING_FAULTS[fault]
        config = {"mode": "sync", "graph": {"file": "ring.txt"},
                  "initial": {"explicit": {"y0": [3, 4, 5], "z0": [1, 1, 1]}}, "trials": 4, **override}
        (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("started a trial or a pool")

        for module, name in ((experiments, "_trial_worker"), (experiments, "build_trial_instance"),
                             (concurrent.futures, "ProcessPoolExecutor")):
            monkeypatch.setattr(module, name, refuse)
        assert main([argv[0], "--config", "cfg.json", *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_instance_without_a_node_list_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "i.json").write_text(json.dumps({"nodes": 5}), encoding="utf-8")
        assert main(["app-scheduling", "--instance", "i.json"]) == 2
        err = capsys.readouterr().err
        assert err == "error: instance file i.json: expected an object with a 'nodes' list of objects\n"


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            [*app, flag, value]
            for app in (["app-scheduling", "--instance", "i.json"], ["app-federated", "--instance", "i.json"])
            for flag, value in (("--trials", "2"), ("--out", "o"), ("--format", "csv"), ("--workers", "1"))
        ]
        + [
            ["bounds", "--config", "c.json", flag, value]
            for flag, value in (("--trials", "2"), ("--format", "csv"), ("--workers", "1"))
        ]
        + [["sweep", "--format", "csv"], ["fig2-desk", "--format", "csv"]],
    )
    def test_flags_no_command_reads_are_refused(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []


class TestBoundsCommand:
    def test_prints_key_value_table(self, config_file, capsys):
        assert main(["bounds", "--config", str(config_file), "--epsilon", "0.05"]) == 0
        out = capsys.readouterr().out
        for key in ("diameter", "visit_prob_bound", "windows", "completion_step_bound"):
            assert key in out

    def test_requires_epsilon(self, config_file, capsys):
        assert main(["bounds", "--config", str(config_file)]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_writes_json_when_out_given(self, config_file, tmp_path):
        out = tmp_path / "b"
        main(["bounds", "--config", str(config_file), "--epsilon", "0.1", "--out", str(out)])
        report = json.loads((out / "bounds.json").read_text())
        assert report["epsilon"] == 0.1

    def test_diameter_bound_below_trial_0s_diameter_exits_2(self, tmp_path, capsys):
        # trial 0 of this n = 10 sync config draws a diameter-3 graph; one-step
        # windows cannot carry the visit floor the step bound counts on
        cfg = {**MINIMAL, "graph": {"random": {"n": 10, "edge_prob": 0.5}},
               "initial": {"explicit": {"y0": [3] * 10, "z0": [1] * 10}}, "diameter_bound": 1}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "b"
        assert main(["bounds", "--config", str(tmp_path / "cfg.json"), "--epsilon", "0.1", "--out", str(out)]) == 2
        message = "diameter_bound: 1 is below the graph's diameter 3"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "bounds.json").exists()
        # a run meets the same rule in trial 0, whose error names it
        assert main(["run", "--config", str(tmp_path / "cfg.json"), "--workers", "1"]) == 2
        assert capsys.readouterr().err == f"error: trial 0 (seed 0) failed: ConfigError: {message}\n"

    def test_step_cap_below_one_window_exits_2(self, tmp_path, capsys):
        # trial 0 draws a diameter-3 graph, so a sync run refuses 2 steps;
        # the table it would be run under is refused alike
        cfg = {**MINIMAL, "graph": {"random": {"n": 10, "edge_prob": 0.5}},
               "initial": {"explicit": {"y0": [3] * 10, "z0": [1] * 10}}, "max_steps": 2, "epsilon": 0.1}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "b"
        assert main(["bounds", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: max_steps: one vote window of 3 steps exceeds the step cap of 2\n"
        assert not (out / "bounds.json").exists()
        assert main(["run", "--config", str(tmp_path / "cfg.json"), "--workers", "1"]) == 2

    def test_visit_floor_below_float_resolution(self, tmp_path, monkeypatch):
        # trial 0 draws a graph whose visit floor under B = 1000 is about
        # 1e-18, where a float 1 - p is 1
        monkeypatch.chdir(tmp_path)
        cfg = {"mode": "async", "graph": {"random": {"n": 8, "edge_prob": 0.3}},
               "initial": {"explicit": {"y0": [3, 1, 4, 1, 5, 9, 2, 6], "z0": [1] * 8}},
               "delay": {"max_delay": 1000}, "epsilon": 0.1, "trials": 1}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bounds", "--config", "cfg.json", "--out", "b"]) == 0
        table = json.loads((tmp_path / "b" / "bounds.json").read_text())
        assert 0 < table["visit_prob_bound_delayed"] < 2**-53
        assert table["windows_delayed"] * table["visit_prob_bound_delayed"] == pytest.approx(math.log(10))
        assert main(["run", "--config", "cfg.json", "--workers", "1", "--out", "r"]) == 0
        assert json.loads((tmp_path / "r" / "summary.json").read_text())["bounds"] == table

    def test_epsilon_flag_meets_the_configs_checks(self, tmp_path, capsys):
        # the maximum delay is never drawn, so the delayed bounds have no
        # visit floor; --epsilon gets the refusal an epsilon key would
        cfg = {**MINIMAL, "mode": "async", "delay": {"max_delay": 3, "pmf": [0.5, 0.5, 0.0]}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bounds", "--config", str(tmp_path / "cfg.json"), "--epsilon", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: delay.pmf: the maximum delay has probability 0; epsilon's bounds need it > 0\n"

    @pytest.mark.parametrize("delay", [
        {"max_delay": 3},
        {"max_delay": 3, "per_node_pmf": [[0.5, 0.25, 0.25], [0.2, 0.2, 0.6]] * 4},
    ])
    def test_one_table_for_every_caller(self, tmp_path, monkeypatch, delay):
        monkeypatch.chdir(tmp_path)
        spec = {**MINIMAL, "mode": "async", "delay": delay, "epsilon": 0.05, "trials": 2}
        (tmp_path / "cfg.json").write_text(json.dumps(spec), encoding="utf-8")
        cfg = experiments.parse_config(spec)
        inst = experiments.build_trial_instance(cfg, 0)
        args = (inst.graph, cfg.epsilon, inst.y0, inst.z0)
        table = bounds.bounds_report(*args, cfg.delay_model(), window_basis=cfg.diameter_bound)
        assert table["max_delay"] == 3
        assert main(["bounds", "--config", "cfg.json", "--out", "b"]) == 0
        assert main(["run", "--config", "cfg.json", "--workers", "1", "--out", "r"]) == 0
        assert experiments.bounds_report(cfg) == table
        assert json.loads((tmp_path / "r" / "summary.json").read_text())["bounds"] == table
        assert json.loads((tmp_path / "b" / "bounds.json").read_text()) == table
        # unit delays by default: the plain chain alone
        plain = bounds.bounds_report(*args)
        assert not any(key.endswith("_delayed") for key in plain)
        assert plain == {k: v for k, v in table.items() if k in plain}


# a strongly connected 6-node graph of diameter 3
PIN_GRAPH = "6 14\n0 2\n0 3\n0 4\n0 5\n1 0\n1 2\n1 3\n2 5\n3 1\n4 1\n4 3\n5 1\n5 2\n5 4\n"


class TestBoundTablePins:
    """sha256 of every bound table and step statistic the CLI writes.

    For each config the digest covers `qcs bounds --out`'s bounds.json,
    the bounds and stats blocks of `qcs run`'s summary.json and its
    outcomes.csv.  Recorded at commit 64c2dab; how the bound chain is
    computed may change, but no byte of these artifacts may.
    """

    BASE = {
        "mode": "async",
        "graph": {"random": {"n": 8, "edge_prob": 0.5}},
        "initial": {"uniform": {"y0_range": [0, 40], "z0_range": [1, 4]}},
        "trials": 3,
        "seed": 11,
        "epsilon": 0.05,
    }
    CONFIGS = {
        "sync": {"mode": "sync"},
        "sync-diameter-bound": {"mode": "sync", "diameter_bound": 5},
        "async-b1": {"delay": {"max_delay": 1}},
        "async-b3": {"delay": {"max_delay": 3}},
        "async-b5-diameter-bound": {"delay": {"max_delay": 5}, "diameter_bound": 6},
        "async-b7": {"delay": {"max_delay": 7}, "epsilon": 0.3},
        "pmf": {"delay": {"max_delay": 4, "pmf": [0.4, 0.3, 0.2, 0.1]}},
        "per-node-pmf": {"delay": {"max_delay": 3, "per_node_pmf": [
            [0.5, 0.25, 0.25], [0.2, 0.2, 0.6], [1 / 3, 1 / 3, 1 / 3], [0.1, 0.1, 0.8],
            [0.6, 0.3, 0.1], [0.25, 0.25, 0.5], [0.3, 0.3, 0.4], [0.05, 0.05, 0.9]]}},
        "graph-file": {"delay": {"max_delay": 2}, "graph": {"file": "g.txt"}},
    }
    PINS = {
        "sync": "7c5c940179377360abb3cc459c8fecc074d3912b12e2d08ff800e3b6131cd61e",
        "sync-diameter-bound": "a56868e42f2635609fb9af93ce41f0aa785f7af48d58a4a95a6ce973f533b4bf",
        "async-b1": "7c5c940179377360abb3cc459c8fecc074d3912b12e2d08ff800e3b6131cd61e",
        "async-b3": "286ab15ae918b03c7ce0654a7d9694606fa22e472901c9532970bf7d76c94828",
        "async-b5-diameter-bound": "79e2f5a286c4f3f29292ddea72f0fd06f8c318f8aa50b7e774f675aafba77b49",
        "async-b7": "8bb23686371aded28e75a24e89162326a570fc74f120c658bc071b31524cec93",
        "pmf": "f7d9e202ce55c218fb272a771e0643ceb90c84d329f7624376c43affa3d6dc10",
        "per-node-pmf": "3b8caa337df986f11c3694980b5d82e659fec4066d0c9abeea8c5ac1b6b227ef",
        "graph-file": "bf32fc0bd7b83cd295a6facee7badf65d51d74a9cadb981c81fda4dbc7525530",
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_cli_bound_tables_are_pinned(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.txt").write_text(PIN_GRAPH, encoding="utf-8")
        (tmp_path / "cfg.json").write_text(json.dumps({**self.BASE, **self.CONFIGS[name]}), encoding="utf-8")
        assert main(["bounds", "--config", "cfg.json", "--out", "b"]) == 0
        assert main(["run", "--config", "cfg.json", "--workers", "1", "--out", "r"]) == 0
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        h = hashlib.sha256((tmp_path / "b" / "bounds.json").read_bytes())
        h.update(json.dumps([summary["bounds"], summary["stats"]]).encode())
        h.update((tmp_path / "r" / "outcomes.csv").read_bytes())
        assert h.hexdigest() == self.PINS[name]


class TestPresetCommands:
    def test_fig1_smoke(self, tmp_path, capsys):
        out = tmp_path / "fig1"
        assert main(["fig1", "--trials", "3", "--seed", "1", "--out", str(out), "--workers", "1"]) == 0
        assert (out / "outcomes.csv").exists()
        assert "fig1" in capsys.readouterr().out

    def test_fig1_single_trial_emits_error_series(self, tmp_path):
        # one trial records its trajectory by default, so the error
        # curve lands on disk and settles at a terminal plateau
        out = tmp_path / "fig1-single"
        assert main(["fig1", "--trials", "1", "--seed", "2", "--out", str(out), "--workers", "1"]) == 0
        rows = (out / "error_series.csv").read_text().strip().splitlines()
        assert rows[0] == "trial,k,e_k"
        values = [float(r.split(",")[2]) for r in rows[1:]]
        assert values[0] == 1.0
        assert values[-1] < 0.5 * values[0]

    def test_fig3_smoke_writes_both_modes(self, tmp_path):
        out = tmp_path / "fig3"
        assert main(["fig3", "--trials", "2", "--seed", "1", "--out", str(out), "--workers", "1"]) == 0
        assert (out / "sync" / "outcomes.csv").exists()
        assert (out / "async" / "outcomes.csv").exists()

    @pytest.mark.parametrize("argv, trials, seed", [([], 100, 0), (["--trials", "3", "--seed", "9"], 3, 9)])
    def test_fig3_configs_are_the_preset(self, monkeypatch, argv, trials, seed):
        run, got = experiments.run_experiment, []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg, **kw: got.append(cfg) or run(cfg, **kw))
        assert main(["fig3", "--workers", "1", *argv]) == 0
        assert got == list(experiments.fig3_configs(trials, seed).values())

    def test_sweep_smoke(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--sizes", "5,7", "--delays", "2", "--trials", "2",
            "--seed", "0", "--out", str(out), "--workers", "1",
        ])
        assert rc == 0
        lines = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert "n=5 B=2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, sizes, delays, edge_prob, trials, seed",
        [
            ([], (50, 100, 200, 300), (5, 10, 15), 0.5, 50, 0),
            (["--sizes", "5,7", "--delays", "2", "--edge-prob", "0.4", "--trials", "3", "--seed", "9"],
             (5, 7), (2,), 0.4, 3, 9),
        ],
    )
    def test_sweep_cells_are_the_fig2_grid(self, monkeypatch, argv, sizes, delays, edge_prob, trials, seed):
        # every (size, delay) pair is an async scheduling cell with its own seed block
        want = [
            (n, b, ExperimentConfig(
                mode="async",
                graph=RandomGraphSpec(n=n, edge_prob=edge_prob),
                initial=SchedulingUniformInitial(
                    load_range=(1, 100), capacity_pattern=(100, 300), occupied=0
                ),
                delay=DelayModel(max_delay=b),
                trials=trials,
                seed=seed + (n * 1000 + b) * 100_000,
            ))
            for n in sizes
            for b in delays
        ]
        got = []
        monkeypatch.setattr(experiments, "run_sweep", lambda cells, **kw: got.extend(cells) or [])
        assert main(["sweep", *argv]) == 0
        assert got == want

    def test_desk_preset_is_the_trimmed_grid(self, monkeypatch):
        got = []
        monkeypatch.setattr(experiments, "run_sweep", lambda cells, **kw: got.extend(cells) or [])
        assert main(["fig2-desk"]) == 0
        assert got == experiments.fig2_grid(trials=50, seed=0)

    def test_full_scale_desk_preset_covers_the_published_grid(self, monkeypatch):
        got = []
        monkeypatch.setattr(experiments, "run_sweep", lambda cells, **kw: got.extend(cells) or [])
        assert main(["fig2-desk", "--full-scale", "--trials", "1"]) == 0
        assert [(n, b) for n, b, _ in got] == [
            (n, b) for n in experiments.FIG2_FULL_SIZES for b in experiments.FIG2_FULL_DELAYS
        ]
        assert got == experiments.fig2_grid(
            trials=1, sizes=experiments.FIG2_FULL_SIZES, delays=experiments.FIG2_FULL_DELAYS
        )


class TestAppCommands:
    def test_scheduling_instance_round_trip(self, tmp_path):
        path = write_scheduling_instance(tmp_path)
        inst = load_scheduling_instance(path)
        assert inst.capacity == (100, 300)

    def test_app_scheduling_exact_solution(self, tmp_path, capsys):
        path = write_scheduling_instance(tmp_path)
        assert main(["app-scheduling", "--instance", str(path), "--seed", "0"]) == 0
        assert capsys.readouterr().out == (
            "converged at step 5 (diameter 1)\n"
            "node 0: w*=20 utilization=0.2000\n"
            "node 1: w*=60 utilization=0.2000\n"
        )

    def test_app_scheduling_refuses_an_estimate_of_zero(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        nodes = [{"l": 2, "u": 0, "pi_max": 1}, {"l": 0, "u": 0, "pi_max": 1}]
        path.write_text(json.dumps({"nodes": nodes}), encoding="utf-8")
        assert main(["app-scheduling", "--instance", str(path), "--edge-prob", "1", "--seed", "0"]) == 2
        assert capsys.readouterr().err.endswith("error: converged estimate 0 is not positive\n")

    @pytest.mark.parametrize("command, nodes", [
        ("app-scheduling", [{"l": 40, "u": 0, "pi_max": 100}, {"l": 40, "u": 0, "pi_max": 300}]),
        ("app-federated", [{"r_size": 10, "w_local": 100}, {"r_size": 30, "w_local": 200}]),
    ])
    def test_an_unconverged_run_exits_1_without_recovery(self, tmp_path, monkeypatch, capsys, command, nodes):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"nodes": nodes}), encoding="utf-8")
        censored = experiments.TrialResult(trial=0, converged=False, termination_step=None, steps_run=50,
                                           estimate=1, spread=2, censored=True, quotient_floor=1,
                                           quotient_ceil=2)
        monkeypatch.setattr(experiments, "run_one_trial", lambda cfg, trial: censored)
        assert main([command, "--instance", str(path), "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "did not converge within the step cap\n"
        assert captured.out == ""

    def test_app_federated(self, tmp_path, capsys):
        path = tmp_path / "fed.json"
        path.write_text(
            json.dumps(
                {"nodes": [{"r_size": 10, "w_local": 100}, {"r_size": 30, "w_local": 200}]}
            ),
            encoding="utf-8",
        )
        inst = load_federated_instance(path)
        assert inst.dataset_sizes == (10, 30)
        assert main(["app-federated", "--instance", str(path), "--seed", "0"]) == 0
        assert "aggregate=175" in capsys.readouterr().out

    def test_app_async_mode(self, tmp_path, capsys):
        path = write_scheduling_instance(tmp_path)
        rc = main([
            "app-scheduling", "--instance", str(path), "--mode", "async",
            "--max-delay", "3", "--seed", "0",
        ])
        assert rc == 0
        assert capsys.readouterr().out == (
            "converged at step 18 (diameter 1)\n"
            "node 0: w*=20 utilization=0.2000\n"
            "node 1: w*=60 utilization=0.2000\n"
        )


class TestEnvironment:
    def test_bad_log_level_falls_back(self, monkeypatch, config_file, tmp_path, capsys):
        monkeypatch.setenv("QCS_LOG_LEVEL", "chatty")
        out = tmp_path / "o"
        assert main(["run", "--config", str(config_file), "--out", str(out), "--workers", "1"]) == 0
        assert "QCS_LOG_LEVEL" in capsys.readouterr().err

    def test_debug_level_accepted(self, monkeypatch, tmp_path):
        # the log level sets logging only; every trial still runs the audits
        monkeypatch.setenv("QCS_LOG_LEVEL", "debug")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MINIMAL, "trials": 2}), encoding="utf-8")
        seen = []
        build = experiments.build_trial_instance
        monkeypatch.setattr(experiments, "build_trial_instance", lambda *args: seen.append(build(*args)) or seen[-1])
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "d"), "--workers", "1"]) == 0
        assert [run_cfg.check_invariants for run_cfg in seen] == [True, True]
